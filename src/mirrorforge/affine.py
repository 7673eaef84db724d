"""Integral affine geometry: polytopes, unimodular maps, affine and
quadratic functions.

Polytopes carry both an inequality description (integer normals,
rational bounds) and a declared vertex list; construction validates that
the two agree: vertices are feasible and extreme, every inequality is
tight somewhere, and the recession cone is trivial, so the set is
bounded and nonempty.

These comparisons run on ints: the bounds and points of one test are
scaled once by their least common denominator (``integer_scaling``).
Unimodular maps invert on ints too, by the adjugate over det = +-1.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .errors import ChartMismatchError, InvalidPolytopeError
from .intlinalg import (
    PresolvedIntegerSystem,
    determinant,
    identity_matrix,
    mat_mul,
    principal_minor_sums,
)
from .novikov import _frac


def _int_vec(values, what):
    out = []
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"{what} must be integers, got {x!r}")
        out.append(x)
    return tuple(out)


def _frac_vec(values):
    return tuple(_frac(x) for x in values)


def dot(a, b):
    return sum(map(mul, a, b))


def integer_scaling(inequalities, points=()):
    """(d, B, P): the bounds and the point coordinates times their least
    common denominator d, as ints, so that n.p <= b reads n.P <= B."""
    values = [b for _, b in inequalities] + [x for p in points for x in p]
    d = lcm(*(x.denominator for x in values))
    ints = iter([x.numerator * (d // x.denominator) for x in values])
    bounds = [next(ints) for _ in inequalities]
    return d, bounds, [tuple(next(ints) for _ in p) for p in points]


def _scaled_halfspaces(inequalities):
    # (d, [(n, B)]): the halfspaces n.x <= B/d on their integer scaling
    d, bounds, _ = integer_scaling(inequalities)
    return d, [(n, b) for (n, _), b in zip(inequalities, bounds)]


def _fm_eliminate(rows, j):
    """One Fourier-Motzkin step on the homogeneous system rows*d <= 0."""
    zero, pos, neg = [], [], []
    for r in rows:
        if r[j] == 0:
            zero.append(r)
        elif r[j] > 0:
            pos.append(r)
        else:
            neg.append(r)
    combined = []
    for p in pos:
        for m in neg:
            combined.append(
                [p[j] * mx - m[j] * px for px, mx in zip(p, m)]
            )
    return zero + combined


def recession_cone_is_trivial(normals, dimension):
    """Does n.d <= 0 for all normals force d = 0?

    Checks that every coordinate projection of the cone collapses to a
    point, which for cones is equivalent to triviality.
    """
    for k in range(dimension):
        rows = [list(n) for n in normals]
        for j in range(dimension):
            if j != k:
                rows = _fm_eliminate(rows, j)
        coeffs = [r[k] for r in rows if r[k] != 0]
        if not any(c > 0 for c in coeffs) or not any(c < 0 for c in coeffs):
            return False
    return True


class IntegralAffinePolytope:
    """Convex polytope cut out by integer-normal halfspaces."""

    __slots__ = ("_dimension", "_inequalities", "_vertices")

    def __init__(self, dimension, inequalities, vertices):
        (self._dimension,) = _int_vec((dimension,), "polytope dimensions")
        ineqs = []
        for normal, bound in inequalities:
            normal = _int_vec(normal, "inequality normals")
            if len(normal) != self._dimension:
                raise InvalidPolytopeError("normal has wrong length")
            ineqs.append((normal, _frac(bound)))
        self._inequalities = tuple(ineqs)
        verts = []
        for v in vertices:
            v = _frac_vec(v)
            if len(v) != self._dimension:
                raise InvalidPolytopeError("vertex has wrong length")
            verts.append(v)
        self._vertices = tuple(sorted(set(verts)))
        self._validate()

    def _validate(self):
        if not self._vertices:
            raise InvalidPolytopeError("polytope has no vertices")
        if not self._inequalities:
            raise InvalidPolytopeError("polytope has no inequalities")
        _, bounds, points = integer_scaling(self._inequalities, self._vertices)
        scaled = [(n, b, c) for (n, b), c in zip(self._inequalities, bounds)]
        for v, p in zip(self._vertices, points):
            for normal, bound, c in scaled:
                if dot(normal, p) > c:
                    raise InvalidPolytopeError(
                        f"vertex {v} violates inequality {normal}*x <= {bound}"
                    )
        for normal, bound, c in scaled:
            if not any(dot(normal, p) == c for p in points):
                raise InvalidPolytopeError(
                    f"inequality {normal}*x <= {bound} is tight at no vertex"
                )
        for v, p in zip(self._vertices, points):
            # extreme exactly when the tight normals leave no kernel
            tight = [n for n, _, c in scaled if dot(n, p) == c]
            if PresolvedIntegerSystem(tight, self._dimension).kernel_basis():
                raise InvalidPolytopeError(
                    f"declared vertex {v} is not an extreme point"
                )
        normals = [n for n, _ in self._inequalities]
        if not recession_cone_is_trivial(normals, self._dimension):
            raise InvalidPolytopeError("inequalities cut out an unbounded set")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_inequalities(cls, dimension, inequalities):
        """Build a polytope from halfspaces alone (dimension 1 or 2).

        Vertices are computed exactly; redundant inequalities are pruned.
        """
        (dimension,) = _int_vec((dimension,), "polytope dimensions")
        checked = []
        for normal, bound in inequalities:
            normal, bound = _int_vec(normal, "inequality normals"), _frac(bound)
            if not any(normal):
                raise InvalidPolytopeError("zero normal vector in inequality")
            checked.append((normal, bound))
        return cls._from_scaled(dimension, *_scaled_halfspaces(checked))

    @classmethod
    def _from_scaled(cls, dimension, d, lines):
        """from_inequalities on the int pairs (n, b) of halfspaces n.x <= b/d;
        only the kept halfspaces and the vertices become Fractions."""
        # primitive normals, n/g.x <= b/(g d) on the scale d lcm(g), least b kept
        gs = [gcd(*normal) for normal, _ in lines]
        if not all(gs):
            raise InvalidPolytopeError("zero normal vector in inequality")
        scale = lcm(*gs)
        cleaned = {}
        for (normal, b), g in zip(lines, gs):
            normal, b = tuple(x // g for x in normal), b * (scale // g)
            if normal not in cleaned or b < cleaned[normal]:
                cleaned[normal] = b
        d *= scale
        ineqs = sorted(cleaned.items())
        if dimension == 1:
            los = [Fraction(b, d * n[0]) for n, b in ineqs if n[0] < 0]
            his = [Fraction(b, d * n[0]) for n, b in ineqs if n[0] > 0]
            if not los or not his:
                raise InvalidPolytopeError("interval is unbounded")
            lo, hi = max(los), min(his)
            if lo > hi:
                raise InvalidPolytopeError("empty interval")
            ineqs = [((-1,), -lo), ((1,), hi)]
            return cls._trusted(1, ineqs, sorted({(lo,), (hi,)}))
        if dimension != 2:
            raise InvalidPolytopeError(
                "vertex enumeration implemented for dimensions 1 and 2 only"
            )
        # lines a*X + b*Y = c in coordinates scaled by d; each crossing
        # is the primitive triple (X, Y, w), w > 0, of the point (X, Y)/(w d)
        lines = [(a, b, c) for (a, b), c in ineqs]
        crossings = set()
        for i, (a1, b1, c1) in enumerate(lines):
            for a2, b2, c2 in lines[i + 1 :]:
                w = a1 * b2 - b1 * a2
                if w == 0:
                    continue
                x, y = c1 * b2 - b1 * c2, a1 * c2 - c1 * a2
                if w < 0:
                    x, y, w = -x, -y, -w
                g = gcd(x, y, w)
                x, y, w = x // g, y // g, w // g
                if all(a * x + b * y <= c * w for a, b, c in lines):
                    crossings.add((x, y, w))
        if not crossings:
            raise InvalidPolytopeError("inequalities have empty intersection")
        kept = [
            (a, b, c)
            for a, b, c in lines
            if sum(a * x + b * y == c * w for x, y, w in crossings) >= 2
        ]
        # every point meets every inequality and each kept one is tight
        # at two points; the checked constructor's other tests follow, in
        # its order and with its messages
        if not kept:
            raise InvalidPolytopeError("polytope has no inequalities")
        # sorted as points are, by their coordinates over the lcm m of the w
        m = lcm(*(w for _, _, w in crossings))
        order = sorted((x * (m // w), y * (m // w), x, y, w) for x, y, w in crossings)
        crossings = [c[2:] for c in order]
        vertices = [(Fraction(x, w * d), Fraction(y, w * d)) for x, y, w in crossings]
        for v, (x, y, w) in zip(vertices, crossings):
            tight = [(a, b) for a, b, c in kept if a * x + b * y == c * w]
            if not any(
                n[0] * m[1] != n[1] * m[0] for n, m in combinations(tight, 2)
            ):
                raise InvalidPolytopeError(
                    f"declared vertex {v} is not an extreme point"
                )
        if not recession_cone_is_trivial([(a, b) for a, b, _ in kept], 2):
            raise InvalidPolytopeError("inequalities cut out an unbounded set")
        ineqs = [((a, b), Fraction(c, d)) for a, b, c in kept]
        return cls._trusted(2, ineqs, vertices)

    @classmethod
    def _trusted(cls, dimension, inequalities, vertices):
        """A polytope from data already proved valid: int-tuple normals,
        Fraction bounds, sorted distinct Fraction-tuple vertices."""
        polytope = object.__new__(cls)
        polytope._dimension = dimension
        polytope._inequalities = tuple(inequalities)
        polytope._vertices = tuple(vertices)
        return polytope

    @classmethod
    def from_box(cls, bounds):
        """Axis-aligned box from per-coordinate (lo, hi) pairs."""
        dim = len(bounds)
        ineqs = []
        for i, (lo, hi) in enumerate(bounds):
            lo, hi = _frac(lo), _frac(hi)
            if lo > hi:
                raise InvalidPolytopeError("empty box")
            e = [0] * dim
            e[i] = -1
            ineqs.append((tuple(e), -lo))
            e = [0] * dim
            e[i] = 1
            ineqs.append((tuple(e), hi))
        corners = [()]
        for lo, hi in bounds:
            lo, hi = _frac(lo), _frac(hi)
            ends = (lo,) if lo == hi else (lo, hi)
            corners = [c + (x,) for c in corners for x in ends]
        return cls(dim, ineqs, corners)

    # -- inspection ----------------------------------------------------

    @property
    def dimension(self):
        return self._dimension

    @property
    def inequalities(self):
        return self._inequalities

    @property
    def vertices(self):
        return self._vertices

    def contains(self, point):
        point = _frac_vec(point)
        if len(point) != self._dimension:
            raise ChartMismatchError("point has wrong dimension")
        return all(dot(normal, point) <= bound for normal, bound in self._inequalities)

    def lex_least_vertex(self):
        return self._vertices[0]

    def _scaled_image(self, phi, inverse):
        # (d, [(n', B)]): n.x <= b moved to n'.y <= B/d, n' = M^-T n and
        # B/d = b + n'.tau, on ints with the bounds and tau scaled by d
        minv_t = tuple(zip(*inverse.linear))
        d, bounds, (tau,) = integer_scaling(self._inequalities, [phi.translation])
        moved = [tuple(dot(row, n) for row in minv_t) for n, _ in self._inequalities]
        return d, [(n, b + dot(n, tau)) for n, b in zip(moved, bounds)]

    def __eq__(self, other):
        if not isinstance(other, IntegralAffinePolytope):
            return NotImplemented
        return (
            self._dimension == other._dimension
            and sorted(self._inequalities) == sorted(other._inequalities)
            and self._vertices == other._vertices
        )

    def __hash__(self):
        return hash(
            (self._dimension, tuple(sorted(self._inequalities)), self._vertices)
        )

    def __repr__(self):
        return (
            f"IntegralAffinePolytope(dim={self._dimension}, "
            f"{len(self._inequalities)} inequalities, "
            f"{len(self._vertices)} vertices)"
        )


class IntegralAffineMap:
    """x -> M x + tau with M in GL(n, Z) and tau rational."""

    __slots__ = ("_linear", "_translation")

    def __init__(self, linear, translation):
        rows = tuple(_int_vec(row, "linear part") for row in linear)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("linear part must be square")
        self._linear = rows
        self._translation = _frac_vec(translation)
        if len(self._translation) != n:
            raise ValueError("translation has wrong length")
        d = self.det
        if d not in (1, -1):
            raise ValueError(f"linear part must be unimodular, det = {d}")
        if d == -1:
            warnings.warn(
                "orientation-reversing transition (det = -1)",
                stacklevel=2,
            )

    @classmethod
    def identity(cls, n):
        return cls(identity_matrix(n), [0] * n)

    @property
    def linear(self):
        return self._linear

    @property
    def translation(self):
        return self._translation

    @property
    def dimension(self):
        return len(self._linear)

    @property
    def det(self):
        rows = [{j: x for j, x in enumerate(row) if x} for row in self._linear]
        return determinant(rows, 0) if rows else 1

    def apply(self, point):
        point = _frac_vec(point)
        return tuple(
            dot(row, point) + c for row, c in zip(self._linear, self._translation)
        )

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        cols = tuple(zip(*other._linear))
        m = tuple(tuple(dot(row, col) for col in cols) for row in self._linear)
        return IntegralAffineMap._trusted(m, self.apply(other._translation))

    def inverse(self):
        """By Cayley-Hamilton, M^-1 = (-1)^(n+1) e_n (M^(n-1) - e_1 M^(n-2)
        + ... +- e_(n-1)), e_k the principal-minor sums; e_n = det = +-1."""
        a, n = self._linear, len(self._linear)
        e = [1] + principal_minor_sums(a)
        minv = [[0] * n for _ in range(n)]
        for k in range(n):
            minv = mat_mul(a, minv)
            for i in range(n):
                minv[i][i] += (-1) ** (n + 1 + k) * e[n] * e[k]
        tau = tuple(-dot(row, self._translation) for row in minv)
        return IntegralAffineMap._trusted(tuple(map(tuple, minv)), tau)

    @classmethod
    def _trusted(cls, linear, translation):
        """Unchecked: an inverse or a product of unimodular maps is one."""
        phi = object.__new__(cls)
        phi._linear = linear
        phi._translation = translation
        return phi

    def __eq__(self, other):
        if not isinstance(other, IntegralAffineMap):
            return NotImplemented
        return (
            self._linear == other._linear
            and self._translation == other._translation
        )

    def __hash__(self):
        return hash((self._linear, self._translation))

    def __repr__(self):
        return f"IntegralAffineMap({self._linear}, {self._translation})"


class AffineFunction:
    """<A, x> + c with integral differential A and rational constant."""

    __slots__ = ("_linear", "_constant")

    def __init__(self, linear, constant=0):
        self._linear = _int_vec(linear, "affine differentials")
        self._constant = _frac(constant)

    @classmethod
    def _trusted(cls, linear, constant):
        """Unchecked: the caller guarantees that linear is a tuple of ints
        and constant a Fraction, as functions the library computes are."""
        self = object.__new__(cls)
        self._linear = linear
        self._constant = constant
        return self

    @classmethod
    def zero(cls, n):
        return cls((0,) * n, 0)

    @property
    def linear(self):
        return self._linear

    @property
    def constant(self):
        return self._constant

    @property
    def dimension(self):
        return len(self._linear)

    def __add__(self, other):
        if not isinstance(other, AffineFunction):
            return NotImplemented
        return AffineFunction(
            tuple(a + b for a, b in zip(self._linear, other._linear)),
            self._constant + other._constant,
        )

    def __sub__(self, other):
        if not isinstance(other, AffineFunction):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AffineFunction(
            tuple(-a for a in self._linear), -self._constant
        )

    def is_zero(self):
        return all(a == 0 for a in self._linear) and self._constant == 0

    def __eq__(self, other):
        if not isinstance(other, AffineFunction):
            return NotImplemented
        return (
            self._linear == other._linear and self._constant == other._constant
        )

    def __hash__(self):
        return hash((self._linear, self._constant))

    def __repr__(self):
        return f"AffineFunction({self._linear}, {self._constant})"


class PolyFunction:
    """Polynomial of total degree at most 2 with rational coefficients.

    Terms map exponent tuples to coefficients; arithmetic refuses to
    leave the degree-2 range, which is all the monodromy primitives need.
    """

    __slots__ = ("_dimension", "_terms")

    def __init__(self, dimension, terms=()):
        (self._dimension,) = _int_vec((dimension,), "polynomial dimensions")
        cleaned = {}
        for powers, coeff in dict(terms).items():
            powers = _int_vec(powers, "exponent tuples")
            if len(powers) != self._dimension or any(p < 0 for p in powers):
                raise ValueError(f"bad exponent tuple {powers}")
            if sum(powers) > 2:
                raise ValueError("degree above 2 is not supported")
            coeff = _frac(coeff)
            if coeff != 0:
                cleaned[powers] = cleaned.get(powers, Fraction(0)) + coeff
        self._terms = {p: c for p, c in cleaned.items() if c != 0}

    @classmethod
    def _trusted(cls, dimension, terms):
        """Build a polynomial from parts that are already in normal form.

        Nothing is coerced or checked, and terms is kept, not copied.
        The caller guarantees that dimension is an int and that terms is
        a dict from tuples of dimension nonnegative ints, of sum at most
        2, to nonzero Fractions.  Sheet primitives built by the library
        come through here; values from outside go through ``__init__``.
        """
        self = object.__new__(cls)
        self._dimension = dimension
        self._terms = terms
        return self

    @classmethod
    def zero(cls, dimension):
        return cls(dimension)

    @property
    def dimension(self):
        return self._dimension

    @property
    def terms(self):
        return dict(self._terms)

    def degree(self):
        return max((sum(p) for p in self._terms), default=0)

    def is_zero(self):
        return not self._terms

    def evaluate(self, point):
        point = _frac_vec(point)
        total = Fraction(0)
        for powers, coeff in self._terms.items():
            value = coeff
            for x, p in zip(point, powers):
                for _ in range(p):
                    value *= x
            total += value
        return total

    def __add__(self, other):
        if not isinstance(other, PolyFunction):
            return NotImplemented
        if self._dimension != other._dimension:
            raise ValueError("dimension mismatch")
        merged = dict(self._terms)
        for p, c in other._terms.items():
            merged[p] = merged.get(p, Fraction(0)) + c
        return PolyFunction(self._dimension, merged)

    def __sub__(self, other):
        if not isinstance(other, PolyFunction):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PolyFunction(
            self._dimension, {p: -c for p, c in self._terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyFunction(
                self._dimension,
                {p: c * other for p, c in self._terms.items()},
            )
        if not isinstance(other, PolyFunction):
            return NotImplemented
        out = {}
        for pa, ca in self._terms.items():
            for pb, cb in other._terms.items():
                powers = tuple(a + b for a, b in zip(pa, pb))
                if sum(powers) > 2:
                    raise ValueError("product leaves the degree-2 range")
                out[powers] = out.get(powers, Fraction(0)) + ca * cb
        return PolyFunction(self._dimension, out)

    __rmul__ = __mul__

    def compose_with_map(self, phi):
        """Substitute x = M y + tau."""
        n = self._dimension
        coords = []
        for i in range(n):
            terms = {(0,) * n: phi.translation[i]}
            for j in range(n):
                powers = tuple(1 if k == j else 0 for k in range(n))
                terms[powers] = Fraction(phi.linear[i][j])
            coords.append(PolyFunction(n, terms))
        total = PolyFunction.zero(n)
        for powers, coeff in self._terms.items():
            piece = PolyFunction(n, {(0,) * n: coeff})
            for i, p in enumerate(powers):
                for _ in range(p):
                    piece = piece * coords[i]
            total = total + piece
        return total

    def as_affine(self):
        """View as an AffineFunction; degree-2 terms or non-integer
        differentials are an error."""
        if self.degree() > 1:
            raise ValueError("polynomial has a quadratic part")
        linear = [0] * self._dimension
        constant = Fraction(0)
        for powers, coeff in self._terms.items():
            s = sum(powers)
            if s == 0:
                constant = coeff
            else:
                i = powers.index(1)
                if coeff.denominator != 1:
                    raise ValueError(
                        f"differential in direction {i} is not integral: {coeff}"
                    )
                linear[i] = int(coeff)
        return AffineFunction(tuple(linear), constant)

    def __eq__(self, other):
        if not isinstance(other, PolyFunction):
            return NotImplemented
        return (
            self._dimension == other._dimension and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._dimension, tuple(sorted(self._terms.items()))))

    def __repr__(self):
        return f"PolyFunction({self._dimension}, {self._terms!r})"
