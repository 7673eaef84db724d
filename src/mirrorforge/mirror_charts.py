"""Affinoid coordinate rings of mirror charts.

Over a face chart with polytope P and basepoint q, an element is a
finite combination ``sum f_A * z_q^A`` with scalar coefficients and
integer exponent vectors.  The monomial ``z_q^A`` has weight
``min_{v in P} <v - q, A>``; the t-adic size of a term is the
coefficient valuation plus that weight.

The module also decides convergence of infinite series whose
coefficient valuations are described exactly (max of affine forms, or a
positive-semidefinite quadratic), builds the multiplicative cocycle
``exp`` of an obstruction cochain on nested face chains, and composes
the monomial coordinate changes between mirror charts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm

from .affine import (
    AffineFunction,
    _frac_vec,
    _int_vec,
    dot,
    recession_cone_is_trivial,
)
from .errors import ChartMismatchError, UndecidableDescriptionError
from .novikov import INF, NovikovScalar, _frac


def _coerce_scalar(value):
    if isinstance(value, NovikovScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return NovikovScalar.from_rational(value)
    raise TypeError(f"cannot use {value!r} as a scalar coefficient")


@dataclass(frozen=True)
class MirrorPoint:
    """A point of a mirror chart: a position in the polytope (the
    valuation of the coordinates) and a rational unit for each angle."""

    position: tuple
    unit: tuple

    def __post_init__(self):
        object.__setattr__(self, "position", _frac_vec(self.position))
        unit = _frac_vec(self.unit)
        if any(u == 0 for u in unit):
            raise ValueError("mirror point units must be nonzero")
        object.__setattr__(self, "unit", unit)


class AffinoidElement:
    """Finite monomial combination on one face chart."""

    __slots__ = ("_cover", "_face", "_basepoint", "_terms")

    def __init__(self, cover, face, terms=(), basepoint=None):
        self._cover = cover
        self._face = tuple(sorted(face))
        chart = cover.face_chart(self._face)
        if basepoint is None:
            basepoint = chart.basepoint
        else:
            basepoint = _frac_vec(basepoint)
            if not chart.polytope.contains(basepoint):
                raise ChartMismatchError(
                    f"basepoint {basepoint} lies outside the face polytope"
                )
        self._basepoint = basepoint
        data = dict(terms)
        cleaned = {}
        for exponent, coeff in data.items():
            exponent = _int_vec(exponent, "exponent vectors")
            if len(exponent) != cover.dimension:
                raise ChartMismatchError("exponent vector has wrong length")
            coeff = _coerce_scalar(coeff)
            if exponent in cleaned:
                coeff = cleaned[exponent] + coeff
            cleaned[exponent] = coeff
        self._terms = {
            a: c for a, c in cleaned.items() if c.terms or c.cutoff is not None
        }

    @classmethod
    def _trusted(cls, cover, face, basepoint, terms):
        """Build an element from parts that are already valid.

        Only exact-zero coefficients are dropped; nothing is coerced or
        checked.  The caller guarantees that ``face`` is a sorted face
        of ``cover``, that ``basepoint`` is a tuple of Fractions inside
        that face's polytope, and that ``terms`` is a dict from tuples
        of ``cover.dimension`` ints to NovikovScalars.  Results of ring
        operations and restrictions come through here; data from
        outside goes through ``__init__``.
        """
        self = object.__new__(cls)
        self._cover = cover
        self._face = face
        self._basepoint = basepoint
        self._terms = {
            a: c for a, c in terms.items() if c._terms or c._cutoff is not None
        }
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, cover, face, basepoint=None):
        return cls(cover, face, (), basepoint)

    @classmethod
    def one(cls, cover, face, basepoint=None):
        n = cover.dimension
        return cls(cover, face, {(0,) * n: NovikovScalar.one()}, basepoint)

    @classmethod
    def monomial(cls, cover, face, coeff, exponent, basepoint=None):
        return cls(cover, face, {tuple(exponent): coeff}, basepoint)

    # -- inspection -------------------------------------------------------

    @property
    def cover(self):
        return self._cover

    @property
    def face(self):
        return self._face

    @property
    def basepoint(self):
        return self._basepoint

    @property
    def terms(self):
        return dict(self._terms)

    def coefficient(self, exponent):
        return self._terms.get(
            tuple(exponent), NovikovScalar.zero()
        )

    def weight(self, exponent):
        """min over the polytope of <x - basepoint, exponent>."""
        return self._weight(_int_vec(exponent, "exponent vectors"))

    def _weight(self, exponent):
        # ``weight`` for an exponent already known to be an int tuple
        poly = self._cover.face_chart(self._face).polytope
        return min(
            dot(tuple(a - b for a, b in zip(v, self._basepoint)), exponent)
            for v in poly.vertices
        )

    def valuation_lower_bound(self):
        """A bound below the t-adic size of the element; INF for zero."""
        best = INF
        for exponent, coeff in self._terms.items():
            floor = coeff._val_floor() + self._weight(exponent)
            if floor < best:
                best = floor
        return best

    def is_zero_at(self, precision):
        precision = _frac(precision)
        for exponent, coeff in self._terms.items():
            if not coeff.is_zero_at(precision - self._weight(exponent)):
                return False
        return True

    def is_exact_zero(self):
        return not self._terms

    # -- ring operations ---------------------------------------------------

    def _with_terms(self, terms):
        # a result on this element's chart and basepoint
        return AffinoidElement._trusted(
            self._cover, self._face, self._basepoint, terms
        )

    def _check_companion(self, other):
        if not isinstance(other, AffinoidElement):
            raise TypeError("expected an AffinoidElement")
        if (
            other._cover is not self._cover
            and other._cover != self._cover
        ) or other._face != self._face:
            raise ChartMismatchError("elements live on different face charts")
        if other._basepoint != self._basepoint:
            raise ChartMismatchError("elements use different basepoints")

    def __add__(self, other):
        self._check_companion(other)
        merged = dict(self._terms)
        for a, c in other._terms.items():
            merged[a] = merged[a] + c if a in merged else c
        return self._with_terms(merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._with_terms({a: -c for a, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, NovikovScalar)):
            scalar = _coerce_scalar(other)
            return self._with_terms({a: c * scalar for a, c in self._terms.items()})
        self._check_companion(other)
        out = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                prod = ca * cb
                out[key] = out[key] + prod if key in out else prod
        return self._with_terms(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, NovikovScalar)):
            return self * other
        return NotImplemented

    def inverse(self):
        """Inverse of a single-monomial element with invertible coefficient."""
        if len(self._terms) != 1:
            raise ChartMismatchError(
                "only single-monomial elements are inverted exactly"
            )
        (exponent, coeff), = self._terms.items()
        return self._with_terms({tuple(-x for x in exponent): coeff.inverse()})

    def truncate(self, precision):
        """Forget everything of t-adic size >= precision."""
        precision = _frac(precision)
        return self._with_terms(
            {
                exponent: coeff.truncate(precision - self._weight(exponent))
                for exponent, coeff in self._terms.items()
            }
        )

    def with_basepoint(self, new_basepoint):
        """The same element written against another basepoint."""
        new_basepoint = _frac_vec(new_basepoint)
        shift = tuple(a - b for a, b in zip(new_basepoint, self._basepoint))
        out = {}
        for exponent, coeff in self._terms.items():
            out[exponent] = coeff * NovikovScalar.monomial(1, dot(shift, exponent))
        return AffinoidElement(self._cover, self._face, out, new_basepoint)

    def restrict(self, to_face):
        """Restriction along an inclusion of faces (finer index set)."""
        to_face = tuple(sorted(to_face))
        if not set(self._face) < set(to_face):
            raise ChartMismatchError(
                f"{to_face} does not refine {self._face}"
            )
        cover = self._cover
        src = cover.face_chart(self._face)
        tgt = cover.face_chart(to_face)
        phi = cover.transition(tgt.ambient, src.ambient)
        mt = tuple(zip(*phi.linear))
        q_tgt_in_src = phi.apply(tgt.basepoint)
        offset = tuple(a - b for a, b in zip(q_tgt_in_src, self._basepoint))
        out = {}
        for exponent, coeff in self._terms.items():
            moved = tuple(dot(row, exponent) for row in mt)
            scaled = coeff * NovikovScalar.monomial(1, dot(offset, exponent))
            out[moved] = out[moved] + scaled if moved in out else scaled
        return AffinoidElement._trusted(cover, to_face, tgt.basepoint, out)

    def evaluate(self, point):
        """Value at a mirror point, as a scalar."""
        if not isinstance(point, MirrorPoint):
            raise TypeError("expected a MirrorPoint")
        poly = self._cover.face_chart(self._face).polytope
        if not poly.contains(point.position):
            raise ChartMismatchError(
                f"position {point.position} lies outside the face polytope"
            )
        if len(point.unit) != self._cover.dimension:
            raise ChartMismatchError("mirror point has wrong dimension")
        total = NovikovScalar.zero()
        offset = tuple(
            a - b for a, b in zip(point.position, self._basepoint)
        )
        for exponent, coeff in self._terms.items():
            unit = Fraction(1)
            for u, a in zip(point.unit, exponent):
                unit *= u ** a
            total = total + coeff * NovikovScalar.monomial(
                unit, dot(offset, exponent)
            )
        return total

    def __eq__(self, other):
        if not isinstance(other, AffinoidElement):
            return NotImplemented
        return (
            self._cover == other._cover
            and self._face == other._face
            and self._basepoint == other._basepoint
            and self._terms == other._terms
        )

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for exponent in sorted(self._terms):
            coeff = self._terms[exponent]
            zpart = "z^(" + ",".join(str(x) for x in exponent) + ")"
            pieces.append(f"({coeff}) * {zpart}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"AffinoidElement({self._face}, {str(self)!r})"


def exp_aff(cover, face, fn):
    """exp of an affine function: t^(fn(q)) z_q^(d fn).

    The function must be written in the coordinates of the face's least
    chart, like every face-level value.
    """
    if not isinstance(fn, AffineFunction):
        raise TypeError("exp_aff expects an AffineFunction")
    face = tuple(sorted(face))
    q = cover.face_chart(face).basepoint
    coeff = NovikovScalar.monomial(1, fn.evaluate(q))
    return AffinoidElement(cover, face, {fn.linear: coeff})


# -- convergence ---------------------------------------------------------


@dataclass(frozen=True)
class MaxAffineValuation:
    """Coefficient valuations val(A) = max_r (<u_r, A> + c_r)."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(
            (_frac_vec(u), _frac(c)) for u, c in self.rows
        )
        if not rows:
            raise ValueError("at least one affine row is required")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class QuadraticValuation:
    """Coefficient valuations val(A) = A^T Q A / 2 + <u, A> + c."""

    quad: tuple
    linear: tuple
    constant: Fraction = Fraction(0)

    def __post_init__(self):
        quad = tuple(_frac_vec(row) for row in self.quad)
        n = len(quad)
        if any(len(row) != n for row in quad):
            raise ValueError("quadratic part must be square")
        for i in range(n):
            for j in range(n):
                if quad[i][j] != quad[j][i]:
                    raise ValueError("quadratic part must be symmetric")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "linear", _frac_vec(self.linear))
        object.__setattr__(self, "constant", _frac(self.constant))


def _is_psd(quad):
    n = len(quad)
    indices = range(n)
    for size in range(1, n + 1):
        for subset in combinations(indices, size):
            minor = [[quad[i][j] for j in subset] for i in subset]
            if _det(minor) < 0:
                return False
    return True


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = Fraction(0)
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _det(sub)
        total += term if j % 2 == 0 else -term
    return total


def _integer_rows(rows):
    out = []
    for row in rows:
        denom = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        out.append([int(Fraction(x) * denom) for x in row])
    return out


def converges_on(valuation, cover, face, basepoint=None):
    """Does a series with these coefficient valuations converge on the
    face chart?

    Convergence means val(A) + weight(A) grows without bound in every
    integer direction.  Only the two declared description classes are
    decided; anything else raises UndecidableDescriptionError.
    """
    face = tuple(sorted(face))
    chart = cover.face_chart(face)
    q = _frac_vec(basepoint) if basepoint is not None else chart.basepoint
    vertices = chart.polytope.vertices
    n = cover.dimension

    if isinstance(valuation, QuadraticValuation):
        if len(valuation.linear) != n or len(valuation.quad) != n:
            raise ChartMismatchError("valuation has wrong dimension")
        if not _is_psd(valuation.quad):
            return False
        eq_rows = []
        for row in valuation.quad:
            eq_rows.append(list(row))
            eq_rows.append([-x for x in row])
        for v in vertices:
            anchor = [
                u + a - b for u, a, b in zip(valuation.linear, v, q)
            ]
            normals = _integer_rows(eq_rows + [anchor])
            if not recession_cone_is_trivial(normals, n):
                return False
        return True

    if isinstance(valuation, MaxAffineValuation):
        if any(len(u) != n for u, _ in valuation.rows):
            raise ChartMismatchError("valuation has wrong dimension")
        for v in vertices:
            normals = _integer_rows(
                [
                    [u_i + a - b for u_i, a, b in zip(u, v, q)]
                    for u, _ in valuation.rows
                ]
            )
            if not recession_cone_is_trivial(normals, n):
                return False
        return True

    raise UndecidableDescriptionError(
        "convergence is only decided for max-affine and "
        "positive-semidefinite quadratic descriptions"
    )


# -- monomial coordinate changes -------------------------------------------


@dataclass(frozen=True)
class MonomialChartMap:
    """z_q^A -> t^(<shift, A>) z_p^(matrix A), composed left to right."""

    matrix: tuple
    shift: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", tuple(tuple(int(x) for x in row) for row in self.matrix)
        )
        object.__setattr__(self, "shift", _frac_vec(self.shift))

    @classmethod
    def identity(cls, n):
        return cls(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
            (0,) * n,
        )

    def apply_exponent(self, exponent):
        """Image exponent and accumulated t-power of one monomial."""
        exponent = _int_vec(exponent, "exponent vectors")
        moved = tuple(dot(row, exponent) for row in self.matrix)
        return moved, dot(self.shift, exponent)

    def then(self, nxt):
        """First apply self, then nxt."""
        matrix = tuple(
            tuple(
                sum(nxt.matrix[i][k] * self.matrix[k][j] for k in range(len(self.matrix)))
                for j in range(len(self.matrix))
            )
            for i in range(len(nxt.matrix))
        )
        mt = tuple(zip(*self.matrix))
        shift = tuple(
            s + dot(row, nxt.shift) for s, row in zip(self.shift, mt)
        )
        return MonomialChartMap(matrix, shift)

    def describe(self, names=None):
        """Human-readable images of the coordinate generators."""
        n = len(self.matrix)
        if names is None:
            names = [f"z{i + 1}" for i in range(n)]
        lines = []
        for i in range(n):
            basis = tuple(1 if j == i else 0 for j in range(n))
            moved, power = self.apply_exponent(basis)
            target = "*".join(
                (names[j] if moved[j] == 1 else f"{names[j]}^({moved[j]})")
                for j in range(n)
                if moved[j] != 0
            ) or "1"
            if power == 0:
                lines.append(f"{names[i]} -> {target}")
            else:
                lines.append(f"{names[i]} -> T^({power}) * {target}")
        return lines


def chart_monomial_map(cover, i, j):
    """Mirror coordinate change from chart i to chart j over an edge."""
    phi = cover.transition(i, j)
    inv = phi.inverse()
    matrix = tuple(zip(*inv.linear))
    q_i = cover.face_chart((i,)).basepoint
    q_j = cover.face_chart((j,)).basepoint
    moved = inv.apply(q_j)
    shift = tuple(a - b for a, b in zip(moved, q_i))
    return MonomialChartMap(matrix, shift)


def path_monomial_map(cover, path):
    """Compose mirror coordinate changes along a chart path."""
    if len(path) < 2:
        return MonomialChartMap.identity(cover.dimension)
    total = chart_monomial_map(cover, path[0], path[1])
    for a, b in zip(path[1:], path[2:]):
        total = total.then(chart_monomial_map(cover, a, b))
    return total


# -- the multiplicative cocycle of an obstruction ---------------------------


def _proper_subsets(face):
    return chain.from_iterable(
        combinations(face, size) for size in range(1, len(face))
    )


def nested_triples(cover):
    """Chains I < J < K of faces with strictly increasing final charts."""
    out = []
    for top in cover.faces:
        if len(top) < 1:
            continue
        for mid in _proper_subsets(top):
            if mid[-1] >= top[-1]:
                continue
            for low in _proper_subsets(mid):
                if low[-1] >= mid[-1]:
                    continue
                out.append((low, mid, top))
    return sorted(out)


def nested_quadruples(cover):
    out = []
    for (low, mid, top) in nested_triples(cover):
        for deeper in cover.faces:
            if set(top) < set(deeper) and top[-1] < deeper[-1]:
                out.append((low, mid, top, deeper))
    return sorted(out)


def gerbe_value(fibration, low, mid, top):
    """Multiplicative cocycle entry on a nested face chain.

    The entry is exp of the obstruction on the triangle of final
    charts, written on the top face of the chain.
    """
    cover = fibration.cover
    low, mid, top = tuple(sorted(low)), tuple(sorted(mid)), tuple(sorted(top))
    if not (set(low) < set(mid) < set(top)):
        raise ChartMismatchError("gerbe entries need strictly nested faces")
    finals = (low[-1], mid[-1], top[-1])
    if not (finals[0] < finals[1] < finals[2]):
        raise ChartMismatchError(
            "gerbe entries need strictly increasing final charts"
        )
    alpha = fibration.obstruction_cocycle().value(finals)
    moved = alpha.compose_with_map(cover.transition(top[0], finals[0]))
    return exp_aff(cover, top, moved)


@dataclass
class GerbeReport:
    """Exact verification of the multiplicative cocycle identity."""

    triples: int
    quadruples: int
    failures: tuple

    @property
    def holds(self):
        return not self.failures


def verify_gerbe(fibration):
    """Check the cocycle identity of exp(obstruction) on every nested
    quadruple, exactly."""
    cover = fibration.cover
    failures = []
    quads = nested_quadruples(cover)
    for low, mid, top, deep in quads:
        g_mtd = gerbe_value(fibration, mid, top, deep)
        g_ltd = gerbe_value(fibration, low, top, deep)
        g_lmd = gerbe_value(fibration, low, mid, deep)
        g_lmt = gerbe_value(fibration, low, mid, top).restrict(deep)
        product = g_mtd * g_ltd.inverse() * g_lmd * g_lmt.inverse()
        if product != AffinoidElement.one(cover, deep):
            failures.append((low, mid, top, deep))
    return GerbeReport(
        triples=len(nested_triples(cover)),
        quadruples=len(quads),
        failures=tuple(failures),
    )
