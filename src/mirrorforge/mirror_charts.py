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
from math import lcm

from .affine import (
    AffineFunction,
    _frac_vec,
    _int_vec,
    dot,
    recession_cone_is_trivial,
)
from .errors import ChartMismatchError, UndecidableDescriptionError
from .intlinalg import identity_matrix, mat_mul, principal_minor_sums
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

    def with_basepoint(self, new_basepoint):
        """The same element written against another basepoint."""
        new_basepoint = _frac_vec(new_basepoint)
        shift = tuple(a - b for a, b in zip(new_basepoint, self._basepoint))
        identity, _ = self._cover.restriction_moves[(self._face, self._face[0])]
        moved = self._restricted(self._face, (identity, shift, new_basepoint))
        return AffinoidElement(self._cover, self._face, moved._terms, new_basepoint)

    def restrict(self, to_face):
        """Restriction along an inclusion of faces (finer index set).

        The exponent map and the target basepoint come from the cover's
        ``restriction_moves`` table; each coefficient is shifted by the
        t-power of its monomial's basepoint move.
        """
        to_face = tuple(sorted(to_face))
        if not set(self._face) < set(to_face):
            raise ChartMismatchError(
                f"{to_face} does not refine {self._face}"
            )
        move = _restriction_move(self._cover, self._face, self._basepoint, to_face)
        return self._restricted(to_face, move)

    def _restricted(self, to_face, move):
        """This element carried along a move (mt, offset, basepoint):
        z^A goes to t^<offset, A> z^(mt A) on to_face, written at
        basepoint, and monomials that land on one exponent are added.

        Nothing is checked; the move comes from ``_restriction_move``
        or is the identity move of a change of basepoint.  Every
        restriction runs through here: ``restrict`` after its checks,
        and the cocycle passes of the gerbe and of twisted modules on
        their own data.
        """
        mt, offset, basepoint = move
        out = {}
        for exponent, coeff in self._terms.items():
            moved = tuple(dot(row, exponent) for row in mt)
            scaled = coeff._shift(dot(offset, exponent))
            out[moved] = out[moved] + scaled if moved in out else scaled
        return AffinoidElement._trusted(self._cover, to_face, basepoint, out)

    def evaluate(self, point):
        """Value at a mirror point, as a scalar."""
        if not isinstance(point, MirrorPoint):
            raise TypeError("expected a MirrorPoint")
        n = self._cover.dimension
        if len(point.position) != n or len(point.unit) != n:
            raise ChartMismatchError("mirror point has wrong dimension")
        poly = self._cover.face_chart(self._face).polytope
        if not poly.contains(point.position):
            raise ChartMismatchError(
                f"position {point.position} lies outside the face polytope"
            )
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


def _restriction_move(cover, face, basepoint, to_face):
    """How an element on face, written at basepoint, restricts to a
    finer face: (mt, offset, the finer face's basepoint) for
    ``AffinoidElement._restricted``.

    mt and the finer basepoint in the chart face[0] come from
    ``cover.restriction_moves``; offset is that basepoint minus the
    element's.  A to_face that is not a face raises ChartMismatchError.
    """
    target = cover.face_chart(to_face).basepoint
    mt, q = cover.restriction_moves[(to_face, face[0])]
    return mt, tuple(a - b for a, b in zip(q, basepoint)), target


def _exp_entry(cover, top, a, fn):
    """exp of an affine function given on chart a, written on face top.

    With (mt, q) = ``restriction_moves[(top, a)]`` that is
    t^(<A, q> + c) z^(mt A) for fn = <A, x> + c, so the function is
    never composed with the transition.  Nothing is checked: a must be
    a chart of the face top of the cover, and fn of the cover's
    dimension.
    """
    mt, q = cover.restriction_moves[(top, a)]
    linear = fn.linear
    coeff = NovikovScalar._trusted(((dot(linear, q) + fn.constant, Fraction(1)),), None)
    exponent = tuple(dot(row, linear) for row in mt)
    return AffinoidElement._trusted(
        cover, top, cover.face_chart(top).basepoint, {exponent: coeff}
    )


def exp_aff(cover, face, fn):
    """exp of an affine function: t^(fn(q)) z_q^(d fn).

    The function must be written in the coordinates of the face's least
    chart, like every face-level value.
    """
    if not isinstance(fn, AffineFunction):
        raise TypeError("exp_aff expects an AffineFunction")
    face = tuple(sorted(face))
    cover.face_chart(face)  # a set that is not a face raises here
    if fn.dimension != cover.dimension:
        raise ChartMismatchError("exponent vector has wrong length")
    return _exp_entry(cover, face, face[0], fn)


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
    # symmetric and PSD iff no principal-minor sum is negative: the
    # characteristic polynomial then alternates in sign, no negative root
    return all(e >= 0 for e in principal_minor_sums(quad))


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
            self, "matrix", tuple(_int_vec(row, "matrix entries") for row in self.matrix)
        )
        object.__setattr__(self, "shift", _frac_vec(self.shift))

    @classmethod
    def identity(cls, n):
        return cls(identity_matrix(n), (0,) * n)

    def apply_exponent(self, exponent):
        """Image exponent and accumulated t-power of one monomial."""
        exponent = _int_vec(exponent, "exponent vectors")
        moved = tuple(dot(row, exponent) for row in self.matrix)
        return moved, dot(self.shift, exponent)

    def then(self, nxt):
        """First apply self, then nxt."""
        mt = tuple(zip(*self.matrix))
        shift = tuple(
            s + dot(row, nxt.shift) for s, row in zip(self.shift, mt)
        )
        return MonomialChartMap(mat_mul(nxt.matrix, self.matrix), shift)

    def describe(self):
        """Human-readable images of the coordinate generators z1, z2, ..."""
        n = len(self.matrix)
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
    cover.transition(i, j)  # a non-edge raises here, naming i before j
    inv = cover.transition(j, i)
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


def nested_triples(cover):
    """Chains I < J < K of faces with strictly increasing final charts."""
    return [
        (low, mid, top)
        for low, mid, top in cover.nested_chains
        if low[-1] < mid[-1] < top[-1]
    ]


def nested_quadruples(cover):
    """Nested triples extended by a face that strictly contains the top
    face and ends on a later chart, sorted.

    Each face's chart set is built once, only faces with more charts
    than the top face are tested, and the faces above one top face are
    found once for all the triples that end there.
    """
    by_size = {}
    for face in cover.faces:
        by_size.setdefault(len(face), []).append((face, frozenset(face)))
    above = {}
    out = []
    for low, mid, top in nested_triples(cover):
        deeper = above.get(top)
        if deeper is None:
            inside = frozenset(top)
            deeper = above[top] = [
                face
                for size, faces in by_size.items()
                if size > len(top)
                for face, members in faces
                if face[-1] > top[-1] and inside < members
            ]
        out.extend((low, mid, top, face) for face in deeper)
    return sorted(out)


def gerbe_value(fibration, low, mid, top):
    """Multiplicative cocycle entry on a nested face chain.

    The entry is exp of the obstruction on the triangle of final
    charts, written on the top face of the chain; it is read from the
    fibration's ``twist_factors`` table.
    """
    cover = fibration.cover
    low, mid, top = tuple(sorted(low)), tuple(sorted(mid)), tuple(sorted(top))
    if not (set(low) < set(mid) < set(top)):
        raise ChartMismatchError("gerbe entries need strictly nested faces")
    if not (low[-1] < mid[-1] < top[-1]):
        raise ChartMismatchError(
            "gerbe entries need strictly increasing final charts"
        )
    entry = fibration.twist_factors.get((low, mid, top))
    if entry is None:
        # top is not a face; fail the way the direct computation does
        cover.transition(top[0], low[-1])
        cover.face_chart(top)
    return entry


@dataclass
class GerbeReport:
    """Exact verification of the multiplicative cocycle identity."""

    quadruples: int
    failures: tuple

    @property
    def holds(self):
        return not self.failures


def verify_gerbe(fibration):
    """Check the cocycle identity of exp(obstruction) on every nested
    quadruple, exactly."""
    cover = fibration.cover
    gerbe = fibration.twist_factors
    failures = []
    quads = nested_quadruples(cover)
    for low, mid, top, deep in quads:
        g_mtd = gerbe[(mid, top, deep)]
        g_ltd = gerbe[(low, top, deep)]
        g_lmd = gerbe[(low, mid, deep)]
        g_lmt = gerbe[(low, mid, top)]
        g_lmt = g_lmt._restricted(
            deep, _restriction_move(cover, top, g_lmt.basepoint, deep)
        )
        product = g_mtd * g_ltd.inverse() * g_lmd * g_lmt.inverse()
        if product != AffinoidElement.one(cover, deep):
            failures.append((low, mid, top, deep))
    return GerbeReport(quadruples=len(quads), failures=tuple(failures))
