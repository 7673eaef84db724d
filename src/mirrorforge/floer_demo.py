"""Slope-k line demos over the circle.

A nonzero integer k picks out |k| parallel lines of slope sign(k) on
the flat two-torus, meeting every fibre of the projection to the base
circle in |k| points.  Each intersection sheet carries a quadratic
primitive whose value differences are the transport energies, and the
sheets over a circle cover patch into a twisted module of rank |k|
whose global section rank reproduces the theta count max(k, 0).

Everything here is exact: primitives are rational polynomials, the
restriction entries are single monomials, and the energy identities
hold as equalities of rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from .affine import PolyFunction
from .errors import ChartMismatchError
from .mirror_charts import AffinoidElement
from .novikov import NovikovScalar, _frac
from .twisted_sheaves import ModuleComplex, TwistedModule, nested_pairs


def _point(x):
    if isinstance(x, tuple):
        return tuple(_frac(v) for v in x)
    return (_frac(x),)


@dataclass(frozen=True)
class LinearLagrangian:
    """The line of slope k through height offset on the two-torus,
    transverse to every fibre exactly when k is nonzero."""

    slope: int
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.slope, int) or isinstance(self.slope, bool):
            raise TypeError("slope must be an integer")
        object.__setattr__(self, "offset", _frac(self.offset))


def _sheet_primitive(sigma, gamma, q):
    # normalised so the primitive vanishes at the basepoint
    constant = -(Fraction(sigma, 2) * q * q + gamma * q)
    return PolyFunction(
        1, {(2,): Fraction(sigma, 2), (1,): gamma, (0,): constant}
    )


def intersections(lagrangian, basepoint):
    """Primitives of the |k| intersection sheets over one fibre.

    Sheet j has derivative sigma*s + (offset + j)/|k| with sigma the
    sign of the slope, so consecutive sheets sit 1/|k| apart on the
    fibre circle; each primitive is normalised to vanish at the given
    basepoint.
    """
    k = lagrangian.slope
    if k == 0:
        raise ValueError("a slope-zero line is not transverse to the fibres")
    sigma = 1 if k > 0 else -1
    count = abs(k)
    q = _frac(basepoint)
    return tuple(
        _sheet_primitive(sigma, (lagrangian.offset + j) / count, q)
        for j in range(count)
    )


def sheet_coordinate(primitive, s):
    """Fibre coordinate of a sheet at base point s: the derivative of
    its primitive there."""
    s = _frac(s)
    total = Fraction(0)
    for (p,), coeff in primitive.terms.items():
        if p == 1:
            total += coeff
        elif p == 2:
            total += 2 * coeff * s
    return total


def _sheet_key(primitive):
    return tuple(
        sorted((p, c) for p, c in primitive.terms.items() if sum(p) > 0)
    )


@dataclass(frozen=True)
class LocalFloerData:
    """Sheet primitives of the line over one chart, normalised at the
    chart basepoint, with a trivialisation tag."""

    face: tuple
    basepoint: Fraction
    primitives: tuple
    tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "face", tuple(self.face))
        object.__setattr__(self, "basepoint", _frac(self.basepoint))
        prims = tuple(self.primitives)
        object.__setattr__(self, "primitives", prims)
        if not prims:
            raise ValueError("a sheet collection cannot be empty")
        for g in prims:
            if g.dimension != 1:
                raise ValueError("sheet primitives must be one-dimensional")
            if g.evaluate((self.basepoint,)) != 0:
                raise ValueError("primitives must vanish at the basepoint")
        keys = [_sheet_key(g) for g in prims]
        if len(set(keys)) != len(keys):
            raise ValueError("sheets must be pairwise distinct")


@dataclass(frozen=True)
class LocalModule:
    """Free module with one degree-zero generator per sheet and zero
    differential."""

    cover: object
    data: LocalFloerData

    @property
    def rank(self):
        return len(self.data.primitives)

    def complex(self):
        return ModuleComplex(self.cover, self.data.face, {0: self.rank}, {})


def chart_offsets(cover):
    """Global lift of each chart origin on a circle cover.

    Chart 0 is anchored at zero and consecutive arcs are walked through
    their declared transitions; every transition must be orientation
    preserving.
    """
    if cover.dimension != 1:
        raise ChartMismatchError("chart offsets need a one-dimensional base")
    count = len(cover.chart_ids)
    if count < 3:
        raise ChartMismatchError("a circle cover needs at least three arcs")
    offsets = [Fraction(0)]
    for i in range(1, count):
        phi = cover.transition(i - 1, i)
        if phi.linear != ((1,),):
            raise ChartMismatchError(
                "circle transitions must preserve orientation"
            )
        offsets.append(offsets[-1] - phi.translation[0])
    return tuple(offsets)


def _edge_wrap(cover, offsets, edge, member):
    """Deck translation picked up entering the edge from one member."""
    phi = cover.transition(edge[0], member)
    if phi.linear != ((1,),):
        raise ChartMismatchError("circle transitions must preserve orientation")
    w = offsets[edge[0]] - offsets[member] - phi.translation[0]
    if w.denominator != 1:
        raise ChartMismatchError(
            f"edge {edge} does not close up over a unit circle"
        )
    return int(w)


def local_floer_data(lagrangian, cover, chart, tag=None):
    """Sheet data over one chart of a circle cover.

    The gammas are shifted by sigma times the chart's global offset so
    that equally labelled sheets over overlapping charts describe the
    same line, with at worst an integral affine discrepancy.
    """
    offsets = chart_offsets(cover)
    k = lagrangian.slope
    if k == 0:
        raise ValueError("a slope-zero line is not transverse to the fibres")
    sigma = 1 if k > 0 else -1
    count = abs(k)
    face = (chart,)
    q = cover.face_chart(face).basepoint[0]
    primitives = tuple(
        _sheet_primitive(
            sigma,
            (lagrangian.offset + j) / count + sigma * offsets[chart],
            q,
        )
        for j in range(count)
    )
    label = cover.chart_ids[chart] if tag is None else tag
    return LocalFloerData(face, q, primitives, label)


def local_module(lagrangian, cover, chart):
    return LocalModule(cover, local_floer_data(lagrangian, cover, chart))


def restriction_factor(primitive, q, p):
    """Transport factor T^(g(q) - g(p)) for moving the basepoint of a
    sheet generator from q to p; exponents may be negative."""
    q = _point(q)
    p = _point(p)
    return NovikovScalar.monomial(
        1, primitive.evaluate(q) - primitive.evaluate(p)
    )


def energy_transport(energy, boundary, q, p, g_x, g_y):
    """Energy of a strip after moving the fibre from q to p.

    Adds the pairing of the displacement with the boundary class and
    the primitive differences of the two ends; exact in the rationals.
    """
    energy = _frac(energy)
    q = _point(q)
    p = _point(p)
    boundary = tuple(int(b) for b in (boundary if isinstance(boundary, tuple) else (boundary,)))
    if len(boundary) != len(q) or len(p) != len(q):
        raise ValueError("dimension mismatch in energy transport")
    pairing = sum((pv - qv) * b for pv, qv, b in zip(p, q, boundary))
    return (
        energy
        + pairing
        + g_x.evaluate(q)
        - g_y.evaluate(q)
        + g_y.evaluate(p)
        - g_x.evaluate(p)
    )


@dataclass(frozen=True)
class TrivialisationChange:
    """Diagonal module map T^(f(q)) z^(df - dg1 + dg2) between the same
    sheets read through two primitive collections."""

    source: LocalModule
    target: LocalModule
    entries: tuple


def change_trivialisation(module, f, new_primitives):
    """Compare generators trivialised by the module's primitives with
    ones trivialised by new_primitives, twisted by f.

    Each sheet's discrepancy f - g1 + g2 must be affine with an
    integral slope; the entry is the monomial T^(f(q)) z^(that slope).
    """
    data = module.data
    new_primitives = tuple(new_primitives)
    if len(new_primitives) != len(data.primitives):
        raise ValueError("sheet count changed under retrivialisation")
    if f.dimension != 1:
        raise ValueError("the twisting function must be one-dimensional")
    q = data.basepoint
    value = NovikovScalar.monomial(1, f.evaluate((q,)))
    entries = []
    for g1, g2 in zip(data.primitives, new_primitives):
        diff = (f - g1 + g2).as_affine()
        entries.append(
            AffinoidElement.monomial(
                module.cover,
                data.face,
                value,
                (diff.linear[0],),
                basepoint=(q,),
            )
        )
    target = LocalModule(module.cover, replace(data, primitives=new_primitives))
    return TrivialisationChange(module, target, tuple(entries))


def patch_global(lagrangian, fibration, cutoff=None):
    """Twisted module of the slope-k line over a circle cover.

    Every chart carries the rank-|k| free module on its sheets; the
    restriction to an overlap is diagonal, a transport factor times
    z to the integer discrepancy picked up by the deck translation.
    An optional cutoff truncates the entry coefficients.
    """
    cover = fibration.cover
    offsets = chart_offsets(cover)
    k = lagrangian.slope
    if k == 0:
        raise ValueError("a slope-zero line is not transverse to the fibres")
    sigma = 1 if k > 0 else -1
    count = abs(k)
    data = {
        i: local_floer_data(lagrangian, cover, i)
        for i in range(len(cover.chart_ids))
    }
    restrictions = {}
    for low, top in nested_pairs(cover):
        (member,) = low
        chart = cover.face_chart(top)
        q_edge = chart.basepoint
        spot = cover.transition(top[0], member).apply(q_edge)
        wrap = _edge_wrap(cover, offsets, top, member)
        matrix = []
        for r in range(count):
            row = []
            for c in range(count):
                if r != c:
                    row.append(AffinoidElement.zero(cover, top))
                    continue
                g = data[member].primitives[r]
                coeff = NovikovScalar.monomial(1, -g.evaluate(spot))
                if cutoff is not None:
                    coeff = coeff.truncate(cutoff)
                row.append(
                    AffinoidElement.monomial(
                        cover, top, coeff, (-sigma * wrap,)
                    )
                )
            matrix.append(tuple(row))
        restrictions[(low, top)] = tuple(matrix)
    return TwistedModule(fibration, count, restrictions)


@dataclass(frozen=True)
class SheetMonodromy:
    """Action of the base loop on one sheet's coefficient tower:
    a[m + shift] = T^(constant + weight*m) * a[m]."""

    shift: int
    constant: Fraction
    weight: Fraction


def _single_monomial(element):
    items = list(element.terms.items())
    if len(items) != 1:
        raise ChartMismatchError("monomial restriction entries required")
    (exponent,), coeff = items[0]
    terms = list(coeff.terms)
    if len(terms) != 1 or coeff.terms[0][1] == 0:
        raise ChartMismatchError("monomial restriction entries required")
    return exponent, terms[0][0]


def loop_monodromy(module, loop=None):
    """Compose the sheet recursions around a loop of charts.

    The default loop walks 0, 1, ..., n-1 and closes back to 0.  For
    the slope-k line each sheet comes back with shift sign(k) and
    weight one, the signature of a degree-k line on the mirror curve.
    """
    cover = module.cover
    if loop is None:
        loop = list(range(len(cover.chart_ids))) + [0]
    state = [
        SheetMonodromy(0, Fraction(0), Fraction(0))
        for _ in range(module.rank)
    ]
    for a, b in zip(loop, loop[1:]):
        edge = tuple(sorted((a, b)))
        chart = cover.face_chart(edge)
        q_edge = chart.basepoint
        mat_a = module.restriction((a,), edge)
        mat_b = module.restriction((b,), edge)
        ta = cover.transition(edge[0], a).apply(q_edge)[0] - cover.face_chart(
            (a,)
        ).basepoint[0]
        tb = cover.transition(edge[0], b).apply(q_edge)[0] - cover.face_chart(
            (b,)
        ).basepoint[0]
        for j in range(module.rank):
            ea, va = _single_monomial(mat_a[j][j])
            eb, vb = _single_monomial(mat_b[j][j])
            shift = ea - eb
            weight = ta - tb
            constant = va - vb - tb * shift
            prev = state[j]
            state[j] = SheetMonodromy(
                prev.shift + shift,
                prev.constant + constant + weight * prev.shift,
                prev.weight + weight,
            )
    return tuple(state)


def section_window(lagrangian, precision):
    """Monomial radius by which every section coefficient below the
    precision is visible.

    Sheet coefficients of the slope-k line grow like m^2/2 minus a
    linear term controlled by the sheet gammas, so the radius is the
    positive root of that quadratic, rounded up.
    """
    k = lagrangian.slope
    if k == 0:
        raise ValueError("a slope-zero line is not transverse to the fibres")
    count = abs(k)
    bound = 1 + max(
        abs((lagrangian.offset + j) / count) for j in range(count)
    )
    target = bound * bound + 2 * _frac(precision)
    n = -((-target.numerator) // target.denominator)
    root = isqrt(n)
    if root * root < n:
        root += 1
    b = -((-bound.numerator) // bound.denominator)
    return b + root
