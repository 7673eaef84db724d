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
from math import lcm

from .affine import PolyFunction
from .errors import ChartMismatchError
from .mirror_charts import AffinoidElement
from .novikov import NovikovScalar, _frac
from .twisted_sheaves import (
    ModuleComplex,
    TwistedModule,
    _positive_precision,
    _quadratic_radius,
)

_ONE = Fraction(1)


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


def _sheets(lagrangian, q, shift=0):
    """Gammas and constants of the |k| sheet primitives
    g_j(s) = sigma/2 s^2 + gamma_j s + c_j over the fibre at q, on ints:
    (gammas, constants, d) with gamma_j = gammas[j]/d and c_j =
    constants[j]/d.

    sigma is the sign of the slope, gamma_j = (offset + j)/|k| + sigma
    times shift, and c_j = -(sigma/2 q^2 + gamma_j q) normalises g_j to
    vanish at the basepoint q.  With offset + sigma*shift*|k| = m/md
    and q = qn/qd, gamma_j = (m + j*md)/(md*|k|) and every value sits
    on d = 2*qd^2*md*|k|.  Both checks of LocalFloerData hold by
    construction: each g_j(q) is 0, and the gammas strictly increase in
    j, so the sheets of one curvature are pairwise distinct.
    """
    k = lagrangian.slope
    if k == 0:
        raise ValueError("a slope-zero line is not transverse to the fibres")
    sigma = 1 if k > 0 else -1
    count = abs(k)
    moved = lagrangian.offset + sigma * shift * count
    m, md = moved.numerator, moved.denominator
    qn, qd = q.numerator, q.denominator
    square = sigma * qn * qn * md * count
    gammas, constants = [], []
    for j in range(count):
        n = m + j * md
        gammas.append(2 * qd * qd * n)
        constants.append(-(square + 2 * qd * qn * n))
    return gammas, constants, 2 * qd * qd * md * count


def _primitives(lagrangian, gammas, constants, d):
    # the sheet primitives of _sheets as PolyFunctions, zero
    # coefficients dropped as the checked constructor drops them
    half = Fraction(1 if lagrangian.slope > 0 else -1, 2)
    out = []
    for gamma, constant in zip(gammas, constants):
        terms = {(2,): half}
        if gamma:
            terms[(1,)] = Fraction(gamma, d)
        if constant:
            terms[(0,)] = Fraction(constant, d)
        out.append(PolyFunction._trusted(1, terms))
    return tuple(out)


def intersections(lagrangian, basepoint):
    """Primitives of the |k| intersection sheets over one fibre.

    Sheet j has derivative sigma*s + (offset + j)/|k| with sigma the
    sign of the slope, so consecutive sheets sit 1/|k| apart on the
    fibre circle; each primitive is normalised to vanish at the given
    basepoint.
    """
    q = _frac(basepoint)
    return _primitives(lagrangian, *_sheets(lagrangian, q))


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

    @classmethod
    def _trusted(cls, face, basepoint, primitives, tag):
        """Build sheet data from parts that are already valid.

        Nothing is checked.  The caller guarantees that face is a tuple,
        basepoint a Fraction, and primitives a nonempty tuple of
        pairwise distinct one-dimensional PolyFunctions that vanish at
        the basepoint, as _sheets builds them.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "primitives", primitives)
        object.__setattr__(self, "tag", tag)
        return self

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


def local_floer_data(lagrangian, cover, chart):
    """Sheet data over one chart of a circle cover.

    The gammas are shifted by sigma times the chart's global offset so
    that equally labelled sheets over overlapping charts describe the
    same line, with at worst an integral affine discrepancy.  A chart
    index that is not an int, or is a bool, raises TypeError.
    """
    if isinstance(chart, bool) or not isinstance(chart, int):
        raise TypeError(f"chart index must be an int, not {type(chart).__name__}")
    offsets = chart_offsets(cover)
    face = (chart,)
    q = cover.face_chart(face).basepoint[0]
    primitives = _primitives(lagrangian, *_sheets(lagrangian, q, offsets[chart]))
    return LocalFloerData._trusted(face, q, primitives, cover.chart_ids[chart])


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


def patch_global(lagrangian, fibration):
    """Twisted module of the slope-k line over a circle cover.

    Every chart carries the rank-|k| free module on its sheets; the
    restriction to an overlap is diagonal, a transport factor times
    z to the integer discrepancy picked up by the deck translation.

    The transport of sheet j from the member chart's basepoint q to
    the overlap's basepoint, at spot in the member's coordinates, is
    t^(-g_j(spot)) with g_j(spot) = sigma/2 (spot^2 - q^2) + gamma_j
    (spot - q), read off the sheet gammas in closed form; the module
    gets each restriction as its diagonal, one entry per sheet.  With
    gamma_j = G_j/d from _sheets, spot an int over the cover's scaling
    in ``restriction_moves``, and spot = a/e and q = b/e on the common
    denominator e of that scaling and q, the exponent is
    (constant - G_j*linear)/scale for constant = -sigma*(a^2 - b^2)*d,
    linear = 2*e*(a - b) and scale = 2*e^2*d, one Fraction per entry.
    """
    cover = fibration.cover
    offsets = chart_offsets(cover)
    basepoints = [cover.face_chart((i,)).basepoint[0] for i in range(len(cover.chart_ids))]
    sheets = [_sheets(lagrangian, q, shift) for q, shift in zip(basepoints, offsets)]
    sigma = 1 if lagrangian.slope > 0 else -1
    dc, moves = cover.restriction_moves
    restrictions = {}
    for low, top in cover.nested_pairs:
        (member,) = low
        (spot,) = moves[(top, member)][1]
        q = basepoints[member]
        gammas, _, d = sheets[member]
        e = lcm(dc, q.denominator)
        a = spot * (e // dc)
        b = q.numerator * (e // q.denominator)
        constant = -sigma * (a * a - b * b) * d
        linear = 2 * e * (a - b)
        scale = 2 * e * e * d
        wrap = _edge_wrap(cover, offsets, top, member)
        basepoint = cover.face_chart(top).basepoint
        exponent = (-sigma * wrap,)
        rows = []
        for r, gamma in enumerate(gammas):
            value = Fraction(constant - gamma * linear, scale)
            coeff = NovikovScalar._trusted(((value, _ONE),), None)
            rows.append({r: AffinoidElement._trusted(cover, top, basepoint, {exponent: coeff})})
        restrictions[(low, top)] = tuple(rows)
    return TwistedModule._trusted(fibration, abs(lagrangian.slope), restrictions)


def section_window(lagrangian, precision):
    """Monomial radius by which every section coefficient below the
    precision is visible.

    Sheet coefficients of the slope-k line grow like m^2/2 minus a
    linear term controlled by the sheet gammas, so the radius is the
    positive root of that quadratic, rounded up.  It is the radius
    twisted_sheaves.section_radius reads off the line's patched module.
    A precision that is not positive raises ValueError.
    """
    k = lagrangian.slope
    if k == 0:
        raise ValueError("a slope-zero line is not transverse to the fibres")
    precision = _positive_precision(precision)
    count = abs(k)
    # bound = 1 + max |offset + j|/|k| over j in 0..|k|-1, which sits
    # at an end of that range
    n, od = lagrangian.offset.numerator, lagrangian.offset.denominator
    far = max(abs(n), abs(n + (count - 1) * od))
    return _quadratic_radius(
        count * od + far, count * od, precision.numerator, precision.denominator
    )
