"""The slope-k line pipeline on ints against the Fraction forms it replaced.

_sheets returns the sheet gammas and constants as numerators over one
denominator, patch_global forms one Fraction per entry from them,
_compose_loop composes the loop on ints over one scale, and the
certified radius reads those ints.  The references keep the Fraction
forms that were replaced: the sheet gammas (offset + j)/|k| + sigma
times the chart offset with constants -(sigma/2 q^2 + gamma q), the
transport exponent quadratic - gamma*step of each nested pair, the loop
composed as SheetMonodromy values, and the radius rounded off the
Fraction bound |s| + |c/w + s/2| at precision*|s/w|.  Every value is
compared with its type.
"""

from fractions import Fraction
from math import isqrt

import pytest

from mirrorforge.affine import PolyFunction
from mirrorforge.catalog import load_catalog
from mirrorforge.floer_demo import (
    LinearLagrangian,
    _edge_wrap,
    chart_offsets,
    intersections,
    local_floer_data,
    local_module,
    patch_global,
    section_window,
)
from mirrorforge.mirror_charts import AffinoidElement
from mirrorforge.novikov import NovikovScalar
from mirrorforge.twisted_sheaves import (
    SheetMonodromy,
    _edge_monomials,
    loop_monodromy,
    section_radius,
)

F = Fraction
CIRCLES = ("elliptic-demo", "split-torus-2")
SLOPES = [k for k in range(1, 10)] + [-k for k in range(1, 10)] + [30, -30, 100, 800]
OFFSETS = (F(0), F(1, 3), F(-2, 5), F(2, 7), F(7, 2))
PRECISIONS = (F(1, 2), F(1), F(9, 2), F(10), F(240))


def reference_sheets(lagrangian, q, shift=0):
    # the Fraction gammas and constants of the sheet primitives
    sigma = 1 if lagrangian.slope > 0 else -1
    count = abs(lagrangian.slope)
    moved = lagrangian.offset + sigma * shift * count
    square = F(sigma, 2) * q * q
    gammas = [(moved + j) / count for j in range(count)]
    constants = [-(square + gamma * q) for gamma in gammas]
    return gammas, constants


def reference_primitives(lagrangian, q, shift=0):
    half = F(1 if lagrangian.slope > 0 else -1, 2)
    return [
        PolyFunction(1, {(2,): half, (1,): gamma, (0,): constant})
        for gamma, constant in zip(*reference_sheets(lagrangian, q, shift))
    ]


def reference_entries(lagrangian, fibration):
    """Per nested pair, the entry_data of each diagonal entry
    t^(quadratic - gamma*step) z^(-sigma*wrap)."""
    cover = fibration.cover
    offsets = chart_offsets(cover)
    sigma = 1 if lagrangian.slope > 0 else -1
    out = {}
    for low, top in cover.nested_pairs:
        (member,) = low
        d, moves = cover.restriction_moves
        spot = F(moves[(top, member)][1][0], d)
        q = cover.face_chart(low).basepoint[0]
        gammas, _ = reference_sheets(lagrangian, q, offsets[member])
        step = spot - q
        quadratic = -F(sigma, 2) * step * (spot + q)
        exponent = (-sigma * _edge_wrap(cover, offsets, top, member),)
        entries = []
        for gamma in gammas:
            coeff = NovikovScalar([(quadratic - gamma * step, 1)])
            terms = tuple((typed(e), typed(c)) for e, c in coeff.terms)
            entries.append((exponent, terms, typed(coeff.cutoff)))
        out[(low, top)] = entries
    return out


def reference_compose_loop(module, monomials, loop=None):
    # the loop composed on SheetMonodromy values, Fraction by Fraction
    cover = module.cover
    d, moves = cover.restriction_moves
    if loop is None:
        loop = list(range(len(cover.chart_ids))) + [0]
    state = [SheetMonodromy(0, F(0), F(0)) for _ in range(module.rank)]
    for a, b in zip(loop, loop[1:]):
        edge = tuple(sorted((a, b)))
        ta = F(moves[(edge, a)][1][0], d) - cover.face_chart((a,)).basepoint[0]
        tb = F(moves[(edge, b)][1][0], d) - cover.face_chart((b,)).basepoint[0]
        weight = ta - tb
        for j in range(module.rank):
            (ea,), va, _ = monomials[(a, edge)][j]
            (eb,), vb, _ = monomials[(b, edge)][j]
            shift = ea - eb
            constant = va - vb - tb * shift
            prev = state[j]
            state[j] = SheetMonodromy(
                prev.shift + shift,
                prev.constant + constant + weight * prev.shift,
                prev.weight + weight,
            )
    return tuple(state)


def reference_quadratic_radius(bound, precision):
    target = bound * bound + 2 * precision
    n = -((-target.numerator) // target.denominator)
    root = isqrt(n)
    if root * root < n:
        root += 1
    return -((-bound.numerator) // bound.denominator) + root


def reference_radius(module, precision):
    # the certified radius of a circle module whose sheets all shift
    sheets = reference_compose_loop(module, _edge_monomials(module))
    assert all(sheet.shift and sheet.weight for sheet in sheets)
    return max(
        reference_quadratic_radius(
            abs(sheet.shift) + abs(sheet.constant / sheet.weight + F(sheet.shift, 2)),
            precision * abs(sheet.shift / sheet.weight),
        )
        for sheet in sheets
    )


def typed(value):
    return (type(value), value)


def typed_terms(primitive):
    # the terms in their order, each value with its type
    return [(powers, typed(c)) for powers, c in primitive.terms.items()]


def typed_monodromy(sheets):
    return [(typed(s.shift), typed(s.constant), typed(s.weight)) for s in sheets]


def entry_data(entry):
    ((exponent, coeff),) = entry.terms.items()
    return (
        exponent,
        tuple((typed(e), typed(c)) for e, c in coeff.terms),
        typed(coeff.cutoff),
    )


@pytest.mark.parametrize("catalog", CIRCLES)
@pytest.mark.parametrize("slope", SLOPES)
def test_patch_global_rows_match_the_fraction_transports(catalog, slope):
    fibration = load_catalog(catalog)
    cover = fibration.cover
    for offset in OFFSETS:
        line = LinearLagrangian(slope, offset)
        module = patch_global(line, fibration)
        want = reference_entries(line, fibration)
        assert module.rank == abs(slope)
        for pair in cover.nested_pairs:
            rows = module._rows[pair]
            assert [list(row) for row in rows] == [[r] for r in range(abs(slope))]
            top = pair[1]
            for row in rows:
                (entry,) = row.values()
                assert entry.face == top
                assert entry.basepoint == cover.face_chart(top).basepoint
            assert [entry_data(row[r]) for r, row in enumerate(rows)] == want[pair]


@pytest.mark.parametrize("catalog", CIRCLES)
@pytest.mark.parametrize("slope", SLOPES)
def test_sheet_data_matches_the_fraction_sheets(catalog, slope):
    cover = load_catalog(catalog).cover
    offsets = chart_offsets(cover)
    for offset in OFFSETS:
        line = LinearLagrangian(slope, offset)
        for chart in range(len(cover.chart_ids)):
            q = cover.face_chart((chart,)).basepoint[0]
            want = reference_primitives(line, q, offsets[chart])
            built = (local_floer_data(line, cover, chart), local_module(line, cover, chart))
            for got in (built[0], built[1].data):
                assert (got.face, typed(got.basepoint), got.tag) == (
                    (chart,),
                    typed(q),
                    cover.chart_ids[chart],
                )
                assert [typed_terms(g) for g in got.primitives] == [typed_terms(g) for g in want]
                assert all(type(g) is PolyFunction and g.dimension == 1 for g in got.primitives)
        for basepoint in (F(0), F(1, 3), F(-5, 2)):
            got = intersections(line, basepoint)
            want = reference_primitives(line, basepoint)
            assert [typed_terms(g) for g in got] == [typed_terms(g) for g in want]


@pytest.mark.parametrize("catalog", CIRCLES)
@pytest.mark.parametrize("slope", SLOPES)
def test_loop_monodromy_and_radius_match_the_fraction_composition(catalog, slope):
    fibration = load_catalog(catalog)
    n = len(fibration.cover.chart_ids)
    loops = [None, list(range(n - 1, -1, -1)) + [n - 1], [0, 1, 0], [1, 2, 1, 0, 1], [2]]
    for offset in OFFSETS:
        line = LinearLagrangian(slope, offset)
        module = patch_global(line, fibration)
        monomials = _edge_monomials(module)
        for loop in loops:
            got = loop_monodromy(module, loop)
            assert typed_monodromy(got) == typed_monodromy(
                reference_compose_loop(module, monomials, loop)
            )
        for precision in PRECISIONS:
            radius = reference_radius(module, precision)
            assert section_radius(module, precision) == radius
            assert section_window(line, precision) == radius


def test_scaled_valuations_reach_the_loop_scale():
    # two sheets of one restriction rescaled by t^(1/7) and t^(-3/11)
    # put denominators on the loop's valuations that neither the cover
    # nor the line has
    fibration = load_catalog("split-torus-2")
    module = patch_global(LinearLagrangian(3, F(1, 3)), fibration)
    low, top = fibration.cover.nested_pairs[0]
    for r, shift in ((0, F(1, 7)), (2, F(-3, 11))):
        ((exponent, coeff),) = module._rows[(low, top)][r][r].terms.items()
        rescaled = NovikovScalar([(e + shift, c) for e, c in coeff.terms])
        entry = AffinoidElement(module.cover, top, {exponent: rescaled})
        module = module.with_entry(low, top, r, r, entry)
    monomials = _edge_monomials(module)
    want = reference_compose_loop(module, monomials)
    assert typed_monodromy(loop_monodromy(module)) == typed_monodromy(want)
    assert want[0].constant.denominator % 7 == 0
    assert want[2].constant.denominator % 11 == 0
    for precision in PRECISIONS:
        assert section_radius(module, precision) == reference_radius(module, precision)
