"""The closed-form line module against the construction it replaced.

patch_global reads each transport t^(-g(spot)) off the sheet gammas and
hands the module its diagonal as sparse rows, and local_floer_data
checks its sheets in closed form.  The references here rebuild what was
replaced: the sheet data through the checked LocalFloerData, each
entry's exponent through the checked PolyFunction.evaluate, and the
dense k x k restriction with one zero shared on the face.
"""

from fractions import Fraction

import pytest

from mirrorforge.affine import PolyFunction
from mirrorforge.catalog import load_catalog
from mirrorforge.floer_demo import (
    LinearLagrangian,
    LocalFloerData,
    chart_offsets,
    local_floer_data,
    local_module,
    patch_global,
)
from mirrorforge.mirror_charts import AffinoidElement
from mirrorforge.novikov import NovikovScalar
from mirrorforge.twisted_sheaves import (
    TwistedModule,
    _edge_monomials,
    validate_module,
)

F = Fraction
S = NovikovScalar
CIRCLES = ("elliptic-demo", "split-torus-2")
SLOPES = [k for k in range(1, 10)] + [-k for k in range(1, 10)]
OFFSETS = (F(0), F(2, 7), F(1, 3), F(5, 11))
CASES = [(catalog, slope) for catalog in CIRCLES for slope in SLOPES]


def reference_sheet_data(lagrangian, cover, chart):
    """Sheet data as the public constructor checks it: primitives
    normalised to vanish at the chart basepoint, gammas shifted by sigma
    times the chart offset."""
    sigma = 1 if lagrangian.slope > 0 else -1
    count = abs(lagrangian.slope)
    half = F(sigma, 2)
    q = cover.face_chart((chart,)).basepoint[0]
    shift = chart_offsets(cover)[chart]
    primitives = []
    for j in range(count):
        gamma = (lagrangian.offset + j) / count + sigma * shift
        constant = -(half * q * q + gamma * q)
        primitives.append(PolyFunction(1, {(2,): half, (1,): gamma, (0,): constant}))
    return LocalFloerData((chart,), q, tuple(primitives), cover.chart_ids[chart])


def reference_wrap(cover, offsets, top, member):
    # deck translation entering the edge top from the member chart
    phi = cover.transition(top[0], member)
    wrap = offsets[top[0]] - offsets[member] - phi.translation[0]
    assert wrap.denominator == 1
    return int(wrap)


def reference_restrictions(lagrangian, fibration, cutoff=None):
    """The dense restriction of every nested pair: t^(-g_r(spot))
    z^(-sigma*wrap) at (r, r) with g_r from local_floer_data and the
    checked evaluate, and one zero on the face everywhere else; with a
    cutoff each transport is truncated there."""
    cover = fibration.cover
    offsets = chart_offsets(cover)
    sigma = 1 if lagrangian.slope > 0 else -1
    count = abs(lagrangian.slope)
    out = {}
    for low, top in cover.nested_pairs:
        (member,) = low
        data = local_floer_data(lagrangian, cover, member)
        d, moves = cover.restriction_moves
        spot = tuple(F(x, d) for x in moves[(top, member)][1])
        exponent = (-sigma * reference_wrap(cover, offsets, top, member),)
        zero = AffinoidElement(cover, top)
        rows = []
        for r, g in enumerate(data.primitives):
            coeff = S.monomial(1, -g.evaluate(spot))
            if cutoff is not None:
                coeff = coeff.truncate(cutoff)
            row = [zero] * count
            row[r] = AffinoidElement(cover, top, {exponent: coeff})
            rows.append(tuple(row))
        out[(low, top)] = tuple(rows)
    return out


def typed(value):
    return (type(value), value)


def element_data(x):
    assert type(x) is AffinoidElement
    return (
        x.face,
        tuple(typed(v) for v in x.basepoint),
        {
            a: (tuple((typed(e), typed(c)) for e, c in s.terms), typed(s.cutoff))
            for a, s in x.terms.items()
        },
    )


def matrix_data(mat):
    return tuple(tuple(element_data(x) for x in row) for row in mat)


def diagonal_rows(mat):
    # the sparse form of a dense matrix: the entries that are not exact zeros
    return tuple(
        {col: x for col, x in enumerate(row) if x.terms} for row in mat
    )


@pytest.mark.parametrize("catalog, slope", CASES)
def test_local_floer_data_matches_the_checked_construction(catalog, slope):
    cover = load_catalog(catalog).cover
    for offset in OFFSETS:
        line = LinearLagrangian(slope, offset)
        for chart in range(len(cover.chart_ids)):
            want = reference_sheet_data(line, cover, chart)
            for got in (local_floer_data(line, cover, chart), local_module(line, cover, chart).data):
                assert got == want
                assert (got.face, typed(got.basepoint), got.tag) == (
                    want.face,
                    typed(want.basepoint),
                    want.tag,
                )
                assert [g.terms for g in got.primitives] == [g.terms for g in want.primitives]
                assert all(g.evaluate((got.basepoint,)) == 0 for g in got.primitives)


@pytest.mark.parametrize("catalog, slope", CASES)
def test_patch_global_entries_are_the_evaluated_transports(catalog, slope):
    fibration = load_catalog(catalog)
    for offset in OFFSETS:
        line = LinearLagrangian(slope, offset)
        module = patch_global(line, fibration)
        for pair, mat in reference_restrictions(line, fibration).items():
            assert module.rank == abs(slope)
            rows = module._rows[pair]
            assert [sorted(row) for row in rows] == [[r] for r in range(abs(slope))]
            assert [element_data(row[r]) for r, row in enumerate(rows)] == [
                element_data(mat[r][r]) for r in range(abs(slope))
            ]
            assert matrix_data(module.restriction(*pair)) == matrix_data(mat)


def truncated_matrix(mat, cutoff):
    # every coefficient of every entry truncated at cutoff
    return tuple(
        tuple(
            AffinoidElement(
                x.cover, x.face, {a: c.truncate(cutoff) for a, c in x.terms.items()}, x.basepoint
            )
            for x in row
        )
        for row in mat
    )


@pytest.mark.parametrize("catalog", CIRCLES)
def test_truncated_entries_match_the_evaluated_transports(catalog):
    # the cutoff turns some transports into inexact zeros; the checked
    # constructor keeps them in its sparse rows, as it keeps every entry
    # that is not an exact zero
    fibration = load_catalog(catalog)
    cutoff = F(1, 10)
    inexact = 0
    for slope in (1, -2, 5):
        line = LinearLagrangian(slope, F(2, 7))
        module = patch_global(line, fibration)
        want = reference_restrictions(line, fibration, cutoff)
        dense = {pair: truncated_matrix(module.restriction(*pair), cutoff) for pair in module.pairs}
        checked = TwistedModule(fibration, abs(slope), dense)
        for pair, mat in want.items():
            assert matrix_data(dense[pair]) == matrix_data(mat)
            assert checked._rows[pair] == diagonal_rows(mat)
            assert [sorted(row) for row in checked._rows[pair]] == [[r] for r in range(abs(slope))]
            inexact += sum(not c for row in mat for x in row for c in x.terms.values())
    assert inexact > 0


@pytest.mark.parametrize("catalog", CIRCLES)
def test_checked_module_from_the_dense_matrices_agrees(catalog):
    # the constructor builds the same sparse rows while it checks entries
    fibration = load_catalog(catalog)
    for slope in (1, 2, -3, 7):
        line = LinearLagrangian(slope, F(1, 3))
        dense = reference_restrictions(line, fibration)
        checked = TwistedModule(fibration, abs(slope), dense)
        module = patch_global(line, fibration)
        for pair, mat in dense.items():
            assert checked._rows[pair] == module._rows[pair] == diagonal_rows(mat)
            assert matrix_data(checked.restriction(*pair)) == matrix_data(mat)
        assert _edge_monomials(checked) == _edge_monomials(module)
        assert validate_module(checked, 4) == validate_module(module, 4)


@pytest.mark.parametrize("read_first", [False, True])
def test_with_entry_changes_the_dense_and_the_sparse_form_alike(read_first):
    fibration = load_catalog("elliptic-demo")
    line = LinearLagrangian(4, F(2, 7))
    module = patch_global(line, fibration)
    low, top = module.pairs[0]
    before = matrix_data(module.restriction(low, top)) if read_first else None
    t = S.monomial(1, 1)
    entry = reference_restrictions(line, fibration)[(low, top)][1][1]
    steps = [
        (1, 1, entry * t),  # a diagonal entry scaled
        (1, 3, entry),  # an off-diagonal zero made nonzero
        (1, 0, entry * t),  # one more, left of the others in its row
        (2, 2, AffinoidElement(fibration.cover, top)),  # a diagonal entry zeroed
    ]
    current = module
    want = [list(row) for row in reference_restrictions(line, fibration)[(low, top)]]
    for row, col, element in steps:
        current = current.with_entry(low, top, row, col, element)
        want[row][col] = element
        assert matrix_data(current.restriction(low, top)) == matrix_data(want)
        assert current._rows[(low, top)] == diagonal_rows(want)
        # each row keeps its entries in column order
        assert [list(row) for row in current._rows[(low, top)]] == [
            sorted(row) for row in current._rows[(low, top)]
        ]
        for pair in module.pairs:
            if pair != (low, top):
                assert current._rows[pair] is module._rows[pair]
    assert current._rows[(low, top)][1] == {0: entry * t, 1: entry * t, 3: entry}
    assert current._rows[(low, top)][2] == {}
    # the module it came from is unchanged
    if read_first:
        assert matrix_data(module.restriction(low, top)) == before
    assert [sorted(row) for row in module._rows[(low, top)]] == [[r] for r in range(4)]
    report = validate_module(current, 4)
    assert report.determinant_failures == ((low, top),)
