"""The section solver against references kept only here.

The references are the solver's earlier shape: the edge comparison
system built over Fraction valuations from one chart restriction per
window monomial, its kernel by Gauss-Jordan elimination, and the
stabilisation sweep that rebuilds and re-solves the system at every
integer precision.  The library builds each system once
over integer valuations, eliminates it to echelon form, and reads the
rank at every integer precision off that one elimination; these tests
hold it to the references vector for vector and rank for rank.
"""

import io
import random
import time
from collections import deque
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from mirrorforge import cli
from mirrorforge.affine import dot
from mirrorforge.catalog import load_catalog
from mirrorforge.floer_demo import LinearLagrangian, patch_global, section_window
from mirrorforge.intlinalg import sparse_kernel
from mirrorforge.mirror_charts import AffinoidElement
from mirrorforge.twisted_sheaves import (
    _collapse,
    _hop_table,
    _monomial_system,
    _window_exponents,
    canonical_twisted_module,
    global_sections,
    stabilisation_threshold,
)

F = Fraction

ELLIPTIC = load_catalog("elliptic-demo")
FOUR_ARCS = load_catalog("split-torus-2")
CIRCLES = {"elliptic-demo": ELLIPTIC, "split-torus-2": FOUR_ARCS}


# -- references ----------------------------------------------------------------


def reference_hops(module, radius):
    """Moves by source and contributions by target, restricting every
    window monomial to every edge."""
    cover = module.cover
    rank = module.rank
    exponents = _window_exponents(cover.dimension, radius)
    moves = {}
    targets = {}
    for edge in cover.faces_of_degree(1):
        for sign, i in ((1, edge[0]), (-1, edge[1])):
            mat = module.restriction((i,), edge)
            for a in exponents:
                restricted = AffinoidElement.monomial(cover, (i,), 1, a).restrict(
                    edge
                )
                ((moved, anchor),) = restricted.terms.items()
                ((base, unit),) = anchor.terms
                for r in range(rank):
                    for col in range(rank):
                        source = (i, a, col)
                        for b, coeff in mat[r][col].terms.items():
                            target = (
                                edge,
                                tuple(x + y for x, y in zip(moved, b)),
                                r,
                            )
                            for texp, c in coeff.terms:
                                hop = (target, base + texp, sign * unit * c)
                                moves.setdefault(source, []).append(hop)
                                targets.setdefault(target, []).append(
                                    (source, base + texp, sign * unit * c)
                                )
    return moves, targets


def reference_system(module, radius, precision):
    """Columns and rows over (source, Fraction lam) keys, as built before
    valuations were scaled to integers."""
    cover = module.cover
    moves, targets = reference_hops(module, radius)
    thresholds = {}
    for target in targets:
        edge, cexp, _ = target
        chart = cover.face_chart(edge)
        weight = min(
            dot(tuple(x - y for x, y in zip(v, chart.basepoint)), cexp)
            for v in chart.polytope.vertices
        )
        thresholds[target] = precision - weight
    headroom = max(
        (-shift for hops in moves.values() for _, shift, _ in hops),
        default=F(0),
    )
    top = max(thresholds.values(), default=precision) + max(headroom, F(0))
    nodes = set()
    queue = deque()
    for source in moves:
        node = (source, F(0))
        nodes.add(node)
        queue.append(node)
    while queue:
        source, lam = queue.popleft()
        for target, shift, _ in moves[source]:
            mu = lam + shift
            if mu >= thresholds[target]:
                continue
            for other, shift2, _ in targets[target]:
                lam2 = mu - shift2
                if 0 <= lam2 < top:
                    node = (other, lam2)
                    if node not in nodes:
                        nodes.add(node)
                        queue.append(node)
    rows = {}
    for node in nodes:
        source, lam = node
        for target, shift, c in moves[source]:
            mu = lam + shift
            if mu >= thresholds[target]:
                continue
            row = rows.setdefault((target, mu), {})
            value = row.get(node, F(0)) + c
            if value:
                row[node] = value
            else:
                row.pop(node, None)
    return sorted(nodes), [rows[key] for key in sorted(rows) if rows[key]]


def reference_kernel(rows, columns):
    """Right kernel by Gauss-Jordan elimination: every new pivot row
    sweeps its column out of all stored ones."""
    pivots = {}
    for raw in rows:
        row = dict(raw)
        for c in [c for c in row if c in pivots]:
            factor = row.pop(c)
            for j, v in pivots[c].items():
                if j == c:
                    continue
                value = row.get(j, F(0)) - factor * v
                if value:
                    row[j] = value
                else:
                    row.pop(j, None)
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        lead = min(row)
        inv = 1 / F(row[lead])
        normal = {c: v * inv for c, v in row.items()}
        for prow in pivots.values():
            f = prow.pop(lead, None)
            if f:
                for j, v in normal.items():
                    if j == lead:
                        continue
                    value = prow.get(j, F(0)) - f * v
                    if value:
                        prow[j] = value
                    else:
                        prow.pop(j, None)
        pivots[lead] = normal
    basis = []
    for column in columns:
        if column in pivots:
            continue
        vector = {column: F(1)}
        for pc, prow in pivots.items():
            v = prow.get(column)
            if v:
                vector[pc] = -v
        basis.append(vector)
    return basis


def reference_ranks(module, radius, precision):
    """Section rank at each integer precision 1..int(precision), each
    from its own system built and solved from scratch."""
    ranks = []
    for p in range(1, int(precision) + 1):
        columns, rows = reference_system(module, radius, F(p))
        basis = reference_kernel(rows, columns)
        ground = [v for v in basis if min(lam for _, lam in v) == 0]
        ranks.append(_collapse(ground, F(p))[0])
    return tuple(ranks)


def reference_threshold(ranks):
    top = len(ranks)
    threshold = top
    for p in range(top - 1, 0, -1):
        if ranks[p - 1] == ranks[top - 1]:
            threshold = p
        else:
            break
    return threshold


def keyed(basis, columns):
    return [{columns[c]: v for c, v in vector.items()} for vector in basis]


def full_kernel(system):
    (basis,) = sparse_kernel(
        system.rows, len(system.columns), [len(system.rows)]
    )
    return basis


# -- the system and its kernel ---------------------------------------------------


def circle_systems():
    rng = random.Random(2718)
    cases = []
    for name in sorted(CIRCLES):
        for slope in (1, -1, 2, -2, 3, -3):
            offset = F(rng.randint(0, 12), 13)
            radius = rng.randint(2, 5)
            precision = rng.choice((F(1, 2), F(2), F(7, 2), F(4)))
            cases.append((name, slope, offset, radius, precision))
    return cases


@pytest.mark.parametrize(
    "name,slope,offset,radius,precision", circle_systems()
)
def test_circle_kernel_matches_gauss_jordan(name, slope, offset, radius, precision):
    module = patch_global(LinearLagrangian(slope, offset), CIRCLES[name])
    system = _monomial_system(module, radius, precision)
    columns, rows = reference_system(module, radius, precision)
    assert system.columns == columns
    assert sorted(map(sorted, keyed(system.rows, columns))) == sorted(
        map(sorted, rows)
    )
    assert keyed(full_kernel(system), columns) == reference_kernel(rows, columns)


@pytest.mark.parametrize("name", ["split-torus-4", "thurston-f2"])
def test_hop_table_matches_per_monomial_restriction(name):
    module = canonical_twisted_module(load_catalog(name))
    for radius in (1, 2):
        assert _hop_table(module, radius) == reference_hops(module, radius)


def test_torus_kernel_matches_gauss_jordan():
    module = canonical_twisted_module(load_catalog("split-torus-4"))
    for precision in (F(1), F(5, 2)):
        system = _monomial_system(module, 1, precision)
        columns, rows = reference_system(module, 1, precision)
        assert system.columns == columns
        assert keyed(full_kernel(system), columns) == reference_kernel(
            rows, columns
        )


def test_rows_appear_in_precision_order():
    module = patch_global(LinearLagrangian(2, F(3, 7)), ELLIPTIC)
    precision = F(9, 2)
    system = _monomial_system(module, 4, precision)
    assert system.appears == sorted(system.appears)
    assert system.appears[-1] < precision * system.scale
    # the rows tagged below an integer p are the rows of the system built
    # at p, plus rows on columns that system never reaches, none of them
    # at valuation zero
    for p in range(1, 5):
        columns, rows = reference_system(module, 4, F(p))
        block = keyed(
            [
                row
                for row, tag in zip(system.rows, system.appears)
                if tag < p * system.scale
            ],
            system.columns,
        )
        reached = set(columns)
        own = [row for row in block if set(row) & reached]
        assert sorted(map(sorted, own)) == sorted(map(sorted, rows))
        for row in block:
            if row not in own:
                assert all(lam > 0 for _, lam in row)


def test_random_blocks_match_gauss_jordan():
    rng = random.Random(31)
    for _ in range(40):
        n_columns = rng.randint(1, 14)
        rows = []
        for _ in range(rng.randint(0, 16)):
            support = rng.sample(range(n_columns), rng.randint(1, min(4, n_columns)))
            rows.append(
                {c: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for c in support}
            )
        if rows and rng.random() < 0.3:
            # a dependent row, so the elimination must also discard rows
            a, b = rng.sample(rows, 2) if len(rows) > 1 else (rows[0], rows[0])
            combo = dict(a)
            for c, v in b.items():
                combo[c] = combo.get(c, F(0)) + 2 * v
            rows.append({c: v for c, v in combo.items() if v})
        cuts = sorted(rng.randint(0, len(rows)) for _ in range(3)) + [len(rows)]
        columns = list(range(n_columns))
        bases = list(sparse_kernel(rows, n_columns, cuts))
        assert len(bases) == len(cuts)
        for cut, basis in zip(cuts, bases):
            assert basis == reference_kernel(rows[:cut], columns)


# -- ranks at every integer precision --------------------------------------------


RANK_CASES = [
    ("elliptic-demo", slope, offset, precision, True)
    for precision in (F(1, 2), F(4), F(9, 2))
    for slope, offset in ((1, F(0)), (-1, F(2, 5)), (2, F(1, 3)), (-2, F(0)), (3, F(4, 7)))
] + [
    ("split-torus-2", slope, F(0), precision, True)
    for precision in (F(1, 2), F(4))
    for slope in (1, -1, 2)
] + [
    ("elliptic-demo", 1, F(0), F(21, 2), True),
    ("elliptic-demo", -1, F(0), F(21, 2), True),
] + [
    # sweeps from radius 1 stall at radius 2, where the rank still
    # moves with the precision
    (name, slope, offset, precision, False)
    for name in sorted(CIRCLES)
    for slope, offset in ((1, F(0)), (2, F(0)), (3, F(1, 3)))
    for precision in (F(4), F(9, 2), F(21, 2))
]


@pytest.mark.parametrize("name,slope,offset,precision,anchored", RANK_CASES)
def test_one_pass_ranks_match_rebuild_loop(name, slope, offset, precision, anchored):
    line = LinearLagrangian(slope, offset)
    module = patch_global(line, CIRCLES[name])
    if anchored:
        window = section_window(line, precision)
        space = global_sections(
            module, precision, max_window=window + 2, min_window=window
        )
    else:
        space = global_sections(module, precision)
    expected = reference_ranks(module, space.window, precision)
    assert space.ranks == expected
    assert space.threshold == reference_threshold(expected)
    if precision < 1:
        assert space.ranks == () and space.threshold == 0
    if precision == int(precision):
        assert space.ranks[-1] == space.rank


# -- pinned reports --------------------------------------------------------------


# (catalog, slope, precision) -> (rank, window, threshold), as reported
# when every integer precision was solved from scratch.
PINNED = {
    ("elliptic-demo", 1, F(10)): (1, 7, 1),
    ("elliptic-demo", 1, F(21, 2)): (1, 7, 1),
    ("elliptic-demo", -1, F(10)): (0, 7, 1),
    ("elliptic-demo", -1, F(21, 2)): (0, 7, 1),
    ("elliptic-demo", 2, F(10)): (2, 8, 1),
    ("elliptic-demo", 2, F(21, 2)): (2, 8, 1),
    ("elliptic-demo", -2, F(10)): (0, 8, 1),
    ("elliptic-demo", -2, F(21, 2)): (0, 8, 1),
    ("elliptic-demo", 3, F(10)): (3, 8, 1),
    ("elliptic-demo", 3, F(21, 2)): (3, 8, 1),
    ("elliptic-demo", -3, F(10)): (0, 8, 1),
    ("elliptic-demo", -3, F(21, 2)): (0, 8, 1),
    ("split-torus-2", 1, F(10)): (1, 7, 1),
    ("split-torus-2", 1, F(21, 2)): (1, 7, 1),
    ("split-torus-2", -1, F(10)): (0, 7, 1),
    ("split-torus-2", -1, F(21, 2)): (0, 7, 1),
    ("split-torus-2", 2, F(10)): (2, 8, 1),
    ("split-torus-2", 2, F(21, 2)): (2, 8, 1),
    ("split-torus-2", -2, F(10)): (0, 8, 1),
    ("split-torus-2", -2, F(21, 2)): (0, 8, 1),
    ("split-torus-2", 3, F(10)): (3, 8, 1),
    ("split-torus-2", 3, F(21, 2)): (3, 8, 1),
    ("split-torus-2", -3, F(10)): (0, 8, 1),
    ("split-torus-2", -3, F(21, 2)): (0, 8, 1),
    ("elliptic-demo", 1, F(20)): (1, 9, 1),
    ("elliptic-demo", 2, F(20)): (2, 10, 1),
    ("elliptic-demo", -1, F(20)): (0, 9, 1),
}


@pytest.mark.parametrize("name,slope,precision", sorted(PINNED))
def test_pinned_section_reports(name, slope, precision):
    line = LinearLagrangian(slope)
    module = patch_global(line, CIRCLES[name])
    window = section_window(line, precision)
    space = global_sections(
        module, precision, max_window=window + 2, min_window=window
    )
    assert (space.rank, space.window, space.threshold) == PINNED[
        (name, slope, precision)
    ]
    assert space.rank == max(slope, 0)
    assert stabilisation_threshold(
        module, precision, max_window=window + 2, min_window=window
    ) == space.threshold


def test_slope_two_at_precision_twenty_stays_off_the_cliff():
    # solving every integer precision from scratch took 14 s on two cores
    budget = 5.0
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(
            ["sheaf", "--catalog", "elliptic-demo", "--slope", "2", "-E", "20"]
        )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "global sections rank: 2 (window 10)" in out.getvalue()
    assert "stabilisation threshold: 1" in out.getvalue()
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"
