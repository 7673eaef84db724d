"""Acceptance gate: eight end-to-end properties, one test each.

Every test prints a single PASS or FAIL line with its runtime; tests
with a pinned budget also assert it.  The section-rank test carries its
own brute-force oracle: it reads the patched module's monomial entries
as data, lays the section equations out on a rational lattice of
coefficient valuations, and counts solution lines grounded at
valuation zero by pure graph propagation, with no shared code with the
library solver.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from mirrorforge.affine import AffineFunction, PolyFunction
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cover import AffCochain, analyze_obstruction, coboundary_certificate
from mirrorforge.floer_demo import (
    LinearLagrangian,
    energy_transport,
    intersections,
    local_module,
    patch_global,
    restriction_factor,
    section_window,
)
from mirrorforge.mirror_charts import MirrorPoint, path_monomial_map
from mirrorforge.novikov import NovikovScalar
from mirrorforge.twisted_sheaves import (
    canonical_twisted_module,
    fiber_cohomology,
    global_sections,
    stabilisation_threshold,
    validate_module,
)

F = Fraction


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    failed = True
    try:
        yield
        if budget is not None:
            elapsed = time.perf_counter() - start
            assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"
        failed = False
    finally:
        stamp = f"{time.perf_counter() - start:.2f}s"
        if budget is not None:
            stamp += f", budget {budget:.0f}s"
        verdict = "FAIL" if failed else "PASS"
        print(f"criterion {number} ({label}): {verdict} [{stamp}]")


# -- random generators ---------------------------------------------------


def random_exact(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exponent = F(rng.randint(-6, 12), rng.randint(1, 4))
        terms[exponent] = F(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)))
    return NovikovScalar(sorted(terms.items()), None)


def random_invertible(rng):
    lead = F(rng.randint(-4, 4), rng.randint(1, 3))
    terms = {lead: F(rng.choice((-2, -1, 1, 2, 3)))}
    for _ in range(rng.randint(0, 2)):
        exponent = lead + F(rng.randint(1, 6), rng.randint(1, 3))
        terms.setdefault(exponent, F(rng.randint(1, 5)))
    if len(terms) == 1 and rng.random() < 0.5:
        return NovikovScalar(sorted(terms.items()), None)
    return NovikovScalar(sorted(terms.items()), lead + F(rng.randint(4, 9)))


def random_cochain(cover, degree, rng, span=4):
    values = {}
    n = cover.dimension
    for face in cover.faces_of_degree(degree):
        linear = tuple(rng.randrange(-span, span + 1) for _ in range(n))
        constant = F(rng.randrange(-8, 9), rng.randrange(1, 5))
        values[face] = AffineFunction(linear, constant)
    return AffCochain(cover, degree, values)


# -- criteria 1 to 4 -----------------------------------------------------


def test_criterion_1_scalar_arithmetic_axioms():
    rng = random.Random(101)
    with criterion(1, "valuation axioms and inverse round-trips", budget=5.0):
        one = NovikovScalar.one()
        for _ in range(500):
            a = random_exact(rng)
            b = random_exact(rng)
            assert (a * b).valuation() == a.valuation() + b.valuation()
            total = a + b
            floor = min(a.valuation(), b.valuation())
            assert total.valuation() >= floor
            if a.valuation() != b.valuation():
                assert total.valuation() == floor
            c = random_invertible(rng)
            diff = c * c.inverse() - one
            if diff.cutoff is None:
                assert not diff.terms
            else:
                assert diff.is_zero_at(diff.cutoff)


def test_criterion_2_cech_engine():
    rng = random.Random(202)
    with criterion(
        2,
        "d^2 = 0, obstruction cochains closed, certificates recovered",
        budget=10.0,
    ):
        for name in catalog_ids():
            fibration = load_catalog(name)
            cover = fibration.cover
            for _ in range(100):
                cochain = random_cochain(cover, rng.choice((0, 1)), rng)
                assert cochain.differential().differential().is_zero()
            assert fibration.obstruction_cocycle().differential().is_zero()
            for _ in range(100):
                beta = random_cochain(cover, 1, rng)
                alpha = beta.differential()
                certificate = coboundary_certificate(alpha)
                assert certificate is not None
                assert certificate.differential() == alpha


def test_criterion_3_obstruction_verdicts():
    with criterion(
        3,
        "quadratic wrap cover obstructed, translation covers not",
        budget=5.0,
    ):
        twisted = analyze_obstruction(load_catalog("thurston-f1"))
        assert not twisted.is_trivial
        assert twisted.certificate is None
        assert not twisted.lattice_image_vanishes
        for name in ("split-torus-2", "split-torus-4"):
            plain = analyze_obstruction(load_catalog(name))
            assert plain.is_trivial
            assert plain.certificate is not None
            assert plain.lattice_image_vanishes


def test_criterion_4_shear_cover_loop_automorphisms():
    with criterion(4, "both deck-loop monomial maps, bit exact"):
        cover = load_catalog("thurston-f2").cover
        plain = path_monomial_map(cover, [0, 3, 6, 0])
        assert plain.apply_exponent((1, 0)) == ((1, 0), F(1))
        assert plain.apply_exponent((0, 1)) == ((0, 1), F(0))
        sheared = path_monomial_map(cover, [0, 1, 2, 0])
        assert sheared.apply_exponent((0, 1)) == ((0, 1), F(1))
        assert sheared.apply_exponent((1, 0)) == ((1, 1), F(0))
        assert sheared.describe() == ["z1 -> z1*z2", "z2 -> T^(1) * z2"]


# -- criterion 5 oracle --------------------------------------------------


def single_monomial(element):
    ((exponent,), coeff), = element.terms.items()
    ((texp, unit),) = coeff.terms
    return exponent, texp, unit


def edge_data(module):
    """Diagonal monomial data of every edge: basepoints, overlap
    vertices, and per sheet the (z-exponent, t-exponent, coefficient)
    triple of each side's restriction entry."""
    cover = module.cover
    assert cover.dimension == 1
    rels = []
    for edge in sorted(cover.faces_of_degree(1)):
        chart = cover.face_chart(edge)
        verts = [v[0] for v in chart.polytope.vertices]
        sides = []
        for s in edge:
            mat = module.restriction((s,), edge)
            for j in range(module.rank):
                for jj in range(module.rank):
                    if jj != j:
                        assert not mat[j][jj].terms
            t_shift = (
                cover.transition(edge[0], s).apply(chart.basepoint)[0]
                - cover.face_chart((s,)).basepoint[0]
            )
            entries = [single_monomial(mat[j][j]) for j in range(module.rank)]
            sides.append((s, t_shift, entries))
        rels.append((chart.basepoint[0], verts, sides))
    return rels


def brute_force_section_count(module, precision, window=8):
    """Count section lines by direct lattice propagation.

    Unknowns are rational coefficients at cells (chart, sheet, tower
    index m, valuation d/denom).  Every edge equation couples exactly
    two cells, so the system is a graph: singleton equations kill
    cells, kills cascade through pairs, and each surviving connected
    component is one projective solution line.  A line counts when it
    is internally consistent and touches valuation zero; components
    grounded strictly above zero are t-multiples of other lines.
    """
    rels = edge_data(module)
    rank = module.rank
    denom = 1
    for _, _, sides in rels:
        for _, ts, entries in sides:
            denom = math.lcm(denom, ts.denominator)
            for _, texp, _ in entries:
                denom = math.lcm(denom, texp.denominator)

    max_threshold = F(0)
    headroom = F(0)
    for q_edge, verts, sides in rels:
        span = [v - q_edge for v in verts]
        for n in range(-window - 1, window + 2):
            max_threshold = max(max_threshold, precision - min(n * s for s in span))
        for _, ts, entries in sides:
            for _, texp, _ in entries:
                for m in (-window, window):
                    headroom = max(headroom, -(m * ts + texp))
    top = max_threshold + max(headroom, F(0))
    top_d = math.ceil(top * denom)
    # a counted tower must fit well inside the index window; checked
    # again per component below
    assert F((window - 2) ** 2, 2) >= top

    rows = []
    grounded_cover = set()
    for q_edge, verts, sides in rels:
        span = [v - q_edge for v in verts]
        (a, ta, ents_a), (b, tb, ents_b) = sides
        for j in range(rank):
            wa, va, ca = ents_a[j]
            wb, vb, cb = ents_b[j]
            for n in range(-window - 1, window + 2):
                threshold = precision - min(n * s for s in span)
                m_a, m_b = n - wa, n - wb
                sa = (m_a * ta + va) * denom
                sb = (m_b * tb + vb) * denom
                assert sa.denominator == 1 and sb.denominator == 1
                sa_d, sb_d = int(sa), int(sb)
                a_ok = abs(m_a) <= window
                b_ok = abs(m_b) <= window
                if not a_ok and not b_ok:
                    continue
                for mu_d in range(min(sa_d, sb_d), max(sa_d, sb_d) + top_d):
                    if F(mu_d, denom) >= threshold:
                        continue
                    row = []
                    da = mu_d - sa_d
                    if a_ok and 0 <= da < top_d:
                        row.append(((a, j, m_a, da), ca))
                        if da == 0:
                            grounded_cover.add((a, j, m_a))
                    db = mu_d - sb_d
                    if b_ok and 0 <= db < top_d:
                        row.append(((b, j, m_b, db), -cb))
                        if db == 0:
                            grounded_cover.add((b, j, m_b))
                    if row:
                        rows.append(row)
    # every valuation-zero cell must carry at least one equation, or a
    # free cell could masquerade as a section line
    charts = len(module.cover.chart_ids)
    assert len(grounded_cover) == charts * rank * (2 * window + 1)

    live = {}
    touching = {}
    for rid, row in enumerate(rows):
        live[rid] = dict(row)
        for cell, _ in row:
            touching.setdefault(cell, set()).add(rid)

    killed = set()
    stack = []
    for rid in list(live):
        if len(live[rid]) == 1:
            (cell,) = live.pop(rid)
            stack.append(cell)
    while stack:
        cell = stack.pop()
        if cell in killed:
            continue
        killed.add(cell)
        for rid in touching.get(cell, ()):
            row = live.get(rid)
            if row is None:
                continue
            row.pop(cell, None)
            if len(row) == 1:
                (other,) = row
                stack.append(other)
                del live[rid]
            elif not row:
                del live[rid]

    graph = {}
    for row in live.values():
        (x, cx), (y, cy) = row.items()
        graph.setdefault(x, []).append((y, cx, cy))
        graph.setdefault(y, []).append((x, cy, cx))
    cells = (set(touching) - killed) | set(graph)

    count = 0
    seen = set()
    for root in cells:
        if root in seen:
            continue
        seen.add(root)
        values = {root: F(1)}
        component = []
        consistent = True
        frontier = [root]
        while frontier:
            x = frontier.pop()
            component.append(x)
            for y, cx, cy in graph.get(x, ()):
                forced = -values[x] * cx / cy
                if y in values:
                    consistent = consistent and values[y] == forced
                else:
                    values[y] = forced
                    seen.add(y)
                    frontier.append(y)
        if not consistent:
            continue
        if min(cell[3] for cell in component) == 0:
            assert max(abs(cell[2]) for cell in component) <= window - 2
            count += 1
    return count


def test_criterion_5_elliptic_section_ranks():
    with criterion(
        5,
        "section ranks match the lattice oracle and intersection counts",
        budget=60.0,
    ):
        fibration = load_catalog("elliptic-demo")
        cover = fibration.cover
        precision = F(10)
        # (rank, window, stabilisation threshold) per slope: ranks and
        # thresholds as reported when every integer precision was solved
        # from scratch, windows the certified radius section_window(line, 10)
        pinned = {
            1: (1, 6, 1),
            2: (2, 7, 1),
            3: (3, 7, 1),
            -1: (0, 6, 1),
            -2: (0, 7, 1),
        }
        for slope in (1, 2, 3, -1, -2):
            line = LinearLagrangian(slope)
            expected = max(slope, 0)
            module = patch_global(line, fibration)
            window = section_window(line, precision)
            space = global_sections(
                module, precision, max_window=window + 2, min_window=window
            )
            assert space.rank == expected, (slope, space.rank)
            threshold = stabilisation_threshold(
                module, precision, max_window=window + 2, min_window=window
            )
            assert (space.rank, space.window, threshold) == pinned[slope]
            assert brute_force_section_count(module, precision) == expected
            for i in range(len(cover.chart_ids)):
                q = cover.face_chart((i,)).basepoint[0]
                assert len(intersections(line, q)) == abs(slope)


# -- criteria 6 to 8 -----------------------------------------------------


def test_criterion_6_validator_accepts_and_rejects():
    rng = random.Random(606)
    with criterion(
        6,
        "validator accepts real modules, rejects t-scaled entries",
        budget=10.0,
    ):
        precision = F(10)
        for name in ("elliptic-demo", "split-torus-2"):
            fibration = load_catalog(name)
            for slope in (1, 2, 3, -1, -2):
                module = patch_global(LinearLagrangian(slope), fibration)
                assert validate_module(module, precision).ok
        for name in catalog_ids():
            fibration = load_catalog(name)
            if analyze_obstruction(fibration).is_trivial:
                assert validate_module(
                    canonical_twisted_module(fibration), precision
                ).ok
        torus = canonical_twisted_module(load_catalog("split-torus-4"))
        pairs = sorted(torus.pairs)
        t = NovikovScalar.monomial(1, 1)
        for _ in range(100):
            low, top = pairs[rng.randrange(len(pairs))]
            bad = torus.with_entry(
                low, top, 0, 0, torus.restriction(low, top)[0][0] * t
            )
            assert not validate_module(bad, 3, stop_early=True).ok


def test_criterion_7_energy_transport_telescopes():
    rng = random.Random(707)
    with criterion(7, "transport identity and restriction factors telescope"):
        for _ in range(500):
            g_x = PolyFunction(
                1,
                {(2,): F(rng.randint(-4, 4), 2), (1,): F(rng.randint(-6, 6), 4)},
            )
            g_y = PolyFunction(
                1,
                {(2,): F(rng.randint(-4, 4), 2), (1,): F(rng.randint(-6, 6), 4)},
            )
            energy = F(rng.randint(0, 40), 8)
            boundary = rng.randint(-5, 5)
            q, p, r = (F(rng.randint(-12, 12), 6) for _ in range(3))
            step = energy_transport(energy, boundary, q, p, g_x, g_y)
            twice = energy_transport(step, boundary, p, r, g_x, g_y)
            assert twice == energy_transport(energy, boundary, q, r, g_x, g_y)
            factor = restriction_factor(g_x, q, p) * restriction_factor(g_x, p, r)
            assert factor == restriction_factor(g_x, q, r)


def test_criterion_8_fiber_ranks_match_sheet_counts():
    rng = random.Random(808)
    with criterion(8, "fibre cohomology rank equals the sheet count in degree zero"):
        fibration = load_catalog("elliptic-demo")
        cover = fibration.cover
        for slope in (1, 3, -2):
            line = LinearLagrangian(slope)
            for i in range(len(cover.chart_ids)):
                chart = cover.face_chart((i,))
                complex_ = local_module(line, cover, i).complex()
                generators = intersections(line, chart.basepoint[0])
                assert len(generators) == abs(slope)
                low = chart.polytope.vertices[0][0]
                high = chart.polytope.vertices[-1][0]
                for _ in range(10):
                    position = (low + F(rng.randint(1, 15), 16) * (high - low),)
                    unit = (
                        F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)),
                    )
                    point = MirrorPoint(position, unit)
                    ranks = fiber_cohomology(complex_, point, F(10))
                    assert ranks == {0: abs(slope)}
