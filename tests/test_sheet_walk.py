"""The section walk, one sheet at a time, against the walk it replaced.

The library walks the section system of each sheet on its own and
keeps the survivors on ints, with their sheet.  The replaced walk, kept
here as the reference, walked every sheet in one graph and returned
Fraction-keyed vectors; the two must give the same vectors, in the same
key order, and the same assembled sections, on perturbed lines, torus
modules and lines up to slope 800.  Each sheet's survivors are counted
against its tower from ``loop_monodromy``, and the walk may hold no more
memory while it runs than twice what the returned space keeps.
"""

import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add

import pytest

from mirrorforge.affine import dot
from mirrorforge.floer_demo import LinearLagrangian, patch_global
from mirrorforge.mirror_charts import AffinoidElement
from mirrorforge.novikov import NovikovScalar
from mirrorforge.twisted_sheaves import (
    _assemble_sections,
    _edge_monomials,
    _ratio,
    _walk_window,
    _window_exponents,
    _zero_on,
    global_sections,
    loop_monodromy,
    section_radius,
)
from test_section_solver import (
    CIRCLES,
    TORUS_MODULES,
    doubled_torus,
    perturbed_line_modules,
    walk_at,
)

F = Fraction
PERTURBED_PRECISIONS = (F(1, 2), F(1), F(3, 2), F(2), F(3), F(6))
OFFSETS = (F(0), F(1, 3), F(2, 7))


# -- the replaced walk, kept as the reference ----------------------------------


def reference_walk(module, monomials, radius, precision):
    """The walk as it was before it ran sheet by sheet: every sheet in
    one graph, nodes keyed by (n * rank + sheet, lam) for lam in [0,
    top), and each survivor returned as a {(source, Fraction lam):
    value} dict."""
    cover = module.cover
    rank = module.rank
    exponents = _window_exponents(cover.dimension, radius)
    charts = sorted({i for i, _ in monomials})
    sources = list(product(charts, exponents, range(rank)))
    d, corners, sides = cover.edge_sides
    scale = lcm(
        d,
        precision.denominator,
        *(v.denominator for sheets in monomials.values() for _, v, _ in sheets),
    )
    up = scale // d
    feeds = {}
    for (edge, i), (sign, mt, offset) in sides.items():
        base = [x * up for x in offset]
        sheets = []
        for b, v, c in monomials[(i, edge)]:
            c = c.numerator if c.denominator == 1 else c
            sheets.append((b, v.numerator * (scale // v.denominator), sign * c))
        first = charts.index(i) * len(exponents)
        for n, a in enumerate(exponents, first):
            moved = [dot(row, a) for row in mt]
            lift = dot(a, base)
            for j, (b, v, c) in enumerate(sheets):
                target = (edge, tuple(map(add, moved, b)), j)
                feeds.setdefault(target, []).append((n * rank + j, lift + v, c))
    # per source, each equation as (limit on mu, shift, the other
    # unknown's source and shift or None, -c / c'); the limit depends on
    # the edge coefficient's exponent alone, so each (edge, cexp) takes
    # its corner minimum once for all sheets
    bound = precision.numerator * (scale // precision.denominator)
    floors = {}
    arcs = [[] for _ in sources]
    limits = []
    for (edge, cexp, _), ends in feeds.items():
        limit = floors.get((edge, cexp))
        if limit is None:
            limit = floors[(edge, cexp)] = bound - up * min(
                dot(v, cexp) for v in corners[edge]
            )
        limits.append(limit)
        if len(ends) == 1:
            ((s, shift, _),) = ends
            arcs[s].append((limit, shift, None, 0, 0))
        else:
            (s, shift, c), (s2, shift2, c2) = ends
            arcs[s].append((limit, shift, s2, shift2, _ratio(c, c2)))
            arcs[s2].append((limit, shift2, s, shift, _ratio(c2, c)))
    headroom = max((-shift for ends in feeds.values() for _, shift, _ in ends), default=0)
    top = max(limits, default=bound) + max(headroom, 0)
    values = {}  # a dead node holds None
    survivors = []
    for seed in range(len(sources)):
        if (seed, 0) in values:
            continue
        values[(seed, 0)] = 1
        component = [(seed, 0)]
        for source, lam in component:
            x = values[(source, lam)]
            for limit, shift, other, shift2, ratio in arcs[source]:
                mu = lam + shift
                if mu >= limit:
                    continue
                node = (other, mu - shift2)
                if node not in values and other is not None and 0 <= node[1] < top:
                    values[node] = x * ratio
                    component.append(node)
                elif values.get(node) != x * ratio:
                    break  # pinned, off [0, top), dead, or a second value
            else:
                continue
            values.update(dict.fromkeys(component))  # the component dies
            break
        else:
            survivors.append(sorted(component, reverse=True))
    vectors = []
    for nodes in sorted(survivors):
        unit = _ratio(-1, values[nodes[0]])  # 1 over the largest node's value
        vectors.append(
            {(sources[s], Fraction(lam, scale)): values[s, lam] * unit for s, lam in nodes}
        )
    return vectors


def reference_assemble(module, vectors):
    # each vector holds each (source, lam) once, with a nonzero value, so
    # a slot's terms sorted by lam are a scalar's normal form; every
    # chart's slots start as one shared zero element, and the elements
    # are built trusted on int exponents
    cover = module.cover
    charts = range(len(cover.chart_ids))
    basepoints = [cover.face_chart((i,)).basepoint for i in charts]
    zeros = [_zero_on(cover, (i,)) for i in charts]
    sections = []
    for vector in vectors:
        slots = {}
        for ((i, a, col), lam), c in vector.items():
            slots.setdefault((i, col), {}).setdefault(a, []).append((lam, Fraction(c)))
        columns = [[zero] * module.rank for zero in zeros]
        for (i, col), terms in slots.items():
            scalars = {
                a: NovikovScalar._trusted(tuple(sorted(pairs)), None)
                for a, pairs in terms.items()
            }
            columns[i][col] = AffinoidElement._trusted(cover, (i,), basepoints[i], scalars)
        sections.append({i: tuple(columns[i]) for i in charts})
    return tuple(sections)


# -- the walk against the reference -------------------------------------------


def assert_walk_matches_the_reference(module, radius, precision, assemble=True):
    monomials = _edge_monomials(module)
    reference = reference_walk(module, monomials, radius, precision)
    walked = walk_at(module, radius, precision)
    assert walked == reference
    assert [list(vector) for vector in walked] == [list(vector) for vector in reference]
    if assemble:
        scale, survivors = _walk_window(module, monomials, radius, precision)
        assembled = _assemble_sections(module, scale, survivors)
        assert assembled == reference_assemble(module, reference)


def test_perturbed_lines_walk_as_the_reference():
    for module in perturbed_line_modules():
        for precision in PERTURBED_PRECISIONS:
            radius = section_radius(module, precision)
            for window in (radius, radius + 2, radius + 5):
                assert_walk_matches_the_reference(module, window, precision)


def test_torus_modules_walk_as_the_reference():
    for module in [*TORUS_MODULES.values(), doubled_torus()]:
        for precision in (F(1, 2), F(1), F(4)):
            for radius in (0, 1, 2):
                assert_walk_matches_the_reference(module, radius, precision)


@pytest.mark.parametrize("name", sorted(CIRCLES))
@pytest.mark.parametrize("slope", [*range(-9, 0), *range(1, 10), 100, -100, 800])
def test_lines_walk_as_the_reference(name, slope):
    for offset in OFFSETS:
        module = patch_global(LinearLagrangian(slope, offset), CIRCLES[name])
        for precision in (F(1, 2), F(10)) if abs(slope) < 10 else (F(10),):
            radius = section_radius(module, precision)
            # k sections of k entries per chart: at slope 800 that is
            # about 2 million entries to compare, for the same assembly
            # that slope 100 already checks
            assemble = abs(slope) <= 100
            assert_walk_matches_the_reference(module, radius, precision, assemble)


# -- survivors per sheet against the towers ------------------------------------


def survivors_per_sheet(module, precision):
    radius = section_radius(module, precision)
    _, survivors = _walk_window(module, _edge_monomials(module), radius, precision)
    counts = [0] * module.rank
    for j, _ in survivors:
        counts[j] += 1
    return counts


def towers_per_sheet(module):
    """Each sheet's |shift| when its tower rises around the loop, 0 when
    it falls."""
    return [
        abs(sheet.shift) if sheet.weight / sheet.shift > 0 else 0
        for sheet in loop_monodromy(module)
    ]


def test_perturbed_lines_keep_one_survivor_per_tower_step_on_each_sheet():
    modules = perturbed_line_modules()
    assert len(modules) == 66
    for n, module in enumerate(modules):
        assert survivors_per_sheet(module, F(6)) == towers_per_sheet(module), n


@pytest.mark.parametrize("name", sorted(CIRCLES))
@pytest.mark.parametrize("slope", [*range(-9, 0), *range(1, 10)])
def test_lines_keep_one_survivor_per_rising_sheet(name, slope):
    for offset in (F(0), F(1, 4), F(1, 2), F(3, 4)):
        module = patch_global(LinearLagrangian(slope, offset), CIRCLES[name])
        expected = [1 if slope > 0 else 0] * abs(slope)
        assert towers_per_sheet(module) == expected
        for precision in (F(1, 2), F(1), F(6)):
            assert survivors_per_sheet(module, precision) == expected


# -- memory --------------------------------------------------------------------


def test_the_walk_holds_one_sheet_at_a_time():
    # walking every sheet in one graph kept all their nodes alive at
    # once: a peak of about 42 MB here against 6 MB held by the space
    module = patch_global(LinearLagrangian(800), CIRCLES["elliptic-demo"])
    section_radius(module, 10)  # the cover's cached tables, built outside the count
    tracemalloc.start()
    try:
        space = global_sections(module, 10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.rank == 800
    assert peak <= 2 * held, f"peak {peak} against {held} held"
