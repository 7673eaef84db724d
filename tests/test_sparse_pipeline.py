"""The section pipeline on ints and sparse data against the path it replaced.

The library walks the section system on integer shifts over one scale,
keeps every node's valuation a scaled int, reads only the kernel vectors
that meet a valuation-zero node off the components of the system's
graph, takes each of them as a section and builds the section and
restriction entries through the trusted constructor.  The path before
that is kept here as the reference: the hop table summed on Fractions,
the system labelled by (source, Fraction lam) columns, the full kernel
of every leading block of rows asserted below an integer precision, by
the sparse echelon elimination the library used to run, filtered to its
ground vectors, with the rank at that precision collapsed from them,
the collapse through dense rows, and every element built through the
checked constructor.  The walk's vectors must equal the ground vectors
of the whole system, in order.  On these modules the rank of each block equals
the library's rank modulo t^p of the sections.  Section spaces and
modules must come out equal, and the count guards keep the k^2 walks
and the per-monomial restrictions from coming back.
"""

from bisect import bisect_left
from collections import deque
from fractions import Fraction
from math import lcm

import pytest

from mirrorforge import twisted_sheaves
from mirrorforge.affine import dot
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cover import coboundary_certificate
from mirrorforge.floer_demo import (
    LinearLagrangian,
    _edge_wrap,
    chart_offsets,
    local_floer_data,
    patch_global,
    section_window,
)
from mirrorforge.intlinalg import _back_substitute, _reduce, _store_pivot
from mirrorforge.mirror_charts import AffinoidElement
from mirrorforge.novikov import NovikovMatrix, NovikovScalar
from mirrorforge.twisted_sheaves import (
    TwistedModule,
    _window_exponents,
    canonical_twisted_module,
    global_sections,
)
from test_section_solver import walk_at

F = Fraction
CIRCLES = ("elliptic-demo", "split-torus-2")
SLOPES = (1, -1, 2, -2, 3, 5, -7, 12)
PRECISIONS = (F(1, 2), F(1), F(2), F(7, 2), F(6))
OFFSETS = (F(0), F(3, 7), F(-5, 3))


# -- the replaced path, kept as the reference ----------------------------------


def reference_hop_table(module, radius):
    cover = module.cover
    rank = module.rank
    n = cover.dimension
    exponents = _window_exponents(n, radius)
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    moves = {}
    targets = {}
    for edge in cover.faces_of_degree(1):
        for sign, i in ((1, edge[0]), (-1, edge[1])):
            mat = module.restriction((i,), edge)
            images = []
            for unit in units:
                restricted = AffinoidElement.monomial(cover, (i,), 1, unit).restrict(
                    edge
                )
                ((moved, anchor),) = restricted.terms.items()
                ((base, _),) = anchor.terms
                images.append((moved, base))
            entries = [
                [
                    [
                        (b, texp, sign * (int(c) if c.denominator == 1 else c))
                        for b, coeff in mat[r][col].terms.items()
                        for texp, c in coeff.terms
                    ]
                    for col in range(rank)
                ]
                for r in range(rank)
            ]
            for a in exponents:
                moved = tuple(
                    sum(x * image[d] for x, (image, _) in zip(a, images))
                    for d in range(n)
                )
                base = sum(x * b for x, (_, b) in zip(a, images))
                for r in range(rank):
                    for col in range(rank):
                        source = (i, a, col)
                        for b, texp, c in entries[r][col]:
                            target = (
                                edge,
                                tuple(x + y for x, y in zip(moved, b)),
                                r,
                            )
                            shift = base + texp
                            moves.setdefault(source, []).append((target, shift, c))
                            targets.setdefault(target, []).append((source, shift, c))
    return moves, targets


def reference_monomial_system(module, radius, precision):
    """(columns as (source, Fraction lam), rows, appears, scale)."""
    cover = module.cover
    moves, targets = reference_hop_table(module, radius)
    sources = sorted(moves)
    target_list = sorted(targets)
    offsets = {}
    for edge in cover.faces_of_degree(1):
        chart = cover.face_chart(edge)
        offsets[edge] = [
            tuple(x - y for x, y in zip(v, chart.basepoint))
            for v in chart.polytope.vertices
        ]
    scale = lcm(
        precision.denominator,
        *(x.denominator for vs in offsets.values() for v in vs for x in v),
        *(shift.denominator for hops in moves.values() for _, shift, _ in hops),
    )

    def scaled(x):
        return x.numerator * (scale // x.denominator)

    for edge, vs in offsets.items():
        offsets[edge] = [tuple(scaled(x) for x in v) for v in vs]
    weight = [
        min(dot(v, cexp) for v in offsets[edge]) for edge, cexp, _ in target_list
    ]
    threshold = [scaled(precision) - w for w in weight]
    source_ids = {source: n for n, source in enumerate(sources)}
    target_ids = {target: n for n, target in enumerate(target_list)}
    hops = [
        [(target_ids[t], scaled(shift), c) for t, shift, c in moves[source]]
        for source in sources
    ]
    feeds = [
        [(source_ids[s], scaled(shift)) for s, shift, _ in targets[target]]
        for target in target_list
    ]
    headroom = max((-shift for out in hops for _, shift, _ in out), default=0)
    top = max(threshold, default=scaled(precision)) + max(headroom, 0)
    nodes = {(source, 0) for source in range(len(hops))}
    queue = deque(sorted(nodes))
    while queue:
        source, lam = queue.popleft()
        for target, shift, _ in hops[source]:
            mu = lam + shift
            if mu >= threshold[target]:
                continue
            for other, shift2 in feeds[target]:
                lam2 = mu - shift2
                if 0 <= lam2 < top:
                    node = (other, lam2)
                    if node not in nodes:
                        nodes.add(node)
                        queue.append(node)
    ordered = sorted(nodes)
    index = {node: n for n, node in enumerate(ordered)}
    rows = {}
    for node in ordered:
        source, lam = node
        column = index[node]
        for target, shift, c in hops[source]:
            mu = lam + shift
            if mu >= threshold[target]:
                continue
            row = rows.setdefault((mu + weight[target], target, mu), {})
            value = row.get(column)
            value = c if value is None else value + c
            if value:
                row[column] = value
            else:
                del row[column]
    keys = sorted(key for key, row in rows.items() if row)
    columns = [(sources[s], Fraction(lam, scale)) for s, lam in ordered]
    return columns, [rows[key] for key in keys], [key[0] for key in keys], scale


def reference_kernel(rows, n_columns):
    """Right kernel of the rows, one vector per free column, in column
    order: each row reduced by the stored pivot rows and stored at its
    lowest column left, the stored rows back-substituted into reduced
    row echelon form, and each free column's vector read off them."""
    pivots = {}
    for raw in rows:
        row = dict(raw)
        lead = _reduce(row, pivots)
        if lead is not None:
            _store_pivot(pivots, row, lead)
    reduced = _back_substitute(pivots)
    basis = {c: {c: F(1)} for c in range(n_columns) if c not in pivots}
    for lead, row in reduced.items():
        for column, value in row.items():
            basis[column][lead] = -value
    return list(basis.values())


def reference_solve_window(module, radius, precision):
    columns, rows, appears, scale = reference_monomial_system(
        module, radius, precision
    )
    cuts = [bisect_left(appears, p * scale) for p in range(1, int(precision) + 1)]
    cuts.append(len(rows))
    ground = {c for c, (_, lam) in enumerate(columns) if not lam}
    return [
        [
            {columns[c]: v for c, v in vector.items()}
            for vector in reference_kernel(rows[:cut], len(columns))
            if not ground.isdisjoint(vector)
        ]
        for cut in cuts
    ]


def reference_collapse(basis, precision, choose=True):
    grouped = []
    for vector in basis:
        slots = {}
        for (source, lam), c in vector.items():
            slots.setdefault(source, []).append((lam, Fraction(c)))
        grouped.append(
            {
                source: NovikovScalar._collect(pairs, None)
                for source, pairs in slots.items()
            }
        )
    support = sorted({source for g in grouped for source in g})
    if not grouped or not support:
        return 0, []
    position = {source: j for j, source in enumerate(support)}
    rows = []
    for g in grouped:
        row = [NovikovScalar.zero()] * len(support)
        for source, value in g.items():
            row[position[source]] = value
        rows.append(row)
    rank = NovikovMatrix(rows).rank_at_precision(precision)
    # the prefix loop: a row is chosen when it raises the rank of the
    # rows chosen before it
    chosen = []
    for index in range(len(rows) if choose else 0):
        if len(chosen) == rank:
            break
        trial = NovikovMatrix([rows[i] for i in chosen] + [rows[index]])
        if trial.rank_at_precision(precision) > len(chosen):
            chosen.append(index)
    return rank, [grouped[i] for i in chosen]


def reference_assemble_sections(module, chosen):
    cover = module.cover
    sections = []
    for g in chosen:
        per_chart = {
            i: [dict() for _ in range(module.rank)]
            for i in range(len(cover.chart_ids))
        }
        for (i, a, col), value in g.items():
            slot = per_chart[i][col]
            slot[a] = slot.get(a, NovikovScalar.zero()) + value
        sections.append(
            {
                i: tuple(AffinoidElement(cover, (i,), slot) for slot in slots)
                for i, slots in per_chart.items()
            }
        )
    return tuple(sections)


def reference_global_sections(module, precision, radius):
    """The section space's (rank, precision, window, sections), its
    ranks from the rows asserted below each integer precision, and the
    ground vectors of the whole system."""
    *lower, ground = reference_solve_window(module, radius, precision)
    rank, chosen = reference_collapse(ground, precision)
    ranks = tuple(
        rank if p == precision else reference_collapse(g, F(p), choose=False)[0]
        for p, g in enumerate(lower, 1)
    )
    space = (rank, precision, radius, reference_assemble_sections(module, chosen))
    return space, ranks, ground


def reference_patch_global(lagrangian, fibration):
    cover = fibration.cover
    offsets = chart_offsets(cover)
    k = lagrangian.slope
    sigma = 1 if k > 0 else -1
    count = abs(k)
    data = {
        i: local_floer_data(lagrangian, cover, i)
        for i in range(len(cover.chart_ids))
    }
    restrictions = {}
    for low, top in cover.nested_pairs:
        (member,) = low
        _, spot = cover.restriction_moves[(top, member)]
        wrap = _edge_wrap(cover, offsets, top, member)
        matrix = []
        for r in range(count):
            row = []
            for c in range(count):
                if r != c:
                    row.append(AffinoidElement(cover, top))
                    continue
                g = data[member].primitives[r]
                coeff = NovikovScalar.monomial(1, -g.evaluate(spot))
                row.append(
                    AffinoidElement.monomial(cover, top, coeff, (-sigma * wrap,))
                )
            matrix.append(tuple(row))
        restrictions[(low, top)] = tuple(matrix)
    return TwistedModule(fibration, count, restrictions)


# -- equal section spaces ------------------------------------------------------


@pytest.mark.parametrize("name", CIRCLES)
@pytest.mark.parametrize("slope", SLOPES)
def test_line_sections_match_the_replaced_path(name, slope):
    fibration = load_catalog(name)
    for offset in OFFSETS:
        line = LinearLagrangian(slope, offset)
        module = patch_global(line, fibration)
        reference = reference_patch_global(line, fibration)
        for low, top in module.pairs:
            assert module.restriction(low, top) == reference.restriction(low, top)
        for precision in PRECISIONS:
            space = global_sections(module, precision)
            assert space.window == section_window(line, precision)
            reference, ranks, ground = reference_global_sections(
                module, precision, space.window
            )
            assert walk_at(module, space.window, precision) == ground
            assert (space.rank, space.precision, space.window, space.sections) == reference
            assert space.ranks == ranks
            assert space.rank == max(slope, 0)


def trivial_catalogs():
    return [
        name
        for name in catalog_ids()
        if coboundary_certificate(load_catalog(name).obstruction_cocycle())
        is not None
    ]


def test_four_catalogs_are_trivial():
    assert len(trivial_catalogs()) == 4


@pytest.mark.parametrize("name", trivial_catalogs())
def test_canonical_sections_match_the_replaced_path(name):
    module = canonical_twisted_module(load_catalog(name))
    for precision in (F(1, 2), F(4), F(9, 2)):
        space = global_sections(module, precision)
        assert space.window == 0
        reference, ranks, ground = reference_global_sections(module, precision, 0)
        assert walk_at(module, 0, precision) == ground
        assert (space.rank, space.precision, space.window, space.sections) == reference
        assert space.ranks == ranks
        assert space.rank == 1


# -- count guards --------------------------------------------------------------


def count_builds(monkeypatch):
    """Count every AffinoidElement built, checked or trusted."""
    built = []
    init, trusted = AffinoidElement.__init__, AffinoidElement._trusted.__func__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args):
        built.append(1)
        return trusted(cls, *args)

    monkeypatch.setattr(AffinoidElement, "__init__", counting_init)
    monkeypatch.setattr(AffinoidElement, "_trusted", classmethod(counting_trusted))
    return built


SLOPE = 40


def test_patch_global_builds_linearly_many_elements(monkeypatch):
    fibration = load_catalog("elliptic-demo")
    built = count_builds(monkeypatch)
    module = patch_global(LinearLagrangian(SLOPE), fibration)
    pairs = len(module.pairs)
    # one entry per sheet on every pair, where the checked build made all
    # k^2 entries; the zero of a dense restriction waits for its first read
    assert len(built) == pairs * SLOPE
    for low, top in module.pairs:
        mat = module.restriction(low, top)
        assert len({id(x) for row in mat for x in row}) == SLOPE + 1


def test_sections_are_assembled_from_linearly_many_elements(monkeypatch):
    module = patch_global(LinearLagrangian(SLOPE), load_catalog("elliptic-demo"))
    charts = len(module.cover.chart_ids)
    calls = []
    assemble = twisted_sheaves._assemble_sections

    def counted(module, scale, survivors):
        with monkeypatch.context() as patched:
            built = count_builds(patched)
            sections = assemble(module, scale, survivors)
        calls.append(len(built))
        return sections

    monkeypatch.setattr(twisted_sheaves, "_assemble_sections", counted)
    space = global_sections(module, 2)
    assert space.rank == SLOPE == len(space.sections)
    filled = sum(
        bool(x.terms)
        for section in space.sections
        for entries in section.values()
        for x in entries
    )
    # the filled slots and one zero per chart, out of k^2 slots per chart
    assert calls == [filled + charts]
    assert filled == SLOPE * charts, filled


def test_monomial_system_builds_and_restricts_no_element(monkeypatch):
    # the unit images come straight off the cover's restriction moves and
    # the sheets off the module's edge monomials
    modules = (
        ("elliptic-demo", patch_global(LinearLagrangian(SLOPE), load_catalog("elliptic-demo"))),
        ("split-torus-4", canonical_twisted_module(load_catalog("split-torus-4"))),
    )
    calls = []
    init, restrict = AffinoidElement.__init__, AffinoidElement.restrict

    def counting_init(self, *args, **kwargs):
        calls.append("__init__")
        init(self, *args, **kwargs)

    def counting_restrict(self, face):
        calls.append("restrict")
        return restrict(self, face)

    monkeypatch.setattr(AffinoidElement, "__init__", counting_init)
    monkeypatch.setattr(AffinoidElement, "restrict", counting_restrict)
    for name, module in modules:
        for radius in (1, 3):
            walk_at(module, radius, F(2))
            assert calls == [], name
    # the guard sees a call of either
    AffinoidElement.one(modules[0][1].cover, (0,)).restrict((0, 1))
    assert calls == ["__init__", "restrict"]
