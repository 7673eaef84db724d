"""Per-object tables of covers and fibrations against the code they replaced.

``Cover`` caches its face charts, nested face pairs and chains and its
certificate system, and ``FibrationData`` its twist factors, each as a
``functools.cached_property``.  The reference functions below are the
enumerations, the direct gerbe entry and the ``apply_map`` face-polytope
builder as they stood before those tables: every table must hold exactly
what they compute, be built once per object, and keep the errors of the
direct computation.
"""

import gc
import weakref
from itertools import chain, combinations

import pytest

import mirrorforge.catalog as catalog_module
import mirrorforge.cover as cover_module
from mirrorforge.affine import IntegralAffineMap, IntegralAffinePolytope
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cover import (
    Cover,
    FibrationData,
    analyze_obstruction,
    coboundary_certificate,
    face_polytopes_from_charts,
)
from mirrorforge.errors import ChartMismatchError, InvalidCoverError
from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration
from mirrorforge.mirror_charts import (
    AffinoidElement,
    exp_aff,
    gerbe_value,
    nested_triples,
    verify_gerbe,
)
from mirrorforge.twisted_sheaves import canonical_twisted_module, validate_module
from test_cech_differential import compose_with_map
from test_sparse_solver import image_inequalities

CATALOGS = catalog_ids()
TORI = ("split-torus-4", "thurston-f1", "thurston-f2")


# -- the replaced code, kept as references ----------------------------------


def reference_nested_pairs(cover):
    out = set()
    for top in cover.faces:
        if len(top) < 2:
            continue
        for size in range(1, len(top)):
            for low in combinations(top, size):
                out.add((low, top))
    return sorted(out)


def reference_nested_chains(cover):
    out = []
    for mid, top in reference_nested_pairs(cover):
        if len(mid) < 2:
            continue
        for size in range(1, len(mid)):
            for low in combinations(mid, size):
                out.append((low, mid, top))
    return sorted(out)


def _proper_subsets(face):
    return chain.from_iterable(
        combinations(face, size) for size in range(1, len(face))
    )


def reference_nested_triples(cover):
    out = []
    for top in cover.faces:
        for mid in _proper_subsets(top):
            if mid[-1] >= top[-1]:
                continue
            for low in _proper_subsets(mid):
                if low[-1] >= mid[-1]:
                    continue
                out.append((low, mid, top))
    return sorted(out)


def reference_twist_factor(fibration, low, mid, top):
    cover = fibration.cover
    finals = (low[-1], mid[-1], top[-1])
    if not finals[0] < finals[1] < finals[2]:
        return AffinoidElement.one(cover, top)
    alpha = fibration.obstruction_cocycle().value(finals)
    moved = compose_with_map(alpha, cover.transition(top[0], finals[0]))
    return exp_aff(cover, top, moved)


def apply_map(poly, phi):
    """Image polytope of poly under y = M x + tau, checked: the
    library's ``IntegralAffinePolytope.apply_map`` as it stood."""
    ineqs = image_inequalities(poly, phi, phi.inverse())
    verts = [phi.apply(v) for v in poly.vertices]
    return IntegralAffinePolytope(poly.dimension, ineqs, verts)


def reference_face_polytopes(dimension, chart_polytopes, faces, transitions):
    def phi(i, j):
        key = (min(i, j), max(i, j))
        base = transitions[key]
        return base if (i, j) == key else base.inverse()

    out = {}
    for face in faces:
        face = tuple(sorted(face))
        ineqs = list(chart_polytopes[face[0]].inequalities)
        for j in face[1:]:
            ineqs.extend(apply_map(chart_polytopes[j], phi(j, face[0])).inequalities)
        out[face] = IntegralAffinePolytope.from_inequalities(dimension, ineqs)
    return out


def fresh(name):
    """A fibration equal to the catalog entry on a cover of its own."""
    return manifest_to_fibration(fibration_to_manifest(load_catalog(name)))


def element_data(x):
    return x.face, x.basepoint, x.terms


# -- nested faces -------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOGS)
def test_nested_pairs_and_chains_match_the_enumeration(name):
    cover = load_catalog(name).cover
    assert isinstance(cover.nested_pairs, tuple)
    assert isinstance(cover.nested_chains, tuple)
    assert list(cover.nested_pairs) == reference_nested_pairs(cover)
    assert list(cover.nested_chains) == reference_nested_chains(cover)


@pytest.mark.parametrize("name", CATALOGS)
def test_nested_triples_match_the_proper_subset_enumeration(name):
    cover = load_catalog(name).cover
    assert nested_triples(cover) == reference_nested_triples(cover)


@pytest.mark.parametrize("name", TORI)
def test_ninety_of_the_torus_chains_have_strict_final_charts(name):
    cover = load_catalog(name).cover
    assert len(cover.nested_chains) == 540
    assert len(nested_triples(cover)) == 90


# -- the gerbe table ------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOGS)
def test_twist_factors_match_the_direct_gerbe_entries(name):
    fibration = load_catalog(name)
    table = fibration.twist_factors
    assert list(table) == list(fibration.cover.nested_chains)
    for chain_ in fibration.cover.nested_chains:
        expected = reference_twist_factor(fibration, *chain_)
        assert element_data(table[chain_]) == element_data(expected)


@pytest.mark.parametrize("name", CATALOGS)
def test_gerbe_value_reads_the_table(name):
    fibration = load_catalog(name)
    for low, mid, top in nested_triples(fibration.cover):
        entry = gerbe_value(fibration, list(reversed(low)), mid, top)
        assert entry is fibration.twist_factors[(low, mid, top)]


def test_obstructed_gerbe_entries_are_not_all_units():
    fibration = load_catalog("thurston-f1")
    units = [
        fibration.twist_factors[c] == AffinoidElement.one(fibration.cover, c[2])
        for c in nested_triples(fibration.cover)
    ]
    assert not all(units)


# -- face polytopes -------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOGS)
def test_face_polytopes_match_the_apply_map_builder(name):
    cover = load_catalog(name).cover
    charts = {i: cover.polytope((i,)) for i in range(len(cover.chart_ids))}
    transitions = {e: cover.transition(*e) for e in cover.faces_of_degree(1)}
    args = (cover.dimension, charts, cover.faces, transitions)
    built = face_polytopes_from_charts(*args)
    expected = reference_face_polytopes(*args)
    assert set(built) == set(expected) == set(cover.faces)
    for face, poly in built.items():
        assert poly.inequalities == expected[face].inequalities
        assert poly.vertices == expected[face].vertices
        assert poly == cover.polytope(face)


def test_face_polytope_builder_keeps_its_transition_errors():
    box = IntegralAffinePolytope.from_box([(0, 2)])
    faces = {(0,), (1,), (0, 1)}
    with pytest.raises(
        InvalidCoverError, match=r"^no transition declared for edge \(0, 1\)$"
    ):
        face_polytopes_from_charts(1, {0: box, 1: box}, faces, {})
    backwards = {(1, 0): IntegralAffineMap.identity(1)}
    message = r"^transitions must be keyed by increasing pairs, got \(1,0\)$"
    with pytest.raises(InvalidCoverError, match=message):
        face_polytopes_from_charts(1, {0: box, 1: box}, faces, backwards)
    with pytest.raises(InvalidCoverError, match=message):
        Cover(1, "ab", faces, {f: box for f in faces}, backwards)


# -- built once per object --------------------------------------------------------


def test_each_table_is_built_once_per_object():
    fibration = fresh("thurston-f1")
    cover = fibration.cover
    tables = ("_face_charts", "nested_pairs", "nested_chains", "_certificate_system")
    for name in tables:
        assert getattr(cover, name) is getattr(cover, name)
    table = fibration.twist_factors
    verify_gerbe(fibration)
    assert fibration.twist_factors is table
    module = canonical_twisted_module(fresh("split-torus-4"))
    assert module.pairs is module.cover.nested_pairs
    assert validate_module(module, 10).ok


def test_each_edge_is_inverted_once_per_load(monkeypatch):
    inverted = []
    original = IntegralAffineMap.inverse

    def counting(self):
        inverted.append(self)
        return original(self)

    texts = {name: fibration_to_manifest(load_catalog(name)) for name in CATALOGS}
    monkeypatch.setattr(IntegralAffineMap, "inverse", counting)
    for name, text in texts.items():
        inverted.clear()
        cover = manifest_to_fibration(text).cover
        assert len(inverted) == len(cover.faces_of_degree(1))
        assert cover == load_catalog(name).cover
    for build in (
        lambda: catalog_module._circle_cover(catalog_module._C4),
        lambda: catalog_module._torus_cover(catalog_module._C3, shear_wrap=True),
    ):
        inverted.clear()
        cover = build()
        assert len(inverted) == len(cover.faces_of_degree(1))
    # a cover built directly inverts its own transitions, and checks them
    loaded = load_catalog("split-torus-4").cover
    polys = {face: loaded.polytope(face) for face in loaded.faces}
    transitions = {edge: loaded.transition(*edge) for edge in loaded.faces_of_degree(1)}
    inverted.clear()
    assert Cover(2, loaded.chart_ids, loaded.faces, polys, transitions) == loaded
    assert len(inverted) == len(loaded.faces_of_degree(1))


@pytest.mark.parametrize("name", CATALOGS)
def test_a_dropped_cover_is_freed_without_the_cycle_collector(name):
    # the tables a cover caches hold no reference back to it, so a cover
    # read, analysed and checked is freed as soon as it is dropped
    text = fibration_to_manifest(load_catalog(name))
    gc.collect()
    gc.disable()
    try:
        fibration = manifest_to_fibration(text)
        if analyze_obstruction(fibration).is_trivial:
            canonical_twisted_module(fibration)
        assert verify_gerbe(fibration).holds
        cover = weakref.ref(fibration.cover)
        del fibration
        assert cover() is None
    finally:
        gc.enable()


def test_face_charts_cover_every_face():
    cover = fresh("thurston-f2").cover
    assert set(cover._face_charts) == set(cover.faces)
    for face in cover.faces:
        chart = cover.face_chart(list(reversed(face)))
        assert chart is cover._face_charts[face]
        assert chart.ambient == face[0]
        assert chart.basepoint == cover.polytope(face).lex_least_vertex()


def test_certificate_system_is_built_once_per_cover(monkeypatch):
    built = []
    original = cover_module._CertificateSystem.__init__

    def counting(self, cover):
        built.append(cover)
        original(self, cover)

    monkeypatch.setattr(cover_module._CertificateSystem, "__init__", counting)
    fibration = fresh("split-torus-4")
    alpha = fibration.obstruction_cocycle()
    report = analyze_obstruction(fibration)
    assert report.is_trivial and report.lattice_image_vanishes
    assert coboundary_certificate(alpha) is not None
    canonical_twisted_module(fibration)
    assert built == [fibration.cover]
    analyze_obstruction(fresh("split-torus-4"))
    assert len(built) == 2


# -- errors of the direct computation -----------------------------------------------


def test_non_face_chart_is_refused_with_the_face_named():
    cover = load_catalog("split-torus-4").cover
    with pytest.raises(ChartMismatchError, match=r"^\{0,0,0,1,0,2\} is not a face$"):
        cover.face_chart((2, 0, 1))
    with pytest.raises(ChartMismatchError, match=r"^\{0,2\} is not a face$"):
        load_catalog("split-torus-2").cover.face_chart((0, 2))


def test_gerbe_value_on_a_non_face_top_fails_like_the_direct_computation():
    fibration = load_catalog("split-torus-4")
    with pytest.raises(ChartMismatchError, match=r"^\{0,0,0,1,0,2\} is not a face$"):
        gerbe_value(fibration, (0,), (0, 1), (0, 1, 2))
    with pytest.raises(ChartMismatchError, match=r"^\{0,0,1,1,2,2\} is not a face$"):
        gerbe_value(fibration, (0,), (0, 4), (0, 4, 8))
    message = "^gerbe entries need strictly increasing final charts$"
    with pytest.raises(ChartMismatchError, match=message):
        gerbe_value(fibration, (1,), (1, 2), (0, 1, 2))
    # a path of five intervals: the top's least chart and the chain's
    # first final chart share no edge, which the direct computation met
    # before it looked the face up
    box = IntegralAffinePolytope.from_box
    polys = {(i,): box([(i, i + 2)]) for i in range(5)}
    edges = {(i, i + 1): box([(i + 1, i + 2)]) for i in range(4)}
    polys.update(edges)
    identity = IntegralAffineMap.identity(1)
    path = Cover(1, "abcde", polys, polys, dict.fromkeys(edges, identity))
    fibration = FibrationData(path)
    with pytest.raises(
        ChartMismatchError, match="^charts 'a' and 'c' do not share an edge$"
    ):
        gerbe_value(fibration, (2,), (2, 3), (0, 2, 3, 4))
    with pytest.raises(ChartMismatchError, match=r"^\{b,c,d\} is not a face$"):
        gerbe_value(fibration, (1,), (1, 2), (1, 2, 3))
