import json
import random
from fractions import Fraction

import pytest

from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.errors import ManifestError
from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration
from test_integer_geometry import ReferenceCover


@pytest.mark.parametrize("name", catalog_ids())
def test_round_trip_is_byte_exact(name):
    fib = load_catalog(name)
    text = fibration_to_manifest(fib)
    loaded = manifest_to_fibration(text)
    assert loaded.cover == fib.cover
    again = fibration_to_manifest(loaded)
    assert again == text


def test_round_trip_preserves_obstruction():
    fib = load_catalog("thurston-f1")
    loaded = manifest_to_fibration(fibration_to_manifest(fib))
    assert loaded.obstruction_cocycle().support() == ((0, 2, 6), (0, 2, 8))


def test_emission_is_deterministic():
    a = fibration_to_manifest(load_catalog("thurston-f2"))
    b = fibration_to_manifest(load_catalog("thurston-f2"))
    assert a == b
    assert a.endswith("\n")


def test_parse_error_reports_position():
    text = '{\n  "dimension": 2,\n  "charts": [\n'
    with pytest.raises(ManifestError, match=r"line \d+, column \d+"):
        manifest_to_fibration(text)


def test_unknown_key_rejected():
    fib = load_catalog("elliptic")
    data = json.loads(fibration_to_manifest(fib))
    data["extra"] = 1
    with pytest.raises(ManifestError, match="unknown keys"):
        manifest_to_fibration(json.dumps(data))


def test_float_bound_rejected():
    data = json.loads(fibration_to_manifest(load_catalog("elliptic")))
    data["charts"][0]["polytope"]["inequalities"][0]["bound"] = 0.25
    with pytest.raises(ManifestError, match="rational written as a string"):
        manifest_to_fibration(json.dumps(data))


def test_unknown_chart_in_face():
    data = json.loads(fibration_to_manifest(load_catalog("elliptic")))
    data["cover"]["faces"].append(["0", "9"])
    with pytest.raises(ManifestError, match="unknown chart id '9'"):
        manifest_to_fibration(json.dumps(data))


def test_backwards_transition_rejected():
    data = json.loads(fibration_to_manifest(load_catalog("elliptic")))
    entry = data["transitions"][0]
    entry["from"], entry["to"] = entry["to"], entry["from"]
    with pytest.raises(ManifestError, match="earlier chart"):
        manifest_to_fibration(json.dumps(data))


def test_missing_fibration_section_defaults_to_zero():
    data = json.loads(fibration_to_manifest(load_catalog("split-torus-4")))
    del data["fibration"]
    fib = manifest_to_fibration(json.dumps(data))
    assert fib.obstruction_cocycle().is_zero()


def test_non_unimodular_transition_rejected():
    data = json.loads(fibration_to_manifest(load_catalog("split-torus-4")))
    data["transitions"][0]["linear"] = [[2, 0], [0, 1]]
    with pytest.raises(ManifestError, match="unimodular"):
        manifest_to_fibration(json.dumps(data))


def test_a_torus_chart_missing_vertices_is_refused():
    data = json.loads(fibration_to_manifest(load_catalog("split-torus-4")))
    polytope = data["charts"][0]["polytope"]
    # two opposite corners of the square still touch all four sides, so
    # the checked polytope accepts them; the cover's vertices do not
    polytope["vertices"] = [polytope["vertices"][0], polytope["vertices"][3]]
    with pytest.raises(
        ManifestError, match=r"^manifest\.charts\[0\]\.polytope\.vertices: "
    ):
        manifest_to_fibration(json.dumps(data))


def test_a_circle_chart_missing_a_vertex_is_refused():
    # each side of an interval is tight only at its own end, so the
    # checked polytope refuses the chart before the cover is built, and
    # the refusal names the chart's polytope
    data = json.loads(fibration_to_manifest(load_catalog("elliptic-demo")))
    data["charts"][1]["polytope"]["vertices"].pop(0)
    with pytest.raises(
        ManifestError, match=r"^manifest\.charts\[1\]\.polytope: .*tight at no vertex"
    ):
        manifest_to_fibration(json.dumps(data))


def with_primitives(edit):
    data = json.loads(fibration_to_manifest(load_catalog("thurston-f1")))
    edit(data["fibration"])
    return json.dumps(data)


def set_primitives(value):
    return lambda fibration: fibration.update(primitives=value)


def set_pair(pair):
    return lambda fibration: fibration["primitives"][0].update(pair=pair)


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_primitives(5), r"^manifest\.fibration\.primitives: expected list$"),
        (set_primitives({}), r"^manifest\.fibration\.primitives: expected list$"),
        (
            set_pair([[1], "1"]),
            r"^manifest\.fibration\.primitives\[0\]\.pair: expected two known chart ids$",
        ),
        (
            set_pair(["0,0", "0,0"]),
            r"^manifest\.fibration\.primitives\[0\]\.pair: repeated chart in pair$",
        ),
    ],
    ids=["int-primitives", "object-primitives", "list-in-pair", "repeated-pair"],
)
def test_malformed_primitives_are_refused_with_their_path(edit, message):
    with pytest.raises(ManifestError, match=message):
        manifest_to_fibration(with_primitives(edit))


def test_a_fibration_without_primitives_key_has_none():
    fib = manifest_to_fibration(with_primitives(lambda fibration: fibration.clear()))
    assert fib.obstruction_cocycle().is_zero()


# -- chart intersections against the reference containment pass ---------------


def moved_manifest(name, scale=Fraction(1), shift=Fraction(0)):
    """The catalog's manifest with every chart coordinate x read as
    scale * x + shift, scale > 0: a bound b of n.x <= b becomes scale * b
    + shift * sum(n), a translation tau of y = M x + tau becomes scale *
    tau + (1 - M) shift, and the primitives, which need not stay
    compatible, are dropped."""
    data = json.loads(fibration_to_manifest(load_catalog(name)))
    for chart in data["charts"]:
        polytope = chart["polytope"]
        for ineq in polytope["inequalities"]:
            bound = Fraction(ineq["bound"]) * scale + shift * sum(ineq["normal"])
            ineq["bound"] = str(bound)
        polytope["vertices"] = [
            [str(Fraction(x) * scale + shift) for x in v] for v in polytope["vertices"]
        ]
    for transition in data["transitions"]:
        moved = [shift - shift * sum(row) for row in transition["linear"]]
        transition["translation"] = [
            str(Fraction(x) * scale + m) for x, m in zip(transition["translation"], moved)
        ]
    data["fibration"] = {"primitives": []}
    return json.dumps(data)


def assert_the_reference_accepts(cover):
    # ReferenceCover runs every check, the containment pass included, on
    # the polytopes and transitions the chart intersections gave
    polys = {face: cover.polytope(face) for face in cover.faces}
    transitions = {edge: cover.transition(*edge) for edge in cover.faces_of_degree(1)}
    rebuilt = ReferenceCover(cover.dimension, cover.chart_ids, cover.faces, polys, transitions)
    assert rebuilt == cover


MOVED = [
    ("thurston-f2", Fraction(5, 2), Fraction(0)),
    ("split-torus-4", Fraction(3, 7), Fraction(0)),
    ("thurston-f1", Fraction(2, 9), Fraction(0)),
    ("elliptic-demo", Fraction(1), Fraction(1, 7)),
]


@pytest.mark.parametrize(
    "name, scale, shift",
    [(name, None, None) for name in catalog_ids()] + MOVED,
    ids=[*catalog_ids(), "f2-times-5-2", "st4-times-3-7", "f1-times-2-9", "elliptic-plus-1-7"],
)
def test_chart_intersections_pass_the_reference_containment(name, scale, shift):
    if scale is None:
        cover = load_catalog(name).cover
    else:
        cover = manifest_to_fibration(moved_manifest(name, scale, shift)).cover
    assert_the_reference_accepts(cover)


def test_seeded_manifests_pass_the_reference_containment():
    rng = random.Random(3301)
    for _ in range(12):
        name = rng.choice(catalog_ids())
        scale = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        shift = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        fibration = manifest_to_fibration(moved_manifest(name, scale, shift))
        assert_the_reference_accepts(fibration.cover)
