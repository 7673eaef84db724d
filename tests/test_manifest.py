import json

import pytest

from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.errors import ManifestError
from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration


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
