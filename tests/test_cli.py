import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorforge
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cli import main
from mirrorforge.cover import _CertificateSystem
from mirrorforge.manifest import fibration_to_manifest


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "build", "--catalog", "nope")
        assert code == 2
        assert "unknown catalog" in err
        assert "split-torus-2" in err

    def test_slope_zero_rejected(self, capsys):
        code, _, err = run(
            capsys, "sheaf", "--catalog", "elliptic-demo", "--slope", "0"
        )
        assert code == 2
        assert "not transverse" in err

    def test_malformed_manifest(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 1,\n  "charts": [')
        code, _, err = run(capsys, "build", "--manifest", str(path))
        assert code == 2
        assert "line" in err and "column" in err

    @pytest.mark.parametrize(
        "primitives, pair, message",
        [
            (5, None, "manifest.fibration.primitives: expected list"),
            ({}, None, "manifest.fibration.primitives: expected list"),
            (None, [[1], "b"], "manifest.fibration.primitives[0].pair: expected two known chart ids"),
            (None, ["0,0", "0,0"], "manifest.fibration.primitives[0].pair: repeated chart in pair"),
        ],
        ids=["int-primitives", "object-primitives", "list-in-pair", "repeated-pair"],
    )
    def test_malformed_primitives(self, capsys, tmp_path, primitives, pair, message):
        data = json.loads(fibration_to_manifest(load_catalog("thurston-f1")))
        if pair is None:
            data["fibration"]["primitives"] = primitives
        else:
            data["fibration"]["primitives"][0]["pair"] = pair
        path = tmp_path / "primitives.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "build", "--manifest", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_manifest_chart_missing_vertices(self, capsys, tmp_path):
        data = json.loads(fibration_to_manifest(load_catalog("split-torus-4")))
        polytope = data["charts"][0]["polytope"]
        polytope["vertices"] = [polytope["vertices"][0], polytope["vertices"][3]]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--manifest", str(path))
        assert (code, out) == (2, "")
        assert "manifest.charts[0].polytope.vertices" in err

    def test_manifest_circle_chart_missing_a_vertex(self, capsys, tmp_path):
        data = json.loads(fibration_to_manifest(load_catalog("elliptic-demo")))
        data["charts"][1]["polytope"]["vertices"].pop(0)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--manifest", str(path))
        assert (code, out) == (2, "")
        assert "manifest.charts[1].polytope: " in err
        assert "tight at no vertex" in err

    def test_missing_source_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build"])
        assert exc.value.code == 2

    def test_nonpositive_precision_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--catalog", "elliptic-demo", "-E", "0"])
        assert exc.value.code == 2

    def test_torus_catalog_rejected_by_line_pipeline(self, capsys):
        code, _, err = run(
            capsys, "demo", "--catalog", "split-torus-4", "--slope", "1"
        )
        assert code == 2
        assert "one-dimensional" in err


def parse_failure(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


class TestNegativeFractions:
    LINE = ("--catalog", "elliptic-demo", "--slope", "2")

    @pytest.mark.parametrize("command", ["sheaf", "demo"])
    def test_offset_is_read_as_a_value(self, capsys, command):
        joined = run(capsys, command, *self.LINE, "--offset=-2/5")
        spaced = run(capsys, command, *self.LINE, "--offset", "-2/5")
        assert spaced == joined
        assert spaced[0] == 0
        assert "offset: -2/5" in spaced[1]

    @pytest.mark.parametrize("value", ["-1/2", "-3/4", "-1", "-0.5"])
    @pytest.mark.parametrize("option", ["-E", "--precision"])
    def test_negative_precision_reaches_the_positive_check(self, capsys, option, value):
        spaced = parse_failure(capsys, "sheaf", *self.LINE, option, value)
        joined = parse_failure(capsys, "sheaf", *self.LINE, f"{option}={value}")
        assert spaced == joined
        assert spaced[0] == 2
        assert "argument --precision/-E: precision must be positive" in spaced[1]

    def test_a_bad_negative_fraction_gets_the_rational_message(self, capsys):
        code, err = parse_failure(capsys, "sheaf", *self.LINE, "--offset", "-2/0")
        assert code == 2
        assert "argument --offset: expected a rational like 10 or 21/2, got '-2/0'" in err

    @pytest.mark.parametrize(
        "tail, option",
        [
            (("--offset",), "--offset"),
            (("-E",), "--precision/-E"),
            (("--offset", "--output", "json"), "--offset"),
            (("-E", "--seed", "3"), "--precision/-E"),
            (("--offset", "-x/2"), "--offset"),
            (("-E", "-1/2/3"), "--precision/-E"),
        ],
    )
    def test_a_missing_value_still_fails(self, capsys, tail, option):
        code, err = parse_failure(capsys, "sheaf", *self.LINE, *tail)
        assert code == 2
        assert f"argument {option}: expected one argument" in err


class TestBuild:
    def test_split_torus_atlas(self, capsys):
        code, out, _ = run(capsys, "build", "--catalog", "split-torus-2")
        assert code == 0
        assert "charts: 4" in out
        assert "nerve: 4 edges, 0 triangles" in out
        # every transition of the split torus is a pure translation
        for line in out.splitlines():
            if "->" in line and line.startswith("  "):
                assert line.endswith("z1")

    def test_shear_wrap_shows_the_transvection(self, capsys):
        code, out, _ = run(capsys, "build", "--catalog", "thurston-f2")
        assert code == 0
        assert "z1*z2^(-1)" in out

    def test_json_mode_parses_and_matches(self, capsys):
        code, out, _ = run(
            capsys, "build", "--catalog", "split-torus-2", "--output", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "build"
        assert report["dimension"] == 1
        assert len(report["charts"]) == 4
        assert report["nerve"] == {"edges": 4, "triangles": 0}

    def test_reports_are_deterministic(self, capsys):
        _, first, _ = run(capsys, "build", "--catalog", "thurston-f1", "--output", "json")
        _, second, _ = run(capsys, "build", "--catalog", "thurston-f1", "--output", "json")
        assert first == second

    def test_manifest_and_catalog_agree(self, capsys, tmp_path):
        path = tmp_path / "f2.json"
        path.write_text(fibration_to_manifest(load_catalog("thurston-f2")))
        _, from_catalog, _ = run(capsys, "build", "--catalog", "thurston-f2")
        _, from_manifest, _ = run(capsys, "build", "--manifest", str(path))
        tail = lambda text: text.splitlines()[2:]
        assert tail(from_catalog) == tail(from_manifest)


class TestGerbe:
    def test_nontrivial_class(self, capsys):
        code, out, _ = run(capsys, "gerbe", "--catalog", "thurston-f1")
        assert code == 0
        assert "class: nontrivial" in out
        assert "lattice image: nonzero" in out

    def test_trivial_class_with_certificate(self, capsys):
        code, out, _ = run(capsys, "gerbe", "--catalog", "thurston-f2")
        assert code == 0
        assert "class: trivial" in out
        assert "lattice image: zero" in out
        assert "cocycle identity: holds" in out

    def test_circle_report_is_empty_but_clean(self, capsys):
        code, out, _ = run(capsys, "gerbe", "--catalog", "split-torus-2")
        assert code == 0
        assert "alpha support: 0" in out
        assert "gerbe entries: 0" in out

    def test_json_carries_the_same_verdicts(self, capsys):
        _, out, _ = run(
            capsys, "gerbe", "--catalog", "thurston-f1", "--output", "json"
        )
        report = json.loads(out)
        assert report["obstruction"]["trivial"] is False
        assert report["obstruction"]["lattice_image_zero"] is False
        assert report["gerbe"]["cocycle_holds"] is True


class TestSheaf:
    def test_slope_two_rank(self, capsys):
        code, out, _ = run(
            capsys,
            "sheaf", "--catalog", "elliptic-demo", "--slope", "2", "-E", "10",
        )
        assert code == 0
        assert "global sections rank: 2" in out
        assert "validation: ACCEPTED" in out

    def test_negative_slope_rank_zero(self, capsys):
        code, out, _ = run(
            capsys, "sheaf", "--catalog", "elliptic-demo", "--slope", "-1"
        )
        assert code == 0
        assert "global sections rank: 0" in out

    @pytest.mark.parametrize(
        "precision,window,threshold", [("1/2", 3, 0), ("21/2", 6, 1)]
    )
    def test_threshold_below_one_and_at_a_fractional_precision(
        self, capsys, precision, window, threshold
    ):
        # below precision 1 there is no integer precision to compare, so
        # the threshold is 0; at 21/2 ranks are compared up to 10
        argv = ["sheaf", "--catalog", "elliptic-demo", "--slope", "1", "-E", precision]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"global sections rank: 1 (window {window})\n" in out
        assert f"stabilisation threshold: {threshold}\n" in out
        code, raw, _ = run(capsys, *argv, "--output", "json")
        assert code == 0
        assert json.loads(raw)["sections"] == {
            "rank": 1,
            "window": window,
            "stabilisation_threshold": threshold,
        }

    def test_json_and_text_numeric_parity(self, capsys):
        _, text, _ = run(
            capsys, "sheaf", "--catalog", "elliptic-demo", "--slope", "1"
        )
        _, raw, _ = run(
            capsys,
            "sheaf", "--catalog", "elliptic-demo", "--slope", "1",
            "--output", "json",
        )
        report = json.loads(raw)
        rank = report["sections"]["rank"]
        threshold = report["sections"]["stabilisation_threshold"]
        assert f"global sections rank: {rank}" in text
        assert f"stabilisation threshold: {threshold}" in text
        assert threshold <= 10
        for sample in report["fiber_cohomology"]:
            for point in sample["points"]:
                assert point["ranks"] == {"0": 1}


class TestDemo:
    def test_slope_one_monodromy(self, capsys):
        code, out, _ = run(
            capsys, "demo", "--catalog", "elliptic-demo", "--slope", "1"
        )
        assert code == 0
        assert "sheet 0: shift 1, constant -1/2, weight 1" in out
        assert "degree: 1" in out
        assert "validation: ACCEPTED" in out

    def test_degree_matches_the_slope(self, capsys):
        _, out, _ = run(
            capsys,
            "demo", "--catalog", "elliptic-demo", "--slope", "-2",
            "--output", "json",
        )
        report = json.loads(out)
        assert report["monodromy"]["degree"] == "-2"
        assert all(sheet["shift"] == -1 for sheet in report["monodromy"]["sheets"])


class TestValidate:
    @pytest.mark.parametrize("name", catalog_ids())
    def test_catalog_passes(self, capsys, name):
        code, out, _ = run(capsys, "validate", "--catalog", name)
        assert code == 0
        assert "result: OK" in out

    @pytest.mark.parametrize("name", catalog_ids())
    def test_a_trivial_class_solves_its_certificate_once(
        self, capsys, monkeypatch, name
    ):
        solves = []
        solve = _CertificateSystem._solve

        def counting_solve(self, alpha):
            solves.append(alpha)
            return solve(self, alpha)

        monkeypatch.setattr(_CertificateSystem, "_solve", counting_solve)
        code, out, _ = run(capsys, "validate", "--catalog", name)
        assert code == 0
        assert len(solves) == 1
        golden = Path(__file__).resolve().parent / "golden" / f"validate-{name}.txt"
        assert out.encode() == golden.read_bytes()

    def test_broken_cover_is_a_validation_failure(self, capsys, tmp_path):
        data = json.loads(fibration_to_manifest(load_catalog("split-torus-2")))
        del data["transitions"][0]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "validate", "--manifest", str(path))
        assert code == 1
        assert "error:" in err


class TestSelftest:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "result: OK" in out
        assert "rank-1 refusal verified" in out

    def test_single_catalog_restriction(self, capsys):
        code, out, _ = run(
            capsys, "selftest", "--catalog", "elliptic-demo", "--seed", "7"
        )
        assert code == 0
        assert out.count("catalog ") == 1


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    root = str(Path(mirrorforge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mirrorforge", "build", "--catalog", "split-torus-2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "mirror atlas" in result.stdout
