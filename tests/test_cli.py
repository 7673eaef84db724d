import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorforge
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cli import main
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
