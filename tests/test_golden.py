"""``gerbe --output json`` and the face polytopes, byte for byte
against stored reports.

The ``gerbe-*.json`` files were written by the dense certificate
solver, before the sparse elimination replaced it.  A solver change
that alters a printed certificate, gerbe entry or obstruction verdict
fails here.  The ``faces-*.json`` files were written by the Fraction
vertex search, before the integer-scaled one replaced it; they hold the
repr of every inequality and vertex of every face of a cover read back
from its manifest, so a change of value, type or order fails here.
The ``validate-*.txt`` and ``validate-*.json`` files are the stdout
of ``validate`` at the default precision, in text and in JSON, written
before the cocycle pass read its own data trusted; they pin the counts,
verdicts and layout of that report.
The ``sheaf-*`` files are the stdout of six ``sheaf`` commands.  Four
were written while the section ranks at each integer precision still
came from one kernel per precision; they pin the rank, window and
threshold lines (the last with a threshold of 0 below precision 1) and
the JSON layout.  The slope -40 and ``-E 60`` reports were written
while the section kernel was still eliminated, before it was read off
the components of the system's graph.
Regenerate a file only for an intended change of report.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mirrorforge import cli
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_catalog_has_a_golden_report():
    names = sorted(p.name for p in GOLDEN.glob("gerbe-*.json"))
    assert names == sorted(f"gerbe-{name}.json" for name in catalog_ids())


@pytest.mark.parametrize("name", catalog_ids())
def test_gerbe_json_matches_the_golden_report(name):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["gerbe", "--catalog", name, "--output", "json"])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / f"gerbe-{name}.json").read_bytes()


def faces_report(name):
    """Every face's inequalities and vertices, in stored order, as reprs."""
    cover = manifest_to_fibration(fibration_to_manifest(load_catalog(name))).cover
    ids = cover.chart_ids
    faces = [
        {
            "face": [ids[i] for i in face],
            "inequalities": [repr(ineq) for ineq in cover.polytope(face).inequalities],
            "vertices": [repr(v) for v in cover.polytope(face).vertices],
        }
        for face in sorted(cover.faces, key=lambda f: (len(f), f))
    ]
    return json.dumps({"catalog": name, "faces": faces}, indent=2) + "\n"


def test_every_catalog_has_golden_faces():
    names = sorted(p.name for p in GOLDEN.glob("faces-*.json"))
    assert names == sorted(f"faces-{name}.json" for name in catalog_ids())


@pytest.mark.parametrize("name", catalog_ids())
def test_face_polytopes_match_the_golden_faces(name):
    want = (GOLDEN / f"faces-{name}.json").read_bytes()
    assert faces_report(name).encode() == want


def test_every_catalog_has_golden_validate_reports():
    for suffix in ("txt", "json"):
        names = sorted(p.name for p in GOLDEN.glob(f"validate-*.{suffix}"))
        assert names == sorted(f"validate-{name}.{suffix}" for name in catalog_ids())


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("name", catalog_ids())
def test_validate_matches_the_golden_report(name, output):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["validate", "--catalog", name, "--output", output])
    assert code == 0
    suffix = "txt" if output == "text" else "json"
    want = (GOLDEN / f"validate-{name}.{suffix}").read_bytes()
    assert out.getvalue().encode() == want


SHEAF_REPORTS = {
    "sheaf-elliptic-demo-slope3.txt": ["--catalog", "elliptic-demo", "--slope", "3"],
    "sheaf-elliptic-demo-slope-2.json": [
        "--catalog", "elliptic-demo", "--slope", "-2", "--output", "json",
    ],
    "sheaf-elliptic-demo-slope2-offset2_7-E21_2.txt": [
        "--catalog", "elliptic-demo", "--slope", "2", "--offset", "2/7", "-E", "21/2",
    ],
    "sheaf-split-torus-2-slope1-E1_2.txt": [
        "--catalog", "split-torus-2", "--slope", "1", "-E", "1/2",
    ],
    "sheaf-split-torus-2-slope-40.txt": ["--catalog", "split-torus-2", "--slope", "-40"],
    "sheaf-elliptic-demo-slope2-E60.txt": [
        "--catalog", "elliptic-demo", "--slope", "2", "-E", "60",
    ],
}


def test_every_sheaf_golden_has_a_command():
    assert sorted(p.name for p in GOLDEN.glob("sheaf-*")) == sorted(SHEAF_REPORTS)


@pytest.mark.parametrize("name", sorted(SHEAF_REPORTS))
def test_sheaf_matches_the_golden_report(name):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["sheaf", *SHEAF_REPORTS[name]])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()
