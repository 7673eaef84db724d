"""``gerbe --output json`` byte for byte against stored reports.

The files under ``golden/`` were written by the dense certificate
solver, before the sparse elimination replaced it.  A solver change
that alters a printed certificate, gerbe entry or obstruction verdict
fails here; regenerate a file only for an intended change of report.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mirrorforge import cli
from mirrorforge.catalog import catalog_ids

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
