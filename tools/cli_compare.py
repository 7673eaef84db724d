"""Compare the command line of this checkout with the one at a revision.

    python tools/cli_compare.py --against REV

REV is extracted with ``git archive`` into a temporary directory, which
leaves ``.git`` untouched.  Each command of the comparison set runs as
``python -m mirrorforge ...`` in a subprocess, once with ``PYTHONPATH``
set to this checkout's ``src`` and once to REV's, so warnings and exit
codes are seen as a user sees them; a path into either tree, as a
warning prints it, is read relative to the tree.  The ``--manifest``
commands read manifests that this checkout writes into a directory
beside REV's tree, so both trees read the same paths.  Every command
whose stdout, stderr or exit code differs is printed, and the exit code
is 1 if any does.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGS = ("elliptic-demo", "split-torus-2", "split-torus-4", "thurston-f1", "thurston-f2")
CIRCLES = CATALOGS[:2]
TORI = CATALOGS[2:]
LINE_COMMANDS = ("sheaf", "demo")
MANIFEST_COMMANDS = ("build", "gerbe", "validate")
SHIFTED = "elliptic-demo-plus-1-7"
# the manifests of covers scaled by a fraction
SCALED = ("thurston-f2-times-5-2", "split-torus-4-times-3-7")
# the manifests of one-dimensional covers, which the line reports read
CIRCLE_MANIFESTS = (*CIRCLES, SHIFTED)


def commands(manifests=()):
    """The comparison set: every report on every catalog, selftest at
    seeds 0 to 3, the line reports on both circles over slopes, offsets and precisions, the
    long lines (slopes 400, 800 and -400, and for sheaf alone 1600,
    -1600 and 3200 on elliptic-demo and 1600 on split-torus-2), the
    large precisions -E 240 and 960, offsets outside (-1, 1) in text and
    JSON, the refusals, build, gerbe and validate in text and JSON on
    each manifest path, sheaf and demo at slopes 2 and -3 on each
    circle manifest, validate at -E 1/10 and 1/1000 on every catalog and
    scaled manifest, and sheaf and demo at slopes 9 and -9 on both
    circles, whose restrictions are rank-9 monomial matrices."""
    out = []
    for name, catalog, output in product(
        ("build", "gerbe", "validate", "selftest"), CATALOGS, ("text", "json")
    ):
        out.append([name, "--catalog", catalog, "--output", output])
    out += [["selftest", "--seed", seed] for seed in ("0", "1", "2", "3")]
    slopes = ("1", "-1", "2", "-2", "3", "7", "-5", "30")
    for name, catalog, slope in product(LINE_COMMANDS, CIRCLES, slopes):
        line = [name, "--catalog", catalog, "--slope", slope]
        for offset, precision in product(("0", "1/3", "-2/5"), ("1/2", "1", "4", "21/2")):
            out.append(line + ["--offset", offset, "-E", precision])
        out.append(line + ["--offset=-2/5"])
        if slope in ("1", "-1", "3"):
            out.append(line + ["--output", "json"])
    for name, catalog in product(LINE_COMMANDS, CIRCLES):
        line = [name, "--catalog", catalog]
        for flag in (["-E", "0"], ["-E", "-1"], ["-E", "-1/2"], ["-E=-1/2"], ["-E", "60"]):
            out.append(line + ["--slope", "2"] + flag)
        out += [line + ["--slope", "0"], line + ["--slope", "100"]]
        out += [line + ["--slope", "2", "-E", "240"], line + ["--slope", "1", "-E", "960"]]
        for slope, offset, output in product(("3", "-2"), ("7/2", "-9/4"), ("text", "json")):
            out.append(line + ["--slope", slope, "--offset", offset, "--output", output])
    for name in LINE_COMMANDS:
        for catalog, slope in (
            ("elliptic-demo", "400"),
            ("elliptic-demo", "800"),
            ("split-torus-2", "-400"),
        ):
            out.append([name, "--catalog", catalog, "--slope", slope])
    # demo prints every k x k restriction matrix in full, so the longest
    # lines run through sheaf alone
    for catalog, slope in (
        ("elliptic-demo", "1600"),
        ("elliptic-demo", "-1600"),
        ("elliptic-demo", "3200"),
        ("split-torus-2", "1600"),
    ):
        out.append(["sheaf", "--catalog", catalog, "--slope", slope])
    for name, catalog in product(LINE_COMMANDS, TORI):
        out.append([name, "--catalog", catalog, "--slope", "1"])
    for name, catalog, slope in product(LINE_COMMANDS, CIRCLES, ("9", "-9")):
        out.append([name, "--catalog", catalog, "--slope", slope])
    scaled = [["--manifest", str(path)] for path in manifests if Path(path).stem in SCALED]
    for source, precision in product(
        [["--catalog", catalog] for catalog in CATALOGS] + scaled, ("1/10", "1/1000")
    ):
        out.append(["validate", *source, "-E", precision])
    for path, name, output in product(manifests, MANIFEST_COMMANDS, ("text", "json")):
        out.append([name, "--manifest", str(path), "--output", output])
    circles = [path for path in manifests if Path(path).stem in CIRCLE_MANIFESTS]
    for path, name, slope in product(circles, LINE_COMMANDS, ("2", "-3")):
        out.append([name, "--manifest", str(path), "--slope", slope])
    return out


def manifest_texts():
    """(name, text) of each catalog's manifest, as this checkout writes
    it, then of thurston-f2 with every coordinate times 5/2 and
    split-torus-4 times 3/7, whose translations are fractional, then of
    elliptic-demo with every coordinate plus 1/7, whose translations
    stay integers while its vertices move onto denominator 84, then of
    manifests the reader must refuse: bad JSON, a missing key, a float
    in powers and in linear, a declared vertex that is not extreme, a
    chart that declares too few vertices, primitives given as a number
    and as an object, and a primitive pair with a list member and with
    one chart twice."""
    sys.path.insert(0, str(ROOT / "src"))
    from mirrorforge.catalog import load_catalog
    from mirrorforge.manifest import fibration_to_manifest

    out = [(name, fibration_to_manifest(load_catalog(name))) for name in CATALOGS]
    base = dict(out)["thurston-f1"]

    def scaled(name, s):
        # chart bounds, vertices and translations times s, linear parts
        # kept and the primitives dropped, which need not stay compatible
        data = json.loads(dict(out)[name])
        for chart in data["charts"]:
            polytope = chart["polytope"]
            for ineq in polytope["inequalities"]:
                ineq["bound"] = str(Fraction(ineq["bound"]) * s)
            polytope["vertices"] = [[str(Fraction(x) * s) for x in v] for v in polytope["vertices"]]
        for transition in data["transitions"]:
            transition["translation"] = [str(Fraction(x) * s) for x in transition["translation"]]
        data["fibration"] = {"primitives": []}
        return f"{name}-times-{s.numerator}-{s.denominator}", json.dumps(data, indent=2)

    out += [scaled("thurston-f2", Fraction(5, 2)), scaled("split-torus-4", Fraction(3, 7))]

    def shifted(name, s):
        # every chart coordinate plus s: n.x <= b reads n.x <= b + s*sum(n),
        # and y = M x + tau reads y = M x + tau + (1 - M) s; the primitives,
        # none on elliptic-demo, are kept
        data = json.loads(dict(out)[name])
        for chart in data["charts"]:
            polytope = chart["polytope"]
            for ineq in polytope["inequalities"]:
                ineq["bound"] = str(Fraction(ineq["bound"]) + s * sum(ineq["normal"]))
            polytope["vertices"] = [[str(Fraction(x) + s) for x in v] for v in polytope["vertices"]]
        for transition in data["transitions"]:
            moved = [s - s * sum(row) for row in transition["linear"]]
            transition["translation"] = [
                str(Fraction(x) + m) for x, m in zip(transition["translation"], moved)
            ]
        return json.dumps(data, indent=2)

    out.append((SHIFTED, shifted("elliptic-demo", Fraction(1, 7))))

    def broken(edit):
        data = json.loads(base)
        edit(data)
        return json.dumps(data, indent=2)

    def missing_key(data):
        del data["transitions"]

    def float_powers(data):
        data["fibration"]["primitives"][0]["poly"][0]["powers"][0] = 1.0

    def float_linear(data):
        data["transitions"][0]["linear"][0][0] = 1.0

    def midpoint_vertex(data):
        vertices = data["charts"][0]["polytope"]["vertices"]
        vertices[0] = [str((Fraction(a) + Fraction(b)) / 2) for a, b in zip(*vertices[:2])]

    def missing_vertex(data):
        data["charts"][0]["polytope"]["vertices"].pop()

    def int_primitives(data):
        data["fibration"]["primitives"] = 5

    def object_primitives(data):
        data["fibration"]["primitives"] = {}

    def list_in_pair(data):
        data["fibration"]["primitives"][0]["pair"] = [[1], "b"]

    def repeated_pair(data):
        pair = data["fibration"]["primitives"][0]["pair"]
        pair[1] = pair[0]

    out.append(("bad-json", base[: len(base) // 2]))
    edits = (missing_key, float_powers, float_linear, midpoint_vertex, missing_vertex)
    edits += (int_primitives, object_primitives, list_in_pair, repeated_pair)
    for edit in edits:
        out.append((edit.__name__.replace("_", "-"), broken(edit)))
    return out


def extract(rev, into):
    """The tree of rev, written under into by ``git archive``."""
    data = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        archive.extractall(into, filter="data")
    return Path(into)


def run(tree, args):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "mirrorforge", *args],
        capture_output=True,
        env=env,
        cwd=tree,
    )
    path = os.fsencode(tree)
    out, err = (stream.replace(path, b".") for stream in (result.stdout, result.stderr))
    return out, err, result.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        paths = []
        for name, text in manifest_texts():
            paths.append(Path(tmp, "manifests", f"{name}.json"))
            paths[-1].parent.mkdir(exist_ok=True)
            paths[-1].write_text(text, encoding="utf-8")
        cases = commands(paths)
        other = extract(args.against, Path(tmp, "tree"))
        ours = pool.map(lambda c: run(ROOT, c), cases)
        theirs = pool.map(lambda c: run(other, c), cases)
        differ = 0
        names = ("stdout", "stderr", "exit code")
        for case, mine, old in zip(cases, ours, theirs):
            streams = [name for name, a, b in zip(names, mine, old) if a != b]
            if streams:
                differ += 1
                print(f"differs ({', '.join(streams)}): mirrorforge {' '.join(case)}")
    print(f"{len(cases)} commands, {differ} differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
