"""Command line front end.

One binary, six subcommands:

* ``build``: mirror atlas report (charts, ring generators, transition
  monomial maps) for a catalog entry or a manifest file.
* ``gerbe``: obstruction cochain, triviality certificate, lattice image
  verdict, and the multiplicative cocycle entries.
* ``sheaf``: patch a slope-k line into a twisted module, validate it,
  count global sections, and sample fibre cohomology.
* ``demo``: the raw family Floer data (sheets, restriction matrices,
  loop monodromy).
* ``validate``: structural checks for a cover plus its canonical
  twisted module.
* ``selftest``: seeded property checks of the arithmetic core.

Every quantitative line states its cutoff; rationals are printed as
``p/q`` strings.  ``--output json`` emits the same report as a JSON
document with identical numeric content.  Exit codes: 0 clean, 1 for a
validation failure or exhausted precision, 2 for usage and parse
errors.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from .affine import AffineFunction, PolyFunction
from .catalog import catalog_ids, load_catalog
from .cover import AffCochain, analyze_obstruction, coboundary_certificate
from .errors import InvalidFibrationError, ManifestError, MirrorForgeError
from .floer_demo import (
    LinearLagrangian,
    energy_transport,
    intersections,
    patch_global,
)
from .manifest import manifest_to_fibration
from .mirror_charts import (
    MirrorPoint,
    chart_monomial_map,
    gerbe_value,
    nested_triples,
    verify_gerbe,
)
from .novikov import NovikovScalar
from .twisted_sheaves import (
    ModuleComplex,
    canonical_twisted_module,
    fiber_cohomology,
    global_sections,
    loop_monodromy,
    validate_module,
)


class UsageError(Exception):
    """Bad invocation that argparse cannot catch on its own."""


# -- argument plumbing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads an argument shaped like a negative
    fraction, such as -2/5, as a value, the way argparse reads -2 or
    -0.5: none of the options looks like a negative number, so argparse
    takes such an argument for a value and not for an option.  Its
    subcommand parsers are built by the same class."""

    _NEGATIVE_VALUE = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_VALUE


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 10 or 21/2, got {text!r}"
        ) from None


def _positive_rational(text):
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("precision must be positive")
    return value


def _seed(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _add_source(sub, required):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--catalog", metavar="ID", help="built-in catalog entry")
    group.add_argument(
        "--manifest", metavar="PATH", help="path to a cover manifest (canonical JSON)"
    )


def _add_common(sub):
    sub.add_argument(
        "--precision",
        "-E",
        type=_positive_rational,
        default=Fraction(10),
        metavar="p/q",
        help="working cutoff exponent (default 10)",
    )
    sub.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    sub.add_argument(
        "--seed",
        type=_seed,
        default=0,
        metavar="N",
        help="seed for sampled and randomised checks (default 0)",
    )


def _add_lagrangian(sub):
    sub.add_argument(
        "--slope",
        type=int,
        required=True,
        metavar="K",
        help="slope of the line; must be nonzero",
    )
    sub.add_argument(
        "--offset",
        type=_rational,
        default=Fraction(0),
        metavar="p/q",
        help="height offset of the line (default 0)",
    )


def build_parser():
    parser = _Parser(
        prog="mirrorforge",
        description="Exact mirror atlases, obstruction gerbes, and twisted "
        "sheaf reports for integral affine torus fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("build", help="emit the mirror atlas of a cover")
    _add_source(p, required=True)
    _add_common(p)

    p = sub.add_parser("gerbe", help="obstruction class and gerbe entries")
    _add_source(p, required=True)
    _add_common(p)

    p = sub.add_parser("sheaf", help="twisted sheaf pipeline for a slope-k line")
    _add_source(p, required=True)
    _add_common(p)
    _add_lagrangian(p)

    p = sub.add_parser("demo", help="family Floer data for a slope-k line")
    _add_source(p, required=True)
    _add_common(p)
    _add_lagrangian(p)

    p = sub.add_parser("validate", help="structural checks for one cover")
    _add_source(p, required=True)
    _add_common(p)

    p = sub.add_parser("selftest", help="seeded property checks")
    _add_source(p, required=False)
    _add_common(p)

    return parser


def _load_fibration(args):
    if args.manifest is not None:
        try:
            with open(args.manifest, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read manifest: {exc}") from None
        return manifest_to_fibration(text), args.manifest
    try:
        return load_catalog(args.catalog), args.catalog
    except KeyError:
        known = ", ".join(catalog_ids())
        raise UsageError(
            f"unknown catalog entry {args.catalog!r}; available: {known}"
        ) from None


def _lagrangian(args):
    if args.slope == 0:
        raise UsageError("a slope-zero line is not transverse to the fibres")
    return LinearLagrangian(args.slope, args.offset)


# -- shared serialisation ----------------------------------------------------


def _face_ids(cover, face):
    return [cover.chart_ids[x] for x in face]


def _face_label(ids):
    return "(" + "|".join(ids) + ")"


def _affine_json(fn):
    return {"linear": list(fn.linear), "constant": str(fn.constant)}


def _affine_text(entry):
    pieces = []
    for j, a in enumerate(entry["linear"]):
        if a == 0:
            continue
        var = f"x{j + 1}"
        if a == 1:
            pieces.append(var)
        elif a == -1:
            pieces.append(f"-{var}")
        else:
            pieces.append(f"{a}*{var}")
    constant = Fraction(entry["constant"])
    if constant != 0 or not pieces:
        pieces.append(str(constant))
    out = pieces[0]
    for term in pieces[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


def _vec_label(values):
    return "(" + ", ".join(values) + ")"


# -- build -------------------------------------------------------------------


def cmd_build(args):
    fibration, label = _load_fibration(args)
    cover = fibration.cover
    n = cover.dimension
    charts = []
    for i, cid in enumerate(cover.chart_ids):
        chart = cover.face_chart((i,))
        generators = []
        for j in range(n):
            spans = [v[j] - chart.basepoint[j] for v in chart.polytope.vertices]
            generators.append(
                {
                    "name": f"z{j + 1}",
                    "weight": str(min(spans)),
                    "inverse_weight": str(-max(spans)),
                }
            )
        charts.append(
            {
                "id": cid,
                "basepoint": [str(x) for x in chart.basepoint],
                "vertices": [[str(x) for x in v] for v in chart.polytope.vertices],
                "generators": generators,
            }
        )
    transitions = []
    for edge in sorted(cover.faces_of_degree(1)):
        i, j = edge
        transitions.append(
            {
                "from": cover.chart_ids[i],
                "to": cover.chart_ids[j],
                "map": chart_monomial_map(cover, i, j).describe(),
            }
        )
    report = {
        "command": "build",
        "source": label,
        "dimension": n,
        "charts": charts,
        "nerve": {
            "edges": len(cover.faces_of_degree(1)),
            "triangles": len(cover.faces_of_degree(2)),
        },
        "transitions": transitions,
    }
    return report, True


def _text_build(report):
    lines = [
        "mirror atlas",
        f"source: {report['source']}",
        f"dimension: {report['dimension']}",
        f"charts: {len(report['charts'])}",
        f"nerve: {report['nerve']['edges']} edges, "
        f"{report['nerve']['triangles']} triangles",
    ]
    for chart in report["charts"]:
        lines.append(f"chart {chart['id']}")
        lines.append("  basepoint: " + _vec_label(chart["basepoint"]))
        lines.append(
            "  vertices: " + ", ".join(_vec_label(v) for v in chart["vertices"])
        )
        for gen in chart["generators"]:
            lines.append(
                f"  {gen['name']}: weight {gen['weight']}, "
                f"inverse weight {gen['inverse_weight']}"
            )
    for tr in report["transitions"]:
        lines.append(f"transition {tr['from']} -> {tr['to']}")
        for image in tr["map"]:
            lines.append(f"  {image}")
    return lines


# -- gerbe -------------------------------------------------------------------


def cmd_gerbe(args):
    fibration, label = _load_fibration(args)
    cover = fibration.cover
    outcome = analyze_obstruction(fibration)
    support = [
        {
            "triangle": _face_ids(cover, face),
            **_affine_json(outcome.alpha.value(face)),
        }
        for face in sorted(outcome.alpha.support())
    ]
    certificate = None
    if outcome.certificate is not None:
        certificate = [
            {
                "edge": _face_ids(cover, face),
                **_affine_json(outcome.certificate.value(face)),
            }
            for face in sorted(outcome.certificate.support())
        ]
    gerbe = verify_gerbe(fibration)
    entries = [
        {
            "chain": [_face_ids(cover, f) for f in (low, mid, top)],
            "value": str(gerbe_value(fibration, low, mid, top)),
        }
        for low, mid, top in nested_triples(cover)
    ]
    report = {
        "command": "gerbe",
        "source": label,
        "triangles": len(cover.faces_of_degree(2)),
        "obstruction": {
            "support": support,
            "trivial": outcome.is_trivial,
            "certificate": certificate,
            "lattice_image_zero": outcome.lattice_image_vanishes,
        },
        "gerbe": {
            "entries": entries,
            "quadruples": gerbe.quadruples,
            "cocycle_holds": gerbe.holds,
        },
    }
    return report, gerbe.holds


def _text_gerbe(report):
    obstruction = report["obstruction"]
    lines = [
        "obstruction and gerbe report",
        f"source: {report['source']}",
        f"triangles: {report['triangles']}",
        f"alpha support: {len(obstruction['support'])}",
    ]
    for entry in obstruction["support"]:
        lines.append(
            f"  alpha{_face_label(entry['triangle'])} = {_affine_text(entry)}"
        )
    if obstruction["trivial"]:
        lines.append("class: trivial")
        for entry in obstruction["certificate"]:
            lines.append(
                f"  beta{_face_label(entry['edge'])} = {_affine_text(entry)}"
            )
    else:
        lines.append("class: nontrivial (no affine coboundary)")
    lines.append(
        "lattice image: "
        + ("zero" if obstruction["lattice_image_zero"] else "nonzero")
    )
    gerbe = report["gerbe"]
    lines.append(f"gerbe entries: {len(gerbe['entries'])}")
    for entry in gerbe["entries"]:
        chain = " < ".join(_face_label(ids) for ids in entry["chain"])
        lines.append(f"  g[{chain}] = {entry['value']}")
    verdict = "holds" if gerbe["cocycle_holds"] else "FAILS"
    lines.append(
        f"cocycle identity: {verdict} on {gerbe['quadruples']} nested quadruples"
    )
    return lines


# -- sheaf -------------------------------------------------------------------


def _sample_point(chart, rng):
    verts = chart.polytope.vertices
    theta = Fraction(rng.randint(1, 7), 8)
    low, high = verts[0], verts[-1]
    position = tuple(a + theta * (b - a) for a, b in zip(low, high))
    unit = tuple(
        Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        for _ in position
    )
    return MirrorPoint(position, unit)


def _require_circle(cover, label):
    if cover.dimension != 1:
        raise UsageError(
            "the line pipeline runs on one-dimensional catalogs; "
            f"{label} has dimension {cover.dimension}"
        )


def cmd_sheaf(args):
    fibration, label = _load_fibration(args)
    lagrangian = _lagrangian(args)
    cover = fibration.cover
    _require_circle(cover, label)
    precision = args.precision
    module = patch_global(lagrangian, fibration)
    validation = validate_module(module, precision)
    space = global_sections(module, precision)
    rng = random.Random(args.seed)
    samples = []
    for i, cid in enumerate(cover.chart_ids):
        chart = cover.face_chart((i,))
        complex_ = ModuleComplex(cover, (i,), {0: module.rank}, {})
        points = []
        for _ in range(3):
            point = _sample_point(chart, rng)
            ranks = fiber_cohomology(complex_, point, precision)
            points.append(
                {
                    "position": [str(x) for x in point.position],
                    "unit": [str(u) for u in point.unit],
                    "ranks": {str(d): r for d, r in sorted(ranks.items())},
                }
            )
        samples.append({"chart": cid, "points": points})
    report = {
        "command": "sheaf",
        "source": label,
        "slope": lagrangian.slope,
        "offset": str(lagrangian.offset),
        "precision": str(precision),
        "module": {"rank": module.rank, "pairs": len(module.pairs)},
        "validation": validation.as_dict(),
        "sections": {
            "rank": space.rank,
            "window": space.window,
            "stabilisation_threshold": space.threshold,
        },
        "fiber_cohomology": samples,
    }
    return report, validation.ok


def _text_sheaf(report):
    lines = [
        "twisted sheaf report",
        f"source: {report['source']}",
        f"slope: {report['slope']}",
        f"offset: {report['offset']}",
        f"precision: {report['precision']}",
        f"module rank: {report['module']['rank']}, "
        f"restriction pairs: {report['module']['pairs']}",
    ]
    validation = report["validation"]
    verdict = "ACCEPTED" if validation["ok"] else "REJECTED"
    lines.append(
        f"validation: {verdict} "
        f"({validation['pairs_checked']} pairs, "
        f"{validation['triples_checked']} triples, "
        f"{len(validation['determinant_failures'])} determinant failures, "
        f"{len(validation['cocycle_failures'])} cocycle failures)"
    )
    sections = report["sections"]
    lines.append(
        f"global sections rank: {sections['rank']} "
        f"(window {sections['window']})"
    )
    lines.append(
        f"stabilisation threshold: {sections['stabilisation_threshold']}"
    )
    lines.append("fiber cohomology (degree: rank)")
    for sample in report["fiber_cohomology"]:
        for point in sample["points"]:
            ranks = ", ".join(f"{d}: {r}" for d, r in sorted(point["ranks"].items()))
            lines.append(
                f"  chart {sample['chart']} @ {_vec_label(point['position'])}, "
                f"unit {_vec_label(point['unit'])}: {ranks}"
            )
    return lines


# -- demo --------------------------------------------------------------------


def cmd_demo(args):
    fibration, label = _load_fibration(args)
    lagrangian = _lagrangian(args)
    cover = fibration.cover
    _require_circle(cover, label)
    precision = args.precision
    module = patch_global(lagrangian, fibration)
    validation = validate_module(module, precision)
    charts = []
    for i, cid in enumerate(cover.chart_ids):
        chart = cover.face_chart((i,))
        sheets = intersections(lagrangian, chart.basepoint[0])
        charts.append(
            {
                "id": cid,
                "basepoint": [str(x) for x in chart.basepoint],
                "sheets": len(sheets),
            }
        )
    restrictions = []
    for low, top in module.pairs:
        mat = module.restriction(low, top)
        restrictions.append(
            {
                "from": _face_ids(cover, low),
                "to": _face_ids(cover, top),
                "matrix": [[str(entry) for entry in row] for row in mat],
            }
        )
    loop = list(range(len(cover.chart_ids))) + [0]
    monodromy = loop_monodromy(module)
    sheets = [
        {
            "sheet": j,
            "shift": m.shift,
            "constant": str(m.constant),
            "weight": str(m.weight),
        }
        for j, m in enumerate(monodromy)
    ]
    degree = sum((Fraction(m.shift) * m.weight for m in monodromy), Fraction(0))
    report = {
        "command": "demo",
        "source": label,
        "slope": lagrangian.slope,
        "offset": str(lagrangian.offset),
        "precision": str(precision),
        "charts": charts,
        "restrictions": restrictions,
        "monodromy": {
            "loop": [cover.chart_ids[x] for x in loop],
            "sheets": sheets,
            "degree": str(degree),
        },
        "validation": {"ok": validation.ok},
    }
    return report, validation.ok


def _text_demo(report):
    lines = [
        "family Floer demo",
        f"source: {report['source']}",
        f"slope: {report['slope']}",
        f"offset: {report['offset']}",
        f"precision: {report['precision']}",
    ]
    for chart in report["charts"]:
        lines.append(
            f"chart {chart['id']}: basepoint {_vec_label(chart['basepoint'])}, "
            f"{chart['sheets']} sheets"
        )
    for entry in report["restrictions"]:
        src = _face_label(entry["from"])
        dst = _face_label(entry["to"])
        lines.append(f"restriction {src} -> {dst}")
        for row in entry["matrix"]:
            lines.append("  [" + ", ".join(row) + "]")
    mono = report["monodromy"]
    lines.append("loop monodromy " + " -> ".join(mono["loop"]))
    for sheet in mono["sheets"]:
        lines.append(
            f"  sheet {sheet['sheet']}: shift {sheet['shift']}, "
            f"constant {sheet['constant']}, weight {sheet['weight']}"
        )
    lines.append(f"degree: {mono['degree']}")
    verdict = "ACCEPTED" if report["validation"]["ok"] else "REJECTED"
    lines.append(f"validation: {verdict}")
    return lines


# -- validate ----------------------------------------------------------------


def _module_check(fibration, precision):
    """Canonical rank-1 module audit, or refusal audit when the class
    forbids one."""
    try:
        module = canonical_twisted_module(fibration)
    except InvalidFibrationError:
        return {
            "name": "rank-1 module refused (nontrivial class)",
            "ok": True,
            "detail": "constructor raised",
        }
    validation = validate_module(module, precision)
    return {
        "name": "canonical twisted module",
        "ok": validation.ok,
        "detail": f"{validation.pairs_checked} pairs, "
        f"{validation.triples_checked} triples",
    }


def cmd_validate(args):
    fibration, label = _load_fibration(args)
    cover = fibration.cover
    precision = args.precision
    checks = []
    checks.append(
        {
            "name": "cover invariants",
            "ok": True,
            "detail": f"{len(cover.chart_ids)} charts, "
            f"{len(cover.faces_of_degree(1))} edges, "
            f"{len(cover.faces_of_degree(2))} triangles",
        }
    )
    alpha = fibration.obstruction_cocycle()
    closed = alpha.differential().is_zero()
    checks.append(
        {
            "name": "obstruction cochain closed",
            "ok": closed,
            "detail": f"support {len(alpha.support())}",
        }
    )
    gerbe = verify_gerbe(fibration)
    checks.append(
        {
            "name": "gerbe cocycle identity",
            "ok": gerbe.holds,
            "detail": f"{gerbe.quadruples} nested quadruples, "
            f"{len(gerbe.failures)} failures",
        }
    )
    checks.append(_module_check(fibration, precision))
    ok = all(check["ok"] for check in checks)
    report = {
        "command": "validate",
        "source": label,
        "precision": str(precision),
        "checks": checks,
        "ok": ok,
    }
    return report, ok


def _text_validate(report):
    lines = [
        "validation report",
        f"source: {report['source']}",
        f"precision: {report['precision']}",
    ]
    for check in report["checks"]:
        mark = "ok" if check["ok"] else "FAIL"
        lines.append(f"{check['name']}: {check['detail']}  [{mark}]")
    lines.append("result: " + ("OK" if report["ok"] else "FAIL"))
    return lines


# -- selftest ----------------------------------------------------------------


def _random_exact_scalar(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exponent = Fraction(rng.randint(-6, 12), rng.randint(1, 4))
        terms[exponent] = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)))
    return NovikovScalar(sorted(terms.items()), None)


def _random_invertible_scalar(rng):
    lead = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    terms = {lead: Fraction(rng.choice((-2, -1, 1, 2, 3)))}
    for _ in range(rng.randint(0, 2)):
        exponent = lead + Fraction(rng.randint(1, 6), rng.randint(1, 3))
        terms.setdefault(exponent, Fraction(rng.randint(1, 5)))
    if len(terms) == 1 and rng.random() < 0.5:
        return NovikovScalar(sorted(terms.items()), None)
    return NovikovScalar(sorted(terms.items()), lead + Fraction(rng.randint(4, 9)))


def _scalar_selftest(rng, count):
    failures = 0
    one = NovikovScalar.one()
    for _ in range(count):
        a = _random_exact_scalar(rng)
        b = _random_exact_scalar(rng)
        ok = (a * b).valuation() == a.valuation() + b.valuation()
        total = a + b
        floor = min(a.valuation(), b.valuation())
        ok = ok and total.valuation() >= floor
        if a.valuation() != b.valuation():
            ok = ok and total.valuation() == floor
        c = _random_invertible_scalar(rng)
        diff = c * c.inverse() - one
        if diff.cutoff is None:
            ok = ok and not diff.terms
        else:
            ok = ok and diff.is_zero_at(diff.cutoff)
        if not ok:
            failures += 1
    return {"cases": count, "failures": failures, "ok": failures == 0}


def _transport_selftest(rng, count):
    failures = 0
    for _ in range(count):
        g_x = PolyFunction(
            1,
            {(2,): Fraction(rng.randint(-4, 4), 2), (1,): Fraction(rng.randint(-6, 6), 4)},
        )
        g_y = PolyFunction(
            1,
            {(2,): Fraction(rng.randint(-4, 4), 2), (1,): Fraction(rng.randint(-6, 6), 4)},
        )
        energy = Fraction(rng.randint(0, 40), 8)
        boundary = rng.randint(-5, 5)
        q, p, r = (Fraction(rng.randint(-12, 12), 6) for _ in range(3))
        step = energy_transport(energy, boundary, q, p, g_x, g_y)
        twice = energy_transport(step, boundary, p, r, g_x, g_y)
        if twice != energy_transport(energy, boundary, q, r, g_x, g_y):
            failures += 1
    return {"cases": count, "failures": failures, "ok": failures == 0}


def _random_cochain(cover, degree, rng, span=4):
    values = {}
    n = cover.dimension
    for face in cover.faces_of_degree(degree):
        linear = tuple(rng.randrange(-span, span + 1) for _ in range(n))
        constant = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
        values[face] = AffineFunction(linear, constant)
    return AffCochain(cover, degree, values)


def _catalog_selftest(label, fibration, seed, precision):
    rng = random.Random(seed)
    cover = fibration.cover
    cochains = 20
    d_squared = 0
    for _ in range(cochains):
        degree = rng.choice((0, 1))
        cochain = _random_cochain(cover, degree, rng)
        if cochain.differential().differential().is_zero():
            d_squared += 1
    recovered = 0
    for _ in range(cochains):
        beta = _random_cochain(cover, 1, rng)
        alpha = beta.differential()
        certificate = coboundary_certificate(alpha)
        if certificate is not None and certificate.differential() == alpha:
            recovered += 1
    module_check = _module_check(fibration, precision)
    ok = d_squared == cochains and recovered == cochains and module_check["ok"]
    return {
        "id": label,
        "cochains": cochains,
        "d_squared_zero": d_squared,
        "coboundaries": cochains,
        "certificates_recovered": recovered,
        "module_check": module_check["name"],
        "module_ok": module_check["ok"],
        "ok": ok,
    }


def cmd_selftest(args):
    precision = args.precision
    if args.catalog is not None or args.manifest is not None:
        fibration, label = _load_fibration(args)
        targets = [(label, fibration)]
    else:
        targets = [(name, load_catalog(name)) for name in catalog_ids()]
    rng = random.Random(args.seed)
    scalars = _scalar_selftest(rng, 100)
    transport = _transport_selftest(rng, 100)
    # each catalog draws from its own seeded stream
    catalogs = [
        _catalog_selftest(label, fibration, args.seed + k + 1, precision)
        for k, (label, fibration) in enumerate(targets)
    ]
    ok = scalars["ok"] and transport["ok"] and all(c["ok"] for c in catalogs)
    report = {
        "command": "selftest",
        "seed": args.seed,
        "precision": str(precision),
        "scalars": scalars,
        "transport": transport,
        "catalogs": catalogs,
        "ok": ok,
    }
    return report, ok


def _text_selftest(report):
    lines = [
        "selftest",
        f"seed: {report['seed']}",
        f"precision: {report['precision']}",
        f"scalar axioms: {report['scalars']['cases']} cases, "
        f"{report['scalars']['failures']} failures",
        f"energy transport: {report['transport']['cases']} cases, "
        f"{report['transport']['failures']} failures",
    ]
    for entry in report["catalogs"]:
        if entry["module_check"] == "canonical twisted module":
            verdict = "module " + ("ACCEPTED" if entry["module_ok"] else "REJECTED")
        else:
            verdict = "rank-1 refusal " + ("verified" if entry["module_ok"] else "MISSING")
        lines.append(
            f"catalog {entry['id']}: d^2=0 on "
            f"{entry['d_squared_zero']}/{entry['cochains']} cochains, "
            f"{entry['certificates_recovered']}/{entry['coboundaries']} "
            f"certificates recovered, {verdict}"
        )
    lines.append("result: " + ("OK" if report["ok"] else "FAIL"))
    return lines


# -- dispatch ----------------------------------------------------------------


_COMMANDS = {
    "build": cmd_build,
    "gerbe": cmd_gerbe,
    "sheaf": cmd_sheaf,
    "demo": cmd_demo,
    "validate": cmd_validate,
    "selftest": cmd_selftest,
}

_TEXT = {
    "build": _text_build,
    "gerbe": _text_gerbe,
    "sheaf": _text_sheaf,
    "demo": _text_demo,
    "validate": _text_validate,
    "selftest": _text_selftest,
}


def _emit(report, mode):
    if mode == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(_TEXT[report["command"]](report)) + "\n")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, ok = _COMMANDS[args.command](args)
    except (ManifestError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MirrorForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.output)
    return 0 if ok else 1
