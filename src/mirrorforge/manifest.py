"""Cover descriptions as canonical JSON manifests.

A manifest fixes the chart order, each chart's polytope, the declared
nerve, one transition per edge, and the monodromy primitives.  Rational
numbers are strings ("5/12"), integers are JSON numbers, and emission
is canonical: stable ordering, sorted keys, two-space indent, trailing
newline.  Parsing a produced manifest and emitting it again is
byte-identical.

Overlap polytopes of higher faces are not stored; they are recomputed
exactly as chart intersections on load.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .affine import IntegralAffineMap, IntegralAffinePolytope, PolyFunction
from .cover import FibrationData, _cover_from_charts
from .errors import InvalidPolytopeError, ManifestError


def _fail(path, message):
    raise ManifestError(f"{path}: {message}")


def _get(obj, path, key, kind):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    if key not in obj:
        _fail(path, f"missing key {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        _fail(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _check_keys(obj, path, allowed):
    extra = set(obj) - set(allowed)
    if extra:
        _fail(path, f"unknown keys {sorted(extra)}")


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    return value


def _rat(value, path):
    if not isinstance(value, str):
        _fail(path, "expected a rational written as a string, like \"5/12\"")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        _fail(path, f"cannot parse rational {value!r}")


def _int_list(value, path, length=None):
    if not isinstance(value, list):
        _fail(path, "expected a list of integers")
    if length is not None and len(value) != length:
        _fail(path, f"expected exactly {length} entries")
    return [_int(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _rat_list(value, path, length=None):
    if not isinstance(value, list):
        _fail(path, "expected a list of rational strings")
    if length is not None and len(value) != length:
        _fail(path, f"expected exactly {length} entries")
    return [_rat(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _polytope_from_json(obj, path, dimension):
    _check_keys(obj, path, ("inequalities", "vertices"))
    raw_ineqs = _get(obj, path, "inequalities", list)
    ineqs = []
    for i, entry in enumerate(raw_ineqs):
        epath = f"{path}.inequalities[{i}]"
        _check_keys(entry if isinstance(entry, dict) else {}, epath, ("normal", "bound"))
        normal = _int_list(_get(entry, epath, "normal", list), f"{epath}.normal", dimension)
        bound = _rat(_get(entry, epath, "bound", None), f"{epath}.bound")
        ineqs.append((tuple(normal), bound))
    raw_verts = _get(obj, path, "vertices", list)
    verts = [
        tuple(_rat_list(v, f"{path}.vertices[{i}]", dimension))
        for i, v in enumerate(raw_verts)
    ]
    try:
        return IntegralAffinePolytope(dimension, ineqs, verts)
    except InvalidPolytopeError as exc:
        _fail(path, str(exc))


def _polytope_to_json(poly):
    return {
        "inequalities": [
            {"normal": list(normal), "bound": str(bound)}
            for normal, bound in sorted(poly.inequalities)
        ],
        "vertices": [[str(x) for x in v] for v in poly.vertices],
    }


def manifest_to_fibration(text):
    """Parse manifest text into FibrationData (cover plus primitives)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"manifest is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        _fail("manifest", "top level must be an object")
    _check_keys(
        data, "manifest", ("dimension", "charts", "cover", "transitions", "fibration")
    )
    dimension = _int(_get(data, "manifest", "dimension", None), "manifest.dimension")
    if dimension < 1:
        _fail("manifest.dimension", "must be at least 1")

    raw_charts = _get(data, "manifest", "charts", list)
    if not raw_charts:
        _fail("manifest.charts", "at least one chart is required")
    ids = []
    chart_polys = {}
    for i, entry in enumerate(raw_charts):
        path = f"manifest.charts[{i}]"
        if not isinstance(entry, dict):
            _fail(path, "expected an object")
        _check_keys(entry, path, ("id", "polytope"))
        cid = _get(entry, path, "id", str)
        if cid in ids:
            _fail(f"{path}.id", f"duplicate chart id {cid!r}")
        ids.append(cid)
        chart_polys[i] = _polytope_from_json(
            _get(entry, path, "polytope", dict), f"{path}.polytope", dimension
        )
    index = {cid: i for i, cid in enumerate(ids)}

    cover_obj = _get(data, "manifest", "cover", dict)
    _check_keys(cover_obj, "manifest.cover", ("faces",))
    faces = set()
    for i, raw in enumerate(_get(cover_obj, "manifest.cover", "faces", list)):
        path = f"manifest.cover.faces[{i}]"
        if not isinstance(raw, list) or not raw:
            _fail(path, "expected a non-empty list of chart ids")
        members = []
        for j, cid in enumerate(raw):
            if not isinstance(cid, str) or cid not in index:
                _fail(f"{path}[{j}]", f"unknown chart id {cid!r}")
            members.append(index[cid])
        if len(set(members)) != len(members):
            _fail(path, "repeated chart in face")
        faces.add(tuple(sorted(members)))

    transitions = {}
    for i, raw in enumerate(_get(data, "manifest", "transitions", list)):
        path = f"manifest.transitions[{i}]"
        if not isinstance(raw, dict):
            _fail(path, "expected an object")
        _check_keys(raw, path, ("from", "to", "linear", "translation"))
        src = _get(raw, path, "from", str)
        dst = _get(raw, path, "to", str)
        if src not in index:
            _fail(f"{path}.from", f"unknown chart id {src!r}")
        if dst not in index:
            _fail(f"{path}.to", f"unknown chart id {dst!r}")
        si, di = index[src], index[dst]
        if si >= di:
            _fail(path, "transitions must go from the earlier chart to the later one")
        if (si, di) in transitions:
            _fail(path, f"duplicate transition {src!r} -> {dst!r}")
        raw_linear = _get(raw, path, "linear", list)
        if len(raw_linear) != dimension:
            _fail(f"{path}.linear", f"expected {dimension} rows")
        linear = [
            _int_list(row, f"{path}.linear[{r}]", dimension)
            for r, row in enumerate(raw_linear)
        ]
        translation = _rat_list(
            _get(raw, path, "translation", list), f"{path}.translation", dimension
        )
        try:
            transitions[(si, di)] = IntegralAffineMap(linear, translation)
        except ValueError as exc:
            _fail(path, str(exc))

    primitives = {}
    fib_obj = data.get("fibration", {"primitives": []})
    if not isinstance(fib_obj, dict):
        _fail("manifest.fibration", "expected an object")
    _check_keys(fib_obj, "manifest.fibration", ("primitives",))
    for i, raw in enumerate(fib_obj.get("primitives", [])):
        path = f"manifest.fibration.primitives[{i}]"
        if not isinstance(raw, dict):
            _fail(path, "expected an object")
        _check_keys(raw, path, ("pair", "poly"))
        pair = _get(raw, path, "pair", list)
        if len(pair) != 2 or any(p not in index for p in pair):
            _fail(f"{path}.pair", "expected two known chart ids")
        edge = tuple(sorted(index[p] for p in pair))
        if edge in primitives:
            _fail(path, "duplicate primitive for this edge")
        terms = {}
        for j, term in enumerate(_get(raw, path, "poly", list)):
            tpath = f"{path}.poly[{j}]"
            if not isinstance(term, dict):
                _fail(tpath, "expected an object")
            _check_keys(term, tpath, ("powers", "coeff"))
            powers = tuple(
                _int_list(_get(term, tpath, "powers", list), f"{tpath}.powers", dimension)
            )
            coeff = _rat(_get(term, tpath, "coeff", None), f"{tpath}.coeff")
            if powers in terms:
                _fail(tpath, "repeated exponent tuple")
            terms[powers] = coeff
        try:
            primitives[edge] = PolyFunction(dimension, terms)
        except ValueError as exc:
            _fail(f"{path}.poly", str(exc))

    cover = _cover_from_charts(dimension, ids, chart_polys, faces, transitions)
    for i, poly in chart_polys.items():
        # the cover recomputes each chart's vertices from its inequalities
        if poly.vertices != cover.polytope((i,)).vertices:
            _fail(
                f"manifest.charts[{i}].polytope.vertices",
                "the declared vertices are not the vertices of the inequalities",
            )
    return FibrationData(cover, primitives)


def fibration_to_manifest(fib):
    """Canonical manifest text for a fibration."""
    cover = fib.cover
    ids = cover.chart_ids
    charts = [
        {"id": cid, "polytope": _polytope_to_json(cover.polytope((i,)))}
        for i, cid in enumerate(ids)
    ]
    faces = [
        [ids[x] for x in face]
        for face in sorted(cover.faces, key=lambda f: (len(f), f))
    ]
    transitions = []
    for edge in cover.faces_of_degree(1):
        i, j = edge
        phi = cover.transition(i, j)
        transitions.append(
            {
                "from": ids[i],
                "to": ids[j],
                "linear": [list(row) for row in phi.linear],
                "translation": [str(x) for x in phi.translation],
            }
        )
    primitives = []
    for edge in cover.faces_of_degree(1):
        poly = fib.primitive(edge)
        if poly.is_zero():
            continue
        primitives.append(
            {
                "pair": [ids[edge[0]], ids[edge[1]]],
                "poly": [
                    {"powers": list(powers), "coeff": str(coeff)}
                    for powers, coeff in sorted(poly.terms.items())
                ],
            }
        )
    data = {
        "dimension": cover.dimension,
        "charts": charts,
        "cover": {"faces": faces},
        "transitions": transitions,
        "fibration": {"primitives": primitives},
    }
    return json.dumps(data, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
