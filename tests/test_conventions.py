"""One caching convention and one sparse solver in the library.

A table derived from an object is a ``functools.cached_property`` of
that object, built once on first use.  The one ``lru_cache`` memoises
catalog construction in ``catalog.py``.  This guard fails on any other
memo: a write to an instance ``__dict__``, an attribute or key named
``*_cache``, or an ``lru_cache`` outside ``catalog.py``.

Rational elimination lives in ``intlinalg.py`` alone; a second guard
fails on a function or class whose name reads like a sparse or rational
kernel, nullspace, row reduction or system defined in any other module.

Novikov elimination is the one pivot pass of ``novikov.py``; a third
guard fails on any other function whose name reads like a row
reduction, an echelon or elimination step, a greedy pass or an attempt
of a headroom ladder, outside the rational home.  Its row operations
go through one fused ``x + sum(a * b)``: a further guard fails when
``_eliminate``, ``_dot`` or ``kernel_basis_at_precision`` again forms a
negated product, a running sum of products or a truncated difference.

The determinant reads one input form, sparse rows with the ring's zero;
a fourth guard fails when ``intlinalg.py`` again tells exact zeros apart
in dense rows (``_is_exact_zero``) or gives ``determinant``'s zero a
default, which is how the dense form was reached.

The section walk reads each edge's corners off the cover's cached
``edge_sides``, and the limit of an edge equation depends on the edge
and the exponent of its coefficient alone; a further guard counts the
walk's ``dot`` calls on those corners on a slope-3 line and fails when
an (edge, exponent) takes its corner minimum more than once, or never.

The Cech differential runs on the cover's integer transport table and
builds its values through the trusted constructors; a further guard
fails when a torus differential calls a checked ``AffineFunction``
method (``__init__``, ``zero``, ``__add__``, ``__neg__``) or
``AffCochain.__init__``.

Public library API is reached by the library, the benchmark or the
tools, or it is paper-facing: a last guard fails on any public class,
function, method or property of the package that no code under ``src``,
``bench`` or ``tools`` reaches, unless ``PAPER_FACING`` lists it with
the reason it stays.  A class or a top-level function is reached by its
name, an import or an attribute read; a method or property only by an
attribute read (``x.name``).  A name that two public definitions share,
or a definition and a field of a public class, is reached only by a
call that a profile hook records while the CLI, a manifest round trip
and one cycle of each benchmark workload run.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import product
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from mirrorforge import twisted_sheaves
from mirrorforge.affine import AffineFunction
from mirrorforge.catalog import load_catalog
from mirrorforge.cover import AffCochain
from mirrorforge.floer_demo import LinearLagrangian, patch_global
from mirrorforge.twisted_sheaves import (
    _edge_monomials,
    _walk_window,
    _window_exponents,
    section_radius,
)
from test_cech_differential import reference_differential

SRC = Path(__file__).resolve().parents[1] / "src" / "mirrorforge"
LRU_CACHE_ALLOWED = {"catalog.py"}
SOLVER_HOME = "intlinalg.py"
SOLVER_NAME = re.compile(
    r"^\s*(?:def|class)\s+(\w*(?:sparse|rational)\w*(?:kernel|nullspace|rref|system)\w*)",
    re.IGNORECASE,
)


def violations(filename, text):
    found = []
    for number, line in enumerate(text.splitlines(), 1):
        where = f"{filename}:{number}"
        if "__dict__" in line:
            found.append(f"{where}: instance __dict__")
        names = set(re.findall(r"\w+_cache\b", line)) - {"lru_cache"}
        if names:
            found.append(f"{where}: cache attribute {sorted(names)}")
        if "lru_cache" in line and filename not in LRU_CACHE_ALLOWED:
            found.append(f"{where}: lru_cache outside the catalog")
    return found


def test_the_library_keeps_one_caching_convention():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [v for path in files for v in violations(path.name, path.read_text())]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "line",
    [
        'cache = self.__dict__.setdefault("_face_chart_cache", {})',
        "self._cert_cache = None",
        'cover.__dict__["_nested_pairs_cache"] = result',
        "@functools.lru_cache(maxsize=None)",
        "from functools import lru_cache",
    ],
)
def test_the_guard_sees_each_old_mechanism(line):
    assert violations("cover.py", line)


def test_the_guard_allows_cached_properties_and_the_catalog_cache():
    prop = "    @cached_property\n    def nested_pairs(self):"
    memo = "from functools import lru_cache\n@lru_cache(maxsize=None)"
    assert not violations("cover.py", prop)
    assert not violations("catalog.py", memo)


def solver_definitions(filename, text):
    if filename == SOLVER_HOME:
        return []
    return [
        f"{filename}:{number}: solver {match.group(1)} outside {SOLVER_HOME}"
        for number, line in enumerate(text.splitlines(), 1)
        if (match := SOLVER_NAME.match(line))
    ]


def test_rational_elimination_lives_in_intlinalg_alone():
    files = sorted(SRC.glob("*.py"))
    assert SOLVER_HOME in {path.name for path in files}
    found = [
        v for path in files for v in solver_definitions(path.name, path.read_text())
    ]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "filename, line",
    [
        ("twisted_sheaves.py", "def _sparse_kernel(rows, n_columns):"),
        ("cover.py", "class PresolvedRationalSystem:"),
        ("cover.py", "    def rational_nullspace(mat):"),
        ("affine.py", "def _rational_rref(rows):"),
    ],
)
def test_the_solver_guard_sees_a_second_solver(filename, line):
    assert solver_definitions(filename, line)


def test_the_solver_guard_allows_intlinalg_and_other_names():
    text = "def sparse_kernel(rows, n_columns, ground=None):\nclass SparseRationalSystem:"
    assert not solver_definitions(SOLVER_HOME, text)
    others = "class _SectionSystem:\ndef _monomial_system(module):\n    # sparse kernel"
    assert not solver_definitions("twisted_sheaves.py", others)


NOVIKOV_PASS = {
    ("novikov.py", "_eliminate"),
    ("novikov.py", "_pivot_elimination"),
    # Fourier-Motzkin elimination of a variable from halfspaces
    ("affine.py", "_fm_eliminate"),
}
ELIMINATION_NAME = re.compile(
    r"^\s*def\s+(\w*(?:rref|echelon|eliminat|greedy|_attempt)\w*)", re.IGNORECASE
)


def elimination_definitions(filename, text):
    if filename == SOLVER_HOME:
        return []
    return [
        f"{filename}:{number}: second Novikov elimination {match.group(1)}"
        for number, line in enumerate(text.splitlines(), 1)
        if (match := ELIMINATION_NAME.match(line))
        and (filename, match.group(1)) not in NOVIKOV_PASS
    ]


def test_novikov_elimination_is_one_pass():
    files = sorted(SRC.glob("*.py"))
    defined = {
        (path.name, match.group(1))
        for path in files
        for line in path.read_text().splitlines()
        if (match := ELIMINATION_NAME.match(line))
    }
    assert NOVIKOV_PASS <= defined
    found = [
        v
        for path in files
        for v in elimination_definitions(path.name, path.read_text())
    ]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "filename, line",
    [
        ("novikov.py", "def _rref_attempt(self, precision, working):"),
        ("novikov.py", "    def _rref_attempt(self, precision, working):"),
        ("novikov.py", "    def _rref_at(self, precision):"),
        ("novikov.py", "    def greedy_rank_at_precision(self, precision, choose=True):"),
        ("novikov.py", "def greedy_rank(rows, precision):"),
        ("novikov.py", "    def _greedy_attempt(self, precision, working, choose):"),
        ("twisted_sheaves.py", "def _echelon_rows(rows, precision):"),
        ("floer_demo.py", "def _eliminate(row, pivot, column, working):"),
        # the echelon pass the pivot pass replaced
        ("novikov.py", "def _echelon_insert(slots, spare, row, precision, working, husks=False):"),
        ("novikov.py", "def _greedy_pass(rows, precision, working, husks=False):"),
    ],
)
def test_the_elimination_guard_sees_a_second_pass(filename, line):
    assert elimination_definitions(filename, line)


def test_the_elimination_guard_allows_the_one_pass_and_other_names():
    text = "def _pivot_elimination(rows, precision, working):"
    assert not elimination_definitions("novikov.py", text)
    assert not elimination_definitions(SOLVER_HOME, "def rational_rref(mat):")
    others = (
        "def rank_at_precision(self, precision):\n"
        "def _lead_factor(pivot, column):"
    )
    assert not elimination_definitions("novikov.py", others)


NOVIKOV = SRC / "novikov.py"
FUSED_CALLERS = {"_eliminate", "_dot", "kernel_basis_at_precision"}
UNFUSED_FORM = re.compile(
    r"- factor \*|-\(factor|-\(total \*|total \+ entry \*|\)\.truncate\(working\)"
)


def unfused_row_operations(text):
    """Lines of _eliminate, _dot and kernel_basis_at_precision that form
    a negated product, a running sum of products or a truncation of a
    formed difference: the work the fused row operation does in one
    pass."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.FunctionDef) and node.name in FUSED_CALLERS:
            lines = ast.get_source_segment(text, node).splitlines()
            found += [
                f"novikov.py:{node.lineno + n}: {node.name}: {line.strip()}"
                for n, line in enumerate(lines)
                if UNFUSED_FORM.search(line)
            ]
    return found


def test_novikov_row_operations_are_fused():
    text = NOVIKOV.read_text()
    defined = {n.name for n in ast.walk(ast.parse(text)) if isinstance(n, ast.FunctionDef)}
    assert FUSED_CALLERS <= defined
    found = unfused_row_operations(text)
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "text",
    [
        # _eliminate, _dot and the back-substitution of the kernel as
        # they stood before the fused operation
        "def _eliminate(row, pivot, column, working):\n"
        "    value = (-(factor * y) if x is None else x - factor * y).truncate(working)",
        "def _eliminate(row, pivot, column, working):\n"
        "    value = (x - factor * y).truncate(working)",
        "def _dot(row, values):\n"
        "    total = NovikovScalar.zero()\n"
        "    for j, x in values.items():\n"
        "        total = total + entry * x\n"
        "    return total",
        "class NovikovMatrix:\n"
        "    def kernel_basis_at_precision(self, precision):\n"
        "        values[c] = -(total * row[c].inverse())",
    ],
)
def test_the_fused_row_guard_sees_the_old_forms(text):
    assert unfused_row_operations(text)


def test_the_fused_row_guard_allows_the_fused_calls_and_other_functions():
    fused = (
        "def _eliminate(row, pivot, column, working):\n"
        "    value = _add_products(x, ((factor, y),), working)\n"
        "def _pivot_elimination(rows, precision, working):\n"
        "    x = x.truncate(working)\n"
        "def _reference(x, factor, y, working):\n"
        "    return (x - factor * y).truncate(working)"
    )
    assert not unfused_row_operations(fused)


TWISTED = SRC / "twisted_sheaves.py"
DENSE_FORM = re.compile(r"\b_dense\b|\b_aff_matmul\b")


def dense_form_lines(text):
    return [
        f"twisted_sheaves.py:{number}: {line.strip()}"
        for number, line in enumerate(text.splitlines(), 1)
        if DENSE_FORM.search(line)
    ]


def test_a_twisted_module_keeps_one_form():
    # the sparse rows are the module's only form: no dense copy and no
    # dense matrix product in the cocycle pass
    found = dense_form_lines(TWISTED.read_text())
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "line",
    [
        "        self._dense = data",
        "        mat = self._dense.get(pair)",
        "def _aff_matmul(a, b):",
        "        left = _aff_matmul(restrictions[(mid, top)], restricted)",
    ],
)
def test_the_form_guard_sees_a_dense_copy(line):
    assert dense_form_lines(line)


INTLINALG = SRC / SOLVER_HOME


def second_determinant_forms(text):
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name == "_is_exact_zero":
            found.append(f"intlinalg.py:{node.lineno}: dense zero test _is_exact_zero")
        if node.name == "determinant":
            names = [arg.arg for arg in node.args.args]
            defaulted = names[len(names) - len(node.args.defaults):]
            if "zero" not in names or "zero" in defaulted:
                found.append(f"intlinalg.py:{node.lineno}: determinant without a required zero")
    return found


def test_the_determinant_reads_one_form():
    text = INTLINALG.read_text()
    assert "def determinant(" in text
    found = second_determinant_forms(text)
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "text",
    [
        "def _is_exact_zero(x):\n    return x == 0",
        "def determinant(rows, zero=None):\n    pass",
        "def determinant(rows):\n    pass",
    ],
)
def test_the_determinant_guard_sees_a_dense_form(text):
    assert second_determinant_forms(text)


def test_the_determinant_guard_allows_the_sparse_signature():
    assert not second_determinant_forms("def determinant(rows, zero):\n    pass")


# -- the walk's corner minimum ------------------------------------------------


def corner_minima(walk, module, radius, precision):
    """How often one call of walk dots each cached edge corner with each
    edge coefficient exponent: {(edge, corner, cexp): calls}.

    A dot call whose first argument is one of the tuples in the cover's
    edge_sides corners is a corner-minimum call; the tuples are told
    apart by identity, so a walk that rescales its own copies shows no
    corner minimum at all.
    """
    _, corners, _ = module.cover.edge_sides
    owner = {id(v): (edge, n) for edge, vs in corners.items() for n, v in enumerate(vs)}
    seen = {}
    dot = twisted_sheaves.dot

    def recording(a, b):
        corner = owner.get(id(a))
        if corner is not None:
            key = (corner[0], corner[1], tuple(b))
            seen[key] = seen.get(key, 0) + 1
        return dot(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twisted_sheaves, "dot", recording)
        walk(module, _edge_monomials(module), radius, precision)
    return seen


def reached_edge_exponents(module, radius):
    # every (edge, cexp) an edge coefficient of the window reaches: z^a
    # on chart i moved to the edge, times each sheet's monomial z^b
    cover = module.cover
    reached = set()
    for (i, edge), sheets in _edge_monomials(module).items():
        mt, _ = cover.restriction_moves[1][(edge, i)]
        for a in _window_exponents(cover.dimension, radius):
            moved = [sum(r * x for r, x in zip(row, a)) for row in mt]
            for b, _, _ in sheets:
                reached.add((edge, tuple(x + y for x, y in zip(moved, b))))
    return reached


def corner_minimum_faults(seen, reached, corners):
    """Each reached (edge, cexp) must dot each corner of its edge exactly
    once, and nothing else may be dotted with a corner."""
    found = [
        f"{edge} corner {n} dotted with {cexp} {calls} times"
        for (edge, n, cexp), calls in seen.items()
        if calls != 1
    ]
    expected = {(edge, n, cexp) for edge, cexp in reached for n in range(len(corners[edge]))}
    missing, extra = expected - set(seen), set(seen) - expected
    found += [f"{edge} corner {n} never dotted with {cexp}" for edge, n, cexp in missing]
    found += [f"{edge} corner {n} dotted with unreached {cexp}" for edge, n, cexp in extra]
    return sorted(found)


def slope_three_line():
    return patch_global(LinearLagrangian(3, Fraction(1, 3)), load_catalog("elliptic-demo"))


def test_the_walk_takes_each_corner_minimum_once():
    # the limit of an edge equation depends on the edge and the exponent
    # of its coefficient alone, not on the sheet: on a slope-3 line each
    # (edge, cexp) takes its minimum once, not three times
    module = slope_three_line()
    precision = Fraction(4)
    radius = section_radius(module, precision)
    seen = corner_minima(_walk_window, module, radius, precision)
    reached = reached_edge_exponents(module, radius)
    assert seen and reached
    found = corner_minimum_faults(seen, reached, module.cover.edge_sides[1])
    assert not found, "\n".join(found)


def test_the_corner_guard_sees_a_minimum_per_sheet():
    # the shape of a walk taking one corner minimum per (edge, cexp,
    # sheet): on a slope-3 line, three dot calls per corner
    module = slope_three_line()
    corners = module.cover.edge_sides[1]
    reached = reached_edge_exponents(module, 2)
    per_sheet = {
        (edge, n, cexp): module.rank for edge, cexp in reached for n in range(len(corners[edge]))
    }
    assert corner_minimum_faults(per_sheet, reached, corners)


def test_the_corner_guard_sees_a_walk_that_reads_no_cached_corner():
    module = slope_three_line()
    assert corner_minimum_faults({}, reached_edge_exponents(module, 2), module.cover.edge_sides[1])


def test_the_corner_guard_sees_a_second_walk_in_one_call():
    # mutant: one call that walks twice takes every minimum twice
    def walk_twice(*args):
        _walk_window(*args)
        return _walk_window(*args)

    module = slope_three_line()
    seen = corner_minima(walk_twice, module, 2, Fraction(4))
    reached = reached_edge_exponents(module, 2)
    assert corner_minimum_faults(seen, reached, module.cover.edge_sides[1])


# -- the Cech differential on ints ---------------------------------------------

CHECKED_ARITHMETIC = (
    (AffineFunction, "__init__"),
    (AffineFunction, "zero"),
    (AffineFunction, "__add__"),
    (AffineFunction, "__neg__"),
    (AffCochain, "__init__"),
)


def checked_calls(differential, cochain):
    """The checked AffineFunction and AffCochain methods that one call
    of differential on cochain reaches, in call order."""
    calls = []

    def recording(name, method):
        if isinstance(method, classmethod):
            return classmethod(recording(name, method.__func__))

        def recorded(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        for owner, name in CHECKED_ARITHMETIC:
            qualified = f"{owner.__name__}.{name}"
            patch.setattr(owner, name, recording(qualified, owner.__dict__[name]))
        differential(cochain)
    return calls


def torus_cochains():
    # thurston-f2 cochains of degrees 0, 1 and 2 with fractional constants
    cover = load_catalog("thurston-f2").cover
    return [
        AffCochain(
            cover,
            degree,
            {
                face: AffineFunction((n % 3 - 1, n % 2), Fraction(n - 5, n % 4 + 1))
                for n, face in enumerate(cover.faces_of_degree(degree))
                if n % 5
            },
        )
        for degree in (0, 1, 2)
    ]


def test_the_torus_differential_runs_no_checked_arithmetic():
    for cochain in torus_cochains():
        assert not cochain.differential().is_zero()
        assert checked_calls(AffCochain.differential, cochain) == []


def checked_result(cochain):
    # mutant: the differential's values passed back through the checks
    return AffCochain(cochain.cover, cochain.degree + 1, cochain.differential()._values)


def test_the_arithmetic_guard_sees_the_checked_body():
    # the body as it stood reaches every checked method
    everything = {f"{owner.__name__}.{name}" for owner, name in CHECKED_ARITHMETIC}
    for cochain in torus_cochains():
        assert set(checked_calls(reference_differential, cochain)) == everything


def test_the_arithmetic_guard_sees_a_checked_result():
    for cochain in torus_cochains():
        assert checked_calls(checked_result, cochain) == ["AffCochain.__init__"]


def test_the_arithmetic_guard_allows_the_trusted_constructors():
    def trusted_copy(cochain):
        values = {
            face: AffineFunction._trusted(fn.linear, fn.constant)
            for face, fn in cochain._values.items()
        }
        return AffCochain._trusted(cochain.cover, cochain.degree, values)

    for cochain in torus_cochains():
        assert checked_calls(trusted_copy, cochain) == []
        assert trusted_copy(cochain) == cochain


# -- public API that only the tests reach -------------------------------------

ROOT = SRC.parents[1]
REACHING = ("src", "bench", "tools")
# what the library reproduces of the paper without a CLI caller, one
# reason per name
PAPER_FACING = (
    ("converges_on", "which series are functions on a mirror chart"),
    ("MaxAffineValuation", "a declared class of coefficient valuations converges_on decides"),
    ("QuadraticValuation", "the quadratic class, the valuations of theta-type series"),
    ("path_monomial_map", "the mirror coordinate change along a path of charts"),
    ("exp_aff", "exp of an affine function on a face chart, the gerbe's building block"),
    ("AffinoidElement.restrict", "restriction along a face inclusion: the mirror's structure sheaf"),
    ("AffinoidElement.with_basepoint", "one function read at another basepoint of its chart"),
    ("NovikovScalar.agrees_with", "equality in the Novikov field up to the precision both know"),
    ("IntegralAffinePolytope.from_inequalities", "a chart polytope from its halfspaces alone"),
    ("sheet_coordinate", "the fibre coordinate of a Lagrangian sheet over a base point"),
    ("restriction_factor", "the transport of a sheet generator between basepoints"),
    ("change_trivialisation", "the module map between two trivialisations of the same sheets"),
    ("section_radius", "the certified monomial window behind every section count"),
    ("SectionSpace.sections", "the global sections themselves, not only their rank"),
    ("SectionSpace.ranks", "the section rank modulo t^p at each integer precision p"),
    ("AffinoidElement.evaluate", "a function on a mirror chart evaluated at a mirror point"),
    ("AffinoidElement.weight", "the weight min <v - q, A> of a monomial on its face polytope"),
    ("AffinoidElement.monomial", "one monomial z^A, as change_trivialisation builds it"),
    ("MonomialChartMap.identity", "the coordinate change along a path of one chart"),
)


def public_definitions(filename, text):
    """(qualified name, name, place) of each public class, function,
    method and property of a module: a name with no leading underscore,
    at the top level or in a public class."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                found.append((owner + node.name, node.name, f"{filename}:{node.lineno}"))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node.name + ".")

    visit(ast.parse(text).body, "")
    return found


def field_names(text):
    """The annotated fields of each public class of a module, dataclass
    fields among them."""
    return [
        item.target.id
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef) and node.name[0] != "_"
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def reached_names(text):
    """(attributes, names): every name a module reads as an attribute
    (``x.name``), and every name it reads bare or imports."""
    attributes, names = set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return attributes, names


def unreached_definitions(library, users, allowed, called=frozenset()):
    """The public names of library ({filename: text}) that no text of
    users reaches, less the qualified names allowed.

    A method or property is reached only through an attribute access of
    its name; a class or a top-level function also through a bare name
    or an import.  A name that two public definitions, or a definition
    and a field of a public class, share is reached only when called
    holds its (filename, qualified name)."""
    attributes, names = set(), set()
    for text in users:
        read, bare = reached_names(text)
        attributes |= read
        names |= bare
    definitions = [
        (filename, *definition)
        for filename, text in library.items()
        for definition in public_definitions(filename, text)
    ]
    declared = Counter(name for _, _, name, _ in definitions)
    declared.update(name for text in library.values() for name in field_names(text))
    found = []
    for filename, qualified, name, place in definitions:
        if declared[name] > 1:
            reached = (filename, qualified) in called
        elif "." in qualified:
            reached = name in attributes
        else:
            reached = name in attributes or name in names
        if not reached and qualified not in allowed:
            found.append(f"{place}: {qualified} is reached only by tests")
    return found


CIRCLES = ("elliptic-demo", "split-torus-2")


def drive_the_library():
    """Run what the library is for: build, gerbe and validate on each
    catalog, one selftest, sheaf and demo on both circles at slopes 2
    and -1, a manifest round trip of each catalog, and one cycle of each
    benchmark workload, as tests/test_bench_contract.py runs them."""
    from mirrorforge import cli
    from mirrorforge.catalog import catalog_ids
    from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration

    sys.path.insert(0, str(ROOT / "bench"))
    import harness
    from workloads import WORKLOADS

    library = SimpleNamespace(
        **{m: importlib.import_module(f"mirrorforge.{m}") for m in harness.LIBRARY_MODULES}
    )
    runs = [[c, "--catalog", n] for n in catalog_ids() for c in ("build", "gerbe", "validate")]
    runs.append(["selftest"])
    for name, slope, command in product(CIRCLES, ("2", "-1"), ("sheaf", "demo")):
        runs.append([command, "--catalog", name, "--slope", slope])
    with contextlib.redirect_stdout(io.StringIO()):
        for args in runs:
            cli.main(args)
    for name in catalog_ids():
        manifest_to_fibration(fibration_to_manifest(load_catalog(name)))
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name](library)
        tracer = harness.Tracer()
        for job in workload.cycle(0, 0):
            workload.run(job, tracer)


def record_calls(drive):
    """(filename, qualified name) of each library function, method and
    property that drive runs, read off the code objects (``co_qualname``,
    Python 3.11) that a profile hook sees called."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        drive()
    finally:
        sys.setprofile(None)
    return {
        (Path(code.co_filename).name, code.co_qualname)
        for code in codes
        if Path(code.co_filename).parent == SRC
    }


def recorded_library_calls():
    """record_calls of drive_the_library, run in a fresh interpreter so
    that no catalog or table an earlier test built is already cached."""
    script = (
        "import json, test_conventions as t\n"
        "print(json.dumps(sorted(t.record_calls(t.drive_the_library))))"
    )
    path = os.pathsep.join(map(str, (SRC.parent, Path(__file__).parent)))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return {tuple(call) for call in json.loads(result.stdout)}


def test_public_api_is_reached_or_paper_facing():
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = [path.read_text() for d in REACHING for path in sorted((ROOT / d).rglob("*.py"))]
    assert len(users) > len(library)
    defined = {q for name, text in library.items() for q, _, _ in public_definitions(name, text)}
    allowed = {name for name, _ in PAPER_FACING}
    assert allowed <= defined, f"not defined: {sorted(allowed - defined)}"
    assert all(reason and "\n" not in reason for _, reason in PAPER_FACING)
    found = unreached_definitions(library, users, allowed, recorded_library_calls())
    assert not found, "\n".join(found)


POLYTOPE = (
    "class IntegralAffinePolytope:\n"
    "    def contains(self, point):\n"
    "        return True\n"
    "    def contains_polytope(self, other):\n"
    "        return all(self.contains(v) for v in other.vertices)\n"
    "    def _scaled(self):\n"
    "        pass\n"
)
COVER = (
    "from .affine import IntegralAffinePolytope\n"
    "def _validate(polys):\n"
    "    return polys[0].contains((0,))\n"
)
UNREACHED = "affine.py:4: IntegralAffinePolytope.contains_polytope is reached only by tests"


def test_the_api_guard_sees_a_helper_only_tests_call():
    # the tests' own calls are not among the users
    found = unreached_definitions({"affine.py": POLYTOPE}, [POLYTOPE, COVER], set())
    assert found == [UNREACHED]


def test_the_api_guard_sees_a_method_reached_only_through_a_bare_name():
    # a local variable of the same name is not a call of the method
    tool = "def check(p, q):\n    contains_polytope = p.contains(q)\n"
    found = unreached_definitions({"affine.py": POLYTOPE}, [POLYTOPE, COVER, tool], set())
    assert found == [UNREACHED]


SCALAR = "class NovikovScalar:\n    def contains_polytope(self):\n        pass\n"
REPORT = "@dataclass\nclass Report:\n    contains_polytope: bool\n"
# the classes themselves are reached
IMPORTS = "from .novikov import NovikovScalar\nfrom .cover import Report\n"


def test_the_api_guard_sees_a_shared_name_with_no_recorded_call():
    # a mention of a name two classes define does not tell which one runs
    tool = "def check(p, q):\n    return p.contains_polytope(q)\n"
    library = {"affine.py": POLYTOPE, "novikov.py": SCALAR}
    called = {("novikov.py", "NovikovScalar.contains_polytope")}
    found = unreached_definitions(library, [POLYTOPE, COVER, IMPORTS, tool], set(), called)
    assert found == [UNREACHED]


def test_the_api_guard_sees_a_name_shared_with_a_field():
    tool = "def check(r):\n    return r.contains_polytope\n"
    library = {"affine.py": POLYTOPE, "cover.py": REPORT}
    found = unreached_definitions(library, [POLYTOPE, COVER, IMPORTS, tool], set())
    assert found == [UNREACHED]


def test_the_api_guard_allows_a_shared_name_with_a_recorded_call():
    tool = "def check(p, q):\n    return p.contains_polytope(q)\n"
    library = {"affine.py": POLYTOPE, "novikov.py": SCALAR}
    called = {
        ("affine.py", "IntegralAffinePolytope.contains_polytope"),
        ("novikov.py", "NovikovScalar.contains_polytope"),
    }
    assert not unreached_definitions(library, [POLYTOPE, COVER, IMPORTS, tool], set(), called)


def test_the_api_guard_allows_reached_and_paper_facing_names():
    tool = "def check(p, q):\n    return p.contains_polytope(q)\n"
    assert not unreached_definitions({"affine.py": POLYTOPE}, [POLYTOPE, COVER, tool], set())
    allowed = {"IntegralAffinePolytope.contains_polytope"}
    assert not unreached_definitions({"affine.py": POLYTOPE}, [POLYTOPE, COVER], allowed)


def test_the_recording_sees_what_runs():
    called = record_calls(lambda: load_catalog.__wrapped__("elliptic-demo").cover.nested_pairs)
    assert ("catalog.py", "_circle_cover") in called
    assert ("cover.py", "Cover.nested_pairs") in called
    assert not any(name == "test_conventions.py" for name, _ in called)
