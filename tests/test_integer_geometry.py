"""Integer-scaled cover geometry against the Fraction code it replaced.

The vertex search of ``IntegralAffinePolytope.from_inequalities``, the
moved bounds of ``_scaled_image``, the checked constructor's
feasibility and tightness loops and the containment loop of
``Cover._validate`` compare on ints, after one scaling over a common
denominator, and the extreme-point test reads the Smith form of the
tight normals; the manifest path hands the face searches their halfspaces
on ints, and ``IntegralAffineMap.inverse`` and
``compose`` work on ints and build their results unchecked.  The
Fraction versions live on here as references: every result must agree
with them in value, type and order, and every refusal in its message.
"""

import random
import time
import warnings
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from mirrorforge.affine import (
    IntegralAffineMap,
    IntegralAffinePolytope,
    _frac_vec,
    _int_vec,
    dot,
    recession_cone_is_trivial,
)
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cover import Cover, analyze_obstruction
from mirrorforge.errors import InvalidCoverError, InvalidPolytopeError
from mirrorforge.intlinalg import (
    SparseRationalSystem,
    _back_substitute,
    _reduce,
    _store_pivot,
)
from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration
from mirrorforge.mirror_charts import verify_gerbe
from mirrorforge.novikov import _frac
from test_sparse_solver import image_inequalities

F = Fraction

# -- the Fraction references ---------------------------------------------


def _primitive(normal, bound):
    g = 0
    for x in normal:
        g = gcd(g, abs(x))
    if g == 0:
        raise InvalidPolytopeError("zero normal vector in inequality")
    return tuple(x // g for x in normal), bound / g


def reference_from_inequalities(dimension, inequalities):
    """The Fraction vertex search, as (inequalities, vertices)."""
    cleaned = {}
    for normal, bound in inequalities:
        normal, bound = _primitive(_int_vec(normal, "inequality normals"), _frac(bound))
        cleaned[normal] = min(cleaned[normal], bound) if normal in cleaned else bound
    ineqs = sorted(cleaned.items())
    if dimension == 1:
        los = [b / n[0] for n, b in ineqs if n[0] < 0]
        his = [b / n[0] for n, b in ineqs if n[0] > 0]
        if not los or not his:
            raise InvalidPolytopeError("interval is unbounded")
        lo, hi = max(los), min(his)
        if lo > hi:
            raise InvalidPolytopeError("empty interval")
        return (((-1,), -lo), ((1,), hi)), tuple(sorted({(lo,), (hi,)}))
    points = set()
    for i in range(len(ineqs)):
        for j in range(i + 1, len(ineqs)):
            (a1, b1), (a2, b2) = ineqs[i][0], ineqs[j][0]
            c1, c2 = ineqs[i][1], ineqs[j][1]
            det = a1 * b2 - b1 * a2
            if det == 0:
                continue
            x = Fraction(c1 * b2 - b1 * c2, det)
            y = Fraction(a1 * c2 - c1 * a2, det)
            if all(dot(n, (x, y)) <= b for n, b in ineqs):
                points.add((x, y))
    if not points:
        raise InvalidPolytopeError("inequalities have empty intersection")
    kept = [
        (n, b) for n, b in ineqs if sum(1 for p in points if dot(n, p) == b) >= 2
    ]
    if not kept:
        raise InvalidPolytopeError("polytope has no inequalities")
    vertices = sorted(points)
    for v in vertices:
        tight = [n for n, b in kept if dot(n, v) == b]
        if not any(n[0] * m[1] != n[1] * m[0] for n, m in combinations(tight, 2)):
            raise InvalidPolytopeError(f"declared vertex {v} is not an extreme point")
    if not recession_cone_is_trivial([n for n, _ in kept], 2):
        raise InvalidPolytopeError("inequalities cut out an unbounded set")
    return tuple(kept), tuple(vertices)


def rational_rref(mat):
    """Reduced row echelon form over Fraction, as (rows, pivot_cols): the
    removed ``intlinalg.rational_rref``, which decided extreme points
    before the Smith form did."""
    n = len(mat[0]) if mat else 0
    pivots = {}
    for raw in mat:
        row = {j: x for j, x in enumerate(raw) if x}
        lead = _reduce(row, pivots)
        if lead is not None:
            _store_pivot(pivots, row, lead)
    reduced = _back_substitute(pivots)
    leads = sorted(reduced)
    rows = [[Fraction(reduced[lead].get(j, 0)) for j in range(n)] for lead in leads]
    for lead, row in zip(leads, rows):
        row[lead] = Fraction(1)
    rows += ([Fraction(0)] * n for _ in range(len(mat) - len(leads)))
    return rows, leads


def reference_validate(dimension, inequalities, vertices):
    """The checked constructor's tests on Fraction dot products."""
    inequalities = [(_int_vec(n, "normals"), _frac(b)) for n, b in inequalities]
    vertices = sorted({_frac_vec(v) for v in vertices})
    if not vertices:
        raise InvalidPolytopeError("polytope has no vertices")
    if not inequalities:
        raise InvalidPolytopeError("polytope has no inequalities")
    for v in vertices:
        for normal, bound in inequalities:
            if dot(normal, v) > bound:
                raise InvalidPolytopeError(
                    f"vertex {v} violates inequality {normal}*x <= {bound}"
                )
    for normal, bound in inequalities:
        if not any(dot(normal, v) == bound for v in vertices):
            raise InvalidPolytopeError(
                f"inequality {normal}*x <= {bound} is tight at no vertex"
            )
    for v in vertices:
        tight = [n for n, b in inequalities if dot(n, v) == b]
        _, pivots = rational_rref(tight) if tight else ([], [])
        if len(pivots) < dimension:
            raise InvalidPolytopeError(f"declared vertex {v} is not an extreme point")
    if not recession_cone_is_trivial([n for n, _ in inequalities], dimension):
        raise InvalidPolytopeError("inequalities cut out an unbounded set")


class ReferenceCover(Cover):
    """A cover validated as before: containment moves every vertex
    through the transition and tests it with ``contains``."""

    def _validate(self):
        n = len(self._chart_ids)
        for i in range(n):
            if (i,) not in self._faces:
                raise InvalidCoverError(
                    f"chart {self._chart_ids[i]!r} missing from the nerve"
                )
        for face in self._faces:
            if len(face) >= 2:
                for k in range(len(face)):
                    sub = face[:k] + face[k + 1 :]
                    if sub not in self._faces:
                        raise InvalidCoverError(
                            f"nerve not closed under subsets: {face} lacks {sub}"
                        )
        for face in self._faces:
            poly = self._polytopes.get(face)
            if poly is None:
                raise InvalidCoverError(f"face {self._fmt(face)} has no polytope")
            if poly.dimension != self._dimension:
                raise InvalidCoverError(
                    f"polytope of {self._fmt(face)} has wrong dimension"
                )
        for edge in self.faces_of_degree(1):
            phi = self._transitions.get(edge)
            if phi is None:
                raise InvalidCoverError(f"edge {self._fmt(edge)} has no transition")
            if phi.dimension != self._dimension:
                raise InvalidCoverError(
                    f"transition on {self._fmt(edge)} has wrong dimension"
                )
        for tri in self.faces_of_degree(2):
            i, j, k = tri
            lhs = self.transition(j, k).compose(self.transition(i, j))
            if lhs != self.transition(i, k):
                raise InvalidCoverError(
                    f"transitions fail the cocycle identity on {self._fmt(tri)}"
                )
        for face in self._faces:
            if len(face) < 2:
                continue
            vertices = self._polytopes[face].vertices
            for k in range(len(face)):
                sub = face[:k] + face[k + 1 :]
                phi = self.transition(face[0], sub[0])
                target = self._polytopes[sub]
                if not all(target.contains(phi.apply(v)) for v in vertices):
                    raise InvalidCoverError(
                        f"overlap of {self._fmt(face)} is not inside "
                        f"that of {self._fmt(sub)}"
                    )


def reference_inverse(phi):
    n = phi.dimension
    system = SparseRationalSystem(
        [{j: x for j, x in enumerate(r) if x} for r in phi.linear], n
    )
    cols = [system.solve([F(1 if i == j else 0) for i in range(n)]) for j in range(n)]
    minv = tuple(tuple(int(cols[j][i]) for j in range(n)) for i in range(n))
    tau = tuple(
        -sum(minv[i][j] * phi.translation[j] for j in range(n)) for i in range(n)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return IntegralAffineMap(minv, tau)


def reference_compose(psi, phi):
    n = psi.dimension
    m = tuple(
        tuple(sum(psi.linear[i][k] * phi.linear[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return IntegralAffineMap(m, psi.apply(phi.translation))


# -- helpers ----------------------------------------------------------------


def typed(value):
    if isinstance(value, tuple):
        return tuple(typed(x) for x in value)
    return (type(value), value)


def outcome(build):
    try:
        return ("ok", typed(build()))
    except InvalidPolytopeError as exc:
        return ("refused", str(exc))


def built(dimension, inequalities):
    poly = IntegralAffinePolytope.from_inequalities(dimension, inequalities)
    return poly.inequalities, poly.vertices


def assert_same_search(dimension, inequalities):
    want = outcome(lambda: reference_from_inequalities(dimension, inequalities))
    assert outcome(lambda: built(dimension, inequalities)) == want


def checked_outcome(dimension, inequalities, vertices):
    def build():
        poly = IntegralAffinePolytope(dimension, inequalities, vertices)
        return poly.inequalities, poly.vertices

    return outcome(build)


def reference_checked_outcome(dimension, inequalities, vertices):
    def build():
        reference_validate(dimension, inequalities, vertices)
        ineqs = tuple((tuple(n), _frac(b)) for n, b in inequalities)
        return ineqs, tuple(sorted({_frac_vec(v) for v in vertices}))

    return outcome(build)


def recorded_searches(monkeypatch, name):
    """The (dimension, inequalities) of every vertex search made while a
    catalog cover is read back from its manifest."""
    calls = []
    search = IntegralAffinePolytope._from_scaled.__func__

    def recording(cls, dimension, d, lines):
        calls.append((dimension, [(n, F(b, d)) for n, b in lines]))
        return search(cls, dimension, d, lines)

    text = fibration_to_manifest(load_catalog(name))
    with monkeypatch.context() as patch:
        patch.setattr(IntegralAffinePolytope, "_from_scaled", classmethod(recording))
        manifest_to_fibration(text)
    return calls


# -- the vertex search ------------------------------------------------------


@pytest.mark.parametrize("name", catalog_ids())
def test_every_catalog_face_matches_the_fraction_search(monkeypatch, name):
    calls = recorded_searches(monkeypatch, name)
    assert len(calls) == len(load_catalog(name).cover.faces)
    for dimension, inequalities in calls:
        assert_same_search(dimension, inequalities)


DENOMINATORS = (1, 7, 9, 11, 13)
VERDICTS = {
    "inequalities have empty intersection",
    "polytope has no inequalities",
    "declared vertex",
    "3 vertices",
    "4 vertices",
    "5 vertices",
    "6 vertices",
}


def random_bound(rng):
    return F(rng.randrange(-40, 41), rng.choice(DENOMINATORS))


def random_normal(rng, dimension=2, span=3):
    while True:
        n = tuple(rng.randrange(-span, span + 1) for _ in range(dimension))
        if any(n):
            return n


def random_system(rng):
    """Halfplanes around a random centre, with mixed denominators, in
    one of several shapes; shuffled, so crossings come in both orders."""
    centre = (random_bound(rng), random_bound(rng))

    def through(n, slack=0):
        return n, dot(n, centre) + slack

    def slack():
        return F(rng.randrange(1, 30), rng.choice(DENOMINATORS))

    shapes = ("polygon", "corner", "parallel", "segment", "point", "empty", "unbounded")
    shape = rng.choice(shapes)
    ineqs = [through(random_normal(rng), slack()) for _ in range(rng.randrange(3, 8))]
    n, m = random_normal(rng), random_normal(rng)
    if shape == "polygon":
        ineqs += [through(a, slack()) for a in ((1, 1), (-1, 0), (0, -1))]
    elif shape == "corner":
        # three or more lines through the centre cross it with
        # determinants of different sizes
        ineqs += [through(random_normal(rng)) for _ in range(rng.randrange(3, 6))]
    elif shape == "parallel":
        k = rng.randrange(2, 4)
        ineqs += [through((k * n[0], k * n[1]), slack()), through(n, slack())]
        ineqs.append(ineqs[rng.randrange(len(ineqs))])
    elif shape == "segment":
        ineqs += [through(n), through((-n[0], -n[1]))]
    elif shape == "point":
        ineqs += [through(a) for a in (n, m, (-n[0], -n[1]), (-m[0], -m[1]))]
    elif shape == "empty":
        ineqs += [through(n), through((-n[0], -n[1]), -F(1, rng.choice(DENOMINATORS)))]
    elif shape == "unbounded":
        ineqs = [through((abs(a) + 1, b), slack()) for (a, b), _ in ineqs]
    rng.shuffle(ineqs)
    return ineqs


@pytest.mark.parametrize("seed", range(10))
def test_seeded_systems_match_the_fraction_search(seed):
    rng = random.Random(7100 + seed)
    for _ in range(40):
        assert_same_search(2, random_system(rng))


def test_the_seeded_systems_reach_every_verdict():
    verdicts = set()
    for seed in range(10):
        rng = random.Random(7100 + seed)
        for _ in range(40):
            kind, value = outcome(lambda: built(2, random_system(rng)))
            verdicts.add(f"{len(value[1])} vertices" if kind == "ok" else value.split(" (")[0])
    assert verdicts >= VERDICTS


def test_a_negative_determinant_ordering_gives_the_same_vertex():
    # (0, 1) sorts before (1, 0), so their crossing has determinant -1
    ineqs = [((0, 1), F(2, 7)), ((1, 0), F(3, 11)), ((-1, -1), F(-1, 13))]
    assert built(2, ineqs)[1] == (
        (F(1, 13) - F(2, 7), F(2, 7)),
        (F(3, 11), F(1, 13) - F(3, 11)),
        (F(3, 11), F(2, 7)),
    )
    assert_same_search(2, ineqs)
    assert_same_search(2, list(reversed(ineqs)))


def test_intervals_match_the_fraction_search():
    rng = random.Random(7200)
    for _ in range(100):
        count = rng.randrange(1, 5)
        ineqs = [((rng.choice((-3, -2, -1, 1, 2, 3)),), random_bound(rng)) for _ in range(count)]
        assert_same_search(1, ineqs)


# -- the checked constructor ----------------------------------------------


def perturbed_declarations(rng, poly):
    """A polytope's own data, then copies with one defect each."""
    ineqs, verts = list(poly.inequalities), list(poly.vertices)
    yield ineqs, verts
    yield ineqs, verts[1:]
    yield ineqs + [(random_normal(rng, len(verts[0])), random_bound(rng))], verts
    a, b = verts[0], verts[-1]
    yield ineqs, verts + [tuple((x + y) / 2 for x, y in zip(a, b))]
    big = 10**12 + 39
    yield ineqs, [tuple(x + F(1, big) for x in verts[0])] + verts[1:]
    k = rng.randrange(len(ineqs))
    n, bound = ineqs[k]
    yield ineqs[:k] + [(n, bound - F(1, 13))] + ineqs[k + 1 :], verts
    yield ineqs[:k] + ineqs[k + 1 :], verts


@pytest.mark.parametrize("name", catalog_ids())
def test_checked_constructor_matches_the_fraction_checks(name):
    rng = random.Random(7300)
    cover = load_catalog(name).cover
    for face in sorted(cover.faces):
        poly = cover.polytope(face)
        for ineqs, verts in perturbed_declarations(rng, poly):
            want = reference_checked_outcome(poly.dimension, ineqs, verts)
            assert checked_outcome(poly.dimension, ineqs, verts) == want


def test_checked_constructor_refuses_with_every_message():
    rng = random.Random(7300)
    seen = set()
    for name in catalog_ids():
        cover = load_catalog(name).cover
        for face in sorted(cover.faces):
            for ineqs, verts in perturbed_declarations(rng, cover.polytope(face)):
                kind, value = checked_outcome(cover.dimension, ineqs, verts)
                if kind == "refused":
                    seen.add(value)
    assert any("violates inequality" in s for s in seen)
    assert any("is tight at no vertex" in s for s in seen)
    assert any("is not an extreme point" in s for s in seen)


def test_a_vertex_outside_by_one_scaled_unit_is_refused():
    # with integer bounds the common denominator is the vertex's own, so
    # the violation is one unit of the scaling
    hair = F(1, 10**40 + 121)
    for ineqs, verts in (
        ([((-1,), 0), ((1,), 1)], [(0,), (1 + hair,)]),
        ([((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)], [(0, 0), (1, 0), (-hair, 1)]),
    ):
        want = reference_checked_outcome(len(verts[0]), ineqs, verts)
        assert want[0] == "refused" and "violates" in want[1]
        assert checked_outcome(len(verts[0]), ineqs, verts) == want


# -- cover containment ------------------------------------------------------


def cover_outcome(cls, dimension, ids, faces, polys, transitions):
    try:
        cls(dimension, ids, faces, polys, transitions)
        return "ok"
    except InvalidCoverError as exc:
        return str(exc)


def shrunk(poly, rng, big):
    ineqs = list(poly.inequalities)
    k = rng.randrange(len(ineqs))
    n, b = ineqs[k]
    ineqs[k] = (n, b - F(1, big))
    return IntegralAffinePolytope.from_inequalities(poly.dimension, ineqs)


@pytest.mark.parametrize("name", catalog_ids())
def test_cover_containment_matches_the_fraction_loop(name):
    rng = random.Random(7400)
    cover = load_catalog(name).cover
    polys = {f: cover.polytope(f) for f in cover.faces}
    transitions = {e: cover.transition(*e) for e in cover.faces_of_degree(1)}
    args = (cover.dimension, cover.chart_ids, cover.faces)
    assert cover_outcome(Cover, *args, polys, transitions) == "ok"
    assert cover_outcome(ReferenceCover, *args, polys, transitions) == "ok"
    refused = 0
    for _ in range(12):
        changed = dict(polys)
        for face in rng.sample(sorted(cover.faces), 3):
            changed[face] = shrunk(polys[face], rng, rng.choice((97, 10**9 + 7)))
        want = cover_outcome(ReferenceCover, *args, changed, transitions)
        assert cover_outcome(Cover, *args, changed, transitions) == want
        refused += want != "ok"
    assert refused


def sheared_cover(overhang):
    """Charts a and b, b the image of a under a shear; the overlap,
    written in a's coordinates, overhangs both by ``overhang``."""
    shear = IntegralAffineMap([[1, 0], [1, 1]], [F(1, 3), F(-2, 7)])
    a = IntegralAffinePolytope.from_box([(0, 1), (0, 1)])
    b = IntegralAffinePolytope.from_inequalities(
        2, image_inequalities(a, shear, shear.inverse())
    )
    lap = IntegralAffinePolytope.from_box([(F(1, 2), 1), (0, 1 + overhang)])
    polys = {(0,): a, (1,): b, (0, 1): lap}
    return (2, "ab", polys, polys, {(0, 1): shear})


def shifted_cover(overhang):
    """Charts a = [0, 1] and b; the overlap [1/2, 1] of a moves by 3/2
    to [2, 5/2], past b's end by ``overhang``."""
    polys = {
        (0,): IntegralAffinePolytope.from_box([(0, 1)]),
        (1,): IntegralAffinePolytope.from_box([(0, F(5, 2) - overhang)]),
        (0, 1): IntegralAffinePolytope.from_box([(F(1, 2), 1)]),
    }
    return (1, "ab", polys, polys, {(0, 1): IntegralAffineMap([[1]], [F(3, 2)])})


@pytest.mark.parametrize("cover", (sheared_cover, shifted_cover))
def test_a_face_overhanging_its_sub_face_by_a_hair_is_refused(cover):
    # the sub-face {b} comes first, pulled back through the transition
    hair = F(1, 10**40 + 121)
    assert cover_outcome(Cover, *cover(0)) == "ok"
    want = "overlap of {a,b} is not inside that of {b}"
    assert cover_outcome(ReferenceCover, *cover(hair)) == want
    assert cover_outcome(Cover, *cover(hair)) == want


# -- moved halfspaces ---------------------------------------------------------


def reference_image_inequalities(poly, phi, inverse):
    """n.x <= b moved to n'.y <= b + n'.tau, n' = M^-T n, on Fractions."""
    minv_t = tuple(zip(*inverse.linear))
    out = []
    for normal, bound in poly.inequalities:
        moved = tuple(dot(row, normal) for row in minv_t)
        shift = sum(F(a) * t for a, t in zip(moved, phi.translation))
        out.append((moved, bound + shift))
    return out


def assert_same_image(poly, phi):
    inverse = phi.inverse()
    d, lines = poly._scaled_image(phi, inverse)
    got = [(normal, F(b, d)) for normal, b in lines]
    want = reference_image_inequalities(poly, phi, inverse)
    assert typed(tuple(got)) == typed(tuple(want))
    assert type(d) is int and d > 0
    assert all(type(x) is int for normal, b in lines for x in normal + (b,))


def test_moved_halfspaces_match_the_fraction_formula_on_every_catalog_transition():
    moved = 0
    for name in catalog_ids():
        cover = load_catalog(name).cover
        for i, j in cover.faces_of_degree(1):
            for a, b in ((i, j), (j, i)):
                for face in cover.faces:
                    if face[0] == a:
                        assert_same_image(cover.polytope(face), cover.transition(a, b))
                        moved += 1
    assert moved > 1000


@pytest.mark.parametrize("n", (1, 2, 3))
def test_moved_halfspaces_match_the_fraction_formula_on_seeded_shears(n):
    rng = random.Random(7600 + n)
    for _ in range(80):
        sides = []
        for _ in range(n):
            lo = F(rng.randrange(-20, 21), rng.choice(DENOMINATORS))
            sides.append((lo, lo + F(rng.randrange(0, 15), rng.choice(DENOMINATORS))))
        polys = [IntegralAffinePolytope.from_box(sides)]
        if n == 2:
            top = F(rng.randrange(1, 40), rng.choice(DENOMINATORS))
            polys.append(
                IntegralAffinePolytope.from_inequalities(
                    2, [((-1, 0), 0), ((0, -1), 0), ((1, rng.randrange(1, 4)), top)]
                )
            )
        for poly in polys:
            assert_same_image(poly, random_unimodular(rng, n))


# -- unimodular map algebra ---------------------------------------------------


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    m[0][0] = rng.choice((1, -1))
    for _ in range(rng.randrange(1, 3 * n + 2) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randrange(-3, 4)
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.2:
            m[i] = [-x for x in m[i]]
    tau = [F(rng.randrange(-30, 31), rng.choice(DENOMINATORS)) for _ in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return IntegralAffineMap(m, tau)


def map_data(phi):
    return typed(phi.linear), typed(phi.translation)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_inverse_and_compose_match_the_rational_solve_references(n):
    rng = random.Random(7500 + n)
    dets = set()
    for _ in range(60):
        phi, psi = random_unimodular(rng, n), random_unimodular(rng, n)
        dets.add(phi.det)
        inv = phi.inverse()
        assert map_data(inv) == map_data(reference_inverse(phi))
        assert map_data(psi.compose(phi)) == map_data(reference_compose(psi, phi))
        identity = IntegralAffineMap.identity(n)
        assert phi.compose(inv) == identity and inv.compose(phi) == identity
        assert inv.det == phi.det
    assert dets == {1, -1}


def test_inverse_of_every_catalog_transition_matches_the_reference():
    for name in catalog_ids():
        cover = load_catalog(name).cover
        for i, j in cover.faces_of_degree(1):
            phi = cover.transition(i, j)
            assert map_data(phi.inverse()) == map_data(reference_inverse(phi))
            assert map_data(cover.transition(j, i)) == map_data(reference_inverse(phi))


def test_the_public_constructor_still_checks():
    with pytest.raises(ValueError, match="unimodular, det = 2"):
        IntegralAffineMap([[2, 0], [0, 1]], [0, 0])
    with pytest.warns(UserWarning, match="orientation-reversing"):
        flip = IntegralAffineMap([[0, 1], [1, 0]], [F(1, 2), 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert flip.inverse().det == -1
        assert (flip.compose(flip) == IntegralAffineMap.identity(2)) is False


# -- budget -------------------------------------------------------------------


def test_cold_manifest_pipeline_stays_fast():
    # the five catalogs read from manifest text, their obstructions
    # analysed and their gerbes verified, on a cold cover each: 0.75 s
    # with the Fraction geometry and 0.30 s on ints (two cores,
    # Python 3.11); the budget is three times the latter
    budget = 1.0
    texts = [fibration_to_manifest(load_catalog(name)) for name in catalog_ids()]
    start = time.perf_counter()
    for text in texts:
        fibration = manifest_to_fibration(text)
        analyze_obstruction(fibration)
        assert verify_gerbe(fibration).holds
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"
