import random
import re
from fractions import Fraction
from itertools import product

import pytest

from mirrorforge.affine import (
    AffineFunction,
    IntegralAffineMap,
    IntegralAffinePolytope,
    PolyFunction,
)
from mirrorforge.catalog import load_catalog
from mirrorforge.cover import (
    AffCochain,
    Cover,
    FibrationData,
    analyze_obstruction,
    coboundary_certificate,
    face_polytopes_from_charts,
)
from mirrorforge.errors import (
    ChartMismatchError,
    InvalidCoverError,
    InvalidFibrationError,
)

F = Fraction


def random_cochain(cover, degree, rng, span=4):
    values = {}
    n = cover.dimension
    for face in cover.faces_of_degree(degree):
        lin = tuple(rng.randrange(-span, span + 1) for _ in range(n))
        const = F(rng.randrange(-8, 9), rng.randrange(1, 5))
        values[face] = AffineFunction(lin, const)
    return AffCochain(cover, degree, values)


def compose_with_map(poly, phi):
    """PolyFunction.compose_with_map as it stood: x = M y + tau
    substituted term by term through checked PolyFunction products."""
    n = poly.dimension
    coords = []
    for i in range(n):
        terms = {(0,) * n: phi.translation[i]}
        for j in range(n):
            powers = tuple(1 if k == j else 0 for k in range(n))
            terms[powers] = Fraction(phi.linear[i][j])
        coords.append(PolyFunction(n, terms))
    total = PolyFunction.zero(n)
    for powers, coeff in poly.terms.items():
        piece = PolyFunction(n, {(0,) * n: coeff})
        for i, p in enumerate(powers):
            for _ in range(p):
                piece = piece * coords[i]
        total = total + piece
    return total


def reference_alpha(cover, primitives):
    """The obstruction cochain as FibrationData built it on checked
    PolyFunction arithmetic, or the message of its refusal."""
    zero = PolyFunction.zero(cover.dimension)
    values = {}
    for tri in cover.faces_of_degree(2):
        i, j, k = tri
        combo = (
            primitives.get((i, j), zero)
            + compose_with_map(primitives.get((j, k), zero), cover.transition(i, j))
            - primitives.get((i, k), zero)
        )
        try:
            values[tri] = combo.as_affine()
        except ValueError as exc:
            ids = tuple(cover.chart_ids[x] for x in tri)
            return f"primitives are incompatible on triple {ids}: {exc}"
    return AffCochain(cover, 2, values)


@pytest.fixture(scope="module")
def torus():
    return load_catalog("split-torus-4").cover


class TestCoverValidation:
    def test_missing_transition_rejected(self):
        box = IntegralAffinePolytope.from_box([(0, 1)])
        with pytest.raises(InvalidCoverError, match="transition"):
            Cover(
                1,
                ("a", "b"),
                {(0,), (1,), (0, 1)},
                {(0,): box, (1,): box, (0, 1): box},
                {},
            )

    def test_nerve_closure_enforced(self, torus):
        faces = set(torus.faces) - {(0, 1)}
        polys = {f: torus.polytope(f) for f in faces}
        transitions = {
            e: torus.transition(*e) for e in torus.faces_of_degree(1) if e != (0, 1)
        }
        with pytest.raises(InvalidCoverError, match="closed under subsets"):
            Cover(2, torus.chart_ids, faces, polys, transitions)

    def test_broken_cocycle_rejected(self, torus):
        transitions = {}
        for e in torus.faces_of_degree(1):
            transitions[e] = torus.transition(*e)
        transitions[(0, 1)] = IntegralAffineMap(
            [[1, 0], [0, 1]], [5, 0]
        )
        polys = {f: torus.polytope(f) for f in torus.faces}
        with pytest.raises(InvalidCoverError, match="cocycle"):
            Cover(2, torus.chart_ids, torus.faces, polys, transitions)

    def test_a_broken_cocycle_is_refused_by_both_constructors(self):
        # three charts [0, 3], phi_ab = phi_bc = id but phi_ac = x + 1/2:
        # every overlap is an interval, and the one triangle fails
        from mirrorforge.cover import _cover_from_charts
        from test_integer_geometry import ReferenceCover

        box = IntegralAffinePolytope.from_box([(0, 3)])
        charts = {0: box, 1: box, 2: box}
        faces = {(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)}
        identity = IntegralAffineMap.identity(1)
        transitions = {(0, 1): identity, (1, 2): identity, (0, 2): IntegralAffineMap([[1]], [F(1, 2)])}
        polys = face_polytopes_from_charts(1, charts, faces, transitions)
        message = r"^transitions fail the cocycle identity on \{a,b,c\}$"
        for build in (
            lambda: Cover(1, "abc", faces, polys, transitions),
            lambda: ReferenceCover(1, "abc", faces, polys, transitions),
            lambda: _cover_from_charts(1, "abc", charts, faces, transitions),
        ):
            with pytest.raises(InvalidCoverError, match=message):
                build()

    def test_polytope_keyed_by_a_non_face_rejected(self):
        # elliptic-demo's nerve has no triangle: a polytope for (0, 1, 2)
        # would answer polytope((0, 1, 2)) for a face the cover lacks
        cover = load_catalog("elliptic-demo").cover
        polys = {f: cover.polytope(f) for f in cover.faces}
        transitions = {e: cover.transition(*e) for e in cover.faces_of_degree(1)}
        assert Cover(1, cover.chart_ids, cover.faces, polys, transitions) == cover
        polys[(2, 1, 0)] = cover.polytope((0,))
        with pytest.raises(
            InvalidCoverError, match=r"^polytope keyed by \(0, 1, 2\), not a face of the nerve$"
        ):
            Cover(1, cover.chart_ids, cover.faces, polys, transitions)

    def test_containment_enforced(self, torus):
        polys = {f: torus.polytope(f) for f in torus.faces}
        # enlarge a triple overlap so it escapes one of its edges
        polys[(0, 1, 3)] = IntegralAffinePolytope.from_box(
            [(0, F(3, 4)), (0, F(3, 4))]
        )
        transitions = {e: torus.transition(*e) for e in torus.faces_of_degree(1)}
        with pytest.raises(InvalidCoverError, match="not inside"):
            Cover(2, torus.chart_ids, torus.faces, polys, transitions)

    def test_containment_is_checked_in_the_smaller_face_chart(self):
        # the overlap of a and b, written in a's coordinates, sits inside
        # a; a transition of 2 moves it to [5/2, 3], inside b = [0, 3]
        # but not inside b = [0, 2]
        def path_cover(b_hi):
            polys = {
                (0,): IntegralAffinePolytope.from_box([(0, 1)]),
                (1,): IntegralAffinePolytope.from_box([(0, b_hi)]),
                (0, 1): IntegralAffinePolytope.from_box([(F(1, 2), 1)]),
            }
            shift = IntegralAffineMap([[1]], [2])
            return Cover(1, "ab", polys, polys, {(0, 1): shift})

        assert path_cover(3).polytope((0, 1)).vertices == ((F(1, 2),), (F(1),))
        with pytest.raises(
            InvalidCoverError, match=r"^overlap of \{a,b\} is not inside that of \{b\}$"
        ):
            path_cover(2)

    def path_parts(self):
        box = IntegralAffinePolytope.from_box([(0, 1)])
        polys = {(0,): box, (1,): box, (0, 1): box}
        return polys, {(0, 1): IntegralAffineMap.identity(1)}

    def test_a_float_face_index_is_refused(self):
        # int() truncated it: (1.7,) named chart 1
        polys, transitions = self.path_parts()
        faces = [(0,), (1.7,), (0, 1)]
        with pytest.raises(TypeError, match="face indices must be integers, got 1.7"):
            Cover(1, "ab", faces, polys, transitions)

    def test_a_float_transition_key_is_refused(self):
        polys, _ = self.path_parts()
        transitions = {(0, 1.5): IntegralAffineMap.identity(1)}
        with pytest.raises(TypeError, match="transition keys must be integers, got 1.5"):
            Cover(1, "ab", polys, polys, transitions)

    def test_transition_for_non_edge_refused(self):
        # opposite arcs of the four-arc circle never meet
        cover = load_catalog("split-torus-2").cover
        with pytest.raises(ChartMismatchError):
            cover.transition(0, 2)
        with pytest.raises(ChartMismatchError):
            cover.polytope((1, 3))

    def test_face_chart_basepoints(self):
        cover = load_catalog("elliptic").cover
        assert cover.face_chart((0,)).basepoint == (F(0),)
        assert cover.face_chart((1,)).basepoint == (F(1, 3),)
        assert cover.face_chart((2,)).basepoint == (F(2, 3),)
        fc = cover.face_chart((0, 2))
        assert fc.ambient == 0
        assert fc.basepoint == (F(0),)


class TestCechDifferential:
    def test_d_squared_is_zero(self, torus):
        rng = random.Random(17)
        for _ in range(25):
            c0 = random_cochain(torus, 0, rng)
            assert c0.differential().differential().is_zero()
            c1 = random_cochain(torus, 1, rng)
            assert c1.differential().differential().is_zero()

    def test_a_float_degree_is_refused(self, torus):
        # int() truncated it: degree 1.9 made a degree-1 cochain
        with pytest.raises(TypeError, match="cochain degrees must be integers, got 1.9"):
            AffCochain(torus, 1.9)

    def test_a_face_given_twice_is_refused(self, torus):
        # both keys sort to one face: the later value won, unless it was
        # zero, so the cochain depended on the order of the dict
        edge = torus.faces_of_degree(1)[0]
        f, g = AffineFunction((1, 0), F(1, 2)), AffineFunction((0, 0), 0)
        for values in ({edge: f, edge[::-1]: g}, {edge[::-1]: g, edge: f}):
            with pytest.raises(ChartMismatchError, match=re.escape(f"face {edge} is given twice")):
                AffCochain(torus, 1, values)

    def test_zero_cochain_differential(self, torus):
        zero = AffCochain(torus, 1)
        assert zero.differential().is_zero()

    def test_transport_uses_transition(self):
        cover = load_catalog("elliptic").cover
        h = AffCochain(
            cover,
            0,
            {
                (0,): AffineFunction((1,), 0),
                (1,): AffineFunction((0,), 0),
                (2,): AffineFunction((1,), 0),
            },
        )
        dh = h.differential()
        # on the wrap edge (0,2): h_2 o phi - h_0 = (x+1) - x = 1
        assert dh.value((0, 2)) == AffineFunction((0,), 1)
        assert dh.value((0, 1)) == AffineFunction((-1,), 0)


class TestObstruction:
    def test_f1_alpha_frozen_values(self):
        fib = load_catalog("thurston-f1")
        alpha = fib.obstruction_cocycle()
        expected = AffineFunction((0, 1), F(1, 2))
        assert alpha.support() == ((0, 2, 6), (0, 2, 8))
        assert alpha.value((0, 2, 6)) == expected
        assert alpha.value((0, 2, 8)) == expected
        assert alpha.differential().is_zero()

    def test_f1_not_trivial_even_rationally(self):
        report = analyze_obstruction(load_catalog("thurston-f1"))
        assert report.certificate is None
        assert not report.is_trivial
        assert not report.lattice_image_vanishes

    @pytest.mark.parametrize(
        "name", ["elliptic", "split-torus-2", "split-torus-4", "thurston-f2"]
    )
    def test_trivial_catalogs(self, name):
        report = analyze_obstruction(load_catalog(name))
        assert report.alpha.is_zero()
        assert report.is_trivial
        assert report.lattice_image_vanishes
        assert report.certificate.differential() == report.alpha

    def test_incompatible_primitives_rejected(self, torus):
        # a quadratic on a single edge cannot cancel on triangles
        quad = PolyFunction(2, {(2, 0): F(1, 2)})
        with pytest.raises(InvalidFibrationError, match="incompatible"):
            FibrationData(torus, {(0, 1): quad})

    def test_an_edge_given_twice_is_refused(self):
        # both keys sort to one edge: one order kept the later primitive,
        # the other raised InvalidFibrationError
        fibration = load_catalog("thurston-f1")
        cover = fibration.cover
        primitives = {e: fibration.primitive(e) for e in cover.faces_of_degree(1)}
        edge = next(e for e, p in primitives.items() if not p.is_zero())
        other = PolyFunction(2, {(0, 1): F(1)})
        for given in ({**primitives, edge[::-1]: other}, {edge[::-1]: other, **primitives}):
            with pytest.raises(ChartMismatchError, match=re.escape(f"edge {edge} is given twice")):
                FibrationData(cover, given)

    def test_fractional_differential_rejected(self, torus):
        # f = x1/2 on one edge leaves alpha with differential (1/2, 0)
        half = PolyFunction(2, {(1, 0): F(1, 2)})
        with pytest.raises(InvalidFibrationError, match="not integral"):
            FibrationData(torus, {(0, 1): half})


class TestCertificates:
    def test_random_coboundaries_recovered(self, torus):
        rng = random.Random(29)
        for _ in range(20):
            beta0 = random_cochain(torus, 1, rng)
            alpha = beta0.differential()
            beta = coboundary_certificate(alpha)
            assert beta is not None
            assert beta.differential() == alpha

    def test_certificate_needs_degree_two(self, torus):
        with pytest.raises(ChartMismatchError):
            coboundary_certificate(AffCochain(torus, 1))

    def test_constant_obstruction_with_integral_coupling(self, torus):
        # f = x3 on first-coordinate wrap edges: alpha = 1 on the two
        # corner triangles.  The differential part bounds (it is zero),
        # and the constants bound too, but only because an integral
        # 1-cocycle can be folded into the coupling term.
        lin = PolyFunction(2, {(0, 1): 1})
        fib = FibrationData(
            torus,
            {
                e: lin
                for e in torus.faces_of_degree(1)
                if {e[0] // 3, e[1] // 3} == {0, 2}
            },
        )
        alpha = fib.obstruction_cocycle()
        assert alpha.value((0, 2, 6)) == AffineFunction((0, 0), 1)
        assert analyze_obstruction(fib).lattice_image_vanishes
        beta = coboundary_certificate(alpha)
        assert beta is not None
        assert beta.differential() == alpha

    def test_fractional_constant_obstruction(self, torus):
        # f = x3/7 leaves alpha = 1/7 on the corner triangles.  The
        # lattice part vanishes but integral couplings only shift the
        # constants by whole numbers, so there is no certificate.
        frac = PolyFunction(2, {(0, 1): F(1, 7)})
        fib = FibrationData(
            torus,
            {
                e: frac
                for e in torus.faces_of_degree(1)
                if {e[0] // 3, e[1] // 3} == {0, 2}
            },
        )
        report = analyze_obstruction(fib)
        assert report.lattice_image_vanishes
        assert report.certificate is None


class TestFacePolytopeBuilder:
    def test_wrap_overlap_is_translated(self):
        cover = load_catalog("elliptic").cover
        poly = cover.polytope((0, 2))
        assert poly.vertices == ((F(0),), (F(1, 12),))

    def test_shear_overlap_is_parallelogram(self):
        cover = load_catalog("thurston-f2").cover
        # edge between (0,0) [index 0] and (0,2) [index 2] wraps in the
        # second coordinate, so the overlap picks up the shear
        poly = cover.polytope((0, 2))
        normals = {n for n, _ in poly.inequalities}
        assert any(n[0] != 0 and n[1] != 0 for n in normals)

    def test_empty_face_rejected(self):
        box = IntegralAffinePolytope.from_box([(0, 1)])
        far = IntegralAffinePolytope.from_box([(5, 6)])
        with pytest.raises(InvalidCoverError, match="no valid overlap"):
            face_polytopes_from_charts(
                1,
                {0: box, 1: far},
                {(0,), (1,), (0, 1)},
                {(0, 1): IntegralAffineMap.identity(1)},
            )


def seeded_primitives(cover, rng, base):
    """base's primitives plus an affine function with an integral
    differential on about half the edges, which keeps them compatible,
    and in a third of the draws one more term over denominator 2 or 3 on
    one or two edges: a quadratic one, or a linear one in one or every
    direction."""
    n = cover.dimension
    out = dict(base)
    edges = cover.faces_of_degree(1)
    for edge in edges:
        if rng.random() < 0.5:
            terms = {(0,) * n: F(rng.randint(-5, 5), rng.randint(1, 4))}
            for a in range(n):
                terms[tuple(int(r == a) for r in range(n))] = rng.randint(-2, 2)
            out[edge] = out.get(edge, PolyFunction.zero(n)) + PolyFunction(n, terms)
    if rng.random() < 1 / 3:
        for edge in rng.sample(edges, rng.randint(1, 2)):
            c = F(rng.choice((-1, 1)), rng.choice((2, 3)))
            shape = rng.choice(("quadratic", "one", "every"))
            if shape == "quadratic":
                powers = rng.choice([p for p in product(range(3), repeat=n) if sum(p) == 2])
                terms = {powers: c}
            else:
                axes = [rng.randrange(n)] if shape == "one" else range(n)
                terms = {tuple(int(r == a) for r in range(n)): c for a in axes}
            out[edge] = out.get(edge, PolyFunction.zero(n)) + PolyFunction(n, terms)
    return out


TABLE_COVERS = ["split-torus-4", "thurston-f1", "thurston-f2"]


@pytest.mark.parametrize("name", TABLE_COVERS + ["thurston-f2-times-5-2"])
def test_the_obstruction_tables_match_the_polynomial_arithmetic(name):
    from test_sparse_solver import scaled_cover

    base = {}
    if name in TABLE_COVERS:
        fibration = load_catalog(name)
        cover = fibration.cover
        base = {e: fibration.primitive(e) for e in cover.faces_of_degree(1)}
        assert fibration.obstruction_cocycle() == reference_alpha(cover, base)
    else:
        cover = scaled_cover("thurston-f2", F(5, 2))
    rng = random.Random(sum(map(ord, name)))
    seen = {"ok": 0, "quadratic part": 0, "not integral": 0}
    for _ in range(150):
        primitives = seeded_primitives(cover, rng, base)
        want = reference_alpha(cover, primitives)
        if isinstance(want, AffCochain):
            seen["ok"] += 1
            assert FibrationData(cover, primitives).obstruction_cocycle() == want
            continue
        seen["quadratic part" if "quadratic part" in want else "not integral"] += 1
        with pytest.raises(InvalidFibrationError, match=f"^{re.escape(want)}$"):
            FibrationData(cover, primitives)
    assert min(seen.values()) >= 5, seen
