import random
from fractions import Fraction
from itertools import combinations

import pytest

from mirrorforge.affine import AffineFunction, dot
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.errors import ChartMismatchError, UndecidableDescriptionError
from mirrorforge.floer_demo import LinearLagrangian, patch_global
from mirrorforge.mirror_charts import (
    AffinoidElement,
    MaxAffineValuation,
    MirrorPoint,
    MonomialChartMap,
    QuadraticValuation,
    _is_psd,
    chart_monomial_map,
    converges_on,
    exp_aff,
    gerbe_value,
    nested_quadruples,
    nested_triples,
    path_monomial_map,
    verify_gerbe,
)
from mirrorforge.novikov import NovikovScalar
from mirrorforge.twisted_sheaves import loop_monodromy


def F(*args):
    return Fraction(*args)


def mono(coeff, exp):
    return NovikovScalar.monomial(coeff, exp)


ELLIPTIC = load_catalog("elliptic").cover
TORUS = load_catalog("split-torus-4").cover
F1 = load_catalog("thurston-f1")
F2 = load_catalog("thurston-f2")


def random_element(rng, cover, face, nterms=3):
    n = cover.dimension
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(-2, 2) for _ in range(n))
        coeff = mono(F(rng.randint(-4, 4)), F(rng.randint(-2, 8), 4))
        terms[exp] = terms.get(exp, NovikovScalar.zero()) + coeff
    return AffinoidElement(cover, face, terms)


class TestElements:
    def test_exp_of_affine_function(self):
        fn = AffineFunction((1, 0), F(1, 2))
        element = exp_aff(TORUS, (0,), fn)
        assert element.terms == {(1, 0): mono(1, F(1, 2))}

    def test_exp_is_multiplicative(self):
        rng = random.Random(7)
        for _ in range(20):
            a = AffineFunction(
                tuple(rng.randint(-2, 2) for _ in range(2)),
                F(rng.randint(-3, 3), 2),
            )
            b = AffineFunction(
                tuple(rng.randint(-2, 2) for _ in range(2)),
                F(rng.randint(-3, 3), 2),
            )
            face = (0, 1)
            assert exp_aff(TORUS, face, a + b) == exp_aff(TORUS, face, a) * exp_aff(
                TORUS, face, b
            )

    def test_monomial_weights_on_an_interval(self):
        one = AffinoidElement.one(ELLIPTIC, (0,))
        assert one.weight((1,)) == 0
        assert one.weight((-1,)) == F(-5, 12)
        shared = AffinoidElement.one(ELLIPTIC, (0, 1))
        # overlap [1/3, 5/12] with basepoint 1/3
        assert shared.weight((1,)) == 0
        assert shared.weight((-1,)) == F(-1, 12)

    def test_ring_axioms_on_random_elements(self):
        rng = random.Random(11)
        face = (0,)
        for _ in range(25):
            a = random_element(rng, ELLIPTIC, face)
            b = random_element(rng, ELLIPTIC, face)
            c = random_element(rng, ELLIPTIC, face)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + AffinoidElement(ELLIPTIC, face) == a
            assert a * AffinoidElement.one(ELLIPTIC, face) == a

    def test_monomial_inverse(self):
        element = AffinoidElement.monomial(TORUS, (0,), mono(2, F(1, 3)), (1, -2))
        assert element * element.inverse() == AffinoidElement.one(TORUS, (0,))
        two_terms = element + AffinoidElement.one(TORUS, (0,))
        with pytest.raises(ChartMismatchError):
            two_terms.inverse()

    def test_mismatched_faces_refuse_arithmetic(self):
        a = AffinoidElement.one(ELLIPTIC, (0,))
        b = AffinoidElement.one(ELLIPTIC, (1,))
        with pytest.raises(ChartMismatchError):
            a + b

    def test_truncation_tracks_weights(self):
        element = AffinoidElement.monomial(ELLIPTIC, (0,), mono(1, 3), (-1,))
        # t-adic size is 3 + weight(-1) = 3 - 5/12 = 31/12
        assert element.is_zero_at(F(31, 12))
        assert not element.is_zero_at(F(8, 3))


class TestEvaluationAndBasepoints:
    def test_evaluation_is_exact(self):
        element = AffinoidElement.monomial(ELLIPTIC, (1,), 9, (2,))
        at_base = element.evaluate(MirrorPoint((F(1, 3),), (3,)))
        assert at_base == NovikovScalar.from_rational(81)
        inside = element.evaluate(MirrorPoint((F(5, 12),), (3,)))
        assert inside == mono(81, F(1, 6))

    def test_point_validation(self):
        element = AffinoidElement.one(ELLIPTIC, (0,))
        with pytest.raises(ValueError):
            MirrorPoint((F(1, 4),), (0,))
        with pytest.raises(ChartMismatchError):
            element.evaluate(MirrorPoint((F(1, 2),), (1,)))

    def test_basepoint_change_is_a_ring_map_commuting_with_evaluation(self):
        rng = random.Random(23)
        p = (F(1, 4),)
        for _ in range(15):
            a = random_element(rng, ELLIPTIC, (0,))
            b = random_element(rng, ELLIPTIC, (0,))
            assert a.with_basepoint(p) + b.with_basepoint(p) == (a + b).with_basepoint(p)
            assert a.with_basepoint(p) * b.with_basepoint(p) == (a * b).with_basepoint(p)
            assert a.with_basepoint(p).with_basepoint((F(0),)) == a
            point = MirrorPoint(
                (F(rng.randint(0, 5), 12),), (F(rng.randint(1, 5)),)
            )
            assert a.with_basepoint(p).evaluate(point) == a.evaluate(point)

    def test_basepoint_must_lie_in_the_polytope(self):
        with pytest.raises(ChartMismatchError):
            AffinoidElement.one(ELLIPTIC, (0,), basepoint=(F(1, 2),))


class TestRestriction:
    def test_wrap_restriction_picks_up_exact_powers(self):
        # chart 2 covers [2/3, 13/12]; the wrap overlap with chart 0 is
        # [0, 1/12] in chart 0 coordinates, reached through x -> x + 1.
        element = AffinoidElement.monomial(ELLIPTIC, (2,), 1, (1,))
        moved = element.restrict((0, 2))
        assert moved.terms == {(1,): mono(1, F(1, 3))}
        element = AffinoidElement.monomial(ELLIPTIC, (2,), 1, (-2,))
        assert element.restrict((0, 2)).terms == {(-2,): mono(1, F(-2, 3))}

    def test_restriction_is_a_ring_map(self):
        rng = random.Random(31)
        for src, tgt in [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]:
            for _ in range(10):
                a = random_element(rng, ELLIPTIC, src)
                b = random_element(rng, ELLIPTIC, src)
                assert (a + b).restrict(tgt) == a.restrict(tgt) + b.restrict(tgt)
                assert (a * b).restrict(tgt) == a.restrict(tgt) * b.restrict(tgt)
                assert AffinoidElement.one(ELLIPTIC, src).restrict(
                    tgt
                ) == AffinoidElement.one(ELLIPTIC, tgt)

    def test_restriction_composes_along_chains(self):
        rng = random.Random(37)
        for _ in range(10):
            a = random_element(rng, TORUS, (0,))
            assert a.restrict((0, 1)).restrict((0, 1, 3)) == a.restrict((0, 1, 3))

    def test_restriction_needs_a_nested_face(self):
        a = AffinoidElement.one(ELLIPTIC, (0, 1))
        with pytest.raises(ChartMismatchError):
            a.restrict((1, 2))
        with pytest.raises(ChartMismatchError):
            a.restrict((0, 1))


def ray_growth(valuation, vertices, q, d):
    """Exact growth of val + weight along the ray through d."""
    w = min(dot(tuple(a - b for a, b in zip(v, q)), d) for v in vertices)
    if isinstance(valuation, QuadraticValuation):
        quad = sum(
            d[i] * valuation.quad[i][j] * d[j]
            for i in range(len(d))
            for j in range(len(d))
        )
        if quad != 0:
            return quad > 0
        return dot(valuation.linear, d) + w > 0
    return max(dot(u, d) for u, _ in valuation.rows) + w > 0


def oracle_converges(valuation, cover, face, bound=4):
    chart = cover.face_chart(tuple(sorted(face)))
    vertices = chart.polytope.vertices
    q = chart.basepoint
    n = cover.dimension
    directions = []
    if n == 1:
        directions = [(1,), (-1,)]
    else:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if (x, y) != (0, 0):
                    directions.append((x, y))
    return all(ray_growth(valuation, vertices, q, d) for d in directions)


def small_det(mat):
    if not mat:
        return F(1)
    return sum(
        (-1) ** j * mat[0][j] * small_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
    )


def psd_by_principal_minors(quad):
    """Symmetric Q is PSD iff every principal minor, not only the leading
    ones, is nonnegative."""
    n = len(quad)
    return all(
        small_det([[quad[i][j] for j in subset] for i in subset]) >= 0
        for k in range(1, n + 1)
        for subset in combinations(range(n), k)
    )


def random_symmetric(rng, n):
    kind = rng.choice(("gram", "gram", "negated", "plain"))
    if kind == "plain":
        upper = {(i, j): F(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(n) for j in range(i, n)}
        return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    # B^T B is PSD, and singular whenever B has fewer rows than columns
    b = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(rng.randint(1, n))]
    sign = -1 if kind == "negated" else 1
    return tuple(
        tuple(sign * sum(row[i] * row[j] for row in b) for j in range(n)) for i in range(n)
    )


class TestPositiveSemidefinite:
    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_principal_minor_enumeration(self, n):
        rng = random.Random(70 + n)
        verdicts = []
        for _ in range(150):
            quad = random_symmetric(rng, n)
            verdicts.append(psd_by_principal_minors(quad))
            assert _is_psd(quad) == verdicts[-1], quad
        assert 30 < sum(verdicts) < 120

    @pytest.mark.parametrize(
        "quad, psd",
        [
            (((1, 2), (2, 4)), True),  # v v^T for v = (1, 2), singular
            (((1, -1, 2), (-1, 1, -2), (2, -2, 4)), True),  # v v^T in 3d
            (((0, 0), (0, 0)), True),
            (((0, 0, 0), (0, 0, 0), (0, 0, 0)), True),
            (((1, 2), (2, 1)), False),  # nonnegative diagonal, indefinite
            (((0, 1), (1, 0)), False),  # zero diagonal, indefinite
            (((2, 0, 1), (0, 0, 0), (1, 0, 1)), True),  # PSD with a zero pivot
            (((-2, 1), (1, -2)), False),  # negative definite
            (((-1, 0, 0), (0, -2, 0), (0, 0, -3)), False),
            (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), True),
        ],
    )
    def test_named_cases(self, quad, psd):
        quad = tuple(tuple(F(x) for x in row) for row in quad)
        assert psd_by_principal_minors(quad) == psd
        assert _is_psd(quad) == psd

    def test_two_dimensional_quadratic_on_the_torus(self):
        definite = QuadraticValuation(((2, 1), (1, 2)), (0, 0), 0)
        assert converges_on(definite, TORUS, (0,))
        indefinite = QuadraticValuation(((1, 2), (2, 1)), (0, 0), 0)
        assert not converges_on(indefinite, TORUS, (0,))


class TestConvergence:
    def test_definite_quadratic_converges(self):
        desc = QuadraticValuation(((1,),), (0,), 0)
        assert converges_on(desc, ELLIPTIC, (0,))

    def test_bounded_valuations_diverge(self):
        desc = QuadraticValuation(((0,),), (0,), 0)
        assert not converges_on(desc, ELLIPTIC, (0,))

    def test_two_sided_slope_converges_but_one_sided_does_not(self):
        two_sided = MaxAffineValuation((((F(1, 2),), 0), ((F(-1, 2),), 0)))
        assert converges_on(two_sided, ELLIPTIC, (0,))
        one_sided = MaxAffineValuation((((F(1, 2),), 0),))
        assert not converges_on(one_sided, ELLIPTIC, (0,))

    def test_indefinite_quadratic_diverges(self):
        assert not converges_on(QuadraticValuation(((-1,),), (0,), 0), ELLIPTIC, (0,))

    def test_degenerate_direction_cannot_be_rescued_by_a_linear_part(self):
        for u in [(0, 0), (0, 1), (3, -2)]:
            desc = QuadraticValuation(((1, 0), (0, 0)), u, 0)
            assert not converges_on(desc, TORUS, (0,))

    def test_unknown_descriptions_are_refused(self):
        with pytest.raises(UndecidableDescriptionError):
            converges_on(lambda a: a * a, ELLIPTIC, (0,))

    def test_agreement_with_ray_oracle(self):
        rng = random.Random(41)
        cases = []
        for _ in range(40):
            b = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            quad = tuple(
                tuple(
                    sum(b[k][i] * b[k][j] for k in range(2)) for j in range(2)
                )
                for i in range(2)
            )
            u = tuple(F(rng.randint(-2, 2)) for _ in range(2))
            cases.append(QuadraticValuation(quad, u, 0))
        for _ in range(40):
            rows = tuple(
                (tuple(F(rng.randint(-2, 2)) for _ in range(2)), 0)
                for _ in range(rng.randint(1, 3))
            )
            cases.append(MaxAffineValuation(rows))
        for face in [(0,), (0, 1), (0, 1, 3)]:
            for desc in cases:
                assert converges_on(desc, TORUS, face) == oracle_converges(
                    desc, TORUS, face
                )


class TestMonomialMaps:
    def test_round_trips_compose_to_the_identity(self):
        for i, j in [(0, 1), (0, 2), (3, 6), (0, 6)]:
            loop = path_monomial_map(TORUS, [i, j, i])
            assert loop == MonomialChartMap.identity(2)

    def test_translation_cover_loops_are_pure_rescalings(self):
        around_u = path_monomial_map(TORUS, [0, 3, 6, 0])
        assert around_u.apply_exponent((1, 0)) == ((1, 0), 1)
        assert around_u.apply_exponent((0, 1)) == ((0, 1), 0)
        around_v = path_monomial_map(TORUS, [0, 1, 2, 0])
        assert around_v.apply_exponent((0, 1)) == ((0, 1), 1)
        assert around_v.apply_exponent((1, 0)) == ((1, 0), 0)

    def test_sheared_cover_loop_in_the_plain_direction(self):
        loop = path_monomial_map(F2.cover, [0, 3, 6, 0])
        assert loop.apply_exponent((0, 1)) == ((0, 1), 0)
        assert loop.apply_exponent((1, 0)) == ((1, 0), 1)

    def test_sheared_cover_loop_twists_the_fibre_coordinate(self):
        loop = path_monomial_map(F2.cover, [0, 1, 2, 0])
        assert loop.apply_exponent((0, 1)) == ((0, 1), 1)
        assert loop.apply_exponent((1, 0)) == ((1, 1), 0)

    def test_describe_renders_generator_images(self):
        loop = path_monomial_map(F2.cover, [0, 1, 2, 0])
        assert loop.describe() == ["z1 -> z1*z2", "z2 -> T^(1) * z2"]

    @pytest.mark.parametrize(
        "name",
        ["elliptic-demo", "split-torus-2", "split-torus-4", "thurston-f1", "thurston-f2"],
    )
    def test_stored_reverse_transition_gives_the_inverse_built_map(self, name):
        cover = load_catalog(name).cover

        def inverse_built(i, j):
            inv = cover.transition(i, j).inverse()
            moved = inv.apply(cover.face_chart((j,)).basepoint)
            q_i = cover.face_chart((i,)).basepoint
            return MonomialChartMap(
                tuple(zip(*inv.linear)), tuple(a - b for a, b in zip(moved, q_i))
            )

        for i, j in cover.faces_of_degree(1):
            assert chart_monomial_map(cover, i, j) == inverse_built(i, j)
            assert chart_monomial_map(cover, j, i) == inverse_built(j, i)

    def test_non_edge_names_the_charts_in_the_callers_order(self):
        cover = load_catalog("split-torus-2").cover
        with pytest.raises(ChartMismatchError, match="^charts '0' and '2' do not share an edge$"):
            chart_monomial_map(cover, 0, 2)
        with pytest.raises(ChartMismatchError, match="^charts '2' and '0' do not share an edge$"):
            chart_monomial_map(cover, 2, 0)

    def test_a_chart_index_off_the_cover_is_refused_by_name(self):
        # split-torus-2 has charts 0..3: an index past them leaked an
        # IndexError from the refusal's own message, and a negative one
        # named the chart it wrapped round to
        fibration = load_catalog("split-torus-2")
        cover = fibration.cover
        module = patch_global(LinearLagrangian(1), fibration)
        calls = [
            (lambda: cover.transition(0, 7), 7),
            (lambda: cover.transition(7, 0), 7),
            (lambda: cover.transition(7, 7), 7),
            (lambda: cover.transition(-1, 0), -1),
            (lambda: chart_monomial_map(cover, 0, 7), 7),
            (lambda: chart_monomial_map(cover, -1, 0), -1),
            (lambda: loop_monodromy(module, [0, 7]), 7),
            (lambda: loop_monodromy(module, [0, 1, -1]), -1),
        ]
        for call, index in calls:
            with pytest.raises(
                ChartMismatchError, match=rf"^chart index {index} is outside 0\.\.3$"
            ):
                call()

    def test_a_face_off_the_cover_is_refused_by_index(self):
        # elliptic-demo has charts 0..2: a face holding an index past
        # them leaked an IndexError from the refusal's own message, and
        # (-1,) was refused as {2}, a chart that is a face
        fibration = load_catalog("elliptic-demo")
        cover = fibration.cover
        module = patch_global(LinearLagrangian(1), fibration)
        calls = [
            (lambda: cover.face_chart((5,)), 5),
            (lambda: cover.face_chart((0, 7)), 7),
            (lambda: cover.face_chart((-1,)), -1),
            (lambda: cover.polytope((5,)), 5),
            (lambda: cover.polytope((-1, 0)), -1),
            (lambda: module.restriction((5,), (5,)), 5),
            (lambda: AffinoidElement.one(cover, (5,)), 5),
        ]
        for call, index in calls:
            with pytest.raises(
                ChartMismatchError, match=rf"^chart index {index} is outside 0\.\.2$"
            ):
                call()
        with pytest.raises(ChartMismatchError, match=r"^\{0,1,2\} is not a face$"):
            cover.face_chart((0, 1, 2))

    def test_edge_map_matches_restriction_on_the_overlap(self):
        # moving a monomial through chart coordinates agrees with the two
        # restrictions to the shared edge
        rng = random.Random(53)
        for i, j in [(0, 1), (0, 2), (2, 0), (0, 6), (6, 0)]:
            edge = tuple(sorted((i, j)))
            step = chart_monomial_map(TORUS, i, j)
            for _ in range(5):
                exp = tuple(rng.randint(-2, 2) for _ in range(2))
                moved, power = step.apply_exponent(exp)
                src = AffinoidElement.monomial(TORUS, (i,), 1, exp)
                tgt = AffinoidElement.monomial(
                    TORUS, (j,), NovikovScalar.monomial(1, power), moved
                )
                assert src.restrict(edge) == tgt.restrict(edge)


class TestGerbe:
    def test_nested_chains_respect_final_charts(self):
        triples = nested_triples(TORUS)
        assert ((0,), (0, 1), (0, 1, 3)) in triples
        assert all(i[-1] < j[-1] < k[-1] for i, j, k in triples)
        quads = nested_quadruples(TORUS)
        assert all(len(deep) == 4 for _, _, _, deep in quads)
        assert quads

    @pytest.mark.parametrize("name", catalog_ids())
    def test_quadruples_match_the_double_loop(self, name):
        # the replaced search: every face tested against every triple,
        # with two chart sets built per test
        cover = load_catalog(name).cover
        reference = sorted(
            (low, mid, top, deeper)
            for low, mid, top in nested_triples(cover)
            for deeper in cover.faces
            if set(top) < set(deeper) and top[-1] < deeper[-1]
        )
        assert nested_quadruples(cover) == reference
        assert bool(reference) == (cover.dimension == 2)

    def test_obstructed_catalog_has_monomial_gerbe_entries(self):
        entry = gerbe_value(F1, (0,), (0, 2), (0, 2, 6))
        assert entry.terms == {(0, 1): mono(1, F(1, 2))}
        assert entry.face == (0, 2, 6)

    def test_gerbe_entry_needs_a_strict_chain(self):
        with pytest.raises(ChartMismatchError):
            gerbe_value(F1, (0,), (1, 2), (0, 1, 2))
        with pytest.raises(ChartMismatchError):
            gerbe_value(F1, (1,), (0, 1), (0, 1, 3))

    def test_cocycle_identity_holds_exactly(self):
        report = verify_gerbe(F1)
        assert report.holds
        assert report.quadruples > 0
        assert not verify_gerbe(load_catalog("split-torus-4")).failures

    def test_trivial_catalog_has_unit_entries(self):
        plain = load_catalog("split-torus-4")
        entry = gerbe_value(plain, (0,), (0, 1), (0, 1, 3))
        assert entry == AffinoidElement.one(plain.cover, (0, 1, 3))
