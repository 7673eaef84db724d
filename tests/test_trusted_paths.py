"""Results built from valid operands skip the constructor checks.

Arithmetic on ``NovikovScalar`` and ``AffinoidElement`` builds its
results through private constructors that trust their input.  These
seeded differential tests rebuild every such result through the public,
checked constructor and require the same data down to the types, and
pin what the public constructors still refuse.
"""

import random
from fractions import Fraction

import pytest

from mirrorforge.affine import IntegralAffineMap, IntegralAffinePolytope, PolyFunction
from mirrorforge.catalog import load_catalog
from mirrorforge.cover import Cover
from mirrorforge.errors import ChartMismatchError
from mirrorforge.floer_demo import LinearLagrangian
from mirrorforge.mirror_charts import AffinoidElement, MirrorPoint, MonomialChartMap
from mirrorforge.novikov import NovikovScalar, _frac

F = Fraction
S = NovikovScalar


def typed(value):
    return (type(value), value)


def scalar_data(x):
    return (
        tuple((typed(e), typed(c)) for e, c in x.terms),
        typed(x.cutoff),
    )


def assert_same_scalar(got, want):
    assert type(got) is S and type(want) is S
    assert scalar_data(got) == scalar_data(want)


def assert_checked_form(x):
    """``x`` equals its own rebuild through the public constructor."""
    assert_same_scalar(x, S(x.terms, x.cutoff))


def random_scalar(rng):
    terms = [
        (F(rng.randrange(-6, 13), rng.randrange(1, 5)), F(rng.randrange(-5, 6)))
        for _ in range(rng.randrange(0, 5))
    ]
    cutoff = F(rng.randrange(2, 12), rng.choice((1, 2))) if rng.random() < 0.5 else None
    return S(terms, cutoff)


def min_cutoff(*cutoffs):
    known = [c for c in cutoffs if c is not None]
    return min(known) if known else None


SCALAR_SEEDS = range(40)


@pytest.mark.parametrize("seed", SCALAR_SEEDS)
def test_scalar_ring_operations_match_checked_constructor(seed):
    rng = random.Random(1000 + seed)
    for _ in range(25):
        a, b = random_scalar(rng), random_scalar(rng)
        cutoff = min_cutoff(a.cutoff, b.cutoff)

        total = a + b
        assert_checked_form(total)
        assert_same_scalar(total, S(a.terms + b.terms, cutoff))

        neg = -a
        assert_checked_form(neg)
        assert_same_scalar(neg, S(tuple((e, -c) for e, c in a.terms), a.cutoff))

        diff = a - b
        assert_checked_form(diff)
        assert_same_scalar(
            diff, S(a.terms + tuple((e, -c) for e, c in b.terms), cutoff)
        )
        assert_same_scalar(a - a, S((), a.cutoff))

        prod = a * b
        assert_checked_form(prod)
        raw = [(ea + eb, xa * xb) for ea, xa in a.terms for eb, xb in b.terms]
        assert_same_scalar(prod, S(raw, prod.cutoff))

        k = F(rng.randrange(-3, 4), rng.randrange(1, 3))
        for mixed in (a + k, k + a, a - k, k - a, a * k, k * a):
            assert_checked_form(mixed)
        scaled = a * k
        assert_same_scalar(scaled, S([(e, c * k) for e, c in a.terms], scaled.cutoff))


@pytest.mark.parametrize("seed", SCALAR_SEEDS)
def test_scalar_truncate_and_inverse_match_checked_constructor(seed):
    rng = random.Random(2000 + seed)
    for _ in range(25):
        a = random_scalar(rng)
        precision = F(rng.randrange(-4, 14), rng.randrange(1, 4))
        cut = a.truncate(precision)
        assert_checked_form(cut)
        assert_same_scalar(cut, S(a.terms, min_cutoff(a.cutoff, precision)))
        assert_same_scalar(a.truncate(int(precision)), a.truncate(F(int(precision))))

        if not a.terms:
            continue
        if a.cutoff is None:
            a = a.truncate(a.terms[0][0] + rng.randrange(1, 8))
        inv = a.inverse()
        assert_checked_form(inv)
        assert (a * inv).agrees_with(S.one())
    for coeff in (F(1), F(-1), F(-3, 4)):
        exponent = F(rng.randrange(-6, 7), 2)
        inv = S.monomial(coeff, exponent).inverse()
        assert_checked_form(inv)
        assert_same_scalar(inv, S.monomial(1 / coeff, -exponent))


def test_scalar_results_drop_terms_at_the_cutoff():
    a = S(((F(0), F(1)), (F(2), F(1))), F(3))
    b = S(((F(0), F(1)), (F(1), F(1))), F(2))
    assert_same_scalar(a * b, S(((F(0), F(1)), (F(1), F(1))), F(2)))
    assert_same_scalar(a + b, S(((F(0), F(2)), (F(1), F(1))), F(2)))
    assert_same_scalar(a * a, S(((F(0), F(1)), (F(2), F(2))), F(3)))


# -- affinoid elements ------------------------------------------------------


COVERS = {name: load_catalog(name).cover for name in ("split-torus-4", "thurston-f2")}


def element_data(x):
    return (
        x.cover,
        tuple(typed(i) for i in x.face),
        tuple(typed(v) for v in x.basepoint),
        [
            (tuple(typed(v) for v in exponent), scalar_data(coeff))
            for exponent, coeff in x.terms.items()
        ],
    )


def assert_same_element(got, want):
    assert type(got) is AffinoidElement and type(want) is AffinoidElement
    assert element_data(got) == element_data(want)


def assert_element_checked_form(x):
    """``x`` equals its own rebuild through the public constructor."""
    rebuilt = AffinoidElement(x.cover, x.face, x.terms, x.basepoint)
    assert_same_element(x, rebuilt)


def random_element(rng, cover, face, basepoint=None):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        exponent = tuple(rng.randint(-2, 2) for _ in range(cover.dimension))
        coeff = S.monomial(F(rng.choice((-3, -1, 1, 2))), F(rng.randint(-2, 8), 4))
        if rng.random() < 0.3:
            coeff = coeff.truncate(F(rng.randint(4, 16), 2))
        terms[exponent] = coeff
    return AffinoidElement(cover, face, terms, basepoint)


def off_basepoint(cover, face):
    """A point inside the face polytope that is not its basepoint."""
    chart = cover.face_chart(face)
    vertices = chart.polytope.vertices
    point = tuple(sum(coords) / len(vertices) for coords in zip(*vertices))
    assert point != chart.basepoint
    return point


def refinements(cover, face):
    return sorted(f for f in cover.faces if set(face) < set(f))


@pytest.mark.parametrize("name", sorted(COVERS))
@pytest.mark.parametrize("seed", range(6))
def test_element_ring_operations_match_checked_constructor(name, seed):
    cover = COVERS[name]
    rng = random.Random(3000 + seed)
    faces = sorted(cover.faces)
    for _ in range(12):
        face = rng.choice(faces)
        basepoint = off_basepoint(cover, face) if rng.random() < 0.3 else None
        a = random_element(rng, cover, face, basepoint)
        b = random_element(rng, cover, face, basepoint)
        checked = lambda terms: AffinoidElement(cover, face, terms, a.basepoint)

        total = a + b
        assert_element_checked_form(total)
        merged = a.terms
        for exponent, coeff in b.terms.items():
            merged[exponent] = merged.get(exponent, S.zero()) + coeff
        assert_same_element(total, checked(merged))

        neg = -a
        assert_element_checked_form(neg)
        assert_same_element(neg, checked({e: -c for e, c in a.terms.items()}))

        diff = a - b
        assert_element_checked_form(diff)
        assert_same_element(diff, a + (-b))
        assert_element_checked_form(a - a)

        prod = a * b
        assert_element_checked_form(prod)
        raw = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                raw[key] = raw.get(key, S.zero()) + ca * cb
        assert_same_element(prod, checked(raw))

        k = S.monomial(F(rng.randint(1, 3)), F(rng.randint(-2, 2), 3))
        for scaled in (a * k, k * a, a * 3, 2 * a):
            assert_element_checked_form(scaled)
        assert_same_element(a * k, checked({e: c * k for e, c in a.terms.items()}))


@pytest.mark.parametrize("name", sorted(COVERS))
def test_element_inverse_matches_checked_constructor(name):
    cover = COVERS[name]
    rng = random.Random(4000)
    for face in sorted(cover.faces)[:20]:
        for basepoint in (None, off_basepoint(cover, face)):
            exponent = tuple(rng.randint(-2, 2) for _ in range(cover.dimension))
            coeff = S.monomial(F(rng.choice((-2, 1, 3))), F(rng.randint(-4, 4), 3))
            if rng.random() < 0.5:
                coeff = coeff + S.monomial(1, coeff.terms[0][0] + 1)
                coeff = coeff.truncate(coeff.terms[0][0] + 5)
            a = AffinoidElement(cover, face, {exponent: coeff}, basepoint)
            inv = a.inverse()
            assert_element_checked_form(inv)
            want = {tuple(-x for x in exponent): coeff.inverse()}
            assert_same_element(inv, AffinoidElement(cover, face, want, a.basepoint))


@pytest.mark.parametrize("name", sorted(COVERS))
@pytest.mark.parametrize("moved", [False, True], ids=["canonical", "with_basepoint"])
def test_restrict_matches_checked_constructor(name, moved):
    cover = COVERS[name]
    rng = random.Random(5000 + moved)
    sources = [f for f in sorted(cover.faces) if refinements(cover, f)]
    for face in sources[:: max(1, len(sources) // 15)]:
        a = random_element(rng, cover, face)
        if moved:
            a = a.with_basepoint(off_basepoint(cover, face))
            assert a.basepoint != cover.face_chart(face).basepoint
        for to_face in refinements(cover, face)[:4]:
            r = a.restrict(to_face)
            # the checked path takes the target chart's canonical basepoint
            assert_same_element(r, AffinoidElement(cover, to_face, r.terms))
            assert r.basepoint is cover.face_chart(to_face).basepoint
            assert_same_element(a.restrict(to_face), r)


def test_restrict_of_a_moved_element_agrees_with_the_canonical_one():
    cover = COVERS["thurston-f2"]
    rng = random.Random(6000)
    face = (0,)
    a = random_element(rng, cover, face)
    moved = a.with_basepoint(off_basepoint(cover, face))
    for to_face in refinements(cover, face)[:6]:
        assert moved.restrict(to_face) == a.restrict(to_face)


# -- what the public constructors still refuse ------------------------------


TORUS = COVERS["split-torus-4"]


class TestBoundary:
    def test_float_coefficient_refused(self):
        with pytest.raises(TypeError, match="cannot use 0.5 as a scalar coefficient"):
            AffinoidElement(TORUS, (0,), {(1, 0): 0.5})
        with pytest.raises(TypeError, match="floats are not allowed"):
            S(((0, 0.5),))

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_bool_or_float_exponent_refused(self, bad):
        with pytest.raises(TypeError, match="exponent vectors must be integers"):
            AffinoidElement(TORUS, (0,), {(bad, 0): 1})
        with pytest.raises(TypeError, match="exponent vectors must be integers"):
            AffinoidElement.one(TORUS, (0,)).weight((0, bad))

    def test_wrong_length_exponent_refused(self):
        with pytest.raises(ChartMismatchError, match="exponent vector has wrong length"):
            AffinoidElement(TORUS, (0,), {(1, 0, 0): 1})

    def test_with_basepoint_outside_polytope_refused(self):
        element = AffinoidElement.monomial(TORUS, (0,), 1, (1, 0))
        with pytest.raises(ChartMismatchError, match="lies outside the face polytope"):
            element.with_basepoint((F(1), F(1)))
        with pytest.raises(ChartMismatchError, match="lies outside the face polytope"):
            AffinoidElement(TORUS, (0,), {(1, 0): 1}, (F(-1), F(0)))

    def test_wrong_length_basepoint_refused(self):
        with pytest.raises(ChartMismatchError, match="point has wrong dimension"):
            AffinoidElement(TORUS, (0,), {(1, 1): 1}, basepoint=(0,))

    @pytest.mark.parametrize("position", [(F(1, 4),), (F(1, 4), F(1, 4), 9)])
    def test_wrong_length_position_refused(self, position):
        element = AffinoidElement.monomial(TORUS, (0,), 1, (1, 1))
        with pytest.raises(ChartMismatchError, match="mirror point has wrong dimension"):
            element.evaluate(MirrorPoint(position, (1, 1)))

    def test_float_powers_refused(self):
        with pytest.raises(TypeError, match="exponent tuples must be integers"):
            PolyFunction(1, {(1.9,): 1})
        with pytest.raises(TypeError, match="polynomial dimensions must be integers"):
            PolyFunction(1.5, {(1,): 1})

    def test_float_monomial_matrix_refused(self):
        with pytest.raises(TypeError, match="matrix entries must be integers"):
            MonomialChartMap(((1.7, 0), (0, 1)), (0, 0))

    def test_float_polytope_dimension_refused(self):
        ineqs = [((-1,), 0), ((1,), 1)]
        with pytest.raises(TypeError, match="polytope dimensions must be integers"):
            IntegralAffinePolytope(1.5, ineqs, [(0,), (1,)])
        with pytest.raises(TypeError, match="polytope dimensions must be integers"):
            IntegralAffinePolytope.from_inequalities(1.5, ineqs)

    def test_float_cover_dimension_refused(self):
        circle = load_catalog("elliptic-demo").cover
        polytopes = {face: circle.polytope(face) for face in circle.faces}
        edges = circle.faces_of_degree(1)
        transitions = {edge: circle.transition(*edge) for edge in edges}
        args = (circle.chart_ids, circle.faces, polytopes, transitions)
        assert Cover(1, *args) == circle
        with pytest.raises(TypeError, match="cover dimensions must be integers"):
            Cover(1.5, *args)


class TestRationalCoercion:
    def test_rational_strings_accepted(self):
        assert _frac("3/4") == F(3, 4)
        assert _frac("-2") == F(-2)
        assert S.monomial("1/2", "-3/2") == S.monomial(F(1, 2), F(-3, 2))
        assert LinearLagrangian(1, "1/3").offset == F(1, 3)

    def test_fractions_pass_through_and_ints_convert(self):
        half = F(1, 2)
        assert _frac(half) is half
        assert typed(_frac(3)) == (Fraction, F(3))

    def test_floats_refused(self):
        with pytest.raises(TypeError, match="floats are not allowed"):
            _frac(0.5)
        with pytest.raises(TypeError, match="floats are not allowed"):
            LinearLagrangian(1, 0.5)
        with pytest.raises(TypeError):
            _frac(None)


# -- stored chart transitions -----------------------------------------------


@pytest.mark.parametrize("name", ["split-torus-4", "thurston-f1", "elliptic-demo"])
def test_transitions_are_built_once(name):
    cover = load_catalog(name).cover
    for i, j in cover.faces_of_degree(1):
        forward = cover.transition(i, j)
        backward = cover.transition(j, i)
        assert cover.transition(i, j) is forward
        assert cover.transition(j, i) is backward
        assert backward == forward.inverse()
        assert backward.compose(forward) == IntegralAffineMap.identity(cover.dimension)
    for i in range(len(cover.chart_ids)):
        assert cover.transition(i, i) == IntegralAffineMap.identity(cover.dimension)
        assert cover.transition(i, i) is cover.transition(0, 0)
