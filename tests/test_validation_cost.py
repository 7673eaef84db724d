"""``validate_module`` at the cost the module's structure asks for.

Restriction reads its exponent map and basepoint move from the cover's
``restriction_moves`` table and shifts coefficients by a power of t in
place of a general product; the determinant multiplies the determinants
of the diagonal blocks of the block-triangular form.  The references
below are the code these replaced: the restriction that applied the
chart transition on Fractions per call, and the Berkowitz recurrence
run on the whole matrix.  Every result must match them down to the
types, and the count guards keep per-chain map application from
coming back.  The cocycle pass takes a product with the exact unit,
which every twist factor of a trivial torus is, as the other factor:
a guard counts such products, and the reports must match the pass that
forms them.

The cocycle pass reads the module's own sparse rows, carries entries
along the cover's move table, multiplies rows with no product for an
exact zero and forms a residual only where the two sides of the
identity differ or carry a truncated coefficient.  The pass it
replaced, on dense matrices read through ``module.restriction`` and
``entry.restrict`` with a residual for every chain, is kept below as a
reference with its dense matrix helpers: reports, and every
``PrecisionExhaustedError``, must match it on canonical modules and
their mutants, direct sums of rank 2 and 3 with off-diagonal, t-scaled
and truncated entries, and the line modules of both circles.  The exp
entries of rank-one modules and twist factors are read off the same
move table, never through ``exp_aff``.
"""

import random
from fractions import Fraction

import pytest

from mirrorforge.affine import AffineFunction, IntegralAffineMap, dot
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cover import Cover, coboundary_certificate
from mirrorforge.errors import ChartMismatchError, PrecisionExhaustedError
from mirrorforge.floer_demo import LinearLagrangian, patch_global
from mirrorforge.intlinalg import _diagonal_blocks, determinant, principal_minor_sums
from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration
from mirrorforge.mirror_charts import AffinoidElement, exp_aff, verify_gerbe
from mirrorforge.novikov import INF, NovikovScalar
from mirrorforge import cover as cover_module, mirror_charts, twisted_sheaves
from mirrorforge.twisted_sheaves import (
    TwistedModule,
    ValidationReport,
    canonical_twisted_module,
    element_is_unit_at,
    rank_one_module_from_cochain,
    validate_module,
)
from test_cech_differential import compose_with_map
from test_determinant import sparse_rows

F = Fraction
S = NovikovScalar
CATALOGS = catalog_ids()
CIRCLES = ("elliptic-demo", "split-torus-2")
TRIVIAL = ("elliptic-demo", "split-torus-2", "split-torus-4", "thurston-f2")
TORUS_TRIVIAL = ("split-torus-4", "thurston-f2")


def typed(value):
    return (type(value), value)


def scalar_data(x):
    assert type(x) is S
    return (tuple((typed(e), typed(c)) for e, c in x.terms), typed(x.cutoff))


def element_data(x):
    assert type(x) is AffinoidElement
    return (
        x.cover,
        tuple(typed(i) for i in x.face),
        tuple(typed(v) for v in x.basepoint),
        {
            tuple(typed(v) for v in exponent): scalar_data(coeff)
            for exponent, coeff in x.terms.items()
        },
    )


def fresh(name):
    """A fibration equal to the catalog entry on a cover of its own."""
    return manifest_to_fibration(fibration_to_manifest(load_catalog(name)))


# -- the replaced code, kept as references ----------------------------------


def reference_restrict(element, to_face):
    """Restriction with the chart transition applied on Fractions and
    each coefficient multiplied by a unit monomial."""
    to_face = tuple(sorted(to_face))
    if not set(element.face) < set(to_face):
        raise ChartMismatchError(f"{to_face} does not refine {element.face}")
    cover = element.cover
    src = cover.face_chart(element.face)
    tgt = cover.face_chart(to_face)
    phi = cover.transition(tgt.ambient, src.ambient)
    mt = tuple(zip(*phi.linear))
    q_tgt_in_src = phi.apply(tgt.basepoint)
    offset = tuple(a - b for a, b in zip(q_tgt_in_src, element.basepoint))
    out = {}
    for exponent, coeff in element.terms.items():
        moved = tuple(dot(row, exponent) for row in mt)
        scaled = coeff * S.monomial(1, dot(offset, exponent))
        out[moved] = out[moved] + scaled if moved in out else scaled
    return AffinoidElement(cover, to_face, out, tgt.basepoint)


def reference_with_basepoint(element, new_basepoint):
    shift = tuple(a - b for a, b in zip(new_basepoint, element.basepoint))
    out = {
        exponent: coeff * S.monomial(1, dot(shift, exponent))
        for exponent, coeff in element.terms.items()
    }
    return AffinoidElement(element.cover, element.face, out, new_basepoint)


def reference_determinant(rows):
    """The Berkowitz recurrence on the whole matrix: its last
    principal-minor sum."""
    return principal_minor_sums(rows)[-1]


def reference_rank_one_module(fibration, cochain):
    """One exp entry formed per nested pair."""
    cover = fibration.cover
    out = {}
    for low, top in cover.nested_pairs:
        a, b = low[-1], top[-1]
        if a == b:
            entry = AffinoidElement.one(cover, top)
        else:
            moved = compose_with_map(cochain.value((a, b)), cover.transition(top[0], a))
            entry = exp_aff(cover, top, moved)
        out[(low, top)] = entry
    return out


def dense_matmul(a, b):
    """The product of two dense matrices of affinoid elements, each
    entry summed over the inner index in order."""
    out = []
    for row in a:
        entries = []
        for j in range(len(b[0])):
            total = row[0] * b[0][j]
            for k in range(1, len(b)):
                total = total + row[k] * b[k][j]
            entries.append(total)
        out.append(tuple(entries))
    return tuple(out)


def dense_scale(mat, element):
    return tuple(tuple(element * entry for entry in row) for row in mat)


def dense_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_norm(mat):
    """The least valuation bound over every entry; INF for the zero matrix."""
    best = INF
    for row in mat:
        for entry in row:
            bound = entry.valuation_lower_bound()
            if bound < best:
                best = bound
    return best


def reference_validate(module, precision, stop_early=False):
    """The cocycle pass through the public, checked paths: dense
    matrices read by ``module.restriction``, carried by
    ``entry.restrict``, and a residual formed and tested for every
    chain.  Chains and pairs are counted as far as the scan went."""
    precision = F(precision)
    cover = module.cover
    twists = module.fibration.twist_factors
    cocycle_failures = []
    chains = 0
    for low, mid, top in cover.nested_chains:
        chains += 1
        left = dense_matmul(
            module.restriction(mid, top),
            tuple(
                tuple(entry.restrict(top) for entry in row)
                for row in module.restriction(low, mid)
            ),
        )
        right = dense_scale(module.restriction(low, top), twists[(low, mid, top)])
        residual = dense_sub(left, right)
        if not all(entry.is_zero_at(precision) for row in residual for entry in row):
            cocycle_failures.append(((low, mid, top), dense_norm(residual)))
            if stop_early:
                break
    det_failures = []
    pairs = 0
    if not (stop_early and cocycle_failures):
        for low, top in module.pairs:
            pairs += 1
            zero = AffinoidElement(module.cover, top)
            det = determinant(sparse_rows(module.restriction(low, top)), zero)
            if not element_is_unit_at(det, precision):
                det_failures.append((low, top))
                if stop_early:
                    break
    return ValidationReport(
        ok=not det_failures and not cocycle_failures,
        precision=precision,
        rank=module.rank,
        pairs_checked=pairs,
        triples_checked=chains,
        determinant_failures=tuple(det_failures),
        cocycle_failures=tuple(cocycle_failures),
    )


# -- restriction moves --------------------------------------------------------


def off_basepoint(cover, face):
    """A point inside the face polytope that is not its basepoint."""
    chart = cover.face_chart(face)
    vertices = chart.polytope.vertices
    point = tuple(sum(coords) / len(vertices) for coords in zip(*vertices))
    assert point != chart.basepoint
    return point


def sample_elements(rng, cover, face):
    """Multi-term elements with exact, truncated and truncated-zero
    coefficients, on the canonical basepoint and moved off it."""
    n = cover.dimension
    out = []
    for truncation in ("exact", "truncated", "zero"):
        terms = {}
        for _ in range(3):
            exponent = tuple(rng.randint(-2, 2) for _ in range(n))
            coeff = S(
                [(F(rng.randint(-4, 8), rng.choice((1, 2, 3))), rng.choice((-2, 1, 3)))
                 for _ in range(rng.randint(1, 3))]
            )
            if truncation == "truncated":
                coeff = coeff.truncate(F(rng.randint(2, 12), 2))
            terms[exponent] = coeff
        if truncation == "zero":
            terms[(0,) * n] = S.zero(F(rng.randint(1, 9), 2))
        out.append(AffinoidElement(cover, face, terms))
    point = off_basepoint(cover, face)
    for element in list(out):
        moved = element.with_basepoint(point)
        assert element_data(moved) == element_data(reference_with_basepoint(element, point))
        out.append(moved)
    return out


@pytest.mark.parametrize("name", CATALOGS)
def test_restriction_matches_the_transition_on_every_nested_pair(name):
    cover = load_catalog(name).cover
    rng = random.Random(f"restrict:{name}")
    lows = sorted({low for low, _ in cover.nested_pairs})
    elements = {low: sample_elements(rng, cover, low) for low in lows}
    for low, top in cover.nested_pairs:
        for element in elements[low]:
            got = element.restrict(top)
            assert element_data(got) == element_data(reference_restrict(element, top))
            assert got.basepoint is cover.face_chart(top).basepoint


@pytest.mark.parametrize("name", CATALOGS)
def test_restriction_refusals_keep_their_messages(name):
    cover = load_catalog(name).cover
    for low, top in cover.nested_pairs[::7]:
        element = AffinoidElement.monomial(cover, top, 1, (1,) * cover.dimension)
        for to_face in (low, top, tuple(reversed(low))):
            with pytest.raises(ChartMismatchError) as got:
                element.restrict(to_face)
            with pytest.raises(ChartMismatchError) as want:
                reference_restrict(element, to_face)
            assert str(got.value) == str(want.value)
            assert str(got.value).endswith(f"does not refine {top}")


def test_restriction_to_a_set_that_is_not_a_face_names_it():
    cover = load_catalog("split-torus-4").cover
    element = AffinoidElement.one(cover, (0,))
    with pytest.raises(ChartMismatchError, match=r"^\{0,0,0,1,0,2\} is not a face$"):
        element.restrict((0, 1, 2))


@pytest.mark.parametrize("name", CATALOGS)
def test_move_table_has_one_entry_per_chart_of_each_face(name):
    cover = load_catalog(name).cover
    table = cover.restriction_moves
    assert set(table) == {(face, i) for face in cover.faces for i in face}
    for (face, i), (transposed, basepoint) in table.items():
        phi = cover.transition(face[0], i)
        assert transposed == tuple(zip(*phi.linear))
        assert basepoint == phi.apply(cover.face_chart(face).basepoint)
        assert all(type(x) is Fraction for x in basepoint)


def test_the_shift_is_the_product_with_a_unit_monomial():
    rng = random.Random(17)
    for _ in range(200):
        cutoff = F(rng.randint(-4, 12), rng.choice((1, 2))) if rng.random() < 0.5 else None
        terms = [(F(rng.randint(-6, 6), 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
        x = S([(e, c) for e, c in terms if cutoff is None or e < cutoff], cutoff)
        s = F(rng.randint(-9, 9), rng.choice((1, 2, 5)))
        assert scalar_data(x._shift(s)) == scalar_data(x * S.monomial(1, s))


# -- block-triangular determinant -----------------------------------------------


@pytest.mark.parametrize("catalog", CIRCLES)
@pytest.mark.parametrize("sign", [1, -1])
def test_circle_restriction_determinants_match_berkowitz(catalog, sign):
    fibration = load_catalog(catalog)
    for k in range(1, 13):
        for offset in (F(0), F(1, 3), F(2, 7)):
            module = patch_global(LinearLagrangian(sign * k, offset), fibration)
            for low, top in module.pairs:
                mat = module.restriction(low, top)
                rows = sparse_rows(mat)
                assert len(_diagonal_blocks(rows)) == k
                got = determinant(rows, AffinoidElement(module.cover, top))
                assert element_data(got) == element_data(reference_determinant(mat))


def permuted_block_triangular(rng, sizes, draw, zero):
    """P A P^T for a block lower-triangular A whose diagonal blocks have
    no zero entry, with a random simultaneous permutation P."""
    n = sum(sizes)
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    rows = [
        [
            draw() if block_of[i] == block_of[j]
            else (draw() if block_of[i] > block_of[j] and rng.random() < 0.6 else zero)
            for j in range(n)
        ]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def nonzero(rng, draw):
    while True:
        x = draw()
        if x != 0:
            return x


RINGS = {
    "int": (lambda rng: rng.randint(-9, 9), 0),
    "fraction": (lambda rng: F(rng.randint(-9, 9), rng.randint(1, 4)), F(0)),
    "scalar": (
        lambda rng: S(
            [(F(rng.randint(-2, 8), rng.choice((1, 2))), rng.randint(-4, 4))
             for _ in range(rng.randint(1, 2))]
        ),
        S.zero(),
    ),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_permuted_block_triangular_determinants_match_berkowitz(ring):
    make, zero = RINGS[ring]
    rng = random.Random(f"blocks:{ring}")
    split = 0
    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        mat = permuted_block_triangular(rng, sizes, lambda: nonzero(rng, lambda: make(rng)), zero)
        rows = sparse_rows(mat)
        assert len(_diagonal_blocks(rows)) == len(sizes)
        got, want = determinant(rows, zero), reference_determinant(mat)
        if ring == "scalar":
            assert scalar_data(got) == scalar_data(want)
        else:
            assert typed(got) == typed(want)
        split += len(sizes) > 1
    assert split >= 20


def test_blocks_are_the_strongly_connected_components():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 9)
        mat = [[rng.choice((0, 0, 0, 2, -1)) for _ in range(n)] for _ in range(n)]
        reach = [[i == j or mat[i][j] != 0 for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        want = {tuple(j for j in range(n) if reach[i][j] and reach[j][i]) for i in range(n)}
        rows = sparse_rows(mat)
        assert [tuple(block) for block in _diagonal_blocks(rows)] == sorted(want)
        assert determinant(rows, 0) == reference_determinant(mat)


def test_a_truncated_zero_link_keeps_the_blocks_together():
    a, c = S.one(), S.one()
    b = S.monomial(1, 1)
    link = S.zero(F(2))
    mat = [[a, link], [b, c]]
    assert _diagonal_blocks(sparse_rows(mat)) == [[0, 1]]
    got = determinant(sparse_rows(mat), S.zero())
    assert scalar_data(got) == scalar_data(reference_determinant(mat))
    # the link may hide a term times b, so the product is known mod t^3
    assert got.cutoff == 3
    split = sparse_rows([[a, S.zero()], [b, c]])
    assert scalar_data(determinant(split, S.zero())) == scalar_data(S.one())


def test_truncated_zero_affinoid_link_keeps_the_blocks_together():
    cover = load_catalog("split-torus-4").cover
    face = (0, 1)
    one = AffinoidElement.one(cover, face)
    link = AffinoidElement(cover, face, {(0, 0): S.zero(F(2))})
    exact_zero = AffinoidElement(cover, face)
    t = AffinoidElement.monomial(cover, face, S.monomial(1, 1), (1, 0))
    linked = [[one, link], [t, one]]
    assert link.terms
    assert _diagonal_blocks(sparse_rows(linked)) == [[0, 1]]
    got = determinant(sparse_rows(linked), exact_zero)
    assert element_data(got) == element_data(reference_determinant(linked))
    split = sparse_rows([[one, exact_zero], [t, one]])
    assert _diagonal_blocks(split) == [[0], [1]]
    assert element_data(determinant(split, exact_zero)) == element_data(one)


# -- rank-one modules ---------------------------------------------------------------


@pytest.mark.parametrize("name", TRIVIAL)
def test_rank_one_module_matches_one_entry_per_pair(name):
    fibration = load_catalog(name)
    cover = fibration.cover
    certificate = coboundary_certificate(fibration.obstruction_cocycle())
    module = rank_one_module_from_cochain(fibration, certificate)
    want = reference_rank_one_module(fibration, certificate)
    exp_entries, units = set(), set()
    for low, top in cover.nested_pairs:
        ((entry,),) = module.restriction(low, top)
        assert element_data(entry) == element_data(want[(low, top)])
        (units if low[-1] == top[-1] else exp_entries).add(id(entry))
    tops_with_units = {top for low, top in cover.nested_pairs if low[-1] == top[-1]}
    assert len(units) == len(tops_with_units)
    distinct = {(low[-1], top) for low, top in cover.nested_pairs if low[-1] != top[-1]}
    assert len(exp_entries) == len(distinct)
    if name in TORUS_TRIVIAL:
        assert (len(exp_entries), len(cover.nested_pairs)) == (135, 414)


@pytest.mark.parametrize("name", CATALOGS)
def test_exp_entries_match_the_composed_function_on_every_chart_of_a_face(name):
    cover = load_catalog(name).cover
    rng = random.Random(f"exp:{name}")
    n = cover.dimension
    for top in sorted(cover.faces):
        for a in top:
            fn = AffineFunction(
                tuple(rng.choice((-3, -1, 1, 2)) for _ in range(n)),
                F(rng.randint(-9, 9), rng.randint(1, 4)),
            )
            moved = compose_with_map(fn, cover.transition(top[0], a))
            want = exp_aff(cover, top, moved)
            got = mirror_charts._exp_entry(cover, top, a, fn)
            assert element_data(got) == element_data(want)


@pytest.mark.parametrize("name", TRIVIAL)
def test_rank_one_modules_of_seeded_cochains_match_one_entry_per_pair(name):
    fibration = load_catalog(name)
    cover = fibration.cover
    rng = random.Random(f"cochains:{name}")
    for _ in range(3):
        values = {
            edge: AffineFunction(
                tuple(rng.randint(-3, 3) for _ in range(cover.dimension)),
                F(rng.randint(-8, 8), rng.randint(1, 5)),
            )
            for edge in cover.faces_of_degree(1)
        }
        cochain = cover_module.AffCochain(cover, 1, values)
        module = rank_one_module_from_cochain(fibration, cochain)
        want = reference_rank_one_module(fibration, cochain)
        for low, top in cover.nested_pairs:
            ((entry,),) = module.restriction(low, top)
            assert element_data(entry) == element_data(want[(low, top)])


# -- count guards -------------------------------------------------------------------


@pytest.mark.parametrize("name", TORUS_TRIVIAL)
def test_validation_applies_no_chart_map_once_the_table_is_warm(name, monkeypatch):
    built = []
    build = Cover.restriction_moves.func

    def counting_build(cover):
        built.append(cover)
        return build(cover)

    monkeypatch.setattr(Cover.restriction_moves, "func", counting_build)
    fibration = fresh(name)
    module = canonical_twisted_module(fibration)
    assert validate_module(module, 10).ok
    assert built == [fibration.cover]

    applied = []
    apply = IntegralAffineMap.apply

    def counting_apply(self, point):
        applied.append(self)
        return apply(self, point)

    monkeypatch.setattr(IntegralAffineMap, "apply", counting_apply)
    assert validate_module(module, 10).ok
    low, _, top = fibration.cover.nested_chains[0]
    scaled = module.restriction(low, top)[0][0] * S.monomial(1, 1)
    mutant = module.with_entry(low, top, 0, 0, scaled)
    report = validate_module(mutant, 3)
    assert not report.ok and not report.determinant_failures
    assert applied == []
    assert built == [fibration.cover]


def exact_unit(element):
    if len(element.terms) != 1:
        return False
    ((exponent, coeff),) = element.terms.items()
    return not any(exponent) and coeff == S.one()


@pytest.mark.parametrize("name", TORUS_TRIVIAL)
def test_every_twist_factor_of_a_trivial_torus_is_the_unit(name):
    factors = load_catalog(name).twist_factors
    assert len(factors) == 540
    assert all(exact_unit(factor) for factor in factors.values())


def test_the_cocycle_pass_forms_no_product_with_the_unit(monkeypatch):
    module = canonical_twisted_module(fresh("split-torus-4"))
    products = []
    multiply = AffinoidElement.__mul__

    def counting_mul(self, other):
        if isinstance(other, AffinoidElement) and (exact_unit(self) or exact_unit(other)):
            products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(AffinoidElement, "__mul__", counting_mul)
    assert validate_module(module, 10).ok
    assert products == []


def validation_cases():
    cases = []
    for name in TRIVIAL:
        module = canonical_twisted_module(load_catalog(name))
        low, top = module.pairs[-1]
        scaled = module.restriction(low, top)[0][0] * S.monomial(1, 1)
        mutant = module.with_entry(low, top, 0, 0, scaled)
        cases += [(module, 10), (module, F(1, 2)), (mutant, 3)]
    for name in CIRCLES:
        for slope in (3, -2):
            line = LinearLagrangian(slope, F(1, 3))
            cases.append((patch_global(line, load_catalog(name)), 10))
    return cases


def test_reports_match_the_pass_that_multiplies_by_the_unit(monkeypatch):
    expected = []
    with monkeypatch.context() as patched:
        patched.setattr(twisted_sheaves, "_aff_product", lambda x, y: x * y)
        for module, precision in validation_cases():
            for stop_early in (False, True):
                expected.append(validate_module(module, precision, stop_early))
    got = [
        validate_module(module, precision, stop_early)
        for module, precision in validation_cases()
        for stop_early in (False, True)
    ]
    assert got == expected
    assert any(not report.ok for report in got)


# -- the trusted cocycle pass against the checked one -------------------------------


def outcome(check, module, precision, stop_early):
    """The report, with the type of every norm, or the message of the
    PrecisionExhaustedError raised on the way."""
    try:
        report = check(module, precision, stop_early)
    except PrecisionExhaustedError as exc:
        return ("raised", str(exc))
    norms = [typed(norm) for _, norm in report.cocycle_failures]
    return ("report", report, norms)


def assert_same_reports(cases):
    """Both passes on every case, with stop_early both ways; returns
    the full-scan outcomes, one per case."""
    full = []
    for module, precision in cases:
        for stop_early in (False, True):
            got = outcome(validate_module, module, precision, stop_early)
            want = outcome(reference_validate, module, precision, stop_early)
            assert got == want, (precision, stop_early)
            if not stop_early:
                full.append(got)
    return full


def verdicts(outcomes):
    return [got[1].ok if got[0] == "report" else "raised" for got in outcomes]


def canonical(name):
    return canonical_twisted_module(load_catalog(name))


@pytest.mark.parametrize("name", TRIVIAL)
def test_canonical_reports_match_the_checked_pass(name):
    module = canonical(name)
    cases = [(module, precision) for precision in (F(1, 2), 3, 10)]
    assert verdicts(assert_same_reports(cases)) == [True] * 3


@pytest.mark.parametrize("name", TORUS_TRIVIAL)
def test_seeded_mutant_reports_match_the_checked_pass(name):
    module = canonical(name)
    rng = random.Random(f"mutants:{name}")
    t = S.monomial(1, 1)
    cases = []
    for low, top in rng.sample(module.pairs, 12):
        entry = module.restriction(low, top)[0][0]
        perturbed = S(
            [(F(0), F(1)), (F(rng.randint(1, 16), 2), F(rng.choice((-3, -1, 2, 5))))]
        )
        cases.append((module.with_entry(low, top, 0, 0, entry * t), 3))
        for precision in (3, 10):
            cases.append((module.with_entry(low, top, 0, 0, entry * perturbed), precision))
    assert set(verdicts(assert_same_reports(cases))) == {False, True}


def direct_sum(module, copies):
    """The direct sum of copies of a rank-one module."""
    cover = module.cover
    restrictions = {}
    for low, top in module.pairs:
        ((entry,),) = module.restriction(low, top)
        zero = AffinoidElement(cover, top)
        restrictions[(low, top)] = tuple(
            tuple(entry if i == j else zero for j in range(copies))
            for i in range(copies)
        )
    return TwistedModule(module.fibration, copies, restrictions)


def test_rank_two_module_with_an_off_diagonal_entry_matches_the_checked_pass():
    module = direct_sum(canonical("thurston-f2"), 2)
    cases = [(module, 3), (module, 10)]
    rng = random.Random("rank-two")
    for n, (low, top) in enumerate(rng.sample(module.pairs, 4)):
        entry = module.restriction(low, top)[0][0]
        row, col = (0, 1) if n % 2 else (1, 0)
        off = entry * S.monomial(rng.choice((1, -2)), F(rng.randint(0, 8), 2))
        cases.append((module.with_entry(low, top, row, col, off), 3))
    got = verdicts(assert_same_reports(cases))
    assert got[:2] == [True, True]
    assert set(got[2:]) == {False, True}


def truncate_element(x, cut):
    """AffinoidElement.truncate as it stood: each coefficient cut where
    its term's t-adic size, the coefficient's plus the monomial's
    weight, reaches cut."""
    terms = {a: c.truncate(cut - x.weight(a)) for a, c in x.terms.items()}
    return AffinoidElement(x.cover, x.face, terms, x.basepoint)


def truncated(module, cut, pairs=None):
    """The module with the entries of some pairs, or of all, truncated
    at t-adic size cut; an exact zero stays exact."""
    restrictions = {}
    for pair in module.pairs:
        mat = module.restriction(*pair)
        if pairs is None or pair in pairs:
            mat = tuple(tuple(truncate_element(x, cut) for x in row) for row in mat)
        restrictions[pair] = mat
    return TwistedModule(module.fibration, module.rank, restrictions)


@pytest.mark.parametrize("name", TORUS_TRIVIAL)
def test_truncated_modules_raise_where_the_checked_pass_raises(name):
    module = canonical(name)
    rng = random.Random(f"truncated:{name}")
    cases = []
    for cut in (2, F(11, 2), 40):
        for precision in (3, 10):
            cases.append((truncated(module, cut), precision))
    for cut in (1, 4, 12):
        pairs = set(rng.sample(module.pairs, 3))
        cases.append((truncated(module, cut, pairs), 3))
    t = S.monomial(1, 1)
    for cut in (4, 40):
        cut_module = truncated(module, cut)
        low, top = rng.choice(module.pairs)
        scaled = cut_module.restriction(low, top)[0][0] * t
        cases.append((cut_module.with_entry(low, top, 0, 0, scaled), 3))
    assert set(verdicts(assert_same_reports(cases))) == {True, False, "raised"}


@pytest.mark.parametrize("name", TORUS_TRIVIAL)
@pytest.mark.parametrize("copies", [2, 3])
def test_direct_sums_match_the_dense_pass(name, copies):
    module = direct_sum(canonical(name), copies)
    rng = random.Random(f"sums:{name}:{copies}")
    t = S.monomial(1, 1)
    cases = [(module, 3), (module, 10)]
    for low, top in rng.sample(module.pairs, 2):
        entry = module.restriction(low, top)[0][0]
        off = entry * S.monomial(rng.choice((1, -2)), F(rng.randint(0, 8), 2))
        cases.append((module.with_entry(low, top, copies - 1, 0, off), 3))
        cases.append((module.with_entry(low, top, 1, 1, entry * t), 3))
    for cut, precision in ((2, 3), (40, 10)):
        cases.append((truncated(module, cut), precision))
    low, top = rng.choice(module.pairs)
    cut_module = truncated(module, 4)
    scaled = cut_module.restriction(low, top)[1][1] * t
    cases.append((cut_module.with_entry(low, top, 1, 1, scaled), 3))
    assert set(verdicts(assert_same_reports(cases))) == {True, False, "raised"}


def test_a_nontrivial_class_rejects_as_the_dense_pass_does():
    # thurston-f1 has no canonical module: the rank-one module of the
    # zero cochain fails the cocycle identity where the class lives
    fibration = load_catalog("thurston-f1")
    cover = fibration.cover
    zero = AffineFunction((0,) * cover.dimension, 0)
    cochain = cover_module.AffCochain(
        cover, 1, {edge: zero for edge in cover.faces_of_degree(1)}
    )
    module = rank_one_module_from_cochain(fibration, cochain)
    cases = [(module, 3), (direct_sum(module, 2), 3)]
    assert verdicts(assert_same_reports(cases)) == [False, False]


@pytest.mark.parametrize("catalog", CIRCLES)
def test_circle_lines_match_the_dense_pass(catalog):
    fibration = load_catalog(catalog)
    t = S.monomial(1, 1)
    cases = []
    for k in range(1, 10):
        for slope in (k, -k):
            module = patch_global(LinearLagrangian(slope, F(2, 7)), fibration)
            low, top = module.pairs[-1]
            row = k - 1
            entry = module.restriction(low, top)[row][row]
            zero = AffinoidElement(fibration.cover, top)
            cases += [
                (module, 4),
                (module.with_entry(low, top, row, row, entry * t), 4),
                (module.with_entry(low, top, row, 0, entry), 4),
                (module.with_entry(low, top, row, row, zero), 4),
            ]
    assert set(verdicts(assert_same_reports(cases))) == {True, False}


def test_an_accepted_torus_module_forms_no_residual_and_no_checked_restriction(
    monkeypatch,
):
    calls = []
    restrict, sub = AffinoidElement.restrict, AffinoidElement.__sub__

    def counting_restrict(self, to_face):
        calls.append("restrict")
        return restrict(self, to_face)

    def counting_sub(self, other):
        calls.append("sub")
        return sub(self, other)

    monkeypatch.setattr(AffinoidElement, "restrict", counting_restrict)
    monkeypatch.setattr(AffinoidElement, "__sub__", counting_sub)
    for name in TORUS_TRIVIAL:
        module = canonical(name)
        assert validate_module(module, 10).ok
        assert calls == []
        low, top = module.pairs[0]
        scaled = module.restriction(low, top)[0][0] * S.monomial(1, 1)
        assert not validate_module(module.with_entry(low, top, 0, 0, scaled), 3).ok
        assert "sub" in calls and "restrict" not in calls
        calls.clear()


def test_exp_entries_call_no_exp_aff(monkeypatch):
    certificates = {}
    fibrations = {name: fresh(name) for name in CATALOGS}
    for name in TRIVIAL:
        alpha = fibrations[name].obstruction_cocycle()
        certificates[name] = coboundary_certificate(alpha)
    calls = []

    def counting(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for module in (mirror_charts, twisted_sheaves, cover_module):
        monkeypatch.setattr(
            module, "exp_aff", counting("exp_aff", exp_aff), raising=False
        )
    for name, fibration in fibrations.items():
        assert len(fibration.twist_factors) == len(fibration.cover.nested_chains)
        if name in certificates:
            module = rank_one_module_from_cochain(fibration, certificates[name])
            assert validate_module(module, 10).ok
    assert calls == []


@pytest.mark.parametrize("name", TORUS_TRIVIAL)
def test_the_move_table_is_built_once_per_cover(name, monkeypatch):
    built = []
    build = Cover.restriction_moves.func

    def counting_build(cover):
        built.append(cover)
        return build(cover)

    monkeypatch.setattr(Cover.restriction_moves, "func", counting_build)
    fibration = fresh(name)
    module = canonical_twisted_module(fibration)
    assert verify_gerbe(fibration).holds
    for precision in (3, 10):
        assert validate_module(module, precision).ok
    element = module.restriction(*module.pairs[0])[0][0]
    element.with_basepoint(off_basepoint(fibration.cover, element.face))
    assert built == [fibration.cover]
