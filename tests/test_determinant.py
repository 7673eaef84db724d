"""The one determinant: Berkowitz principal-minor sums against cofactors.

``intlinalg.principal_minor_sums`` and ``intlinalg.determinant`` serve
Fractions, Novikov scalars and affinoid elements with the same code.
These seeded tests hold a cofactor expansion and an enumeration of
principal minors as references that live only here, and compare the
routine with them on every ring the package feeds it.  ``determinant``
reads one form, sparse rows and the ring's zero; dense test matrices
reach it through ``sparse_rows``, which the other determinant tests
share.
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import mirrorforge
from mirrorforge.catalog import load_catalog
from mirrorforge.floer_demo import LinearLagrangian, patch_global
from mirrorforge.intlinalg import determinant, principal_minor_sums
from mirrorforge.mirror_charts import AffinoidElement
from mirrorforge.novikov import NovikovMatrix, NovikovScalar
from mirrorforge.twisted_sheaves import (
    TwistedModule,
    _edge_monomials,
    _walk_window,
    canonical_twisted_module,
    global_sections,
    section_radius,
    validate_module,
)

F = Fraction
S = NovikovScalar
CIRCLES = ("elliptic-demo", "split-torus-2")
TORUS_TRIVIAL = ("split-torus-4", "thurston-f2")


def sparse_rows(mat):
    """The ``{column: entry}`` rows of a dense matrix, the form
    ``determinant`` reads: every entry but the exact zeros, which are
    ``== 0`` for ints and Fractions, ``is_exact_zero()`` for Novikov
    scalars and no terms for affinoid elements."""

    def exact_zero(x):
        if isinstance(x, AffinoidElement):
            return not x.terms
        check = getattr(x, "is_exact_zero", None)
        return x == 0 if check is None else check()

    return [{j: x for j, x in enumerate(row) if not exact_zero(x)} for row in mat]


def cofactor_det(mat):
    """Laplace expansion along the first row; n! terms."""
    if len(mat) == 1:
        return mat[0][0]
    total = None
    for j in range(len(mat)):
        term = mat[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def minor_sums_reference(mat):
    """e_k as the sum over every k-subset of a principal minor."""
    n = len(mat)
    return [
        sum(
            cofactor_det([[mat[i][j] for j in subset] for i in subset])
            for subset in combinations(range(n), k)
        )
        for k in range(1, n + 1)
    ]


def random_fraction_matrix(rng, n):
    rows = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        # a singular matrix: the last row repeats a combination of two others
        a, b = rng.randrange(n - 1), rng.randrange(n - 1)
        rows[-1] = [x + 2 * y for x, y in zip(rows[a], rows[b])]
    return rows


def random_scalar(rng, truncated):
    terms = [
        (F(rng.randint(-2, 8), rng.choice((1, 2))), rng.randint(-4, 4))
        for _ in range(rng.randint(0, 3))
    ]
    if not truncated or rng.random() < 0.5:
        return S(terms)
    cutoff = F(rng.randint(2, 9), rng.choice((1, 2)))
    return S([(e, c) for e, c in terms if e < cutoff], cutoff)


def scalar_data(x):
    return (x.terms, x.cutoff)


def known_to(x):
    return math.inf if x.cutoff is None else x.cutoff


# -- Fractions ---------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_fraction_determinant_and_minor_sums_match_references(n):
    rng = random.Random(100 + n)
    for _ in range(12 if n < 7 else 3):
        mat = random_fraction_matrix(rng, n)
        assert determinant(sparse_rows(mat), F(0)) == cofactor_det(mat)
        assert principal_minor_sums(mat) == minor_sums_reference(mat)


def test_one_by_one_gives_the_entry_itself():
    entry = S([(1, 3)], 5)
    assert determinant([{0: entry}], S.zero()) is entry
    assert principal_minor_sums([[entry]])[0] is entry


def test_sums_of_a_triangular_matrix_are_elementary_symmetric_polynomials():
    diag = [F(2), F(-3), F(1, 2), F(5)]
    mat = [[diag[i] if i == j else (F(7) if j > i else F(0)) for j in range(4)] for i in range(4)]
    want = [
        sum(math.prod(subset) for subset in combinations(diag, k)) for k in range(1, 5)
    ]
    assert principal_minor_sums(mat) == want


def test_empty_matrix_has_no_ring_one_to_return():
    assert principal_minor_sums([]) == []
    with pytest.raises(ValueError):
        determinant([], F(0))


# -- Novikov scalars ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_exact_novikov_determinant_is_identical_to_cofactors(n):
    rng = random.Random(200 + n)
    for _ in range(10 if n < 5 else 4):
        rows = [[random_scalar(rng, False) for _ in range(n)] for _ in range(n)]
        got = NovikovMatrix(rows).determinant()
        want = cofactor_det(rows)
        assert got.cutoff is None
        assert scalar_data(got) == scalar_data(want)


def test_truncated_novikov_determinant_knows_right_terms_to_a_lower_cutoff():
    rng = random.Random(301)
    lower = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        rows = [[random_scalar(rng, True) for _ in range(n)] for _ in range(n)]
        got = NovikovMatrix(rows).determinant()
        want = cofactor_det(rows)
        # the result never claims more than the cofactor expansion knows
        assert known_to(got) <= known_to(want)
        # and below its own cutoff every term is the reference's
        if got.cutoff is None:
            assert scalar_data(got) == scalar_data(want)
        else:
            assert scalar_data(got) == scalar_data(want.truncate(got.cutoff))
        lower += known_to(got) < known_to(want)
    # the lower cutoff is a real effect of the recurrence, not a rare one
    assert lower >= 30


def test_novikov_matrix_edge_shapes():
    assert NovikovMatrix([]).determinant() == S.one()
    with pytest.raises(ValueError, match="non-square"):
        NovikovMatrix([[1, 2]]).determinant()
    with pytest.raises(ValueError, match="non-square"):
        NovikovMatrix([[1], [2]]).determinant()


# -- affinoid elements -------------------------------------------------------


@pytest.mark.parametrize("catalog", CIRCLES)
@pytest.mark.parametrize("slope", [k for k in range(1, 6)] + [-k for k in range(1, 6)])
def test_circle_restriction_determinants_match_cofactors(catalog, slope):
    fibration = load_catalog(catalog)
    for offset in (F(0), F(2, 7)):
        module = patch_global(LinearLagrangian(slope, offset), fibration)
        for low, top in module.pairs:
            mat = module.restriction(low, top)
            zero = AffinoidElement(module.cover, top)
            assert determinant(sparse_rows(mat), zero) == cofactor_det(mat)


@pytest.mark.parametrize("catalog", TORUS_TRIVIAL)
def test_t_scaled_torus_mutants_match_cofactors(catalog):
    module = canonical_twisted_module(load_catalog(catalog))
    t = S.monomial(1, 1)
    for low, top in module.pairs:
        entry = module.restriction(low, top)[0][0] * t
        mat = module.with_entry(low, top, 0, 0, entry).restriction(low, top)
        zero = AffinoidElement(module.cover, top)
        assert determinant(sparse_rows(mat), zero) == cofactor_det(mat) == entry


@pytest.mark.parametrize("n", range(2, 5))
def test_dense_affinoid_matrices_match_cofactors(n):
    cover = load_catalog("split-torus-4").cover
    rng = random.Random(400 + n)
    for face in [(0,), (0, 1), (0, 1, 3)]:
        rows = [
            [
                AffinoidElement(
                    cover,
                    face,
                    {
                        tuple(rng.randint(-2, 2) for _ in range(2)): S.monomial(
                            rng.choice((-2, -1, 1, 3)), F(rng.randint(0, 6), 2)
                        )
                        for _ in range(rng.randint(1, 3))
                    },
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        zero = AffinoidElement(cover, face)
        assert determinant(sparse_rows(rows), zero) == cofactor_det(rows)


@pytest.mark.parametrize("catalog", CIRCLES)
def test_slope_twelve_validates_without_a_factorial_cliff(catalog):
    # cofactor expansion of the 12 x 12 restriction matrices would take hours
    budget = 5.0
    module = patch_global(LinearLagrangian(12), load_catalog(catalog))
    start = time.perf_counter()
    report = validate_module(module, 10)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert not report.determinant_failures
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


@pytest.mark.parametrize("catalog", CIRCLES)
def test_slope_forty_validates_within_a_second(catalog):
    # the k x k restriction matrices are diagonal, so the determinant is
    # a product of k entries; the dense recurrence took 5.2 s at slope 30
    budget = 1.0
    module = patch_global(LinearLagrangian(40), load_catalog(catalog))
    start = time.perf_counter()
    report = validate_module(module, 10)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert not report.determinant_failures
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


@pytest.mark.parametrize("catalog", TORUS_TRIVIAL)
def test_canonical_torus_module_validates_within_a_quarter_second(catalog):
    # 540 chains and 414 pairs; the pass through the checked restriction
    # and a residual per chain took 30-48 ms
    budget = 0.25
    module = canonical_twisted_module(load_catalog(catalog))
    start = time.perf_counter()
    report = validate_module(module, 10)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert (report.pairs_checked, report.triples_checked) == (414, 540)
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


def test_rank_sixteen_diagonal_torus_module_validates_within_two_seconds():
    # 540 chains of 16 x 16 restrictions with 16 entries each; the cocycle
    # pass on dense matrices formed 16^3 products a chain, about 12.7 s on
    # a shared 2-core machine
    budget = 2.0
    module = canonical_twisted_module(load_catalog("split-torus-4"))
    restrictions = {}
    for low, top in module.pairs:
        ((entry,),) = module.restriction(low, top)
        zero = AffinoidElement(module.cover, top)
        restrictions[(low, top)] = tuple(
            tuple(entry if i == j else zero for j in range(16)) for i in range(16)
        )
    module = TwistedModule(module.fibration, 16, restrictions)
    start = time.perf_counter()
    report = validate_module(module, 10)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert (report.rank, report.pairs_checked, report.triples_checked) == (16, 414, 540)
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


@pytest.mark.parametrize("catalog", CIRCLES)
@pytest.mark.parametrize("slope", [30, -30])
def test_slope_thirty_sections_within_two_seconds(catalog, slope):
    # the collapse took one rank per prefix of the chosen vectors at
    # every integer precision: about 13 s a call at slope 30
    budget = 2.0
    module = patch_global(LinearLagrangian(slope), load_catalog(catalog))
    start = time.perf_counter()
    space = global_sections(module, 10)
    elapsed = time.perf_counter() - start
    assert (space.rank, space.threshold) == (max(slope, 0), 1)
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


def test_slope_two_sections_at_precision_1920_within_a_second():
    # a Novikov rank of the walked sections at each integer precision
    # took about 3.4 s a call on a shared 2-core machine
    budget = 1.0
    module = patch_global(LinearLagrangian(2), load_catalog("elliptic-demo"))
    start = time.perf_counter()
    space = global_sections(module, 1920)
    elapsed = time.perf_counter() - start
    assert (space.rank, space.threshold) == (2, 1)
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


def test_slope_minus_four_hundred_sections_within_four_seconds():
    # eliminating the section system, before it was walked, took about
    # 7.5 s a call on a shared 2-core machine
    budget = 4.0
    module = patch_global(LinearLagrangian(-400), load_catalog("split-torus-2"))
    start = time.perf_counter()
    space = global_sections(module, 10)
    elapsed = time.perf_counter() - start
    assert space.rank == 0
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


def test_slope_eight_hundred_sheaf_within_a_second_and_a_half():
    # end to end, start-up included: with every restriction held as a
    # dense k x k tuple, the determinant's pattern tested k^2 entries and
    # global_sections assembled k^2 references per chart that sheaf never
    # prints, about 2.7 s on a shared 2-core machine
    budget = 1.5
    root = str(Path(mirrorforge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "mirrorforge", "sheaf", "--catalog", "elliptic-demo", "--slope", "800"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert "global sections rank: 800 " in result.stdout
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"


def test_slope_minus_four_hundred_walk_within_six_tenths_of_a_second():
    # every component dies here; walking each one whole after its first
    # pin took about 1.0 s on a shared 2-core machine, stopping there 0.3 s
    budget = 0.6
    module = patch_global(LinearLagrangian(-400), load_catalog("split-torus-2"))
    monomials, radius = _edge_monomials(module), section_radius(module, 10)
    start = time.perf_counter()
    _, survivors = _walk_window(module, monomials, radius, Fraction(10))
    elapsed = time.perf_counter() - start
    assert survivors == []
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"
