import random
from fractions import Fraction

import pytest

from mirrorforge.catalog import load_catalog
from mirrorforge.cover import AffCochain
from mirrorforge.errors import ChartMismatchError, InvalidFibrationError
from mirrorforge.floer_demo import LinearLagrangian, patch_global
from mirrorforge.mirror_charts import AffinoidElement, MirrorPoint
from mirrorforge.novikov import NovikovScalar
from mirrorforge.twisted_sheaves import (
    ModuleComplex,
    TwistedModule,
    canonical_twisted_module,
    element_is_unit_at,
    fiber_cohomology,
    global_sections,
    rank_one_module_from_cochain,
    stabilisation_threshold,
    validate_module,
)
from mirrorforge.affine import AffineFunction


def F(*args):
    return Fraction(*args)


def mono(coeff, exp):
    return NovikovScalar.monomial(coeff, exp)


TORUS = load_catalog("split-torus-4")
F1 = load_catalog("thurston-f1")
ELLIPTIC = load_catalog("elliptic")


def random_zero_cochain(rng, cover, constants_only=False):
    values = {}
    for face in cover.faces_of_degree(0):
        if constants_only:
            linear = (0,) * cover.dimension
        else:
            linear = tuple(rng.randint(-2, 2) for _ in range(cover.dimension))
        values[face] = AffineFunction(linear, F(rng.randint(-6, 6), 3))
    return AffCochain(cover, 0, values)


def residual_vanishes(total, precision, slack=3):
    """No visible term below the precision, and certified zero to
    within the stated slack (truncated kernel entries cannot certify
    all the way up)."""
    for exponent, coeff in total.terms.items():
        w = total.weight(exponent)
        if any(e + w < precision for e, _ in coeff.terms):
            return False
    return total.valuation_lower_bound() >= precision - slack


def section_solves_the_edges(module, section, precision, slack=3):
    cover = module.cover
    for edge in cover.faces_of_degree(1):
        i, j = edge
        left = module.restriction((i,), edge)
        right = module.restriction((j,), edge)
        for r in range(module.rank):
            total = AffinoidElement(cover, edge)
            for c in range(module.rank):
                total = total + left[r][c] * section[i][c].restrict(edge)
                total = total - right[r][c] * section[j][c].restrict(edge)
            if not residual_vanishes(total, precision, slack):
                return False
    return True


class TestStructure:
    def test_nested_pair_and_chain_counts_on_the_nine_chart_torus(self):
        pairs = TORUS.cover.nested_pairs
        chains = TORUS.cover.nested_chains
        assert len(pairs) == 414
        assert len(chains) == 540
        assert all(set(a) < set(b) for a, b in pairs)
        assert all(set(a) < set(b) < set(c) for a, b, c in chains)

    def test_identity_restriction_and_entry_swap(self):
        module = canonical_twisted_module(TORUS)
        identity = module.restriction((0,), (0,))
        assert identity[0][0] == AffinoidElement.one(TORUS.cover, (0,))
        swapped = module.with_entry(
            (0,), (0, 1), 0, 0, AffinoidElement.one(TORUS.cover, (0, 1)) * 2
        )
        entry = swapped.restriction((0,), (0, 1))[0][0]
        assert entry == AffinoidElement.one(TORUS.cover, (0, 1)) * 2

    def test_shape_validation(self):
        module = canonical_twisted_module(TORUS)
        data = {pair: module.restriction(*pair) for pair in module.pairs}
        incomplete = dict(data)
        incomplete.pop(((0,), (0, 1)))
        with pytest.raises(ChartMismatchError):
            TwistedModule(TORUS, 1, incomplete)
        misplaced = dict(data)
        misplaced[((0,), (0, 1))] = (
            (AffinoidElement.one(TORUS.cover, (0, 3)),),
        )
        with pytest.raises(ChartMismatchError):
            TwistedModule(TORUS, 1, misplaced)


class TestTwistFactor:
    def test_obstructed_triangle_gives_a_monomial(self):
        factor = F1.twist_factors[((0,), (0, 2), (0, 2, 6))]
        assert factor.terms == {(0, 1): mono(1, F(1, 2))}

    def test_repeated_final_charts_are_untwisted(self):
        factor = F1.twist_factors[((3,), (0, 3), (0, 3, 4))]
        assert factor == AffinoidElement.one(F1.cover, (0, 3, 4))

    def test_trivial_catalog_factors_are_units(self):
        factor = TORUS.twist_factors[((0,), (0, 1), (0, 1, 3))]
        assert factor == AffinoidElement.one(TORUS.cover, (0, 1, 3))


class TestUnits:
    def test_monomials_are_units(self):
        element = AffinoidElement.monomial(TORUS.cover, (0,), mono(3, F(5, 2)), (1, -1))
        assert element_is_unit_at(element, 10)

    def test_balanced_sums_are_not_units(self):
        one = AffinoidElement.one(ELLIPTIC.cover, (0,))
        z = AffinoidElement.monomial(ELLIPTIC.cover, (0,), 1, (1,))
        assert not element_is_unit_at(one + z, 10)
        assert element_is_unit_at(one + z * mono(1, 1), 10)
        assert not element_is_unit_at(
            AffinoidElement(ELLIPTIC.cover, (0,)), 10
        )


class TestValidation:
    def test_canonical_module_is_accepted(self):
        module = canonical_twisted_module(TORUS)
        report = validate_module(module, 8)
        assert report.ok
        assert report.pairs_checked == 414
        assert report.triples_checked == 540
        assert report.as_dict()["ok"] is True

    def test_twisting_by_a_zero_cochain_is_still_accepted(self):
        rng = random.Random(61)
        certificate = canonical_twisted_module(TORUS)
        base = None
        from mirrorforge.cover import coboundary_certificate

        base = coboundary_certificate(TORUS.obstruction_cocycle())
        for _ in range(3):
            h = random_zero_cochain(rng, TORUS.cover)
            module = rank_one_module_from_cochain(TORUS, base + h.differential())
            assert validate_module(module, 6).ok

    def test_obstructed_catalog_has_no_rank_one_module(self):
        with pytest.raises(InvalidFibrationError):
            canonical_twisted_module(F1)

    def test_single_entry_rescaling_is_rejected(self):
        module = canonical_twisted_module(TORUS)
        rng = random.Random(71)
        pairs = module.pairs
        for _ in range(5):
            low, top = pairs[rng.randrange(len(pairs))]
            bad = module.with_entry(
                low,
                top,
                0,
                0,
                module.restriction(low, top)[0][0] * mono(1, 1),
            )
            report = validate_module(bad, 8)
            assert not report.ok
            assert report.cocycle_failures
            kinds = report.as_dict()
            assert kinds["cocycle_failures"][0]["norm_exponent"] is not None

    def test_residual_norms_are_reported(self):
        module = canonical_twisted_module(TORUS)
        bad = module.with_entry(
            (0,),
            (0, 1),
            0,
            0,
            module.restriction((0,), (0, 1))[0][0] * mono(1, F(3, 2)),
        )
        report = validate_module(bad, 8)
        norms = {
            chain: norm for chain, norm in report.cocycle_failures
        }
        assert norms
        assert all(norm is not None for norm in norms.values())


    def test_a_cochain_of_another_cover_is_refused(self):
        cochain = AffCochain(ELLIPTIC.cover, 1, {})
        with pytest.raises(ChartMismatchError, match="another cover"):
            rank_one_module_from_cochain(TORUS, cochain)

    def test_stop_early_counts_the_chains_it_examined(self):
        module = canonical_twisted_module(TORUS)
        chains = TORUS.cover.nested_chains
        t = mono(1, 1)
        for k in (0, 1, 7):
            low, mid, top = chains[k]
            bad = module.with_entry(
                low, top, 0, 0, module.restriction(low, top)[0][0] * t
            )
            # the first chain through the scaled pair is the first failure
            first = next(
                n
                for n, (a, b, c) in enumerate(chains)
                if (low, top) in ((a, b), (b, c), (a, c))
            )
            report = validate_module(bad, 3, stop_early=True)
            assert [chain for chain, _ in report.cocycle_failures] == [chains[first]]
            assert report.triples_checked == first + 1
            assert report.pairs_checked == 0
            full = validate_module(bad, 3)
            assert (full.pairs_checked, full.triples_checked) == (414, 540)
            assert full.cocycle_failures[0] == report.cocycle_failures[0]

    def test_stop_early_counts_the_pairs_it_examined(self):
        cover = TORUS.cover
        zeros = {
            (low, top): ((AffinoidElement(cover, top),),)
            for low, top in cover.nested_pairs
        }
        module = TwistedModule(TORUS, 1, zeros)
        report = validate_module(module, 3, stop_early=True)
        assert not report.ok and not report.cocycle_failures
        assert report.determinant_failures == (cover.nested_pairs[0],)
        assert (report.pairs_checked, report.triples_checked) == (1, 540)
        full = validate_module(module, 3)
        assert full.determinant_failures == cover.nested_pairs
        assert (full.pairs_checked, full.triples_checked) == (414, 540)

    def test_stop_early_on_an_accepted_module_counts_everything(self):
        report = validate_module(canonical_twisted_module(TORUS), 3, stop_early=True)
        assert report.ok
        assert (report.pairs_checked, report.triples_checked) == (414, 540)


class TestGlobalSections:
    def test_trivial_torus_module_has_constant_sections(self):
        module = canonical_twisted_module(TORUS)
        space = global_sections(module, 4)
        assert space.rank == 1
        section = space.sections[0]
        assert section_solves_the_edges(module, section, 4)
        assert stabilisation_threshold(module, 4) == 1

    def test_coboundary_twist_does_not_change_the_section_count(self):
        rng = random.Random(83)
        from mirrorforge.cover import coboundary_certificate

        base = coboundary_certificate(TORUS.obstruction_cocycle())
        h = random_zero_cochain(rng, TORUS.cover, constants_only=True)
        module = rank_one_module_from_cochain(TORUS, base + h.differential())
        space = global_sections(module, 6)
        assert space.rank == 1
        # the twist moves entry valuations by up to the cochain constants,
        # so certification keeps a wider slack here
        assert section_solves_the_edges(module, space.sections[0], 6, slack=6)


class TestComplexes:
    def test_multiplication_by_t_is_exact_over_the_field(self):
        cover = ELLIPTIC.cover
        t = AffinoidElement.monomial(cover, (0,), mono(1, 1), (0,))
        complex_ = ModuleComplex(
            cover, (0,), {0: 1, 1: 1}, {0: ((t,),)}
        )
        point = MirrorPoint((F(0),), (1,))
        assert complex_.fiber_cohomology(point, 6) == {0: 0, 1: 0}

    def test_zero_differential_keeps_the_full_rank(self):
        cover = ELLIPTIC.cover
        zero = AffinoidElement(cover, (1,))
        complex_ = ModuleComplex(
            cover, (1,), {0: 3, 1: 1}, {0: ((zero, zero, zero),)}
        )
        point = MirrorPoint((F(3, 8),), (F(2, 3),))
        assert fiber_cohomology(complex_, point, 6) == {0: 3, 1: 1}

    def test_differentials_must_square_to_zero(self):
        cover = ELLIPTIC.cover
        one = AffinoidElement.one(cover, (0,))
        with pytest.raises(ValueError):
            ModuleComplex(
                cover,
                (0,),
                {0: 1, 1: 1, 2: 1},
                {0: ((one,),), 1: ((one,),)},
            )

    def test_an_entry_off_the_canonical_basepoint_is_refused(self):
        cover = TORUS.cover
        vertices = cover.polytope((0,)).vertices
        centroid = tuple(sum(axis) / len(vertices) for axis in zip(*vertices))
        assert centroid != cover.face_chart((0,)).basepoint
        one = AffinoidElement.one(cover, (0,))
        zero_at_q = AffinoidElement(cover, (0,), basepoint=centroid)
        with pytest.raises(ChartMismatchError, match="canonical basepoint"):
            ModuleComplex(cover, (0,), {0: 1, 1: 1}, {0: ((zero_at_q,),)})
        with pytest.raises(ChartMismatchError, match="canonical basepoint"):
            ModuleComplex(
                cover,
                (0,),
                {0: 1, 1: 1, 2: 1},
                {0: ((one,),), 1: ((zero_at_q,),)},
            )

    def test_a_float_degree_is_refused(self):
        # int() truncated them: {0.7: 1} read as {0: 1}
        cover = ELLIPTIC.cover
        zero = AffinoidElement(cover, (0,))
        with pytest.raises(TypeError, match="complex degrees must be integers, got 0.7"):
            ModuleComplex(cover, (0,), {0.7: 1}, {})
        with pytest.raises(TypeError, match="complex degrees must be integers, got 0.0"):
            ModuleComplex(cover, (0,), {0: 1, 1: 1}, {0.0: ((zero,),)})

    def test_shapes_are_enforced(self):
        cover = ELLIPTIC.cover
        one = AffinoidElement.one(cover, (0,))
        with pytest.raises(ValueError):
            ModuleComplex(cover, (0,), {0: 2, 1: 1}, {0: ((one,),)})


class TestWithEntry:
    def test_negative_indices_are_refused(self):
        module = canonical_twisted_module(TORUS)
        low, top = module.pairs[0]
        entry = module.restriction(low, top)[0][0] * mono(1, 1)
        for row, col in ((-1, -1), (-1, 0), (0, -1)):
            with pytest.raises(IndexError, match="outside 0..0"):
                module.with_entry(low, top, row, col, entry)
        assert module.with_entry(low, top, 0, 0, entry).restriction(low, top) == (
            (entry,),
        )

    def test_out_of_range_indices_are_refused(self):
        module = patch_global(LinearLagrangian(2), ELLIPTIC)
        low, top = module.pairs[0]
        entry = module.restriction(low, top)[1][1]
        for row, col in ((2, 0), (0, 2), (5, 5)):
            with pytest.raises(IndexError, match=r"is outside 0\.\.1"):
                module.with_entry(low, top, row, col, entry)
        swapped = module.with_entry(low, top, 0, 1, entry)
        assert swapped.restriction(low, top)[0][1] == entry

    def test_bool_indices_are_refused(self):
        # True is an int, and was read as row or column 1
        module = patch_global(LinearLagrangian(2), ELLIPTIC)
        low, top = module.pairs[0]
        entry = module.restriction(low, top)[1][1]
        refused = ((True, 0, "row True"), (0, True, "column True"), (False, 1, "row False"))
        for row, col, name in refused:
            with pytest.raises(IndexError, match=rf"^{name} is outside 0\.\.1$"):
                module.with_entry(low, top, row, col, entry)

    def test_a_pair_that_is_not_nested_is_refused(self):
        module = canonical_twisted_module(TORUS)
        low, top = module.pairs[0]
        entry = module.restriction(low, top)[0][0]
        for pair in ((top, low), (top, top), ((1,), (0, 2))):
            with pytest.raises(ChartMismatchError, match="is not a nested pair"):
                module.with_entry(*pair, 0, 0, entry)
