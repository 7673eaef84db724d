import random
from fractions import Fraction

import pytest

from mirrorforge.affine import PolyFunction
from mirrorforge.catalog import load_catalog
from mirrorforge.errors import ChartMismatchError
from mirrorforge.floer_demo import (
    LinearLagrangian,
    LocalFloerData,
    LocalModule,
    change_trivialisation,
    chart_offsets,
    energy_transport,
    intersections,
    local_floer_data,
    local_module,
    patch_global,
    restriction_factor,
    section_window,
    sheet_coordinate,
)
from mirrorforge.mirror_charts import AffinoidElement, MirrorPoint
from mirrorforge.novikov import NovikovMatrix, NovikovScalar
from mirrorforge.twisted_sheaves import (
    global_sections,
    loop_monodromy,
    stabilisation_threshold,
    validate_module,
)


def F(*args):
    return Fraction(*args)


def mono(coeff, exp):
    return NovikovScalar.monomial(coeff, exp)


ELLIPTIC = load_catalog("elliptic")
FOUR_ARCS = load_catalog("split-torus-2")
TORUS_2D = load_catalog("split-torus-4")


# -- oracle: theta coefficient towers ----------------------------------------
#
# On the three-arc circle the sheet-j tower of the slope-k line obeys,
# with sigma = sign(k) and gamma = (c + j)/|k|, the hand-derived
# transport relations
#
#   a1[m] = T^(m/3 - sigma/18 - gamma/3) a0[m]
#   a2[m] = T^(m/3 - sigma/6  - gamma/3) a1[m]
#   a0[m + sigma] = T^(m/3 - 5 sigma/18 - gamma/3) a2[m]   (wrap edge)
#
# whose composite is the one-step recursion
#
#   a0[m + sigma] = T^(m - sigma/2 - gamma) a0[m].
#
# The oracle builds the towers from the composite and re-checks the
# wrap-edge relation term by term, so a slip in the algebra cannot
# silently propagate.


def theta_valuations(k, c, j, radius):
    sigma = 1 if k > 0 else -1
    gamma = F(c + j) / abs(k)
    val0 = {0: F(0)}
    m = 0
    while abs(m + sigma) <= radius:
        val0[m + sigma] = val0[m] + m - F(sigma, 2) - gamma
        m += sigma
    m = 0
    while abs(m - sigma) <= radius:
        back = m - sigma
        val0[back] = val0[m] - (back - F(sigma, 2) - gamma)
        m = back
    val1 = {m: v + F(m, 3) - F(sigma, 18) - gamma / 3 for m, v in val0.items()}
    val2 = {m: v + F(m, 3) - F(sigma, 6) - gamma / 3 for m, v in val1.items()}
    for m in val0:
        if m + sigma in val0:
            direct = val2[m] + F(m, 3) - F(5 * sigma, 18) - gamma / 3
            assert val0[m + sigma] == direct
    return val0, val1, val2


def theta_section(cover, k, c, j, radius):
    """Rank-|k| section vector carrying the sheet-j theta tower."""
    towers = theta_valuations(k, c, j, radius)
    section = {}
    for chart, vals in enumerate(towers):
        entries = []
        for col in range(abs(k)):
            if col != j:
                entries.append(AffinoidElement(cover, (chart,)))
                continue
            terms = {(m,): mono(1, v) for m, v in vals.items()}
            entries.append(AffinoidElement(cover, (chart,), terms))
        section[chart] = tuple(entries)
    return section


def residual_vanishes(total, precision, slack=3):
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


class TestIntersections:
    def test_sheet_counts_match_the_slope(self):
        assert len(intersections(LinearLagrangian(1), 0)) == 1
        assert len(intersections(LinearLagrangian(3), 0)) == 3
        assert len(intersections(LinearLagrangian(-2), 0)) == 2

    def test_slope_one_primitive_is_the_half_square(self):
        (g,) = intersections(LinearLagrangian(1), 0)
        assert g == PolyFunction(1, {(2,): F(1, 2)})

    def test_negative_slope_gives_concave_primitives(self):
        for g in intersections(LinearLagrangian(-2), F(1, 4)):
            assert g.terms[(2,)] == F(-1, 2)

    def test_primitives_vanish_at_the_basepoint(self):
        rng = random.Random(5)
        for _ in range(20):
            q = F(rng.randint(-12, 12), 8)
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            c = F(rng.randint(-6, 6), 5)
            for g in intersections(LinearLagrangian(k, c), q):
                assert g.evaluate((q,)) == 0

    def test_sheets_are_evenly_spaced_on_the_fibre(self):
        prims = intersections(LinearLagrangian(3, F(1, 5)), F(1, 7))
        coords = [sheet_coordinate(g, F(1, 7)) for g in prims]
        assert coords[1] - coords[0] == F(1, 3)
        assert coords[2] - coords[1] == F(1, 3)

    def test_slope_zero_is_rejected(self):
        with pytest.raises(ValueError):
            intersections(LinearLagrangian(0), 0)

    def test_duplicate_sheets_are_rejected(self):
        g = PolyFunction(1, {(2,): F(1, 2)})
        with pytest.raises(ValueError):
            LocalFloerData((0,), 0, (g, g))


class TestEnergy:
    def test_frozen_restriction_factor(self):
        g = PolyFunction(1, {(2,): F(1, 2)})
        assert restriction_factor(g, 0, F(1, 2)) == mono(1, F(-1, 8))

    def test_factor_at_equal_points_is_one(self):
        g = PolyFunction(1, {(2,): F(1, 2), (1,): F(2, 3)})
        assert restriction_factor(g, F(1, 3), F(1, 3)) == mono(1, 0)

    def test_factor_telescopes(self):
        rng = random.Random(11)
        for _ in range(20):
            g = PolyFunction(
                1,
                {
                    (2,): F(rng.randint(-4, 4), 2),
                    (1,): F(rng.randint(-8, 8), 3),
                },
            )
            q, p, r = (F(rng.randint(-12, 12), 6) for _ in range(3))
            lhs = restriction_factor(g, q, p) * restriction_factor(g, p, r)
            assert lhs == restriction_factor(g, q, r)

    def test_frozen_energy_identity(self):
        # 1 + 2*(1/4) + 0 - 0 + 0 - 1/32 = 47/32
        g_x = PolyFunction(1, {(2,): F(1, 2)})
        g_y = PolyFunction.zero(1)
        assert energy_transport(1, 2, 0, F(1, 4), g_x, g_y) == F(47, 32)

    def test_energy_fixed_points(self):
        g_x = PolyFunction(1, {(2,): F(1, 2), (1,): F(1, 3)})
        g_y = PolyFunction(1, {(1,): F(2, 7)})
        assert energy_transport(F(5, 3), 4, F(1, 2), F(1, 2), g_x, g_y) == F(5, 3)
        assert energy_transport(F(5, 3), 0, F(1, 4), F(3, 4), g_x, g_x) == F(5, 3)

    def test_energy_concatenation(self):
        rng = random.Random(23)
        for _ in range(30):
            g_x = PolyFunction(
                1, {(2,): F(rng.randint(-4, 4), 2), (1,): F(rng.randint(-6, 6), 4)}
            )
            g_y = PolyFunction(
                1, {(2,): F(rng.randint(-4, 4), 2), (1,): F(rng.randint(-6, 6), 4)}
            )
            e = F(rng.randint(0, 40), 8)
            b = rng.randint(-5, 5)
            q, p, r = (F(rng.randint(-12, 12), 6) for _ in range(3))
            step = energy_transport(e, b, q, p, g_x, g_y)
            twice = energy_transport(step, b, p, r, g_x, g_y)
            assert twice == energy_transport(e, b, q, r, g_x, g_y)


class TestTrivialisation:
    def make_module(self, chart=1, basepoint=None):
        data = local_floer_data(LinearLagrangian(2, F(1, 3)), ELLIPTIC.cover, chart)
        if basepoint is not None:
            prims = tuple(
                g - PolyFunction(1, {(0,): g.evaluate((basepoint,))})
                for g in data.primitives
            )
            data = LocalFloerData(data.face, basepoint, prims, data.tag)
        return LocalModule(ELLIPTIC.cover, data)

    def test_identity_change(self):
        module = self.make_module()
        change = change_trivialisation(
            module, PolyFunction.zero(1), module.data.primitives
        )
        one = AffinoidElement.one(
            ELLIPTIC.cover, module.data.face
        ).with_basepoint((module.data.basepoint,))
        assert all(entry == one for entry in change.entries)

    def test_constant_twist_is_a_scalar(self):
        module = self.make_module()
        change = change_trivialisation(
            module, PolyFunction(1, {(0,): F(1, 3)}), module.data.primitives
        )
        for entry in change.entries:
            assert entry.terms == {(0,): mono(1, F(1, 3))}

    def test_round_trip_is_the_identity(self):
        module = self.make_module()
        q = module.data.basepoint
        f = PolyFunction(1, {(1,): 2, (0,): F(-3, 4)})
        new = tuple(
            g + PolyFunction(1, {(1,): j + 1, (0,): -(j + 1) * q})
            for j, g in enumerate(module.data.primitives)
        )
        there = change_trivialisation(module, f, new)
        back = change_trivialisation(there.target, -f, module.data.primitives)
        for a, b in zip(there.entries, back.entries):
            product = a * b
            assert product == AffinoidElement.one(
                ELLIPTIC.cover, module.data.face
            ).with_basepoint((q,))

    def test_fractional_slope_is_rejected(self):
        module = self.make_module()
        f = PolyFunction(1, {(1,): F(1, 2)})
        with pytest.raises(ValueError):
            change_trivialisation(module, f, module.data.primitives)

    def test_quadratic_mismatch_is_rejected(self):
        module = self.make_module()
        q = module.data.basepoint
        flipped = tuple(
            g - PolyFunction(1, {(2,): 1, (0,): -q * q})
            for g in module.data.primitives
        )
        with pytest.raises(ValueError):
            change_trivialisation(module, PolyFunction.zero(1), flipped)

    def test_commutation_square(self):
        # moving the basepoint then retrivialising agrees with
        # retrivialising then moving, once the monomials are rebased
        rng = random.Random(31)
        for _ in range(10):
            q = F(1, 3)
            p = F(1, 3) + F(rng.randint(1, 6), 16)
            module_q = self.make_module(basepoint=q)
            f = PolyFunction(
                1, {(1,): rng.randint(-3, 3), (0,): F(rng.randint(-8, 8), 5)}
            )
            new_q = tuple(
                g + PolyFunction(1, {(1,): j + 1, (0,): -(j + 1) * q})
                for j, g in enumerate(module_q.data.primitives)
            )
            change_q = change_trivialisation(module_q, f, new_q)
            module_p = self.make_module(basepoint=p)
            new_p = tuple(
                g - PolyFunction(1, {(0,): g.evaluate((p,))}) for g in new_q
            )
            change_p = change_trivialisation(module_p, f, new_p)
            for j in range(module_q.rank):
                route_a = change_q.entries[j].with_basepoint(
                    (p,)
                ) * restriction_factor(new_q[j], q, p)
                route_b = change_p.entries[j] * restriction_factor(
                    module_q.data.primitives[j], q, p
                )
                assert route_a == route_b


class TestPatching:
    def test_rank_matches_the_slope(self):
        assert patch_global(LinearLagrangian(1), ELLIPTIC).rank == 1
        assert patch_global(LinearLagrangian(-3), ELLIPTIC).rank == 3

    def test_frozen_wrap_entries(self):
        module = patch_global(LinearLagrangian(1), ELLIPTIC)
        cover = ELLIPTIC.cover
        inner = module.restriction((0,), (0, 2))[0][0]
        assert inner == AffinoidElement.one(cover, (0, 2))
        outer = module.restriction((2,), (0, 2))[0][0]
        expected = AffinoidElement.monomial(
            cover, (0, 2), mono(1, F(-5, 18)), (1,)
        )
        assert outer == expected

    def test_patch_validates_on_both_circle_catalogs(self):
        for fibration in (ELLIPTIC, FOUR_ARCS):
            for k in (-3, -2, -1, 1, 2, 3):
                module = patch_global(LinearLagrangian(k, F(1, 4)), fibration)
                assert validate_module(module, 3).ok

    def test_single_entry_rescaling_shifts_the_loop_monodromy(self):
        # a circle nerve has no nested triples, so the validator has no
        # composite to compare a lone rescaled entry against; the
        # mutation still lands in a different module, which the loop
        # monodromy constants witness
        module = patch_global(LinearLagrangian(2), ELLIPTIC)
        low, top = sorted(module.pairs)[0]
        bad = module.with_entry(
            low, top, 0, 0, module.restriction(low, top)[0][0] * mono(1, 1)
        )
        assert validate_module(bad, 3).ok
        before = loop_monodromy(module)
        after = loop_monodromy(bad)
        assert after[0].constant == before[0].constant + 1
        assert after[1] == before[1]

    def test_truncated_entries_keep_their_cutoff_and_validate(self):
        module = patch_global(LinearLagrangian(1), ELLIPTIC)
        for low, top in module.pairs:
            ((entry,),) = module.restriction(low, top)
            terms = {a: c.truncate(3) for a, c in entry.terms.items()}
            cut = AffinoidElement(entry.cover, entry.face, terms, entry.basepoint)
            module = module.with_entry(low, top, 0, 0, cut)
        entry = module.restriction((2,), (0, 2))[0][0]
        (coeff,) = entry.terms.values()
        assert coeff.cutoff == 3
        assert validate_module(module, 2).ok

    def test_two_dimensional_covers_are_rejected(self):
        with pytest.raises(ChartMismatchError):
            patch_global(LinearLagrangian(1), TORUS_2D)

    def test_chart_offsets_walk_the_transitions(self):
        assert chart_offsets(ELLIPTIC.cover) == (F(0), F(0), F(0))
        assert chart_offsets(FOUR_ARCS.cover) == (F(0),) * 4
        with pytest.raises(ChartMismatchError):
            chart_offsets(TORUS_2D.cover)

    def test_frozen_loop_monodromies(self):
        module = patch_global(LinearLagrangian(1), ELLIPTIC)
        (sheet,) = loop_monodromy(module)
        assert (sheet.shift, sheet.constant, sheet.weight) == (1, F(-1, 2), 1)
        module = patch_global(LinearLagrangian(2), ELLIPTIC)
        sheets = loop_monodromy(module)
        assert [s.shift for s in sheets] == [1, 1]
        assert [s.constant for s in sheets] == [F(-1, 2), F(-1)]
        assert [s.weight for s in sheets] == [1, 1]
        module = patch_global(LinearLagrangian(-1), ELLIPTIC)
        (sheet,) = loop_monodromy(module)
        assert (sheet.shift, sheet.constant, sheet.weight) == (-1, F(1, 2), 1)

    def test_loop_degree_matches_the_slope(self):
        for fibration in (ELLIPTIC, FOUR_ARCS):
            for k in (-2, 3):
                module = patch_global(LinearLagrangian(k, F(1, 5)), fibration)
                sheets = loop_monodromy(module)
                assert sum(s.shift * s.weight for s in sheets) == k


class TestSections:
    def test_theta_towers_solve_the_edges(self):
        for k in (1, 2):
            module = patch_global(LinearLagrangian(k), ELLIPTIC)
            radius = section_window(LinearLagrangian(k), 6)
            for j in range(k):
                section = theta_section(ELLIPTIC.cover, k, 0, j, radius)
                assert section_solves_the_edges(module, section, 6)

    def test_positive_slope_counts_thetas(self):
        for k in (1, 2):
            module = patch_global(LinearLagrangian(k), ELLIPTIC)
            window = section_window(LinearLagrangian(k), 6)
            space = global_sections(
                module, 6, max_window=window + 2, min_window=window
            )
            assert space.rank == k
            for section in space.sections:
                assert section_solves_the_edges(module, section, 6, slack=6)

    def test_negative_slope_has_no_sections(self):
        module = patch_global(LinearLagrangian(-1), ELLIPTIC)
        space = global_sections(module, 6)
        assert space.rank == 0

    def test_theta_towers_are_independent(self):
        k = 2
        radius = section_window(LinearLagrangian(k), 6)
        exponents = range(-radius, radius + 1)
        rows = []
        for j in range(k):
            section = theta_section(ELLIPTIC.cover, k, 0, j, radius)
            row = []
            for chart in range(3):
                for col in range(k):
                    terms = section[chart][col].terms
                    row.extend(
                        terms.get((m,), NovikovScalar.zero()) for m in exponents
                    )
            rows.append(row)
        assert NovikovMatrix(rows).rank_at_precision(6) == k

    def test_stabilisation_threshold_is_reported(self):
        module = patch_global(LinearLagrangian(1), ELLIPTIC)
        window = section_window(LinearLagrangian(1), 6)
        threshold = stabilisation_threshold(
            module, 6, max_window=window + 2, min_window=window
        )
        # pinned from the solver that re-solved every integer precision
        assert threshold == 1
        space = global_sections(
            module, 6, max_window=window + 2, min_window=window
        )
        assert (space.rank, space.window, space.threshold) == (1, 5, 1)

    def test_brute_force_solve_matches_for_slope_one(self):
        # rational system assembled directly from the transport
        # relations: one unknown per coefficient of t^lam z^m, one
        # equation per visible target coefficient, sources outside the
        # window contributing nothing
        precision = 4
        radius = 4
        exps = list(range(-radius, radius + 1))
        step = F(1, 18)
        top = precision + F(radius, 3) + F(5, 18)
        slots = []
        lam = F(0)
        while lam < top:
            slots.append(lam)
            lam += step
        unknowns = {
            (chart, m, lam) for chart in range(3) for m in exps for lam in slots
        }
        grid = [F(j, 18) for j in range(-36, 18 * precision)]
        rows = []

        def relation(src_chart, src_m, dst_chart, dst_m, shift):
            for mu in grid:
                row = {}
                src = (src_chart, src_m, mu - shift)
                if src in unknowns:
                    row[src] = F(1)
                dst = (dst_chart, dst_m, mu)
                if dst in unknowns:
                    row[dst] = F(-1)
                if row:
                    rows.append(row)

        for m in exps:
            relation(0, m, 1, m, F(m, 3) - F(1, 18))
            relation(1, m, 2, m, F(m, 3) - F(1, 6))
            relation(2, m, 0, m + 1, F(m, 3) - F(5, 18))

        pivots = {}
        for raw in rows:
            row = dict(raw)
            for col in [c for c in row if c in pivots]:
                f = row.pop(col)
                for j, v in pivots[col].items():
                    if j != col:
                        value = row.get(j, F(0)) - f * v
                        if value:
                            row[j] = value
                        else:
                            row.pop(j, None)
            row = {c: v for c, v in row.items() if v}
            if not row:
                continue
            lead = min(row)
            inv = 1 / row[lead]
            row = {c: v * inv for c, v in row.items()}
            for other in pivots.values():
                f = other.pop(lead, None)
                if f:
                    for j, v in row.items():
                        if j != lead:
                            value = other.get(j, F(0)) - f * v
                            if value:
                                other[j] = value
                            else:
                                other.pop(j, None)
            pivots[lead] = row
        grounded = []
        for col in sorted(unknowns):
            if col in pivots:
                continue
            vec = {col: F(1)}
            for pc, prow in pivots.items():
                v = prow.get(col)
                if v:
                    vec[pc] = -v
            if min(entry[2] for entry in vec) == 0:
                grounded.append(vec)
        # one tower scaled to least valuation zero; t-shifted copies
        # start strictly above zero and junk never reaches down to it
        assert len(grounded) == 1
        module = patch_global(LinearLagrangian(1), ELLIPTIC)
        window = section_window(LinearLagrangian(1), precision)
        space = global_sections(
            module, precision, max_window=window + 2, min_window=window
        )
        assert space.rank == len(grounded)


class TestLocalComplexes:
    def test_fiber_cohomology_has_sheet_rank(self):
        rng = random.Random(41)
        lagrangian = LinearLagrangian(2, F(1, 3))
        for chart in range(3):
            module = local_module(lagrangian, ELLIPTIC.cover, chart)
            complex_ = module.complex()
            poly = ELLIPTIC.cover.face_chart((chart,)).polytope
            (low,), (high,) = poly.vertices
            for _ in range(3):
                t = F(rng.randint(0, 16), 16)
                position = (low + (high - low) * t,)
                unit = (F(rng.randint(1, 9), rng.randint(1, 9)),)
                point = MirrorPoint(position, unit)
                assert complex_.fiber_cohomology(point, 6) == {0: 2}

    def test_local_data_records_the_fibre_coordinates(self):
        data = local_floer_data(LinearLagrangian(3, F(1, 2)), ELLIPTIC.cover, 1)
        q = data.basepoint
        coords = [sheet_coordinate(g, q) for g in data.primitives]
        assert coords == [q + F(1, 6), q + F(1, 2), q + F(5, 6)]

    def test_a_chart_index_that_is_not_an_int_is_refused(self):
        # True built sheet data with face (True,) and the label of chart
        # 1, and 1.0 leaked the TypeError of indexing a tuple with a float
        line = LinearLagrangian(2, F(1, 3))
        for chart in (True, False, 1.0, F(1), "1", None):
            for build in (local_floer_data, local_module):
                with pytest.raises(
                    TypeError,
                    match=rf"^chart index must be an int, not {type(chart).__name__}$",
                ):
                    build(line, ELLIPTIC.cover, chart)
        assert local_module(line, ELLIPTIC.cover, 1).data == local_floer_data(
            line, ELLIPTIC.cover, 1
        )
