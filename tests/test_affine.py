import warnings
from fractions import Fraction

import pytest

from mirrorforge.affine import (
    AffineFunction,
    IntegralAffineMap,
    IntegralAffinePolytope,
    PolyFunction,
    recession_cone_is_trivial,
)
from mirrorforge.errors import ChartMismatchError, InvalidPolytopeError
from test_cached_tables import apply_map
from test_cech_differential import compose_with_map
from test_cover import compose_with_map as compose_poly_with_map
from test_integer_geometry import reference_compose
from test_determinant import cofactor_det

F = Fraction


def unit_square():
    return IntegralAffinePolytope.from_box([(0, 1), (0, 1)])


class TestPolytopeValidation:
    def test_box(self):
        p = unit_square()
        assert len(p.vertices) == 4
        assert p.contains((F(1, 2), F(1, 2)))
        assert not p.contains((2, 0))
        assert p.lex_least_vertex() == (F(0), F(0))

    def test_vertex_outside_rejected(self):
        with pytest.raises(InvalidPolytopeError):
            IntegralAffinePolytope(
                1, [((-1,), 0), ((1,), 1)], [(0,), (2,)]
            )

    def test_loose_inequality_rejected(self):
        with pytest.raises(InvalidPolytopeError, match="tight at no vertex"):
            IntegralAffinePolytope(
                1,
                [((-1,), 0), ((1,), 1), ((1,), 5)],
                [(0,), (1,)],
            )

    def test_unbounded_rejected(self):
        with pytest.raises(InvalidPolytopeError, match="unbounded"):
            IntegralAffinePolytope(
                2,
                [((-1, 0), 0), ((0, -1), 0), ((0, 1), 0)],
                [(0, 0)],
            )

    def test_non_extreme_vertex_rejected(self):
        with pytest.raises(InvalidPolytopeError, match="extreme"):
            IntegralAffinePolytope(
                1,
                [((-1,), 0), ((1,), 1)],
                [(0,), (F(1, 2),), (1,)],
            )

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            IntegralAffinePolytope(1, [((-1,), 0.0), ((1,), 1)], [(0,), (1,)])
        with pytest.raises(TypeError):
            IntegralAffinePolytope(1, [((-1.0,), 0), ((1,), 1)], [(0,), (1,)])

    def test_recession_cone(self):
        assert recession_cone_is_trivial([(-1, 0), (1, 0), (0, -1), (0, 1)], 2)
        assert not recession_cone_is_trivial([(1, -1), (-1, 1)], 2)
        assert not recession_cone_is_trivial([(-1, 0), (0, -1)], 2)


class TestFromInequalities:
    def test_interval(self):
        p = IntegralAffinePolytope.from_inequalities(
            1, [((-3,), -1), ((2,), 3)]
        )
        assert p.vertices == ((F(1, 3),), (F(3, 2),))

    def test_redundant_pruned(self):
        p = IntegralAffinePolytope.from_inequalities(
            1, [((-1,), 0), ((1,), 1), ((1,), 7)]
        )
        assert len(p.inequalities) == 2

    def test_empty_rejected(self):
        with pytest.raises(InvalidPolytopeError):
            IntegralAffinePolytope.from_inequalities(
                1, [((1,), 0), ((-1,), -1)]
            )

    def test_triangle(self):
        p = IntegralAffinePolytope.from_inequalities(
            2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]
        )
        assert set(p.vertices) == {(F(0), F(0)), (F(0), F(1)), (F(1), F(0))}

    def test_parallelogram(self):
        # 0 <= x <= 1, x - 1 <= y <= x
        p = IntegralAffinePolytope.from_inequalities(
            2, [((-1, 0), 0), ((1, 0), 1), ((-1, 1), 0), ((1, -1), 1)]
        )
        assert set(p.vertices) == {
            (F(0), F(-1)),
            (F(0), F(0)),
            (F(1), F(0)),
            (F(1), F(1)),
        }


class TestContainment:
    @pytest.mark.parametrize("point", [(F(1, 2),), (F(1, 2), F(1, 2), 9)])
    def test_a_point_of_the_wrong_length_is_refused(self, point):
        with pytest.raises(ChartMismatchError, match="point has wrong dimension"):
            unit_square().contains(point)


class TestIntegralAffineMap:
    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            IntegralAffineMap([[2, 0], [0, 1]], [0, 0])

    def test_orientation_reversal_warns(self):
        with pytest.warns(UserWarning, match="orientation"):
            IntegralAffineMap([[0, 1], [1, 0]], [0, 0])

    def test_compose_and_inverse(self):
        shear = IntegralAffineMap([[1, 1], [0, 1]], [0, F(1, 2)])
        shift = IntegralAffineMap([[1, 0], [0, 1]], [1, 0])
        both = reference_compose(shear, shift)
        assert both.apply((0, 0)) == (F(1), F(1, 2))
        inv = both.inverse()
        assert reference_compose(inv, both) == IntegralAffineMap.identity(2)
        assert reference_compose(both, inv) == IntegralAffineMap.identity(2)

    def test_apply_map_to_polytope(self):
        shear = IntegralAffineMap([[1, 1], [0, 1]], [0, 0])
        p = apply_map(unit_square(), shear)
        assert set(p.vertices) == {
            (F(0), F(0)),
            (F(1), F(0)),
            (F(1), F(1)),
            (F(2), F(1)),
        }
        back = apply_map(p, shear.inverse())
        assert back == unit_square()


class TestMapDeterminant:
    # integer matrices of sizes 2 to 4 with determinant 0, 1, -1 or 2
    MATRICES = [
        [[1, 2], [2, 4]],
        [[2, 1], [1, 1]],
        [[0, 1], [1, 0]],
        [[2, 0], [0, 1]],
        [[3, 2], [4, 3]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 1, 0], [0, 2, 1], [0, 0, 1]],
        [[2, -1, 0], [-1, 2, -1], [0, -1, 1]],
        [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 6, 10], [1, 4, 10, 20]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, 1]],
        [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 1, 0]],
    ]

    def test_the_matrices_cover_every_case(self):
        assert {len(m) for m in self.MATRICES} == {2, 3, 4}
        assert {cofactor_det(m) for m in self.MATRICES} == {0, 1, -1, 2}

    @pytest.mark.parametrize("linear", MATRICES)
    def test_det_matches_the_cofactor_reference(self, linear):
        expected = cofactor_det(linear)
        n = len(linear)
        if expected not in (1, -1):
            message = rf"^linear part must be unimodular, det = {expected}$"
            with pytest.raises(ValueError, match=message):
                IntegralAffineMap(linear, [0] * n)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            phi = IntegralAffineMap(linear, [0] * n)
        reversing = [w for w in caught if "det = -1" in str(w.message)]
        assert len(reversing) == (1 if expected == -1 else 0)
        assert phi.det == expected
        assert type(phi.det) is int

    def test_empty_map_has_det_one(self):
        phi = IntegralAffineMap([], [])
        assert phi.det == 1
        assert type(phi.det) is int


class TestAffineFunction:
    def test_compose_with_map(self):
        # the reference pull-back the differential tests compare against:
        # f(x) = <A, x> + c through x = M y + tau
        f = AffineFunction((1, 2), 0)
        phi = IntegralAffineMap([[1, 1], [0, 1]], [F(1, 3), 0])
        g = compose_with_map(f, phi)
        assert g.linear == (1, 3)
        assert g.constant == F(1, 3)

        def value(fn, pt):
            return sum(a * x for a, x in zip(fn.linear, pt)) + fn.constant

        for pt in [(0, 0), (1, 2), (F(1, 2), F(-1, 3))]:
            assert value(g, pt) == value(f, phi.apply(pt))

    def test_non_integer_differential_rejected(self):
        with pytest.raises(TypeError):
            AffineFunction((F(1, 2),), 0)


class TestPolyFunction:
    def test_evaluate_quadratic(self):
        # x^2/2 + y
        f = PolyFunction(2, {(2, 0): F(1, 2), (0, 1): 1})
        assert f.evaluate((2, 3)) == 5

    def test_compose_with_map(self):
        # the reference pull-back the obstruction tables are compared with
        f = PolyFunction(2, {(2, 0): F(1, 2)})
        phi = IntegralAffineMap([[1, 0], [0, 1]], [1, 0])
        g = compose_poly_with_map(f, phi)
        # (x+1)^2/2 = x^2/2 + x + 1/2
        assert g == PolyFunction(
            2, {(2, 0): F(1, 2), (1, 0): 1, (0, 0): F(1, 2)}
        )
        for pt in [(0, 0), (2, 1), (F(-1, 2), 5)]:
            assert g.evaluate(pt) == f.evaluate(phi.apply(pt))

    def test_degree_cap(self):
        f = PolyFunction(1, {(2,): 1})
        with pytest.raises(ValueError):
            _ = f * f
        with pytest.raises(ValueError):
            PolyFunction(1, {(3,): 1})

    def test_as_affine(self):
        f = PolyFunction(2, {(1, 0): 3, (0, 0): F(1, 4)})
        a = f.as_affine()
        assert a == AffineFunction((3, 0), F(1, 4))
        with pytest.raises(ValueError):
            PolyFunction(2, {(2, 0): 1}).as_affine()
        with pytest.raises(ValueError):
            PolyFunction(2, {(1, 0): F(1, 2)}).as_affine()
