import random
from fractions import Fraction

from mirrorforge.intlinalg import (
    PresolvedIntegerSystem,
    SparseRationalSystem,
    identity_matrix,
    mat_mul,
    mat_vec,
    rational_rref,
    smith_normal_form,
    sparse_kernel,
)


def det_int(mat):
    n = len(mat)
    rows = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        sel = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return det


def test_xgcd():
    # the gcd and its Bezout coefficients, read off the Smith form of the
    # 1 x 2 matrix (a b): U (a b) V = (g 0), so (a b) V U e_1 = g
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (13, 29)]:
        u, s, v = smith_normal_form([[a, b]])
        g, x, y = s[0][0], u[0][0] * v[0][0], u[0][0] * v[1][0]
        assert a * x + b * y == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_smith_normal_form_random():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        u, s, v = smith_normal_form(mat)
        assert mat_mul(mat_mul(u, mat), v) == s
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        diag = [s[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_solve_integer_consistent():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        mat = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        hidden = [rng.randrange(-4, 5) for _ in range(n)]
        rhs = mat_vec(mat, hidden)
        system = PresolvedIntegerSystem(mat)
        x0 = system.solve(rhs)
        assert x0 is not None
        kernel = system.kernel_basis()
        assert mat_vec(mat, x0) == rhs
        for k in kernel:
            assert mat_vec(mat, k) == [0] * m


def test_solve_integer_detects_gaps():
    # 2x = 1 has no integer solution
    assert PresolvedIntegerSystem([[2]]).solve([1]) is None
    # consistent over Q but not over Z
    assert PresolvedIntegerSystem([[2, 0], [0, 3]]).solve([1, 3]) is None


def test_kernel_spans():
    mat = [[1, 2, 3]]
    kernel = PresolvedIntegerSystem(mat).kernel_basis()
    assert len(kernel) == 2
    for k in kernel:
        assert mat_vec(mat, k) == [0]
    # (1, 1, -1) must be an integer combination of the basis
    target = [1, 1, -1]
    sol = PresolvedIntegerSystem(
        [[kernel[0][i], kernel[1][i]] for i in range(3)]
    ).solve(target)
    assert sol is not None


def test_rational_rref_and_solve():
    mat = [[1, 2], [2, 4]]
    rows, pivots = rational_rref(mat)
    assert pivots == [0]
    assert rows[0] == [Fraction(1), Fraction(2)]
    system = SparseRationalSystem([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
    assert system.solve([3, 6]) == [Fraction(3), Fraction(0)]
    assert system.solve([3, 7]) is None


def test_rational_nullspace():
    mat = [[1, 2, 3], [0, 1, 1]]
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat]
    (basis,) = sparse_kernel(rows, 3, [2])
    assert len(basis) == 1
    vec = [basis[0].get(j, 0) for j in range(3)]
    assert mat_vec(mat, vec) == [0, 0]


def test_identity_matrix():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
