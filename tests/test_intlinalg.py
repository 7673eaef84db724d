import random
from fractions import Fraction

import pytest

import mirrorforge.affine as affine_module
import mirrorforge.cover as cover_module
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration
from mirrorforge.intlinalg import (
    PresolvedIntegerSystem,
    SparseRationalSystem,
    identity_matrix,
    mat_mul,
    smith_normal_form,
)


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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


def dense_smith_normal_form(mat):
    """smith_normal_form with U, S and V as dense lists of rows."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    u, s, v = smith_normal_form(mat)
    return (
        [[row.get(j, 0) for j in range(m)] for row in u],
        [[row.get(j, 0) for j in range(n)] for row in s],
        [[column.get(i, 0) for column in v] for i in range(n)],
    )


def test_xgcd():
    # the gcd and its Bezout coefficients, read off the Smith form of the
    # 1 x 2 matrix (a b): U (a b) V = (g 0), so (a b) V U e_1 = g
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (13, 29)]:
        u, s, v = dense_smith_normal_form([[a, b]])
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
        u, s, v = dense_smith_normal_form(mat)
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


def test_integer_kernel_and_rational_solve():
    # rank one, so one kernel vector, orthogonal to the row (1, 2)
    mat = [[1, 2], [2, 4]]
    (vector,) = PresolvedIntegerSystem(mat).kernel_basis()
    assert vector in ([2, -1], [-2, 1])
    system = SparseRationalSystem([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
    assert system.solve([3, 6]) == [Fraction(3), Fraction(0)]
    assert system.solve([3, 7]) is None


def test_a_system_of_no_rows():
    assert smith_normal_form([]) == ([], [], []) == reference_smith_normal_form([])
    system = PresolvedIntegerSystem([], ncols=3)
    assert system.solve([]) == [0, 0, 0]
    assert system.kernel_basis() == identity_matrix(3)


def test_identity_matrix():
    assert identity_matrix(2) == [[1, 0], [0, 1]]


# -- the Smith form against its earlier search ------------------------------------


def reference_smith_normal_form(mat):
    """The Smith form as it stood before its search stopped at a unit
    entry, skipped the divisibility sweep under a unit pivot and skipped
    zero entries in column operations."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    s = [[int(x) for x in row] for row in mat]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (
                    pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, -q)
                    if s[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    add_col(j, t, -q)
                    if s[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            fixed = True
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % s[t][t] != 0:
                        add_row(t, i, 1)
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, s, v


def seeded_matrix(rng):
    """A small integer matrix, often not square, with zero rows and
    columns, repeated rows, and some with no unit entry at all."""
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    values = rng.choice(
        ((0, 0, 1, -1, 2, -3, 4), (0, 0, 0, 2, -2, 3, 6, -9, 12), (0, 1, -1, 5, -7))
    )
    mat = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        mat[rng.randrange(m)] = [0] * n
    if rng.random() < 0.3:
        column = rng.randrange(n)
        for row in mat:
            row[column] = 0
    if m > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(m), 2)
        k = rng.choice((-2, -1, 1, 3))
        mat[a] = [k * x for x in mat[b]]
    return mat


def test_smith_form_matches_the_earlier_search_on_seeded_matrices():
    rng = random.Random(1201)
    seen = {"wide": 0, "tall": 0, "deficient": 0, "large": 0, "zero_line": 0, "sweep": 0}
    for _ in range(1500):
        mat = seeded_matrix(rng)
        m, n = len(mat), len(mat[0])
        u, s, v = dense_smith_normal_form(mat)
        assert (u, s, v) == reference_smith_normal_form(mat)
        rank = sum(1 for i in range(min(m, n)) if s[i][i])
        # no unit entry and a second pivot: the divisibility sweep ran
        seen["sweep"] += rank > 1 and all(abs(x) != 1 for row in mat for x in row)
        seen["wide"] += m < n
        seen["tall"] += m > n
        seen["deficient"] += rank < min(m, n)
        seen["large"] += any(abs(x) >= 2 for row in mat for x in row)
        seen["zero_line"] += any(not any(row) for row in mat) or any(
            not any(col) for col in zip(*mat)
        )
    assert min(seen.values()) > 200, seen


def certificate_matrices(monkeypatch, cover):
    """A new certificate system of the cover, and the matrices of the
    integer systems it factors: the lattice system, then the projected
    one."""
    matrices = []
    original = cover_module.PresolvedIntegerSystem

    def recording(mat, ncols=None):
        matrices.append([list(row) for row in mat])
        return original(mat, ncols)

    with monkeypatch.context() as patch:
        patch.setattr(cover_module, "PresolvedIntegerSystem", recording)
        system = cover_module._CertificateSystem(cover)
    return system, matrices


def polytope_matrices(monkeypatch, name):
    """The matrices of the extreme-point tests that reading the catalog's
    manifest factors, one per declared vertex of each chart."""
    matrices = []
    original = affine_module.PresolvedIntegerSystem

    def recording(mat, ncols=None):
        matrices.append([list(row) for row in mat])
        return original(mat, ncols)

    text = fibration_to_manifest(load_catalog(name))
    with monkeypatch.context() as patch:
        patch.setattr(affine_module, "PresolvedIntegerSystem", recording)
        manifest_to_fibration(text)
    return matrices


# the scaled covers of tools/cli_compare.py, whose translations are fractions
SCALED_COVERS = (("thurston-f2", Fraction(5, 2)), ("split-torus-4", Fraction(3, 7)))


@pytest.mark.parametrize(
    "name, scale",
    [(name, None) for name in catalog_ids()] + list(SCALED_COVERS),
    ids=[*catalog_ids(), *(f"{n}-times-{s.numerator}-{s.denominator}" for n, s in SCALED_COVERS)],
)
def test_smith_form_matches_the_earlier_search_on_the_catalogs(monkeypatch, name, scale):
    from test_sparse_solver import scaled_cover

    cover = load_catalog(name).cover if scale is None else scaled_cover(name, scale)
    _, matrices = certificate_matrices(monkeypatch, cover)
    assert len(matrices) == 2
    if scale is None:
        matrices += polytope_matrices(monkeypatch, name)
    for mat in matrices:
        if mat:
            assert dense_smith_normal_form(mat) == reference_smith_normal_form(mat)
    if cover.dimension == 2:
        lattice, projected = matrices[:2]
        assert len(lattice) == len(lattice[0]) == 72
        assert projected
