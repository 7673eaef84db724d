"""Exact linear algebra over the integers, the rationals and other rings.

Small dense matrices only.  The Smith normal form drives every integer
solvability question in the package (coboundary certificates, lattice
classes), and the rational routines back the affine-constant solves;
both take plain lists of ints or Fractions.  The principal-minor sums
and the determinant are ring-generic: they use only ``+``, ``-`` and
``*`` of the entries, so they serve Fractions, Novikov scalars and
affinoid elements alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul


def xgcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[]] * len(a) if a else []
    inner = len(b)
    cols = len(b[0])
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def smith_normal_form(mat):
    """Compute U, S, V with U*mat*V = S in Smith normal form.

    U and V are unimodular; S is diagonal with nonnegative entries and
    each diagonal entry divides the next.
    """
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
        # row dst += q * row src
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
        # valuation-free analogue of partial pivoting: smallest |entry|
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
            # clear the pivot column
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
            # enforce the divisibility chain
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


def solve_integer(mat, rhs):
    """Solve mat*x = rhs over the integers.

    Returns (x0, kernel_basis) or None when no integer solution exists.
    kernel_basis is a list of integer vectors spanning the kernel.
    """
    system = PresolvedIntegerSystem(mat)
    x0 = system.solve(rhs)
    return None if x0 is None else (x0, system.kernel_basis())


def integer_kernel_basis(mat):
    return PresolvedIntegerSystem(mat).kernel_basis()


def rational_rref(mat):
    """Reduced row echelon form over Fraction.  Returns (rows, pivot_cols)."""
    rows = [[Fraction(x) for x in row] for row in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(n):
        sel = None
        for i in range(rank, m):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def rational_solve(mat, rhs):
    """One rational solution of mat*x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    rows, pivots = rational_rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = rows[r][n]
    return x


def rational_nullspace(mat):
    """Basis of the rational kernel of mat (columns -> vectors)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows, pivots = rational_rref(mat)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][fc]
        basis.append(vec)
    return basis


class PresolvedIntegerSystem:
    """mat*x = rhs over Z, factored once and solved for many rhs."""

    def __init__(self, mat, ncols=None):
        self._m = len(mat)
        self._n = len(mat[0]) if self._m else (ncols or 0)
        if self._m:
            self._u, self._s, self._v = smith_normal_form(mat)
        self._kernel = None

    @property
    def ncols(self):
        return self._n

    def solve(self, rhs):
        """One integer solution, or None."""
        if self._m == 0:
            return [0] * self._n
        c = mat_vec(self._u, list(rhs))
        y = [0] * self._n
        for i in range(self._m):
            d = self._s[i][i] if i < min(self._m, self._n) else 0
            if d != 0:
                if c[i] % d != 0:
                    return None
                y[i] = c[i] // d
            elif c[i] != 0:
                return None
        return mat_vec(self._v, y)

    def kernel_basis(self):
        if self._kernel is None:
            if self._m == 0:
                self._kernel = identity_matrix(self._n)
            else:
                basis = []
                for j in range(self._n):
                    d = self._s[j][j] if j < min(self._m, self._n) else 0
                    if d == 0:
                        basis.append([self._v[i][j] for i in range(self._n)])
                self._kernel = basis
        return self._kernel


class PresolvedRationalSystem:
    """mat*x = rhs over Q, row-reduced once and solved for many rhs."""

    def __init__(self, mat, ncols=None):
        self._m = len(mat)
        self._n = len(mat[0]) if self._m else (ncols or 0)
        rows = [
            [Fraction(x) for x in row]
            + [Fraction(1 if i == j else 0) for j in range(self._m)]
            for i, row in enumerate(mat)
        ]
        pivots = []
        rank = 0
        for col in range(self._n):
            sel = next(
                (i for i in range(rank, self._m) if rows[i][col] != 0), None
            )
            if sel is None:
                continue
            rows[rank], rows[sel] = rows[sel], rows[rank]
            inv = 1 / rows[rank][col]
            rows[rank] = [x * inv for x in rows[rank]]
            for i in range(self._m):
                if i != rank and rows[i][col] != 0:
                    f = rows[i][col]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
            pivots.append(col)
            rank += 1
        self._rows = rows
        self._pivots = pivots

    def solve(self, rhs):
        """One rational solution with free variables zero, or None."""
        rhs = [Fraction(x) for x in rhs]
        transformed = [
            sum(row[self._n + j] * rhs[j] for j in range(self._m))
            for row in self._rows
        ]
        for i in range(len(self._pivots), self._m):
            if transformed[i] != 0:
                return None
        x = [Fraction(0)] * self._n
        for r, col in enumerate(self._pivots):
            x[col] = transformed[r]
        return x


def principal_minor_sums(rows):
    """[e_1, ..., e_n], where e_k sums the k x k principal minors.

    These are the coefficients of det(I + xA), found by Berkowitz's
    division-free recurrence (Inf. Proc. Letters 18, 1984) over the
    leading principal blocks in O(n^4) ring operations.
    """
    e = []
    for r in range(len(rows)):
        q = _border_products(rows, r)
        e = [_next_sum(e, rows[r][r], q, k) for k in range(1, r + 2)]
    return e


def determinant(rows):
    """Determinant of a nonempty square matrix over a commutative ring.

    Only the last sum of the final Berkowitz step is formed; a 1 x 1
    matrix gives its entry itself.
    """
    r = len(rows) - 1
    if r < 0:
        raise ValueError("a 0 x 0 determinant needs the ring's one")
    e = principal_minor_sums([row[:r] for row in rows[:r]])
    return _next_sum(e, rows[r][r], _border_products(rows, r), r + 1)


def _border_products(rows, r):
    # q_m = h A^m c for m < r: A is the leading r x r block, h is row r
    # and c column r cut to the block (_dot stops at the shorter vector)
    vec = [row[r] for row in rows[:r]]
    q = []
    for m in range(r):
        if m:
            vec = [_dot(row, vec) for row in rows[:r]]
        q.append(_dot(rows[r], vec))
    return q


def _next_sum(e, a, q, k):
    # e'_k = e_k + a e_(k-1) - q_0 e_(k-2) + q_1 e_(k-3) - ... once the
    # block with sums e is bordered by diagonal entry a; e_0 = 1 and
    # e_(r+1) = 0 stay implicit, so no ring one, zero or negation is used
    r = len(e)
    if k == 1:
        return e[0] + a if r else a
    total = a * e[k - 2] if k > r else e[k - 1] + a * e[k - 2]
    for m in range(k - 1):
        term = q[m] if m == k - 2 else q[m] * e[k - 3 - m]
        total = total - term if m % 2 == 0 else total + term
    return total


def _dot(u, v):
    return reduce(add, map(mul, u, v))
