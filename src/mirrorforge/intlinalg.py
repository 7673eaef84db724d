"""Exact linear algebra over the integers, the rationals and other rings.

The Smith normal form, on small dense integer matrices, drives every
integer solvability question in the package (coboundary certificates,
lattice classes).  One sparse echelon elimination over the rationals,
on rows given as ``{column: value}`` dicts, serves every rational
solve: the certificate's constant solve and the cokernel of the
incidence map.  The principal-minor sums and the determinant are
ring-generic: they use only ``+``, ``-`` and ``*`` of the entries, so
they serve Fractions, Novikov scalars and affinoid elements alike.  The
determinant takes sparse rows and first splits the matrix into the
diagonal blocks of its block-triangular form, so a diagonal or
triangular matrix costs a product of entries, not a dense recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import add, mul

_ONE = Fraction(1)


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


def smith_normal_form(mat):
    """Compute U, S, V with U*mat*V = S in Smith normal form.

    U and V are unimodular; S is diagonal with nonnegative entries and
    each diagonal entry divides the next.  Each pivot is the first entry
    of least |value| in row-major order: printed certificates depend on
    U and V, so this rule is part of the contract.
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
        for row in s + v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s + v:
            if row[src]:
                row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        # valuation-free analogue of partial pivoting: the first least
        # |entry|, where a row holding a unit entry ends the search
        pivot, least = None, 0
        for i in range(t, m):
            for j, x in enumerate(s[i][t:], t):
                if x and (not least or abs(x) < least):
                    pivot, least = (i, j), abs(x)
            if least == 1:
                break
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
            # enforce the divisibility chain, which a unit pivot meets:
            # add the first row holding an entry the pivot does not divide
            p = s[t][t]
            if abs(p) == 1:
                break
            rows = (i for i in range(t + 1, m) if any(x % p for x in s[i][t + 1 :]))
            bad = next(rows, None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, s, v


class PresolvedIntegerSystem:
    """mat*x = rhs over Z, factored once and solved for many rhs: U*mat*V
    = S kept as S's diagonal and U and V as sparse ``{column: value}`` rows."""

    def __init__(self, mat, ncols=None):
        self._m = len(mat)
        self._n = len(mat[0]) if self._m else (ncols or 0)
        u, s, v = smith_normal_form(mat) if self._m else ([], [], identity_matrix(self._n))
        self._u, self._v = ([{j: x for j, x in enumerate(r) if x} for r in m] for m in (u, v))
        self._diagonal = [s[i][i] for i in range(min(self._m, self._n))]

    def solve(self, rhs):
        """One integer solution, or None."""
        if self._m == 0:
            return [0] * self._n
        y = [0] * self._n
        for i, row in enumerate(self._u):
            value = sum(x * rhs[j] for j, x in row.items())
            d = self._diagonal[i] if i < self._n else 0
            if value % d if d else value:
                return None
            if d:
                y[i] = value // d
        return [sum(x * y[j] for j, x in row.items()) for row in self._v]

    def kernel_basis(self):
        # the columns of V past the nonzero diagonal entries of S
        rank = sum(1 for d in self._diagonal if d)
        return [[row.get(j, 0) for row in self._v] for j in range(rank, self._n)]

def _reduce(row, pivots):
    # reduce the dict row in place by the stored pivot rows, smallest
    # pivot column first, until its lowest column is not a pivot; return
    # that column, or None once the row vanishes
    heap = list(row)
    heapify(heap)
    while heap:
        c = heappop(heap)
        pivot = pivots.get(c)
        if pivot is None:
            if c in row:
                return c
            continue
        f = row.pop(c, None)
        if f is None:
            continue
        for j, v in pivot.items():
            value = row.get(j)
            if value is None:
                row[j] = -f * v
                heappush(heap, j)
            else:
                value -= f * v
                if value:
                    row[j] = value
                else:
                    del row[j]
    return None


def _store_pivot(pivots, row, lead):
    # keep the rest of the row scaled so its lead entry is 1: as it is
    # for a lead of 1, negated for -1, so a unit-pivot system stays on
    # the integers, and divided by the lead otherwise
    value = row.pop(lead)
    if value == 1:
        pivots[lead] = row
    elif value == -1:
        pivots[lead] = {j: -v for j, v in row.items()}
    else:
        inv = _ONE / value
        pivots[lead] = {j: v * inv for j, v in row.items()}


def _back_substitute(pivots):
    # reduced row echelon form, which the column order fixes uniquely:
    # each stored row with every later pivot column eliminated, last
    # lead first
    reduced = {}
    for lead in sorted(pivots, reverse=True):
        row = {}
        for j, v in pivots[lead].items():
            sub = reduced.get(j)
            if sub is None:
                row[j] = row.get(j, 0) + v
            else:
                for k, w in sub.items():
                    row[k] = row.get(k, 0) - v * w
        reduced[lead] = {k: v for k, v in row.items() if v}
    return reduced


class SparseRationalSystem:
    """rows*x = rhs over Q, eliminated once and solved for many rhs.

    Rows are ``{column: value}`` dicts over columns 0..n_columns-1.
    Equation i carries a tag column n_columns + i with entry 1, so every
    stored row also records which combination of the equations it is (an
    int 1, so rows of ints that meet only unit pivots stay on the ints).
    A row that reduces to tags alone is a relation among the equations,
    which a consistent right-hand side must satisfy; ``relations`` lists
    them as (equation, coefficient) pairs, in the order they were found.
    """

    def __init__(self, rows, n_columns):
        n = self._n = n_columns
        pivots = {}
        self.relations = []
        for i, raw in enumerate(rows):
            row = dict(raw)
            row[n + i] = 1
            lead = _reduce(row, pivots)
            if lead < n:
                _store_pivot(pivots, row, lead)
            else:
                self.relations.append([(k - n, v) for k, v in row.items()])
        self._solution = [
            (lead, [(k - n, v) for k, v in row.items() if k >= n])
            for lead, row in _back_substitute(pivots).items()
        ]

    def solve(self, rhs):
        """The solution in reduced row echelon form with free variables
        zero, or None when the system is inconsistent."""
        for relation in self.relations:
            if sum(v * rhs[i] for i, v in relation):
                return None
        x = [Fraction(0)] * self._n
        for lead, combination in self._solution:
            x[lead] = Fraction(sum(v * rhs[i] for i, v in combination))
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


def determinant(rows, zero):
    """Determinant of a nonempty square matrix over a commutative ring.

    Each row is a ``{column: entry}`` dict of the entries that are not
    exact zeros, and zero is the ring's zero, which reads in for a
    missing entry that a block needs.  The pattern of the keys is split
    into its strongly connected components (Tarjan, SIAM J. Comput. 1,
    1972): ordered by them, the matrix is block triangular (Duff and
    Reid), so the determinant is the product of the determinants of its
    diagonal blocks, and a diagonal matrix costs the product of its
    entries.  A truncated zero may hide a term, so its row keeps it and
    it stays in its block.  A block of one entry gives that entry itself;
    a larger one forms only the last sum of the final Berkowitz step.  A
    matrix that is one block goes through the recurrence whole, and so
    does one of size 2 x 2, where the recurrence already is the product
    of the blocks.
    """
    if not rows:
        raise ValueError("a 0 x 0 determinant needs the ring's one")
    blocks = [range(len(rows))]
    if len(rows) > 2:
        blocks = _diagonal_blocks(rows)
    return reduce(mul, (_block_determinant(rows, b, zero) for b in blocks))


def _block_determinant(rows, block, zero):
    # the determinant of the diagonal block on the given indices: one
    # entry gives itself, a larger block goes through the recurrence
    if len(block) == 1:
        i = block[0]
        return rows[i].get(i, zero)
    return _berkowitz_determinant([[rows[i].get(j, zero) for j in block] for i in block])


def _berkowitz_determinant(rows):
    r = len(rows) - 1
    e = principal_minor_sums([row[:r] for row in rows[:r]])
    return _next_sum(e, rows[r][r], _border_products(rows, r), r + 1)


def _diagonal_blocks(rows):
    # strongly connected components of the graph with an arc i -> j for
    # every off-diagonal key j of the sparse row i, each a sorted index
    # list, sorted by least index: Tarjan's depth-first search, run on an
    # explicit path of (node, remaining arcs).  A pattern with no arcs is
    # n blocks of one
    arcs = [[j for j in row if j != i] for i, row in enumerate(rows)]
    if not any(arcs):
        return [[i] for i in range(len(rows))]
    order, low, path, open_nodes, blocks = {}, {}, [], [], []
    is_open = set()

    def enter(v):
        order[v] = low[v] = len(order)
        open_nodes.append(v)
        is_open.add(v)
        path.append((v, iter(arcs[v])))

    for root in range(len(rows)):
        if root in order:
            continue
        enter(root)
        while path:
            v, rest = path[-1]
            w = next(rest, None)
            if w is None:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    cut = open_nodes.index(v)
                    blocks.append(sorted(open_nodes[cut:]))
                    is_open.difference_update(open_nodes[cut:])
                    del open_nodes[cut:]
            elif w not in order:
                enter(w)
            elif w in is_open:
                low[v] = min(low[v], order[w])
    return sorted(blocks)


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
