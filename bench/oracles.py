"""Answers the benchmark knows without asking mirrorforge.

Nothing here imports the library.  A series is a tuple of
``(exponent, coefficient)`` pairs of Fractions, sorted by exponent, with
no zero coefficients; that is also how ``NovikovScalar.terms`` reads, so
the two compare with ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

HALF = Fraction(1, 2)


def series(pairs):
    """Normalise (exponent, coefficient) pairs: merge, drop zeros, sort."""
    merged = {}
    for exp, coeff in pairs:
        merged[exp] = merged.get(exp, 0) + coeff
    return tuple((e, Fraction(c)) for e, c in sorted(merged.items()) if c)


def add(a, b):
    return series(a + b)


def mul(a, b, below=None):
    """Product, keeping only exponents under ``below`` when it is given."""
    return series(
        (ea + eb, ca * cb)
        for ea, ca in a
        for eb, cb in b
        if below is None or ea + eb < below
    )


def inverse(terms, cutoff):
    """Inverse of a series known below t^cutoff, as (terms, cutoff).

    With x = c t^v (1 + u), val(u) > 0, the inverse is t^-v / c times the
    geometric series of -u, and it is known below t^(cutoff - 2v).
    """
    v, c = terms[0]
    known = cutoff - v
    u = tuple((e - v, x / c) for e, x in terms[1:])
    minus_u = tuple((e, -x) for e, x in u)
    total, power = ((Fraction(0), Fraction(1)),), ((Fraction(0), Fraction(1)),)
    while power:
        power = mul(power, minus_u, below=known)
        total = add(total, power)
    inv = tuple((e - v, x / c) for e, x in total)
    return inv, cutoff - 2 * v


def random_series(rng, low, high, count):
    """Up to ``count`` terms at steps of 1/2 in [low, high]."""
    slots = int((high - low) / HALF)
    return series(
        (low + HALF * rng.randint(0, slots), Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
        for _ in range(count)
    )


def ldu(rng, n, rank):
    """An n x n matrix L·D·U with known rank and determinant.

    L is unit lower-triangular and U unit upper-triangular, with entries
    of degree at most 1 in t; D is diagonal with ``rank`` nonzero
    monomials of degree at most 1.  So the rank is ``rank`` and the
    determinant is the product of D's entries.  Every entry of the
    product has degree at most 3, so every nonzero minor has valuation
    below 3n + 1.
    """
    one = ((Fraction(0), Fraction(1)),)

    def entry():
        return random_series(rng, Fraction(0), Fraction(1), rng.randint(1, 2))

    lower = [[one if i == j else entry() if i > j else () for j in range(n)] for i in range(n)]
    upper = [[one if i == j else entry() if i < j else () for j in range(n)] for i in range(n)]
    diag = [
        ((HALF * rng.randint(0, 2), Fraction(rng.choice((-2, -1, 1, 3)))),) if i < rank else ()
        for i in range(n)
    ]
    rows = tuple(
        tuple(
            series(
                pair
                for k in range(n)
                for pair in mul(mul(lower[i][k], diag[k]), upper[k][j])
            )
            for j in range(n)
        )
        for i in range(n)
    )
    det = one
    for d in diag:
        det = mul(det, d)
    return rows, det


def annihilates(rows, vector, precision):
    """Does rows · vector vanish below t^precision?

    The vector's entries are known below t^precision and the rows have
    no negative exponents, so the product is known there too.
    """
    for row in rows:
        total = ()
        for entry, x in zip(row, vector):
            total = add(total, mul(entry, x, below=precision))
        if total:
            return False
    return True


def evaluate(terms, root):
    """Value at t = root**2 of a series whose exponents are multiples of 1/2."""
    return sum(c * root ** int(2 * e) for e, c in terms)


def rank_and_det(matrix):
    """Rank and determinant of a square Fraction matrix by elimination."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    rank, det = 0, Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        det *= rows[rank][col]
        for i in range(rank + 1, n):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank, det


def int_det(matrix):
    """Determinant of a small integer matrix by cofactors."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** j * matrix[0][j] * int_det([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j in range(len(matrix))
    )


def pairs_on_chains(faces):
    """Nested pairs (low, top) that occur in some chain low < mid < top.

    Faces are sorted tuples closed under taking subsets.  Scaling one
    restriction of a rank-1 module by t changes exactly one factor of the
    cocycle identity on each chain through that pair, so the module must
    be rejected exactly when the pair is listed here.  Covers whose faces
    have at most two charts (circle covers) have no chains at all.
    """
    out = set()
    for top in faces:
        for size in range(2, len(top)):
            for mid in combinations(top, size):
                for low_size in range(1, size):
                    for low in combinations(mid, low_size):
                        out.update(((mid, top), (low, mid), (low, top)))
    return out
