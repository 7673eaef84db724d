"""The one Novikov elimination against the code it replaced.

``novikov.greedy_rank`` is the library's one Novikov elimination.
``_collapse`` reads the section rank and the chosen vectors off one
pass of it, and ``NovikovMatrix.rank_at_precision`` and
``kernel_basis_at_precision`` run on the echelon state it builds.  The
replaced code is kept here as the reference: the dense column-by-column
elimination that rank and kernel used to run, and the prefix loop over
it that the collapse used to run, one rank of every row and one more for
every prefix it tried.  The pass must give the same rank and the same
chosen vectors in the same order, and two mutants of the pass must be
caught.  On seeded exact matrices and on L*D*U matrices of known rank,
rank and free columns must match the dense elimination, and every
kernel vector must annihilate the rows modulo t^P.  Pinned cases from
further into the seeds, where a kernel or a rank read at the bare
precision differs from the count the minor valuations give, are checked
against the minors; the one where the pass's rank is still off is an
expected failure.  On seeded truncated matrices the ranks must match
wherever both answer.  Kernel vectors modulo t^P are not unique, so
they are checked by their properties, not their values.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from mirrorforge import novikov
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cover import coboundary_certificate
from mirrorforge.errors import PrecisionExhaustedError
from mirrorforge.floer_demo import LinearLagrangian, patch_global
from mirrorforge.intlinalg import determinant
from mirrorforge.novikov import (
    NovikovMatrix,
    NovikovScalar,
    _echelon_insert,
    _with_headroom,
    greedy_rank,
)
from mirrorforge.twisted_sheaves import (
    _collapse,
    _edge_monomials,
    _walk_window,
    canonical_twisted_module,
    section_radius,
)

F = Fraction
S = NovikovScalar
CIRCLES = ("elliptic-demo", "split-torus-2")
OFFSETS = (F(0), F(1, 3), F(2, 7))
PRECISIONS = (F(1, 2), F(2), F(7, 2), F(6), F(21, 2))


# -- the replaced code, kept as the reference ---------------------------------


def reference_rref_attempt(rows, precision, working):
    """The dense elimination, one attempt at one working cutoff.

    Forward-eliminates column by column with valuation-minimal pivots,
    trusting data below t**precision only.  Returns (rows, pivots) where
    pivots is a list of (row, col) pairs in column order.  Elimination
    only runs downward, so every factor has nonnegative valuation; the
    result is echelon, not reduced.
    """
    rows = [[x.truncate(working) for x in r] for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(nc):
        best = None
        for i in range(rank, nr):
            x = rows[i][col]
            relevant = [e for e, _ in x.terms if e < precision]
            if relevant:
                v = relevant[0]
                if best is None or v < best[0]:
                    best = (v, i)
            else:
                x.is_zero_at(precision)  # raises if undecidable
        if best is None:
            continue
        _, pr = best
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pivot_row = rows[rank]
        pinv = pivot_row[col].inverse()
        # pivot-row columns with visible terms need the full update;
        # husk columns (no terms, finite cutoff) can only lower the
        # target cutoff, to b.cutoff + val_floor(factor)
        dense = [j for j, b in enumerate(pivot_row) if b.terms]
        husks = [
            (j, b.cutoff)
            for j, b in enumerate(pivot_row)
            if not b.terms and b.cutoff is not None
        ]
        husk_floor = min((c for _, c in husks), default=None)
        for i in range(rank + 1, nr):
            x = rows[i][col]
            if not x.terms:
                continue
            factor = x * pinv
            row = rows[i]
            for j in dense:
                row[j] = (row[j] - factor * pivot_row[j]).truncate(working)
            vf = factor._val_floor()
            if husk_floor is not None and husk_floor + vf < working:
                for j, cb in husks:
                    limit = cb + vf
                    a = row[j]
                    if a.cutoff is None or limit < a.cutoff:
                        row[j] = a.truncate(limit)
        pivots.append((rank, col))
        rank += 1
    return rows, pivots


def reference_kernel_attempt(matrix, precision, working):
    """The dense kernel: (free columns, basis), one vector per free
    column of the dense elimination, back-substituted in reverse pivot
    order and certified against the original rows."""
    rows, pivots = reference_rref_attempt(matrix, precision, working)
    nc = len(matrix[0]) if matrix else 0
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(nc) if c not in pivot_cols]
    exact_zero = S.zero()
    basis = []
    for fc in free:
        values = {fc: S.one()}
        for r, c in reversed(pivots):
            row = rows[r]
            total = exact_zero
            for j, xj in values.items():
                if not row[j].is_exact_zero():
                    total = total + row[j] * xj
            if not total.is_exact_zero():
                values[c] = -(total * row[c].inverse())
        for row in matrix:
            residual = exact_zero
            for j, xj in values.items():
                if not row[j].is_exact_zero():
                    residual = residual + row[j] * xj
            if not residual.is_zero_at(precision):
                raise PrecisionExhaustedError("kernel candidate fails a row")
        basis.append(
            tuple(values.get(c, exact_zero).truncate(precision) for c in range(nc))
        )
    return free, basis


def with_headroom(rows, precision, attempt):
    return _with_headroom(
        lambda: (x for row in rows for x in row), precision, attempt
    )


def reference_rank(rows, precision):
    """rank_at_precision as it was: the pivot count of the dense
    elimination, through the headroom ladder."""
    return with_headroom(
        rows,
        precision,
        lambda p, working: len(reference_rref_attempt(rows, p, working)[1]),
    )


def reference_kernel(rows, precision):
    """kernel_basis_at_precision as it was."""
    return with_headroom(
        rows,
        precision,
        lambda p, working: reference_kernel_attempt(rows, p, working),
    )


def reference_scalar(pairs):
    total = S.zero()
    for lam, c in pairs:
        total = total + S.monomial(c, lam)
    return total


def reference_greedy(rows, precision, choose=True):
    """(rank, chosen indices): one rank of every row, then one rank for
    every prefix of the chosen rows plus the next row, until rank rows
    are chosen."""
    total = reference_rank(rows, precision)
    chosen = []
    for index, row in enumerate(rows if choose else ()):
        if len(chosen) == total:
            break
        trial = [rows[i] for i in chosen] + [row]
        if reference_rank(trial, precision) > len(chosen):
            chosen.append(index)
    return total, chosen


def reference_collapse(basis, precision):
    grouped = []
    for vector in basis:
        slots = {}
        for (source, lam), c in vector.items():
            slots.setdefault(source, []).append((lam, c))
        grouped.append(
            {source: reference_scalar(pairs) for source, pairs in slots.items()}
        )
    support = sorted({source for g in grouped for source in g})
    if not grouped or not support:
        return 0, []
    rows = [[g.get(source, S.zero()) for source in support] for g in grouped]
    total, chosen = reference_greedy(rows, precision)
    return total, [grouped[i] for i in chosen]


def assert_collapses_agree(module, radius, precision):
    """One _walk_window: at the working precision the rank and the
    chosen vectors, in order, and at every integer precision the rank of
    the chosen vectors, which is all global_sections reads there."""
    ground = _walk_window(module, _edge_monomials(module), radius, precision)
    rank, chosen = _collapse(ground, precision)
    assert (rank, chosen) == reference_collapse(ground, precision)
    support = sorted({source for g in chosen for source in g})
    rows = [[g.get(source, S.zero()) for source in support] for g in chosen]
    for p in range(1, int(precision) + 1):
        got = greedy_rank(chosen, F(p), choose=False)
        assert got == (reference_greedy(rows, F(p), choose=False)[0], []), p


# -- section systems ----------------------------------------------------------


@pytest.mark.parametrize("name", CIRCLES)
@pytest.mark.parametrize("slope", [k for k in range(-12, 13) if k])
def test_line_modules_collapse_as_the_prefix_loop(name, slope):
    fibration = load_catalog(name)
    for offset in OFFSETS:
        module = patch_global(LinearLagrangian(slope, offset), fibration)
        for precision in PRECISIONS:
            assert_collapses_agree(
                module, section_radius(module, precision), precision
            )


def trivial_catalogs():
    return [
        name
        for name in catalog_ids()
        if coboundary_certificate(load_catalog(name).obstruction_cocycle())
        is not None
    ]


def test_four_catalogs_are_trivial():
    assert len(trivial_catalogs()) == 4


@pytest.mark.parametrize("name", trivial_catalogs())
def test_canonical_modules_collapse_as_the_prefix_loop(name):
    module = canonical_twisted_module(load_catalog(name))
    for precision in (F(1, 2), F(4), F(9, 2)):
        for radius in (0, 1):
            assert_collapses_agree(module, radius, precision)


# -- seeded Novikov rows ------------------------------------------------------


def t(*terms):
    return S([(F(e), c) for e, c in terms])


# (rows, precision, working cutoff, (rank, chosen)).  In the first,
# (t, t^2) and (1, 0) each add nothing to (t^2, 0) alone, while all three
# have rank 2.  In the second, (t^2, 0) has no entry below the precision,
# but once (t, 1) holds the first column it reduces to (0, -t): the row
# is kept aside and goes round again when that pivot appears.  Terms at
# or past the working cutoff are not read, so this needs headroom.
PINNED = [
    (
        [(t((2, 1)), S.zero()), (t((1, 1)), t((2, 1))), (t((0, 1)), S.zero())],
        F(3),
        F(3),
        (2, [0]),
    ),
    ([(t((2, 1)), S.zero()), (t((1, 1)), t((0, 1)))], F(2), F(6), (2, [1])),
]


def random_scalar(rng):
    if rng.random() < 0.45:
        return S.zero()
    return S(
        [
            (F(rng.randint(0, 7), 2), rng.choice((-2, -1, 1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
    )


def random_rows(rng):
    """Sparse exact rows with terms on both sides of the precision, and
    rows that repeat another at a higher valuation plus a third, so that
    rows swap into occupied pivot columns."""
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 5)
    rows = [[random_scalar(rng) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        shift = t((rng.randint(0, 2), 1))
        rows.insert(a, [x * shift + y for x, y in zip(rows[a], rows[b])])
    return rows


def random_cases():
    rng = random.Random(4093)
    return [
        (random_rows(rng), rng.choice((F(1), F(3, 2), F(2), F(3))))
        for _ in range(200)
    ]


def reference_greedy_at(rows, precision, working):
    """The prefix loop with every rank taken by the dense elimination at
    one working cutoff."""

    def rank(selected):
        return len(reference_rref_attempt(selected, precision, working)[1])

    total = rank(rows)
    chosen = []
    for index, row in enumerate(rows):
        if len(chosen) == total:
            break
        if rank([rows[i] for i in chosen] + [row]) > len(chosen):
            chosen.append(index)
    return total, chosen


def pass_at(rows, precision, working, choose=True):
    """(rank, chosen) from one attempt of the library's pass at one
    working cutoff."""
    slots, chosen = novikov._greedy_pass(
        [enumerate(row) for row in rows], precision, working, choose
    )
    return len(slots), chosen


def outcome(call):
    try:
        return call()
    except PrecisionExhaustedError:
        return None


def assert_greedy_agrees(cases):
    """The pass against the prefix loop at the same working cutoff: 4
    above the precision, where both must succeed, and at the precision
    itself, where either may run out of headroom.  Returns how many
    cases both finished at the precision itself.

    The headroom ladder tries the bare precision first and reads terms
    only below the cutoff of the attempt that succeeds, so its prefix
    loop can mix ranks taken at different cutoffs; a fixed cutoff
    compares like with like (see CHANGES.md)."""
    finished = 0
    for rows, precision in cases:
        working = precision + 4
        assert pass_at(rows, precision, working) == (
            reference_greedy_at(rows, precision, working)
        ), (rows, precision, working)
        got = outcome(lambda: pass_at(rows, precision, precision))
        want = outcome(lambda: reference_greedy_at(rows, precision, precision))
        if got is not None and want is not None:
            assert got == want, (rows, precision)
            finished += 1
    return finished


def test_pinned_rows_keep_the_rank_above_the_chosen_count():
    for rows, precision, working, expected in PINNED:
        assert reference_greedy_at(rows, precision, working) == expected
        assert pass_at(rows, precision, working) == expected
        assert pass_at(rows, precision, working, False) == (expected[0], [])
    rows, precision, _, expected = PINNED[0]
    assert reference_greedy(rows, precision) == expected
    sparse = [dict(enumerate(row)) for row in rows]
    assert greedy_rank(sparse, precision) == expected


def test_seeded_rows_match_the_prefix_loop():
    cases = random_cases()
    assert assert_greedy_agrees(cases) >= len(cases) * 9 // 10


# -- mutants ------------------------------------------------------------------


def sparse_rows(rows, working):
    for pairs in rows:
        row = {}
        for j, x in pairs:
            if not x.is_exact_zero():
                x = x.truncate(working)
                if x.terms or x.cutoff < working:
                    row[j] = x
        yield row


def attempt_without_trial(rows, precision, working, choose):
    # mutant: a row that does not join the chosen rows still changes
    # their state
    every, spare, chosen_slots, chosen_spare, chosen = {}, [], {}, [], []
    for index, row in enumerate(sparse_rows(rows, working)):
        if row:
            _echelon_insert(every, spare, row, precision, working)
            before = len(chosen_slots)
            _echelon_insert(chosen_slots, chosen_spare, row, precision, working)
            if len(chosen_slots) > before:
                chosen.append(index)
    return every, chosen[: len(every)]


def attempt_on_chosen_rows_only(rows, precision, working, choose):
    # mutant: the rank is the pivot count of the chosen rows
    chosen_slots, chosen = {}, []
    for index, row in enumerate(sparse_rows(rows, working)):
        if row:
            trial = dict(chosen_slots)
            _echelon_insert(trial, [], row, precision, working)
            if len(trial) > len(chosen_slots):
                chosen_slots = trial
                chosen.append(index)
    return chosen_slots, chosen


@pytest.mark.parametrize(
    "mutant, seen_in_random_rows",
    [(attempt_without_trial, True), (attempt_on_chosen_rows_only, False)],
)
def test_each_mutant_fails_the_comparison(mutant, seen_in_random_rows, monkeypatch):
    # counting only the chosen rows shows only where the rank exceeds
    # the chosen count, as on the first pinned rows
    monkeypatch.setattr(novikov, "_greedy_pass", mutant)
    with pytest.raises(AssertionError):
        test_pinned_rows_keep_the_rank_above_the_chosen_count()
    if seen_in_random_rows:
        with pytest.raises(AssertionError):
            assert_greedy_agrees(random_cases())


# -- rank and kernel against the dense elimination ----------------------------


def random_entry(rng):
    if rng.random() < 0.4:
        return S.zero()
    return S(
        [
            (F(rng.randint(0, 10), 2), rng.choice((-2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 3))
        ]
    )


def random_matrix(rng):
    """An exact matrix of size 2-5 x 2-5, half the time with one row
    replaced by another shifted by a power of t plus a third, so that
    ranks drop below the size."""
    n_rows, n_cols = rng.randint(2, 5), rng.randint(2, 5)
    rows = [[random_entry(rng) for _ in range(n_cols)] for _ in range(n_rows)]
    if rng.random() < 0.5:
        a, b = rng.randrange(n_rows), rng.randrange(n_rows)
        shift = t((F(rng.randint(0, 4), 2), 1))
        rows[rng.randrange(n_rows)] = [x * shift + y for x, y in zip(rows[a], rows[b])]
    return rows, F(rng.randint(1, 10), 2)


def truncated(rng, rows, precision):
    """Half the entries, zeros too, known only below a cutoff from 1/2
    below the precision to 4 above it, the others left exact."""
    return [
        [
            x if rng.random() < 0.5 else x.truncate(precision + F(rng.randint(-1, 8), 2))
            for x in row
        ]
        for row in rows
    ]


def exact_cases():
    rng = random.Random(7411)
    return [random_matrix(rng) for _ in range(300)]


def truncated_cases():
    rng = random.Random(7412)
    cases = []
    for _ in range(300):
        rows, precision = random_matrix(rng)
        cases.append((truncated(rng, rows, precision), precision))
    return cases


def ldu(rng, n, rank):
    """L*D*U with L unit lower- and U unit upper-triangular, their
    entries of degree at most 1 in t, and D diagonal with rank nonzero
    monomials of degree at most 1: a matrix of rank rank whose nonzero
    minors all have valuation below 3n + 1."""
    one, zero = S.one(), S.zero()

    def entry():
        return S(
            [
                (F(rng.randint(0, 2), 2), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(1, 2))
            ]
        )

    def triangle(below):
        return NovikovMatrix(
            [
                [one if i == j else entry() if (i > j) == below else zero for j in range(n)]
                for i in range(n)
            ]
        )

    diag = NovikovMatrix(
        [
            [
                t((F(rng.randint(0, 2), 2), rng.choice((-2, -1, 1, 3))))
                if i == j < rank
                else zero
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    return [list(row) for row in (triangle(True) * diag * triangle(False)).rows]


def annihilates(rows, vector, precision):
    return all(
        sum((x * y for x, y in zip(row, vector)), S.zero()).is_zero_at(precision)
        for row in rows
    )


def assert_kernel_shape(rows, precision, basis, free):
    """One vector per free column, 1 there and 0 at the other free
    columns, each annihilating every row modulo t^precision."""
    assert len(basis) == len(free)
    for vector, column in zip(basis, free):
        assert [vector[c].terms for c in free] == [
            ((0, 1),) if c == column else () for c in free
        ]
        assert annihilates(rows, vector, precision)


def assert_rank_and_kernel_match(rows, precision):
    """Equal ranks, and a kernel basis on the free columns of the dense
    kernel.  Each ladder settles on its own working cutoff, and a rank
    read at a shallower one can differ from the pivot count under the
    kernel, so the free columns come from the kernel."""
    matrix = NovikovMatrix(rows)
    rank = matrix.rank_at_precision(precision)
    assert rank == reference_rank(rows, precision), (rows, precision)
    free, basis = reference_kernel(rows, precision)
    assert_kernel_shape(rows, precision, basis, free)
    assert_kernel_shape(rows, precision, matrix.kernel_basis_at_precision(precision), free)
    return rank


def minor_rank(rows, precision):
    """The number of invariant factors below the precision: with d_k the
    least valuation of a k x k minor, the factors are d_k - d_(k-1)."""
    least = [0]
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        valuations = [
            det.terms[0][0]
            for chosen in combinations(range(len(rows)), k)
            for columns in combinations(range(len(rows[0])), k)
            if (det := determinant([[rows[i][j] for j in columns] for i in chosen])).terms
        ]
        if not valuations:
            break
        least.append(min(valuations))
    return sum(1 for k in range(1, len(least)) if least[k] - least[k - 1] < precision)


def seeded_case(seed, index, truncate=False):
    """Case index of the seeded matrices, drawn as exact_cases and
    truncated_cases draw theirs."""
    rng = random.Random(seed)
    for _ in range(index + 1):
        rows, precision = random_matrix(rng)
        if truncate:
            rows = truncated(rng, rows, precision)
    return rows, precision


def free_columns(basis):
    """The column of each kernel vector that holds 1 where every other
    vector holds 0."""
    free = []
    for vector in basis:
        others = [other for other in basis if other is not vector]
        free.append(
            next(
                c
                for c, x in enumerate(vector)
                if x.terms == ((0, 1),) and all(not other[c].terms for other in others)
            )
        )
    return free


def test_seeded_exact_matrices_match_the_dense_elimination():
    for rows, precision in exact_cases():
        assert_rank_and_kernel_match(rows, precision)


# Exact cases, drawn far past the first 300 of a seed, where a kernel
# read at the bare precision counts one pivot more than the minors give:
# the term that ties two rows together lies at the precision, where that
# attempt does not read it.  The kernel keeps such entries as husks, so
# the attempt raises and the ladder reads deeper.  In the first five the
# dense kernel's certificate failed there and its ladder read deeper
# too; in the last six it answered at the bare precision, one vector
# short.
KERNEL_CASES = [
    (7411, 167),
    (14, 89),
    (14, 853),
    (15, 436),
    (15, 890),
    (7411, 365),
    (7411, 415),
    (13, 876),
    (14, 35),
    (15, 163),
    (15, 819),
]


@pytest.mark.parametrize("seed, index", KERNEL_CASES)
def test_kernel_dimension_matches_the_minors(seed, index):
    rows, precision = seeded_case(seed, index)
    basis = NovikovMatrix(rows).kernel_basis_at_precision(precision)
    assert len(basis) == len(rows[0]) - minor_rank(rows, precision)
    assert_kernel_shape(rows, precision, basis, free_columns(basis))


# The cases where the rank of the pass and of the dense elimination
# differ: an exact one and a truncated one where the pass gives the
# minors' count, and an exact one where the dense elimination does.
@pytest.mark.parametrize("seed, index, truncate", [(15, 48, False), (7412, 522, True)])
def test_rank_where_the_eliminations_differ_matches_the_minors(seed, index, truncate):
    rows, precision = seeded_case(seed, index, truncate)
    rank = NovikovMatrix(rows).rank_at_precision(precision)
    assert rank == minor_rank(rows, precision) != reference_rank(rows, precision)


@pytest.mark.xfail(
    strict=True,
    reason="column-by-column pivots read one more than the invariant factors "
    "here; full pivoting over the valuation ring (ROADMAP item 2) settles it",
)
def test_rank_past_the_minors_on_one_exact_case():
    rows, precision = seeded_case(15, 890)
    assert reference_rank(rows, precision) == minor_rank(rows, precision)
    assert NovikovMatrix(rows).rank_at_precision(precision) == minor_rank(rows, precision)


@pytest.mark.parametrize("n", range(2, 8))
def test_ldu_matrices_match_the_dense_elimination(n):
    rng = random.Random(7413 + n)
    for rank in sorted({n - 1, max(1, n - 2)}):
        for _ in range(3):
            rows = ldu(rng, n, rank)
            assert assert_rank_and_kernel_match(rows, F(3 * n + 1)) == rank


def test_truncated_ranks_match_wherever_both_answer():
    answered = 0
    for rows, precision in truncated_cases():
        got = outcome(lambda: NovikovMatrix(rows).rank_at_precision(precision))
        want = outcome(lambda: reference_rank(rows, precision))
        if got is not None and want is not None:
            assert got == want, (rows, precision)
            answered += 1
    # most cases must compare, or the test shows nothing
    assert answered >= 150


def test_kernel_vectors_are_checked_by_their_properties():
    # modulo t^4 the dense elimination gives (t^(7/2), 1, 0, 0) for the
    # free column 1 and the pass gives (0, 1, 0, 0): both annihilate
    rows = [
        [S.zero(), S.zero(), S.zero(), t((F(5, 2), -2))],
        [
            t((F(1, 2), 2), (F(3, 2), 3), (F(5, 2), 3)),
            t((4, -2)),
            S.zero(),
            t((0, 2), (F(3, 2), 2)),
        ],
    ]
    precision = F(4)
    assert reference_kernel(rows, precision)[0] == [1, 2]
    assert assert_rank_and_kernel_match(rows, precision) == 2
