"""The one-pass collapse against the greedy prefix loop it replaced.

``_collapse`` counts section directions as the rank, at a precision, of
the grouped ground kernel vectors over the series field, and picks the
vectors that raise the rank of the ones picked before them.  It used to
take one ``NovikovMatrix.rank_at_precision`` for the rank and one more
for every prefix it tried, at the working precision and again at every
lower integer precision.  ``NovikovMatrix.greedy_rank_at_precision``
reads the rank and the chosen rows off one echelon pass.  The prefix
loop is kept here as the reference: the pass must give the same rank and
the same chosen vectors in the same order, and two mutants of the pass
must be caught.
"""

import random
from fractions import Fraction

import pytest

from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cover import coboundary_certificate
from mirrorforge.errors import PrecisionExhaustedError
from mirrorforge.floer_demo import LinearLagrangian, patch_global
from mirrorforge.novikov import NovikovMatrix, NovikovScalar, _echelon_insert
from mirrorforge.twisted_sheaves import (
    _collapse,
    _solve_window,
    canonical_twisted_module,
    section_radius,
)

F = Fraction
S = NovikovScalar
CIRCLES = ("elliptic-demo", "split-torus-2")
OFFSETS = (F(0), F(1, 3), F(2, 7))
PRECISIONS = (F(1, 2), F(2), F(7, 2), F(6), F(21, 2))


# -- the replaced code, kept as the reference ---------------------------------


def reference_scalar(pairs):
    total = S.zero()
    for lam, c in pairs:
        total = total + S.monomial(c, lam)
    return total


def reference_greedy(rows, precision, choose=True):
    """(rank, chosen indices): one rank of every row, then one rank for
    every prefix of the chosen rows plus the next row, until rank rows
    are chosen."""
    total = NovikovMatrix(rows).rank_at_precision(precision)
    chosen = []
    for index, row in enumerate(rows if choose else ()):
        if len(chosen) == total:
            break
        trial = [rows[i] for i in chosen] + [row]
        if NovikovMatrix(trial).rank_at_precision(precision) > len(chosen):
            chosen.append(index)
    return total, chosen


def reference_collapse(basis, precision, choose=True):
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
    total, chosen = reference_greedy(rows, precision, choose)
    return total, [grouped[i] for i in chosen]


def assert_collapses_agree(module, radius, precision):
    """One _solve_window: at every integer precision below the working
    one the rank, which is all global_sections reads there, and at the
    working precision the rank and the chosen vectors, in order."""
    *lower, ground = _solve_window(module, radius, precision)
    for p, basis in enumerate(lower, 1):
        if p == precision:
            continue
        got = _collapse(basis, F(p), choose=False)
        assert got == (reference_collapse(basis, F(p), choose=False)[0], []), p
    assert _collapse(ground, precision) == reference_collapse(ground, precision)


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
    """The prefix loop with every rank taken by the column elimination of
    rank_at_precision at one working cutoff."""

    def rank(selected):
        return len(NovikovMatrix(selected)._rref_attempt(precision, working)[1])

    total = rank(rows)
    chosen = []
    for index, row in enumerate(rows):
        if len(chosen) == total:
            break
        if rank([rows[i] for i in chosen] + [row]) > len(chosen):
            chosen.append(index)
    return total, chosen


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

    The ladder of rank_at_precision tries the bare precision first and
    reads terms only below the cutoff of the attempt that succeeds, so
    its prefix loop can mix ranks taken at different cutoffs; a fixed
    cutoff compares like with like (see CHANGES.md)."""
    finished = 0
    for rows, precision in cases:
        matrix = NovikovMatrix(rows)
        working = precision + 4
        assert matrix._greedy_attempt(precision, working, True) == (
            reference_greedy_at(rows, precision, working)
        ), (rows, precision, working)
        got = outcome(lambda: matrix._greedy_attempt(precision, precision, True))
        want = outcome(lambda: reference_greedy_at(rows, precision, precision))
        if got is not None and want is not None:
            assert got == want, (rows, precision)
            finished += 1
    return finished


def test_pinned_rows_keep_the_rank_above_the_chosen_count():
    for rows, precision, working, expected in PINNED:
        assert reference_greedy_at(rows, precision, working) == expected
        matrix = NovikovMatrix(rows)
        assert matrix._greedy_attempt(precision, working, True) == expected
        assert matrix._greedy_attempt(precision, working, False) == (
            expected[0],
            [],
        )
    rows, precision, _, expected = PINNED[0]
    assert reference_greedy(rows, precision) == expected
    assert NovikovMatrix(rows).greedy_rank_at_precision(precision) == expected


def test_seeded_rows_match_the_prefix_loop():
    cases = random_cases()
    assert assert_greedy_agrees(cases) >= len(cases) * 9 // 10


# -- mutants ------------------------------------------------------------------


def sparse_rows(matrix, working):
    for dense in matrix.rows:
        row = {}
        for j, x in enumerate(dense):
            if not x.is_exact_zero():
                x = x.truncate(working)
                if x.terms or x.cutoff < working:
                    row[j] = x
        yield row


def attempt_without_trial(self, precision, working, choose):
    # mutant: a row that does not join the chosen rows still changes
    # their state
    every, spare, chosen_slots, chosen_spare, chosen = {}, [], {}, [], []
    for index, row in enumerate(sparse_rows(self, working)):
        if row:
            _echelon_insert(every, spare, row, precision, working)
            before = len(chosen_slots)
            _echelon_insert(chosen_slots, chosen_spare, row, precision, working)
            if len(chosen_slots) > before:
                chosen.append(index)
    return len(every), chosen[: len(every)]


def attempt_on_chosen_rows_only(self, precision, working, choose):
    # mutant: the rank is the pivot count of the chosen rows
    chosen_slots, chosen = {}, []
    for index, row in enumerate(sparse_rows(self, working)):
        if row:
            trial = dict(chosen_slots)
            _echelon_insert(trial, [], row, precision, working)
            if len(trial) > len(chosen_slots):
                chosen_slots = trial
                chosen.append(index)
    return len(chosen_slots), chosen


@pytest.mark.parametrize(
    "mutant, seen_in_random_rows",
    [(attempt_without_trial, True), (attempt_on_chosen_rows_only, False)],
)
def test_each_mutant_fails_the_comparison(mutant, seen_in_random_rows, monkeypatch):
    # counting only the chosen rows shows only where the rank exceeds
    # the chosen count, as on the first pinned rows
    monkeypatch.setattr(NovikovMatrix, "_greedy_attempt", mutant)
    with pytest.raises(AssertionError):
        test_pinned_rows_keep_the_rank_above_the_chosen_count()
    if seen_in_random_rows:
        with pytest.raises(AssertionError):
            assert_greedy_agrees(random_cases())
