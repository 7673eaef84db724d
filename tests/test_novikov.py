import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mirrorforge import INF, NovikovMatrix, NovikovScalar, PrecisionExhaustedError, novikov

F = Fraction
S = NovikovScalar


def scalar(*terms, cutoff=None):
    return S(tuple((F(e), F(c)) for e, c in terms), cutoff)


def random_scalar(rng, allow_cutoff=True):
    n = rng.randrange(0, 4)
    terms = []
    for _ in range(n):
        exp = F(rng.randrange(-6, 13), rng.randrange(1, 5))
        coeff = F(rng.choice([x for x in range(-5, 6) if x]))
        terms.append((exp, coeff))
    cutoff = None
    if allow_cutoff and rng.random() < 0.5:
        cutoff = F(rng.randrange(4, 12))
    return S(terms, cutoff)


class TestValuation:
    def test_basic(self):
        x = scalar((F(1, 2), 3), (2, 1))
        assert x.valuation() == F(1, 2)

    def test_exact_zero_is_infinite(self):
        assert S.zero().valuation() == INF

    def test_negative_exponent(self):
        assert scalar((-3, 1), (0, 5)).valuation() == -3

    def test_truncated_zero_raises(self):
        with pytest.raises(PrecisionExhaustedError):
            S.zero(cutoff=10).valuation()


class TestConstruction:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            S.monomial(0.5, 1)
        with pytest.raises(TypeError):
            S(((0.5, 1),))
        with pytest.raises(TypeError):
            S(((1, 2),), cutoff=3.5)

    def test_merging_and_zero_drop(self):
        x = S(((F(1), F(2)), (F(1), F(-2)), (F(0), F(3))))
        assert x.terms == ((F(0), F(3)),)

    def test_terms_beyond_cutoff_dropped(self):
        x = scalar((1, 1), (5, 7), cutoff=3)
        assert x.terms == ((F(1), F(1)),)


class TestArithmetic:
    def test_add_cutoff_is_min(self):
        a = scalar((0, 1), cutoff=5)
        b = scalar((1, 1), cutoff=3)
        assert (a + b).cutoff == 3

    def test_mul_cutoff_with_negative_valuation(self):
        # x = t^-3 + O(t^5); x*x is only known mod t^2, not mod t^5.
        x = scalar((-3, 1), cutoff=5)
        sq = x * x
        assert sq.cutoff == 2
        assert sq.terms == ((F(-6), F(1)),)

    def test_mul_cutoff_can_exceed_operand_cutoffs(self):
        a = scalar((2, 1), cutoff=5)
        b = scalar((3, 1), cutoff=7)
        assert (a * b).cutoff == 8

    def test_product_of_truncated_zeros(self):
        a = S.zero(cutoff=3)
        b = S.zero(cutoff=4)
        assert (a * b).cutoff == 7

    def test_int_coercion(self):
        x = scalar((1, 1))
        assert (2 * x + 1 - x) == scalar((0, 1), (1, 1))
        assert (x / 2) == scalar((1, F(1, 2)))

    def test_pow(self):
        x = scalar((0, 1), (1, 1), cutoff=4)
        cube = x ** 3
        assert cube == scalar((0, 1), (1, 3), (2, 3), (3, 1), cutoff=4)


class TestInverse:
    def test_exact_monomial(self):
        assert S.monomial(1, 2).inverse() == S.monomial(1, -2)
        assert S.from_rational(2).inverse() == S.from_rational(F(1, 2))

    def test_geometric_series(self):
        x = scalar((0, 1), (1, 1), cutoff=5)
        assert x.inverse() == scalar((0, 1), (1, -1), (2, 1), (3, -1), (4, 1), cutoff=5)

    def test_cutoff_shrinks_by_twice_valuation(self):
        x = scalar((1, 1), (2, 1), cutoff=5)
        inv = x.inverse()
        assert inv.cutoff == 3
        assert inv == scalar((-1, 1), (0, -1), (1, 1), (2, -1), cutoff=3)

    def test_exact_multiterm_refused(self):
        with pytest.raises(PrecisionExhaustedError):
            scalar((0, 1), (1, 1)).inverse()

    def test_exact_zero_divides(self):
        with pytest.raises(ZeroDivisionError):
            S.zero().inverse()

    def test_truncated_zero_refused(self):
        with pytest.raises(PrecisionExhaustedError):
            S.zero(cutoff=2).inverse()

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            x = random_scalar(rng)
            if not x.terms:
                continue
            if x.cutoff is None:
                x = x.truncate(x.valuation() + 6)
            prod = x * x.inverse()
            assert prod.agrees_with(S.one())


class TestFieldAxioms:
    def test_random_triples(self):
        rng = random.Random(11)
        one, zero = S.one(), S.zero()
        for _ in range(200):
            a = random_scalar(rng)
            b = random_scalar(rng)
            c = random_scalar(rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + zero == a
            assert (a * one).agrees_with(a)
            assert (a + (-a)).agrees_with(zero)
            # Distributivity can only be checked at the shared precision:
            # cancellations inside b+c legitimately sharpen the left side.
            assert (a * (b + c)).agrees_with(a * b + a * c)


class TestTextForm:
    def test_spec_shape(self):
        x = scalar((F(1, 2), 3), (2, 1), cutoff=10)
        assert str(x) == "3*t^(1/2) + t^2 (mod t^(10))"

    def test_exact_has_no_mod(self):
        assert str(scalar((0, 1), (1, -1))) == "1 - t"

    def test_zero_forms(self):
        assert str(S.zero()) == "0"
        assert str(S.zero(cutoff=10)) == "0 (mod t^(10))"

    def test_elisions(self):
        assert str(scalar((1, 1))) == "t"
        assert str(scalar((1, -1))) == "-t"
        assert str(scalar((-3, 1))) == "t^(-3)"
        assert str(scalar((2, F(1, 2)))) == "1/2*t^2"
        assert str(scalar((0, F(-2, 3)))) == "-2/3"

    def test_terms_print_by_increasing_exponent(self):
        x = scalar((F(3, 2), F(-1, 3)), (0, 2), (F(-1, 2), 1), cutoff=F(5, 2))
        assert str(x) == "t^(-1/2) + 2 - 1/3*t^(3/2) (mod t^(5/2))"
        assert str(scalar((1, 2), (1, -2))) == "0"
        assert str(scalar((1, 2), cutoff=1)) == "0 (mod t^(1))"
        assert str(S.zero(cutoff=F(-3, 2))) == "0 (mod t^(-3/2))"

    def test_distinct_scalars_print_distinct_text(self):
        rng = random.Random(23)
        xs = [random_scalar(rng) for _ in range(300)]
        xs += [S.zero(), S.zero(cutoff=F(-3, 2)), scalar((0, 1)), scalar((0, 1), cutoff=4)]
        for x in xs:
            for y in xs:
                assert (str(x) == str(y)) == (x == y), (x, y)


class TestMatrix:
    def test_rank_drop(self):
        m = NovikovMatrix(
            [
                [S.monomial(1, 1), S.monomial(1, 2)],
                [S.monomial(1, 2), S.monomial(1, 3)],
            ]
        )
        assert m.rank_at_precision(10) == 1

    def test_rank_full(self):
        one = S.one()
        m = NovikovMatrix([[one, one], [one, one + S.monomial(1, 1)]])
        assert m.rank_at_precision(10) == 2

    def test_rank_needs_enough_precision(self):
        one = S.one()
        nearly = one + S.monomial(1, 1).truncate(F(1, 2))
        m = NovikovMatrix([[one, one], [one, nearly]])
        with pytest.raises(PrecisionExhaustedError):
            m.rank_at_precision(10)

    def test_kernel_annihilates(self):
        m = NovikovMatrix(
            [
                [S.monomial(1, 1), S.monomial(1, 2)],
                [S.monomial(1, 2), S.monomial(1, 3)],
            ]
        )
        basis = m.kernel_basis_at_precision(10)
        assert len(basis) == 1
        vec = basis[0]
        for row in m._rows:
            image = sum((a * b for a, b in zip(row, vec)), S.zero())
            assert image.is_zero_at(8)

    def test_determinant(self):
        one = S.one()
        m = NovikovMatrix([[one, one], [one, one + S.monomial(1, 1)]])
        assert m.determinant() == S.monomial(1, 1)

    def test_product_and_identity(self):
        m = NovikovMatrix([[S.monomial(2, 1), S.one()], [S.zero(), S.one()]])
        identity = NovikovMatrix([[S.one(), S.zero()], [S.zero(), S.one()]])
        assert m * identity == m

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            NovikovMatrix([[S.one()], [S.one(), S.zero()]])


# -- the int-keyed exponent kernel against the Fraction-keyed one it replaced --

DENOMINATORS = (1, 2, 3, 4, 5, 7, 12)


def reference_collect(pairs, cutoff):
    """The normal form as it stood: Fraction exponents hashed into a
    dict, sorted, and compared with the cutoff one by one."""
    merged = {}
    for e, c in pairs:
        if e in merged:
            merged[e] += c
        else:
            merged[e] = c
    return tuple(
        (e, c)
        for e, c in sorted(merged.items())
        if c and (cutoff is None or e < cutoff)
    )


def reference_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def reference_scalar(pairs, cutoff=None):
    cutoff = None if cutoff is None else F(cutoff)
    return reference_collect([(F(e), F(c)) for e, c in pairs], cutoff), cutoff


def reference_add(x, y):
    cutoff = reference_min(x[1], y[1])
    return reference_collect(x[0] + y[0], cutoff), cutoff


def reference_neg(x):
    return tuple((e, -c) for e, c in x[0]), x[1]


def reference_floor(x):
    terms, cutoff = x
    if terms:
        return terms[0][0]
    return INF if cutoff is None else cutoff


def reference_mul(x, y):
    """The product as it stood: every pair of terms formed, with its
    Fraction exponent sum, then collected, and the cutoff the least of a
    candidate list that holds the two cutoffs' sum too."""
    (a, ca), (b, cb) = x, y
    va, vb = reference_floor(x), reference_floor(y)
    candidates = []
    if ca is not None:
        candidates.append(ca + vb if vb is not INF else INF)
    if cb is not None:
        candidates.append(cb + va if va is not INF else INF)
    if ca is not None and cb is not None:
        candidates.append(ca + cb)
    finite = [c for c in candidates if c is not INF]
    cutoff = min(finite) if finite else None
    pairs = [(ea + eb, xa * xb) for ea, xa in a for eb, xb in b]
    return reference_collect(pairs, cutoff), cutoff


def reference_truncate(x, precision):
    cutoff = reference_min(x[1], F(precision))
    return tuple(t for t in x[0] if t[0] < cutoff), cutoff


def reference_is_zero_at(x, precision):
    terms, cutoff = x
    if any(e < precision for e, _ in terms):
        return False
    if cutoff is None or cutoff >= precision:
        return True
    raise PrecisionExhaustedError("undecidable")


def reference_inverse(x):
    """The inverse as it stood: a geometric series in which each step is
    a full product, a truncation and a collected sum."""
    terms, cutoff = x
    if not terms:
        raise ZeroDivisionError if cutoff is None else PrecisionExhaustedError
    v, c = terms[0]
    lead = (((-v, 1 / c),), None)
    if cutoff is None:
        if len(terms) == 1:
            return lead
        raise PrecisionExhaustedError
    prec = cutoff - v
    u = (tuple((e - v, y / c) for e, y in terms[1:]), prec)
    one = reference_truncate((((F(0), F(1)),), None), prec)
    acc = power = one
    while power[0]:
        power = reference_truncate(reference_mul(power, reference_neg(u)), prec)
        acc = reference_add(acc, power)
    return reference_mul(acc, lead)


def reference_pow(x, n):
    if n < 0:
        return reference_pow(reference_inverse(x), -n)
    out = ((F(0), F(1)),), None
    while n:
        if n & 1:
            out = reference_mul(out, x)
        x = reference_mul(x, x)
        n >>= 1
    return out


def kernel_pairs(rng, count):
    # terms over one or two denominators of DENOMINATORS, negative
    # exponents included, some exponents repeated with cancelling
    # coefficients
    dens = rng.sample(DENOMINATORS, rng.randint(1, 2))
    pairs = []
    for _ in range(count):
        e = F(rng.randint(-8, 16), rng.choice(dens))
        c = F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
        pairs.append((e, c))
        if rng.random() < 0.2:
            pairs.append((e, -c))
    return pairs


def kernel_cutoff(rng):
    # None, or a cutoff whose denominator (11 or 13) divides none of the
    # exponents' half the time
    roll = rng.random()
    if roll < 0.3:
        return None
    return F(rng.randint(-4, 24), rng.choice((11, 13) if roll < 0.65 else DENOMINATORS))


def kernel_operand(rng, most=6):
    pairs, cutoff = kernel_pairs(rng, rng.randint(0, most)), kernel_cutoff(rng)
    return S(pairs, cutoff), reference_scalar(pairs, cutoff)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, PrecisionExhaustedError) as err:
        return type(err)


def assert_matches(ours, reference):
    if isinstance(reference, type):
        assert ours is reference
        return
    assert (ours.terms, ours.cutoff) == reference
    assert all(type(e) is F and type(c) is F for e, c in ours.terms)
    assert ours.cutoff is None or type(ours.cutoff) is F


class TestExponentKernel:
    def test_seeded_scalars_match_the_fraction_keyed_reference(self):
        rng = random.Random(2317)
        kinds = set()
        for _ in range(600):
            (x, rx), (y, ry) = kernel_operand(rng), kernel_operand(rng)
            z, rz = kernel_operand(rng, 3)
            precision = F(rng.randint(-4, 20), rng.choice(DENOMINATORS + (11,)))
            n = rng.randint(-2, 3)
            assert_matches(x, rx)
            assert_matches(x + y, reference_add(rx, ry))
            assert_matches(x - y, reference_add(rx, reference_neg(ry)))
            assert_matches(x + (-x), reference_add(rx, reference_neg(rx)))
            assert_matches(x * y, reference_mul(rx, ry))
            assert_matches(outcome(pow, z, n), outcome(reference_pow, rz, n))
            assert_matches(outcome(S.inverse, x), outcome(reference_inverse, rx))
            assert_matches(x.truncate(precision), reference_truncate(rx, precision))
            assert outcome(x.is_zero_at, precision) == outcome(
                reference_is_zero_at, rx, precision
            )
            kinds.add((not rx[0], rx[1] is None, type(outcome(reference_inverse, rx))))
        # empty and nonempty, exact and truncated, and inverses that answer
        # and that raise all occurred
        assert {(a, b) for a, b, _ in kinds} == {(True, True), (True, False), (False, True), (False, False)}
        assert {tuple, type} <= {k for _, _, k in kinds}

    def test_truncated_inverses_match_the_reference(self):
        # operands that invert: a truncated lead term and a tail above it
        rng = random.Random(41)
        for _ in range(120):
            pairs = kernel_pairs(rng, rng.randint(1, 5))
            v = min(e for e, _ in pairs) - F(1, rng.choice(DENOMINATORS))
            pairs.append((v, F(rng.choice((-2, 1, 3)))))
            cutoff = v + F(rng.randint(1, 4), rng.choice((1, 2, 5, 11)))
            x, rx = S(pairs, cutoff), reference_scalar(pairs, cutoff)
            assert_matches(x.inverse(), reference_inverse(rx))
            assert_matches(x ** -2, reference_pow(rx, -2))

    def test_cutoff_edge_products_match_the_candidate_rule(self):
        # an exact zero times a truncated scalar, a truncated zero times a
        # truncated and an exact scalar, and two truncated scalars, in both
        # orders: the product takes the lesser of the two tail bounds, and
        # the reference's candidate list, with the cutoff sum, must agree
        rng = random.Random(577)
        exact_zero = S(), reference_scalar([])
        negative = 0

        def operand(count, cutoff):
            pairs = kernel_pairs(rng, count)
            return S(pairs, cutoff), reference_scalar(pairs, cutoff)

        def cutoff():
            return F(rng.randint(-6, 16), rng.choice(DENOMINATORS + (11, 13)))

        for _ in range(300):
            x, y = operand(rng.randint(1, 5), cutoff()), operand(rng.randint(1, 5), cutoff())
            exact = operand(rng.randint(1, 4), None)
            truncated_zero = operand(0, cutoff())
            for (a, ra), (b, rb) in [
                (exact_zero, x),
                (truncated_zero, x),
                (truncated_zero, exact),
                (x, y),
            ]:
                assert_matches(a * b, reference_mul(ra, rb))
                assert_matches(b * a, reference_mul(rb, ra))
            negative += all(z.terms and z.terms[0][0] < 0 for z in (x[0], y[0]))
        # products of two truncated scalars of negative valuation occurred
        assert negative >= 30

    def test_pow_squares_only_while_bits_remain(self, monkeypatch):
        # x ** n forms one product per set bit and one square per bit
        # below the top one, and none for n = 0
        mul = S.__mul__
        products = []

        def counted(self, other):
            products.append(1)
            return mul(self, other)

        operands = [
            (S(pairs, cutoff), reference_scalar(pairs, cutoff))
            for pairs, cutoff in [
                ([(F(-1, 2), 3), (F(1, 3), -1)], F(7, 2)),
                ([(0, 1), (F(2, 5), 2), (1, -1)], None),
            ]
        ]
        monkeypatch.setattr(S, "__mul__", counted)
        for x, rx in operands:
            for n in range(10):
                products.clear()
                got = x ** n
                assert len(products) == (bin(n).count("1") + n.bit_length() - 1 if n else 0)
                assert_matches(got, reference_pow(rx, n))


def fraction_order_and_hash_counts(monkeypatch, fn):
    """Run fn and count the Fraction hashes and order comparisons it
    makes."""
    counts = {"hash": 0, "order": 0}

    def counting(kind, method):
        def counted(*args):
            counts[kind] += 1
            return method(*args)

        return counted

    with monkeypatch.context() as patch:
        patch.setattr(F, "__hash__", counting("hash", F.__hash__))
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            patch.setattr(F, name, counting("order", getattr(F, name)))
        fn()
    return counts


def many_term_scalar(rng, count, cutoff):
    exps = sorted(rng.sample(range(1, 6 * count), count - 1))
    pairs = [(F(0), F(rng.choice((1, -2))))]
    pairs += [(F(e, rng.choice((2, 3))), F(rng.choice((-1, 1, 4)), 3)) for e in exps]
    return S(pairs, cutoff)


def test_the_arithmetic_hashes_no_fraction_and_orders_only_the_cutoffs(monkeypatch):
    rng = random.Random(5)
    seen = {}
    for count in (3, 12, 30):
        x = many_term_scalar(rng, count, F(7, 5))
        y = many_term_scalar(rng, count, F(9, 4))
        exact = many_term_scalar(rng, count, None)
        for name, fn in (
            ("mul", lambda: x * y),
            ("exact mul", lambda: x * exact),
            ("add", lambda: x + y),
            ("exact add", lambda: exact + exact),
            ("inverse", x.inverse),
        ):
            counts = fraction_order_and_hash_counts(monkeypatch, fn)
            assert counts["hash"] == 0, (name, count)
            seen.setdefault(name, set()).add(counts["order"])
    # the count of order comparisons does not grow with the terms: the
    # product compares its cutoff candidates, the sum its two cutoffs
    assert all(len(orders) == 1 for orders in seen.values()), seen
    assert max(max(orders) for orders in seen.values()) <= 2, seen


# -- the fused row operation against the scalar operations it replaced --------
#
# The scalar ``*`` is now the fused operation itself, so every reference
# below forms its products with reference_mul, the Fraction-keyed product
# the kernel tests above check ``*`` against: a fault in the fused
# operation cannot reach both sides.


def reference_product(x, y):
    return S(*reference_mul((x.terms, x.cutoff), (y.terms, y.cutoff)))


@contextmanager
def reference_products():
    """Scalar ``*`` as reference_mul while the block runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "__mul__", reference_product)
        patch.setattr(S, "__rmul__", reference_product)
        yield


def reference_eliminate(row, pivot, column, working):
    """_eliminate as it stood: x - factor * y formed as a product, a
    negated copy, a sum and a truncation, the pivot's lead inverse kept
    in pivot[2]."""
    pivot_row = pivot[0]
    if pivot[2] is None:
        pivot[2] = pivot_row[column].inverse()
    factor = row.pop(column) * pivot[2]
    for j, y in pivot_row.items():
        if j == column:
            continue
        x = row.get(j)
        value = (-(factor * y) if x is None else x - factor * y).truncate(working)
        if value.terms or value.cutoff < working:
            row[j] = value
        elif x is not None:
            del row[j]


def reference_dot(row, values):
    """_dot as it stood: one scalar per partial sum."""
    total = S.zero()
    for j, x in values.items():
        entry = row.get(j)
        if entry is not None:
            total = total + entry * x
    return total


def reference_matmul(a, b):
    """NovikovMatrix.__mul__ as it stood: each entry a sum of products
    from the exact zero."""
    return [
        [
            sum((a._rows[i][k] * b._rows[k][j] for k in range(a.ncols)), S.zero())
            for j in range(b.ncols)
        ]
        for i in range(a.nrows)
    ]


def fused_operand(rng):
    """An exact zero, whose valuation floor is INF; a husk, with no terms
    below its cutoff; or terms over mixed denominators, negative
    exponents included, exact or truncated."""
    roll = rng.random()
    if roll < 0.15:
        return S()
    if roll < 0.3:
        return S(kernel_pairs(rng, rng.randint(0, 3)), F(-9, rng.choice((1, 2, 11))))
    return kernel_operand(rng, 5)[0]


def fused_working(rng):
    if rng.random() < 0.25:
        return None
    return F(rng.randint(-4, 20), rng.choice(DENOMINATORS + (11,)))


def seen(x):
    return x.terms, x.cutoff, str(x)


def assert_same(ours, reference):
    assert seen(ours) == seen(reference)
    assert all(type(e) is F and type(c) is F for e, c in ours.terms)
    assert ours.cutoff is None or type(ours.cutoff) is F


def row_seen(row):
    return {j: seen(x) for j, x in row.items()}


def eliminate_outcome(eliminate, rows, pivot_row, column, working):
    # the rows after each is reduced by one shared pivot, whose lead
    # inverse the first elimination forms and the others reuse
    pivot = [pivot_row, None, None]
    rows = [dict(row) for row in rows]
    try:
        for row in rows:
            eliminate(row, pivot, column, working)
    except (ArithmeticError, PrecisionExhaustedError) as err:
        return type(err), str(err)
    return [row_seen(row) for row in rows]


class TestFusedRowOperation:
    def test_a_sum_of_products_matches_the_scalar_operations(self):
        rng = random.Random(2611)
        kinds = set()
        for _ in range(800):
            x = fused_operand(rng)
            pairs = [(fused_operand(rng), fused_operand(rng)) for _ in range(rng.randint(0, 4))]
            working = fused_working(rng)
            ours = novikov._add_products(x, pairs, working)
            with reference_products():
                reference = x
                for a, b in pairs:
                    reference = reference + a * b
                if working is not None:
                    reference = reference.truncate(working)
            assert_same(ours, reference)
            # one pair with the sign folded into the factor: x - f * y
            if pairs and working is not None:
                (f, y), = pairs[:1]
                ours = novikov._add_products(x, ((-f, y),), working)
                with reference_products():
                    assert_same(ours, (x - f * y).truncate(working))
            factors = [s for pair in pairs for s in pair]
            kinds.update(
                kind
                for kind, hit in (
                    ("exact zero factor", any(s.is_exact_zero() for s in factors)),
                    ("husk", any(not s.terms and s.cutoff is not None for s in [x, *factors])),
                    ("negative", any(s.terms and s.terms[0][0] < 0 for s in [x, *factors])),
                    ("no working", working is None),
                    ("exact answer", reference.cutoff is None and bool(reference.terms)),
                    ("cut by a product", reference.cutoff is not None
                     and reference.cutoff != working and reference.cutoff != x.cutoff),
                )
                if hit
            )
        assert len(kinds) == 6, kinds

    def test_the_product_is_the_fused_operation_on_one_pair(self):
        # the scalar * against reference_mul on the fused operands
        rng = random.Random(2615)
        for _ in range(400):
            a, b = fused_operand(rng), fused_operand(rng)
            assert_same(a * b, reference_product(a, b))

    def test_eliminate_matches_the_old_body(self):
        rng = random.Random(2612)
        answered = 0
        for _ in range(400):
            ncols = rng.randint(2, 5)
            column = rng.randrange(ncols)
            lead_pairs = kernel_pairs(rng, rng.randint(0, 2))
            lead_pairs.append((F(rng.randint(-4, 4), rng.choice(DENOMINATORS)), F(rng.choice((-2, 1, 3)))))
            lead = S(lead_pairs, kernel_cutoff(rng))
            pivot_row = {column: lead}
            pivot_row.update((j, fused_operand(rng)) for j in range(ncols) if j != column and rng.random() < 0.7)
            rows = []
            for _ in range(rng.randint(1, 3)):
                row = {j: fused_operand(rng) for j in range(ncols) if rng.random() < 0.6}
                row[column] = fused_operand(rng)
                rows.append(row)
            working = F(rng.randint(-2, 16), rng.choice(DENOMINATORS))
            ours = eliminate_outcome(novikov._eliminate, rows, pivot_row, column, working)
            with reference_products():
                reference = eliminate_outcome(reference_eliminate, rows, pivot_row, column, working)
            assert ours == reference
            answered += isinstance(ours, list)
        # most leads invert; exact leads of several terms raise in both
        assert answered >= 250

    def test_dot_matches_the_old_body(self):
        rng = random.Random(2613)
        for _ in range(400):
            ncols = rng.randint(1, 6)
            row = {j: fused_operand(rng) for j in range(ncols) if rng.random() < 0.7}
            values = {j: fused_operand(rng) for j in range(ncols) if rng.random() < 0.7}
            ours = novikov._dot(row, values)
            with reference_products():
                assert_same(ours, reference_dot(row, values))

    def test_matrix_products_match_the_old_sum(self):
        rng = random.Random(2614)
        shapes = [(2, 0, 3)] + [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(120)]
        for n, m, p in shapes:
            a = NovikovMatrix([[fused_operand(rng) for _ in range(m)] for _ in range(n)])
            b = NovikovMatrix([[fused_operand(rng) for _ in range(p)] for _ in range(m)])
            ours = [list(map(seen, row)) for row in (a * b)._rows]
            with reference_products():
                assert ours == [list(map(seen, row)) for row in reference_matmul(a, b)]
