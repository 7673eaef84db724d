import random
import re
from fractions import Fraction

import pytest

from mirrorforge import INF, NovikovMatrix, NovikovScalar, PrecisionExhaustedError

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


# -- the recursive-descent parser the two regexes replaced, as reference ----

REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<sym>[t^()*+-])|(?P<mod>mod\b))"
)


def reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad scalar syntax at {text[pos:]!r}")
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "mod":
            tokens.append(("mod", "mod"))
        else:
            tokens.append((m.group("sym"), m.group("sym")))
        pos = m.end()
    return tokens


def reference_parse(text):
    tokens = reference_tokenize(text)
    idx = 0

    def peek(k=0):
        return tokens[idx + k][0] if idx + k < len(tokens) else None

    def take(kind):
        nonlocal idx
        if peek() != kind:
            raise ValueError(f"expected {kind!r} in {text!r}")
        tok = tokens[idx]
        idx += 1
        return tok[1]

    def parse_rational(signed=True):
        sign = 1
        if signed and peek() == "-":
            take("-")
            sign = -1
        return sign * Fraction(take("num"))

    def parse_exponent():
        if peek() == "(":
            take("(")
            value = parse_rational()
            take(")")
            return value
        return parse_rational(signed=False)

    def parse_term():
        # A term is coeff, coeff*tpart, or a bare tpart.
        coeff = Fraction(1)
        have_coeff = False
        if peek() == "num":
            coeff = parse_rational(signed=False)
            have_coeff = True
            if peek() == "*":
                take("*")
        if peek() == "t":
            take("t")
            if peek() == "^":
                take("^")
                exp = parse_exponent()
            else:
                exp = Fraction(1)
            return exp, coeff
        if not have_coeff:
            raise ValueError(f"expected a term in {text!r}")
        return Fraction(0), coeff

    terms = []
    negate = False
    if peek() == "-":
        take("-")
        negate = True
    exp, coeff = parse_term()
    terms.append((exp, -coeff if negate else coeff))
    while peek() in ("+", "-"):
        op = take(peek())
        exp, coeff = parse_term()
        terms.append((exp, -coeff if op == "-" else coeff))

    cutoff = None
    if peek() == "(" and peek(1) == "mod":
        take("(")
        take("mod")
        take("t")
        take("^")
        take("(")
        cutoff = parse_rational()
        take(")")
        take(")")
    if idx != len(tokens):
        raise ValueError(f"trailing junk in scalar text {text!r}")
    if len(terms) == 1 and terms[0] == (Fraction(0), Fraction(0)):
        terms = []
    return S(terms, cutoff)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def whitespace_variants(text):
    """Copies of a text form with its spacing changed: doubled, removed,
    added around every symbol, and padded with tabs and newlines."""
    return (
        text.replace(" ", "  "),
        text.replace(" ", "").replace("mod", "mod "),
        re.sub(r"([*^()+-])", r" \1 ", text),
        f"\t{text} \n",
    )


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

    def test_parse_examples(self):
        assert S.parse("t") == scalar((1, 1))
        assert S.parse("0 (mod t^(5))") == S.zero(cutoff=5)
        assert S.parse("3*t^(1/2) + t^2 (mod t^(10))") == scalar(
            (F(1, 2), 3), (2, 1), cutoff=10
        )
        assert S.parse("-t^(-3) - 2") == scalar((-3, -1), (0, -2))

    def test_parse_rejects_junk(self):
        for bad in ["", "t +", "q^2", "1 2", "t^^2", "t (mod t^2)"]:
            with pytest.raises(ValueError):
                S.parse(bad)

    def test_parse_matches_the_reference_parser(self):
        rng = random.Random(1511)
        texts = [str(random_scalar(rng)) for _ in range(300)]
        texts += [str(x) for x in (S.zero(), S.zero(cutoff=F(-3, 2)), scalar((0, 1)))]
        for text in texts:
            for variant in (text, *whitespace_variants(text)):
                want = reference_parse(variant)
                assert S.parse(variant) == want, variant
                assert str(S.parse(variant)) == str(want)

    def test_parse_refuses_what_the_reference_refuses(self):
        bad = ["", "t +", "q^2", "1 2", "t^^2", "t (mod t^2)", "t^2 t", "+t", "+ 3",
               "t - -3", "t^-3", "(mod t^(5))", "t (modt^(5))", "--t"]
        for text in bad:
            assert parse_outcome(reference_parse, text) is ValueError, text
            assert parse_outcome(S.parse, text) is ValueError, text

    def test_a_star_without_a_power_of_t_is_refused(self):
        # the reference read "3* + t" as 3 + t and "3*" as 3
        for text, read in (("3* + t", scalar((0, 3), (1, 1))), ("3*", scalar((0, 3)))):
            assert reference_parse(text) == read
            with pytest.raises(ValueError):
                S.parse(text)
        assert S.parse("3 * t") == S.parse("3 t") == scalar((1, 3))

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(300):
            x = random_scalar(rng)
            assert S.parse(str(x)) == x
            assert str(S.parse(str(x))) == str(x)


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
        for row in m.rows:
            image = sum((a * b for a, b in zip(row, vec)), S.zero())
            assert image.is_zero_at(8)

    def test_determinant(self):
        one = S.one()
        m = NovikovMatrix([[one, one], [one, one + S.monomial(1, 1)]])
        assert m.determinant() == S.monomial(1, 1)

    def test_product_and_identity(self):
        m = NovikovMatrix([[S.monomial(2, 1), S.one()], [S.zero(), S.one()]])
        assert m * NovikovMatrix.identity(2) == m

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            NovikovMatrix([[S.one()], [S.one(), S.zero()]])
