"""Truncated series over the rationals with rational exponents.

A scalar is a finite sum ``sum(c * t**e)`` with ``c`` in Q, ``e`` in Q,
together with an optional truncation cutoff ``E``: the scalar is then only
known modulo ``t**E`` and every stored exponent satisfies ``e < E``.  A
cutoff of ``None`` means the scalar is exact.  All arithmetic tracks how
far results stay trustworthy; decisions that would need terms beyond the
cutoff raise :class:`PrecisionExhaustedError` instead of guessing.

Floats are rejected everywhere.  Coefficients and exponents are
`fractions.Fraction` (ints and rational strings are coerced).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import PrecisionExhaustedError

INF = math.inf


def _frac(x):
    """Coerce to Fraction, refusing floats outright.

    Fractions pass through unchanged; ints and rational strings such as
    ``"3/4"`` or ``"-2"`` are converted with ``Fraction``.  Floats (and
    anything else) raise TypeError: a float has already rounded the
    value it was meant to hold.  This is the package's one coercion to
    exact rationals.
    """
    if isinstance(x, float):
        raise TypeError("floats are not allowed here; use Fraction or int")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _cutoff_min(a, b):
    # None plays the role of +infinity.
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class NovikovScalar:
    """One element of the scalar field, possibly truncated."""

    __slots__ = ("_terms", "_cutoff")

    def __init__(self, terms=(), cutoff=None):
        if cutoff is not None:
            cutoff = _frac(cutoff)
        merged = {}
        for exp, coeff in terms:
            exp = _frac(exp)
            coeff = _frac(coeff)
            if cutoff is not None and exp >= cutoff:
                continue
            merged[exp] = merged.get(exp, Fraction(0)) + coeff
        self._terms = tuple(
            (e, c) for e, c in sorted(merged.items()) if c != 0
        )
        self._cutoff = cutoff

    @classmethod
    def _trusted(cls, terms, cutoff):
        """Build a scalar from parts that are already in normal form.

        Nothing is coerced or checked.  The caller guarantees that
        ``cutoff`` is None or a Fraction, and that ``terms`` is a tuple
        of ``(exponent, coefficient)`` Fraction pairs with strictly
        increasing exponents, every coefficient nonzero and every
        exponent below the cutoff.  Results of arithmetic on scalars
        come through here; values from outside go through ``__init__``.
        """
        self = object.__new__(cls)
        self._terms = terms
        self._cutoff = cutoff
        return self

    @classmethod
    def _collect(cls, pairs, cutoff):
        """Normal form of a sum of Fraction ``(exponent, coefficient)``
        pairs: equal exponents merged, zero coefficients and exponents at
        or above ``cutoff`` dropped, exponents sorted.  The cutoff must
        be None or a Fraction."""
        merged = {}
        for e, c in pairs:
            if e in merged:
                merged[e] += c
            else:
                merged[e] = c
        terms = tuple(
            (e, c)
            for e, c in sorted(merged.items())
            if c and (cutoff is None or e < cutoff)
        )
        return cls._trusted(terms, cutoff)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, cutoff=None):
        return cls((), cutoff)

    @classmethod
    def one(cls):
        return cls(((Fraction(0), Fraction(1)),))

    @classmethod
    def from_rational(cls, value, cutoff=None):
        return cls(((Fraction(0), _frac(value)),), cutoff)

    @classmethod
    def monomial(cls, coeff, exp, cutoff=None):
        return cls(((_frac(exp), _frac(coeff)),), cutoff)

    # -- inspection --------------------------------------------------

    @property
    def terms(self):
        return self._terms

    @property
    def cutoff(self):
        return self._cutoff

    def is_exact(self):
        return self._cutoff is None

    def is_exact_zero(self):
        return not self._terms and self._cutoff is None

    def is_zero_at(self, precision):
        """True if the value is certifiably 0 modulo t**precision."""
        precision = _frac(precision)
        if any(e < precision for e, _ in self._terms):
            return False
        if self._cutoff is None or self._cutoff >= precision:
            return True
        raise PrecisionExhaustedError(
            f"cannot decide vanishing mod t^({precision}): "
            f"known only mod t^({self._cutoff})"
        )

    def valuation(self):
        """Least exponent with nonzero coefficient; INF for exact zero."""
        if self._terms:
            return self._terms[0][0]
        if self._cutoff is None:
            return INF
        raise PrecisionExhaustedError(
            f"valuation undecidable: no terms below cutoff t^({self._cutoff})"
        )

    def _val_floor(self):
        # Lower bound for the valuation that never raises.  Used for
        # cutoff bookkeeping in products.
        if self._terms:
            return self._terms[0][0]
        if self._cutoff is None:
            return INF
        return self._cutoff

    def leading(self):
        if not self._terms:
            raise PrecisionExhaustedError("no leading term: scalar has no terms")
        exp, coeff = self._terms[0]
        return exp, coeff

    def coefficient(self, exp):
        exp = _frac(exp)
        if self._cutoff is not None and exp >= self._cutoff:
            raise PrecisionExhaustedError(
                f"coefficient of t^({exp}) lies beyond cutoff t^({self._cutoff})"
            )
        for e, c in self._terms:
            if e == exp:
                return c
        return Fraction(0)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NovikovScalar):
            return other
        if isinstance(other, float):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return NovikovScalar.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cutoff = _cutoff_min(self._cutoff, other._cutoff)
        return NovikovScalar._collect(self._terms + other._terms, cutoff)

    __radd__ = __add__

    def __neg__(self):
        return NovikovScalar._trusted(
            tuple((e, -c) for e, c in self._terms), self._cutoff
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Unknown tails multiply into the result at exponents bounded by
        # cutoff + the other factor's valuation floor, and the two tails
        # meet at the cutoff sum.  The tightest sound cutoff is the min.
        ca, cb = self._cutoff, other._cutoff
        va, vb = self._val_floor(), other._val_floor()
        candidates = []
        if ca is not None:
            candidates.append(ca + vb if vb is not INF else INF)
        if cb is not None:
            candidates.append(cb + va if va is not INF else INF)
        if ca is not None and cb is not None:
            candidates.append(ca + cb)
        finite = [c for c in candidates if c is not INF]
        cutoff = min(finite) if finite else None
        prod = [
            (ea + eb, xa * xb)
            for ea, xa in self._terms
            for eb, xb in other._terms
        ]
        return NovikovScalar._collect(prod, cutoff)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = NovikovScalar.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse.

        Exact monomials invert exactly.  A truncated scalar known mod
        t**E with valuation v inverts to a scalar known mod t**(E-2v).
        Exact scalars with several terms have genuinely infinite
        inverses, so they must be truncated first.
        """
        if not self._terms:
            if self._cutoff is None:
                raise ZeroDivisionError("inverse of exact zero")
            raise PrecisionExhaustedError(
                f"inverse needs a leading term, none known below t^({self._cutoff})"
            )
        v, c = self._terms[0]
        lead = NovikovScalar._trusted(((-v, 1 / c),), None)
        if self._cutoff is None:
            if len(self._terms) == 1:
                return lead
            raise PrecisionExhaustedError(
                "inverse of an exact multi-term scalar is an infinite series; "
                "truncate first"
            )
        prec = self._cutoff - v
        # self = c * t^v * (1 + u) with val(u) > 0; invert the unit by a
        # geometric series mod t^prec, then shift back.
        scaled = tuple((e - v, x / c) for e, x in self._terms)
        u = NovikovScalar._trusted(scaled[1:], prec)
        acc = NovikovScalar.one().truncate(prec)
        term = NovikovScalar.one().truncate(prec)
        while term._terms:
            term = (term * (-u)).truncate(prec)
            acc = acc + term
        return acc * lead

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def truncate(self, precision):
        cutoff = _cutoff_min(self._cutoff, _frac(precision))
        return NovikovScalar._trusted(
            tuple(t for t in self._terms if t[0] < cutoff), cutoff
        )

    def agrees_with(self, other):
        """Equality of the parts both sides actually know.

        Compares the two scalars after truncating to the smaller cutoff;
        exact scalars compare exactly.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare with a non-scalar")
        common = _cutoff_min(self._cutoff, other._cutoff)
        if common is None:
            return self == other
        return self.truncate(common) == other.truncate(common)

    # -- comparisons and hashing --------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms and self._cutoff == other._cutoff

    def __hash__(self):
        return hash((self._terms, self._cutoff))

    def __bool__(self):
        return bool(self._terms)

    # -- text form -----------------------------------------------------

    @staticmethod
    def _format_exponent(exp):
        if exp == 1:
            return "t"
        if exp.denominator == 1 and exp >= 0:
            return f"t^{exp}"
        return f"t^({exp})"

    def __str__(self):
        if not self._terms:
            body = "0"
        else:
            pieces = []
            for i, (exp, coeff) in enumerate(self._terms):
                mag = -coeff if coeff < 0 else coeff
                if exp == 0:
                    chunk = str(mag)
                elif mag == 1:
                    chunk = self._format_exponent(exp)
                else:
                    chunk = f"{mag}*{self._format_exponent(exp)}"
                if i == 0:
                    pieces.append(f"-{chunk}" if coeff < 0 else chunk)
                else:
                    pieces.append(f" - {chunk}" if coeff < 0 else f" + {chunk}")
            body = "".join(pieces)
        if self._cutoff is None:
            return body
        return f"{body} (mod t^({self._cutoff}))"

    def __repr__(self):
        return f"NovikovScalar({str(self)!r})"

    @classmethod
    def parse(cls, text):
        """Parse the textual form back into a scalar.

        Accepts exactly the grammar produced by ``str``: signed terms
        ``c*t^(e)`` with the usual elisions, an optional trailing
        ``(mod t^(E))``, and ``0`` for zero.  Round-trips bit-exactly.
        """
        return _parse_scalar(cls, text)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<sym>[t^()*+-])|(?P<mod>mod\b))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
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


def _parse_scalar(cls, text):
    tokens = _tokenize(text)
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
        nonlocal idx
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
        nonlocal idx
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
    return cls(terms, cutoff)


class NovikovMatrix:
    """Rectangular matrix of scalars with precision-aware elimination."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        coerced = []
        for row in rows:
            out = []
            for x in row:
                if not isinstance(x, NovikovScalar):
                    x = NovikovScalar.from_rational(x)
                out.append(x)
            coerced.append(tuple(out))
        self._rows = tuple(coerced)
        if self._rows:
            width = len(self._rows[0])
            if any(len(r) != width for r in self._rows):
                raise ValueError("ragged rows in matrix")

    @classmethod
    def identity(cls, n):
        one, zero = NovikovScalar.one(), NovikovScalar.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows, ncols):
        zero = NovikovScalar.zero()
        return cls([[zero] * ncols for _ in range(nrows)])

    @property
    def rows(self):
        return self._rows

    @property
    def nrows(self):
        return len(self._rows)

    @property
    def ncols(self):
        return len(self._rows[0]) if self._rows else 0

    def entry(self, i, j):
        return self._rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, NovikovMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __add__(self, other):
        if not isinstance(other, NovikovMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        return NovikovMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, NovikovMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return NovikovMatrix([[-x for x in row] for row in self._rows])

    def __mul__(self, other):
        if isinstance(other, NovikovMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            return NovikovMatrix(
                [
                    [
                        sum(
                            (self._rows[i][k] * other._rows[k][j] for k in range(self.ncols)),
                            NovikovScalar.zero(),
                        )
                        for j in range(other.ncols)
                    ]
                    for i in range(self.nrows)
                ]
            )
        if isinstance(other, (int, Fraction, NovikovScalar)):
            return NovikovMatrix([[x * other for x in row] for row in self._rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, NovikovScalar)):
            return NovikovMatrix([[other * x for x in row] for row in self._rows])
        return NotImplemented

    def transpose(self):
        return NovikovMatrix(list(zip(*self._rows))) if self._rows else self

    def truncate(self, precision):
        return NovikovMatrix(
            [[x.truncate(precision) for x in row] for row in self._rows]
        )

    def determinant(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return NovikovScalar.one()
        if n == 1:
            return self._rows[0][0]
        total = NovikovScalar.zero()
        for j in range(n):
            minor = NovikovMatrix(
                [
                    [self._rows[i][k] for k in range(n) if k != j]
                    for i in range(1, n)
                ]
            )
            piece = self._rows[0][j] * minor.determinant()
            total = total + (piece if j % 2 == 0 else -piece)
        return total

    # -- elimination ---------------------------------------------------

    def _with_headroom(self, precision, attempt):
        """Run an elimination attempt, retrying with extra working cutoff.

        Divisions by pivots of positive valuation spend working cutoff;
        when the input data is known deeply enough, the attempt is
        retried with extra headroom instead of giving up.
        """
        precision = _frac(precision)
        deep_enough = all(
            x.cutoff is None or x.cutoff >= precision
            for row in self._rows
            for x in row
        )
        last_error = None
        for pad in (0, 4, 16, 64, 256):
            try:
                return attempt(precision, precision + pad)
            except PrecisionExhaustedError as err:
                last_error = err
                if not deep_enough:
                    raise
        raise last_error

    def _rref_at(self, precision):
        """Forward-eliminate with valuation-minimal pivots, trusting data
        below t**precision only.  Returns (rows, pivots) where pivots is
        a list of (row, col) pairs in column order.

        Elimination only runs downward: a pivot is minimal in its column
        among the remaining rows, so every elimination factor has
        nonnegative valuation and never erodes what is known about the
        rows already placed.  The result is echelon, not reduced.
        """
        return self._with_headroom(precision, self._rref_attempt)

    def _rref_attempt(self, precision, working):
        rows = [list(r) for r in self.truncate(working)._rows]
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

    def rank_at_precision(self, precision):
        """Rank certified by the data modulo t**precision.

        Entries whose known terms all vanish below the working precision
        count as zero when their cutoff reaches the precision, and raise
        :class:`PrecisionExhaustedError` when it does not.
        """
        _, pivots = self._rref_at(precision)
        return len(pivots)

    def kernel_basis_at_precision(self, precision):
        """Basis of the right kernel modulo t**precision.

        One vector per free column; entries are truncated scalars.  Each
        candidate is certified against the original rows before it is
        returned, so back-substitution shortcuts cannot smuggle in a
        vector that visibly fails an equation.
        """
        return self._with_headroom(precision, self._kernel_attempt)

    def _kernel_attempt(self, precision, working):
        rows, pivots = self._rref_attempt(precision, working)
        nc = self.ncols
        pivot_cols = {c for _, c in pivots}
        free_cols = [c for c in range(nc) if c not in pivot_cols]
        exact_zero = NovikovScalar.zero()
        basis = []
        for fc in free_cols:
            values = {fc: NovikovScalar.one()}
            # rows are echelon: row r holds husks left of its pivot and
            # live entries right of it, so reverse pivot order only ever
            # consumes values that are already assigned
            for r, c in reversed(pivots):
                row = rows[r]
                total = exact_zero
                for j, xj in values.items():
                    entry = row[j]
                    if entry.terms or entry.cutoff is not None:
                        total = total + entry * xj
                if total.terms or total.cutoff is not None:
                    values[c] = -(total * row[c].inverse())
            for row in self._rows:
                residual = exact_zero
                for j, xj in values.items():
                    entry = row[j]
                    if entry.terms or entry.cutoff is not None:
                        residual = residual + entry * xj
                if not residual.is_zero_at(precision):
                    raise PrecisionExhaustedError(
                        "kernel candidate fails a row at precision "
                        f"t^({precision})"
                    )
            vec = [
                values.get(c, exact_zero).truncate(precision)
                for c in range(nc)
            ]
            basis.append(tuple(vec))
        return basis

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(x) for x in row) for row in self._rows
        ) + "]"

    def __repr__(self):
        return f"NovikovMatrix({str(self)!r})"
