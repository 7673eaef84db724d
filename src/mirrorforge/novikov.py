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
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .errors import PrecisionExhaustedError
from .intlinalg import determinant

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


def _denominator(exponents, cutoff):
    # the least common denominator of the Fraction exponents, which may
    # hold cutoffs too, and of the cutoff, None or a Fraction: each of
    # them is an int over it
    dens = {e.denominator for e in exponents}
    if cutoff is not None:
        dens.add(cutoff.denominator)
    return math.lcm(*dens)


def _key(e, d):
    # the int numerator of a Fraction e over the common denominator d
    return e.numerator * (d // e.denominator)


def _products(a, b, bound, merged):
    # the products of the int-keyed terms of a with those of b, summed
    # into the dict merged on their key sums below bound: b is sorted, so
    # a row of pairs ends at its first key sum that reaches the bound
    for ka, xa in a:
        for kb, xb in b:
            k = ka + kb
            if k >= bound:
                break
            if k in merged:
                merged[k] += xa * xb
            else:
                merged[k] = xa * xb
    return merged


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
        pairs = [(_frac(exp), _frac(coeff)) for exp, coeff in terms]
        self._terms = self._collect(pairs, cutoff)._terms
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
        """Normal form of a sequence of Fraction ``(exponent,
        coefficient)`` pairs: equal exponents merged, zero coefficients
        and exponents at or above ``cutoff`` dropped, exponents sorted.
        Exponents are merged and ordered as int keys over their common
        denominator with the cutoff, and each kept term reuses an input
        exponent.  The cutoff must be None or a Fraction."""
        d = _denominator([e for e, _ in pairs], cutoff)
        merged = {}
        for pair in pairs:
            k = _key(pair[0], d)
            held = merged.get(k)
            merged[k] = pair if held is None else (held[0], held[1] + pair[1])
        bound = INF if cutoff is None else _key(cutoff, d)
        terms = tuple(
            merged[k] for k in sorted(merged) if k < bound and merged[k][1]
        )
        return cls._trusted(terms, cutoff)

    @classmethod
    def _from_keys(cls, merged, d, shift, cutoff):
        # the scalar with coefficient merged[k] at t^((k + shift) / d),
        # each key below the cutoff's; zero coefficients are dropped
        return cls._trusted(
            tuple(
                (Fraction(k + shift, d), c)
                for k, c in sorted(merged.items())
                if c
            ),
            cutoff,
        )

    def _shift(self, s):
        """This scalar times t^s, for a rational s: every exponent and
        the cutoff move by s.  The normal form carries over, so nothing
        is checked; the caller guarantees that s is an int or Fraction.
        """
        cutoff = self._cutoff
        return NovikovScalar._trusted(
            tuple((e + s, c) for e, c in self._terms),
            None if cutoff is None else cutoff + s,
        )

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

    def is_exact_zero(self):
        return not self._terms and self._cutoff is None

    def is_zero_at(self, precision):
        """True if the value is certifiably 0 modulo t**precision."""
        precision = _frac(precision)
        if self._terms and self._terms[0][0] < precision:
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
        return _add_products(_EXACT_ZERO, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        # square only while bits remain: the top bit's square is unused
        out = NovikovScalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
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
        inv = 1 / c
        if self._cutoff is None:
            if len(self._terms) == 1:
                return NovikovScalar._trusted(((-v, inv),), None)
            raise PrecisionExhaustedError(
                "inverse of an exact multi-term scalar is an infinite series; "
                "truncate first"
            )
        # self = c * t^v * (1 + u) with val(u) > 0, so the inverse is
        # t^-v / c times the geometric series of -u mod t^(E - v): it runs
        # on int keys relative to v, 1 / c carried from its first term on
        d = _denominator([e for e, _ in self._terms], self._cutoff)
        kv = _key(v, d)
        bound = _key(self._cutoff, d) - kv
        minus_u = [(_key(e, d) - kv, -x / c) for e, x in self._terms[1:]]
        total = {0: inv}
        power = {0: inv}
        while power:
            step = _products(power.items(), minus_u, bound, {})
            power = {k: x for k, x in step.items() if x}
            for k, x in power.items():
                if k in total:
                    total[k] += x
                else:
                    total[k] = x
        return NovikovScalar._from_keys(total, d, -kv, self._cutoff - 2 * v)

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
        terms = self._terms
        if terms and terms[-1][0] >= cutoff:
            # the terms are sorted: they end at the first exponent at or
            # past the cutoff
            terms = terms[:bisect_left(terms, cutoff, key=itemgetter(0))]
        return NovikovScalar._trusted(terms, cutoff)

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


_EXACT_ZERO = NovikovScalar._trusted((), None)


def _add_products(x, pairs, working=None):
    """``x + sum(a * b for a, b in pairs)``, truncated to the working
    cutoff when one is given, in one pass on int keys.

    Every exponent and cutoff is an int key over one common denominator.
    The answer is known below the least of x's cutoff, the working
    cutoff and each product's: an unknown tail multiplies into a
    product at exponents bounded by its cutoff plus the other factor's
    valuation floor.  The two tails meet at the cutoff sum, never lower,
    as a floor never exceeds its own cutoff, and an exact zero factor
    makes its product exact.  The products are summed straight into x's
    keyed terms, each row of pairs stopped at that cutoff, and one
    Fraction exponent is formed per kept term: the scalar ``*``, ``+``
    and ``truncate`` would give, without one per product or partial sum.
    The caller guarantees that working is None or a Fraction.
    """
    pairs = [
        (a, b)
        for a, b in pairs
        if (a._terms or a._cutoff is not None) and (b._terms or b._cutoff is not None)
    ]
    scalars = [x, *chain.from_iterable(pairs)]
    cutoffs = [s._cutoff for s in scalars if s._cutoff is not None]
    d = _denominator([e for s in scalars for e, _ in s._terms] + cutoffs, working)
    if cutoffs or working is not None:
        bounds = [_key(c, d) for c in (x._cutoff, working) if c is not None]
        for a, b in pairs:
            if a._cutoff is not None:
                bounds.append(_key(a._cutoff, d) + _key(b._val_floor(), d))
            if b._cutoff is not None:
                bounds.append(_key(b._cutoff, d) + _key(a._val_floor(), d))
        bound = min(bounds)
        cutoff = Fraction(bound, d)
    else:
        # nothing truncated: the answer is exact
        bound, cutoff = INF, None
    merged = {}
    for e, c in x._terms:
        k = _key(e, d)
        if k >= bound:
            break
        merged[k] = c
    for a, b in pairs:
        if a._terms and b._terms:
            _products(
                [(_key(e, d), c) for e, c in a._terms],
                [(_key(e, d), c) for e, c in b._terms],
                bound,
                merged,
            )
    return NovikovScalar._from_keys(merged, d, 0, cutoff)


def _lead_factor(pivot, column):
    # minus the inverse of the pivot row's entry in column, its pivot
    # column: formed on first use and kept in the pivot's slot
    if pivot[2] is None:
        pivot[2] = -pivot[0][column].inverse()
    return pivot[2]


def _eliminate(row, pivot, column, working):
    # add to the dict row the multiple of the pivot row that clears its
    # entry in column, one fused operation per entry cut at the working
    # cutoff; an entry that comes out with no terms and the full working
    # cutoff is dropped, as if never stored
    factor = row.pop(column) * _lead_factor(pivot, column)
    for j, y in pivot[0].items():
        if j == column:
            continue
        x = row.get(j)
        value = _add_products(_EXACT_ZERO if x is None else x, ((factor, y),), working)
        if value._terms or value._cutoff < working:
            row[j] = value
        elif x is not None:
            del row[j]


def _dot(row, values, working=None):
    # the sum of row[j] * x over the values whose column the dict row
    # holds, cut at the working cutoff when one is given
    return _add_products(
        _EXACT_ZERO,
        [(entry, x) for j, x in values.items() if (entry := row.get(j)) is not None],
        working,
    )


def _least_in(below, column):
    # (valuation, row) of the least entry in column of the per-row
    # valuations below, ties to the lower row
    return min((entries[column], i) for i, entries in enumerate(below) if column in entries)


def _pivot_elimination(rows, precision, working):
    """The pivots of one elimination over the valuation ring, in the order
    they are taken: a dict from each pivot column to ``[row, valuation,
    minus the lead inverse or None, index of the row in rows]``.

    ``rows`` are sequences of scalars.  Each entry is cut at the working
    cutoff, which is at least the precision, and exact zeros and entries
    left with no terms and the full working cutoff are not stored.  Each
    pivot is an entry of valuation below the precision that is least in
    its own row and in its own column, among the rows and columns not
    yet eliminated.  To find one, take the least entry of the lowest
    live column, ties to the lower row; while that row holds an entry of
    smaller valuation, move to the column of its least entry and take
    that column's least entry.  Valuations strictly fall at each move,
    so the search ends.  The pivot row is set aside and its column is
    cleared from every live row.

    Why this counts the invariant factors below the precision
    (Kaplansky, "Elementary divisors and modules", 1949): take a pivot p
    least in its row and in its column.  Row and column operations whose
    factors have valuation >= 0 then split the matrix into (p) + M' over
    the valuation ring, and M' is what the row operations leave on the
    live rows and columns.  So the pivot valuations are the invariant
    factors below the precision, as a multiset; no global minimum is
    needed.  No factor has
    negative valuation, so an update is known as deeply as its operands
    (Caruso, Roe and Vaccon, "p-adic stability in linear algebra", 2015).

    An entry with no terms below a cutoff under the precision may hide
    a term there.  :class:`PrecisionExhaustedError` is raised when such
    an entry in the pivot's row or column has its cutoff below the
    pivot's valuation, and when one is left once no live entry is: either
    way the decision rests on that entry.
    """
    live = []
    for index, row in enumerate(rows):
        kept = {}
        for j, x in enumerate(row):
            if x._terms or x._cutoff is not None:
                x = x.truncate(working)
                if x._terms or x._cutoff < working:
                    kept[j] = x
        if kept:
            live.append((index, kept))
    slots = {}
    while True:
        # per live row, the valuation of each entry below the precision
        below = [
            {
                j: x._terms[0][0]
                for j, x in row.items()
                if x._terms and x._terms[0][0] < precision
            }
            for _, row in live
        ]
        columns = [j for entries in below for j in entries]
        if not columns:
            break
        c = min(columns)
        v, i = _least_in(below, c)
        while (least := min((w, j) for j, w in below[i].items()))[0] < v:
            c = least[1]
            v, i = _least_in(below, c)
        index, row = live.pop(i)
        if any(
            not x._terms and x._cutoff < v
            for x in chain(row.values(), (other[c] for _, other in live if c in other))
        ):
            raise PrecisionExhaustedError(
                f"pivot of valuation {v} undecidable: an entry in its row or "
                f"column is known only below a cutoff under it"
            )
        slots[c] = pivot = [row, v, None, index]
        for _, other in live:
            if c in other:
                _eliminate(other, pivot, c, working)
        live = [(k, other) for k, other in live if other]
    if any(not x._terms and x._cutoff < precision for _, row in live for x in row.values()):
        raise PrecisionExhaustedError(
            f"rank undecidable mod t^({precision}): an entry left without "
            f"pivots is known only below a cutoff under it"
        )
    return slots


class NovikovMatrix:
    """Rectangular matrix of scalars with precision-aware elimination."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        coerced = []
        for row in rows:
            row = tuple(row)
            if set(map(type, row)) - {NovikovScalar}:
                row = tuple(
                    x if isinstance(x, NovikovScalar)
                    else NovikovScalar.from_rational(x)
                    for x in row
                )
            coerced.append(row)
        self._rows = tuple(coerced)
        if self._rows:
            width = len(self._rows[0])
            if any(len(r) != width for r in self._rows):
                raise ValueError("ragged rows in matrix")

    @property
    def nrows(self):
        return len(self._rows)

    @property
    def ncols(self):
        return len(self._rows[0]) if self._rows else 0

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
            columns = list(zip(*other._rows))
            return NovikovMatrix(
                [
                    [_add_products(_EXACT_ZERO, zip(row, column)) for column in columns]
                    for row in self._rows
                ]
            )
        if isinstance(other, (int, Fraction, NovikovScalar)):
            return NovikovMatrix([[x * other for x in row] for row in self._rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, NovikovScalar)):
            return NovikovMatrix([[other * x for x in row] for row in self._rows])
        return NotImplemented

    def determinant(self):
        """Determinant by ``intlinalg.determinant``: the product over the
        diagonal blocks of the block-triangular form, each by the
        division-free Berkowitz recurrence.

        Exact entries give the exact determinant.  On truncated entries
        every known term is right, but the cutoff can sit below a
        cofactor expansion's: the recurrence multiplies partial sums
        whose low-order terms cancel later, and a product is known only
        to one factor's cutoff plus the other factor's valuation.  The
        sparse rows handed over leave out only exact zeros, so a truncated
        zero, which may hide a term, keeps its entries in one block.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if not self._rows:
            return NovikovScalar.one()
        return determinant(
            [{j: x for j, x in enumerate(row) if not x.is_exact_zero()} for row in self._rows],
            NovikovScalar.zero(),
        )

    # -- elimination ---------------------------------------------------

    def rank_at_precision(self, precision):
        """Rank certified by the data modulo t**precision: the number of
        invariant factors below the precision, counted as the pivots of
        one elimination over the valuation ring at the working cutoff
        t**precision (_pivot_elimination, the library's one Novikov
        elimination).  Each pivot is least in its row and in its column
        among the rows and columns not yet eliminated, so its valuation
        is an invariant factor.

        Entries whose known terms all vanish below the precision count as
        zero when their cutoff reaches the precision.  One whose cutoff
        does not raises :class:`PrecisionExhaustedError` when a pivot
        decision rests on it; nothing is retried.
        """
        precision = _frac(precision)
        return len(_pivot_elimination(self._rows, precision, precision))

    def kernel_basis_at_precision(self, precision):
        """A basis of the right kernel modulo t**precision.

        One vector per free column of the elimination, with 1 at its own
        free column and 0 at the others, back-substituted from the pivot
        rows in reverse pivot order; entries are truncated scalars.  Each
        step divides by a pivot, so the pad of working cutoff above the
        precision is read off the pivots: the elimination runs at the
        precision, as for ``rank_at_precision``, and when the largest
        pivot valuation is positive it runs once more at the precision
        plus that valuation, on the pivot rows alone, since a row that
        takes no pivot reduces no other row.  Those rows have as many
        invariant factors below the precision, so the number of vectors
        is the number of columns less the rank.  Kernel vectors modulo
        t**precision are not unique, so this is one basis among many.
        Each vector is certified against the original rows before it is
        returned, so back-substitution cannot smuggle in one that visibly
        fails an equation.
        """
        precision = _frac(precision)
        slots = _pivot_elimination(self._rows, precision, precision)
        pad = max((pivot[1] for pivot in slots.values()), default=0)
        if pad > 0:
            pivot_rows = [self._rows[pivot[3]] for pivot in slots.values()]
            slots = _pivot_elimination(pivot_rows, precision, precision + pad)
        rows = [
            {j: x for j, x in enumerate(row) if not x.is_exact_zero()}
            for row in self._rows
        ]
        zero = NovikovScalar.zero()
        basis = []
        for free in (c for c in range(self.ncols) if c not in slots):
            values = {free: NovikovScalar.one()}
            # a pivot row holds no entry in the column of an earlier pivot,
            # so reverse pivot order only ever consumes assigned values
            for c in reversed(slots):
                total = _dot(slots[c][0], values)
                if not total.is_exact_zero():
                    values[c] = total * _lead_factor(slots[c], c)
            # no term at or past the precision decides a residual
            if not all(_dot(row, values, precision).is_zero_at(precision) for row in rows):
                raise PrecisionExhaustedError(
                    f"kernel candidate fails a row at precision t^({precision})"
                )
            basis.append(
                tuple(values.get(c, zero).truncate(precision) for c in range(self.ncols))
            )
        return basis

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(x) for x in row) for row in self._rows
        ) + "]"

    def __repr__(self):
        return f"NovikovMatrix({str(self)!r})"
