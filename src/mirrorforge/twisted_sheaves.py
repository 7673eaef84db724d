"""Modules over mirror charts twisted by exp of an obstruction.

A twisted module assigns a square matrix of affinoid elements to every
proper nested pair of faces.  Around a nested triple the composite of
two restriction matrices must differ from the direct one by exp of the
obstruction on the triangle of final charts; the validator measures the
residuals exactly and reports their t-adic norms.

Global sections are computed as the kernel, at a working precision, of
the edge comparison system over a finite monomial window.  The window
radius is read off the sheet recursions of the module, and every
equation of the system holds one or two unknowns, so each section space
comes from one walk over the components of the system's graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import add

from .affine import _int_vec, dot
from .errors import (
    ChartMismatchError,
    InvalidFibrationError,
    UndecidableDescriptionError,
)
from .intlinalg import determinant
from .mirror_charts import AffinoidElement, _exp_entry, _restriction_move, _unit_on
from .novikov import INF, NovikovMatrix, NovikovScalar, _frac


# -- matrices of affinoid elements ----------------------------------------


def _zero_on(cover, face):
    # the exact zero on a face, at its canonical basepoint
    return AffinoidElement._trusted(cover, face, cover.face_chart(face).basepoint, {})


def _is_exact_unit(element):
    terms = element.terms
    if len(terms) != 1:
        return False
    ((exponent, coeff),) = terms.items()
    return not any(exponent) and coeff.terms == ((0, 1),) and coeff.cutoff is None


def _aff_product(x, y):
    # x * y; a factor that is the exact unit on the other's chart gives
    # the other factor itself, with no product formed
    if x.face == y.face and x.basepoint == y.basepoint and x.cover is y.cover:
        if _is_exact_unit(x):
            return y
        if _is_exact_unit(y):
            return x
    return x * y


def _rows_product(a, b):
    """The product of two matrices held as sparse ``{column: entry}``
    rows, as sparse rows.

    Row i is the sum over k of a[i][k] times row k of b, so each entry
    adds its products in the column order of a's row, and an exact zero
    of either factor forms no product.  An entry all of whose products
    cancel is kept, with no terms.
    """
    out = []
    for row in a:
        total = {}
        for k, x in row.items():
            for j, y in b[k].items():
                p = _aff_product(x, y)
                total[j] = total[j] + p if j in total else p
        out.append(total)
    return tuple(out)


def _sparse_rows(mat):
    # the rows of a dense matrix as {column: entry} dicts of the entries
    # that are not exact zeros
    return tuple(
        {col: entry for col, entry in enumerate(row) if entry._terms} for row in mat
    )


def element_is_unit_at(element, precision):
    """Does one monomial strictly dominate the element on the whole
    polytope, with its leading coefficient known?"""
    precision = _frac(precision)
    terms = element.terms
    chart = element.cover.face_chart(element.face)
    vertices = chart.polytope.vertices
    q = element.basepoint
    known = [(a, c) for a, c in terms.items() if c.terms]
    for a0, c0 in known:
        v0 = c0.valuation()
        dominant = True
        for b, cb in terms.items():
            if b == a0:
                continue
            floor = cb._val_floor()
            for v in vertices:
                offset = tuple(x - y for x, y in zip(v, q))
                if not v0 + dot(offset, a0) < floor + dot(offset, b):
                    dominant = False
                    break
            if not dominant:
                break
        if dominant:
            return True
    return False


def _check_entry(cover, top, entry, what, noun):
    # a restriction or differential entry must be an affinoid element on
    # the top face, written at that face's canonical basepoint
    if not isinstance(entry, AffinoidElement):
        raise TypeError(f"{noun} entries must be affinoid elements")
    if entry.face != top:
        raise ChartMismatchError(f"{what} lives on face {entry.face}, expected {top}")
    if entry.basepoint != cover.face_chart(top).basepoint:
        raise ChartMismatchError(
            f"{noun} entries must use the canonical basepoint of their face"
        )


class TwistedModule:
    """Free module data on every face with restriction matrices for
    every proper nested pair.

    Each restriction is held in one form, as sparse rows: per row, a
    ``{column: entry}`` dict of the entries that are not exact zeros, in
    column order.  The validator's cocycle pass and determinants read
    these rows, so a diagonal slope-k line costs k entries per pair;
    ``restriction`` builds the dense k x k matrix from them on each call.
    """

    def __init__(self, fibration, rank, restrictions):
        cover = fibration.cover
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError("module rank must be a positive integer")
        required = cover.nested_pairs
        data = {}
        for key, mat in restrictions.items():
            low, top = tuple(sorted(key[0])), tuple(sorted(key[1]))
            data[(low, top)] = tuple(tuple(row) for row in mat)
        missing = [pair for pair in required if pair not in data]
        if missing:
            raise ChartMismatchError(
                f"missing restriction for nested pair {missing[0]}"
            )
        nested = set(required)
        extra = [pair for pair in data if pair not in nested]
        if extra:
            raise ChartMismatchError(
                f"restriction given for a pair that is not nested: {extra[0]}"
            )
        rows = {}
        for (low, top), mat in data.items():
            if len(mat) != rank or any(len(row) != rank for row in mat):
                raise ChartMismatchError(
                    f"restriction for {(low, top)} is not {rank} x {rank}"
                )
            what = f"entry for {(low, top)}"
            for row in mat:
                for entry in row:
                    _check_entry(cover, top, entry, what, "restriction")
            rows[(low, top)] = _sparse_rows(mat)
        self._fibration = fibration
        self._rank = rank
        self._rows = rows

    @classmethod
    def _trusted(cls, fibration, rank, rows):
        """Build a module from parts that are already valid.

        Nothing is checked.  The caller guarantees that rank is a
        positive int and that rows maps every nested pair of the cover,
        and nothing else, to a tuple of rank ``{column: entry}`` dicts
        holding exactly the entries that are not exact zeros, in column
        order, each an affinoid element on the pair's top face at its
        canonical basepoint.  Modules built by the library come through
        here; data from outside goes through ``__init__``.
        """
        self = object.__new__(cls)
        self._fibration = fibration
        self._rank = rank
        self._rows = dict(rows)
        return self

    @property
    def fibration(self):
        return self._fibration

    @property
    def cover(self):
        return self._fibration.cover

    @property
    def rank(self):
        return self._rank

    @property
    def pairs(self):
        return self.cover.nested_pairs

    def restriction(self, low, top):
        """The dense restriction matrix of a nested pair, or the identity
        of a face to itself, built from the sparse rows on each call; its
        entries that are exact zeros share one element."""
        low, top = tuple(sorted(low)), tuple(sorted(top))
        if low == top:
            one = AffinoidElement.one(self.cover, top)
            rows = tuple({i: one} for i in range(self._rank))
        else:
            rows = self._rows.get((low, top))
            if rows is None:
                raise ChartMismatchError(f"{(low, top)} is not a nested pair of faces")
        zero = _zero_on(self.cover, top)
        return tuple(tuple(row.get(j, zero) for j in range(self._rank)) for row in rows)

    def with_entry(self, low, top, row, col, element):
        """A copy with one restriction entry replaced.

        The pair must be nested, and row and col must be ints, not
        bools, in 0..rank-1; the entry is checked as the constructor
        checks it.  Each row keeps its entries in column order.
        """
        low, top = tuple(sorted(low)), tuple(sorted(top))
        pair = (low, top)
        sparse = self._rows.get(pair)
        if sparse is None:
            raise ChartMismatchError(f"{pair} is not a nested pair of faces")
        for name, index in (("row", row), ("column", col)):
            is_int = isinstance(index, int) and not isinstance(index, bool)
            if not is_int or not 0 <= index < self._rank:
                raise IndexError(
                    f"{name} {index!r} is outside 0..{self._rank - 1}"
                )
        _check_entry(self.cover, top, element, "replacement entry", "restriction")
        kept = {**sparse[row], col: element}
        kept = {c: kept[c] for c in sorted(kept) if kept[c]._terms}
        rows = dict(self._rows)
        rows[pair] = sparse[:row] + (kept,) + sparse[row + 1 :]
        return TwistedModule._trusted(self._fibration, self._rank, rows)


def rank_one_module_from_cochain(fibration, cochain):
    """The rank-1 module with restrictions exp of a degree-1 cochain.

    The entry of a pair depends only on the final chart a of its low
    face and on its top face, so each distinct entry is formed once: exp
    of the edge value on chart a, read off the cover's restriction move
    from chart a to the top face, or, when a is the top face's final
    chart, the unit, built trusted once per top face.
    """
    cover = fibration.cover
    if cochain.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    if cochain.cover is not cover and cochain.cover != cover:
        raise ChartMismatchError("the cochain lives on another cover")
    entries = {}
    rows = {}
    for low, top in cover.nested_pairs:
        a, b = low[-1], top[-1]
        entry = entries.get((a, top))
        if entry is None:
            if a == b:
                entry = _unit_on(cover, top)
            else:
                entry = _exp_entry(cover, top, a, cochain.value((a, b)))
            entries[(a, top)] = entry
        rows[(low, top)] = ({0: entry},)
    return TwistedModule._trusted(fibration, 1, rows)


def canonical_twisted_module(fibration):
    """The rank-1 module exp of a trivialising certificate.

    Only fibrations whose obstruction is a coboundary have one; others
    are refused.
    """
    from .cover import coboundary_certificate

    certificate = coboundary_certificate(fibration.obstruction_cocycle())
    if certificate is None:
        raise InvalidFibrationError(
            "the obstruction is not a coboundary, so no rank-1 "
            "twisted module exists"
        )
    return rank_one_module_from_cochain(fibration, certificate)


# -- validation -------------------------------------------------------------


@dataclass
class ValidationReport:
    """Exact residual audit of a twisted module."""

    ok: bool
    precision: Fraction
    rank: int
    pairs_checked: int
    triples_checked: int
    determinant_failures: tuple
    cocycle_failures: tuple

    def as_dict(self):
        return {
            "ok": self.ok,
            "precision": str(self.precision),
            "rank": self.rank,
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "determinant_failures": [
                [list(low), list(top)] for low, top in self.determinant_failures
            ],
            "cocycle_failures": [
                {
                    "chain": [list(low), list(mid), list(top)],
                    "norm_exponent": None if norm is INF else str(norm),
                }
                for (low, mid, top), norm in self.cocycle_failures
            ],
        }


def _monomial(element):
    # (exponent, valuation, coefficient) of an exact single-term
    # monomial, else None
    terms = element._terms
    if len(terms) == 1:
        ((a, c),) = terms.items()
        if c._cutoff is None and len(c._terms) == 1:
            return (a, *c._terms[0])
    return None


def _monomial_keys(module):
    """The module's rows and twist factors read as int keys, once per
    call of validate_module: (D, keys, twists).

    keys maps each nested pair to its rows as (column, exponent,
    valuation times D, coefficient numerator, denominator), or to None
    unless each row is one exact single-term monomial in a column no
    other row uses; twists maps each chain to its factor as (exponent,
    valuation times D, numerator, denominator), or to None.  D is the
    least common multiple of the scaling d of the cover's
    restriction_moves and of every keyed valuation's denominator."""
    read = {}
    for pair, rows in module._rows.items():
        monomials = []
        for row in rows:
            if len(row) != 1:
                break
            ((j, entry),) = row.items()
            monomial = _monomial(entry)
            if monomial is None:
                break
            monomials.append((j, monomial))
        else:
            if len({j for j, _ in monomials}) == len(monomials):
                read[pair] = monomials
    factors = {chain: _monomial(x) for chain, x in module.fibration.twist_factors.items()}
    scale = lcm(
        module.cover.restriction_moves[0],
        *{m[1].denominator for monomials in read.values() for _, m in monomials},
        *{m[1].denominator for m in factors.values() if m is not None},
    )

    def key(a, v, c):
        return a, v.numerator * (scale // v.denominator), c.numerator, c.denominator

    keys = dict.fromkeys(module._rows)
    for pair, monomials in read.items():
        keys[pair] = tuple((j, *key(*m)) for j, m in monomials)
    twists = {chain: m and key(*m) for chain, m in factors.items()}
    return scale, keys, twists


def _keys_agree(inner, outer, direct, twist, move, scale):
    """Does outer times inner carried along move equal twist times
    direct, entry for entry, read off the int keys of _monomial_keys?

    Row r of outer holds x2 = c2 t^v2 z^A2 in column k alone, and row k
    of inner x1 = c1 t^v1 z^A1 in column j alone, so row r of the left
    side is the one entry c1 c2 t^(v1 + v2 + <offset, A1>) z^(A2 + mt A1)
    in column j; the right side's is the twist times the entry of row r
    of direct.  offset is shift/d for the move's (shift, d), and d is the
    cover's scaling at a canonical basepoint, which scale is a multiple
    of.  A pair or twist with no keys gives False.
    """
    if inner is None or outer is None or direct is None or twist is None:
        return False
    at, vt, nt, dt = twist
    mt, shift, d, _ = move
    up = scale // d
    for (k, a2, v2, n2, d2), (j, a3, v3, n3, d3) in zip(outer, direct):
        j1, a1, v1, n1, d1 = inner[k]
        if (
            j1 != j
            or v1 + v2 + dot(shift, a1) * up != vt + v3
            or n1 * n2 * dt * d3 != nt * n3 * d1 * d2
            or tuple(x + dot(row, a1) for x, row in zip(a2, mt)) != tuple(map(add, at, a3))
        ):
            return False
    return True


def validate_module(module, precision, stop_early=False):
    """Check the twisted cocycle identity and invertibility at a
    working precision.

    With stop_early the scan returns at the first failure, for callers
    that only need the accept/reject decision; the report then counts
    the chains and pairs examined up to it.

    The module's own sparse rows are trusted and read once per call as
    int keys (_monomial_keys): a pair whose every row is one exact
    single-term monomial, in a column no other row uses, is keyed by
    column, exponent, valuation on one common scale D and coefficient,
    and each twist is read the same way.  A chain whose three pairs and
    twist have keys is decided on them (_keys_agree): the entries of the
    low pair are carried to the top face along the cover's restriction
    move, worked out once per (mid, top) pair in each call on the
    cover's integer scaling, so the left side's key is a sum of ints.
    Equal keys mean equal exact elements, whose difference is the exact
    zero at every precision, so the chain holds with nothing formed.
    Every other chain forms both sides as sparse rows (_rows_product),
    so an exact zero of the module forms no product, and a residual and
    its norm: a truncated coefficient has no key, so precision runs out
    exactly where it does on the residual.  The residual holds the
    entries where either side has one, in row-major order: every other
    entry of the dense residual is 0 - 0, which is zero at any precision
    and has norm INF, so the verdict and the norm are the dense ones.

    A pair with keys is a generalised permutation matrix whose nonzero
    entries are exact single-term monomials c t^v z^A.  Its determinant
    is the sign of the permutation times their product, one exact
    monomial with nonzero coefficient, and element_is_unit_at accepts an
    exact monomial at every precision: it is the only term, so nothing
    can dominate it.  So the pair is counted and no determinant is
    formed.  Other pairs take intlinalg.determinant on the same rows, so
    a diagonal restriction costs the product of its entries.
    """
    precision = _frac(precision)
    cover = module.cover
    rows = module._rows
    factors = module.fibration.twist_factors
    scale, keys, twists = _monomial_keys(module)
    moves = {}
    cocycle_failures = []
    chains = 0
    for chain in cover.nested_chains:
        low, mid, top = chain
        chains += 1
        move = moves.get((mid, top))
        if move is None:
            basepoint = cover.face_chart(mid).basepoint
            move = moves[(mid, top)] = _restriction_move(cover, mid, basepoint, top)
        if _keys_agree(
            keys[(low, mid)], keys[(mid, top)], keys[(low, top)], twists[chain], move, scale
        ):
            continue
        restricted = tuple(
            {j: entry._restricted(top, move) for j, entry in row.items()}
            for row in rows[(low, mid)]
        )
        left = _rows_product(rows[(mid, top)], restricted)
        twist = factors[chain]
        right = tuple(
            {j: _aff_product(twist, entry) for j, entry in row.items()}
            for row in rows[(low, top)]
        )
        zero = _zero_on(cover, top)
        residual = [
            row_l.get(j, zero) - row_r.get(j, zero)
            for row_l, row_r in zip(left, right)
            for j in sorted(row_l.keys() | row_r.keys())
        ]
        if not all(entry.is_zero_at(precision) for entry in residual):
            norm = min((entry.valuation_lower_bound() for entry in residual), default=INF)
            cocycle_failures.append((chain, norm))
            if stop_early:
                break
    det_failures = []
    pairs = 0
    if not (stop_early and cocycle_failures):
        zeros = {}
        for pair in cover.nested_pairs:
            pairs += 1
            if keys[pair] is not None:
                continue
            top = pair[1]
            zero = zeros.get(top)
            if zero is None:
                zero = zeros[top] = _zero_on(cover, top)
            det = determinant(rows[pair], zero)
            if not element_is_unit_at(det, precision):
                det_failures.append(pair)
                if stop_early:
                    break
    return ValidationReport(
        ok=not det_failures and not cocycle_failures,
        precision=precision,
        rank=module.rank,
        pairs_checked=pairs,
        triples_checked=chains,
        determinant_failures=tuple(det_failures),
        cocycle_failures=tuple(cocycle_failures),
    )


# -- global sections --------------------------------------------------------


class SectionSpace:
    """Kernel of the edge comparison system at a working precision.

    window is the monomial radius the system was solved at.  The space
    holds the survivors of _walk_window, the components of the system's
    graph it keeps, in walk order, and rank is their number.  Each grows
    from a lam = 0 seed and holds only lam >= 0, and no two share a
    node, so their t^0 coefficients sit on pairwise disjoint, nonempty
    sets of sources: the residue matrix has full row rank, every
    elementary divisor is a unit (Kaplansky, Trans. AMS 66, 1949), and
    the sections stay independent modulo t^p for every p > 0.  So
    ranks[p - 1], the rank modulo t^p of the sections for p from 1 to the
    integer part of the working precision, is rank at every p, and is
    derived, not stored; below precision 1 it is empty.  Read off the
    sections rather than off the system cut at p, they do not count the
    tower segments that a wider window grounds below p.

    sections are assembled from the survivors on first read: a slope-k
    line has k of them, each with a k-tuple per chart, and the rank,
    window and threshold need none of it.
    """

    def __init__(self, module, precision, window, scale, survivors):
        self.precision = precision
        self.window = window
        self._module = module
        self._scale = scale
        self._survivors = survivors
        self._sections = None

    @property
    def rank(self):
        return len(self._survivors)

    @property
    def sections(self):
        if self._sections is None:
            self._sections = _assemble_sections(self._module, self._scale, self._survivors)
        return self._sections

    def _fields(self):
        return (self.rank, self.precision, self.window, self.sections)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return (
            f"SectionSpace(rank={self.rank!r}, precision={self.precision!r}, "
            f"window={self.window!r}, sections={self.sections!r})"
        )

    @property
    def ranks(self):
        return (self.rank,) * int(self.precision)

    @property
    def threshold(self):
        """Least integer precision from which the rank at every integer
        precision equals the rank at the integer part of the working
        precision; 0 when the working precision is below 1."""
        return _threshold(self.precision)


def _threshold(precision):
    # ranks is constant, so the threshold is 1 wherever ranks is not empty
    return min(1, int(precision))


def _window_exponents(dimension, radius):
    return sorted(product(range(-radius, radius + 1), repeat=dimension))


def _walk_window(module, monomials, radius, precision):
    """Ground kernel vectors of the edge comparison system over the
    radius-r monomial window at the working precision, from one walk per
    sheet over the system's graph, as (scale, survivors).

    A section coefficient lives at a source (chart, exponent) on a
    sheet.  Restricting to an edge carries it to the edge monomial
    z^target on the same sheet, shifting its valuation by the anchor
    move of the chart transition plus the valuation of the sheet's
    monomial, and scaling it by the monomial's coefficient, signed by
    the side of the edge.  Each (chart, edge) side reads its move off the
    cover's edge_sides, built once per cover on one integer scale, and
    its sheets off monomials, the module's _edge_monomials, which are
    diagonal: every equation stays on one sheet.  A call rescales the
    cover's ints to scale, the common denominator of the precision and
    the valuations, moves each side's sources to the edge once, and then
    builds, walks and drops the graph of one sheet at a time.

    One unknown per node (source, lam) of a sheet: the coefficient of
    t^(lam/scale) z^a there, for lam >= 0.  An equation is asserted for
    every reachable edge coefficient whose valuation mu plus the weight
    of its exponent sits below the precision, which is what vanishing of
    the residual means; a hop landing below lam = 0 or outside the window
    contributes nothing, which pins towers whose valuations keep falling.

    A sheet hops to one edge coefficient per side and a source meets
    each edge once, so an equation holds one or two unknowns: the kernel
    is one vector per component of the graph that no one-unknown
    equation pins and that reaches no node with two values.  The walk
    grows each component breadth-first from its lam = 0 seeds, where a
    solution scaled to least valuation zero keeps its lowest coefficient,
    carrying x across c x + c' x' = 0 as x' = -c x / c', and stops at the
    first pin or conflict, marking what it reached dead so that a later
    walk into it dies too.  A survivor, walked whole, is scaled to 1 at
    its largest node and kept as (sheet, nodes), its (source, lam, value)
    nodes running down from there, and survivors come in order of that
    node: the reduced echelon kernel basis over the nodes (source, sheet,
    lam) in sorted order, one vector per free column.
    """
    cover = module.cover
    exponents = _window_exponents(cover.dimension, radius)
    charts = sorted({i for i, _ in monomials})
    sources = list(product(charts, exponents))
    count = len(sources)
    d, corners, sides = cover.edge_sides
    scale = lcm(
        d,
        precision.denominator,
        *(v.denominator for sheets in monomials.values() for _, v, _ in sheets),
    )
    up = scale // d
    bound = precision.numerator * (scale // precision.denominator)
    moves = []
    for (edge, i), (sign, mt, offset) in sides.items():
        base = [x * up for x in offset]
        moved = [([dot(row, a) for row in mt], dot(a, base)) for a in exponents]
        moves.append((edge, sign, monomials[(i, edge)], charts.index(i) * len(exponents), moved))
    # the limit on mu of an equation depends on the edge coefficient's
    # exponent alone, so each (edge, cexp) takes its corner minimum once
    # for all sheets
    floors = {}
    survivors = []
    for j in range(module.rank):
        feeds = {}
        for edge, sign, sheets, first, moved in moves:
            b, v, c = sheets[j]
            v = v.numerator * (scale // v.denominator)
            c = sign * (c.numerator if c.denominator == 1 else c)
            for n, (m, lift) in enumerate(moved, first):
                feeds.setdefault((edge, tuple(map(add, m, b))), []).append((n, lift + v, c))
        # a node (n, lam) is the int lam * count + n; per source, each
        # equation as (cap, step, -c / c'): it is asserted from a node
        # below cap, and its other unknown is the node plus step, which a
        # pin sets below 0
        arcs = [[] for _ in sources]
        for key, ends in feeds.items():
            limit = floors.get(key)
            if limit is None:
                edge, cexp = key
                limit = floors[key] = bound - up * min(dot(v, cexp) for v in corners[edge])
            if len(ends) == 1:
                ((n, shift, _),) = ends
                cap = (limit - shift) * count + n
                arcs[n].append((cap, -cap - 1, 0))
            else:
                (n, shift, c), (n2, shift2, c2) = ends
                step = (shift - shift2) * count
                arcs[n].append(((limit - shift) * count + n, step + n2 - n, _ratio(c, c2)))
                arcs[n2].append(((limit - shift2) * count + n2, n - n2 - step, _ratio(c2, c)))
        values = {}  # a dead node holds None
        for seed in range(count):
            if seed in values:
                continue
            values[seed] = 1
            component = [seed]
            for node in component:
                x = values[node]
                for cap, step, ratio in arcs[node % count]:
                    if node >= cap:
                        continue
                    other = node + step
                    if other not in values and other >= 0:
                        values[other] = x * ratio
                        component.append(other)
                    elif values.get(other) != x * ratio:
                        break  # pinned, below lam = 0, dead, or a second value
                else:
                    continue
                values.update(dict.fromkeys(component))  # the component dies
                break
            else:
                component.sort(key=lambda node: (node % count, node), reverse=True)
                unit = _ratio(-1, values[component[0]])  # 1 over the largest node's value
                nodes = [
                    (sources[node % count], node // count, values[node] * unit)
                    for node in component
                ]
                survivors.append((j, nodes))
    survivors.sort(key=lambda survivor: (survivor[1][0][0], survivor[0], survivor[1][0][1]))
    return scale, survivors


def _ratio(c, c2):
    # -c / c2 for nonzero ints or Fractions, an int where it is integral
    if c2 in (1, -1):
        return -c * c2
    q = -Fraction(c) / c2
    return q.numerator if q.denominator == 1 else q


def _assemble_sections(module, scale, survivors):
    # a survivor holds each (source, lam) of its sheet once, with a
    # nonzero value, so a slot's terms sorted by lam are a scalar's normal
    # form; every chart's slots start as one shared zero element, and the
    # elements are built trusted on int exponents
    cover = module.cover
    charts = range(len(cover.chart_ids))
    basepoints = [cover.face_chart((i,)).basepoint for i in charts]
    zeros = [_zero_on(cover, (i,)) for i in charts]
    sections = []
    for j, nodes in survivors:
        slots = {}
        for (i, a), lam, c in nodes:
            slots.setdefault(i, {}).setdefault(a, []).append((lam, c))
        columns = [[zero] * module.rank for zero in zeros]
        for i, terms in slots.items():
            scalars = {
                a: NovikovScalar._trusted(
                    tuple((Fraction(lam, scale), Fraction(c)) for lam, c in sorted(pairs)), None
                )
                for a, pairs in terms.items()
            }
            columns[i][j] = AffinoidElement._trusted(cover, (i,), basepoints[i], scalars)
        sections.append({i: tuple(columns[i]) for i in charts})
    return tuple(sections)


# -- the certified section radius ----------------------------------------------


@dataclass(frozen=True)
class SheetMonodromy:
    """Action of the base loop on one sheet's coefficient tower:
    a[m + shift] = T^(constant + weight*m) * a[m]."""

    shift: int
    constant: Fraction
    weight: Fraction


def _edge_monomials(module):
    """(exponent, valuation, coefficient) of the diagonal entries of
    every chart to edge restriction, keyed by (chart, edge), read off
    the module's sparse rows.

    These are the entries the edge comparison system reads.  A module
    with an entry there that is not a single monomial, or with a nonzero
    entry off the diagonal, has no recognised coefficient tower and is
    refused with UndecidableDescriptionError.
    """
    monomials = {}
    rows = module._rows
    for edge in module.cover.faces_of_degree(1):
        for i in edge:
            sheets = []
            for r, row in enumerate(rows[((i,), edge)]):
                entry = row.get(r)
                if entry is not None and len(row) == 1 and len(entry._terms) == 1:
                    ((exponent, coeff),) = entry._terms.items()
                    if len(coeff.terms) == 1:
                        sheets.append((exponent, *coeff.terms[0]))
                        continue
                raise UndecidableDescriptionError(
                    f"no recognised coefficient tower: the restriction "
                    f"of chart {i} to edge {edge} is not diagonal with "
                    "single-monomial entries"
                )
            monomials[(i, edge)] = tuple(sheets)
    return monomials


def loop_monodromy(module, loop=None):
    """Compose the sheet recursions around a loop of charts.

    The default loop walks 0, 1, ..., n-1 and closes back to 0.  For
    the slope-k line each sheet comes back with shift sign(k) and
    weight one, the signature of a degree-k line on the mirror curve.
    A step between two charts that share no edge, or to a chart index
    the cover does not have, raises ChartMismatchError, and so does a
    base that is not one-dimensional; then a loop that is empty or does
    not end on its first chart raises ValueError.
    """
    cover = module.cover
    if cover.dimension != 1:
        raise ChartMismatchError("loop monodromy needs a one-dimensional base")
    if loop is not None:
        for a, b in zip(loop, loop[1:]):
            cover.transition(a, b)  # an index off the cover or a non-edge raises here
            if a == b:
                ids = cover.chart_ids
                raise ChartMismatchError(
                    f"charts {ids[a]!r} and {ids[b]!r} do not share an edge"
                )
        if not loop or loop[-1] != loop[0]:
            raise ValueError("a loop of charts must end on its first chart")
    d, sheets = _compose_loop(module, _edge_monomials(module), loop)
    return tuple(
        SheetMonodromy(shift, Fraction(constant, d), Fraction(weight, d))
        for shift, constant, weight in sheets
    )


def _compose_loop(module, monomials, loop=None):
    """loop_monodromy on the module's _edge_monomials, on ints: (d,
    sheets) with one (shift, C, W) per sheet, whose constant is C/d and
    weight W/d.

    d is the least common multiple of the scale of the cover's
    edge_sides, whose offsets are the edge basepoints moved into each
    member chart, and of the denominators of the valuations of the edge
    monomials the loop crosses.
    """
    cover = module.cover
    dc, _, sides = cover.edge_sides
    if loop is None:
        loop = list(range(len(cover.chart_ids))) + [0]
    steps = [(a, b, tuple(sorted((a, b)))) for a, b in zip(loop, loop[1:])]
    d = lcm(
        dc,
        *(
            v.denominator
            for a, b, edge in steps
            for i in (a, b)
            for _, v, _ in monomials[(i, edge)]
        ),
    )
    up = d // dc
    state = [(0, 0, 0)] * module.rank
    for a, b, edge in steps:
        ta, tb = (sides[(edge, i)][2][0] * up for i in (a, b))
        weight = ta - tb
        for j, (((ea,), va, _), ((eb,), vb, _)) in enumerate(
            zip(monomials[(a, edge)], monomials[(b, edge)])
        ):
            shift = ea - eb
            constant = (
                va.numerator * (d // va.denominator)
                - vb.numerator * (d // vb.denominator)
                - tb * shift
            )
            s, c, w = state[j]
            state[j] = (s + shift, c + constant + weight * s, w + weight)
    return d, state


def _quadratic_radius(bound, bound_den, precision, precision_den):
    """ceil(b) + ceil(sqrt(ceil(b^2 + 2*p))), an integer at least the
    positive root of m^2/2 - b*m = p, for b = bound/bound_den and p =
    precision/precision_den with positive int denominators."""
    n = -(
        -(bound * bound * precision_den + 2 * precision * bound_den * bound_den)
        // (bound_den * bound_den * precision_den)
    )
    root = isqrt(n)
    if root * root < n:
        root += 1
    return -(-bound // bound_den) + root


def _zero_tower_closes(cover, monomials):
    """Do the z^0 entry valuations of a rank-one module add up to zero
    around every loop of charts?

    Crossing edge (i, j) moves a z^0 coefficient from valuation lam on
    chart i to lam + v(i) - v(j) on chart j; the tower closes when these
    steps have a potential on the charts.
    """
    steps = {}
    for i, j in cover.faces_of_degree(1):
        ((_, vi, _),), ((_, vj, _),) = monomials[(i, (i, j))], monomials[(j, (i, j))]
        steps.setdefault(i, []).append((j, vi - vj))
        steps.setdefault(j, []).append((i, vj - vi))
    level = {}
    for start in range(len(cover.chart_ids)):
        if start in level:
            continue
        level[start] = Fraction(0)
        queue = [start]
        for i in queue:
            for j, step in steps.get(i, ()):
                reached = level[i] + step
                if j not in level:
                    level[j] = reached
                    queue.append(j)
                elif level[j] != reached:
                    return False
    return True


def section_radius(module, precision):
    """Monomial window radius that holds every section coefficient below
    the precision, read off the sheet recursions of the module.

    Two kinds of module have one, and both need every chart to edge
    restriction diagonal with single-monomial entries (_edge_monomials):

    - Rank one with every edge entry z^0, whose valuations add up to
      zero around every loop of charts: the exponent-zero tower closes
      on itself and no hop leaves exponent zero, so the radius-0 system
      holds it whole.  A tower at a nonzero exponent a picks up the
      pairing of a with the loop's period, so none closes: radius 0.
      The canonical module of a fibration and its twists by constant
      coboundaries are of this kind.
    - On a circle cover, every sheet with a nonzero loop shift s: its
      coefficients obey a[m + s] = T^(c + w*m) a[m], a parabola in m of
      curvature w/s with its vertex at m* = s/2 - c/w.  With bound
      |s| + |m* - s|, at least |m*|, the radius is the rounded root of
      m^2/2 - bound*m = precision*|s/w|: beyond it every coefficient of
      a rising tower (w/s > 0) sits at least the precision above the
      tower's least one; a falling tower has no least coefficient and
      carries no section, and the same radius bounds the window that
      pins it to zero.  For the slope-k line |s| = w = 1 and m* - s is the fibre
      coordinate (offset + j)/|k| of sheet j, so this is section_window.

    Any other module raises UndecidableDescriptionError, and a precision
    that is not positive raises ValueError.
    """
    return _certified_radius(
        module, _edge_monomials(module), _positive_precision(precision)
    )


def _positive_precision(precision):
    # the CLI's rule for a working precision
    precision = _frac(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    return precision


def _certified_radius(module, monomials, precision):
    # section_radius on the module's _edge_monomials, at a Fraction precision
    cover = module.cover
    if module.rank == 1 and all(
        not any(exponent) for ((exponent, _, _),) in monomials.values()
    ):
        if _zero_tower_closes(cover, monomials):
            return 0
    elif cover.dimension == 1:
        # with constant C/d and weight W/d, the bound |s| + |c/w + s/2| is
        # (2|sW| + |2C + sW|) / 2|W| and the target precision*|s/w| is
        # precision*|s|*d / |W|
        d, sheets = _compose_loop(module, monomials)
        if all(s and w for s, _, w in sheets):
            p, pd = precision.numerator, precision.denominator
            return max(
                _quadratic_radius(
                    2 * abs(s * w) + abs(2 * c + s * w),
                    2 * abs(w),
                    p * abs(s) * d,
                    pd * abs(w),
                )
                for s, c, w in sheets
            )
    raise UndecidableDescriptionError(
        "no certified section radius: the coefficient towers of this module "
        "neither close at exponent zero nor shift around a circle"
    )


def _certified_window(module, precision, max_window, min_window):
    # checked arguments, _edge_monomials and the radius for both callers
    precision = _positive_precision(precision)
    for name, value in (("min_window", min_window), ("max_window", max_window)):
        if (isinstance(value, bool) or not isinstance(value, int)) and (
            value is not None or name == "min_window"
        ):
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    monomials = _edge_monomials(module)
    certified = _certified_radius(module, monomials, precision)
    radius = max(certified, min_window)
    if max_window is not None and radius > max_window:
        raise ValueError(
            f"the window radius {radius} exceeds max_window={max_window}: the "
            f"certified section radius is {certified}, min_window={min_window}"
        )
    return precision, monomials, radius


def global_sections(module, precision, max_window=None, min_window=0):
    """Sections over the whole cover, modulo the working precision.

    Solves the edge comparison system over rational monomial unknowns
    of valuation below the precision (plus edge headroom), and takes
    every solution scaled to least valuation zero as a section.  The
    monomial window has the radius section_radius certifies, or
    min_window if that is larger; a radius above max_window raises
    ValueError, and a window argument that is not an int (max_window may
    be None) TypeError.  The module's _edge_monomials are read once, for
    the radius and the walk, and the system is solved by one walk over
    its graph (_walk_window).

    The walk keeps one vector per surviving component, and these are
    independent over the series field and modulo t^p for every p > 0
    (see SectionSpace): the rank is their count, with no elimination,
    and the space derives its ranks and stabilisation threshold from the
    rank and the precision.  Below precision 1 there is no integer
    precision to compare: the ranks are empty and the threshold is 0.  A
    precision that is not positive raises ValueError.
    """
    precision, monomials, radius = _certified_window(
        module, precision, max_window, min_window
    )
    scale, survivors = _walk_window(module, monomials, radius, precision)
    return SectionSpace(module, precision, radius, scale, survivors)


def stabilisation_threshold(module, precision, max_window=None, min_window=0):
    """Least integer precision from which the section rank stays put
    all the way up to the integer part of the requested one; 0 below
    precision 1.  Refuses what global_sections refuses, with no walk: the
    rank is the same at every integer precision (see SectionSpace)."""
    precision, _, _ = _certified_window(module, precision, max_window, min_window)
    return _threshold(precision)


# -- complexes and fibers ----------------------------------------------------


class ModuleComplex:
    """A finite complex of free modules on one face chart with affinoid
    differentials squaring to zero exactly."""

    def __init__(self, cover, face, ranks, differentials):
        self._cover = cover
        self._face = tuple(sorted(face))
        _int_vec([*ranks, *differentials], "complex degrees")
        clean_ranks = {}
        for degree, rank in ranks.items():
            if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
                raise ValueError("ranks must be nonnegative integers")
            if rank:
                clean_ranks[degree] = rank
        self._ranks = clean_ranks
        diffs = {}
        for degree, mat in differentials.items():
            mat = tuple(tuple(row) for row in mat)
            n_src = clean_ranks.get(degree, 0)
            n_tgt = clean_ranks.get(degree + 1, 0)
            if len(mat) != n_tgt or any(len(row) != n_src for row in mat):
                raise ValueError(
                    f"differential out of degree {degree} has the wrong shape"
                )
            what = f"differential entry out of degree {degree}"
            for row in mat:
                for entry in row:
                    _check_entry(cover, self._face, entry, what, "differential")
            if n_src and n_tgt:
                diffs[degree] = mat
        self._differentials = diffs
        for degree, mat in diffs.items():
            nxt = diffs.get(degree + 1)
            if nxt is None:
                continue
            square = _rows_product(_sparse_rows(nxt), _sparse_rows(mat))
            if any(entry._terms for row in square for entry in row.values()):
                raise ValueError("differentials do not square to zero")

    def fiber_cohomology(self, point, precision):
        """Ranks of cohomology of the complex evaluated at one mirror
        point, at a working precision."""
        precision = _frac(precision)
        out_rank = {}
        for degree, mat in self._differentials.items():
            rows = [[entry.evaluate(point) for entry in row] for row in mat]
            out_rank[degree] = NovikovMatrix(rows).rank_at_precision(precision)
        result = {}
        for degree, rank in self._ranks.items():
            result[degree] = (
                rank
                - out_rank.get(degree, 0)
                - out_rank.get(degree - 1, 0)
            )
        return result


fiber_cohomology = ModuleComplex.fiber_cohomology
