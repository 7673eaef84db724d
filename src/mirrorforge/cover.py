"""Covers of an integral affine base with a declared nerve.

A cover lists charts in a fixed order, the simplicial faces of its
nerve (tuples of chart indices, closed under subsets), one overlap
polytope per face, and one unimodular transition per edge.  The
polytope of a face is always expressed in the coordinates of the face's
least chart, and every chart-level value follows the same convention.

On top of the raw cover sit affine Cech cochains, fibration primitives
of degree at most 2, the degree-two obstruction cochain they induce,
and the solver that decides whether that obstruction is a coboundary of
affine functions with integral differentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from .affine import (
    AffineFunction,
    IntegralAffineMap,
    PolyFunction,
    _int_vec,
    dot,
    integer_scaling,
)
from .errors import ChartMismatchError, InvalidCoverError, InvalidFibrationError
from .intlinalg import PresolvedIntegerSystem, SparseRationalSystem


@dataclass(frozen=True)
class FaceChart:
    """A nerve face with its overlap geometry.

    ``ambient`` is the index of the least chart of the face; the
    polytope and basepoint are expressed in that chart's coordinates.
    """

    face: tuple
    ambient: int
    polytope: object
    basepoint: tuple


class _Directed(dict):
    """An edge transition table with both directions filled in."""


def _directed_transitions(transitions):
    """Both directions of every edge transition, keyed by ordered pair.

    ``transitions`` maps increasing index pairs to the map from the
    lower chart to the higher one; each reverse map is inverted once.  A
    table this function built is returned as it is.
    """
    if isinstance(transitions, _Directed):
        return transitions
    out = _Directed()
    for (i, j), phi in transitions.items():
        i, j = _int_vec((i, j), "transition keys")
        if i >= j:
            raise InvalidCoverError(
                f"transitions must be keyed by increasing pairs, got ({i},{j})"
            )
        out[(i, j)] = phi
        out[(j, i)] = phi.inverse()
    return out


class Cover:
    """Charts, nerve, overlap polytopes, and transitions.

    Tables derived from these (face charts, nested face pairs and
    chains, restriction moves, the edge sides of the section walk, the
    edge transports, the certificate system) are cached properties, each
    built once per cover on first use.
    """

    def __init__(self, dimension, chart_ids, faces, polytopes, transitions):
        self._read(dimension, chart_ids, faces, polytopes, transitions)
        self._validate()

    @classmethod
    def _of_intersections(cls, dimension, chart_ids, faces, polytopes, transitions):
        """The cover whose face polytopes ``face_polytopes_from_charts``
        built as chart intersections, given both directions of every
        transition: every check of ``_validate`` runs but the sub-face
        containment pass, which cannot fail on such a cover.

        Proof.  The polytope of a face F with least chart l is the
        intersection X_F of the images phi_(m->l)(P_m) over the charts m
        of F: its vertices are exact points of X_F, and every point of X_F
        meets its halfspaces.  Take a sub-face G of F with least chart l'
        and a vertex p of F's polytope.  If l' = l, X_G intersects fewer
        of the same sets, so it holds p.  Otherwise G = F - {l}, and for
        each chart m of G other than l' the closed nerve holds the
        triangle {l, l', m}, whose cocycle identity was checked; with the
        exact inverse of each transition it gives phi_(l->l') o
        phi_(m->l) = phi_(m->l'), as the inverse alone does for m = l'.
        So phi_(l->l')(p) lies in phi_(m->l')(P_m) for every m of G, that
        is in X_G, and meets G's halfspaces.
        """
        self = object.__new__(cls)
        self._read(dimension, chart_ids, faces, polytopes, transitions)
        self._validate_nerve_and_cocycle()
        return self

    def _read(self, dimension, chart_ids, faces, polytopes, transitions):
        (self._dimension,) = _int_vec((dimension,), "cover dimensions")
        self._chart_ids = tuple(str(c) for c in chart_ids)
        if len(set(self._chart_ids)) != len(self._chart_ids):
            raise InvalidCoverError("duplicate chart ids")
        normalized = set()
        for face in faces:
            face = tuple(sorted(set(_int_vec(face, "face indices"))))
            if not face:
                raise InvalidCoverError("empty face")
            if face[-1] >= len(self._chart_ids) or face[0] < 0:
                raise InvalidCoverError(f"face {face} names a missing chart")
            normalized.add(face)
        self._faces = frozenset(normalized)
        by_degree = {}
        for face in self._faces:
            by_degree.setdefault(len(face) - 1, []).append(face)
        self._by_degree = {m: tuple(sorted(fs)) for m, fs in by_degree.items()}
        self._polytopes = {
            tuple(sorted(set(face))): poly for face, poly in polytopes.items()
        }
        self._transitions = _directed_transitions(transitions)
        self._identity = IntegralAffineMap.identity(self._dimension)

    # -- validation ----------------------------------------------------

    def _validate_nerve_and_cocycle(self):
        # every check but containment: the nerve, a polytope per face and a
        # transition per edge, and the cocycle identity on each triangle
        n = len(self._chart_ids)
        for i in range(n):
            if (i,) not in self._faces:
                raise InvalidCoverError(
                    f"chart {self._chart_ids[i]!r} missing from the nerve"
                )
        for face in self._faces:
            if len(face) >= 2:
                for k in range(len(face)):
                    sub = face[:k] + face[k + 1 :]
                    if sub not in self._faces:
                        raise InvalidCoverError(
                            f"nerve not closed under subsets: {face} lacks {sub}"
                        )
        for face in self._faces:
            poly = self._polytopes.get(face)
            if poly is None:
                raise InvalidCoverError(f"face {self._fmt(face)} has no polytope")
            if poly.dimension != self._dimension:
                raise InvalidCoverError(
                    f"polytope of {self._fmt(face)} has wrong dimension"
                )
        for face in self._polytopes:
            if face not in self._faces:
                raise InvalidCoverError(f"polytope keyed by {face}, not a face of the nerve")
        for edge in self.faces_of_degree(1):
            phi = self._transitions.get(edge)
            if phi is None:
                raise InvalidCoverError(
                    f"edge {self._fmt(edge)} has no transition"
                )
            if phi.dimension != self._dimension:
                raise InvalidCoverError(
                    f"transition on {self._fmt(edge)} has wrong dimension"
                )
        # phi_jk o phi_ij = phi_ik on ints: M_jk M_ij = M_ik and M_jk tau_ij
        # + tau_jk = tau_ik, the translations times the cover's scaling
        taus = self._scaled[3]
        for tri in self.faces_of_degree(2):
            i, j, k = tri
            ij, jk, ik = self._transitions[i, j], self._transitions[j, k], self._transitions[i, k]
            columns = tuple(zip(*ij.linear))
            holds = all(
                tuple(dot(row, col) for col in columns) == target
                and dot(row, taus[i, j]) + t == s
                for row, target, t, s in zip(jk.linear, ik.linear, taus[j, k], taus[i, k])
            )
            if not holds:
                raise InvalidCoverError(
                    f"transitions fail the cocycle identity on {self._fmt(tri)}"
                )

    def _validate(self):
        self._validate_nerve_and_cocycle()
        # n.y <= b on a sub-face, y = M x + tau, reads (M^T n).x <= b - n.tau
        # in the face's chart, with the whole cover on one integer scaling
        _, lines, corners, taus = self._scaled
        for face in self._faces:
            if len(face) < 2:
                continue
            for k in range(len(face)):
                sub = face[:k] + face[k + 1 :]
                pulled = lines[sub]
                if sub[0] != face[0]:
                    phi, tau = self._transitions[face[0], sub[0]], taus[face[0], sub[0]]
                    columns = tuple(zip(*phi.linear))
                    pulled = [
                        (tuple(dot(col, n) for col in columns), b - dot(n, tau))
                        for n, b in pulled
                    ]
                if not all(dot(n, p) <= b for p in corners[face] for n, b in pulled):
                    raise InvalidCoverError(
                        f"overlap of {self._fmt(face)} is not inside "
                        f"that of {self._fmt(sub)}"
                    )

    def _fmt(self, face):
        return "{" + ",".join(self._chart_ids[i] for i in face) + "}"

    def _not_a_face(self, face):
        # the refusal of a face the cover lacks, naming an index off the cover
        n = len(self._chart_ids)
        for k in face:
            if not 0 <= k < n:
                return ChartMismatchError(f"chart index {k} is outside 0..{n - 1}")
        return ChartMismatchError(f"{self._fmt(face)} is not a face")

    # -- basic access ----------------------------------------------------

    @property
    def dimension(self):
        return self._dimension

    @property
    def chart_ids(self):
        return self._chart_ids

    @property
    def faces(self):
        return self._faces

    def faces_of_degree(self, m):
        return self._by_degree.get(m, ())

    def polytope(self, face):
        face = tuple(sorted(face))
        try:
            return self._polytopes[face]
        except KeyError:
            raise self._not_a_face(face) from None

    def transition(self, i, j):
        """Coordinate change from chart i to chart j.  An index outside
        0..n-1 for the n charts, or two charts that share no edge, raise
        ChartMismatchError."""
        n = len(self._chart_ids)
        if i == j and 0 <= i < n:
            return self._identity
        phi = self._transitions.get((i, j))
        if phi is None:
            for k in (i, j):
                if not 0 <= k < n:
                    raise ChartMismatchError(f"chart index {k} is outside 0..{n - 1}")
            raise ChartMismatchError(
                f"charts {self._chart_ids[i]!r} and {self._chart_ids[j]!r} "
                "do not share an edge"
            )
        return phi

    def face_chart(self, face):
        face = tuple(sorted(face))
        try:
            return self._face_charts[face]
        except KeyError:
            raise self._not_a_face(face) from None

    @cached_property
    def _face_charts(self):
        return {
            face: FaceChart(
                face=face,
                ambient=face[0],
                polytope=poly,
                basepoint=poly.lex_least_vertex(),
            )
            for face, poly in self._polytopes.items()
        }

    @cached_property
    def _scaled(self):
        """(d, lines, corners, taus): the cover's geometry on one integer
        scaling d.  lines maps each face to its halfspaces as int pairs
        (n, B) with n.x <= B/d, corners each face to its vertices in the
        polytope's (sorted) order, so that the basepoint comes first,
        and taus each directed edge to its translation, all times d."""
        polys = self._polytopes
        d, bounds, points = integer_scaling(
            [ineq for poly in polys.values() for ineq in poly.inequalities],
            [v for poly in polys.values() for v in poly.vertices]
            + [phi.translation for phi in self._transitions.values()],
        )
        bounds, points = iter(bounds), iter(points)
        lines = {
            f: [(n, next(bounds)) for n, _ in p.inequalities] for f, p in polys.items()
        }
        corners = {f: [next(points) for _ in p.vertices] for f, p in polys.items()}
        return d, lines, corners, dict(zip(self._transitions, points))

    @cached_property
    def nested_pairs(self):
        """Proper nested face pairs (low, top), sorted."""
        return tuple(
            sorted(
                (low, top)
                for top in self._faces
                for size in range(1, len(top))
                for low in combinations(top, size)
            )
        )

    @cached_property
    def nested_chains(self):
        """Proper chains (low, mid, top) of faces, sorted."""
        return tuple(
            sorted(
                (low, mid, top)
                for mid, top in self.nested_pairs
                for size in range(1, len(mid))
                for low in combinations(mid, size)
            )
        )

    @cached_property
    def restriction_moves(self):
        """How a monomial moves when restricted to a face, on the cover's
        integer scaling d: (d, table), with table keyed by (face, chart i
        of the face).

        Each entry holds the transposed linear part of the transition
        from the face's least chart to chart i, which carries a chart-i
        exponent to the face's, and the face's basepoint written in chart
        i's coordinates, times d, as ints: the basepoint is moved on the
        scaled corners and translations, as ``edge_sides`` and
        ``edge_transports`` hold their offsets.
        """
        d, _, corners, taus = self._scaled
        charts = self._face_charts
        steps = {(face[0], i) for face in charts for i in face[1:]}
        transposed = {step: tuple(zip(*self.transition(*step).linear)) for step in steps}
        identity = self._identity.linear
        table = {}
        for face in charts:
            # the face's own least chart needs no move
            q = corners[face][0]
            table[(face, face[0])] = (identity, q)
            for i in face[1:]:
                step = (face[0], i)
                linear, tau = self._transitions[step].linear, taus[step]
                table[(face, i)] = (
                    transposed[step],
                    tuple(dot(row, q) + t for row, t in zip(linear, tau)),
                )
        return d, table

    @cached_property
    def edge_sides(self):
        """The two sides of every edge as the section walk reads them,
        on the cover's integer scaling d: (d, corners, sides).

        corners maps each edge to its polytope's vertices minus the
        edge's basepoint.  sides maps (edge, i), for the edge's first
        chart i then its second, edge by edge in sorted order, to (sign,
        mt, offset): sign 1 on the first chart and -1 on the second, and
        mt and the edge's basepoint in chart i from
        ``restriction_moves[(edge, i)]``, whose offset is that basepoint
        minus chart i's own.  Corners and offsets are ints, the values
        times d.
        """
        d, moves = self.restriction_moves
        vertices = self._scaled[2]
        corners = {}
        sides = {}
        for edge in self.faces_of_degree(1):
            q = vertices[edge][0]
            corners[edge] = [tuple(x - y for x, y in zip(v, q)) for v in vertices[edge]]
            for sign, i in ((1, edge[0]), (-1, edge[1])):
                mt, at = moves[(edge, i)]
                offset = tuple(x - y for x, y in zip(at, vertices[(i,)][0]))
                sides[(edge, i)] = (sign, mt, offset)
        return d, corners, sides

    @cached_property
    def edge_transports(self):
        """(d, {edge (i, j): (mt, tau)}): the transposed linear part of
        ``transition(i, j)``, which moves a chart-j differential A to chart
        i, and its translation times d, the cover's integer scaling; the
        constant gains <A, tau>/d."""
        d, _, _, taus = self._scaled
        return d, {
            edge: (tuple(zip(*self._transitions[edge].linear)), taus[edge])
            for edge in self.faces_of_degree(1)
        }

    @cached_property
    def _certificate_system(self):
        return _CertificateSystem(self)

    def __eq__(self, other):
        if not isinstance(other, Cover):
            return NotImplemented
        return (
            self._dimension == other._dimension
            and self._chart_ids == other._chart_ids
            and self._faces == other._faces
            and self._polytopes == other._polytopes
            and self._transitions == other._transitions
        )

    def __repr__(self):
        return (
            f"Cover({len(self._chart_ids)} charts, "
            f"{len(self._faces)} faces, dim {self._dimension})"
        )


class AffCochain:
    """Cech cochain with affine values.

    The value on a face lives in the coordinates of the face's least
    chart; faces not listed carry the zero function.
    """

    def __init__(self, cover, degree, values=()):
        self._cover = cover
        (self._degree,) = _int_vec((degree,), "cochain degrees")
        data = dict(values)
        cleaned = {}
        for face, fn in data.items():
            face = tuple(sorted(face))
            if face not in cover.faces or len(face) != self._degree + 1:
                raise ChartMismatchError(
                    f"{face} is not a degree-{self._degree} face"
                )
            if face in cleaned:
                raise ChartMismatchError(f"face {face} is given twice")
            if not isinstance(fn, AffineFunction):
                raise TypeError("cochain values must be AffineFunction")
            if fn.dimension != cover.dimension:
                raise ChartMismatchError("cochain value has wrong dimension")
            cleaned[face] = fn
        self._values = {face: fn for face, fn in cleaned.items() if not fn.is_zero()}

    @classmethod
    def _trusted(cls, cover, degree, values):
        """Unchecked, and values is kept, not copied: the caller guarantees
        an int degree and a dict from the cover's sorted degree-``degree``
        faces, in ``faces_of_degree`` order, to nonzero AffineFunctions of
        its dimension, as cochains the library computes are."""
        self = object.__new__(cls)
        self._cover = cover
        self._degree = degree
        self._values = values
        return self

    @property
    def cover(self):
        return self._cover

    @property
    def degree(self):
        return self._degree

    def value(self, face):
        fn = self._values.get(tuple(sorted(face)))
        return AffineFunction.zero(self._cover.dimension) if fn is None else fn

    def support(self):
        return tuple(sorted(self._values))

    def is_zero(self):
        return not self._values

    def differential(self):
        """Cech differential, on ints: the constants over one denominator c,
        d | c for the d of ``edge_transports``, which moves the omitted least
        vertex's term, A to M^T A and its constant up by <A, tau>."""
        cover = self._cover
        d, transports = cover.edge_transports
        c = lcm(d, *(fn._constant.denominator for fn in self._values.values()))
        ints = {
            face: (fn._linear, fn._constant.numerator * (c // fn._constant.denominator))
            for face, fn in self._values.items()
        }
        zero = ((0,) * cover.dimension, 0)
        out = {}
        for face in cover.faces_of_degree(self._degree + 1):
            mt, tau = transports[face[0], face[1]]
            a, const = ints.get(face[1:], zero)
            linear, const = [dot(row, a) for row in mt], const + c // d * dot(a, tau)
            for k in range(1, len(face)):
                a, b = ints.get(face[:k] + face[k + 1 :], zero)
                sign = (-1) ** k
                linear, const = [x + sign * y for x, y in zip(linear, a)], const + sign * b
            if const or any(linear):
                out[face] = AffineFunction._trusted(tuple(linear), Fraction(const, c))
        return AffCochain._trusted(cover, self._degree + 1, out)

    def __add__(self, other):
        self._check_compatible(other)
        merged = dict(self._values)
        for face, fn in other._values.items():
            merged[face] = merged.get(
                face, AffineFunction.zero(self._cover.dimension)
            ) + fn
        return AffCochain(self._cover, self._degree, merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AffCochain(
            self._cover,
            self._degree,
            {face: -fn for face, fn in self._values.items()},
        )

    def _check_compatible(self, other):
        if not isinstance(other, AffCochain):
            raise TypeError("expected an AffCochain")
        if other._cover is not self._cover and other._cover != self._cover:
            raise ChartMismatchError("cochains live on different covers")
        if other._degree != self._degree:
            raise ChartMismatchError("cochains have different degrees")

    def __eq__(self, other):
        if not isinstance(other, AffCochain):
            return NotImplemented
        return (
            self._degree == other._degree
            and self._cover == other._cover
            and self._values == other._values
        )

    def __repr__(self):
        return (
            f"AffCochain(degree={self._degree}, "
            f"support={len(self._values)} faces)"
        )


class FibrationData:
    """Monodromy primitives: one degree-<=2 polynomial per nerve edge.

    Construction checks the compatibility condition: on every triangle
    (i,j,k) the combination f_ij + f_jk o phi_ij - f_ik must be affine
    with an integral differential.  Those affine leftovers form the
    obstruction cochain.
    """

    def __init__(self, cover, primitives=()):
        self._cover = cover
        data = dict(primitives)
        cleaned = {}
        for edge, poly in data.items():
            edge = tuple(sorted(edge))
            if edge not in cover.faces or len(edge) != 2:
                raise ChartMismatchError(f"{edge} is not a nerve edge")
            if edge in cleaned:
                raise ChartMismatchError(f"edge {edge} is given twice")
            if not isinstance(poly, PolyFunction):
                raise TypeError("primitives must be PolyFunction")
            if poly.dimension != cover.dimension:
                raise ChartMismatchError("primitive has wrong dimension")
            cleaned[edge] = poly
        self._primitives = {edge: p for edge, p in cleaned.items() if not p.is_zero()}
        self._alpha = self._build_alpha()

    @property
    def cover(self):
        return self._cover

    def primitive(self, edge):
        edge = tuple(sorted(edge))
        return self._primitives.get(edge, PolyFunction.zero(self._cover.dimension))

    def _build_alpha(self):
        """alpha_ijk = f_ij + f_jk o phi_ij - f_ik on every triangle, on
        coefficient tables of ints: with the translations times the
        cover's scaling d and the coefficients of the three primitives
        times the lcm e of their denominators, x = M y + tau is
        substituted into f_jk's terms in closed form and every
        coefficient of the combination is held times e d^2.  A quadratic
        part is refused, and so is a differential that is not integral.

        The linear parts are merged as PolyFunction addition merges
        terms, each key where it first appears and a key whose sum
        vanishes dropped, so that a refusal names the direction that the
        sum f_ij + f_jk o phi_ij - f_ik of PolyFunctions meets first."""
        cover = self._cover
        n = cover.dimension
        d, _, _, taus = cover._scaled
        zero = PolyFunction.zero(n)
        values = {}
        for tri in cover.faces_of_degree(2):
            i, j, k = tri
            ij, jk, ik = (self._primitives.get(e, zero) for e in ((i, j), (j, k), (i, k)))
            e = lcm(*(c.denominator for f in (ij, jk, ik) for c in f._terms.values()))
            scale = e * d * d
            quadratic, constant, sides = {}, 0, []
            for f, sign in ((ij, 1), (ik, -1)):
                side = {}
                for powers, c in f._terms.items():
                    value = sign * c.numerator * (scale // c.denominator)
                    degree = sum(powers)
                    if degree == 0:
                        constant += value
                    elif degree == 1:
                        side[powers.index(1)] = value
                    else:
                        quadratic[powers] = quadratic.get(powers, 0) + value
                sides.append(side)
            m, tau = cover.transition(i, j).linear, taus[i, j]
            moved = {}
            for powers, c in jk._terms.items():
                # c x_a x_b = c (M_a.y + tau_a)(M_b.y + tau_b), times e d^2
                value = c.numerator * (e // c.denominator)
                axes = [a for a, p in enumerate(powers) for _ in range(p)]
                if not axes:
                    constant += value * d * d
                    continue
                if len(axes) == 1:
                    (a,) = axes
                    piece = [(p, value * d * d * m[a][p]) for p in range(n)]
                    constant += value * d * tau[a]
                else:
                    a, b = axes
                    piece = [(q, value * d * tau[a] * m[b][q]) for q in range(n)]
                    piece += [(p, value * d * m[a][p] * tau[b]) for p in range(n)]
                    constant += value * tau[a] * tau[b]
                    for p in range(n):
                        for q in range(n):
                            key = tuple((p == r) + (q == r) for r in range(n))
                            product = value * d * d * m[a][p] * m[b][q]
                            quadratic[key] = quadratic.get(key, 0) + product
                moved = _merged(moved, _merged({}, piece).items())
            linear = _merged(_merged(sides[0], moved.items()), sides[1].items())
            fractional = next((p for p, x in linear.items() if x % scale), None)
            if any(quadratic.values()) or fractional is not None:
                ids = tuple(cover.chart_ids[x] for x in tri)
                problem = (
                    "polynomial has a quadratic part"
                    if any(quadratic.values())
                    else f"differential in direction {fractional} is not integral: "
                    f"{Fraction(linear[fractional], scale)}"
                )
                raise InvalidFibrationError(
                    f"primitives are incompatible on triple {ids}: {problem}"
                )
            if constant or linear:
                values[tri] = AffineFunction._trusted(
                    tuple(linear.get(p, 0) // scale for p in range(n)),
                    Fraction(constant, scale),
                )
        return AffCochain._trusted(cover, 2, values)

    def obstruction_cocycle(self):
        return self._alpha

    @cached_property
    def twist_factors(self):
        """The twist of every nested chain of the cover, built once.

        A chain whose final charts strictly increase maps to exp of the
        obstruction on the triangle of final charts, written on the top
        face and read off the restriction move from the least final
        chart to the top face; a chain whose final charts repeat carries
        a degenerate obstruction value of zero, so its factor is the
        unit.
        """
        from .mirror_charts import _exp_entry, _unit_on

        cover = self._cover
        units, out = {}, {}
        for low, mid, top in cover.nested_chains:
            finals = (low[-1], mid[-1], top[-1])
            if finals[0] < finals[1] < finals[2]:
                value = self._alpha.value(finals)
                out[(low, mid, top)] = _exp_entry(cover, top, finals[0], value)
            else:
                if top not in units:
                    units[top] = _unit_on(cover, top)
                out[(low, mid, top)] = units[top]
        return out


def _merged(terms, more):
    # PolyFunction addition on one part of the terms: each key where it
    # first appears, a key whose sum vanishes dropped
    out = dict(terms)
    for key, value in more:
        if value:
            out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


@dataclass
class ObstructionReport:
    """Outcome of the triviality analysis for an obstruction cochain."""

    alpha: AffCochain
    certificate: AffCochain | None
    lattice_image_vanishes: bool

    @property
    def is_trivial(self):
        return self.certificate is not None


class _CertificateSystem:
    """Presolved linear algebra for d(beta) = alpha questions on a cover.

    Unknowns: per edge, an integral differential A_e and a rational
    constant c_e.  Per triangle (i,j,k) the differential equation reads
    A_ij + M^T A_jk - A_ik = dalpha and the constant equation picks up
    the coupling term <A_jk, tau> from transporting across phi_ij.
    """

    def __init__(self, cover):
        # no reference back to the cover, which holds this system: the pair
        # would be a cycle, and a dropped cover would wait for the collector
        n = cover.dimension
        self._edges = list(cover.faces_of_degree(1))
        self._tris = list(cover.faces_of_degree(2))
        eidx = {e: a for a, e in enumerate(self._edges)}
        ne = len(self._edges)

        self._d, transports = cover.edge_transports
        lattice_rows = []
        incidence = []
        self._taus = []
        for i, j, k in self._tris:
            mt, tau = transports[i, j]
            self._taus.append(tau)
            a_ij, a_jk, a_ik = eidx[(i, j)], eidx[(j, k)], eidx[(i, k)]
            for r in range(n):
                row = [0] * (n * ne)
                row[a_ij * n + r] += 1
                row[a_ik * n + r] -= 1
                row[a_jk * n : (a_jk + 1) * n] = mt[r]
                lattice_rows.append(row)
            incidence.append({a_ij: 1, a_jk: 1, a_ik: -1})
        self._jk_index = [eidx[(tri[1], tri[2])] for tri in self._tris]
        self._n = n
        self._lattice = PresolvedIntegerSystem(lattice_rows, ncols=n * ne)
        # the relations it finds among the triangle equations span the
        # cokernel of the incidence map
        self._constants = SparseRationalSystem(incidence, ne)

        kernel = self._kernel = self._lattice.kernel_basis()
        # the coupling of each kernel direction into each triangle's
        # constant, projected onto each cokernel generator p, on ints: with
        # tau times the common denominator d and p times the lcm e of its
        # own, a projected row is N / (d e), on ints N / G at scale d e / G
        coupling = [
            [dot(vec[jk * n : (jk + 1) * n], tau) for vec in kernel]
            for jk, tau in zip(self._jk_index, self._taus)
        ]
        self._generators, self._proj_scales, proj_rows = [], [], []
        for relation in self._constants.relations:
            e = lcm(*(v.denominator for _, v in relation))
            p = {t: v.numerator * (e // v.denominator) for t, v in relation}
            row = [0] * len(kernel)
            for t, v in p.items():
                row = [x + v * y for x, y in zip(row, coupling[t])]
            g = gcd(self._d * e, *row)
            proj_rows.append([x // g for x in row])
            self._proj_scales.append(self._d * e // g)
            self._generators.append((p, e))
        self._projected = PresolvedIntegerSystem(proj_rows)

    def _alpha_vectors(self, alpha):
        # the differentials as one vector, the constants as ints over c, d | c
        zero = AffineFunction.zero(self._n)
        values = [alpha._values.get(tri, zero) for tri in self._tris]
        c = lcm(self._d, *(fn.constant.denominator for fn in values))
        consts = [fn.constant.numerator * (c // fn.constant.denominator) for fn in values]
        return [a for fn in values for a in fn.linear], consts, c

    def _residuals(self, x, consts, c):
        # consts - <A_jk, tau> per triangle, on ints at a scale c that d divides
        n, k = self._n, c // self._d
        return [
            const - k * dot(x[jk * n : (jk + 1) * n], tau)
            for const, jk, tau in zip(consts, self._jk_index, self._taus)
        ]

    def certificate(self, alpha):
        """An affine 1-cochain beta with d(beta) = alpha, or None."""
        return self._solve(alpha)[1]

    def _solve(self, alpha):
        # (x0, beta): one integer solution of the differential equations,
        # or None, and the certificate, or None
        n = self._n
        d_vec, consts, c = self._alpha_vectors(alpha)
        x0 = self._lattice.solve(d_vec)
        if x0 is None:
            return None, None
        r0 = self._residuals(x0, consts, c)
        # choose the integer kernel combination that lands the constants
        # in the image of the incidence map
        rhs = []
        for (p, e), scale in zip(self._generators, self._proj_scales):
            val, rest = divmod(sum(v * r0[t] for t, v in p.items()) * scale, c * e)
            if rest:
                return x0, None
            rhs.append(val)
        y = self._projected.solve(rhs)
        if y is None:
            return x0, None
        x = list(x0)
        for l, coeff in enumerate(y):
            if coeff:
                for idx, v in enumerate(self._kernel[l]):
                    x[idx] += coeff * v
        # on the residuals times c, the linear constant solve gives c beta
        constants = self._constants.solve(self._residuals(x, consts, c))
        if constants is None:
            return x0, None
        values = {}
        for a, edge in enumerate(self._edges):
            linear, constant = tuple(x[a * n : (a + 1) * n]), constants[a] / c
            if constant or any(linear):
                values[edge] = AffineFunction._trusted(linear, constant)
        beta = AffCochain._trusted(alpha.cover, 1, values)
        if beta.differential() != alpha:
            raise AssertionError(
                "certificate solver produced a wrong coboundary"
            )
        return x0, beta


def face_polytopes_from_charts(dimension, chart_polytopes, faces, transitions):
    """Intersection polytope for every face, in least-chart coordinates.

    ``chart_polytopes`` maps chart index to that chart's own polytope;
    ``transitions`` maps increasing index pairs to the edge transition.
    Raises if some declared face has empty intersection.
    """
    from .affine import IntegralAffinePolytope, _scaled_halfspaces

    directed = _directed_transitions(transitions)
    # chart j's halfspaces in chart lv, (d, [(normal, int bound)]), per (j, lv)
    moved = {}
    out = {}
    for face in faces:
        face = tuple(sorted(face))
        lv = face[0]
        for j in face:
            if (j, lv) in moved:
                continue
            if j == lv:
                moved[(j, lv)] = _scaled_halfspaces(chart_polytopes[lv].inequalities)
            elif (lv, j) not in directed:
                raise InvalidCoverError(f"no transition declared for edge {(lv, j)}")
            else:
                to_lv, from_lv = directed[(j, lv)], directed[(lv, j)]
                moved[(j, lv)] = chart_polytopes[j]._scaled_image(to_lv, from_lv)
        groups = [moved[(j, lv)] for j in face]
        d = lcm(*(g for g, _ in groups))
        lines = [(n, b * (d // g)) for g, group in groups for n, b in group]
        try:
            out[face] = IntegralAffinePolytope._from_scaled(dimension, d, lines)
        except Exception as exc:
            raise InvalidCoverError(
                f"declared face {face} has no valid overlap: {exc}"
            ) from exc
    return out


def _cover_from_charts(dimension, chart_ids, chart_polytopes, faces, transitions):
    """The cover of the chart intersections, each edge inverted once."""
    directed = _directed_transitions(transitions)
    polytopes = face_polytopes_from_charts(dimension, chart_polytopes, faces, directed)
    return Cover._of_intersections(dimension, chart_ids, faces, polytopes, directed)


def coboundary_certificate(alpha):
    """Solve d(beta) = alpha in affine cochains; None when impossible."""
    if alpha.degree != 2:
        raise ChartMismatchError("certificates are defined for degree-2 cochains")
    return alpha.cover._certificate_system.certificate(alpha)


def analyze_obstruction(fibration):
    """Full triviality analysis of a fibration's obstruction cochain."""
    alpha = fibration.obstruction_cocycle()
    x0, beta = fibration.cover._certificate_system._solve(alpha)
    return ObstructionReport(
        alpha=alpha, certificate=beta, lattice_image_vanishes=x0 is not None
    )
