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
from math import lcm

from .affine import AffineFunction, IntegralAffineMap, PolyFunction, dot
from .errors import ChartMismatchError, InvalidCoverError, InvalidFibrationError
from .intlinalg import (
    PresolvedIntegerSystem,
    PresolvedRationalSystem,
    rational_nullspace,
)


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


class Cover:
    """Charts, nerve, overlap polytopes, and transitions."""

    def __init__(self, dimension, chart_ids, faces, polytopes, transitions):
        self._dimension = int(dimension)
        self._chart_ids = tuple(str(c) for c in chart_ids)
        if len(set(self._chart_ids)) != len(self._chart_ids):
            raise InvalidCoverError("duplicate chart ids")
        self._index = {c: i for i, c in enumerate(self._chart_ids)}
        normalized = set()
        for face in faces:
            face = tuple(sorted(set(int(i) for i in face)))
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
        # both directions of every transition, built once for ``transition``
        self._transitions = {}
        for (i, j), phi in transitions.items():
            i, j = int(i), int(j)
            if i >= j:
                raise InvalidCoverError(
                    f"transitions must be keyed by increasing pairs, got ({i},{j})"
                )
            self._transitions[(i, j)] = phi
            self._transitions[(j, i)] = phi.inverse()
        self._identity = IntegralAffineMap.identity(self._dimension)
        self._validate()
        self._cert_cache = None

    # -- validation ----------------------------------------------------

    def _validate(self):
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
        for tri in self.faces_of_degree(2):
            i, j, k = tri
            lhs = self.transition(j, k).compose(self.transition(i, j))
            if lhs != self.transition(i, k):
                raise InvalidCoverError(
                    f"transitions fail the cocycle identity on {self._fmt(tri)}"
                )
        for face in self._faces:
            if len(face) < 2:
                continue
            poly = self._polytopes[face]
            for k in range(len(face)):
                sub = face[:k] + face[k + 1 :]
                moved = poly
                if sub[0] != face[0]:
                    moved = poly.apply_map(self.transition(face[0], sub[0]))
                if not self._polytopes[sub].contains_polytope(moved):
                    raise InvalidCoverError(
                        f"overlap of {self._fmt(face)} is not inside "
                        f"that of {self._fmt(sub)}"
                    )

    def _fmt(self, face):
        return "{" + ",".join(self._chart_ids[i] for i in face) + "}"

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

    def chart_index(self, chart_id):
        try:
            return self._index[chart_id]
        except KeyError:
            raise ChartMismatchError(f"unknown chart id {chart_id!r}") from None

    def faces_of_degree(self, m):
        return self._by_degree.get(m, ())

    def edges(self):
        return self.faces_of_degree(1)

    def triangles(self):
        return self.faces_of_degree(2)

    def polytope(self, face):
        face = tuple(sorted(face))
        try:
            return self._polytopes[face]
        except KeyError:
            raise ChartMismatchError(f"{self._fmt(face)} is not a face") from None

    def transition(self, i, j):
        """Coordinate change from chart i to chart j."""
        if i == j:
            return self._identity
        phi = self._transitions.get((i, j))
        if phi is None:
            raise ChartMismatchError(
                f"charts {self._chart_ids[i]!r} and {self._chart_ids[j]!r} "
                "do not share an edge"
            )
        return phi

    def face_chart(self, face):
        face = tuple(sorted(face))
        cache = self.__dict__.setdefault("_face_chart_cache", {})
        chart = cache.get(face)
        if chart is None:
            poly = self.polytope(face)
            chart = FaceChart(
                face=face,
                ambient=face[0],
                polytope=poly,
                basepoint=poly.lex_least_vertex(),
            )
            cache[face] = chart
        return chart

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

    # -- certificate machinery (cached per cover) ----------------------

    def _certificate_system(self):
        if self._cert_cache is None:
            self._cert_cache = _CertificateSystem(self)
        return self._cert_cache


class AffCochain:
    """Cech cochain with affine values.

    The value on a face lives in the coordinates of the face's least
    chart; faces not listed carry the zero function.
    """

    def __init__(self, cover, degree, values=()):
        self._cover = cover
        self._degree = int(degree)
        data = dict(values)
        cleaned = {}
        for face, fn in data.items():
            face = tuple(sorted(face))
            if face not in cover.faces or len(face) != self._degree + 1:
                raise ChartMismatchError(
                    f"{face} is not a degree-{self._degree} face"
                )
            if not isinstance(fn, AffineFunction):
                raise TypeError("cochain values must be AffineFunction")
            if fn.dimension != cover.dimension:
                raise ChartMismatchError("cochain value has wrong dimension")
            if not fn.is_zero():
                cleaned[face] = fn
        self._values = cleaned

    @property
    def cover(self):
        return self._cover

    @property
    def degree(self):
        return self._degree

    def value(self, face):
        face = tuple(sorted(face))
        return self._values.get(face, AffineFunction.zero(self._cover.dimension))

    def support(self):
        return tuple(sorted(self._values))

    def is_zero(self):
        return not self._values

    def differential(self):
        """Cech differential; the omitted-least-vertex term is transported."""
        cover = self._cover
        out = {}
        for face in cover.faces_of_degree(self._degree + 1):
            total = AffineFunction.zero(cover.dimension)
            for k in range(len(face)):
                sub = face[:k] + face[k + 1 :]
                val = self.value(sub)
                if k == 0:
                    val = val.compose_with_map(cover.transition(face[0], face[1]))
                total = total + (val if k % 2 == 0 else -val)
            out[face] = total
        return AffCochain(cover, self._degree + 1, out)

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
            if not isinstance(poly, PolyFunction):
                raise TypeError("primitives must be PolyFunction")
            if poly.dimension != cover.dimension:
                raise ChartMismatchError("primitive has wrong dimension")
            if not poly.is_zero():
                cleaned[edge] = poly
        self._primitives = cleaned
        self._alpha = self._build_alpha()

    @property
    def cover(self):
        return self._cover

    def primitive(self, edge):
        edge = tuple(sorted(edge))
        return self._primitives.get(edge, PolyFunction.zero(self._cover.dimension))

    def _build_alpha(self):
        cover = self._cover
        values = {}
        for tri in cover.faces_of_degree(2):
            i, j, k = tri
            combo = (
                self.primitive((i, j))
                + self.primitive((j, k)).compose_with_map(cover.transition(i, j))
                - self.primitive((i, k))
            )
            try:
                values[tri] = combo.as_affine()
            except ValueError as exc:
                ids = tuple(cover.chart_ids[x] for x in tri)
                raise InvalidFibrationError(
                    f"primitives are incompatible on triple {ids}: {exc}"
                ) from exc
        return AffCochain(cover, 2, values)

    def obstruction_cocycle(self):
        return self._alpha


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
        self._cover = cover
        n = cover.dimension
        self._edges = list(cover.faces_of_degree(1))
        self._tris = list(cover.faces_of_degree(2))
        eidx = {e: a for a, e in enumerate(self._edges)}
        ne, nt = len(self._edges), len(self._tris)

        lattice_rows = []
        incidence = []
        taus = []
        for tri in self._tris:
            i, j, k = tri
            phi = cover.transition(i, j)
            taus.append(phi.translation)
            m = phi.linear
            a_ij, a_jk, a_ik = eidx[(i, j)], eidx[(j, k)], eidx[(i, k)]
            for r in range(n):
                row = [0] * (n * ne)
                row[a_ij * n + r] += 1
                row[a_ik * n + r] -= 1
                for c in range(n):
                    row[a_jk * n + c] += m[c][r]
                lattice_rows.append(row)
            inc = [0] * ne
            inc[a_ij] += 1
            inc[a_jk] += 1
            inc[a_ik] -= 1
            incidence.append(inc)
        self._jk_index = [
            eidx[(tri[1], tri[2])] for tri in self._tris
        ]
        self._taus = taus
        self._n = n
        self._lattice = PresolvedIntegerSystem(lattice_rows, ncols=n * ne)
        self._constants = PresolvedRationalSystem(incidence, ncols=ne)
        # rows spanning the cokernel of the incidence map
        transposed = (
            [list(col) for col in zip(*incidence)] if incidence else []
        )
        self._pi = rational_nullspace(transposed) if incidence else []

        kernel = self._lattice.kernel_basis()
        self._kernel = kernel
        # coupling of each kernel direction into each triangle's constant
        coupling = []
        for t in range(nt):
            jk = self._jk_index[t]
            tau = self._taus[t]
            coupling.append(
                [
                    dot(vec[jk * n : (jk + 1) * n], tau)
                    for vec in kernel
                ]
            )
        self._coupling = coupling
        # integer form of the projected coupling system, one row per
        # cokernel generator; the scale factors turn rational rows into
        # integer ones and are reapplied to each right-hand side
        proj_rows = []
        scales = []
        for p in self._pi:
            row = [
                sum(p[t] * coupling[t][l] for t in range(nt))
                for l in range(len(kernel))
            ]
            scale = lcm(*(x.denominator for x in row)) if row else 1
            proj_rows.append([int(x * scale) for x in row])
            scales.append(scale)
        self._proj_scales = scales
        self._projected = PresolvedIntegerSystem(proj_rows)

    def _alpha_vectors(self, alpha):
        n = self._n
        d_vec = []
        consts = []
        for t, tri in enumerate(self._tris):
            fn = alpha.value(tri)
            d_vec.extend(fn.linear)
            consts.append(fn.constant)
        return d_vec, consts

    def lattice_image_vanishes(self, alpha):
        d_vec, _ = self._alpha_vectors(alpha)
        return self._lattice.solve(d_vec) is not None

    def certificate(self, alpha):
        """An affine 1-cochain beta with d(beta) = alpha, or None."""
        n = self._n
        d_vec, consts = self._alpha_vectors(alpha)
        x0 = self._lattice.solve(d_vec)
        if x0 is None:
            return None
        nt = len(self._tris)
        r0 = [
            consts[t]
            - dot(
                x0[self._jk_index[t] * n : (self._jk_index[t] + 1) * n],
                self._taus[t],
            )
            for t in range(nt)
        ]
        # choose the integer kernel combination that lands the constants
        # in the image of the incidence map
        rhs = []
        for p, scale in zip(self._pi, self._proj_scales):
            val = sum(p[t] * r0[t] for t in range(nt)) * scale
            if val.denominator != 1:
                return None
            rhs.append(int(val))
        y = self._projected.solve(rhs)
        if y is None:
            return None
        x = list(x0)
        for l, coeff in enumerate(y):
            if coeff:
                for idx, v in enumerate(self._kernel[l]):
                    x[idx] += coeff * v
        r = [
            consts[t]
            - dot(
                x[self._jk_index[t] * n : (self._jk_index[t] + 1) * n],
                self._taus[t],
            )
            for t in range(nt)
        ]
        c = self._constants.solve(r)
        if c is None:
            return None
        values = {}
        for a, edge in enumerate(self._edges):
            fn = AffineFunction(tuple(x[a * n : (a + 1) * n]), c[a])
            values[edge] = fn
        beta = AffCochain(self._cover, 1, values)
        if beta.differential() != alpha:
            raise AssertionError(
                "certificate solver produced a wrong coboundary"
            )
        return beta


def face_polytopes_from_charts(dimension, chart_polytopes, faces, transitions):
    """Intersection polytope for every face, in least-chart coordinates.

    ``chart_polytopes`` maps chart index to that chart's own polytope;
    ``transitions`` maps increasing index pairs to the edge transition.
    Raises if some declared face has empty intersection.
    """
    from .affine import IntegralAffinePolytope

    def phi(i, j):
        if i == j:
            return IntegralAffineMap.identity(dimension)
        key = (min(i, j), max(i, j))
        if key not in transitions:
            raise InvalidCoverError(f"no transition declared for edge {key}")
        base = transitions[key]
        return base if (i, j) == key else base.inverse()

    out = {}
    for face in faces:
        face = tuple(sorted(face))
        lv = face[0]
        ineqs = list(chart_polytopes[lv].inequalities)
        for j in face[1:]:
            moved = chart_polytopes[j].apply_map(phi(j, lv))
            ineqs.extend(moved.inequalities)
        try:
            out[face] = IntegralAffinePolytope.from_inequalities(dimension, ineqs)
        except Exception as exc:
            raise InvalidCoverError(
                f"declared face {face} has no valid overlap: {exc}"
            ) from exc
    return out


def coboundary_certificate(alpha):
    """Solve d(beta) = alpha in affine cochains; None when impossible."""
    if alpha.degree != 2:
        raise ChartMismatchError("certificates are defined for degree-2 cochains")
    return alpha.cover._certificate_system().certificate(alpha)


def lattice_image_vanishes(alpha):
    """Does the differential part of alpha bound over the integers?"""
    if alpha.degree != 2:
        raise ChartMismatchError("lattice image is defined for degree-2 cochains")
    return alpha.cover._certificate_system().lattice_image_vanishes(alpha)


def analyze_obstruction(fibration):
    """Full triviality analysis of a fibration's obstruction cochain."""
    alpha = fibration.obstruction_cocycle()
    system = fibration.cover._certificate_system()
    return ObstructionReport(
        alpha=alpha,
        certificate=system.certificate(alpha),
        lattice_image_vanishes=system.lattice_image_vanishes(alpha),
    )
