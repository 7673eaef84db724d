"""The sparse rational elimination against the dense solvers it replaced.

``intlinalg.SparseRationalSystem`` is the package's one rational
elimination: the certificate's constant solve and the cokernel of the
incidence map run on it.  The dense Gauss-Jordan solvers it replaced
are kept here as references, together with the certificate system as
it stood on them: solutions, inconsistency verdicts, cokernel rows,
projection scales and certificates must all come out identical.  The
trusted build of ``IntegralAffinePolytope.from_inequalities`` is held to
the checked constructor it used to call, error text included.  The
certificate system's coupling and projection run on ints: a count guard
keeps Fraction products out of the build of a torus system, and the
projected rows must equal the Fraction ones of the reference.
"""

import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from mirrorforge.affine import (
    AffineFunction,
    IntegralAffinePolytope,
    dot,
    recession_cone_is_trivial,
)
import mirrorforge.cover as cover_module
from mirrorforge.catalog import catalog_ids, load_catalog
from mirrorforge.cover import AffCochain, ObstructionReport, analyze_obstruction
from mirrorforge.errors import InvalidPolytopeError
from mirrorforge.manifest import fibration_to_manifest, manifest_to_fibration
from test_intlinalg import certificate_matrices
from mirrorforge.intlinalg import (
    PresolvedIntegerSystem,
    SparseRationalSystem,
    smith_normal_form,
)

F = Fraction
CATALOGS = catalog_ids()
TORI = ("split-torus-4", "thurston-f1", "thurston-f2")


# -- the replaced dense solvers, kept as references ------------------------------


class DenseRationalSystem:
    """mat*x = rhs over Q, row-reduced once and solved for many rhs."""

    def __init__(self, mat, ncols=None):
        self._m = len(mat)
        self._n = len(mat[0]) if self._m else (ncols or 0)
        rows = [
            [Fraction(x) for x in row]
            + [Fraction(1 if i == j else 0) for j in range(self._m)]
            for i, row in enumerate(mat)
        ]
        pivots = []
        rank = 0
        for col in range(self._n):
            sel = next(
                (i for i in range(rank, self._m) if rows[i][col] != 0), None
            )
            if sel is None:
                continue
            rows[rank], rows[sel] = rows[sel], rows[rank]
            inv = 1 / rows[rank][col]
            rows[rank] = [x * inv for x in rows[rank]]
            for i in range(self._m):
                if i != rank and rows[i][col] != 0:
                    f = rows[i][col]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
            pivots.append(col)
            rank += 1
        self._rows = rows
        self._pivots = pivots

    def solve(self, rhs):
        rhs = [Fraction(x) for x in rhs]
        transformed = [
            sum(row[self._n + j] * rhs[j] for j in range(self._m))
            for row in self._rows
        ]
        for i in range(len(self._pivots), self._m):
            if transformed[i] != 0:
                return None
        x = [Fraction(0)] * self._n
        for r, col in enumerate(self._pivots):
            x[col] = transformed[r]
        return x


def dense_rref(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(n):
        sel = next((i for i in range(rank, m) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def dense_nullspace(mat, n):
    rows, pivots = dense_rref(mat)
    basis = []
    for fc in [j for j in range(n) if j not in pivots]:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][fc]
        basis.append(vec)
    return basis


def dense_solve(mat, rhs):
    n = len(mat[0]) if mat else 0
    rows, pivots = dense_rref([list(row) + [rhs[i]] for i, row in enumerate(mat)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = rows[r][n]
    return x


class ReferenceCertificateSystem:
    """The certificate system on the dense solvers, as it stood."""

    def __init__(self, cover):
        self._cover = cover
        n = cover.dimension
        self._edges = list(cover.faces_of_degree(1))
        self._tris = list(cover.faces_of_degree(2))
        eidx = {e: a for a, e in enumerate(self._edges)}
        ne, nt = len(self._edges), len(self._tris)
        lattice_rows = []
        incidence = []
        self._taus = []
        for i, j, k in self._tris:
            phi = cover.transition(i, j)
            self._taus.append(phi.translation)
            a_ij, a_jk, a_ik = eidx[(i, j)], eidx[(j, k)], eidx[(i, k)]
            for r in range(n):
                row = [0] * (n * ne)
                row[a_ij * n + r] += 1
                row[a_ik * n + r] -= 1
                for c in range(n):
                    row[a_jk * n + c] += phi.linear[c][r]
                lattice_rows.append(row)
            inc = [0] * ne
            inc[a_ij] += 1
            inc[a_jk] += 1
            inc[a_ik] -= 1
            incidence.append(inc)
        self._jk_index = [eidx[(tri[1], tri[2])] for tri in self._tris]
        self._n = n
        self._lattice = PresolvedIntegerSystem(lattice_rows, ncols=n * ne)
        self._constants = DenseRationalSystem(incidence, ncols=ne)
        transposed = [list(col) for col in zip(*incidence)] if incidence else []
        self.pi = dense_nullspace(transposed, nt) if incidence else []
        self._kernel = self._lattice.kernel_basis()
        coupling = [
            [
                dot(vec[jk * n : (jk + 1) * n], tau)
                for vec in self._kernel
            ]
            for jk, tau in zip(self._jk_index, self._taus)
        ]
        self.proj_rows = []
        self.scales = []
        for p in self.pi:
            row = [
                sum(p[t] * coupling[t][l] for t in range(nt))
                for l in range(len(self._kernel))
            ]
            scale = lcm(*(x.denominator for x in row)) if row else 1
            self.proj_rows.append([int(x * scale) for x in row])
            self.scales.append(scale)
        self._projected = PresolvedIntegerSystem(self.proj_rows)

    def _residual(self, x, consts):
        n = self._n
        return [
            consts[t] - dot(x[jk * n : (jk + 1) * n], tau)
            for t, (jk, tau) in enumerate(zip(self._jk_index, self._taus))
        ]

    def certificate(self, alpha):
        n = self._n
        d_vec, consts = [], []
        for tri in self._tris:
            fn = alpha.value(tri)
            d_vec.extend(fn.linear)
            consts.append(fn.constant)
        x0 = self._lattice.solve(d_vec)
        if x0 is None:
            return None
        r0 = self._residual(x0, consts)
        rhs = []
        for p, scale in zip(self.pi, self.scales):
            val = sum(p[t] * r0[t] for t in range(len(self._tris))) * scale
            if val.denominator != 1:
                return None
            rhs.append(int(val))
        y = self._projected.solve(rhs)
        if y is None:
            return None
        x = list(x0)
        for l, coeff in enumerate(y):
            for idx, v in enumerate(self._kernel[l]):
                x[idx] += coeff * v
        c = self._constants.solve(self._residual(x, consts))
        if c is None:
            return None
        return AffCochain(
            self._cover,
            1,
            {
                edge: AffineFunction(tuple(x[a * n : (a + 1) * n]), c[a])
                for a, edge in enumerate(self._edges)
            },
        )


# -- seeded sparse systems ------------------------------------------------------


def random_system(rng):
    """A sparse rational system with zero rows, zero columns and
    dependent rows mixed in, as dicts and as the dense matrix."""
    n = rng.randint(0, 7)
    m = rng.randint(0, 8)
    live = [c for c in range(n) if rng.random() < 0.85]
    rows = []
    for _ in range(m):
        roll = rng.random()
        if roll < 0.1 or not live:
            rows.append({})
        elif roll < 0.3 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            fa, fb = F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-2, 2))
            combo = {c: fa * a.get(c, 0) + fb * b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: v for c, v in combo.items() if v})
        else:
            support = rng.sample(live, rng.randint(1, min(4, len(live))))
            rows.append(
                {c: F(rng.choice((-3, -2, -1, 1, 1, 1, 2)), rng.randint(1, 3)) for c in support}
            )
    dense = [[row.get(c, F(0)) for c in range(n)] for row in rows]
    return rows, n, dense


def solve_dense(mat, rhs):
    """One rational solution of a dense system through the sparse
    elimination, as the removed ``intlinalg.rational_solve`` gave it."""
    n = len(mat[0]) if mat else 0
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat]
    return SparseRationalSystem(rows, n).solve(rhs)


def densify(vector, n):
    return [vector.get(c, F(0)) for c in range(n)]


SYSTEMS = 3000


def test_solutions_match_the_dense_solvers_on_seeded_systems():
    rng = random.Random(61)
    seen = {"inconsistent": 0, "rank_deficient": 0, "zero_row": 0, "zero_column": 0}
    for _ in range(SYSTEMS):
        rows, n, dense = random_system(rng)
        m = len(rows)
        sparse = SparseRationalSystem(rows, n)
        reference = DenseRationalSystem(dense, ncols=n)
        x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        consistent = [sum(a * b for a, b in zip(row, x)) for row in dense]
        noise = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
        for rhs in (consistent, noise):
            solved = sparse.solve(rhs)
            assert solved == reference.solve(rhs)
            if solved is None:
                seen["inconsistent"] += 1
            else:
                assert all(type(v) is F for v in solved)
        assert sparse.solve(consistent) is not None
        assert solve_dense(dense, noise) == dense_solve(dense, noise)
        seen["rank_deficient"] += n - len(dense_nullspace(dense, n)) < min(m, n)
        seen["zero_row"] += any(not row for row in rows)
        seen["zero_column"] += any(all(c not in row for row in rows) for c in range(n))
    assert min(seen.values()) > 300, seen


def test_the_system_accepts_integer_entries():
    system = SparseRationalSystem([{0: 2, 1: 1}, {0: 4, 1: 2}], 2)
    assert system.solve([1, 2]) == [F(1, 2), F(0)]
    assert all(type(v) is F for v in system.solve([1, 2]))
    assert system.solve([1, 3]) is None
    assert SparseRationalSystem([], 3).solve([]) == [F(0)] * 3
    assert SparseRationalSystem([{}, {}], 0).solve([0, 0]) == []
    assert SparseRationalSystem([{}, {}], 0).solve([0, 1]) is None


# -- the certificate system on the catalogs -------------------------------------------


def random_cochain(cover, degree, rng, span=3):
    values = {}
    for face in cover.faces_of_degree(degree):
        lin = tuple(rng.randrange(-span, span + 1) for _ in range(cover.dimension))
        values[face] = AffineFunction(lin, F(rng.randrange(-8, 9), rng.randrange(1, 5)))
    return AffCochain(cover, degree, values)


def seeded_alphas(fibration, rng, count):
    """Coboundaries, coboundaries with one constant or one differential
    moved, whole-number constant shifts and random cochains."""
    cover = fibration.cover
    alphas = [fibration.obstruction_cocycle(), AffCochain(cover, 2)]
    tris = list(cover.faces_of_degree(2))
    for k in range(count):
        alpha = random_cochain(cover, 1, rng).differential()
        kind = k % 5
        if kind and tris:
            tri = rng.choice(tris)
            old = alpha.value(tri)
            if kind == 1:
                moved = AffineFunction(old.linear, old.constant + F(1, rng.randint(2, 5)))
            elif kind == 2:
                moved = AffineFunction(old.linear, old.constant + rng.choice((-1, 1)))
            elif kind == 3:
                lin = list(old.linear)
                lin[rng.randrange(len(lin))] += 1
                moved = AffineFunction(tuple(lin), old.constant)
            else:
                alpha = random_cochain(cover, 2, rng)
                moved = alpha.value(tri)
            values = {t: alpha.value(t) for t in tris}
            values[tri] = moved
            alpha = AffCochain(cover, 2, values)
        alphas.append(alpha)
    return alphas


def cochain_data(beta):
    if beta is None:
        return None
    return {
        edge: (beta.value(edge).linear, beta.value(edge).constant)
        for edge in beta.cover.faces_of_degree(1)
    }


def scaled_cover(name, s):
    """The catalog's cover with every coordinate multiplied by s: chart
    bounds, vertices and translations scale, linear parts stay, so the
    translations are no longer integers."""
    data = json.loads(fibration_to_manifest(load_catalog(name)))
    for chart in data["charts"]:
        polytope = chart["polytope"]
        for ineq in polytope["inequalities"]:
            ineq["bound"] = str(F(ineq["bound"]) * s)
        vertices = polytope["vertices"]
        polytope["vertices"] = [[str(F(x) * s) for x in v] for v in vertices]
    for transition in data["transitions"]:
        transition["translation"] = [str(F(x) * s) for x in transition["translation"]]
    data["fibration"] = {"primitives": []}
    return manifest_to_fibration(json.dumps(data)).cover


SCALED = [
    ("split-torus-4", F(3, 7)), ("thurston-f1", F(2, 9)), ("thurston-f2", F(5, 2))
]
COVERS = [(name, None) for name in CATALOGS] + SCALED
COVER_IDS = [
    name if s is None else f"{name}-times-{s.numerator}-{s.denominator}"
    for name, s in COVERS
]


def cover_of(name, s):
    return load_catalog(name).cover if s is None else scaled_cover(name, s)


@pytest.mark.parametrize("name, s", COVERS, ids=COVER_IDS)
def test_cokernel_and_projection_scales_match_the_dense_system(name, s, monkeypatch):
    cover = cover_of(name, s)
    system, (_, rows) = certificate_matrices(monkeypatch, cover)
    reference = ReferenceCertificateSystem(cover)
    nt = len(reference._tris)
    relations = [densify(dict(r), nt) for r in system._constants.relations]
    assert relations == reference.pi
    assert system._proj_scales == reference.scales
    assert rows == reference.proj_rows
    assert all(type(x) is int for row in rows for x in row)
    assert (s is None) == (set(system._proj_scales) <= {1})
    if reference.proj_rows:
        # the Smith form of identical rows: U, S and V fix the certificate
        assert smith_normal_form(rows) == smith_normal_form(reference.proj_rows)
    assert (len(system._constants.relations) > 0) == (name in TORI)


@pytest.mark.parametrize("name", CATALOGS)
def test_certificates_match_the_dense_system(name):
    fibration = load_catalog(name)
    cover = fibration.cover
    system = cover._certificate_system
    reference = ReferenceCertificateSystem(cover)
    rng = random.Random(sum(map(ord, name)))
    verdicts = {True: 0, False: 0}
    for alpha in seeded_alphas(fibration, rng, 40 if name in TORI else 5):
        ours = system.certificate(alpha)
        assert cochain_data(ours) == cochain_data(reference.certificate(alpha))
        verdicts[ours is not None] += 1
    assert verdicts[True] >= 2
    if name in TORI:
        assert verdicts[False] >= 10, verdicts


def audit_alphas(cover, rng, count):
    """Coboundaries of per-edge affine values drawn as the benchmark's
    ``audit`` workload draws them (differentials in [-4, 4], constants
    k/q with |k| <= 8, q <= 4), every other one with one triangle's
    constant or differential moved."""
    tris = list(cover.faces_of_degree(2))
    alphas = []
    for k in range(count):
        beta = random_cochain(cover, 1, rng, span=4)
        alpha = beta.differential()
        if k % 2 and tris:
            tri = rng.choice(tris)
            old = alpha.value(tri)
            if k % 4 == 1:
                moved = AffineFunction(old.linear, old.constant + F(1, rng.randint(2, 5)))
            else:
                lin = list(old.linear)
                lin[rng.randrange(len(lin))] -= 1
                moved = AffineFunction(tuple(lin), old.constant)
            values = {t: alpha.value(t) for t in tris}
            values[tri] = moved
            alpha = AffCochain(cover, 2, values)
        alphas.append(alpha)
    return alphas


@pytest.mark.parametrize("name, s", COVERS, ids=COVER_IDS)
def test_certificates_match_the_dense_system_on_audit_cochains(name, s):
    cover = cover_of(name, s)
    system = cover._certificate_system
    reference = ReferenceCertificateSystem(cover)
    rng = random.Random(4000 + sum(map(ord, name)))
    verdicts = {True: 0, False: 0}
    for alpha in audit_alphas(cover, rng, 30 if name in TORI else 6):
        ours = system.certificate(alpha)
        assert cochain_data(ours) == cochain_data(reference.certificate(alpha))
        if ours is not None:
            assert all(
                type(ours.value(e).constant) is F for e in cover.faces_of_degree(1)
            )
        verdicts[ours is not None] += 1
    assert verdicts[True] >= 3
    if name in TORI:
        assert verdicts[False] >= 10, verdicts


@pytest.mark.parametrize("name", TORI)
def test_a_torus_certificate_system_forms_no_fraction_product(name, monkeypatch):
    cover = load_catalog(name).cover
    # a cover whose transport table the system builds
    cold = manifest_to_fibration(fibration_to_manifest(load_catalog(name))).cover
    assert "edge_transports" not in vars(cold)
    products = []

    def counting(method):
        def counted(self, other):
            products.append((self, other))
            return method(self, other)

        return counted

    with monkeypatch.context() as patch:
        patch.setattr(F, "__mul__", counting(F.__mul__))
        patch.setattr(F, "__rmul__", counting(F.__rmul__))
        F(1, 2) * 3
        assert len(products) == 1
        system = cover_module._CertificateSystem(cover)
        cold_system = cover_module._CertificateSystem(cold)
    assert products == [(F(1, 2), 3)]
    assert "edge_transports" in vars(cold)
    for built in (system, cold_system):
        assert built._constants.relations and built._kernel


@pytest.mark.parametrize("name", CATALOGS)
def test_analysis_solves_the_lattice_system_once(name, monkeypatch):
    fibration = manifest_to_fibration(fibration_to_manifest(load_catalog(name)))
    alpha = fibration.obstruction_cocycle()
    system = fibration.cover._certificate_system
    want = ObstructionReport(
        alpha=alpha,
        certificate=system.certificate(alpha),
        # the lattice solve of the deleted cover.lattice_image_vanishes
        lattice_image_vanishes=system._lattice.solve(system._alpha_vectors(alpha)[0]) is not None,
    )
    solves = []
    original = system._lattice.solve

    def counting(rhs):
        solves.append(rhs)
        return original(rhs)

    monkeypatch.setattr(system._lattice, "solve", counting)
    report = analyze_obstruction(fibration)
    assert len(solves) == 1
    assert report.alpha == want.alpha
    assert cochain_data(report.certificate) == cochain_data(want.certificate)
    assert report.lattice_image_vanishes is want.lattice_image_vanishes
    assert report.is_trivial is want.is_trivial is (name != "thurston-f1")


# -- the trusted polytope build -------------------------------------------------------


def image_inequalities(poly, phi, inverse):
    """Halfspaces of poly's image under y = M x + tau, unchecked.

    ``inverse`` is phi's inverse; n.x <= b becomes n'.y <= b + n'.tau
    with n' = M^-T n.  The library's ``image_inequalities`` as it stood,
    on the scaled image that the cover's face build reads.
    """
    d, lines = poly._scaled_image(phi, inverse)
    return [(normal, Fraction(b, d)) for normal, b in lines]


def checked_from_inequalities(dimension, inequalities):
    """from_inequalities as it stood: the same vertex search, handed to
    the checked constructor."""
    cleaned = {}
    for normal, bound in inequalities:
        g = 0
        for x in normal:
            g = gcd(g, abs(x))
        if g == 0:
            raise InvalidPolytopeError("zero normal vector in inequality")
        normal, bound = tuple(x // g for x in normal), F(bound) / g
        cleaned[normal] = min(cleaned[normal], bound) if normal in cleaned else bound
    ineqs = sorted(cleaned.items())
    if dimension == 1:
        los = [b / n[0] for n, b in ineqs if n[0] < 0]
        his = [b / n[0] for n, b in ineqs if n[0] > 0]
        if not los or not his:
            raise InvalidPolytopeError("interval is unbounded")
        lo, hi = max(los), min(his)
        if lo > hi:
            raise InvalidPolytopeError("empty interval")
        return IntegralAffinePolytope(1, [((-1,), -lo), ((1,), hi)], [(lo,), (hi,)])
    if dimension != 2:
        raise InvalidPolytopeError(
            "vertex enumeration implemented for dimensions 1 and 2 only"
        )
    points = set()
    for i in range(len(ineqs)):
        for j in range(i + 1, len(ineqs)):
            (a1, b1), (a2, b2) = ineqs[i][0], ineqs[j][0]
            c1, c2 = ineqs[i][1], ineqs[j][1]
            det = a1 * b2 - b1 * a2
            if det == 0:
                continue
            x = F(c1 * b2 - b1 * c2, det)
            y = F(a1 * c2 - c1 * a2, det)
            if all(dot(n, (x, y)) <= b for n, b in ineqs):
                points.add((x, y))
    if not points:
        raise InvalidPolytopeError("inequalities have empty intersection")
    kept = [(n, b) for n, b in ineqs if sum(1 for p in points if dot(n, p) == b) >= 2]
    return IntegralAffinePolytope(2, kept, sorted(points))


def face_inequalities(name):
    cover = load_catalog(name).cover
    for face in sorted(cover.faces):
        lv = face[0]
        ineqs = list(cover.polytope((lv,)).inequalities)
        for j in face[1:]:
            ineqs.extend(
                image_inequalities(
                    cover.polytope((j,)), cover.transition(j, lv), cover.transition(lv, j)
                )
            )
        yield f"{name}-{'-'.join(map(str, face))}", cover.dimension, ineqs


def box(lo_x, hi_x, lo_y, hi_y):
    return [((-1, 0), -lo_x), ((1, 0), hi_x), ((0, -1), -lo_y), ((0, 1), hi_y)]


EDGE_CASES = [
    ("point", 2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)]),
    ("point-of-a-box", 2, box(1, 1, F(1, 2), F(1, 2))),
    ("segment", 2, box(0, 0, 0, 3)),
    ("slanted-segment", 2, [((1, -1), 0), ((-1, 1), 0), ((1, 0), 2), ((0, -1), 1)]),
    ("empty", 2, box(2, 1, 0, 1)),
    ("empty-halfplanes", 2, [((1, 0), -1), ((-1, 0), -1)]),
    ("parallel-only", 2, [((1, 0), 1), ((-1, 0), 1)]),
    ("wedge", 2, [((-1, 0), 0), ((0, -1), 0)]),
    ("wedge-cut", 2, [((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1)]),
    ("wedge-three-points", 2, [((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1), ((1, 0), 5)]),
    ("half-strip", 2, [((0, -1), 0), ((0, 1), 1), ((-1, 0), 0)]),
    ("strip-with-slant", 2, [((0, -1), 0), ((0, 1), 2), ((-1, 1), 0)]),
    ("triangle", 2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), F(7, 3))]),
    ("redundant-box", 2, box(0, 2, -1, 1) + [((1, 1), 3), ((1, 0), 5), ((2, 0), 4)]),
    ("zero-normal", 2, [((0, 0), 1), ((1, 0), 1)]),
    ("interval", 1, [((-1,), 0), ((2,), 3), ((1,), 5)]),
    ("interval-point", 1, [((-1,), -2), ((1,), 2)]),
    ("interval-empty", 1, [((-1,), -2), ((1,), 1)]),
    ("interval-unbounded", 1, [((1,), 1)]),
    ("three-dimensions", 3, [((1, 0, 0), 1)]),
]
FACE_CASES = [case for name in CATALOGS for case in face_inequalities(name)]


def outcome(build, dimension, ineqs):
    try:
        polytope = build(dimension, ineqs)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        polytope.dimension,
        [(n, b, type(b)) for n, b in polytope.inequalities],
        [(v, [type(x) for x in v]) for v in polytope.vertices],
        [type(n) for n, _ in polytope.inequalities],
    )


@pytest.mark.parametrize(
    "dimension, ineqs",
    [case[1:] for case in FACE_CASES + EDGE_CASES],
    ids=[case[0] for case in FACE_CASES + EDGE_CASES],
)
def test_trusted_build_matches_the_checked_constructor(dimension, ineqs):
    expected = outcome(checked_from_inequalities, dimension, ineqs)
    assert outcome(IntegralAffinePolytope.from_inequalities, dimension, ineqs) == expected


def test_edge_cases_reach_every_refusal():
    outcomes = [outcome(checked_from_inequalities, d, i) for _, d, i in EDGE_CASES]
    messages = {o[1] for o in outcomes if o[0] is InvalidPolytopeError}
    assert "polytope has no inequalities" in messages
    assert "inequalities have empty intersection" in messages
    assert "interval is unbounded" in messages
    assert any("is not an extreme point" in m for m in messages)
    # a planar set with a vertex and a ray starts the ray at a point on
    # one kept line only, so it is refused as not extreme before its
    # recession cone is looked at
    for name in ("wedge-cut", "wedge-three-points", "half-strip", "strip-with-slant"):
        _, d, ineqs = next(case for case in EDGE_CASES if case[0] == name)
        assert not recession_cone_is_trivial([n for n, _ in ineqs], d)
        assert "is not an extreme point" in outcome(checked_from_inequalities, d, ineqs)[1]
