"""The four benchmark workloads.

Each workload calls mirrorforge's public functions the way the CLI's
``cmd_*`` functions do, wraps every call into a layer in a traced span,
and attaches to every job the answers it must give, each marked with
where that answer comes from.  ``cycle(seed, index)`` is the job list of
one cycle: the same shapes every cycle, parameters drawn from the seed.
"""

from __future__ import annotations

import json
import operator
import random
from fractions import Fraction

import oracles
from harness import Check, Job

F = Fraction

THETA = "an independent count: the theta functions of a degree-k line on the Tate curve, max(k, 0)"
SHEETS = "an independent count: |k| parallel lines meet every fibre in |k| points"
INDUCED = "construction: patch_global assembles the module a geometric line induces"
TRIVIAL = "construction: the catalog entry's class is trivial, so exp of a certificate is a module"
OBSTRUCTED = "construction: only thurston-f1 has quadratic primitives on a wrapping edge"
COBOUNDARY = "construction: alpha is d(beta) for a seeded beta"
CHAIN = "construction: the scaled pair lies on a nested chain (oracles.pairs_on_chains)"
UNIT = "construction: t is a unit, so determinants stay units"
CLOSED = "construction: exp of a closed cochain satisfies the cocycle identity"
UNIMODULAR = "construction: integral affine transitions have determinant +-1"
CANONICAL = "construction: the text is the canonical rendering of a catalog entry"
BROKEN = "construction: a required key was dropped or the JSON was cut short"
SERIES = "an independent computation in oracles.py over plain Fractions"
LDU = "construction: L*D*U with unit-triangular L, U and a known diagonal D"


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _spread(workload, seed, shape, index, size):
    """Index into a list of ``size`` for cycle ``index`` of one shape.

    Successive cycles follow the van der Corput sequence (0, 1/2, 1/4,
    3/4, ...) from a seeded start, so the first few cycles of any run
    already sample the list evenly, and with ``size`` a power of two the
    first ``size`` cycles take distinct entries.  Where the cost depends
    on the entry, the median over a run's cycles then hardly depends on
    the seed.
    """
    start = random.Random(f"{workload}:{seed}:{shape}").random()
    fraction, scale = 0.0, 0.5
    while index:
        index, bit = divmod(index, 2)
        fraction += bit * scale
        scale /= 2
    return int((start + fraction) % 1 * size)


# The 32 line offsets p/q in (0, 1) with q in {5, 7, 11, 13}, in order.
OFFSETS = sorted(F(p, q) for q in (5, 7, 11, 13) for p in range(1, q))


class Sections:
    """The ``sheaf`` pipeline: patch, validate, sections, threshold, fibres.

    Cache state: catalog covers are loaded and their face charts and
    nested pairs are filled during set-up; every job builds a new module
    and solves its own section system.  Shared work: none, because no two
    jobs in a run share (catalog, slope, precision, offset).
    """

    name = "sections"
    # (catalog, slope, precision): slopes +-1, +-2 and 3 over the precision
    # axis 2..6, and slopes +-1 again on the four-arc circle.  A job at
    # precision 10 takes seconds on its own, and so does any slope-2 or
    # slope-3 job on the four-arc circle past precision 2.
    SHAPES = (
        ("elliptic-demo", 1, 6),
        ("elliptic-demo", -1, 4),
        ("elliptic-demo", 2, 4),
        ("elliptic-demo", -2, 2),
        ("elliptic-demo", 3, 2),
        ("split-torus-2", 1, 2),
        ("split-torus-2", -1, 2),
    )

    def __init__(self, lib):
        self.lib = lib
        fd, ts = lib.floer_demo, lib.twisted_sheaves
        self.fibrations = {
            name: lib.catalog.load_catalog(name) for name in ("elliptic-demo", "split-torus-2")
        }
        for fibration in self.fibrations.values():
            ts.validate_module(fd.patch_global(fd.LinearLagrangian(1), fibration), 1)

    def _points(self, rng, cover):
        """Three mirror points per chart, drawn as ``sheaf`` draws them."""
        out = []
        for i in range(len(cover.chart_ids)):
            verts = cover.face_chart((i,)).polytope.vertices
            low, high = verts[0], verts[-1]
            chart = []
            for _ in range(3):
                theta = F(rng.randint(1, 7), 8)
                position = tuple(a + theta * (b - a) for a, b in zip(low, high))
                unit = tuple(
                    F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for _ in position
                )
                chart.append((position, unit))
            out.append(tuple(chart))
        return tuple(out)

    def cycle(self, seed, index):
        rng = _rng(self.name, seed, index)
        jobs = []
        for n, (catalog, slope, precision) in enumerate(self.SHAPES):
            params = {
                "catalog": catalog,
                "slope": slope,
                "precision": precision,
                "offset": OFFSETS[_spread(self.name, seed, n, index, len(OFFSETS))],
                "points": self._points(rng, self.fibrations[catalog].cover),
            }
            checks = [
                Check("validated", True, INDUCED),
                Check("rank", max(slope, 0), THETA),
                Check("threshold", range(1, precision + 1), "definition: an integer precision in 1..E"),
                Check("degree0_ranks", [abs(slope)], SHEETS),
            ]
            jobs.append(Job(index, n, "sheaf", params, checks))
        return jobs

    def run(self, job, tracer):
        fd, ts, mc = self.lib.floer_demo, self.lib.twisted_sheaves, self.lib.mirror_charts
        p = job.params
        fibration = self.fibrations[p["catalog"]]
        cover = fibration.cover
        precision = p["precision"]
        line = fd.LinearLagrangian(p["slope"], p["offset"])
        module = tracer.call("floer_demo.patch_global", fd.patch_global, line, fibration)
        report = tracer.call(
            "twisted_sheaves.validate_module.accept", ts.validate_module, module, precision
        )
        tracer.count("twisted_sheaves.validate_module.pairs_checked", report.pairs_checked)
        tracer.count("twisted_sheaves.validate_module.triples_checked", report.triples_checked)
        window = fd.section_window(line, precision)
        space = tracer.call(
            "twisted_sheaves.global_sections", ts.global_sections,
            module, precision, max_window=window + 2, min_window=window,
        )
        tracer.count("twisted_sheaves.global_sections.radii_tried", space.window - window + 1)
        threshold = tracer.call(
            "twisted_sheaves.stabilisation_threshold", ts.stabilisation_threshold,
            module, precision, max_window=window + 2, min_window=window,
        )
        degree0 = set()
        for chart, points in enumerate(p["points"]):
            local = tracer.call("floer_demo.local_module", fd.local_module, line, cover, chart)
            complex_ = local.complex()
            for position, unit in points:
                ranks = tracer.call(
                    "twisted_sheaves.fiber_cohomology", ts.fiber_cohomology,
                    complex_, mc.MirrorPoint(position, unit), precision,
                )
                degree0.add(ranks.get(0, 0))
        return {
            "validated": report.ok,
            "rank": space.rank,
            "threshold": threshold,
            "degree0_ranks": sorted(degree0),
        }


class Audit:
    """Repeated validator and certificate checks on warm fibrations.

    Cache state: every catalog is loaded, and its face charts, nested
    pairs and chains, twist factors and certificate system are filled
    during set-up; jobs only read them.  Shared work: the same five
    catalog fibrations every cycle; modules, mutants and cochains are new per job.
    """

    name = "audit"
    TRIVIAL = ("elliptic-demo", "split-torus-2", "split-torus-4", "thurston-f2")
    TORUS_TRIVIAL = ("split-torus-4", "thurston-f2")
    TORUS = ("split-torus-4", "thurston-f1", "thurston-f2")
    PRECISION = 10
    REJECT_PRECISION = 3

    def __init__(self, lib):
        self.lib = lib
        cat, ts = lib.catalog, lib.twisted_sheaves
        self.fibrations = {name: cat.load_catalog(name) for name in cat.catalog_ids()}
        for name in cat.catalog_ids():
            lib.cover.analyze_obstruction(self.fibrations[name])
        for name in self.TRIVIAL:
            module = ts.canonical_twisted_module(self.fibrations[name])
            ts.validate_module(module, self.PRECISION)
        self.chain_pairs = {
            name: sorted(oracles.pairs_on_chains(self.fibrations[name].cover.faces))
            for name in self.TORUS_TRIVIAL
        }
        self.t = lib.novikov.NovikovScalar.monomial(1, 1)

    def cycle(self, seed, index):
        rng = _rng(self.name, seed, index)
        shapes = []
        # Slopes up to 5 on both circle catalogs.  Validation cost grows
        # factorially with the slope: the four slope-6 jobs would take
        # 2 s, half the cycle, and a slope-7 job 2-4 s on its own.
        for catalog in ("elliptic-demo", "split-torus-2"):
            for k in range(1, 6):
                shapes += [("line", catalog, k), ("line", catalog, -k)]
        shapes += [("canonical", name) for name in self.TRIVIAL]
        # t-scaled mutants of torus modules only: circle covers have no
        # nested chains, so a scaled circle module is rightly accepted.
        shapes += [
            ("reject", name, stop_early) for name in self.TORUS_TRIVIAL for stop_early in (True, False)
        ]
        shapes += [("certificate", name) for name in self.TORUS for _ in range(2)]
        jobs = []
        for n, (kind, catalog, *rest) in enumerate(shapes):
            params = {"catalog": catalog}
            if kind == "line":
                q = rng.choice((5, 7, 11, 13))
                params.update(slope=rest[0], offset=F(rng.randint(1, q - 1), q))
                checks = [Check("ok", True, INDUCED)]
            elif kind == "canonical":
                checks = [Check("ok", True, TRIVIAL)]
            elif kind == "reject":
                pairs = self.chain_pairs[catalog]
                params.update(pair=pairs[_spread(self.name, seed, n, index, len(pairs))], stop_early=rest[0])
                checks = [Check("ok", False, CHAIN), Check("determinant_failures", 0, UNIT)]
            else:
                params["beta"] = self._cochain(rng, self.fibrations[catalog].cover)
                checks = [Check("found", True, COBOUNDARY), Check("d_cert_is_alpha", True, COBOUNDARY)]
            jobs.append(Job(index, n, kind, params, checks))
        return jobs

    @staticmethod
    def _cochain(rng, cover, span=4):
        """Per-edge affine values (linear part, constant), as ``selftest`` draws them."""
        return tuple(
            (
                edge,
                tuple(rng.randrange(-span, span + 1) for _ in range(cover.dimension)),
                F(rng.randrange(-8, 9), rng.randrange(1, 5)),
            )
            for edge in cover.faces_of_degree(1)
        )

    def _validate(self, tracer, outcome, module, precision, stop_early=False):
        ts = self.lib.twisted_sheaves
        report = tracer.call(
            f"twisted_sheaves.validate_module.{outcome}", ts.validate_module,
            module, precision, stop_early=stop_early,
        )
        tracer.count("twisted_sheaves.validate_module.pairs_checked", report.pairs_checked)
        tracer.count("twisted_sheaves.validate_module.triples_checked", report.triples_checked)
        return report

    def _canonical(self, tracer, fibration):
        ts = self.lib.twisted_sheaves
        return tracer.call(
            "twisted_sheaves.canonical_twisted_module", ts.canonical_twisted_module, fibration
        )

    def run(self, job, tracer):
        lib, p = self.lib, job.params
        fibration = self.fibrations[p["catalog"]]
        if job.kind == "line":
            line = lib.floer_demo.LinearLagrangian(p["slope"], p["offset"])
            module = tracer.call(
                "floer_demo.patch_global", lib.floer_demo.patch_global, line, fibration
            )
            return {"ok": self._validate(tracer, "accept", module, self.PRECISION).ok}
        if job.kind == "canonical":
            module = self._canonical(tracer, fibration)
            return {"ok": self._validate(tracer, "accept", module, self.PRECISION).ok}
        if job.kind == "reject":
            module = self._canonical(tracer, fibration)
            low, top = p["pair"]
            entry = module.restriction(low, top)[0][0] * self.t
            bad = module.with_entry(low, top, 0, 0, entry)
            report = self._validate(
                tracer, "reject", bad, self.REJECT_PRECISION, stop_early=p["stop_early"]
            )
            return {"ok": report.ok, "determinant_failures": len(report.determinant_failures)}
        cover = fibration.cover
        values = {
            edge: lib.affine.AffineFunction(linear, constant) for edge, linear, constant in p["beta"]
        }
        alpha = lib.cover.AffCochain(cover, 1, values).differential()
        certificate = tracer.call(
            "cover.coboundary_certificate", lib.cover.coboundary_certificate, alpha
        )
        return {
            "found": certificate is not None,
            "d_cert_is_alpha": certificate is not None and certificate.differential() == alpha,
        }


class Atlas:
    """``build``, ``gerbe`` and ``validate`` questions asked from manifest text.

    Cache state: cold.  Every job parses its manifest into a new cover,
    so no ``Cover`` object is reused across jobs and every cover cache
    starts empty.  Shared work: the five catalog manifests repeat every
    cycle, so a cache keyed by manifest text would hit on every valid
    job after the first cycle; the library keeps no such cache.
    """

    name = "atlas"
    MUTANTS = ("drop", "cut")

    def __init__(self, lib):
        self.lib = lib
        cat, man = lib.catalog, lib.manifest
        self.texts = {
            name: man.fibration_to_manifest(cat.load_catalog(name)) for name in cat.catalog_ids()
        }

    def cycle(self, seed, index):
        rng = _rng(self.name, seed, index)
        jobs = []
        for name in sorted(self.texts):
            nontrivial = name == "thurston-f1"
            checks = [
                Check("trivial", not nontrivial, OBSTRUCTED),
                Check("lattice_image_zero", not nontrivial, OBSTRUCTED),
                Check("d_cert_is_alpha", None if nontrivial else True, TRIVIAL),
                Check("gerbe_holds", True, CLOSED),
                Check("maps_unimodular", True, UNIMODULAR),
                Check("roundtrip_identical", True, CANONICAL),
            ]
            jobs.append(Job(index, len(jobs), "valid", {"catalog": name, "text": self.texts[name]}, checks))
        # One invalid job per mutation, each over every catalog's text, so
        # that a job's cost hardly depends on where the cut falls.
        for mutation in self.MUTANTS:
            texts = tuple(self._mutate(rng, self.texts[name], mutation) for name in sorted(self.texts))
            params = {"mutation": mutation, "texts": texts}
            want = ["ManifestError"] * len(texts)
            jobs.append(Job(index, len(jobs), "invalid", params, [Check("raised", want, BROKEN)]))
        return jobs

    @staticmethod
    def _mutate(rng, text, mutation):
        if mutation == "cut":
            # json.dumps text ends in "}\n": any shorter prefix is not JSON.
            return text[: rng.randint(0, len(text) - 2)]
        data = json.loads(text)
        holders = [(data, ("dimension", "charts", "cover", "transitions")), (data["cover"], ("faces",))]
        holders += [(chart, ("id", "polytope")) for chart in data["charts"]]
        holders += [(t, ("from", "to", "linear", "translation")) for t in data["transitions"]]
        holder, keys = rng.choice(holders)
        del holder[rng.choice(keys)]
        return json.dumps(data, sort_keys=True, indent=2)

    def run(self, job, tracer):
        lib = self.lib
        parse = lib.manifest.manifest_to_fibration
        if job.kind == "invalid":
            raised = []
            for text in job.params["texts"]:
                tracer.count("manifest.manifest_to_fibration.bytes", len(text))
                try:
                    tracer.call("manifest.manifest_to_fibration", parse, text)
                    raised.append(None)
                except lib.errors.ManifestError:
                    tracer.count("manifest.manifest_to_fibration.rejected")
                    raised.append("ManifestError")
            return {"raised": raised}
        text = job.params["text"]
        tracer.count("manifest.manifest_to_fibration.bytes", len(text))
        fibration = tracer.call("manifest.manifest_to_fibration", parse, text)
        cover = fibration.cover
        report = tracer.call("cover.analyze_obstruction", lib.cover.analyze_obstruction, fibration)
        gerbe = tracer.call("mirror_charts.verify_gerbe", lib.mirror_charts.verify_gerbe, fibration)
        tracer.count("mirror_charts.verify_gerbe.quadruples", gerbe.quadruples)
        unimodular = True
        for i, j in cover.faces_of_degree(1):
            chart_map = tracer.call(
                "mirror_charts.chart_monomial_map", lib.mirror_charts.chart_monomial_map, cover, i, j
            )
            unimodular &= abs(oracles.int_det([list(r) for r in chart_map.matrix])) == 1
        certificate = report.certificate
        return {
            "trivial": report.is_trivial,
            "lattice_image_zero": report.lattice_image_vanishes,
            "d_cert_is_alpha": None if certificate is None else certificate.differential() == report.alpha,
            "gerbe_holds": gerbe.holds,
            "maps_unimodular": unimodular,
            "roundtrip_identical": lib.manifest.fibration_to_manifest(fibration) == text,
        }


class Series:
    """Direct calls into ``novikov``, the API the package root exports.

    Cache state: none; Novikov scalars and matrices keep no caches.
    Shared work: none, every operand is drawn afresh.
    """

    name = "series"
    BATCH = 40
    INVERSE_BATCH = 20
    SIZES = range(2, 8)
    # The cofactor determinant costs 0.3-0.9 s at n = 6, 60% of a cycle
    # on its own and the most varied job in it, and about 7 s at n = 7;
    # so it stops at 5.
    DET_SIZES = range(2, 6)

    def __init__(self, lib):
        self.lib = lib

    def cycle(self, seed, index):
        rng = _rng(self.name, seed, index)
        shapes = [(op, None) for op in ("mul", "add", "inverse") for _ in range(2)]
        shapes += [("rank", n) for n in self.SIZES]
        shapes += [("kernel", n) for n in self.SIZES]
        shapes += [("determinant", n) for n in self.DET_SIZES]
        jobs = []
        for n, (kind, size) in enumerate(shapes):
            params, checks = getattr(self, f"_{kind}")(rng, size)
            jobs.append(Job(index, n, kind, params, checks))
        return jobs

    def _binary(self, rng, combine):
        pairs = tuple(
            (oracles.random_series(rng, F(-2), F(4), 4), oracles.random_series(rng, F(-2), F(4), 4))
            for _ in range(self.BATCH)
        )
        want = [(combine(a, b), None) for a, b in pairs]
        return {"pairs": pairs}, [Check("results", want, SERIES)]

    def _mul(self, rng, _):
        return self._binary(rng, oracles.mul)

    def _add(self, rng, _):
        return self._binary(rng, oracles.add)

    def _inverse(self, rng, _):
        operands = []
        for _ in range(self.INVERSE_BATCH):
            v = F(rng.randint(-2, 2), 2)
            cutoff = v + rng.randint(3, 5)
            lead = ((v, F(rng.choice((-2, -1, 1, 3)))),)
            tail = oracles.random_series(rng, v + F(1, 2), cutoff - F(1, 2), 3)
            operands.append((oracles.add(lead, tail), cutoff))
        want = [oracles.inverse(terms, cutoff) for terms, cutoff in operands]
        return {"operands": tuple(operands)}, [Check("results", want, SERIES)]

    def _rank(self, rng, n):
        rows, _ = oracles.ldu(rng, n, n - 1)
        return {"rows": rows, "precision": 3 * n + 1}, [Check("rank", n - 1, LDU)]

    def _kernel(self, rng, n):
        rank = max(1, n - 2)
        rows, _ = oracles.ldu(rng, n, rank)
        precision = 3 * n + 1

        def spans_kernel(vectors):
            return (
                vectors is not None
                and len(vectors) == n - rank
                and all(any(vec) and oracles.annihilates(rows, vec, precision) for vec in vectors)
            )

        return {"rows": rows, "precision": precision}, [
            Check("vectors", spans_kernel, LDU + "; M*v checked in oracles.py")
        ]

    def _determinant(self, rng, n):
        rows, det = oracles.ldu(rng, n, n)
        return {"rows": rows}, [Check("det", (det, None), LDU)]

    def _scalar(self, terms, cutoff=None):
        return self.lib.novikov.NovikovScalar(terms, cutoff)

    def _counted(self, tracer, name, fn, *args):
        try:
            out = tracer.call(name, fn, *args)
        except self.lib.errors.PrecisionExhaustedError:
            tracer.count("novikov.precision_exhausted")
            raise
        return out

    def run(self, job, tracer):
        p = job.params
        if job.kind in ("mul", "add"):
            fn = operator.mul if job.kind == "mul" else operator.add
            name = f"novikov.scalar_{job.kind}"
            results = []
            for a, b in p["pairs"]:
                r = self._counted(tracer, name, fn, self._scalar(a), self._scalar(b))
                tracer.count("novikov.terms_out", len(r.terms))
                results.append((r.terms, r.cutoff))
            return {"results": results}
        if job.kind == "inverse":
            results = []
            for terms, cutoff in p["operands"]:
                x = self._scalar(terms, cutoff)
                r = self._counted(tracer, "novikov.scalar_inverse", x.inverse)
                tracer.count("novikov.terms_out", len(r.terms))
                results.append((r.terms, r.cutoff))
            return {"results": results}
        matrix = self.lib.novikov.NovikovMatrix(
            [[self._scalar(e) for e in row] for row in p["rows"]]
        )
        if job.kind == "rank":
            return {"rank": self._counted(tracer, "novikov.matrix_rank", matrix.rank_at_precision, p["precision"])}
        if job.kind == "kernel":
            basis = self._counted(
                tracer, "novikov.matrix_kernel", matrix.kernel_basis_at_precision, p["precision"]
            )
            vectors = [tuple(x.terms for x in vec) for vec in basis]
            tracer.count("novikov.terms_out", sum(len(t) for vec in vectors for t in vec))
            return {"vectors": vectors}
        det = self._counted(tracer, "novikov.matrix_determinant", matrix.determinant)
        tracer.count("novikov.terms_out", len(det.terms))
        return {"det": (det.terms, det.cutoff)}


WORKLOADS = {w.name: w for w in (Sections, Audit, Atlas, Series)}
