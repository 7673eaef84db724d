"""Closed-loop runner, span tracer and metrics of the mirrorforge benchmark.

One client runs one job at a time; the next job starts when the previous
one has finished.  A workload hands out its jobs in cycles.  Every cycle
holds the same job shapes, with parameters drawn afresh from the seed, and
the loop only stops between cycles, so every run measures the same mix of
work however many cycles fit in it.

A shared machine runs faster or slower by a third or more for seconds to
minutes at a time.  So a fixed reference loop is timed before and after
every job and every set-up, and the timings the end-to-end metrics use are
given at reference speed: scaled by REFERENCE_S over the reference loop's
time next to them.  A change to mirrorforge does not touch the loop, so
it moves these timings as it moves wall-clock time on a steady machine.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

LIBRARY_MODULES = (
    "affine",
    "catalog",
    "cover",
    "errors",
    "floer_demo",
    "manifest",
    "mirror_charts",
    "novikov",
    "twisted_sheaves",
)

SETUP_REPEATS = 5

# The time the reference loop is taken to need; about its median on a
# 2-core shared virtual machine with Python 3.11.
REFERENCE_S = 0.002

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_geomean_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer(name, *counts):
    """Metric units for one wrapped public call: busy time, calls and
    any counts recorded at the same boundary."""
    units = {f"{name}.s": "s", f"{name}.calls": "count"}
    units.update({f"{name}.{c}": "count" for c in counts})
    return units


PER_LAYER = {
    **_layer("twisted_sheaves.global_sections", "radii_tried"),
    **_layer("twisted_sheaves.stabilisation_threshold"),
    **_layer("twisted_sheaves.fiber_cohomology"),
    **_layer("floer_demo.patch_global"),
    **_layer("floer_demo.local_module"),
    **_layer("twisted_sheaves.validate_module.accept"),
    **_layer("twisted_sheaves.validate_module.reject"),
    "twisted_sheaves.validate_module.pairs_checked": "count",
    "twisted_sheaves.validate_module.triples_checked": "count",
    **_layer("twisted_sheaves.canonical_twisted_module"),
    **_layer("cover.coboundary_certificate"),
    **_layer("manifest.manifest_to_fibration", "rejected"),
    "manifest.manifest_to_fibration.bytes": "bytes",
    **_layer("cover.analyze_obstruction"),
    **_layer("mirror_charts.verify_gerbe", "quadruples"),
    **_layer("mirror_charts.chart_monomial_map"),
    **_layer("novikov.scalar_mul"),
    **_layer("novikov.scalar_add"),
    **_layer("novikov.scalar_inverse"),
    **_layer("novikov.matrix_rank"),
    **_layer("novikov.matrix_kernel"),
    **_layer("novikov.matrix_determinant"),
    "novikov.terms_out": "count",
    "novikov.precision_exhausted": "count",
    "tracing_overhead": "1/s",
}


def load_library():
    """Import mirrorforge afresh and return its modules by short name.

    Earlier imports are dropped first, so a repeated set-up pays for the
    import and for the ``lru_cache``d catalog again.
    """
    for name in [n for n in sys.modules if n.split(".")[0] == "mirrorforge"]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"mirrorforge.{m}") for m in LIBRARY_MODULES}
    )


def reference_s():
    """Wall time of one pass of a fixed loop of Fraction arithmetic and
    dict stores, the kind of work mirrorforge does.  The cyclic collector
    is paused, so the time does not depend on what the library keeps alive."""
    gc.disable()
    try:
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 200):
            x = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
            total += x
            table[i, x.denominator % 7] = x
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(elapsed, before, after):
    """``elapsed`` seconds scaled to a machine where the reference loop,
    timed ``before`` and ``after`` them, takes REFERENCE_S."""
    return elapsed * REFERENCE_S / ((before + after) / 2)


# -- jobs and their checks -------------------------------------------------


@dataclass
class Check:
    """One expected answer.  ``want`` is a value the answer must equal, a
    range it must lie in, or a predicate it must satisfy; ``source`` says
    where the expectation comes from, which is never the code under test."""

    key: str
    want: object
    source: str

    def holds(self, got):
        if isinstance(self.want, range):
            return got in self.want
        if callable(self.want):
            return bool(self.want(got))
        return got == self.want


@dataclass
class Job:
    """One job: its cycle, its shape (its place in every cycle's list of
    shapes), what to run and the answers to expect."""

    cycle: int
    shape: int
    kind: str
    params: dict
    checks: list = field(default_factory=list)

    @property
    def id(self):
        return f"{self.cycle}.{self.shape}"

    def problems(self, answer):
        return [
            f"job {self.id} ({self.kind}): {c.key} = {answer.get(c.key)!r} "
            f"is wrong; expected by {c.source}"
            for c in self.checks
            if not c.holds(answer.get(c.key))
        ]


# -- tracing ---------------------------------------------------------------


class Tracer:
    """Spans and counts around the public calls the benchmark makes.

    Disabled, ``call`` is a plain call and ``count`` does nothing.  Spans
    are kept in memory as [name, start, end, parent, job] and written out
    when the run ends.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []

    @contextmanager
    def span(self, name, job=None):
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, job]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, key, n=1):
        if self.enabled:
            self.counts[key] += n

    def busy(self):
        """Self time and call count per span name.  A span's self time is
        its duration minus its children's; children of one span never
        overlap, because the loop is single-threaded and spans nest."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        seconds, calls = defaultdict(float), defaultdict(int)
        for (name, *_), s in zip(self.spans, own):
            seconds[name] += s
            calls[name] += 1
        return seconds, calls

    def dump(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# -- the closed loop -------------------------------------------------------


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    shapes: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)

    def by_kind(self):
        out = defaultdict(list)
        for kind, latency in zip(self.kinds, self.latencies):
            out[kind].append(latency)
        return out

    def shape_medians(self, latencies=None):
        """Median latency of each job shape over the run's cycles, at
        reference speed unless other ``latencies`` are given.

        A shape's parameters are drawn afresh each cycle; the median over
        cycles is steady against the odd costly draw, where a mean over
        all jobs or a median pooled over shapes of very different cost is
        not.
        """
        out = defaultdict(list)
        for shape, latency in zip(self.shapes, self.scaled if latencies is None else latencies):
            out[shape].append(latency)
        return [statistics.median(v) for v in out.values()]

    def jobs_per_s(self, latencies=None):
        """Jobs answered correctly per second: one cycle's jobs over the
        sum of their shapes' median latencies, scaled by the share of
        jobs answered correctly."""
        medians = self.shape_medians(latencies)
        correct = 1 - self.failed / len(self.latencies)
        return correct * len(medians) / sum(medians)

    def job_p50_geomean_s(self, latencies=None):
        """Geometric mean of the shapes' median latencies: every kind of
        job counts alike, however long it takes."""
        return statistics.geometric_mean(self.shape_medians(latencies))


def execute(workload, job, tracer, tally, before=None):
    """Run one job, time it, then check its answer outside the timing.

    The reference loop is timed right after the job; ``before`` is its
    time right before, taken afresh when not given.  Returns the time
    after, which is the time before the next job.
    """
    if before is None:
        before = reference_s()
    with tracer.span("job", job.id) if tracer.enabled else nullcontext():
        start = time.perf_counter()
        try:
            answer = workload.run(job, tracer)
            error = None
        except Exception:
            answer, error = None, traceback.format_exc()
        latency = time.perf_counter() - start
    after = reference_s()
    tally.latencies.append(latency)
    tally.scaled.append(at_reference_speed(latency, before, after))
    tally.kinds.append(job.kind)
    tally.shapes.append(job.shape)
    problems = (
        [f"job {job.id} ({job.kind}) raised:\n{error}"]
        if error
        else job.problems(answer)
    )
    if problems:
        tally.failed += 1
        tally.problems.extend(problems)
    return after


@dataclass
class Run:
    setup_s: float
    setup_wall_s: float
    untraced: Tally
    traced: Tally
    tracer: Tracer
    cycles: int
    repeats: int


def run(workload_class, seed, seconds, trace):
    """Run whole cycles until the cycles have taken ``seconds``.

    Set-up (import, catalog load, warm-up and the cycle's job list) runs
    again before each of the first SETUP_REPEATS cycles, and after the
    last cycle if the run held fewer, so that a burst of load from other
    processes reaches only some of the set-ups; ``setup_s`` is their
    median at reference speed.  With ``trace`` each cycle runs twice,
    untraced and then traced on the same jobs: the difference is the
    tracing overhead, and the traced pass gives per-layer numbers.
    """
    setups = []
    workload = None

    def set_up(index):
        nonlocal workload
        workload = None
        gc.collect()
        before = reference_s()
        start = time.perf_counter()
        workload = workload_class(load_library())
        jobs = workload.cycle(seed, index)
        elapsed = time.perf_counter() - start
        setups.append((elapsed, at_reference_speed(elapsed, before, reference_s())))
        return jobs

    tracer = Tracer()
    untraced, traced = Tally(), Tally()
    seen, repeats = set(), 0
    measured, cycles = 0.0, 0
    while measured < seconds:
        if len(setups) < SETUP_REPEATS:
            jobs = set_up(cycles)
        else:
            jobs = workload.cycle(seed, cycles)
        for job in jobs:
            key = repr(sorted(job.params.items()))
            repeats += key in seen
            seen.add(key)
        started = time.perf_counter()
        passes = ((False, untraced), (True, traced)) if trace else ((False, untraced),)
        for enabled, tally in passes:
            tracer.enabled = enabled
            reference = reference_s()
            for job in jobs:
                reference = execute(workload, job, tracer, tally, reference)
        tracer.enabled = False
        measured += time.perf_counter() - started
        cycles += 1
    while len(setups) < SETUP_REPEATS:
        set_up(0)
    wall, scaled = zip(*setups)
    return Run(statistics.median(scaled), statistics.median(wall), untraced, traced, tracer, cycles, repeats)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(result):
    t = result.untraced
    return {
        "jobs_per_s": t.jobs_per_s(),
        "job_p50_geomean_s": t.job_p50_geomean_s(),
        "setup_s": result.setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(result):
    """Per-layer numbers from the traced passes, per cycle."""
    seconds, calls = result.tracer.busy()
    values = {}
    for name in PER_LAYER:
        if name.endswith(".s"):
            value = seconds.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        else:
            value = result.tracer.counts.get(name, 0)
        values[name] = value / result.cycles
    values["tracing_overhead"] = (
        result.traced.jobs_per_s() - result.untraced.jobs_per_s()
    )
    return values
