"""Self-tests of the benchmark harness.  Run with

    python3 -m pytest -q bench
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import oracles  # noqa: E402
import pytest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

F = Fraction


@pytest.fixture(scope="module")
def lib():
    return harness.load_library()


@pytest.fixture(scope="module")
def built(lib):
    return {name: cls(lib) for name, cls in WORKLOADS.items()}


def _listing(jobs):
    return [(job.id, job.kind, job.params) for job in jobs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_seed_alone_fixes_the_job_list(built, name):
    workload = built[name]
    first = _listing(workload.cycle(7, 0))
    assert first == _listing(workload.cycle(7, 0))
    assert first != _listing(workload.cycle(8, 0))
    assert first != _listing(workload.cycle(7, 1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_cycle_has_the_same_shapes(built, name):
    def shapes(jobs):
        return sorted((job.shape, job.kind, len(job.checks)) for job in jobs)

    workload = built[name]
    assert shapes(workload.cycle(3, 0)) == shapes(workload.cycle(4, 5))


def test_sections_jobs_never_share_inputs(built):
    workload = built["sections"]
    keys = [
        (j.params["catalog"], j.params["slope"], j.params["precision"], j.params["offset"])
        for index in range(32)
        for j in workload.cycle(5, index)
    ]
    assert len(keys) == len(set(keys))


def test_a_wrong_expected_answer_is_a_failure(built):
    workload = built["series"]
    jobs = [j for j in workload.cycle(1, 0) if j.kind == "rank"][:2]
    right, wrong = jobs
    wrong.checks = [harness.Check("rank", wrong.checks[0].want + 1, "an injected error")]
    tally = harness.Tally()
    tracer = harness.Tracer()
    harness.execute(workload, right, tracer, tally)
    assert tally.failed == 0
    harness.execute(workload, wrong, tracer, tally)
    assert tally.failed == 1
    assert "an injected error" in tally.problems[0]


def test_latencies_are_scaled_to_reference_speed(built):
    assert harness.at_reference_speed(1.0, harness.REFERENCE_S, 3 * harness.REFERENCE_S) == 0.5
    job = [j for j in built["series"].cycle(1, 0) if j.kind == "rank"][0]
    tally = harness.Tally()
    after = harness.execute(built["series"], job, harness.Tracer(), tally, harness.REFERENCE_S)
    assert tally.scaled == [harness.at_reference_speed(tally.latencies[0], harness.REFERENCE_S, after)]


def test_a_raising_job_is_a_failure(built):
    job = harness.Job(0, 0, "rank", {"rows": (("x",),), "precision": 1}, [])
    tally = harness.Tally()
    harness.execute(built["series"], job, harness.Tracer(), tally)
    assert tally.failed == 1 and "raised" in tally.problems[0]


def test_an_atlas_job_never_receives_a_cover_seen_before(lib, built):
    class Recorder(harness.Tracer):
        def __init__(self):
            super().__init__()
            self.covers = []

        def call(self, name, fn, *args, **kwargs):
            for arg in args:
                if isinstance(arg, lib.cover.FibrationData):
                    arg = arg.cover
                if isinstance(arg, lib.cover.Cover):
                    self.covers.append(arg)
            return super().call(name, fn, *args, **kwargs)

    workload = built["atlas"]
    seen = []
    for index in range(2):
        for job in workload.cycle(2, index):
            if job.kind != "valid":
                continue
            tracer = Recorder()
            workload.run(job, tracer)
            mine = {id(c): c for c in tracer.covers}
            assert mine, "a valid atlas job builds a cover"
            assert not any(c is old for c in mine.values() for old in seen)
            seen.extend(mine.values())


def test_busy_time_subtracts_child_spans():
    tracer = harness.Tracer()
    tracer.spans = [
        ["job", 0.0, 10.0, None, "a"],
        ["layer", 1.0, 3.0, 0, "a"],
        ["layer", 4.0, 8.0, 0, "a"],
    ]
    seconds, calls = tracer.busy()
    assert seconds["job"] == pytest.approx(4.0)
    assert seconds["layer"] == pytest.approx(6.0)
    assert calls == {"job": 1, "layer": 2}


def test_traced_calls_record_nested_spans():
    tracer = harness.Tracer()
    tracer.enabled = True
    with tracer.span("job", "7.1"):
        assert tracer.call("layer", lambda x: x + 1, 1) == 2
    (job, layer) = tracer.spans
    assert layer[3] == 0 and layer[4] == "7.1"
    assert job[1] <= layer[1] <= layer[2] <= job[2]


@pytest.mark.parametrize("seed", range(6))
def test_ldu_rank_and_determinant_in_plain_fractions(seed):
    rng = random.Random(seed)
    root = F(3)  # t = 9, so t^(1/2) = 3
    for n in range(2, 8):
        for rank in range(1, n + 1):
            rows, det = oracles.ldu(rng, n, rank)
            values = [[oracles.evaluate(e, root) for e in row] for row in rows]
            want_det = oracles.evaluate(det, root) if rank == n else 0
            assert oracles.rank_and_det(values) == (rank, want_det)


def test_series_oracles():
    one_plus_t = ((F(0), F(1)), (F(1), F(1)))
    inv, cutoff = oracles.inverse(one_plus_t, F(4))
    assert cutoff == 4
    assert inv == tuple((F(e), F((-1) ** e)) for e in range(4))
    assert oracles.mul(one_plus_t, inv, below=cutoff) == ((F(0), F(1)),)
    assert oracles.add(one_plus_t, ((F(1), F(-1)),)) == ((F(0), F(1)),)


def test_only_torus_covers_have_pairs_on_chains(built):
    fibrations = built["audit"].fibrations
    for name in ("elliptic-demo", "split-torus-2"):
        assert oracles.pairs_on_chains(fibrations[name].cover.faces) == set()
    for name in ("split-torus-4", "thurston-f2"):
        # every one of the 414 nested pairs of the 3x3 torus cover
        assert len(oracles.pairs_on_chains(fibrations[name].cover.faces)) == 414


def test_a_t_scaled_circle_module_is_accepted(lib, built):
    ts = lib.twisted_sheaves
    module = ts.canonical_twisted_module(built["audit"].fibrations["elliptic-demo"])
    low, top = module.pairs[0]
    t = lib.novikov.NovikovScalar.monomial(1, 1)
    bad = module.with_entry(low, top, 0, 0, module.restriction(low, top)[0][0] * t)
    assert ts.validate_module(bad, 3).ok


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
