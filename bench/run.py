"""Run one mirrorforge benchmark workload and print its metrics.

    python3 bench/run.py --workload sections --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A readable
summary goes to stderr.  The exit code is 0 when every answer was
right, 1 when a check failed and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if importlib.util.find_spec("mirrorforge") is None:
        print("bench: mirrorforge not found under src/", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values, units = harness.per_layer_metrics(result), harness.PER_LAYER
        result.tracer.dump(HERE / "out" / f"spans-{args.workload}-{args.seed}.json")
    else:
        values, units = harness.end_to_end_metrics(result), harness.END_TO_END
    tallies = (result.untraced, result.traced)
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]

    log = sys.stderr
    print(f"workload {args.workload}, seed {args.seed}: {workload.__doc__.splitlines()[0]}", file=log)
    print(f"  {result.cycles} cycles, {attempted} jobs, {failed} failed", file=log)
    print(f"  fail_ratio {failed / attempted:.4f} ratio", file=log)
    print(f"  jobs repeating earlier inputs: {result.repeats} of {len(result.untraced.latencies)}", file=log)
    for kind, latencies in sorted(result.untraced.by_kind().items()):
        print(f"  {kind}: {len(latencies)} jobs, median {statistics.median(latencies):.4g} s wall", file=log)
    untraced = result.untraced
    print(
        f"  wall clock: jobs_per_s {untraced.jobs_per_s(untraced.latencies):.6g} 1/s, "
        f"job_p50_geomean_s {untraced.job_p50_geomean_s(untraced.latencies):.6g} s, "
        f"setup_s {result.setup_wall_s:.6g} s",
        file=log,
    )
    if not args.trace:
        print(f"  at reference speed (the reference loop taken as {harness.REFERENCE_S} s):", file=log)
    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}", file=log)
    for problem in problems[:10]:
        print(f"FAILED {problem}", file=log)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
