"""The benchmark's calls into the library, run as part of the test suite.

The workloads in bench/ call the library's public functions by name,
with keyword arguments (``global_sections(min_window=, max_window=)``,
``section_window``, ``stabilisation_threshold`` and the rest), and check
every answer against an expectation that does not come from the library.
The benchmark's own tests build the job lists but run no job, so a
renamed function or argument would show only when the benchmark runs.
Here one cycle of every workload runs on the library already imported
by the suite, and every job must answer right.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# harness.load_library() would drop mirrorforge from sys.modules first,
# leaving the other test modules holding classes of a discarded import
LIBRARY = SimpleNamespace(
    **{
        name: importlib.import_module(f"mirrorforge.{name}")
        for name in harness.LIBRARY_MODULES
    }
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_job_of_one_cycle_answers_right(name):
    workload = WORKLOADS[name](LIBRARY)
    tracer = harness.Tracer()
    jobs = workload.cycle(0, 0)
    assert jobs
    problems = [
        problem for job in jobs for problem in job.problems(workload.run(job, tracer))
    ]
    assert problems == []
