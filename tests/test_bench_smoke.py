"""The benchmark harness in ``perfbench/`` still runs on this library.

The harness reads the library through ``glushkov``, ``Nfa.step``,
``Nfa.state_count`` and the public decision functions.  Running each of its
workloads at the tiny size makes a change that breaks one of those reads
fail here, not only in a benchmark run.  The harness files are imported as
they are; only its trace files are written, under ``perfbench/out/``.
"""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("corpus", "counters", "search")


def _crekit_modules():
    return {n: m for n, m in sys.modules.items() if n == "crekit" or n.startswith("crekit.")}


@pytest.fixture(scope="module")
def harness():
    # The harness re-imports crekit from the checkout; give the modules the
    # rest of the suite imported back afterwards.
    saved_path, saved_modules = list(sys.path), _crekit_modules()
    sys.path.insert(0, str(HARNESS))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", HARNESS / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run
    finally:
        gc.unfreeze()  # each run freezes its set-up objects
        sys.path[:] = saved_path
        for name in [*_crekit_modules(), "tracing", "workloads"]:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run(harness, workload):
    result, probes, metrics, _, units = harness.timed_run(workload, 7, 0, tiny=True)
    assert (result.wrong, result.failed) == (0, 0)
    assert set(metrics) == set(units)
    assert len(probes) == len(result.workload.probes)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(harness, workload):
    result, _, metrics, detail, units = harness.traced_run(workload, 7, 0, tiny=True)
    assert (result.wrong, result.failed) == (0, 0)
    assert set(metrics) == set(units)
    assert detail["spans"] > 0
    assert metrics["engine.positions"] > 0 and metrics["engine.transitions"] > 0
