"""Benchmark: the vectorized batch engine vs the reference object model.

Runs the same streamed-trace scenario as ``bench_trace_streaming.py``
(workload ``mcf`` through ``secddr_ctr``, two cores, 20,000 accesses) on
both registered engines, asserts exact statistical parity, and enforces the
batch engine's speedup floor on this scenario (``SPEEDUP_FLOOR``), timing
each engine as the best of ``ROUNDS`` calls.  Host time in general is
measured by ``perfbench/`` (see ``docs/benchmarking.md``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sim.experiment import ExperimentConfig, run_simulation
from repro.traces import load_trace, save_trace
from repro.workloads.registry import build_workload

ACCESSES = 20000
CONFIGURATION = "secddr_ctr"
WORKLOAD = "mcf"
NUM_CORES = 2
ROUNDS = 3
#: The batch engine must beat the reference model by at least this factor on
#: the streamed scenario.  It was 10x until the reference model's FR-FCFS
#: drain became one sort, which made the reference 2.1-2.4x faster here
#: (6.1k -> 13.1k acc/s on a shared 2-vCPU Xeon VM, speedup 13.3x -> 6.2x);
#: 10 / 2.4 rounded down asks no less of batch.
SPEEDUP_FLOOR = 4.0


def _build_streamed_trace(directory: Path):
    trace = build_workload(WORKLOAD, num_accesses=ACCESSES, seed=1)
    store = save_trace(trace, directory / ("%s.trace" % WORKLOAD))
    return load_trace(store.path)


def _assert_parity(reference, batch) -> None:
    assert batch.total_ipc == reference.total_ipc, "batch engine broke IPC parity"
    assert batch.memory_stats == reference.memory_stats, "batch engine broke stats parity"


@pytest.fixture(scope="module")
def experiment() -> ExperimentConfig:
    return ExperimentConfig(num_accesses=ACCESSES, num_cores=NUM_CORES)


@pytest.fixture(scope="module")
def streamed_trace(tmp_path_factory):
    return _build_streamed_trace(tmp_path_factory.mktemp("engine-trace"))


def test_engines_agree_exactly(streamed_trace, experiment):
    reference = run_simulation(streamed_trace, CONFIGURATION, experiment, engine="reference")
    batch = run_simulation(streamed_trace, CONFIGURATION, experiment, engine="batch")
    _assert_parity(reference, batch)


def test_batch_speedup_floor(streamed_trace, experiment, best_of):
    reference_seconds, reference = best_of(
        lambda: run_simulation(streamed_trace, CONFIGURATION, experiment, engine="reference"),
        ROUNDS,
    )
    batch_seconds, batch = best_of(
        lambda: run_simulation(streamed_trace, CONFIGURATION, experiment, engine="batch"),
        ROUNDS,
    )
    speedup = reference_seconds / batch_seconds
    print("reference %.0f acc/s, batch %.0f acc/s, speedup %.1fx (floor %.0fx)"
          % (ACCESSES / reference_seconds, ACCESSES / batch_seconds, speedup, SPEEDUP_FLOOR))
    _assert_parity(reference, batch)
    assert speedup >= SPEEDUP_FLOOR, (
        "batch engine speedup %.1fx is below the %.0fx floor" % (speedup, SPEEDUP_FLOOR)
    )
