"""Benchmark: the vectorized batch engine vs the reference object model.

Runs the same streamed-trace scenario as ``bench_trace_streaming.py``
(workload ``mcf`` through ``secddr_ctr``, two cores) on both registered
engines, asserts exact statistical parity, reports accesses/second per
engine, and enforces the batch engine's speedup floor on this scenario
(``SPEEDUP_FLOOR``) through the registered ``engines``
:class:`repro.bench.BenchSpec`.  ``repro bench -b engines`` records the
same spec into ``BENCH_<date>.json``.

Scale with ``REPRO_BENCH_TRACE_ACCESSES`` (default 20000).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import BenchContext, get_bench
from repro.sim.experiment import ExperimentConfig, run_simulation
from repro.traces import load_trace, save_trace
from repro.workloads.registry import build_workload

ACCESSES = int(os.environ.get("REPRO_BENCH_TRACE_ACCESSES") or 20000)
CONFIGURATION = "secddr_ctr"
WORKLOAD = "mcf"
NUM_CORES = 2
ROUNDS = 3
#: The batch engine must beat the reference model by at least this factor on
#: the streamed scenario.  It was 10x until the reference model's FR-FCFS
#: drain became one sort, which made the reference 2.1-2.4x faster here
#: (6.1k -> 13.1k acc/s on a shared 2-vCPU Xeon VM, speedup 13.3x -> 6.2x);
#: 10 / 2.4 rounded down asks no less of batch, whose own throughput is
#: gated by ``engines.batch_accesses_per_second``.
SPEEDUP_FLOOR = 4.0


def _context() -> BenchContext:
    return BenchContext(rounds=ROUNDS, timing_accesses=ACCESSES)


def _experiment() -> ExperimentConfig:
    return ExperimentConfig(num_accesses=ACCESSES, num_cores=NUM_CORES)


def _build_streamed_trace(directory: Path):
    trace = build_workload(WORKLOAD, num_accesses=ACCESSES, seed=1)
    store = save_trace(trace, directory / ("%s.trace" % WORKLOAD))
    return load_trace(store.path)


def _assert_parity(reference, batch) -> None:
    assert batch.total_ipc == reference.total_ipc, "batch engine broke IPC parity"
    assert batch.memory_stats == reference.memory_stats, "batch engine broke stats parity"


@pytest.fixture(scope="module")
def experiment() -> ExperimentConfig:
    return _experiment()


@pytest.fixture(scope="module")
def streamed_trace(tmp_path_factory):
    return _build_streamed_trace(tmp_path_factory.mktemp("engine-trace"))


def test_engines_agree_exactly(streamed_trace, experiment):
    reference = run_simulation(streamed_trace, CONFIGURATION, experiment, engine="reference")
    batch = run_simulation(streamed_trace, CONFIGURATION, experiment, engine="batch")
    _assert_parity(reference, batch)


def test_reference_engine(benchmark, streamed_trace, experiment):
    result = benchmark.pedantic(
        lambda: run_simulation(streamed_trace, CONFIGURATION, experiment, engine="reference"),
        rounds=ROUNDS, iterations=1,
    )
    print("reference: %.0f accesses/s (ipc %.4f)"
          % (ACCESSES / benchmark.stats.stats.mean, result.total_ipc))


def test_batch_engine(benchmark, streamed_trace, experiment):
    result = benchmark.pedantic(
        lambda: run_simulation(streamed_trace, CONFIGURATION, experiment, engine="batch"),
        rounds=ROUNDS, iterations=1,
    )
    print("batch: %.0f accesses/s (ipc %.4f)"
          % (ACCESSES / benchmark.stats.stats.mean, result.total_ipc))


def test_batch_speedup_floor():
    entry = get_bench("engines").measure(_context())
    speedup = entry.metrics["speedup"]
    print("speedup %.1fx (floor %.0fx)" % (speedup, SPEEDUP_FLOOR))
    assert entry.metrics["parity_exact"] == 1.0, "batch engine broke parity"
    assert speedup >= SPEEDUP_FLOOR, (
        "batch engine speedup %.1fx is below the %.0fx floor" % (speedup, SPEEDUP_FLOOR)
    )
