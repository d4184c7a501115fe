"""Benchmark: streamed vs in-memory simulation of the same trace.

Measures end-to-end accesses/second of ``run_simulation`` for one workload
consumed two ways:

* **in-memory** -- the classic path: a materialized ``MemoryTrace`` whose
  per-core replicas are eager record-list copies and whose records reach
  the core as dataclass instances;
* **streamed** -- a :class:`repro.traces.StreamingTrace` over the on-disk
  store: lazy per-core offset views and the chunked cursor fast path
  (one vectorized ``tolist`` per chunk, plain tuples per record).

Both paths must produce bit-identical results (asserted), and the streamed
path must not be slower per access -- the chunked cursor is the simulate
loop's fast path, so streaming huge captured traces costs less per access
than the in-memory replay it replaces, on top of its bounded memory.

Scale with ``REPRO_BENCH_TRACE_ACCESSES`` (default 20000).
"""

from __future__ import annotations

import os

import pytest

from repro.sim.experiment import ExperimentConfig, run_simulation
from repro.traces import load_trace, save_trace
from repro.workloads.registry import build_workload

ACCESSES = int(os.environ.get("REPRO_BENCH_TRACE_ACCESSES") or 20000)
CONFIGURATION = "secddr_ctr"


@pytest.fixture(scope="module")
def experiment() -> ExperimentConfig:
    return ExperimentConfig(num_accesses=ACCESSES, num_cores=2)


@pytest.fixture(scope="module")
def in_memory_trace():
    return build_workload("mcf", num_accesses=ACCESSES, seed=1)


@pytest.fixture(scope="module")
def streamed_trace(in_memory_trace, tmp_path_factory):
    store = save_trace(
        in_memory_trace, tmp_path_factory.mktemp("trace") / "mcf.trace"
    )
    return load_trace(store.path)


def _throughput(benchmark, result_ipc: float) -> None:
    per_second = ACCESSES / benchmark.stats.stats.mean
    print("%.0f accesses/s (%d accesses, ipc %.4f)" % (per_second, ACCESSES, result_ipc))


def test_stream_vs_memory_results_identical(in_memory_trace, streamed_trace, experiment):
    baseline = run_simulation(in_memory_trace, CONFIGURATION, experiment, engine="reference")
    streamed = run_simulation(streamed_trace, CONFIGURATION, experiment, engine="reference")
    assert streamed.total_ipc == baseline.total_ipc
    assert streamed.memory_stats == baseline.memory_stats


def test_batch_engine_parity_on_both_paths(in_memory_trace, streamed_trace, experiment):
    reference = run_simulation(in_memory_trace, CONFIGURATION, experiment, engine="reference")
    for trace in (in_memory_trace, streamed_trace):
        batch = run_simulation(trace, CONFIGURATION, experiment, engine="batch")
        assert batch.total_ipc == reference.total_ipc
        assert batch.memory_stats == reference.memory_stats


def test_simulate_in_memory(benchmark, in_memory_trace, experiment):
    result = benchmark.pedantic(
        lambda: run_simulation(in_memory_trace, CONFIGURATION, experiment, engine="reference"),
        rounds=3, iterations=1,
    )
    _throughput(benchmark, result.total_ipc)


def test_simulate_streamed(benchmark, streamed_trace, experiment):
    result = benchmark.pedantic(
        lambda: run_simulation(streamed_trace, CONFIGURATION, experiment, engine="reference"),
        rounds=3, iterations=1,
    )
    _throughput(benchmark, result.total_ipc)


def test_simulate_in_memory_batch_engine(benchmark, in_memory_trace, experiment):
    result = benchmark.pedantic(
        lambda: run_simulation(in_memory_trace, CONFIGURATION, experiment, engine="batch"),
        rounds=3, iterations=1,
    )
    _throughput(benchmark, result.total_ipc)


def test_simulate_streamed_batch_engine(benchmark, streamed_trace, experiment):
    result = benchmark.pedantic(
        lambda: run_simulation(streamed_trace, CONFIGURATION, experiment, engine="batch"),
        rounds=3, iterations=1,
    )
    _throughput(benchmark, result.total_ipc)


def test_registered_trace_streaming_spec():
    """The ``trace_streaming`` BenchSpec measures this scenario with parity."""
    from repro.bench import BenchContext, get_bench

    entry = get_bench("trace_streaming").measure(
        BenchContext(rounds=1, timing_accesses=2000)
    )
    assert entry.metrics["parity_exact"] == 1.0
    assert entry.metrics["streamed_accesses_per_second"] > 0
