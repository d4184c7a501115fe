"""Streamed vs in-memory simulation of the same trace: exact parity.

One workload (``mcf`` through ``secddr_ctr``, two cores, 20,000 accesses)
is consumed two ways:

* **in-memory** -- a materialized ``MemoryTrace``;
* **streamed** -- a :class:`repro.traces.StreamingTrace` over the on-disk
  store: lazy per-core offset views and the chunked cursor.

Both paths must produce bit-identical results on the reference engine,
and the batch engine must match the reference on both.  How fast either
path runs is ``perfbench/``'s to measure (see ``docs/benchmarking.md``).
"""

from __future__ import annotations

import pytest

from repro.sim.experiment import ExperimentConfig, run_simulation
from repro.traces import load_trace, save_trace
from repro.workloads.registry import build_workload

ACCESSES = 20000
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
