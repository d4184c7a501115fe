"""Exact cross-process metric aggregation (the obs counterpart of
``tests/test_shared_cache.py``).

Two independent OS processes run the same matrix through a worker pool
against one shared ``ResultCache``.  Each process installs a live registry;
its pool workers accumulate into fresh per-job registries and ship
snapshots back with results, so the parent-side totals must be *exact*:
``cache hits + misses == jobs`` in every process, and engine-execution
counts equal the number of jobs that actually simulated.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Runs one 6-job matrix (pool of 2) against a shared cache dir and prints
#: the parent registry's aggregated summary.
WORKER = """
import json, sys
sys.path.insert(0, %r)
from repro import obs
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import ParallelRunner, ResultCache, SimulationJob

cache_dir = sys.argv[1]
registry = obs.MetricsRegistry()
obs.install(obs.Observation(registry=registry))
experiment = ExperimentConfig(num_accesses=240, num_cores=1)
jobs = [
    SimulationJob(configuration=c, workload=w, experiment=experiment)
    for c in ("secddr_ctr", "integrity_tree_64")
    for w in ("mcf", "gcc", "pr")
]
runner = ParallelRunner(jobs=2, cache=ResultCache(cache_dir))
results = runner.run(jobs)
summary = registry.summary()
print(json.dumps({
    "jobs": len(jobs),
    "results": len(results),
    "hits": summary.get("cache_ops_total{op=hit}", 0),
    "misses": summary.get("cache_ops_total{op=miss}", 0),
    "done": summary.get("sim_jobs_total{state=done}", 0),
    "cached": summary.get("sim_jobs_total{state=cached}", 0),
    "engine_jobs": summary.get("engine_jobs_total{engine=batch}", 0),
    "job_seconds_count": summary.get(
        "sim_job_seconds{state=done}", {}
    ).get("count", 0),
}))
""" % REPO_SRC


def _spawn(cache_dir):
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, str(cache_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(process):
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    return json.loads(stdout)


class TestCrossProcessMetricAggregation:
    def test_sequential_processes_account_for_every_job_exactly(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = _finish(_spawn(cache_dir))
        second = _finish(_spawn(cache_dir))

        # Cold pass: every job missed, simulated in a worker, and shipped
        # its counts home -- parent totals match the job count exactly.
        assert first["misses"] == first["jobs"] == 6
        assert first["hits"] == 0
        assert first["done"] == 6
        assert first["engine_jobs"] == 6
        assert first["job_seconds_count"] == 6

        # Warm pass: all hits, nothing simulated, nothing shipped.
        assert second["hits"] == 6
        assert second["misses"] == 0
        assert second["cached"] == 6
        assert second["done"] == 0
        assert second["engine_jobs"] == 0

    def test_concurrent_processes_each_balance_hits_plus_misses(self, tmp_path):
        cache_dir = tmp_path / "cache"
        processes = [_spawn(cache_dir), _spawn(cache_dir)]
        outcomes = [_finish(process) for process in processes]
        for outcome in outcomes:
            # Races decide who simulates what, but each process's ledger
            # must balance: every job was exactly a hit or a miss, and
            # every miss was executed by an engine exactly once.
            assert outcome["hits"] + outcome["misses"] == outcome["jobs"] == 6
            assert outcome["engine_jobs"] == outcome["misses"]
            assert outcome["done"] + outcome["cached"] == 6
