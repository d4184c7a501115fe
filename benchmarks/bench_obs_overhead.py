"""Benchmark: the zero-overhead-when-off observability guard.

Times cold single-job runner passes (workload ``mcf`` through
``secddr_ctr`` on the reference engine, two cores, 20,000 accesses, fresh
cache per pass) with observability fully off vs fully on (live metrics
registry plus a collector tracer) vs timeline-recording (a windowed
:class:`repro.obs.TimelineRecorder`), each as the best of ``ROUNDS``
passes.  It asserts exact result parity across all modes and that each
instrumented mode costs at most ``OVERHEAD_CEILING`` times the
uninstrumented one.
"""

from __future__ import annotations

import tempfile

from repro import obs
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import ParallelRunner, ResultCache, SimulationJob

ACCESSES = 20000
ROUNDS = 3
#: Instrumented runs may not cost more than this multiple of the
#: uninstrumented run on the cold single-job scenario.  The ratio is noisy
#: on a cold pass (trace generation dominates), so the ceiling is generous.
OVERHEAD_CEILING = 1.5

# Pinned to the reference engine: its "no recorder costs one is-None check"
# contract is what this guard has always measured.
JOB = SimulationJob(
    configuration="secddr_ctr",
    workload="mcf",
    experiment=ExperimentConfig(num_accesses=ACCESSES, num_cores=2),
    engine="reference",
)


def _cold_pass():
    # A fresh cache per pass, so every timed pass simulates: the
    # instrumented run path (runner + cache + engine spans) is what is
    # timed, not a cache hit.
    with tempfile.TemporaryDirectory(prefix="repro-obs-floor-") as tmp:
        return ParallelRunner(jobs=1, cache=ResultCache(tmp)).run([JOB])[0]


def _same_result(a, b) -> bool:
    return a.total_ipc == b.total_ipc and a.memory_stats == b.memory_stats


def test_obs_overhead_and_parity(best_of):
    def timed(observation):
        with obs.observing(observation):
            return best_of(_cold_pass, ROUNDS)

    off_seconds, off_result = timed(obs.Observation())
    on_seconds, on_result = timed(
        obs.Observation(registry=obs.MetricsRegistry(), tracer=obs.Tracer())
    )
    recorder = obs.TimelineRecorder()
    timeline_seconds, timeline_result = timed(obs.Observation(timeline=recorder))
    ratio = on_seconds / off_seconds
    timeline_ratio = timeline_seconds / off_seconds
    print("obs on/off overhead %.3fx, timeline %.3fx (ceiling %.2fx)"
          % (ratio, timeline_ratio, OVERHEAD_CEILING))
    assert _same_result(off_result, on_result), (
        "instrumented run changed simulation results"
    )
    assert recorder.sample_count > 0, "the timeline pass recorded no samples"
    assert _same_result(off_result, timeline_result), (
        "timeline-recording run changed simulation results"
    )
    assert ratio <= OVERHEAD_CEILING, (
        "observability overhead %.3fx exceeds the %.2fx ceiling"
        % (ratio, OVERHEAD_CEILING)
    )
    assert timeline_ratio <= OVERHEAD_CEILING, (
        "timeline overhead %.3fx exceeds the %.2fx ceiling"
        % (timeline_ratio, OVERHEAD_CEILING)
    )
