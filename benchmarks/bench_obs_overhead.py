"""Benchmark: the zero-overhead-when-off observability guard.

Times cold single-job runner passes (workload ``mcf`` through
``secddr_ctr``, two cores, fresh cache per pass) with observability fully
off vs fully on (live metrics registry plus a collector tracer) vs
timeline-recording (a windowed :class:`repro.obs.TimelineRecorder`),
asserts exact result parity across all modes, and reports accesses/second
per mode plus the on/off and timeline/off overhead ratios.

``pytest benchmarks/bench_obs_overhead.py`` measures all three modes
through the registered ``obs`` :class:`repro.bench.BenchSpec` and enforces
the overhead ceiling the no-op registry promises when observability is
off.  ``repro bench -b obs`` records the same spec into
``BENCH_<date>.json``.

Scale with ``REPRO_BENCH_TRACE_ACCESSES`` (default 20000).
"""

from __future__ import annotations

import os

from repro.bench import BenchContext, get_bench

ACCESSES = int(os.environ.get("REPRO_BENCH_TRACE_ACCESSES") or 20000)
ROUNDS = 3
#: Instrumented runs may not cost more than this multiple of the
#: uninstrumented run on the cold single-job scenario.  The ratio is noisy
#: on a cold pass (trace generation dominates), so the ceiling is generous;
#: the per-commit regression gate tracks the recorded baseline more tightly.
OVERHEAD_CEILING = 1.5


def _context() -> BenchContext:
    return BenchContext(rounds=ROUNDS, timing_accesses=ACCESSES)


def test_obs_overhead_and_parity():
    entry = get_bench("obs").measure(_context())
    ratio = entry.metrics["overhead_ratio"]
    timeline_ratio = entry.metrics["timeline_overhead_ratio"]
    print("obs on/off overhead %.3fx, timeline %.3fx (ceiling %.2fx)"
          % (ratio, timeline_ratio, OVERHEAD_CEILING))
    assert entry.metrics["parity_exact"] == 1.0, (
        "instrumented run changed simulation results"
    )
    assert entry.metrics["timeline_parity_exact"] == 1.0, (
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
