"""Continuous evaluation: registered benchmark specs with regression gates.

Each registered :class:`BenchSpec` declares its measured metrics
(accesses/sec, warm-cache latency, detection/false-alarm rates, parity
flags) and a per-metric regression policy (throughput −10%, detection-rate
any drop).  ``repro bench -b KEY`` — and ``Session.bench()`` — is the one
way to record a bench: it runs the selected specs, merges the measurements
into the day's ``BENCH_<date>.json`` under stable keys (one file-locked
writer, safe for concurrent CI jobs), and renders a ``BENCH_REPORT.md``
delta table against the most recent committed baseline; ``--check`` turns
policy violations into a non-zero exit.  Figures are built and
trend-checked by ``repro reproduce --strict``, not here.  Environment
fingerprints (python/numpy/CPU count) are recorded so noisy timing
comparisons across machines are flagged rather than hard-failed.
"""

from repro.bench.pipeline import run_benches
from repro.bench.record import (
    RECORD_SCHEMA_VERSION,
    default_record_path,
    environment_fingerprint,
    find_baseline,
    load_record,
    merge_bench_record,
)
from repro.bench.registry import bench_names, get_bench, register_bench, resolve_benches
from repro.bench.report import (
    MetricDelta,
    compare_records,
    environments_match,
    render_bench_report,
    violations,
)
from repro.bench.spec import (
    BenchContext,
    BenchEntry,
    BenchReport,
    BenchSpec,
    MetricSpec,
)

from repro.bench import specs as _specs  # noqa: F401 - registers the specs

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "BenchContext",
    "BenchEntry",
    "BenchReport",
    "BenchSpec",
    "MetricDelta",
    "MetricSpec",
    "bench_names",
    "compare_records",
    "default_record_path",
    "environment_fingerprint",
    "environments_match",
    "find_baseline",
    "get_bench",
    "load_record",
    "merge_bench_record",
    "register_bench",
    "render_bench_report",
    "resolve_benches",
    "run_benches",
    "violations",
]
