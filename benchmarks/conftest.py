"""Shared configuration for the benchmark harness.

The scripts here time what no figure covers: the two engines
(``bench_engines.py``), streamed traces (``bench_trace_streaming.py``),
the observability overhead guard (``bench_obs_overhead.py``) and the fuzz
campaign (``bench_fuzz_campaign.py``).  Figures are built and
trend-checked by ``repro reproduce --strict``; ``repro bench -b KEY``
records a bench into ``BENCH_<date>.json``.  Environment knobs:

* ``REPRO_BENCH_JOBS``  -- worker processes for the fuzz campaign (default
  1 = serial; results are identical either way).
* ``REPRO_BENCH_CACHE`` -- result-cache directory (default
  ``benchmarks/results/.simcache``; set to ``off`` to disable).  The fuzz
  campaign nests its scenario results under ``fuzz/`` inside it, so a
  second run executes nothing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

import pytest

from repro.sim.runner import ResultCache

#: Directory where every benchmark's printed output is also recorded, so
#: it survives pytest's output capturing.
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def record_benchmark_output(request, capsys):
    """Write each benchmark's printed output to ``benchmarks/results/``.

    pytest captures stdout for passing tests, so the rows the benchmarks
    print would otherwise only be visible with ``-s``.  This fixture saves
    them to one text file per benchmark, named after the test.
    """
    yield
    captured = capsys.readouterr()
    if not captured.out.strip():
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    output_file = RESULTS_DIR / ("%s.txt" % request.node.name)
    output_file.write_text(captured.out)
    # Re-emit so the output still shows up with ``-s`` / in failure reports.
    print(captured.out, end="")


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def bench_jobs() -> int:
    """Worker processes used by the fuzz benchmark (REPRO_BENCH_JOBS)."""
    return _env_int("REPRO_BENCH_JOBS", 1)


def bench_cache() -> Optional[ResultCache]:
    """The shared on-disk result cache, or None when disabled."""
    override = os.environ.get("REPRO_BENCH_CACHE")
    if override and override.lower() in ("off", "none", "0"):
        return None
    # Keys fingerprint each scenario and configuration -- but not the
    # functional model's *code*.  After editing it, delete this directory (or
    # bump FUZZ_CACHE_SCHEMA_VERSION in repro.fuzz.engine) or the benchmark
    # will replay pre-edit results.
    directory = Path(override) if override else RESULTS_DIR / ".simcache"
    return ResultCache(directory)
