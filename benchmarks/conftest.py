"""Shared fixtures for the benchmark floors.

The scripts here hold the two fixed floors CI runs -- the batch engine's
speedup over the reference model (``bench_engines.py``) and the
observability overhead guard (``bench_obs_overhead.py``) -- plus the
streamed-trace parity checks (``bench_trace_streaming.py``).  Host time in
general is measured by ``perfbench/`` (see ``docs/benchmarking.md``);
figures are built and trend-checked by ``repro reproduce --strict``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

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


def _best_of(fn, rounds: int):
    """Call ``fn`` ``rounds`` times; return the fastest wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.fixture
def best_of():
    """The floors' timer: ``best_of(fn, rounds) -> (seconds, last result)``."""
    return _best_of
