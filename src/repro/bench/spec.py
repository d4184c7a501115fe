"""Benchmark specs: declared metrics, regression policies, and the harness.

Mirrors :mod:`repro.figures.spec`: a :class:`BenchSpec` is a frozen
declaration of *one* continuously tracked benchmark — which metrics it
measures and what counts as a regression for each — plus a ``run``
callable that takes a :class:`BenchContext` and returns the measured
values.

Two kinds of metric live side by side and are gated differently:

* **deterministic** metrics (detection/false-alarm rates, parity flags)
  must be bit-identical run to run under the same scenario; their policies
  are enforced unconditionally.
* **noisy** metrics (accesses/sec, warm-cache latency) wobble with the
  machine.  Their policies are enforced only when the baseline was recorded
  under the same environment fingerprint (python/numpy/CPU count); across
  fingerprints a violation is *flagged* in the report instead of failing
  ``--check``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.runner import ResultCache

__all__ = [
    "MetricSpec",
    "BenchSpec",
    "BenchContext",
    "BenchEntry",
    "BenchReport",
]


@dataclass(frozen=True)
class MetricSpec:
    """One tracked metric: identity, direction, and regression policy."""

    name: str
    unit: str = ""
    #: Direction of "better".  A regression is a drop for higher-is-better
    #: metrics and a rise for lower-is-better ones.
    higher_is_better: bool = True
    #: Maximum tolerated relative regression vs the baseline (0.10 = 10%);
    #: 0.0 means any regression fails; None means informational (never gated).
    max_regression: Optional[float] = None
    #: Timing-dependent metrics are gated only under a matching environment
    #: fingerprint; mismatched comparisons flag instead of fail.
    noisy: bool = False

    def violated(self, baseline: float, current: float) -> bool:
        """True when ``current`` regressed past this metric's policy."""
        if self.max_regression is None:
            return False
        if not self.higher_is_better:
            baseline, current = -baseline, -current
        if current >= baseline:
            return False
        scale = abs(baseline)
        if scale == 0.0:
            return True  # any drop below an exact-zero baseline
        return (baseline - current) / scale > self.max_regression


@dataclass
class BenchContext:
    """Everything a bench spec needs: budget knobs plus shared machinery.

    One context is shared by every spec in a ``repro bench`` pass; the fuzz
    campaign nests its scenario cache inside ``cache``, so a second
    back-to-back pass against a persistent cache executes nothing.
    """

    cache: Optional[ResultCache] = None
    jobs: int = 1
    #: Best-of rounds for timing loops (1 in smoke mode).
    rounds: int = 3
    #: Direct-timing loops (engines/trace benches) use this many accesses.
    timing_accesses: int = 20000
    #: Fuzz-campaign budget/seed (the campaign nests its own cache codec
    #: under ``fuzz/`` inside the shared cache directory).
    fuzz_budget: int = 30
    fuzz_seed: int = 7
    #: HTTP-service bench knobs.
    server_accesses: int = 400
    server_submissions: int = 50
    #: Accounting filled in by runs that manage their own nested cache (the
    #: fuzz campaign); the harness adds the shared-cache hit/miss delta.
    extra_simulated: int = 0
    extra_cached: int = 0

    @classmethod
    def smoke(cls, **kwargs) -> "BenchContext":
        """The reduced-budget context CI's ``bench-gate`` job runs under."""
        defaults = dict(
            rounds=1,
            timing_accesses=2000,
            fuzz_budget=12,
            server_accesses=240,
            server_submissions=10,
        )
        defaults.update(kwargs)
        return cls(**defaults)

    def scenario(self) -> Dict[str, object]:
        """The budget fingerprint recorded with every entry.

        Baseline comparison only gates metrics measured under an *equal*
        scenario — comparing a smoke run against a full-budget record would
        flag spurious regressions on every budget-dependent metric.
        """
        return {
            "rounds": self.rounds,
            "timing_accesses": self.timing_accesses,
            "fuzz_budget": self.fuzz_budget,
            "fuzz_seed": self.fuzz_seed,
            "server_accesses": self.server_accesses,
            "server_submissions": self.server_submissions,
        }


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: its metrics and how to run it."""

    key: str
    title: str
    description: str
    metrics: Tuple[MetricSpec, ...]
    #: Measures the metrics; must return exactly the declared names.
    run: Callable[[BenchContext], Dict[str, float]]

    def metric(self, name: str) -> Optional[MetricSpec]:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        return None

    def measure(self, ctx: BenchContext) -> "BenchEntry":
        """Run the spec and wrap the values in a validated entry."""
        started = time.perf_counter()
        values = self.run(ctx)
        elapsed = time.perf_counter() - started
        declared = [metric.name for metric in self.metrics]
        if sorted(values) != sorted(declared):
            raise ValueError(
                "bench %r returned metrics %s but declares %s"
                % (self.key, sorted(values), sorted(declared))
            )
        return BenchEntry(
            key=self.key,
            scenario=ctx.scenario(),
            metrics={name: values[name] for name in declared},
            elapsed_seconds=round(elapsed, 4),
        )


@dataclass
class BenchEntry:
    """The measured record for one spec under one scenario."""

    key: str
    scenario: Dict[str, object]
    metrics: Dict[str, float]
    elapsed_seconds: float

    def to_payload(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "metrics": self.metrics,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_payload(cls, key: str, payload: Dict[str, object]) -> "BenchEntry":
        return cls(
            key=key,
            scenario=dict(payload.get("scenario") or {}),
            metrics=dict(payload.get("metrics") or {}),
            elapsed_seconds=float(payload.get("elapsed_seconds") or 0.0),
        )


@dataclass
class BenchReport:
    """One ``repro bench`` pass: entries plus cache accounting."""

    entries: List[BenchEntry]
    profile: str
    environment: Dict[str, object]
    #: Cache-keyed simulation jobs executed / served from the cache across
    #: the pass (timing loops run outside the cache by design — a cache hit
    #: cannot be timed).
    simulated_jobs: int = 0
    cached_jobs: int = 0

    def entry(self, key: str) -> Optional[BenchEntry]:
        for entry in self.entries:
            if entry.key == key:
                return entry
        return None
