"""Run registered bench specs through the shared cache/runner machinery."""

from __future__ import annotations

import tempfile
from typing import Iterable, List, Optional

from repro.bench.registry import resolve_benches
from repro.bench.spec import BenchContext, BenchEntry, BenchReport
from repro.sim.runner import ResultCache

__all__ = ["run_benches"]


def run_benches(
    benches: Optional[Iterable[str]] = None,
    *,
    smoke: bool = False,
    cache: Optional[ResultCache] = None,
    jobs: int = 1,
    context: Optional[BenchContext] = None,
) -> BenchReport:
    """Measure the selected specs (all of them for ``None``).

    ``smoke`` selects the reduced CI budget; a pre-built ``context`` wins
    over every other knob.  Without a cache an ephemeral one backs the pass
    (nothing persists); hand in a persistent cache to make back-to-back
    passes all-hits.
    """
    import repro.bench.specs  # noqa: F401 - registers the specs

    specs = resolve_benches(list(benches) if benches is not None else None)
    if context is None:
        context = BenchContext.smoke(jobs=jobs) if smoke else BenchContext(jobs=jobs)
        profile = "smoke" if smoke else "full"
    else:
        profile = "smoke" if smoke else "custom"
    context.extra_simulated = 0
    context.extra_cached = 0

    ephemeral = None
    if cache is not None:
        context.cache = cache
    elif context.cache is None:
        ephemeral = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        context.cache = ResultCache(ephemeral.name)

    from repro.bench.record import environment_fingerprint

    try:
        hits_before = context.cache.hits
        misses_before = context.cache.misses
        entries: List[BenchEntry] = [spec.measure(context) for spec in specs]
        return BenchReport(
            entries=entries,
            profile=profile,
            environment=environment_fingerprint(),
            simulated_jobs=(
                context.cache.misses - misses_before + context.extra_simulated
            ),
            cached_jobs=context.cache.hits - hits_before + context.extra_cached,
        )
    finally:
        if ephemeral is not None:
            ephemeral.cleanup()
