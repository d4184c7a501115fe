"""Job-based parallel experiment runner with on-disk result caching.

``run_comparison`` used to simulate every (workload, configuration) pair
strictly serially in one process, so sweep wall-clock grew linearly with the
cross product.  This module turns each pair into an independent
:class:`SimulationJob` and fans the job list out over a ``multiprocessing``
pool.  Three properties make the fan-out safe:

* **Determinism** -- every job carries its workload (a registry name or a
  pre-built trace) and the frozen
  :class:`~repro.sim.experiment.ExperimentConfig`, and trace construction
  plus the simulator itself are pure functions of those inputs.  A job
  therefore produces bit-identical results whether it runs inline, in a
  worker process, or on a different day, and parallel results are identical
  to serial ones.
* **Per-job seeding** -- traces are built from ``(workload name,
  num_accesses, seed)`` before the jobs are dispatched, never from shared RNG
  state, so job execution order cannot change any result.
* **Caching** -- results are cached on disk under a stable SHA-256 key of
  (configuration name, workload identity, experiment knobs).  A warm cache
  lets every figure and CLI sweep skip simulations that any earlier run
  already performed; changing any ``ExperimentConfig`` field changes the
  key and transparently invalidates the entry.

Progress/timing hooks (:class:`JobEvent`) let callers observe dispatch,
completion, and cache hits without coupling the runner to any UI.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cpu.trace import MemoryTrace
from repro import obs
from repro.secure.configs import (
    CONFIGURATIONS,
    ConfigurationLike,
    SystemConfiguration,
    resolve_configuration,
)
from repro.secure.configs import REGISTRY as CONFIGURATION_REGISTRY
from repro.sim.engines import EngineLike, resolve_engine
from repro.sim.results import SimulationResult
from repro.workloads.registry import REGISTRY as WORKLOAD_REGISTRY
from repro.workloads.registry import trace_cache_token

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.sim.experiment import ExperimentConfig

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "GRID_DIGESTS",
    "SimulationJob",
    "JobEvent",
    "JobFailure",
    "JobFailedError",
    "ProgressHook",
    "ResultCache",
    "ParallelRunner",
    "resolve_cache",
    "workload_cache_token",
    "workload_profile_token",
]


def workload_profile_token(name: str) -> str:
    """A stable identity string for a named workload's generator profile.

    Part of both the disk-cache key and the in-process trace memo key, so
    tuning a profile invalidates cached results and rebuilds traces in the
    same breath -- neither layer can serve output of the old profile.
    Registry-registered custom workloads contribute their explicit cache
    token (or registered trace's content hash) instead.
    """
    return WORKLOAD_REGISTRY.cache_token_for(name)

#: Bump whenever the cached payload layout (or simulator semantics) changes;
#: entries written under another schema version are treated as misses.
#: v2: cache keys gained the mechanism cache token (custom mechanisms).
CACHE_SCHEMA_VERSION = 2

#: The bytes each schema version's simulator produces: the first 16 hex
#: digits of a SHA-256 over ``json.dumps(asdict(result), sort_keys=True)``
#: of every workload x every configuration at 300 accesses on one core, with
#: no prefetcher and a 32 KiB metadata cache (workload-major, in registry
#: order).  A change that moves a result adds a new version and its digest;
#: it never edits an entry, or existing caches would serve stale results.
GRID_DIGESTS = {2: "e035db51c1aef70c"}


def resolve_cache(
    cache: "Optional[ResultCache]", cache_dir: "Optional[Union[str, Path]]"
) -> "Optional[ResultCache]":
    """The cache to use: an explicit one wins, else one built from a path.

    Shared by every entry point that accepts both a ``cache`` and a
    ``cache_dir`` keyword (``run_comparison``, the sweeps), so the promotion
    rule lives in exactly one place.
    """
    if cache is not None:
        return cache
    if cache_dir is not None:
        return ResultCache(cache_dir)
    return None


def workload_cache_token(workload: Union[str, MemoryTrace]) -> str:
    """A stable identity string for a workload input.

    Named workloads hash by name plus their declarative generator profile
    (their trace is derived deterministically from profile + experiment
    knobs, which are part of the cache key anyway), so tuning a workload
    profile invalidates cached results just like editing a configuration
    spec does.  Pre-built traces hash by content so two different traces
    sharing a name can never collide in the cache.
    """
    if isinstance(workload, str):
        return "name:%s;profile:%s" % (workload, workload_profile_token(workload))
    return trace_cache_token(workload)


@dataclass(frozen=True)
class SimulationJob:
    """One independent (workload, configuration) simulation.

    ``workload`` may be a registry name or a pre-built trace, and
    ``configuration`` may be a registry name or a
    :class:`~repro.secure.configs.SystemConfiguration` value (e.g. a derived
    variant that was never registered); either way the job is self-contained
    and picklable, which is what lets a worker process execute it without
    any shared state.  Named workloads are resolved to traces inside the
    worker, so a job satisfied by the cache never builds its trace at all.
    """

    configuration: ConfigurationLike
    workload: Union[str, MemoryTrace]
    experiment: "ExperimentConfig"
    #: Engine name (or instance); None selects the default engine.
    engine: Optional[EngineLike] = None

    def __post_init__(self) -> None:
        # The engine stays out of the cache key, so an unknown name must
        # fail here: on a warm cache no job would ever resolve it.
        resolve_engine(self.engine)

    @property
    def configuration_name(self) -> str:
        if isinstance(self.configuration, str):
            return self.configuration
        return self.configuration.name

    @property
    def workload_name(self) -> str:
        return self.workload if isinstance(self.workload, str) else self.workload.name

    def cache_key(self) -> str:
        """Stable SHA-256 key over (configuration, workload, experiment).

        The configuration contributes its full declarative spec, not just its
        name, so edits to a configuration's parameters (timings, packing,
        cache sizes, ...) invalidate cached results automatically -- and an
        unregistered spec that equals a registered one field-for-field hits
        the same cache entries as its name would.  Changes to simulator
        *logic* still require a ``CACHE_SCHEMA_VERSION`` bump.
        """
        if isinstance(self.configuration, SystemConfiguration):
            spec = self.configuration
        else:
            spec = CONFIGURATIONS.get(self.configuration)
        # Custom mechanism factories contribute their explicit cache token
        # (the spec only names the mechanism; the factory's behaviour lives
        # in code the cache cannot hash).  Built-ins are covered by
        # CACHE_SCHEMA_VERSION and contribute None.
        mechanism_token = (
            CONFIGURATION_REGISTRY.mechanism_cache_token(spec.mechanism)
            if spec is not None else None
        )
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "configuration": self.configuration_name,
            "configuration_spec": repr(spec),
            "mechanism": mechanism_token,
            "workload": workload_cache_token(self.workload),
            "experiment": {f.name: getattr(self.experiment, f.name) for f in fields(self.experiment)},
        }
        # Every engine reproduces the reference results byte for byte, so
        # the engine stays out of the key: one engine's entries serve all.
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def replay_key(self, memo: Optional[Dict] = None):
        """What this job's engine run reads, names aside, or None.

        The workload as :meth:`cache_key` names it, plus the engine's
        ``replay_key(spec, experiment)``.  Jobs with equal keys give results
        equal in every field but ``configuration``, so
        :meth:`ParallelRunner.run` runs one of them per pass.  None -- run
        alone -- for an engine without ``replay_key`` (the reference never
        shares), when the engine declines, and when the job's system cannot
        be built: it then fails in its own slot.  ``memo``, a dict kept for
        one pass, holds the engine's key per (configuration, experiment,
        engine), so the jobs of one system build it once.
        """
        engine_replay_key = getattr(resolve_engine(self.engine), "replay_key", None)
        if engine_replay_key is None:
            return None
        memo = {} if memo is None else memo
        system = (self.configuration, self.experiment, self.engine)
        try:
            if system not in memo:
                memo[system] = engine_replay_key(
                    resolve_configuration(self.configuration), self.experiment
                )
            replay = memo[system]
            return None if replay is None else (workload_cache_token(self.workload), replay)
        except Exception:
            return None


@dataclass(frozen=True)
class JobEvent:
    """Progress/timing notification emitted by :class:`ParallelRunner`.

    ``status`` is ``"start"`` when a job is dispatched, ``"done"`` when its
    simulation finishes (``elapsed_seconds`` is the worker-measured wall
    time), ``"cached"`` when the on-disk cache satisfied it, and ``"failed"``
    when the job raised and the runner is in ``failures="capture"`` mode.
    """

    configuration: str
    workload: str
    status: str
    index: int
    total: int
    elapsed_seconds: float = 0.0


ProgressHook = Callable[[JobEvent], None]


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that raised instead of producing a result.

    In ``failures="capture"`` mode the runner stores one of these in the
    result slot of the job that failed (the rest of the matrix still runs and
    is cached as usual).  The record is JSON-friendly by construction -- the
    experiment service persists it verbatim as a job's error detail.
    ``exception`` additionally carries the original exception instance when
    it survived the trip back from the worker process (registry errors and
    most stdlib exceptions do); it is excluded from comparisons and payloads.
    """

    configuration: str
    workload: str
    error_type: str
    error_message: str
    traceback: str
    exception: Optional[BaseException] = field(default=None, compare=False, repr=False)

    def payload(self) -> Dict[str, str]:
        """The JSON-safe form (everything except the live exception)."""
        return {
            "configuration": self.configuration,
            "workload": self.workload,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "traceback": self.traceback,
        }

    def describe(self) -> str:
        return "%s/%s: %s: %s" % (
            self.configuration, self.workload, self.error_type, self.error_message,
        )


class JobFailedError(RuntimeError):
    """One or more jobs of a matrix failed (``failures`` carries the detail).

    Raised by :func:`repro.sim.experiment.run_comparison` in
    ``failures="capture"`` mode *after* the rest of the matrix has finished
    (and been cached), so a retry only re-runs the failing pairs.
    """

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        super().__init__(
            "%d simulation job(s) failed: %s"
            % (len(self.failures), "; ".join(f.describe() for f in self.failures))
        )


def _guarded_execute(executor: Callable, job) -> Tuple[object, float]:
    """Run ``executor(job)``, converting any exception into a JobFailure.

    Module-level (and composed with :func:`functools.partial`) so worker
    pools can pickle it around any module-level executor.  The original
    exception rides along only when it pickles cleanly -- an unpicklable
    exception must not kill the pool's result channel.
    """
    started = time.perf_counter()
    try:
        return executor(job)
    except Exception as exc:
        elapsed = time.perf_counter() - started
        carried: Optional[BaseException] = exc
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            carried = None
        failure = JobFailure(
            configuration=getattr(job, "configuration_name", "?"),
            workload=getattr(job, "workload_name", "?"),
            error_type=type(exc).__name__,
            error_message=str(exc),
            traceback=traceback_module.format_exc(),
            exception=carried,
        )
        return failure, elapsed


class ResultCache:
    """On-disk cache of :class:`SimulationResult` records, one JSON file each.

    Writes are atomic (tempfile + ``os.replace``) so concurrent runners
    sharing one cache directory can only ever observe complete entries.

    The payload codec is pluggable: subclasses (e.g. the fuzz campaign's
    scenario-result cache) override ``schema_version``, :meth:`_encode` and
    :meth:`_decode` to store a different record type through the same
    atomic-file machinery and hit/miss accounting.
    """

    #: Entries written under any other schema version are treated as misses.
    schema_version: int = CACHE_SCHEMA_VERSION

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / ("%s.json" % key)

    def _decode(self, payload: Dict) -> SimulationResult:
        """Rebuild a cached record from its JSON payload (override to retarget)."""
        return SimulationResult(**payload)

    def _encode(self, result) -> Dict:
        """The JSON payload for one record (override to retarget)."""
        return {f.name: getattr(result, f.name) for f in fields(result)}

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None on a miss.

        Anything unreadable -- missing file, invalid JSON, another schema
        version, or a well-formed entry whose payload no longer matches
        the record type -- counts as a miss and is re-simulated.
        """
        try:
            data = json.loads(self._path(key).read_text())
            if not isinstance(data, dict) or data.get("schema") != self.schema_version:
                raise ValueError("unusable cache entry")
            result = self._decode(data["result"])
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            obs.current().registry.counter(
                "cache_ops_total", "Result-cache lookups by outcome.", op="miss"
            ).inc()
            return None
        self.hits += 1
        obs.current().registry.counter(
            "cache_ops_total", "Result-cache lookups by outcome.", op="hit"
        ).inc()
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` atomically."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {"schema": self.schema_version, "result": self._encode(result)}
        final = self._path(key)
        tmp = final.with_name("%s.tmp.%d" % (final.name, os.getpid()))
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, final)
        obs.current().registry.counter(
            "cache_writes_total", "Result-cache entries written."
        ).inc()

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Also sweeps up ``*.json.tmp.<pid>`` leftovers from writers that died
        between the tempfile write and the atomic rename.
        """
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.glob("*.json*"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))


def _execute_job(job: SimulationJob) -> Tuple[SimulationResult, float]:
    """Worker entry point: simulate one job, returning (result, seconds)."""
    # Imported lazily: repro.sim.experiment imports this module at top level.
    from repro.sim.experiment import run_simulation

    engine_name = resolve_engine(job.engine).name
    started = time.perf_counter()
    with obs.span(
        "engine",
        engine=engine_name,
        configuration=job.configuration_name,
        workload=job.workload_name,
    ):
        result = run_simulation(
            job.workload, job.configuration, job.experiment, engine=job.engine
        )
    elapsed = time.perf_counter() - started
    registry = obs.current().registry
    registry.counter(
        "engine_jobs_total", "Simulations executed, by engine.", engine=engine_name
    ).inc()
    accesses = getattr(job.experiment, "num_accesses", 0)
    if elapsed > 0 and accesses:
        registry.gauge(
            "engine_accesses_per_sec",
            "Per-core replay throughput of the most recent job, by engine.",
            engine=engine_name,
        ).set(accesses / elapsed)
    return result, elapsed


def _shipped_execute(executor: Callable, job) -> Tuple[object, float, Dict]:
    """Pool-side wrapper shipping what the job recorded with its result.

    The worker's forked copy of the parent's observation says which
    signals to record, but writing into it would only update a dead copy,
    and pool workers are reused across jobs -- so each job records into
    fresh signals of the same kinds, and the parent merges the shipped dict
    exactly once per job (:meth:`ParallelRunner._consume`).  Aggregation is
    therefore exact.  Span timestamps are job-relative; the parent rebases
    them with ``base = job_end - elapsed``.
    """
    local = obs.current().for_worker()
    with obs.observing(local):
        result, elapsed = executor(job)
    return result, elapsed, local.ship()


class ParallelRunner:
    """Execute a list of :class:`SimulationJob` with caching and a pool.

    ``jobs=1`` runs inline in the calling process (no pool, no pickling);
    ``jobs>1`` fans uncached work out over a ``multiprocessing`` pool while
    preserving input order in the returned list, so callers assemble results
    identically regardless of parallelism.

    The runner is generic over the job type: any value exposing
    ``cache_key()``, ``configuration_name`` and ``workload_name`` can be run
    by supplying a matching ``executor`` (a *module-level* callable, so pools
    can pickle it, mapping one job to ``(result, elapsed_seconds)``).  The
    fuzz campaign engine reuses the runner this way with scenario jobs.
    An optional ``prepare`` maps the jobs that missed the cache to the
    values the executor receives.  It runs once per :meth:`run`, in the
    calling process, before any job executes; the fuzz campaign uses it to
    attest only the configurations that have work and to hand that one
    system to every job, pool workers included.

    Pending jobs with equal :meth:`SimulationJob.replay_key` execute once
    per :meth:`run`: each of the others takes a copy of that outcome renamed
    to its own configuration, and is still cached under its own key and
    reported by its own terminal event.

    ``failures`` selects what happens when a job raises:

    * ``"raise"`` (the default, and the historical behavior) propagates the
      exception out of :meth:`run`;
    * ``"capture"`` records a :class:`JobFailure` in that job's result slot,
      emits a ``"failed"`` :class:`JobEvent`, and keeps going -- the rest of
      the matrix completes (and is cached), which is what lets the
      experiment service mark one job ``failed`` with structured error
      detail while concurrent work still benefits from the shared cache.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressHook] = None,
        executor: Callable = _execute_job,
        failures: str = "raise",
        prepare: Optional[Callable[[List], List]] = None,
    ) -> None:
        if failures not in ("raise", "capture"):
            raise ValueError("failures must be 'raise' or 'capture', got %r" % failures)
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        self.executor = executor
        self.failures = failures
        self.prepare = prepare

    # ------------------------------------------------------------------
    def _emit(self, event: JobEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    def run(
        self, jobs: Sequence[SimulationJob], keys: Optional[Sequence[str]] = None
    ) -> List[SimulationResult]:
        """Run every job, returning results in input order.

        ``keys``, when the caller already holds them, are the jobs' cache
        keys in the same order; the runner then keys no job itself.
        """
        job_list = list(jobs)
        total = len(job_list)
        results: List[Optional[SimulationResult]] = [None] * total
        pending: List[Tuple[int, SimulationJob, Optional[str]]] = []
        registry = obs.current().registry

        with obs.span("matrix", jobs=total):
            for index, job in enumerate(job_list):
                if self.cache is None:
                    key = None
                else:
                    key = keys[index] if keys is not None else job.cache_key()
                cached = self.cache.get(key) if key is not None else None
                if cached is not None:
                    results[index] = cached
                    registry.counter(
                        "sim_jobs_total", "Simulation jobs by outcome.", state="cached"
                    ).inc()
                    self._emit(
                        JobEvent(job.configuration_name, job.workload_name, "cached", index, total)
                    )
                else:
                    pending.append((index, job, key))

            if pending:
                for index, job, _ in pending:
                    self._emit(
                        JobEvent(job.configuration_name, job.workload_name, "start", index, total)
                    )
                runs, copies = _share_replays(pending)
                run_jobs = [job for _, job, _ in runs]
                if self.prepare is not None:
                    run_jobs = self.prepare(run_jobs)
                # Capture mode wraps the executor *inside* the worker, so a
                # raising job comes back as a JobFailure value instead of
                # poisoning the pool's result stream; raise mode keeps the
                # historical path (the exception propagates at that job's turn).
                executor = (
                    functools.partial(_guarded_execute, self.executor)
                    if self.failures == "capture" else self.executor
                )
                if self.jobs == 1 or len(runs) == 1:
                    self._consume(runs, copies, map(executor, run_jobs), results, total)
                else:
                    workers = min(self.jobs, len(runs))
                    # Workers hold a forked copy of the observation, so when
                    # it records anything each job's signals are shipped
                    # back with its result and merged parent-side (exact
                    # totals, rebased spans).
                    if obs.current().active:
                        executor = functools.partial(_shipped_execute, executor)
                    with multiprocessing.Pool(processes=workers) as pool:
                        # imap streams outcomes in job order as workers finish,
                        # so progress events and cache writes happen per job
                        # instead of all at once after the last job.
                        self._consume(
                            runs, copies, pool.imap(executor, run_jobs), results, total
                        )

        if any(result is None for result in results):
            raise RuntimeError("runner left unfilled job slots")  # pragma: no cover
        return results

    def _consume(self, runs, copies, outcomes, results, total) -> None:
        """Store streamed outcomes and their copies (see :func:`_share_replays`)."""
        observation = obs.current()
        registry = observation.registry
        tracer = observation.tracer
        for position, ((index, job, key), outcome) in enumerate(zip(runs, outcomes)):
            if len(outcome) == 3:
                result, elapsed, shipped = outcome
            else:
                (result, elapsed), shipped = outcome, None
            state = "failed" if isinstance(result, JobFailure) else "done"
            registry.histogram(
                "sim_job_seconds", "Per-job simulation wall time.", state=state
            ).observe(elapsed)
            start = span_id = None
            if tracer is not None:
                start = tracer.now() - elapsed
                span_id = tracer.record(
                    "job", start, elapsed,
                    attrs={
                        "configuration": job.configuration_name,
                        "workload": job.workload_name,
                        "status": state,
                    },
                )
            if shipped is not None:
                observation.merge(shipped, base=start, parent=span_id)
            self._settle(index, job, key, result, elapsed, results, total)
            # A copy ran nothing of its own, so it reports no wall time.
            for index, job, key in copies.get(position, ()):
                copy = replace(result, configuration=job.configuration_name)
                if isinstance(copy, SimulationResult):
                    copy.memory_stats = dict(copy.memory_stats)  # not shared with the run's
                self._settle(index, job, key, copy, 0.0, results, total)

    def _settle(self, index, job, key, result, elapsed, results, total) -> None:
        """Fill one job's slot, count it, cache it, and emit its terminal event."""
        results[index] = result
        state = "failed" if isinstance(result, JobFailure) else "done"
        obs.current().registry.counter(
            "sim_jobs_total", "Simulation jobs by outcome.", state=state
        ).inc()
        # A failure is never cached: a retry after the bug is fixed must re-run.
        if state == "done" and self.cache is not None and key is not None:
            self.cache.put(key, result)
        self._emit(
            JobEvent(job.configuration_name, job.workload_name, state, index, total, elapsed)
        )


def _share_replays(pending):
    """Split pending ``(index, job, key)`` entries into runs and copies.

    Returns ``(runs, copies)``: the entries to execute, in order, and per
    position in ``runs`` the later entries with that run's replay key
    (:meth:`SimulationJob.replay_key`), which take a copy of its outcome
    renamed to their configuration -- a failed run fails its copies.  Jobs
    without a key, or without ``replay_key`` at all (the fuzz campaign's),
    always run.
    """
    runs = []
    copies: Dict[int, List] = {}
    first: Dict[object, int] = {}
    memo: Dict = {}
    for entry in pending:
        replay_key = getattr(entry[1], "replay_key", None)
        replay = replay_key(memo) if replay_key is not None else None
        if replay is not None:
            position = first.setdefault(replay, len(runs))
            if position != len(runs):
                copies.setdefault(position, []).append(entry)
                continue
        runs.append(entry)
    return runs, copies
