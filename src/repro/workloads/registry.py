"""Named workload registry the figures, the CLI and the session API use.

The registry lists the 29 workloads of the paper's figures (23 SPEC CPU 2017
rate benchmarks + 6 GAPBS kernels) in figure order, and knows which are
"memory intensive" under the paper's MPKI >= 10 definition.

Beyond the paper's fixed matrix, the registry is *extensible*: user code can
register its own trace builders (any callable producing a
:class:`~repro.cpu.trace.MemoryTrace` from ``(num_accesses, seed)``) or
pre-built trace instances under new names.  Custom builders carry an explicit
``cache_token`` so the on-disk result cache can fingerprint them; registered
traces default to a content hash of their records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro.cpu.trace import MemoryTrace
from repro.errors import UnknownWorkloadError
from repro.workloads.gapbs_like import GAPBS_PROFILES, build_gapbs_trace
from repro.workloads.spec_like import SPEC_PROFILES, build_spec_trace

__all__ = [
    "MEMORY_INTENSIVE_THRESHOLD_MPKI",
    "WorkloadSpec",
    "WorkloadRegistry",
    "WorkloadBuilder",
    "ALL_WORKLOADS",
    "REGISTRY",
    "workload_names",
    "memory_intensive_workloads",
    "build_workload",
    "register_workload",
    "register_trace",
    "trace_cache_token",
]

#: Paper Section IV-A: workloads with LLC MPKI >= 10 are memory intensive.
MEMORY_INTENSIVE_THRESHOLD_MPKI = 10.0

#: A custom trace builder: called as ``builder(num_accesses=..., seed=...)``.
WorkloadBuilder = Callable[..., MemoryTrace]


def trace_cache_token(trace: MemoryTrace) -> str:
    """A stable content-hash identity for a pre-built trace.

    Content hashing is O(records); the token is memoized on the trace
    instance so repeated cache-key computations over one trace object only
    pay for it once.
    """
    token = getattr(trace, "_cache_token", None)
    if token is None:
        digest = hashlib.sha256()
        digest.update(trace.name.encode("utf-8"))
        for record in trace:
            digest.update(
                ("%d,%d,%d;"
                 % (record.instruction_gap, int(record.is_write), record.address)).encode()
            )
        token = "trace:%s" % digest.hexdigest()
        trace._cache_token = token
    return token


@dataclass(frozen=True)
class WorkloadSpec:
    """One entry of the registry.

    The three optional fields only apply to user-registered workloads:
    ``builder`` generates the trace, ``trace`` *is* the trace, and
    ``cache_token`` is the identity string the result cache fingerprints the
    workload by (mandatory for builders, whose code the cache cannot hash).
    """

    name: str
    suite: str  # "spec2017", "gapbs", or "custom"
    mpki: float
    write_fraction: float
    builder: Optional[WorkloadBuilder] = field(default=None, compare=False)
    trace: Optional[MemoryTrace] = field(default=None, compare=False)
    cache_token: Optional[str] = None

    @property
    def memory_intensive(self) -> bool:
        return self.mpki >= MEMORY_INTENSIVE_THRESHOLD_MPKI


def _build_registry() -> Dict[str, WorkloadSpec]:
    registry: Dict[str, WorkloadSpec] = {}
    for profile in SPEC_PROFILES.values():
        registry[profile.name] = WorkloadSpec(
            name=profile.name,
            suite="spec2017",
            mpki=profile.mpki,
            write_fraction=profile.write_fraction,
        )
    for profile in GAPBS_PROFILES.values():
        registry[profile.name] = WorkloadSpec(
            name=profile.name,
            suite="gapbs",
            mpki=profile.mpki,
            write_fraction=profile.write_fraction,
        )
    return registry


#: All workloads keyed by name, in the paper's figure order (SPEC then GAPBS).
ALL_WORKLOADS: Dict[str, WorkloadSpec] = _build_registry()


class WorkloadRegistry(Mapping):
    """Named workloads plus the builders that materialize them as traces.

    A mapping from workload name to :class:`WorkloadSpec`, extended with
    registration of custom builders and pre-built traces, trace
    construction (:meth:`build`), and result-cache identity
    (:meth:`cache_token_for`).
    """

    def __init__(self, specs: Dict[str, WorkloadSpec]) -> None:
        self._specs = specs

    # -- mapping protocol ----------------------------------------------
    def __getitem__(self, name: str) -> WorkloadSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownWorkloadError(name, self._specs) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    # -- registration --------------------------------------------------
    def register(
        self,
        name: str,
        builder: WorkloadBuilder,
        cache_token: str,
        mpki: float = 0.0,
        write_fraction: float = 0.0,
        suite: str = "custom",
        replace_existing: bool = False,
    ) -> WorkloadSpec:
        """Register a custom trace builder under ``name``.

        ``builder`` is called as ``builder(num_accesses=..., seed=...)`` and
        must deterministically return a :class:`MemoryTrace`.  ``cache_token``
        is mandatory: it stands in for the builder's code in result-cache
        keys, so bump it whenever the builder's output changes or the cache
        would silently serve traces generated by the old builder.
        """
        if not cache_token:
            raise ValueError("custom workload %r needs a non-empty cache_token" % name)
        spec = WorkloadSpec(
            name=name,
            suite=suite,
            mpki=mpki,
            write_fraction=write_fraction,
            builder=builder,
            cache_token=cache_token,
        )
        self._check_collision(name, replace_existing)
        self._specs[name] = spec
        return spec

    def register_trace(
        self,
        trace: MemoryTrace,
        name: Optional[str] = None,
        cache_token: Optional[str] = None,
        suite: str = "custom",
        replace_existing: bool = False,
    ) -> WorkloadSpec:
        """Register a pre-built trace so it can be addressed by name.

        Without an explicit ``cache_token`` the trace's content hash is used,
        which is always correct (two different traces can never collide) at
        the cost of one O(records) hash per process.

        Streamed views register without any data pass: their cache token,
        rename, and MPKI/write-mix metadata all come from header statistics
        (for count-changing transforms like truncate/sample, the base
        stream's ratios stand in -- see ``ChunkedTrace.registration_stats``).
        """
        name = name or trace.name
        if name != trace.name:
            # Keep the registered name and the trace's own name consistent,
            # so result tables key the workload the same way it was selected.
            # Streamed views rename lazily (no data copied); only plain
            # in-memory traces need a record-list copy.
            renamer = getattr(trace, "with_name", None)
            if callable(renamer):
                trace = renamer(name)
            else:
                trace = MemoryTrace(name, trace.records)
        stats_builder = getattr(trace, "registration_stats", None)
        if callable(stats_builder):
            mpki, write_fraction = stats_builder()
        else:
            mpki, write_fraction = trace.mpki, trace.write_fraction
        spec = WorkloadSpec(
            name=name,
            suite=suite,
            mpki=mpki,
            write_fraction=write_fraction,
            trace=trace,
            cache_token=cache_token or trace_cache_token(trace),
        )
        self._check_collision(name, replace_existing)
        self._specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a named workload (unknown names raise)."""
        if name not in self._specs:
            raise UnknownWorkloadError(name, self._specs)
        del self._specs[name]

    def _check_collision(self, name: str, replace_existing: bool) -> None:
        if name in self._specs and not replace_existing:
            raise ValueError(
                "workload %r is already registered; pass replace_existing=True "
                "to overwrite it" % name
            )

    # -- lookup / construction -----------------------------------------
    def names(self, memory_intensive_only: bool = False) -> List[str]:
        names = list(self._specs)
        if memory_intensive_only:
            names = [n for n in names if self._specs[n].memory_intensive]
        return names

    def build(self, name: str, num_accesses: int = 20000, seed: int = 1) -> MemoryTrace:
        """Materialize workload ``name`` as a trace.

        Registered trace instances are returned as-is (their length is fixed
        at registration time); builders and the SPEC/GAPBS suites honour
        ``num_accesses`` and ``seed``.
        """
        spec = self[name]
        if spec.trace is not None:
            return spec.trace
        if spec.builder is not None:
            return spec.builder(num_accesses=num_accesses, seed=seed)
        if spec.suite == "spec2017":
            return build_spec_trace(name, num_accesses=num_accesses, seed=seed)
        if spec.suite == "gapbs":
            return build_gapbs_trace(name, num_accesses=num_accesses, seed=seed)
        raise ValueError(
            "workload %r (suite %r) has neither a builder nor a trace" % (name, spec.suite)
        )

    def cache_token_for(self, name: str) -> str:
        """The identity string result-cache keys use for workload ``name``.

        Suite workloads hash by their declarative generator profile (so
        tuning a profile invalidates cached results); custom workloads use
        their explicit token or the registered trace's content hash.  Unknown
        names yield ``repr(None)`` rather than raising — the simulation
        itself reports them with a proper error.
        """
        spec = self._specs.get(name)
        if spec is None:
            profile = SPEC_PROFILES.get(name) or GAPBS_PROFILES.get(name)
            return repr(profile)
        if spec.cache_token:
            return spec.cache_token
        if spec.trace is not None:
            return trace_cache_token(spec.trace)
        profile = SPEC_PROFILES.get(name) or GAPBS_PROFILES.get(name)
        return repr(profile)


#: The default registry.  It wraps (and stays in sync with) ``ALL_WORKLOADS``.
REGISTRY = WorkloadRegistry(ALL_WORKLOADS)

#: Module-level conveniences mirroring the registry methods.
register_workload = REGISTRY.register
register_trace = REGISTRY.register_trace


def workload_names(memory_intensive_only: bool = False) -> List[str]:
    """Workload names in figure order."""
    return REGISTRY.names(memory_intensive_only=memory_intensive_only)


def memory_intensive_workloads() -> List[str]:
    """Names of the workloads with MPKI >= 10."""
    return workload_names(memory_intensive_only=True)


def build_workload(
    name: str,
    num_accesses: int = 20000,
    seed: int = 1,
) -> MemoryTrace:
    """Build the trace for workload ``name`` (SPEC, GAPBS, or registered)."""
    return REGISTRY.build(name, num_accesses=num_accesses, seed=seed)
