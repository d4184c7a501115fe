"""Workload substrate: synthetic SPEC-2017-like and GAPBS-like traces.

The paper evaluates SimPoint regions of SPEC CPU 2017 rate and the GAP
Benchmark Suite.  Those traces cannot be redistributed, so this package
generates synthetic LLC-miss traces calibrated to each benchmark's published
memory behaviour: misses per kilo-instruction (MPKI), read/write mix, access
pattern class (streaming, random, pointer-chasing, graph, compute-bound) and
memory footprint.  See ``docs/architecture.md`` ("Substitutions") for why
this preserves the paper's reproducible claims.

* :mod:`repro.workloads.generators` -- address-pattern generators.
* :mod:`repro.workloads.spec_like` -- per-benchmark profiles for the SPEC
  workload names the paper plots.
* :mod:`repro.workloads.gapbs_like` -- graph-algorithm trace generators for
  the GAPBS workload names (bfs, pr, tc, cc, bc, sssp).
* :mod:`repro.workloads.registry` -- the named registry the benchmark
  harness iterates over.
"""

from repro.workloads.generators import (
    AccessPattern,
    TraceGeneratorConfig,
    generate_trace,
)
from repro.workloads.spec_like import SPEC_PROFILES, WorkloadProfile, build_spec_trace
from repro.workloads.gapbs_like import GAPBS_PROFILES, build_gapbs_trace, SyntheticGraph
from repro.workloads.registry import (
    ALL_WORKLOADS,
    MEMORY_INTENSIVE_THRESHOLD_MPKI,
    REGISTRY,
    WorkloadRegistry,
    WorkloadSpec,
    build_workload,
    memory_intensive_workloads,
    register_trace,
    register_workload,
    trace_cache_token,
    workload_names,
)

__all__ = [
    "AccessPattern",
    "TraceGeneratorConfig",
    "generate_trace",
    "SPEC_PROFILES",
    "WorkloadProfile",
    "build_spec_trace",
    "GAPBS_PROFILES",
    "build_gapbs_trace",
    "SyntheticGraph",
    "ALL_WORKLOADS",
    "MEMORY_INTENSIVE_THRESHOLD_MPKI",
    "REGISTRY",
    "WorkloadRegistry",
    "WorkloadSpec",
    "build_workload",
    "memory_intensive_workloads",
    "register_trace",
    "register_workload",
    "trace_cache_token",
    "workload_names",
]
