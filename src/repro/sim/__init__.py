"""Simulation driver: experiment runner, statistics, sweeps, result records.

This is the layer :mod:`repro.figures` (the paper-artifact pipeline),
:class:`repro.api.Session`, the CLI and the examples call into: it wires a workload trace, a
secure-memory configuration, and the multi-core system model together, runs
the simulation (serially or over a process pool, with on-disk result
caching), and reports paper-style normalized results (IPC relative to the
TDX-like baseline, per-workload and geometric means over all /
memory-intensive workloads).
"""

from repro.sim.stats import geometric_mean, normalize, summarize
from repro.sim.results import SimulationResult, ComparisonResult
from repro.sim.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    BatchEngine,
    BatchEngineUnsupported,
    Engine,
    EngineRegistry,
    ReferenceEngine,
    engine_names,
    register_engine,
    resolve_engine,
)
from repro.sim.runner import (
    JobEvent,
    ParallelRunner,
    ResultCache,
    SimulationJob,
)
from repro.sim.experiment import (
    Comparison,
    ExperimentConfig,
    run_simulation,
    run_comparison,
    default_system_parameters,
)
from repro.sim.sweep import arity_group, arity_sweep, counter_packing_sweep, packing_group

__all__ = [
    "geometric_mean",
    "normalize",
    "summarize",
    "SimulationResult",
    "ComparisonResult",
    "DEFAULT_ENGINE",
    "ENGINES",
    "Engine",
    "EngineRegistry",
    "ReferenceEngine",
    "BatchEngine",
    "BatchEngineUnsupported",
    "engine_names",
    "register_engine",
    "resolve_engine",
    "JobEvent",
    "ParallelRunner",
    "ResultCache",
    "SimulationJob",
    "Comparison",
    "ExperimentConfig",
    "run_simulation",
    "run_comparison",
    "default_system_parameters",
    "arity_group",
    "arity_sweep",
    "counter_packing_sweep",
    "packing_group",
]
