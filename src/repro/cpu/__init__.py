"""CPU substrate: trace format, core model, and the multi-core system glue.

The paper evaluates a 4-core out-of-order system (6-wide, 224-entry ROB)
simulated with Scarab.  This reproduction uses a trace-driven limit-study
core model (see ``docs/architecture.md``, "Substitutions"): the workload
generators produce the stream of LLC misses/writebacks each core injects,
and the core model converts per-request memory latencies into cycles under
ROB-occupancy and MSHR (memory-level-parallelism) constraints.  Relative IPC between
secure-memory configurations -- the quantity every figure in the paper
reports -- is preserved by this abstraction because the configurations only
differ in the memory traffic and latency they add.
"""

from repro.cpu.trace import TraceRecord, MemoryTrace
from repro.cpu.core import Core, CoreConfig, CoreResult
from repro.cpu.system import System, SystemConfig, SystemResult

__all__ = [
    "TraceRecord",
    "MemoryTrace",
    "Core",
    "CoreConfig",
    "CoreResult",
    "System",
    "SystemConfig",
    "SystemResult",
]
