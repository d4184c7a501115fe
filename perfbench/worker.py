"""One benchmark process: set up a workload, time its calls, check outputs.

``run.py`` starts every worker as a fresh interpreter, so module registries
and ``_build_workload_cached``'s LRU start cold and ``setup_s`` (interpreter
start to the first timed call) is honest.  The worker prints one JSON object
as its last stdout line.  Modes:

* ``timed``      -- no profiler, no tracer; the host-speed probe
  (``probe.py``) runs from the worker's start; after the first call, the
  repeat call runs again while it still fits in the worker's time budget;
* ``traced``     -- cProfile over the whole process (imports, set-up and both
  calls) plus an in-memory ``repro.obs`` tracer around the calls; reports
  the layer ledger and exact counts (one call, one repeat);
* ``microbench`` -- the per-layer microbenches, no profiler.

Usage: python3 worker.py MODE WORKLOAD SEED WORKDIR T0 BUDGET
(T0 is the parent's ``time.time()`` just before it started this process;
BUDGET is how many seconds after T0 the worker should stop repeating.)
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import probe


def main(argv) -> int:
    mode, workload_name, seed, workdir, t0, budget = argv
    seed, t0, budget = int(seed), float(t0), float(budget)
    if mode == "timed":
        probe.start()
    started, boot = time.time(), probe.mark()
    profile = None
    if mode == "traced":
        import cProfile

        profile = cProfile.Profile()
        profile.enable()

    import workloads
    import ledger

    if mode == "microbench":
        print(json.dumps({"microbench": ledger.microbenches(seed)}))
        return 0

    from repro.obs import tracing as obs_tracing

    workload = workloads.make_workload(workload_name, seed, Path(workdir))
    setup = probe.since(boot)
    # Interpreter start, before the probe could run.
    setup["seconds"] += started - t0
    tracer = obs_tracing.Tracer() if mode == "traced" else None
    obs_tracing.set_tracer(tracer)
    calls = {"call": [], "repeat": []}
    for phase in ("call", "repeat"):
        while True:
            begin = probe.mark()
            result = getattr(workload, phase)()
            interval = probe.since(begin)
            interval["calibrated"] = probe.calibrated(interval, workload.PROBES[phase])
            calls[phase].append({**asdict(result), **interval})
            if phase == "call":
                # Set-up is too short for a steady probe mean of its own: take
                # the host's slowdown over set-up and the first call together.
                setup["calibrated"] = setup["seconds"] / probe.slowdown(
                    probe.since(boot), "interp"
                )
            if phase == "call" or time.time() + interval["seconds"] > t0 + budget:
                break
    obs_tracing.set_tracer(None)
    probe.stop()
    if profile is not None:
        profile.disable()

    finish = workload.finish()
    out = {
        "setup": setup,
        "calls": calls,
        "finish": asdict(finish),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if profile is not None:
        import repro
        from repro.core import FunctionalMemorySystem
        from repro.crypto.aes import AES128
        from repro.dram.address_mapping import AddressMapping

        book = ledger.Ledger(profile, str(Path(repro.__file__).parent))
        accesses = sum(call["accesses"] for phase in calls.values() for call in phase)
        decodes = book.calls([AddressMapping.decode])
        out["ledger"] = {
            **book.self_seconds(),
            **ledger.span_seconds(tracer.drain()),
            "dram.decode_calls_per_access": decodes / accesses if accesses else 0.0,
            "crypto.aes_blocks": book.calls([AES128.encrypt_block, AES128.decrypt_block]),
            "crypto.modexp_calls": book.builtin_calls_from(
                "<built-in method builtins.pow>", "crypto/keyexchange.py"
            ),
            "core.provisionings": book.calls([FunctionalMemorySystem.__init__]),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
