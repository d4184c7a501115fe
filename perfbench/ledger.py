"""Per-layer ledger of the traced mode, and the per-layer microbenches.

Layers are the ``repro`` subpackages.  A profiled function's self time goes
to the layer of the module that owns it, with two refinements:

* C builtins (``pow``, ``sorted``, list methods, numpy calls) and Python
  functions outside ``repro`` are charged to the ``repro`` functions that
  called them, split by the profiler's per-caller time; otherwise the
  1536-bit Diffie-Hellman ``pow`` of the key exchange would show up as
  ``<builtin>``.
* The batch engine's nested closures in ``sim/engines.py`` are split by
  what they model (``BATCH_CLOSURE_LAYERS``).

What no layer owns (``repro.obs``, ``repro.traces``, the top-level modules,
the interpreter's import machinery) is ``other``.
"""

from __future__ import annotations

import os
import pstats
import statistics
import time
from typing import Callable, Dict, Iterable, Optional

#: Layer of each ``repro`` subpackage that has one.
PACKAGE_LAYERS = {
    "workloads": "workloads",
    "sim": "sim.runner",
    "figures": "figures",
    "cpu": "cpu",
    "secure": "secure",
    "cache": "cache",
    "controller": "controller",
    "dram": "dram",
    "core": "core",
    "fuzz": "fuzz",
    "attacks": "attacks",
}

#: Modules split out of their package's layer.
MODULE_LAYERS = {
    "crypto/aes.py": "crypto.aes",
    # CTR/XTS modes and the MACs are built on the block cipher: their own loops
    # are AES work.
    "crypto/modes.py": "crypto.aes",
    "crypto/mac.py": "crypto.aes",
    "crypto/keyexchange.py": "crypto.keyexchange",
}

BATCH_ENGINE_MODULE = "sim/engines.py"
#: Closures of ``_simulate_batch``; the function's own loop is the CPU replay.
BATCH_CLOSURE_LAYERS = {
    "chan": "dram",
    "dec": "dram",
    "drain": "controller",
    "enq": "controller",
    "serve_read": "controller",
    "cache_access": "cache",
    "meta_access": "cache",
    "walk": "secure",
    "secure_read": "secure",
    "secure_read_dyn": "secure",
    "secure_write": "secure",
    "refill": "engine.precompute",
    "_columnized": "engine.precompute",
    "_offset_chunks": "engine.precompute",
    "preview": "cpu",
    "_simulate_batch": "cpu",
}

LAYERS = (
    "workloads", "sim.runner", "figures", "cpu", "secure", "cache", "controller", "dram",
    "crypto.aes", "crypto.keyexchange", "core", "fuzz", "attacks", "engine.precompute",
    "other",
)

#: The ledger's metric name for each layer.
LAYER_METRICS = {
    layer: ("engine.precompute_s" if layer == "engine.precompute" else layer + ".self_s")
    for layer in LAYERS
}


def code_key(function: Callable) -> tuple:
    """The profiler's label of a Python function: (file, first line, name)."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Ledger:
    """Self time per layer and exact call counts from one cProfile run."""

    def __init__(self, profile, repro_root: str) -> None:
        self.stats = pstats.Stats(profile).stats
        self.root = os.path.abspath(repro_root) + os.sep
        self._shares: Dict[tuple, Dict[str, float]] = {}

    def layer_of(self, func: tuple) -> Optional[str]:
        filename, _, name = func
        if not filename.startswith(self.root):
            return None
        module = filename[len(self.root):].replace(os.sep, "/")
        if module == BATCH_ENGINE_MODULE and name in BATCH_CLOSURE_LAYERS:
            return BATCH_CLOSURE_LAYERS[name]
        if module in MODULE_LAYERS:
            return MODULE_LAYERS[module]
        return PACKAGE_LAYERS.get(module.split("/")[0], "other")

    def _owner_shares(self, func: tuple, visiting: frozenset) -> Dict[str, float]:
        """How the time spent in ``func`` splits over layers, via its callers."""
        layer = self.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._shares:
            return self._shares[func]
        callers = self.stats[func][4] if func in self.stats else {}
        weights = {
            caller: edge[3] for caller, edge in callers.items() if caller not in visiting
        }
        total = sum(weights.values())
        if total <= 0:
            shares = {"other": 1.0}
        else:
            shares = {}
            for caller, weight in weights.items():
                for owner, share in self._owner_shares(caller, visiting | {func}).items():
                    shares[owner] = shares.get(owner, 0.0) + share * weight / total
        self._shares[func] = shares
        return shares

    def self_seconds(self) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for func, (_, _, own, _, callers) in self.stats.items():
            layer = self.layer_of(func)
            if layer is not None:
                totals[layer] += own
            elif not callers:
                totals["other"] += own
            else:
                # Split by the per-caller self time the profiler recorded.
                for caller, edge in callers.items():
                    for owner, share in self._owner_shares(caller, frozenset([func])).items():
                        totals[owner] += edge[2] * share
        return {LAYER_METRICS[layer]: seconds for layer, seconds in totals.items()}

    def calls(self, functions: Iterable[Callable]) -> int:
        """Total calls of the given Python functions."""
        return sum(self.stats.get(code_key(f), (0, 0))[1] for f in functions)

    def builtin_calls_from(self, builtin: str, caller_module: str) -> int:
        """Calls of a C builtin made from functions of one ``repro`` module."""
        callers = next(
            (entry[4] for func, entry in self.stats.items() if func[2] == builtin), {}
        )
        suffix = os.sep + caller_module.replace("/", os.sep)
        return sum(edge[0] for caller, edge in callers.items() if caller[0].endswith(suffix))


def span_seconds(records) -> Dict[str, float]:
    """Busy time of the layers the obs spans bracket.

    Inline jobs record their ``job`` span after the ``engine`` span inside
    it closes, so job self time is the difference of the totals; fuzz jobs
    run no engine, so all of their time is job self time.
    """
    totals: Dict[str, float] = {}
    for record in records:
        totals[record["name"]] = totals.get(record["name"], 0.0) + record["dur"]
    job, engine = totals.get("job", 0.0), totals.get("engine", 0.0)
    return {
        "runner.job_self_s": max(job - engine, 0.0) if job else 0.0,
        "engine.busy_s": engine,
        "figures.build_s": totals.get("figure", 0.0),
        "figures.report_s": totals.get("report", 0.0),
    }


def _rate(step: Callable[[], int], rounds: int = 5, round_seconds: float = 0.1) -> float:
    """Median over rounds of units per second; ``step`` returns its units."""
    rates = []
    for _ in range(rounds):
        units = 0
        started = time.perf_counter()
        while True:
            units += step()
            elapsed = time.perf_counter() - started
            if elapsed >= round_seconds:
                break
        rates.append(units / elapsed)
    return statistics.median(rates)


def microbenches(seed: int) -> Dict[str, float]:
    """Public per-layer functions timed with no profiler installed."""
    import numpy as np

    from repro.crypto.aes import AES128
    from repro.crypto.keyexchange import (
        CertificateAuthority,
        EndorsementKeyPair,
        KeyExchangeParticipant,
        authenticated_key_exchange,
    )
    from repro.dram.address_mapping import AddressMapping
    from repro.workloads import build_workload

    cipher = AES128(bytes(range(16)))
    block = bytes(16)

    def aes_step() -> int:
        for _ in range(16):
            cipher.encrypt_block(block)
        return 16

    ca = CertificateAuthority()
    endorsement = EndorsementKeyPair.generate()
    certificate = ca.issue("dimm-0/rank0", endorsement)

    def handshake_step() -> int:
        authenticated_key_exchange(
            KeyExchangeParticipant(name="processor"),
            KeyExchangeParticipant(name="rank0", endorsement=endorsement),
            certificate,
            ca,
        )
        return 1

    mapping = AddressMapping()
    addresses = np.random.default_rng(seed).integers(
        0, mapping.capacity_bytes, size=1 << 16, dtype=np.int64
    )

    def decode_step() -> int:
        mapping.decode_arrays(addresses)
        return len(addresses)

    def build_step() -> int:
        return len(build_workload("mcf", num_accesses=20000, seed=seed))

    return {
        "crypto.aes_blocks_per_s": _rate(aes_step),
        "crypto.handshakes_per_s": _rate(handshake_step),
        "dram.decode_rows_per_s": _rate(decode_step),
        "workloads.accesses_per_s": _rate(build_step),
    }
