"""Host-speed probe: fixed slices of work, run on an interval timer.

Other tenants of a shared VM slow the same code by up to ~80%, switching
between fast and slow spells within seconds and for minutes at a time, so
raw host seconds of one run say more about the host than about the code.
While a timed worker runs, ``SIGALRM`` fires every ``INTERVAL_S`` and its
handler times one fixed slice of work, taking turns over ``KINDS``.  The
probes interleave with the code under test, so a call's time divided by the
mean probe time over the call cancels the host's slowdown.  ``calibrated``
turns that ratio back into seconds: the call's time at the speed where one
probe takes its ``NOMINAL_S``.

Contention does not slow all code alike.  Interpreter-bound code (the
simulators, AES) slows like the ``interp`` loop; code that spends most of
its time in C (1536-bit modular exponentiation, JSON decoding, hashing)
slows less, like the ``bigint`` slice.  Each workload names the kind that
calibrates each of its calls.

``clock`` is ``time.perf_counter`` minus the probe time spent so far, so
intervals timed with it never include the probes themselves.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, NamedTuple

INTERVAL_S = 0.025

_MODULUS = (1 << 1536) - 1234567
_EXPONENT = (1 << 100) + 12345


def _interp() -> int:
    table = {}
    total = 0
    for i in range(4000):
        table[i & 255] = total
        total += table.get((i * 7) & 255, 1) ^ i
    return total


def _bigint() -> int:
    return pow(3, _EXPONENT, _MODULUS)


KINDS = {"interp": _interp, "bigint": _bigint}
#: Seconds one probe of each kind takes on an unloaded core of a 2.1 GHz Xeon
#: (the host the benchmark was tuned on); only fixes the scale of calibrated
#: seconds.
NOMINAL_S = {"interp": 0.00065, "bigint": 0.00065}

_order = tuple(KINDS)
_spent = dict.fromkeys(KINDS, 0.0)
_count = dict.fromkeys(KINDS, 0)
_total = 0.0
_ticks = 0


def _tick(signum, frame) -> None:
    global _total, _ticks
    kind = _order[_ticks % len(_order)]
    started = time.perf_counter()
    KINDS[kind]()
    took = time.perf_counter() - started
    _spent[kind] += took
    _count[kind] += 1
    _total += took
    _ticks += 1


def start() -> None:
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def clock() -> float:
    """Host seconds so far, without the time spent in probes."""
    return time.perf_counter() - _total


class Mark(NamedTuple):
    net: float
    spent: Dict[str, float]
    count: Dict[str, int]


def mark() -> Mark:
    return Mark(clock(), dict(_spent), dict(_count))


def since(begin: Mark) -> dict:
    """Net seconds since ``begin`` and the probes of each kind that ran meanwhile."""
    return {
        "seconds": clock() - begin.net,
        "probe_seconds": {kind: _spent[kind] - begin.spent[kind] for kind in KINDS},
        "probes": {kind: _count[kind] - begin.count[kind] for kind in KINDS},
    }


def slowdown(interval: dict, kind: str) -> float:
    """Mean probe time of one kind over the interval, in units of its nominal."""
    count = interval["probes"][kind]
    if not count:
        return 1.0
    return interval["probe_seconds"][kind] / count / NOMINAL_S[kind]


def calibrated(interval: dict, kind: str) -> float:
    """An interval's seconds at the nominal host speed, by one probe kind.

    With no probe of that kind in the interval (probes off, or shorter than
    the probe period) the raw seconds are returned.
    """
    return interval["seconds"] / slowdown(interval, kind)
