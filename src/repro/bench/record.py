"""On-disk ``BENCH_<date>.json`` records: one locked writer, stable keys.

Several CI jobs may merge into the same day's record.  A plain
read-modify-write loses keys when two of them interleave (both read the
same "before" state, last writer wins), so :func:`merge_bench_record` is
the single writer: it takes an exclusive lock on ``<path>.lock`` for the
whole read-merge-write cycle and replaces the file atomically, so
concurrent writers serialize and every key survives.

Record layout (``RECORD_SCHEMA_VERSION``)::

    {
      "schema": 1,
      "profile": "smoke" | "full" | "custom",
      "environment": {"python": ..., "numpy": ..., "cpu_count": ..., ...},
      "benches": {"<spec key>": {"scenario": ..., "metrics": ..., ...}}
    }

The environment fingerprint is what lets ``repro bench --check`` distinguish
a real throughput regression from a different machine: noisy metrics are
gated only when the baseline fingerprint matches.
"""

from __future__ import annotations

import datetime
import errno
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "environment_fingerprint",
    "default_record_path",
    "merge_bench_record",
    "load_record",
    "find_baseline",
]

RECORD_SCHEMA_VERSION = 1

#: How long a concurrent writer waits for the lock before giving up.
_LOCK_TIMEOUT_SECONDS = 30.0


def environment_fingerprint() -> Dict[str, object]:
    """What the machine looked like when the record was measured."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def default_record_path(directory: Union[str, Path] = ".") -> Path:
    """``<directory>/BENCH_<today>.json`` — the day's merge target."""
    name = "BENCH_%s.json" % datetime.date.today().isoformat()
    return Path(directory) / name


class _FileLock:
    """Exclusive advisory lock on ``<path>.lock`` for the merge cycle.

    Uses ``flock`` where available (waiters block in the kernel, stale locks
    vanish with their process); elsewhere falls back to an ``O_EXCL``
    spin-lock file.
    """

    def __init__(self, path: Path) -> None:
        self.lock_path = Path(str(path) + ".lock")
        self._fd: Optional[int] = None

    def __enter__(self) -> "_FileLock":
        deadline = time.monotonic() + _LOCK_TIMEOUT_SECONDS
        if fcntl is not None:
            self._fd = os.open(str(self.lock_path), os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            return self
        while True:  # pragma: no cover - exercised only without fcntl
            try:
                self._fd = os.open(
                    str(self.lock_path), os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                )
                return self
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "could not lock %s within %.0fs"
                        % (self.lock_path, _LOCK_TIMEOUT_SECONDS)
                    )
                time.sleep(0.01)

    def __exit__(self, *exc_info) -> None:
        if self._fd is not None:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
                os.close(self._fd)
            else:  # pragma: no cover
                os.close(self._fd)
                try:
                    os.unlink(str(self.lock_path))
                except OSError:
                    pass
            self._fd = None


def _empty_record() -> Dict[str, object]:
    return {
        "schema": RECORD_SCHEMA_VERSION,
        "profile": "custom",
        "environment": environment_fingerprint(),
        "benches": {},
    }


def load_record(path: Union[str, Path]) -> Dict[str, object]:
    """Parse a record, upgrading pre-registry layouts to the current schema.

    Records written before the bench registry existed put the engine
    measurement at the top level and nested the server record under
    ``"server"``; fold both under ``benches`` so old baselines stay
    comparable.
    """
    payload = json.loads(Path(path).read_text())
    if "benches" in payload:
        payload.setdefault("schema", RECORD_SCHEMA_VERSION)
        payload.setdefault("profile", "custom")
        payload.setdefault("environment", {})
        return payload
    upgraded = _empty_record()
    upgraded["environment"] = {
        "python": payload.get("python"),
        "machine": payload.get("machine"),
    }
    if "engines" in payload:
        engines = payload["engines"]
        upgraded["benches"]["engines"] = {
            "scenario": payload.get("scenario", {}),
            "metrics": {
                "reference_accesses_per_second":
                    engines["reference"]["accesses_per_second"],
                "batch_accesses_per_second":
                    engines["batch"]["accesses_per_second"],
                "speedup": payload.get("speedup", 0.0),
                "parity_exact": 1.0 if payload.get("parity") == "exact" else 0.0,
            },
        }
    if "server" in payload:
        server = payload["server"]
        upgraded["benches"]["server"] = {
            "scenario": server.get("scenario", {}),
            "metrics": {
                "submissions_per_second": server["submissions_per_second"],
                "warm_e2e_seconds": server["warm_e2e_seconds"],
                "transport_overhead_seconds": server["transport_overhead_seconds"],
                "result_parity":
                    1.0 if server.get("result_parity") == "byte-identical" else 0.0,
            },
        }
    return upgraded


def merge_bench_record(
    path: Union[str, Path],
    entries: Dict[str, Dict[str, object]],
    profile: str = "custom",
    environment: Optional[Dict[str, object]] = None,
    observability: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Merge ``entries`` into the record at ``path`` under a file lock.

    Existing keys not in ``entries`` are preserved; the whole
    read-merge-write cycle holds the lock, and the final write is an atomic
    rename, so concurrent merges (two CI jobs, two benchmark scripts)
    serialize instead of clobbering each other.  Returns the merged record.

    ``observability`` (a :meth:`repro.obs.MetricsRegistry.summary` dict)
    is stored verbatim under the record's ``"observability"`` key when the
    run had metrics enabled; it is informational, never gated.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _FileLock(path):
        if path.exists():
            try:
                record = load_record(path)
            except (ValueError, KeyError):
                record = _empty_record()
        else:
            record = _empty_record()
        record["schema"] = RECORD_SCHEMA_VERSION
        record["profile"] = profile
        record["environment"] = environment or environment_fingerprint()
        if observability:
            record["observability"] = observability
        benches = dict(record.get("benches") or {})
        benches.update(entries)
        record["benches"] = benches
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, str(path))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    return record


def find_baseline(exclude: Optional[Union[str, Path]] = None) -> Optional[Path]:
    """The newest committed ``BENCH_*.json`` to compare against.

    Looks in ``benchmarks/`` under the working directory (the committed
    baseline in a repo checkout); ``exclude`` drops this run's own output
    so a same-day run never gates against itself.  Newest by filename —
    the date is the name.
    """
    candidates = list(Path("benchmarks").glob("BENCH_*.json"))
    if exclude is not None:
        excluded = Path(exclude).resolve()
        candidates = [c for c in candidates if c.resolve() != excluded]
    if not candidates:
        return None
    return max(candidates, key=lambda c: c.name)
