"""The repo benchmark: reproduce, sim-batch, sim-reference and fuzz workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30        # every workload

``--trace 0`` (a timed run) starts fresh single-threaded worker processes one
after another while ``--seconds`` lasts (at least ``MIN_WORKERS``); each sets
up the workload, times its call once, then repeats it while its share of
``--seconds`` lasts.  Times are calibrated by the host-speed probe
(``probe.py``).  It prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` (the traced run) starts a plain worker, a worker under cProfile
with a ``repro.obs`` tracer, and a microbench worker, and prints the
per-layer metrics.  Human-readable lines come first; the last stdout line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("reproduce", "sim-batch", "sim-reference", "fuzz")
#: Seeds used when --seed is not given; the held-out seed is 97 (README.md).
DEFAULT_SEEDS = {"reproduce": 1, "sim-batch": 1, "sim-reference": 1, "fuzz": 7}
#: A timed run aims at this many fresh workers, and starts at least
#: MIN_WORKERS: setup_s and call_s are medians over them.
TARGET_WORKERS = 8
MIN_WORKERS = 2
#: A run must end within this many seconds; no worker may outlive it.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure; the run exits non-zero, no result."""


def worker_env(root: Path, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(workdir)
    # Single-threaded host: no BLAS or OpenMP thread pools behind numpy.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(mode, workload, seed, root, workdir, deadline, budget=0.0) -> dict:
    """Start one fresh worker, wait for it, return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a %s worker" % mode)
    command = [
        sys.executable, str(WORKER), mode, workload, str(seed),
        str(workdir / workload), repr(time.time()), repr(budget),
    ]
    try:
        proc = subprocess.run(
            command, cwd=str(root), env=worker_env(root, workdir),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker for %s timed out" % (mode, workload))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("%s worker for %s exited %d" % (mode, workload, proc.returncode))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s worker for %s printed no result" % (mode, workload))
    return json.loads(lines[-1])


def ops(result) -> tuple:
    calls = [call for phase in result["calls"].values() for call in phase]
    attempted = sum(call["attempted"] for call in calls)
    failed = sum(call["failed"] for call in calls) + result["finish"]["failed"]
    return attempted, failed


def show(name, value, unit, note="") -> None:
    print("%-34s %14.6g %-12s %s" % (name, value, unit, note))


def timed_run(args, root, workdir, deadline) -> dict:
    results = []
    started = time.monotonic()
    while True:
        begun = time.monotonic()
        results.append(run_worker("timed", args.workload, args.seed, root, workdir, deadline,
                                  budget=args.seconds / TARGET_WORKERS))
        took = time.monotonic() - begun
        # Start another worker only if it should end within --seconds.
        if len(results) >= MIN_WORKERS and time.monotonic() - started + took > args.seconds:
            break

    median = statistics.median
    phases = {
        phase: [c for r in results for c in r["calls"][phase]] for phase in ("call", "repeat")
    }
    values = {
        "setup_s": median([r["setup"]["calibrated"] for r in results]),
        "call_s": median([c["calibrated"] for c in phases["call"]]),
        "repeat_s": median([c["calibrated"] for c in phases["repeat"]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }
    slowdown = {
        kind: median([probe.slowdown(c, kind) for calls in phases.values() for c in calls])
        for kind in probe.KINDS
    }
    attempted = sum(ops(r)[0] for r in results)
    failed = sum(ops(r)[1] for r in results)
    digests = {r["finish"]["digest"] for r in results}

    print("workload %s, seed %d: %d fresh worker process(es); host slowdown %s"
          % (args.workload, args.seed, len(results),
             ", ".join("%s x%.2f" % item for item in slowdown.items())))
    show("setup_s", values["setup_s"], "s", "median: imports + input generation")
    names = {
        "call": "reproduce_cold_s" if args.workload == "reproduce" else "call_s",
        "repeat": "reproduce_warm_s" if args.workload == "reproduce" else "repeat_s",
    }
    for phase, calls in phases.items():
        show(names[phase], values[phase + "_s"], "s", "median of %d calls; raw median %.4g s"
             % (len(calls), median([c["seconds"] for c in calls])))
    calls = phases["call"] + phases["repeat"]
    if args.workload.startswith("sim-"):
        rate = sum(c["accesses"] for c in calls) / sum(c["sim_seconds"] for c in calls)
        show("sim_accesses_per_s", rate, "accesses/s", "over all run_simulation calls")
    if args.workload == "fuzz":
        rate = sum(c["scenarios"] for c in calls) / sum(c["seconds"] for c in calls)
        show("fuzz_scenarios_per_s", rate, "scenarios/s", "budget / FuzzCampaign.run() time")
    show("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of a worker")
    show("error_rate", failed / attempted, "ratio", "%d failed of %d ops" % (failed, attempted))
    for note in results[0]["finish"]["notes"]:
        print("  " + note)
    print("digest sha256 %s" % ", ".join(sorted(digests)))
    if len(digests) != 1:
        print("  workers with one seed disagree on the result digest")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "values": values,
    }


def traced_run(args, root, workdir, deadline) -> dict:
    plain = run_worker("timed", args.workload, args.seed, root, workdir, deadline)
    traced = run_worker("traced", args.workload, args.seed, root, workdir, deadline)
    micro = run_worker("microbench", args.workload, args.seed, root, workdir, deadline)

    def wall(result):
        return sum(phase[0]["seconds"] for phase in result["calls"].values())

    values = dict(traced["ledger"])
    values.update(traced["finish"]["exact"])
    # Host rates come from the plain worker: the profiler inflates them.
    values.update(plain["finish"]["pair_rates"])
    values.update(micro["microbench"])
    values["obs.trace_overhead"] = wall(traced) / wall(plain)

    attempted = ops(plain)[0] + ops(traced)[0]
    failed = ops(plain)[1] + ops(traced)[1]
    digests = {plain["finish"]["digest"], traced["finish"]["digest"]}
    print("workload %s, seed %d: traced run (cProfile + obs tracer) vs a plain run"
          % (args.workload, args.seed))
    for note in traced["finish"]["notes"]:
        print("  " + note)
    print("digest sha256 %s" % ", ".join(sorted(digests)))
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="one workload, or 'all' to run each in turn",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed (default: %s)" % ", ".join("%s=%d" % kv for kv in DEFAULT_SEEDS.items()),
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout root holding BENCHMARK.json and src/repro",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # Build: byte-compile the sources once so no worker's set-up pays for it.
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        print("perfbench: src/ does not compile", file=sys.stderr)
        return 2

    workdir = root / ".perfbench"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    run = traced_run if args.trace else timed_run
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            one = argparse.Namespace(**vars(args))
            one.workload = name
            if one.seed is None:
                one.seed = DEFAULT_SEEDS[name]
            # Each workload gets the whole per-run deadline.
            outcomes[name] = run(one, root, workdir, time.monotonic() + RUN_DEADLINE_S)
            print()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, outcome in outcomes.items():
        # A single workload's metrics keep their names; 'all' prefixes them.
        prefix = "" if len(outcomes) == 1 else name + "."
        if args.trace:
            print("%s per-layer metrics" % name)
            for metric in declared:
                print("  %-42s %16.6g  %s" % (
                    metric["name"], outcome["values"][metric["name"]], metric["unit"]))
        for metric in declared:
            metrics[prefix + metric["name"]] = {
                "value": outcome["values"][metric["name"]], "unit": metric["unit"],
            }
    print(json.dumps({
        "correct": all(outcome["correct"] for outcome in outcomes.values()),
        "attempted": sum(outcome["attempted"] for outcome in outcomes.values()),
        "failed": sum(outcome["failed"] for outcome in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
