"""The registered benchmark specs.

Each measures what no figure covers: raw engine throughput (``engines``),
streamed-trace throughput (``trace_streaming``), the observability
overhead guard (``obs``), the HTTP service's transport overhead
(``server``), and the security-property fuzz battery's detection and
false-alarm rates (``fuzz``).  Figures are built and trend-checked by
``repro reproduce --strict`` alone.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict

from repro.bench.registry import register_bench
from repro.bench.spec import BenchContext, BenchSpec, MetricSpec

__all__ = []  # everything is reached through the registry

_TIMING_CONFIGURATION = "secddr_ctr"
_TIMING_WORKLOAD = "mcf"
_TIMING_CORES = 2


# ----------------------------------------------------------------------
# Fuzz battery: detection/false-alarm rates as tracked metrics.
def _run_fuzz(ctx: BenchContext) -> Dict[str, float]:
    from repro.fuzz import FuzzCampaign, FuzzOutcome

    campaign = FuzzCampaign(
        seed=ctx.fuzz_seed,
        budget=ctx.fuzz_budget,
        jobs=ctx.jobs,
        cache=ctx.cache,
    )
    report = campaign.run()
    ctx.extra_simulated += report.executed_jobs
    ctx.extra_cached += report.cached_jobs
    detected = missed = 0
    for result in report.results["secddr"]:
        if result.outcome == FuzzOutcome.DETECTED:
            detected += 1
        elif result.outcome == FuzzOutcome.MISSED:
            missed += 1
    benign = report.benign_summary()["secddr"]
    return {
        "detection_rate": detected / max(detected + missed, 1),
        "false_alarms": float(benign["false_alarm"]),
        "oracle_violations": float(len(report.violations())),
        "scenarios": float(len(report.scenarios)),
    }


register_bench(BenchSpec(
    key="fuzz",
    title="Security-property fuzz battery",
    description="Seeded tamper-fuzz campaign over the functional profiles; "
    "SecDDR detection rate, false alarms, and oracle violations.",
    metrics=(
        MetricSpec("detection_rate", unit="fraction", max_regression=0.0),
        MetricSpec("false_alarms", unit="scenarios", higher_is_better=False,
                   max_regression=0.0),
        MetricSpec("oracle_violations", unit="scenarios", higher_is_better=False,
                   max_regression=0.0),
        MetricSpec("scenarios", unit="scenarios"),
    ),
    run=_run_fuzz,
))


# ----------------------------------------------------------------------
# Raw-throughput benches (timed directly; the cache cannot time a hit).
def _best_of(fn, rounds: int):
    best = float("inf")
    value = None
    for _ in range(max(rounds, 1)):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _streamed_timing_trace(directory: Path, accesses: int):
    from repro.traces import load_trace, save_trace
    from repro.workloads.registry import build_workload

    trace = build_workload(_TIMING_WORKLOAD, num_accesses=accesses, seed=1)
    store = save_trace(trace, directory / ("%s.trace" % _TIMING_WORKLOAD))
    return trace, load_trace(store.path)


def _parity(reference, other) -> float:
    same = (
        other.total_ipc == reference.total_ipc
        and other.memory_stats == reference.memory_stats
    )
    return 1.0 if same else 0.0


def _run_engines(ctx: BenchContext) -> Dict[str, float]:
    from repro.sim.experiment import ExperimentConfig, run_simulation

    accesses = ctx.timing_accesses
    experiment = ExperimentConfig(num_accesses=accesses, num_cores=_TIMING_CORES)
    with tempfile.TemporaryDirectory(prefix="repro-bench-engines-") as tmp:
        _, streamed = _streamed_timing_trace(Path(tmp), accesses)
        reference_seconds, reference = _best_of(
            lambda: run_simulation(
                streamed, _TIMING_CONFIGURATION, experiment, engine="reference"
            ),
            ctx.rounds,
        )
        batch_seconds, batch = _best_of(
            lambda: run_simulation(
                streamed, _TIMING_CONFIGURATION, experiment, engine="batch"
            ),
            ctx.rounds,
        )
    return {
        "reference_accesses_per_second": round(accesses / reference_seconds, 1),
        "batch_accesses_per_second": round(accesses / batch_seconds, 1),
        "speedup": round(reference_seconds / batch_seconds, 2),
        "parity_exact": _parity(reference, batch),
    }


register_bench(BenchSpec(
    key="engines",
    title="Batch vs reference engine throughput",
    description="Streamed-trace accesses/sec per engine plus the "
    "batch/reference speedup; parity asserted as a gated metric.",
    metrics=(
        MetricSpec("reference_accesses_per_second", unit="acc/s", noisy=True),
        MetricSpec("batch_accesses_per_second", unit="acc/s",
                   max_regression=0.10, noisy=True),
        MetricSpec("speedup", unit="x", noisy=True),
        MetricSpec("parity_exact", unit="bool", max_regression=0.0),
    ),
    run=_run_engines,
))


def _run_trace_streaming(ctx: BenchContext) -> Dict[str, float]:
    from repro.sim.experiment import ExperimentConfig, run_simulation

    accesses = ctx.timing_accesses
    experiment = ExperimentConfig(num_accesses=accesses, num_cores=_TIMING_CORES)
    with tempfile.TemporaryDirectory(prefix="repro-bench-traces-") as tmp:
        in_memory, streamed = _streamed_timing_trace(Path(tmp), accesses)
        # The object model's two trace cursors (record list vs chunked store).
        memory_seconds, reference = _best_of(
            lambda: run_simulation(
                in_memory, _TIMING_CONFIGURATION, experiment, engine="reference"
            ),
            ctx.rounds,
        )
        streamed_seconds, streamed_result = _best_of(
            lambda: run_simulation(
                streamed, _TIMING_CONFIGURATION, experiment, engine="reference"
            ),
            ctx.rounds,
        )
    return {
        "in_memory_accesses_per_second": round(accesses / memory_seconds, 1),
        "streamed_accesses_per_second": round(accesses / streamed_seconds, 1),
        "streamed_vs_memory": round(memory_seconds / streamed_seconds, 3),
        "parity_exact": _parity(reference, streamed_result),
    }


register_bench(BenchSpec(
    key="trace_streaming",
    title="Streamed vs in-memory trace throughput",
    description="run_simulation accesses/sec over a materialized trace vs "
    "the chunked on-disk streaming path, with parity gated.",
    metrics=(
        MetricSpec("in_memory_accesses_per_second", unit="acc/s", noisy=True),
        MetricSpec("streamed_accesses_per_second", unit="acc/s",
                   max_regression=0.10, noisy=True),
        MetricSpec("streamed_vs_memory", unit="x", noisy=True),
        MetricSpec("parity_exact", unit="bool", max_regression=0.0),
    ),
    run=_run_trace_streaming,
))


def _run_server(ctx: BenchContext) -> Dict[str, float]:
    import threading

    from repro.server import Client, dump_payload, make_server
    from repro.server.service import ExperimentService
    from repro.sim.experiment import ExperimentConfig, run_comparison
    from repro.sim.runner import ResultCache

    configurations = ["secddr_ctr", "integrity_tree_64"]
    workloads = ["gcc", "mcf"]
    experiment = ExperimentConfig(num_accesses=ctx.server_accesses, num_cores=1)
    spec = {
        "kind": "compare",
        "configurations": configurations,
        "workloads": workloads,
        "experiment": {"num_accesses": ctx.server_accesses, "num_cores": 1},
    }

    with tempfile.TemporaryDirectory(prefix="repro-bench-server-") as tmp:
        workdir = Path(tmp)
        cache = ResultCache(workdir / "cache")

        def direct():
            return run_comparison(
                configurations=configurations,
                workloads=workloads,
                experiment=experiment,
                cache=cache,
            )

        service = ExperimentService(workdir / "service", jobs=1, cache=cache)
        service.start(recover=False)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = Client("http://%s:%d" % server.server_address[:2])
        try:
            # Warm the shared cache once; every timed pass below is all-hits.
            expected = dump_payload(direct().to_payload())

            def server_pass():
                job = client.submit(spec)
                client.wait(job["id"])
                return client.result_bytes(job["id"])

            warm_direct, _ = _best_of(
                lambda: dump_payload(direct().to_payload()), ctx.rounds
            )
            warm_server, served = _best_of(server_pass, ctx.rounds)
            parity = 1.0 if served == expected else 0.0

            started = time.perf_counter()
            ids = [client.submit(spec)["id"] for _ in range(ctx.server_submissions)]
            submit_seconds = time.perf_counter() - started
            for job_id in ids:
                client.wait(job_id)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.stop()

    return {
        "submissions_per_second": round(ctx.server_submissions / submit_seconds, 1),
        "warm_e2e_seconds": round(warm_server, 4),
        "transport_overhead_seconds": round(warm_server - warm_direct, 4),
        "result_parity": parity,
    }


def _run_obs(ctx: BenchContext) -> Dict[str, float]:
    from repro import obs
    from repro.sim.experiment import ExperimentConfig
    from repro.sim.runner import ParallelRunner, ResultCache, SimulationJob

    accesses = ctx.timing_accesses
    experiment = ExperimentConfig(num_accesses=accesses, num_cores=_TIMING_CORES)
    # Pinned to the reference engine: its "no recorder costs one is-None
    # check" contract is what this guard has always measured.
    job = SimulationJob(
        configuration=_TIMING_CONFIGURATION,
        workload=_TIMING_WORKLOAD,
        experiment=experiment,
        engine="reference",
    )

    def cold_pass():
        # Fresh cache per pass so every timed pass actually simulates; the
        # instrumented run path (runner + cache + engine spans) is what is
        # being timed, not a cache hit.
        with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
            runner = ParallelRunner(jobs=1, cache=ResultCache(tmp))
            return runner.run([job])[0]

    def timed(observation):
        with obs.observing(observation):
            return _best_of(cold_pass, ctx.rounds)

    off_seconds, off_result = timed(obs.Observation())
    on_seconds, on_result = timed(
        obs.Observation(registry=obs.MetricsRegistry(), tracer=obs.Tracer())
    )
    # Third pass: windowed timeline recording with metrics and tracing off.
    # Gated for parity (byte-identical results) and tracked for overhead.
    recorder = obs.TimelineRecorder()
    timeline_seconds, timeline_result = timed(obs.Observation(timeline=recorder))

    return {
        "off_accesses_per_second": round(accesses / off_seconds, 1),
        "on_accesses_per_second": round(accesses / on_seconds, 1),
        "overhead_ratio": round(on_seconds / off_seconds, 4),
        "parity_exact": _parity(off_result, on_result),
        "timeline_accesses_per_second": round(accesses / timeline_seconds, 1),
        "timeline_overhead_ratio": round(timeline_seconds / off_seconds, 4),
        "timeline_parity_exact": _parity(off_result, timeline_result)
        if recorder.sample_count > 0 else 0.0,
    }


register_bench(BenchSpec(
    key="obs",
    title="Observability overhead guard",
    description="Cold single-job runner passes with metrics+tracing off vs "
    "on vs timeline-recording; gates the on/off overhead ratio and result "
    "parity so the zero-overhead-when-off contract stays honest.",
    metrics=(
        MetricSpec("off_accesses_per_second", unit="acc/s", noisy=True),
        MetricSpec("on_accesses_per_second", unit="acc/s", noisy=True),
        MetricSpec("overhead_ratio", unit="x", higher_is_better=False,
                   max_regression=0.25, noisy=True),
        MetricSpec("parity_exact", unit="bool", max_regression=0.0),
        MetricSpec("timeline_accesses_per_second", unit="acc/s", noisy=True),
        MetricSpec("timeline_overhead_ratio", unit="x",
                   higher_is_better=False, noisy=True),
        MetricSpec("timeline_parity_exact", unit="bool", max_regression=0.0),
    ),
    run=_run_obs,
))


register_bench(BenchSpec(
    key="server",
    title="HTTP service transport overhead",
    description="Submission throughput and warm end-to-end latency of the "
    "experiment service vs direct dispatch on the same warm cache; "
    "byte-parity of served results gated.",
    metrics=(
        MetricSpec("submissions_per_second", unit="req/s",
                   max_regression=0.10, noisy=True),
        MetricSpec("warm_e2e_seconds", unit="s", higher_is_better=False,
                   noisy=True),
        MetricSpec("transport_overhead_seconds", unit="s",
                   higher_is_better=False, noisy=True),
        MetricSpec("result_parity", unit="bool", max_regression=0.0),
    ),
    run=_run_server,
))
