"""The registered benchmark specs — one per ``benchmarks/bench_*.py``.

Twelve benches are figure-backed: they run their figure's job matrix
through the shared runner/cache (identical cache keys to ``repro
reproduce``) and report trend verdicts plus warm-cache build time.  The
remaining four measure what no figure covers: raw engine throughput
(``engines``), streamed-trace throughput (``trace_streaming``), the HTTP
service's transport overhead (``server``), and the security-property fuzz
battery's detection/false-alarm rates (``fuzz``).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.bench.registry import register_bench
from repro.bench.spec import BenchContext, BenchSpec, MetricSpec

__all__ = []  # everything is reached through the registry

_TIMING_CONFIGURATION = "secddr_ctr"
_TIMING_WORKLOAD = "mcf"
_TIMING_CORES = 2


# ----------------------------------------------------------------------
# Figure-backed benches
_FIGURE_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("trends_passed", unit="trends", max_regression=0.0),
    MetricSpec("trends_total", unit="trends", max_regression=0.0),
    MetricSpec("unique_jobs", unit="jobs"),
    MetricSpec("build_seconds", unit="s", higher_is_better=False, noisy=True),
)


def _run_figure(figure_key: str, extra=None) -> Callable[[BenchContext], Dict[str, float]]:
    def run(ctx: BenchContext) -> Dict[str, float]:
        from repro.figures import get_figure
        from repro.figures.pipeline import collect_jobs
        from repro.sim.runner import ParallelRunner

        fctx = ctx.figure_context()
        spec = get_figure(figure_key)
        jobs = collect_jobs([spec], fctx)
        if jobs:
            runner = ParallelRunner(
                jobs=ctx.jobs, cache=fctx.cache, progress=ctx.progress
            )
            runner.run(jobs)
        started = time.perf_counter()
        artifact = spec.build(fctx)
        build_seconds = time.perf_counter() - started
        metrics = {
            "trends_passed": float(len(artifact.trends) - len(artifact.failed_trends)),
            "trends_total": float(len(artifact.trends)),
            "unique_jobs": float(len(jobs)),
            "build_seconds": round(build_seconds, 4),
        }
        if extra is not None:
            metrics.update(extra(artifact))
        return metrics

    return run


def _figure_bench(
    key: str,
    source: str,
    title: str,
    description: str,
    figure: Optional[str] = None,
    extra_metrics: Tuple[MetricSpec, ...] = (),
    extra=None,
) -> BenchSpec:
    return register_bench(BenchSpec(
        key=key,
        title=title,
        description=description,
        source=source,
        metrics=_FIGURE_METRICS + extra_metrics,
        run=_run_figure(figure or key, extra=extra),
        figure=figure or key,
    ))


_figure_bench(
    "table1", "bench_table1_config.py",
    "Table I configuration registry",
    "Registered-configuration census and Table I parameters (no simulation).",
)
_figure_bench(
    "table2", "bench_table2_power.py",
    "Table II area/power model",
    "SecDDR area arithmetic from the paper's component table (no simulation).",
)
_figure_bench(
    "fig6", "bench_fig6_performance.py",
    "Figure 6 normalized performance",
    "Normalized IPC of every mechanism over the workload set.",
)
_figure_bench(
    "fig7", "bench_fig7_metadata_cache.py",
    "Figure 7 metadata-cache sweep",
    "Integrity-tree metadata-cache sensitivity sweep.",
)
_figure_bench(
    "fig8", "bench_fig8_arity.py",
    "Figure 8 tree-arity sweep",
    "Integrity-tree arity sensitivity sweep.",
)
_figure_bench(
    "fig10", "bench_fig10_invisimem_xts.py",
    "Figure 10 InvisiMem (XTS)",
    "SecDDR vs InvisiMem under XTS encryption, normalized IPC.",
)
_figure_bench(
    "fig12", "bench_fig12_invisimem_ctr.py",
    "Figure 12 InvisiMem (CTR)",
    "SecDDR vs InvisiMem under counter-mode encryption, normalized IPC.",
)
_figure_bench(
    "attacks", "bench_attack_detection.py",
    "Attack-detection matrix",
    "The standard attack campaign against the functional SecDDR model; "
    "tracks the SecDDR detection rate on top of the trend verdicts.",
    extra_metrics=(
        MetricSpec("detection_rate", unit="fraction", max_regression=0.0),
    ),
    extra=lambda artifact: {
        "detection_rate": (
            artifact.summary["secddr_detected"]
            / max(artifact.summary["secddr_attacks_total"], 1.0)
        ),
    },
)
_figure_bench(
    "security", "bench_security_analysis.py",
    "Section III security arithmetic",
    "Collision/replay-window arithmetic from Section III (no simulation).",
)
_figure_bench(
    "scalability", "bench_scalability.py",
    "Scalability sweep",
    "Simulation cost scaling across budgets (figure-backed sweep).",
)
_figure_bench(
    "ablation_cache", "bench_ablation_metadata_cache.py",
    "Metadata-cache ablation",
    "Fixed-workload metadata-cache ablation.",
)
_figure_bench(
    "ablation_burst", "bench_ablation_write_burst.py",
    "Write-burst ablation",
    "Fixed-workload write-burst ablation.",
)


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
    source="bench_fuzz_campaign.py",
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
    source="bench_engines.py",
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
    source="bench_trace_streaming.py",
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

    off_seconds, off_result = _best_of(cold_pass, ctx.rounds)

    previous_registry = obs.set_registry(obs.MetricsRegistry())
    previous_tracer = obs.set_tracer(obs.Tracer())
    try:
        on_seconds, on_result = _best_of(cold_pass, ctx.rounds)
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_registry(previous_registry)

    # Third pass: windowed timeline recording on top of metrics+tracing off.
    # Gated for parity (byte-identical results) and tracked for overhead.
    previous_timeline = obs.set_timeline(obs.TimelineRecorder())
    try:
        timeline_seconds, timeline_result = _best_of(cold_pass, ctx.rounds)
        timeline_samples = obs.current_timeline().sample_count
    finally:
        obs.set_timeline(previous_timeline)

    return {
        "off_accesses_per_second": round(accesses / off_seconds, 1),
        "on_accesses_per_second": round(accesses / on_seconds, 1),
        "overhead_ratio": round(on_seconds / off_seconds, 4),
        "parity_exact": _parity(off_result, on_result),
        "timeline_accesses_per_second": round(accesses / timeline_seconds, 1),
        "timeline_overhead_ratio": round(timeline_seconds / off_seconds, 4),
        "timeline_parity_exact": _parity(off_result, timeline_result)
        if timeline_samples > 0 else 0.0,
    }


register_bench(BenchSpec(
    key="obs",
    title="Observability overhead guard",
    description="Cold single-job runner passes with metrics+tracing off vs "
    "on vs timeline-recording; gates the on/off overhead ratio and result "
    "parity so the zero-overhead-when-off contract stays honest.",
    source="bench_obs_overhead.py",
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
    source="bench_server.py",
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
