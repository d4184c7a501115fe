"""Command-line interface for the SecDDR reproduction.

Gives downstream users a way to drive the main experiments without writing
Python.  The authoritative list of subcommands (with one-line descriptions)
is generated from the parser itself -- see :func:`command_summaries`, which
``repro --help`` renders as its epilog and the docs/README tests check
against -- so the CLI, the README, and ``docs/`` cannot drift apart.

The headline subcommand is ``reproduce``: one deduplicated, cached,
parallel pass over every registered figure/table of the paper::

    python -m repro.cli reproduce --out artifact            # everything
    python -m repro.cli reproduce --figures fig6,table2 -j 4
    python -m repro.cli reproduce --figures fig6 --smoke    # tiny CI budget

which writes per-figure CSV/JSON plus a combined ``REPORT.md`` under
``--out``.  The remaining subcommands drive individual experiments::

    python -m repro.cli compare -w pr,mcf -c integrity_tree_64,secddr_xts
    python -m repro.cli compare --set tree_arity=32 --set counters_per_line=32
    python -m repro.cli sweep --arities 8,32,64    # Figure 8 sweeps (any arity)

``--set key=value`` derives unnamed configuration variants on the fly —
they run through the parallel runner, the result cache, and baseline
normalization exactly like registered configurations do.  ``--seed`` (default
1, the documented trace seed) seeds the workload generators, so stochastic
traces are reproducible end to end.

Captured address streams are first-class workloads through the trace
subsystem (``repro.traces``)::

    python -m repro.cli trace import capture.csv mcf.trace --format dramsim
    python -m repro.cli trace info mcf.trace
    python -m repro.cli trace mix mix.trace mcf.trace pr.trace --quantum 256
    python -m repro.cli compare -w mcf.trace -c secddr_ctr,integrity_tree_64

``compare`` accepts on-disk trace stores wherever a workload name is
accepted; they stream chunk-by-chunk through the simulator in bounded
memory and cache by their content hash.

The security claims have their own generative check::

    python -m repro.cli fuzz --seed 7 --budget 200 -j 4 --corpus fuzz-corpus

which generates seeded adversarial scenarios (random traces composed with
random tamper programs), judges them against the security oracles, prints
the detection matrix, and writes a JSONL corpus plus artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs

from repro.errors import (
    AmbiguousConfigurationError,
    RegistryLookupError,
)
from repro.figures import FIGURES, figure_names, write_artifacts
from repro.figures import reproduce as reproduce_figures
from repro.overrides import OverrideError, derived_configurations, parse_overrides
from repro.secure.configs import (
    CONFIGURATIONS,
    configuration_names,
)
from repro.sim.engines import ENGINES, BatchEngineUnsupported, resolve_engine
from repro.sim.experiment import ExperimentConfig, run_comparison
from repro.sim.runner import JobEvent, ProgressHook, ResultCache
from repro.sim.sweep import arity_sweep, counter_packing_sweep
from repro.workloads.registry import ALL_WORKLOADS, workload_names

__all__ = ["build_parser", "command_summaries", "main"]

#: Budget used by ``reproduce --smoke`` (tiny traces, single core, three
#: representative workloads): small enough for CI, large enough to exercise
#: the full pipeline including cache warm-up.
SMOKE_ACCESSES = 240
SMOKE_CORES = 1
SMOKE_WORKLOADS = "mcf,pr,gcc"

#: The documented default workload-generator seed.  It matches
#: ``ExperimentConfig.seed``, so the CLI default and the library default can
#: never disagree.
DEFAULT_TRACE_SEED = ExperimentConfig().seed


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the CLI.

    The epilog (the per-command summary table) is generated from the
    subparsers themselves, so ``repro --help``, the README, and the docs all
    describe the same command set -- see :func:`command_summaries`.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SecDDR reproduction: experiments, attacks, and analytical models.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--log-level", default=None, choices=list(obs.log.LEVELS),
        help="stderr log level (default: warning; --verbose implies info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as one JSON object per line instead of plain text",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="print the configuration, workload, and figure registries as tables"
    )
    list_parser.add_argument(
        "--json", action="store_true",
        help="print every registry as one JSON document (the same serializer "
        "the experiment service's GET /registries uses)",
    )

    compare = subparsers.add_parser(
        "compare", help="simulate configurations over workloads and print normalized IPC"
    )
    compare.add_argument(
        "-c", "--configurations",
        default="integrity_tree_64,secddr_ctr,encrypt_only_ctr,secddr_xts,encrypt_only_xts",
        help="comma-separated configuration names (default: the Figure 6 set)",
    )
    compare.add_argument(
        "-w", "--workloads",
        default="mcf,pr,lbm,gcc",
        help="comma-separated workload names and/or on-disk trace-store "
        "paths (stores stream chunk-by-chunk in bounded memory)",
    )
    compare.add_argument("-b", "--baseline", default="tdx_baseline", help="normalization baseline")
    compare.add_argument(
        "-a", "--accesses", type=int, default=1500,
        help="LLC accesses per *generated* trace; trace stores always stream "
        "their full recorded length (pre-truncate with 'repro trace' "
        "transforms if you want less)",
    )
    compare.add_argument("-n", "--cores", type=int, default=2, help="number of simulated cores")
    _add_seed_argument(compare)
    _add_set_argument(compare)
    _add_engine_argument(compare)
    _add_trace_argument(compare)
    _add_timeline_arguments(compare)
    _add_runner_arguments(compare)

    sweep = subparsers.add_parser(
        "sweep", help="run the Figure 8 arity and counter-packing sweeps"
    )
    sweep.add_argument(
        "-w", "--workloads",
        default="",
        help="comma-separated workload names (default: the memory-intensive subset)",
    )
    sweep.add_argument(
        "--arities", default="8,64,128",
        help="comma-separated tree arities / counter packings (any integer >= 2; "
        "non-canonical values derive their configurations on the fly)",
    )
    sweep.add_argument("-b", "--baseline", default="tdx_baseline", help="normalization baseline")
    sweep.add_argument("-a", "--accesses", type=int, default=1500, help="LLC accesses per trace")
    sweep.add_argument("-n", "--cores", type=int, default=2, help="number of simulated cores")
    _add_seed_argument(sweep)
    _add_set_argument(sweep)
    _add_engine_argument(sweep)
    _add_trace_argument(sweep)
    _add_timeline_arguments(sweep)
    _add_runner_arguments(sweep)

    reproduce = subparsers.add_parser(
        "reproduce",
        help="reproduce the paper's figures/tables into an artifact directory "
        "(CSV + JSON per figure, combined REPORT.md)",
    )
    reproduce.add_argument(
        "--figures", default="",
        help="comma-separated figure keys (default: every registered figure; "
        "run 'repro list' for the registry)",
    )
    reproduce.add_argument(
        "-o", "--out", default="repro-artifact",
        help="artifact output directory (default: ./repro-artifact)",
    )
    reproduce.add_argument(
        "-w", "--workloads", default="",
        help="restrict the figures' workload sets (comma-separated names; "
        "ablation figures keep their fixed workload lists)",
    )
    reproduce.add_argument(
        "-a", "--accesses", type=int, default=1000, help="LLC accesses per trace"
    )
    reproduce.add_argument("-n", "--cores", type=int, default=2, help="number of simulated cores")
    reproduce.add_argument(
        "--smoke", action="store_true",
        help="tiny CI budget: %d accesses, %d core, workloads %s (unless -w is given)"
        % (SMOKE_ACCESSES, SMOKE_CORES, SMOKE_WORKLOADS),
    )
    reproduce.add_argument(
        "--strict", action="store_true",
        help="exit with status 1 if any expected-trend check fails",
    )
    _add_seed_argument(reproduce)
    _add_engine_argument(reproduce)
    _add_trace_argument(reproduce)
    _add_timeline_arguments(reproduce)
    _add_runner_arguments(
        reproduce,
        cache_default_help="$REPRO_CACHE_DIR if set, otherwise a persistent "
        "cache under <out>/.simcache; a second run against it re-simulates "
        "nothing",
    )

    trace = subparsers.add_parser(
        "trace",
        help="import/export/inspect/mix on-disk trace stores "
        "(streamable workloads for huge captured traces)",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    trace_import = trace_commands.add_parser(
        "import", help="import an external trace file into an on-disk store"
    )
    trace_import.add_argument("source", help="external trace file to import")
    trace_import.add_argument("dest", help="destination store directory")
    trace_import.add_argument(
        "--format", default="text", choices=["text", "dramsim", "champsim"],
        help="source format: 'text' = addr,is_write[,pc] lines; "
        "'dramsim'/'champsim' = 'address op cycle' request streams (default: text)",
    )
    trace_import.add_argument("--name", default=None, help="workload name recorded in the header")
    trace_import.add_argument(
        "--gap", type=int, default=1,
        help="instruction gap per record for gap-less text sources (default: 1)",
    )
    _add_trace_store_arguments(trace_import)

    trace_export = trace_commands.add_parser(
        "export",
        help="export a workload or store (native store, text, or dramsim)",
    )
    trace_export.add_argument(
        "source", help="a registered workload name or an existing store path"
    )
    trace_export.add_argument("dest", help="destination (store directory or flat file)")
    trace_export.add_argument(
        "--format", default="native", choices=["native", "text", "dramsim", "champsim"],
        help="'native' writes an on-disk store; 'text'/'dramsim' write flat "
        "files (default: native)",
    )
    trace_export.add_argument(
        "-a", "--accesses", type=int, default=20000,
        help="trace length when the source is a generated workload name",
    )
    _add_seed_argument(trace_export)
    _add_trace_store_arguments(trace_export)

    trace_info = trace_commands.add_parser(
        "info", help="print a store's header, statistics, and content hash"
    )
    trace_info.add_argument("path", help="store directory (or its header.json)")
    trace_info.add_argument(
        "--verify", action="store_true",
        help="re-stream every chunk and check the content hash",
    )

    trace_mix = trace_commands.add_parser(
        "mix",
        help="interleave several traces into one multi-tenant store",
    )
    trace_mix.add_argument("dest", help="destination store directory")
    trace_mix.add_argument(
        "sources", nargs="+",
        help="two or more component traces (store paths or workload names)",
    )
    trace_mix.add_argument(
        "--quantum", type=int, default=256,
        help="records taken from each tenant per round (default: 256)",
    )
    trace_mix.add_argument(
        "--stride", type=int, default=1 << 34,
        help="address-space bytes between tenants (default: 16 GiB)",
    )
    trace_mix.add_argument("--name", default=None, help="workload name recorded in the header")
    trace_mix.add_argument(
        "-a", "--accesses", type=int, default=20000,
        help="trace length for components that are generated workload names",
    )
    _add_seed_argument(trace_mix)
    _add_trace_store_arguments(trace_mix)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="property-based adversarial fuzzing of the security claims "
        "(seeded scenarios, detection matrix, JSONL corpus)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=DEFAULT_TRACE_SEED,
        help="campaign seed: the same seed always generates the same "
        "scenarios, outcomes, and detection matrix (default: %d)"
        % DEFAULT_TRACE_SEED,
    )
    fuzz.add_argument(
        "--budget", type=int, default=200,
        help="number of scenarios to generate (each runs against every "
        "selected configuration)",
    )
    fuzz.add_argument(
        "-c", "--configs", default="baseline_no_rap,secddr_no_ewcrc,secddr",
        help="comma-separated configurations to fuzz: functional profiles "
        "(baseline_no_rap, secddr_no_ewcrc, secddr) and/or configuration-"
        "registry names (default: the three functional profiles)",
    )
    fuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write corpus.jsonl, the detection-matrix CSV/JSON artifacts, "
        "and REPORT.md under this directory",
    )
    fuzz.add_argument(
        "--shrink", action=argparse.BooleanOptionalAction, default=True,
        help="minimize oracle-violating scenarios to their shortest "
        "reproducing tamper programs (default: on)",
    )
    _add_runner_arguments(
        fuzz,
        cache_default_help="$REPRO_CACHE_DIR if set, otherwise a persistent "
        "cache under <corpus>/.fuzzcache when --corpus is given; a repeated "
        "campaign re-executes nothing",
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the registered benchmark specs, merge BENCH_<date>.json, "
        "and gate metric regressions against the committed baseline",
    )
    bench.add_argument(
        "-b", "--benches", default="",
        help="comma-separated bench keys (default: every registered bench; "
        "run 'repro list' for the registry)",
    )
    bench.add_argument(
        "-o", "--out", default=".", metavar="DIR",
        help="directory whose BENCH_<date>.json the results merge into and "
        "where BENCH_REPORT.md is written (default: current directory)",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="tiny CI budget: reduced timing, fuzz and server scales",
    )
    bench.add_argument(
        "--check", nargs="?", const="auto", default=None, metavar="BASELINE",
        help="exit non-zero on any regression-policy violation vs BASELINE "
        "(default 'auto': the newest committed benchmarks/BENCH_*.json; "
        "noisy timing metrics only gate under a matching environment "
        "fingerprint — mismatches are flagged in the report instead)",
    )
    _add_trace_argument(bench)
    _add_timeline_arguments(bench)
    _add_runner_arguments(
        bench,
        cache_default_help="$REPRO_CACHE_DIR if set, otherwise a persistent "
        "cache under <out>/.benchcache; a second run against it simulates "
        "nothing",
    )

    serve = subparsers.add_parser(
        "serve", help="run the HTTP experiment service (job queue, SSE progress, "
        "artifact downloads)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks a free one and prints it (default: %(default)s)",
    )
    serve.add_argument(
        "--workdir", default="repro-service", metavar="DIR",
        help="durable service state: jobs/<id>/{job.json,events.jsonl,result.json,"
        "artifacts/} plus the default cache/ (default: %(default)s)",
    )
    serve.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes per experiment (the queue itself is drained "
        "one job at a time, so queued jobs share cores and cache)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="shared result-cache directory (default: $REPRO_CACHE_DIR if "
        "set, otherwise <workdir>/cache)",
    )
    _add_trace_argument(serve)

    obs_parser = subparsers.add_parser(
        "obs",
        help="observability tools: export --trace-out JSONL spans to the "
        "Chrome trace-event format (Perfetto-viewable)",
    )
    obs_commands = obs_parser.add_subparsers(dest="obs_command", required=True)
    export_trace = obs_commands.add_parser(
        "export-trace",
        help="convert a span JSONL file to Chrome trace-event JSON",
    )
    export_trace.add_argument("source", help="span JSONL file written by --trace-out")
    export_trace.add_argument("dest", help="Chrome trace-event JSON output path")

    parser.epilog = "commands:\n" + "\n".join(
        "  %-12s %s" % (name, summary) for name, summary in command_summaries(parser)
    ) + "\n\nfigure-by-figure guide: docs/reproducing-the-paper.md"
    return parser


def command_summaries(
    parser: Optional[argparse.ArgumentParser] = None,
) -> List[Tuple[str, str]]:
    """``(name, one-line help)`` for every subcommand, from the parser itself.

    This is the single source of truth the ``repro --help`` epilog is
    generated from and that the docs/README consistency tests check against.
    """
    parser = parser or build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return [(choice.dest, choice.help or "") for choice in action._choices_actions]


def _add_trace_store_arguments(subparser: argparse.ArgumentParser) -> None:
    """Store-layout flags shared by the trace subcommands that write stores."""
    subparser.add_argument(
        "--chunk-size", type=int, default=None, metavar="RECORDS",
        help="records per on-disk chunk (default: 65536)",
    )
    subparser.add_argument(
        "--raw", action="store_true",
        help="write raw memory-mappable .npy chunks instead of compressed .npz",
    )
    subparser.add_argument(
        "--overwrite", action="store_true",
        help="replace the destination store if it already exists",
    )


def _add_seed_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--seed", type=int, default=DEFAULT_TRACE_SEED,
        help="workload-generator seed: traces are a pure function of "
        "(workload, accesses, seed), so runs are reproducible end to end "
        "and a changed seed transparently invalidates cached results "
        "(default: %d)" % DEFAULT_TRACE_SEED,
    )


def _add_set_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a SystemConfiguration field on every evaluated configuration "
        "or an ExperimentConfig field on the whole run (repeatable), e.g. "
        "--set tree_arity=32 --set timing=ddr5_4800 --set rob_entries=128; "
        "the normalization baseline keeps its canonical parameters; unknown "
        "fields are rejected with a closest-match suggestion",
    )


def _add_trace_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write hierarchical spans as JSONL to PATH (also enables the "
        "metrics registry); convert with 'repro obs export-trace' and open "
        "the result in https://ui.perfetto.dev",
    )


def _add_timeline_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--timeline", default=None, metavar="PATH",
        help="record windowed simulation telemetry (IPC, metadata-cache hit "
        "rate, ROB/MSHR occupancy, per-bank queue depth, integrity events) "
        "and write it to PATH on exit: *.html writes the self-contained "
        "dashboard, anything else the JSON payload; results and cache keys "
        "are byte-identical with or without it",
    )
    subparser.add_argument(
        "--timeline-window", type=int, default=None, metavar="N",
        help="accesses per timeline sample (default: %d); implies timeline "
        "recording even without --timeline" % obs.DEFAULT_TIMELINE_WINDOW,
    )


def _add_engine_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--engine", default=None, metavar="NAME",
        help="simulation engine: 'batch' (default; a run-ahead replay, about 6-8x "
        "faster) or 'reference' (the per-access object model batch reproduces "
        "bit for bit); run 'repro list' for the engine registry",
    )


def _add_runner_arguments(
    subparser: argparse.ArgumentParser,
    cache_default_help: str = "$REPRO_CACHE_DIR if set, otherwise caching is off",
) -> None:
    """Parallel-runner flags shared by the simulation subcommands."""
    subparser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for the (workload, configuration) cross product",
    )
    subparser.add_argument(
        "--cache-dir", default=None,
        help="directory for the on-disk result cache (default: %s)" % cache_default_help,
    )
    subparser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if a cache directory is configured",
    )
    subparser.add_argument(
        "--verbose", action="store_true",
        help="print per-job progress (dispatch, completion time, cache hits)",
    )


def _build_cache(
    args: argparse.Namespace, default_dir: Optional[str] = None
) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or default_dir
    return ResultCache(cache_dir) if cache_dir else None


#: Runner-facing CLI output goes through the structured logger (configured
#: in :func:`main`); the default plain formatter keeps the text byte-exact
#: with the historical prints, and ``--log-json`` re-shapes it for machines.
_logger = obs.get_logger("repro.cli")


def _build_progress(args: argparse.Namespace) -> Optional[ProgressHook]:
    if not args.verbose:
        return None

    def _print_event(event: JobEvent) -> None:
        if event.status == "start":
            return
        suffix = "cache hit" if event.status == "cached" else "%.2fs" % event.elapsed_seconds
        _logger.info("[%3d/%3d] %-28s %-14s %s",
                     event.index + 1, event.total, event.configuration,
                     event.workload, suffix)

    return _print_event


def _print_cache_stats(args: argparse.Namespace, cache: Optional[ResultCache]) -> None:
    if cache is not None and args.verbose:
        _logger.info("cache: %d hit(s), %d miss(es) in %s",
                     cache.hits, cache.misses, cache.directory)


def _write_timeline(recorder, path: str) -> None:
    """Write a recorder's payload: ``*.html`` = dashboard, else JSON."""
    import json

    payload = recorder.to_payload()
    if path.endswith((".html", ".htm")):
        obs.write_dashboard(payload, path)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("wrote timeline %s (%d series)" % (path, len(payload["series"])),
          file=sys.stderr)


@contextlib.contextmanager
def _observability(args: argparse.Namespace):
    """Install the observation the command's flags ask for, for its duration.

    ``--trace-out`` records metrics and spans; ``--timeline`` (or a bare
    ``--timeline-window``) records a :class:`repro.obs.TimelineRecorder`
    and writes its payload on exit; ``serve`` always records metrics,
    because ``GET /metrics`` is part of its HTTP surface.  On exit the
    previous observation comes back and the tracer is closed.  None of it
    changes results or cache keys.
    """
    trace_out = getattr(args, "trace_out", None)
    timeline_out = getattr(args, "timeline", None)
    timeline_window = getattr(args, "timeline_window", None)
    observation = obs.Observation(
        registry=obs.MetricsRegistry() if trace_out or args.command == "serve" else obs.NULL_REGISTRY,
        tracer=obs.Tracer(trace_out) if trace_out else None,
        timeline=(
            obs.TimelineRecorder(window=timeline_window or obs.DEFAULT_TIMELINE_WINDOW)
            if timeline_out or timeline_window else None
        ),
    )
    with obs.observing(observation):
        try:
            if observation.tracer is None:
                yield
            else:
                with observation.tracer.span(args.command):
                    yield
        finally:
            if observation.tracer is not None:
                observation.tracer.close()
            if timeline_out:
                _write_timeline(observation.timeline, timeline_out)


def _split(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        from repro.server.schemas import dump_payload, registries_payload

        sys.stdout.write(dump_payload(registries_payload()).decode("utf-8"))
        return 0
    print("Configuration registry (%d entries)" % len(CONFIGURATIONS))
    print("%-28s %-12s %-10s %-4s %s" % ("name", "mechanism", "encryption", "RAP", "figure"))
    for name in configuration_names():
        spec = CONFIGURATIONS[name]
        print("%-28s %-12s %-10s %-4s %s" % (
            name, spec.mechanism, spec.encryption.value,
            "yes" if spec.replay_protection else "no", spec.figure or "-",
        ))
    print()
    print("Workload registry (%d entries)" % len(ALL_WORKLOADS))
    print("%-14s %-10s %8s %7s %s" % ("name", "suite", "MPKI", "writes", "memory-intensive"))
    for name in workload_names():
        spec = ALL_WORKLOADS[name]
        print("%-14s %-10s %8.1f %6.0f%% %s" % (
            name, spec.suite, spec.mpki, 100 * spec.write_fraction,
            "yes" if spec.memory_intensive else "no",
        ))
    print()
    print("Figure registry (%d entries; run with 'repro reproduce --figures KEY,...')"
          % len(FIGURES))
    print("%-16s %-28s %-10s %s" % ("key", "paper artifact", "simulated", "description"))
    for key in figure_names():
        spec = FIGURES[key]
        print("%-16s %-28s %-10s %s" % (
            key, spec.paper_ref, "yes" if spec.simulated else "no", spec.description,
        ))
    print()
    from repro.bench import bench_names, get_bench

    benches = bench_names()
    print("Bench registry (%d entries; run with 'repro bench --benches KEY,...')"
          % len(benches))
    print("%-16s %-8s %s" % ("key", "metrics", "title"))
    for key in benches:
        spec = get_bench(key)
        print("%-16s %-8d %s" % (key, len(spec.metrics), spec.title))
    print()
    print("Engine registry (%d entries; select with --engine or engine=)" % len(ENGINES))
    print("%-12s %-11s %s" % ("name", "vectorized", "description"))
    for engine in ENGINES:
        print("%-12s %-11s %s" % (
            engine.name, "yes" if engine.vectorized else "no", engine.description,
        ))
    print()
    _print_attack_registry()
    return 0


def _print_attack_registry() -> None:
    """The 'attacks' section of ``repro list``: battery + fuzz vocabulary."""
    from repro.attacks.campaign import standard_attacks
    from repro.fuzz.actions import TAMPER_ACTIONS

    attacks = standard_attacks()
    print("Attack battery (%d scenarios; run with 'repro reproduce --figures attacks')"
          % len(attacks))
    print("%-26s %s" % ("name", "description"))
    for attack in attacks:
        summary = ((attack.__doc__ or "").strip().splitlines() or [""])[0]
        print("%-26s %s" % (attack.name, summary))
    print()
    print("Tamper-action vocabulary (%d actions; 'repro fuzz' generates from these)"
          % len(TAMPER_ACTIONS))
    print("%-18s %-10s %s" % ("kind", "needs", "description"))
    for kind, action in TAMPER_ACTIONS.items():
        print("%-18s %-10s %s" % (kind, action.detected_by, action.description))


def _cmd_compare(args: argparse.Namespace) -> int:
    spec_overrides, experiment_overrides = parse_overrides(args.overrides)
    experiment = dataclasses.replace(
        ExperimentConfig(num_accesses=args.accesses, num_cores=args.cores, seed=args.seed),
        **experiment_overrides,
    )
    cache = _build_cache(args)
    configurations = derived_configurations(_split(args.configurations), spec_overrides)
    workloads = _resolve_workload_tokens(_split(args.workloads))
    streamed = [w for w in workloads if not isinstance(w, str)]
    if streamed:
        # -a sizes generated traces only; saying so up front beats a user
        # waiting on a 100M-access store they expected -a to bound.
        print("streaming %d trace store(s) at full recorded length "
              "(-a/--accesses applies to generated workloads only): %s"
              % (len(streamed), ", ".join("%s (%d)" % (w.name, len(w)) for w in streamed)),
              file=sys.stderr)
    comparison = run_comparison(
        configurations=configurations,
        workloads=workloads,
        baseline=args.baseline,
        experiment=experiment,
        jobs=args.jobs,
        cache=cache,
        progress=_build_progress(args),
        engine=args.engine,
    )
    print(comparison.format_table())
    print()
    for config in comparison.configurations:
        print("gmean %-28s %.3f" % (config, comparison.gmean(config)))
    _print_cache_stats(args, cache)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    experiment = ExperimentConfig(
        num_accesses=args.accesses, num_cores=args.cores, seed=args.seed
    )
    cache = _build_cache(args)
    # The arity and packing sweeps share most (workload, configuration)
    # pairs (including the baseline); without a cache each would re-simulate
    # them, so fall back to an ephemeral cache for the duration of the run.
    # --no-cache is honored literally: no cache at all, duplicates re-run.
    ephemeral: Optional[tempfile.TemporaryDirectory] = None
    if cache is None and not args.no_cache:
        ephemeral = tempfile.TemporaryDirectory(prefix="repro-sweep-cache-")
        cache = ResultCache(ephemeral.name)
    try:
        return _run_sweep_command(args, experiment, cache)
    finally:
        if ephemeral is not None:
            ephemeral.cleanup()


def _run_sweep_command(
    args: argparse.Namespace, experiment: ExperimentConfig, cache: Optional[ResultCache]
) -> int:
    workloads = _split(args.workloads) or None
    try:
        arities = [int(a) for a in _split(args.arities)]
    except ValueError:
        print("error: --arities must be comma-separated integers >= 2", file=sys.stderr)
        return 2
    invalid = [a for a in arities if a < 2]
    if invalid:
        print("error: arity must be >= 2, got %s" % ", ".join(map(str, invalid)),
              file=sys.stderr)
        return 2
    sweep_overrides, experiment_overrides = parse_overrides(args.overrides)
    blocked = sorted({"name", "tree_arity", "counters_per_line"} & set(sweep_overrides))
    if blocked:
        raise OverrideError(
            "--set %s is not supported for sweep: the sweep varies "
            "arity/packing itself, and every spec in a sweep group must keep "
            "its own name" % ", ".join(blocked)
        )
    experiment = dataclasses.replace(experiment, **experiment_overrides)
    common = dict(
        workloads=workloads,
        experiment=experiment,
        baseline=args.baseline,
        jobs=args.jobs,
        cache=cache,
        progress=_build_progress(args),
        derive_overrides=sweep_overrides,
        engine=args.engine,
    )
    arity = arity_sweep(arities=arities, **common)
    packing = counter_packing_sweep(packings=arities, **common)

    print("Figure 8 arity sweep (gmean normalized IPC, baseline = %s)" % args.baseline)
    print("%-8s %12s %12s %14s" % ("arity", "tree", "secddr", "encrypt_only"))
    for value, roles in arity.items():
        print("%-8d %12.3f %12.3f %14.3f"
              % (value, roles["tree"], roles["secddr"], roles["encrypt_only"]))
    print()
    print("Counter-packing sweep (gmean normalized IPC, baseline = %s)" % args.baseline)
    print("%-8s %12s %14s" % ("packing", "secddr", "encrypt_only"))
    for value, roles in packing.items():
        print("%-8d %12.3f %14.3f" % (value, roles["secddr"], roles["encrypt_only"]))
    _print_cache_stats(args, cache)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    resolve_engine(args.engine)  # unknown --engine fails before any directory is made
    accesses, cores = args.accesses, args.cores
    workloads = _split(args.workloads)
    if args.smoke:
        accesses, cores = SMOKE_ACCESSES, SMOKE_CORES
        workloads = workloads or _split(SMOKE_WORKLOADS)
    experiment = ExperimentConfig(
        num_accesses=accesses, num_cores=cores, seed=args.seed
    )

    # Unlike compare/sweep, reproduce defaults to a *persistent* cache under
    # the artifact directory: re-invoking against the same --out re-simulates
    # nothing.  --cache-dir / $REPRO_CACHE_DIR relocate it; --no-cache falls
    # back to an ephemeral cache inside the pipeline (dedup still works, but
    # nothing survives the run).
    cache = _build_cache(args, default_dir=os.path.join(args.out, ".simcache"))

    report = reproduce_figures(
        figures=_split(args.figures) or None,
        experiment=experiment,
        jobs=args.jobs,
        cache=cache,
        progress=_build_progress(args),
        workload_filter=workloads or None,
        engine=args.engine,
    )
    paths = write_artifacts(report, args.out)

    for outcome in report.outcomes:
        artifact = outcome.artifact
        status = (
            "%d/%d trends ok" % (
                len(artifact.trends) - len(artifact.failed_trends), len(artifact.trends),
            )
            if artifact.trends else "no trend checks"
        )
        print("%-16s %-28s %s" % (artifact.key, artifact.paper_ref, status))
    print()
    print("simulated %d of %d unique simulation job(s) (rest were cache hits)"
          % (report.simulated_jobs, report.unique_jobs))
    print("wrote %d file(s) under %s (see REPORT.md)" % (len(paths), args.out))
    _print_cache_stats(args, cache)
    failed = report.failed_trends
    if failed:
        print()
        for item in failed:
            print("trend FAILED: %s" % item, file=sys.stderr)
    return 1 if (failed and args.strict) else 0


def _resolve_workload_tokens(tokens: List[str]) -> List[object]:
    """Map ``-w`` tokens to workloads: trace-store paths stream, names build.

    A token naming an on-disk trace store (its directory or ``header.json``)
    is opened as a bounded-memory streamed workload; everything else stays a
    registry name.
    """
    from repro.traces import is_trace_store, load_trace

    return [
        load_trace(token) if is_trace_store(token) else token for token in tokens
    ]


def _trace_source(token: str, accesses: int, seed: int):
    """A trace subcommand source: an on-disk store or a built workload name."""
    from repro.traces import is_trace_store, load_trace
    from repro.workloads.registry import build_workload

    if is_trace_store(token):
        return load_trace(token)
    return build_workload(token, num_accesses=accesses, seed=seed)


def _store_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    kwargs: Dict[str, object] = {
        "compression": not args.raw,
        "overwrite": args.overwrite,
    }
    if args.chunk_size is not None:
        kwargs["chunk_size"] = args.chunk_size
    return kwargs


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces import (
        export_trace,
        import_trace,
        interleave,
        open_trace_store,
        save_trace,
    )
    from repro.traces.importers import trace_metadata

    if args.trace_command == "import":
        options: Dict[str, object] = dict(_store_kwargs(args), name=args.name)
        if args.format == "text":
            options["default_gap"] = args.gap
        store = import_trace(args.source, args.dest, format=args.format, **options)
        print("imported %d access(es) into %s (%d chunk(s), hash %s)"
              % (store.total_accesses, store.path, store.num_chunks,
                 store.content_hash[:16]))
        return 0

    if args.trace_command == "export":
        source = _trace_source(args.source, args.accesses, args.seed)
        if args.format == "native":
            store = save_trace(source, args.dest, **_store_kwargs(args))
            print("wrote %d access(es) to %s (%d chunk(s), hash %s)"
                  % (store.total_accesses, store.path, store.num_chunks,
                     store.content_hash[:16]))
        else:
            path = export_trace(source, args.dest, format=args.format)
            print("wrote %s (%s format)" % (path, args.format))
        return 0

    if args.trace_command == "info":
        store = open_trace_store(
            args.path if not args.path.endswith("header.json")
            else os.path.dirname(args.path) or "."
        )
        for key, value in trace_metadata(store).items():
            print("%-24s %s" % (key, value))
        if args.verify:
            ok = store.verify()
            print("%-24s %s" % ("verified", "ok" if ok else "HASH MISMATCH"))
            return 0 if ok else 1
        return 0

    if args.trace_command == "mix":
        # Validate here so user mistakes print one-line errors, not the
        # trace layer's ValueError tracebacks.
        if len(args.sources) < 2:
            print("error: trace mix needs at least two sources, got %d"
                  % len(args.sources), file=sys.stderr)
            return 2
        if args.quantum < 1:
            print("error: --quantum must be >= 1, got %d" % args.quantum, file=sys.stderr)
            return 2
        if args.stride < 0:
            print("error: --stride must be non-negative, got %d" % args.stride,
                  file=sys.stderr)
            return 2
        components = [
            _trace_source(token, args.accesses, args.seed) for token in args.sources
        ]
        name = args.name or "mix-" + "+".join(
            getattr(component, "name", "?") for component in components
        )
        mixed = interleave(components, name, quantum=args.quantum, stride=args.stride)
        store = save_trace(mixed, args.dest, **_store_kwargs(args))
        print("mixed %d tenant(s) into %s: %d access(es), %d chunk(s), hash %s"
              % (len(components), store.path, store.total_accesses,
                 store.num_chunks, store.content_hash[:16]))
        print("register it with Session.traces().register(%r) or pass the "
              "path to compare -w (workload name: %s)" % (str(store.path), store.name))
        return 0

    raise AssertionError("unhandled trace command %r" % args.trace_command)  # pragma: no cover


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzCampaign, write_fuzz_artifacts

    # A plain ResultCache here: the campaign nests scenario results under a
    # fuzz/ subdirectory of it, so a shared $REPRO_CACHE_DIR never mixes
    # simulation and scenario entries in one keyspace.  Like reproduce,
    # campaigns writing a corpus default to a persistent cache beside it, so
    # an interrupted or repeated campaign resumes instead of re-executing.
    cache = _build_cache(
        args,
        default_dir=os.path.join(args.corpus, ".fuzzcache") if args.corpus else None,
    )
    campaign = FuzzCampaign(
        seed=args.seed,
        budget=args.budget,
        configurations=_split(args.configs),
        jobs=args.jobs,
        cache=cache,
        progress=_build_progress(args),
        shrink_violations=args.shrink,
    )
    report = campaign.run()

    print("Fuzz campaign: seed %d, %d scenario(s) x %d configuration(s)"
          % (report.seed, report.budget, len(report.configurations)))
    print()
    print(report.format_matrix())
    print()
    for name in report.configurations:
        missed = report.missed_kinds(name)
        print("%-28s missed classes: %s" % (name, ", ".join(missed) if missed else "none"))
    violations = report.violations()
    print()
    print("oracle violations: %d" % len(violations))
    for result in violations:
        print("  %s" % result.describe(), file=sys.stderr)
    for shrunk in report.shrunk:
        print("  minimized: %s" % shrunk.describe(), file=sys.stderr)
    if args.corpus:
        paths = write_fuzz_artifacts(report, args.corpus)
        print("wrote %d file(s) under %s (see REPORT.md)" % (len(paths), args.corpus))
    print("executed %d of %d job(s) (rest were cache hits)"
          % (report.executed_jobs, report.executed_jobs + report.cached_jobs))
    # The campaign's own (nested) scenario cache holds the hit/miss counts.
    _print_cache_stats(args, campaign.cache)
    return 1 if violations else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        compare_records,
        default_record_path,
        find_baseline,
        load_record,
        merge_bench_record,
        render_bench_report,
        resolve_benches,
        run_benches,
        violations,
    )

    keys = _split(args.benches) or None
    resolve_benches(keys)  # unknown keys fail before any work is done
    cache = _build_cache(args, default_dir=os.path.join(args.out, ".benchcache"))

    report = run_benches(
        keys,
        smoke=args.smoke,
        cache=cache,
        jobs=args.jobs,
    )
    for entry in report.entries:
        printed = ", ".join(
            "%s=%s" % (name, ("%g" % value)) for name, value in entry.metrics.items()
        )
        print("%-16s %6.2fs  %s" % (entry.key, entry.elapsed_seconds, printed))
    print()
    print("simulated %d cache-keyed job(s), %d served from cache"
          % (report.simulated_jobs, report.cached_jobs))

    record_path = default_record_path(args.out)
    registry = obs.current().registry
    record = merge_bench_record(
        record_path,
        {entry.key: entry.to_payload() for entry in report.entries},
        profile=report.profile,
        environment=report.environment,
        observability=None if registry is obs.NULL_REGISTRY else registry.summary(),
    )
    print("merged %d bench entr%s into %s"
          % (len(report.entries), "y" if len(report.entries) == 1 else "ies", record_path))

    if args.check not in (None, "auto"):
        baseline_path = Path(args.check)
    else:
        baseline_path = find_baseline(exclude=record_path)

    deltas = None
    if baseline_path is not None and Path(baseline_path).exists():
        deltas = compare_records(record, load_record(baseline_path))
    report_path = Path(args.out) / "BENCH_REPORT.md"
    report_path.write_text(render_bench_report(
        record, deltas, baseline_path=baseline_path, record_path=record_path,
    ))
    print("wrote %s" % report_path)
    recorder = obs.current().timeline
    if recorder is not None and len(recorder):
        # Bench runs with --timeline also drop the artifacts into --out so
        # the dashboard sits next to BENCH_REPORT.md.
        _write_timeline(recorder, os.path.join(args.out, "timeline.json"))
        _write_timeline(recorder, os.path.join(args.out, "dashboard.html"))
    _print_cache_stats(args, cache)

    if args.check is None:
        return 0
    if deltas is None:
        print("no baseline record found; skipping the regression gate")
        return 0
    failed = violations(deltas)
    flagged = [delta for delta in deltas if delta.status == "flagged"]
    for delta in flagged:
        print("flagged (env mismatch): %s.%s %s -> %s"
              % (delta.bench, delta.metric, delta.baseline, delta.current),
              file=sys.stderr)
    for delta in failed:
        print("REGRESSED: %s.%s %s -> %s (%s)"
              % (delta.bench, delta.metric, delta.baseline, delta.current, delta.note),
              file=sys.stderr)
    if failed:
        print("%d policy violation(s) vs %s" % (len(failed), baseline_path),
              file=sys.stderr)
        return 1
    print("regression gate passed vs %s" % baseline_path)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP experiment service until SIGTERM/SIGINT, then exit 0."""
    import signal
    import threading

    from repro.server import ExperimentService, make_server

    # The service always runs with live metrics (see _observability): GET
    # /metrics is part of its HTTP surface, and the registry's overhead is a
    # few counter bumps per job against experiments that run for seconds.
    from repro import __version__

    obs.current().registry.gauge(
        "repro_build_info", "Constant 1, labelled with the library version.",
        version=__version__,
    ).set(1)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    service = ExperimentService(args.workdir, jobs=args.jobs, cache_dir=cache_dir)
    service.start()
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]

    def _shutdown(signum, frame):
        # serve_forever() blocks this (main) thread, and shutdown() blocks
        # until serve_forever() returns -- calling it here directly would
        # deadlock the handler, so a helper thread delivers it.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    print(
        "serving on http://%s:%d (workdir: %s, jobs: %d, cache: %s)"
        % (host, port, args.workdir, service.jobs, service.cache.directory),
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        # Let the in-flight experiment finish; queued jobs stay on disk and
        # are re-queued by the next start()'s recovery pass.
        service.stop()
    print("shutdown complete", file=sys.stderr)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "export-trace":
        if not os.path.isfile(args.source):
            print("error: no such trace file: %s" % args.source, file=sys.stderr)
            return 2
        count = obs.export_chrome_trace(args.source, args.dest)
        print("exported %d span(s) to %s (open in https://ui.perfetto.dev)"
              % (count, args.dest))
        return 0
    raise AssertionError("unhandled obs command %r" % args.obs_command)  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # --verbose implies info so the progress/cache lines (emitted through
    # the logger with their historical text) still reach stderr.
    level = args.log_level or ("info" if getattr(args, "verbose", False) else "warning")
    obs.configure_logging(level, json_output=args.log_json)
    from repro.traces import TraceFormatError, TraceImportError

    try:
        with _observability(args):
            return _dispatch(args)
    except (
        RegistryLookupError,
        OverrideError,
        AmbiguousConfigurationError,
        BatchEngineUnsupported,
        TraceFormatError,
        TraceImportError,
    ) as error:
        # User-input problems only (unknown names, bad --set pairs, name
        # collisions): one line on stderr.  Other exceptions stay loud —
        # a traceback from the library is a bug, not a typo.
        print("error: %s" % error, file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError("unhandled command %r" % args.command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
