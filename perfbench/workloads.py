"""The four benchmark workloads: inputs from a seed, timed calls, output checks.

Each workload builds its inputs in its constructor (counted in ``setup_s``),
then the worker times ``call`` (the first call in a fresh interpreter) and
``repeat`` (the same call again, once or more).  Every call goes through a
public entry point of ``repro`` only:

* ``reproduce``      -- ``repro.figures.reproduce`` + ``write_artifacts`` for
  all figures at the CLI defaults; ``call`` fills an empty ``ResultCache``
  (its write path), ``repeat`` reads it back (its read path);
* ``sim-batch``      -- ``repro.sim.experiment.run_simulation`` on the
  ``batch`` engine over (mcf, lbm) x (tdx_baseline, secddr_ctr,
  integrity_tree_64), 4 simulated cores x 6,000 records, no cache;
* ``sim-reference``  -- the same six pairs on the ``reference`` object model,
  2 simulated cores x 1,000 records;
* ``fuzz``           -- ``repro.fuzz.FuzzCampaign`` over the three default
  functional configurations, no cache.

An *op* is one simulation job (reproduce, sim-*) or one scenario x
configuration result (fuzz).  An op fails when it raises or when its output
check fails; ``attempted`` and ``failed`` count ops across all calls.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.figures import reproduce, write_artifacts
from repro.fuzz import FuzzCampaign
from repro.fuzz.oracles import FuzzOutcome
from repro.obs import tracing as obs_tracing
from repro.sim.experiment import ExperimentConfig, run_simulation
from repro.sim.runner import ResultCache
from repro.workloads import build_workload

import probe

SIM_TRACES = ("mcf", "lbm")
SIM_MECHANISMS = ("tdx_baseline", "secddr_ctr", "integrity_tree_64")

#: Trace records per simulated core and simulated cores, per sim workload.
SIM_SIZES = {"batch": (6000, 4), "reference": (1000, 2)}

#: ``repro reproduce`` CLI defaults: ``-a 1000 -n 2``.
REPRODUCE_ACCESSES = 1000
REPRODUCE_CORES = 2

FUZZ_BUDGET = 12
#: Functional configuration that must detect every tamper class.
FUZZ_FULL_PROTECTION = "secddr"
FUZZ_BAD_OUTCOMES = (FuzzOutcome.FALSE_ALARM, FuzzOutcome.FUNCTIONAL_MISMATCH)

#: Paper headline numbers read from the reproduce artifacts:
#: metric name -> (figure key, PaperDelta.metric prefix).
PAPER_DELTAS = {
    "fig6.ctr_over_tree64_pct": ("fig6", "SecDDR+CTR over 64-ary tree"),
    "fig6.xts_over_tree64_pct": ("fig6", "SecDDR+XTS over 64-ary tree"),
    "fig10.over_invisimem_realistic_pct": ("fig10", "SecDDR over realistic InvisiMem"),
}

PAIRS = tuple("%s.%s" % (trace, mech) for trace in SIM_TRACES for mech in SIM_MECHANISMS)
PAIR_STATS = (".ipc", ".metadata_hit_rate", ".controller_reads", ".controller_writes",
              ".avg_read_latency_cycles")
#: Exact outputs; each workload fills those it produces, the rest read 0.
EXACT_METRICS = (
    ("runner.cache_hits", "runner.cache_misses")
    + tuple(PAPER_DELTAS)
    + tuple(pair + stat for pair in PAIRS for stat in PAIR_STATS)
)
PAIR_RATES = tuple(pair + ".accesses_per_s" for pair in PAIRS)


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def report_exception(where: str) -> None:
    print("perfbench: %s raised:\n%s" % (where, traceback.format_exc()), file=sys.stderr)


@dataclass
class CallResult:
    """What one timed call did; the caller adds its timing."""

    attempted: int = 0
    failed: int = 0
    #: Simulated accesses (trace records x cores) and the host seconds spent
    #: inside ``run_simulation`` for them, without probe time; sim-* only.
    accesses: int = 0
    sim_seconds: float = 0.0
    #: Fuzz scenarios run.
    scenarios: int = 0


@dataclass
class Finish:
    """Untimed checks and exact outputs, gathered after both calls."""

    failed: int = 0
    digest: str = ""
    exact: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(EXACT_METRICS, 0.0))
    #: Host accesses/s per (trace, mechanism) pair, sim-* only.
    pair_rates: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(PAIR_RATES, 0.0))
    notes: List[str] = field(default_factory=list)


class SimWorkload:
    """``run_simulation`` over the trace x mechanism matrix on one engine."""

    #: Probe kind that calibrates each phase (see probe.py).
    PROBES = {"call": "interp", "repeat": "interp"}

    def __init__(self, engine: str, seed: int) -> None:
        self.engine = engine
        accesses, cores = SIM_SIZES[engine]
        self.experiment = ExperimentConfig(num_accesses=accesses, num_cores=cores, seed=seed)
        self.traces = [
            build_workload(name, num_accesses=accesses, seed=seed) for name in SIM_TRACES
        ]
        self.results: Dict[str, object] = {}
        self.pair_seconds: Dict[str, List[float]] = {}

    def call(self) -> CallResult:
        out = CallResult()
        for trace in self.traces:
            accesses = len(trace) * self.experiment.num_cores
            for mechanism in SIM_MECHANISMS:
                pair = "%s.%s" % (trace.name, mechanism)
                out.attempted += 1
                started = probe.clock()
                try:
                    with obs_tracing.span("engine", engine=self.engine, pair=pair):
                        result = run_simulation(
                            trace, mechanism, self.experiment, engine=self.engine
                        )
                except Exception:  # a failed op is counted, the run goes on
                    report_exception("run_simulation(%s)" % pair)
                    out.failed += 1
                    continue
                elapsed = probe.clock() - started
                out.accesses += accesses
                out.sim_seconds += elapsed
                self.pair_seconds.setdefault(pair, []).append(elapsed)
                if pair in self.results and canonical(asdict(result)) != canonical(
                    asdict(self.results[pair])
                ):
                    out.failed += 1  # the same pair must reproduce byte for byte
                self.results[pair] = result
                if not self.plausible(result):
                    out.failed += 1
        return out

    repeat = call

    @staticmethod
    def plausible(result) -> bool:
        return result.total_ipc > 0 and result.stat("metadata_hits") <= result.stat(
            "metadata_accesses"
        )

    def finish(self) -> Finish:
        done = Finish()
        if self.engine == "reference":
            # The object model is the oracle of the batch engine; an untimed
            # batch re-run of every pair must give the same payload bytes.
            for trace in self.traces:
                for mechanism in SIM_MECHANISMS:
                    pair = "%s.%s" % (trace.name, mechanism)
                    if pair not in self.results:
                        continue
                    batch = run_simulation(trace, mechanism, self.experiment, engine="batch")
                    if canonical(asdict(batch)) != canonical(asdict(self.results[pair])):
                        done.failed += 1
                        done.notes.append("%s: batch payload differs from reference" % pair)
        digest = hashlib.sha256()
        for pair in sorted(self.results):
            result = self.results[pair]
            digest.update(canonical(asdict(result)))
            accesses = self.experiment.num_accesses * self.experiment.num_cores
            done.exact.update(
                {
                    pair + ".ipc": result.total_ipc,
                    pair + ".metadata_hit_rate": result.stat("metadata_cache_hit_rate"),
                    pair + ".controller_reads": result.stat("controller_reads"),
                    pair + ".controller_writes": result.stat("controller_writes"),
                    pair + ".avg_read_latency_cycles": result.average_read_latency_cycles,
                }
            )
            done.pair_rates[pair + ".accesses_per_s"] = accesses / statistics.median(
                self.pair_seconds[pair]
            )
        done.digest = digest.hexdigest()
        return done


class ReproduceWorkload:
    """All figures at the CLI defaults into an empty cache, then warm."""

    #: The cold call is mostly the batch engine.  The warm call simulates
    #: nothing: it is mostly the attacks figure's 1536-bit DH ``pow`` plus
    #: JSON decoding of the cache, C code whose time tracked the bigint probe
    #: (slope 1.16 of log call time on log probe time) and not the interp
    #: probe (slope 0.71).
    PROBES = {"call": "interp", "repeat": "bigint"}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.experiment = ExperimentConfig(
            num_accesses=REPRODUCE_ACCESSES, num_cores=REPRODUCE_CORES, seed=seed
        )
        self.cache = ResultCache(workdir / "simcache")
        self.out = workdir / "artifacts"
        self.reports: List[object] = []

    def call(self) -> CallResult:
        out = CallResult()
        try:
            report = reproduce(experiment=self.experiment, cache=self.cache, engine="batch")
            with obs_tracing.span("report"):
                write_artifacts(report, self.out)
        except Exception:
            report_exception("reproduce")
            # The pass aborted; charge it as one attempted, failed op.
            out.attempted += 1
            out.failed += 1
            return out
        warm = bool(self.reports)
        self.reports.append(report)
        out.attempted += report.unique_jobs
        # Every failed trend check fails one op; a warm pass must simulate
        # nothing, so each job it re-simulates is a failed op.
        out.failed += len(report.failed_trends) + (report.simulated_jobs if warm else 0)
        return out

    repeat = call

    def finish(self) -> Finish:
        done = Finish()
        for report in self.reports:
            done.notes.extend("trend failed: %s" % item for item in report.failed_trends)
        digest = hashlib.sha256()
        for path in sorted(self.cache.directory.glob("*.json")):
            digest.update(path.name.encode("utf-8"))
            digest.update(path.read_bytes())
        done.digest = digest.hexdigest()
        done.exact["runner.cache_hits"] = self.cache.hits
        done.exact["runner.cache_misses"] = self.cache.misses
        if self.reports:
            artifacts = {artifact.key: artifact for artifact in self.reports[0].artifacts}
            for name, (key, prefix) in PAPER_DELTAS.items():
                delta = next(
                    d for d in artifacts[key].deltas if d.metric.startswith(prefix)
                )
                done.exact[name] = delta.reproduced
                done.notes.append(
                    "%s: reproduced %.2f%%, paper %.1f%%" % (name, delta.reproduced, delta.paper)
                )
        return done


class FuzzWorkload:
    """One no-cache fuzz campaign over the default configurations."""

    #: The same functional crypto as reproduce's warm call.
    PROBES = {"call": "bigint", "repeat": "bigint"}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reports: List[object] = []

    def call(self) -> CallResult:
        out = CallResult(scenarios=FUZZ_BUDGET)
        campaign = FuzzCampaign(seed=self.seed, budget=FUZZ_BUDGET, jobs=1)
        ops = FUZZ_BUDGET * len(campaign.configurations)
        out.attempted += ops
        try:
            report = campaign.run()
        except Exception:
            report_exception("FuzzCampaign.run")
            out.failed += ops
            return out
        self.reports.append(report)
        for name in report.configurations:
            for result in report.results[name]:
                full_miss = name == FUZZ_FULL_PROTECTION and result.missed
                if result.violation or result.outcome in FUZZ_BAD_OUTCOMES or full_miss:
                    out.failed += 1
        return out

    repeat = call

    def finish(self) -> Finish:
        done = Finish()
        digests = []
        for report in self.reports:
            digest = hashlib.sha256()
            for name in report.configurations:
                for result in report.results[name]:
                    digest.update(canonical(asdict(result)))
            digests.append(digest.hexdigest())
        if self.reports:
            done.digest = digests[0]
            done.notes.append(
                "%s missed classes: %s" % (
                    FUZZ_FULL_PROTECTION,
                    self.reports[0].missed_kinds(FUZZ_FULL_PROTECTION) or "none",
                )
            )
        if len(set(digests)) > 1:
            done.failed += 1
            done.notes.append("the repeated campaign gave different results")
        return done


WORKLOADS = ("reproduce", "sim-batch", "sim-reference", "fuzz")


def make_workload(name: str, seed: int, workdir: Path):
    if name == "reproduce":
        if workdir.exists():
            shutil.rmtree(workdir)
        return ReproduceWorkload(seed, workdir)
    if name == "sim-batch":
        return SimWorkload("batch", seed)
    if name == "sim-reference":
        return SimWorkload("reference", seed)
    if name == "fuzz":
        return FuzzWorkload(seed)
    raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(WORKLOADS)))
