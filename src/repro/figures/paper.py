"""The paper's figure/table specs -- every artifact ``repro reproduce`` rebuilds.

One :class:`~repro.figures.spec.FigureSpec` per artifact of *SecDDR: Enabling
Low-Cost Secure Memories by Protecting the DDR Interface* (DSN 2023):
Tables I-II, Figures 6/7/8/10/12, the attack-detection matrix, the Section
III security arithmetic, the scalability analysis, and the two ablations.

Each spec declares the baseline-normalized comparisons it is made of once
(the pipeline dedups their jobs across figures), builds its artifact from
their results and the analytic models, and evaluates the paper's expected
trends.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.area import AreaModel
from repro.analysis.power import table2_power_overheads
from repro.analysis.scalability import scalability_sweep
from repro.analysis.security_math import SecurityAnalysis
from repro.attacks.campaign import AttackCampaign, run_standard_campaign
from repro.dram.timing import DDR4_3200
from repro.figures.registry import register_figure
from repro.figures.spec import (
    FigureArtifact,
    FigureContext,
    FigureSpec,
    PaperDelta,
    TrendResult,
)
from repro.secure.configs import CONFIGURATIONS, build_configuration
from repro.sim.experiment import Comparison, default_system_parameters
from repro.sim.results import ComparisonResult
from repro.sim.sweep import arity_group, packing_group
from repro.workloads.registry import REGISTRY as WORKLOAD_REGISTRY
from repro.workloads.registry import memory_intensive_workloads

__all__ = ["BASELINE", "FIG6_CONFIGURATIONS", "FIG10_CONFIGURATIONS", "FIG12_CONFIGURATIONS"]

BASELINE = "tdx_baseline"

FIG6_CONFIGURATIONS = [
    "integrity_tree_64",
    "secddr_ctr",
    "encrypt_only_ctr",
    "secddr_xts",
    "encrypt_only_xts",
]

FIG10_CONFIGURATIONS = [
    "invisimem_unrealistic_xts",
    "invisimem_realistic_xts",
    "secddr_xts",
    "encrypt_only_xts",
]

FIG12_CONFIGURATIONS = [
    "invisimem_unrealistic_ctr",
    "invisimem_realistic_ctr",
    "secddr_ctr",
    "encrypt_only_ctr",
]

GB = 2**30


def _comparison_rows(comparison: ComparisonResult) -> List[Dict[str, object]]:
    """One row per workload: the normalized-IPC series the paper plots."""
    return [
        {"workload": workload, **{
            config: comparison.normalized[config][workload]
            for config in comparison.configurations
        }}
        for workload in comparison.workloads
    ]


def _gmean_summary(comparison: ComparisonResult) -> Dict[str, float]:
    intensive = [w for w in memory_intensive_workloads() if w in comparison.workloads]
    summary = {}
    for config in comparison.configurations:
        summary["gmean_all/%s" % config] = comparison.gmean(config)
        if intensive:
            summary["gmean_memory_intensive/%s" % config] = comparison.gmean(config, intensive)
    return summary


# ----------------------------------------------------------------------
# Table I: system configuration.
def _table1_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    systems = [build_configuration(name) for name in CONFIGURATIONS]
    rows = [
        {"parameter": key, "value": value}
        for key, value in default_system_parameters().items()
    ]
    timing_ok = (
        (DDR4_3200.tCL, DDR4_3200.tCCD_S, DDR4_3200.tCCD_L, DDR4_3200.tCWL) == (22, 4, 10, 16)
        and (DDR4_3200.tWTR_S, DDR4_3200.tWTR_L, DDR4_3200.tRP, DDR4_3200.tRCD, DDR4_3200.tRAS)
        == (4, 12, 22, 22, 56)
    )
    return FigureArtifact(
        key="table1",
        title="Table I: Configuration Parameters",
        paper_ref="Table I",
        columns=["parameter", "value"],
        rows=rows,
        summary={"registered_configurations": float(len(systems))},
        trends=[
            TrendResult("DDR4-3200 timing set matches the published Table I values", timing_ok),
            TrendResult(
                "every registered configuration builds a complete memory system",
                len(systems) == len(CONFIGURATIONS),
            ),
        ],
    )


# ----------------------------------------------------------------------
# Table II: AES power overhead.
def _table2_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    power_rows = table2_power_overheads()
    area = AreaModel()
    rows = [
        {
            "configuration": row.configuration,
            "aes_units_per_ecc_chip": row.aes_units_per_ecc_chip,
            "aes_power_per_ecc_chip_mw": row.aes_power_per_ecc_chip_mw,
            "dram_chip_power_mw": row.dram_chip_power_mw,
            "overhead_per_rank_percent": row.overhead_per_rank_percent,
        }
        for row in power_rows
    ]
    x4, x8 = power_rows[0], power_rows[1]
    trends = [
        TrendResult("x4 devices need 2 AES engines per ECC chip", x4.aes_units_per_ecc_chip == 2),
        TrendResult("x8 devices need 3 AES engines per ECC chip", x8.aes_units_per_ecc_chip == 3),
        TrendResult(
            "SecDDR area (logic + attestation) stays under the 1.5 mm^2 budget",
            area.total_mm2(3) < 1.5,
        ),
    ]
    if len(power_rows) > 2:
        trends.append(TrendResult(
            "the DDR5 data point stays below 5% per-rank overhead",
            power_rows[2].overhead_per_rank_percent < 5.0,
        ))
    return FigureArtifact(
        key="table2",
        title="Table II: AES engine power overhead",
        paper_ref="Table II / Section V-B",
        columns=[
            "configuration",
            "aes_units_per_ecc_chip",
            "aes_power_per_ecc_chip_mw",
            "dram_chip_power_mw",
            "overhead_per_rank_percent",
        ],
        rows=rows,
        summary={"secddr_area_mm2": area.total_mm2(3)},
        deltas=[
            PaperDelta("x4 AES power per ECC chip", x4.aes_power_per_ecc_chip_mw, 70.8, " mW"),
            PaperDelta("x8 AES power per ECC chip", x8.aes_power_per_ecc_chip_mw, 106.3, " mW"),
            PaperDelta("x4 per-rank power overhead", x4.overhead_per_rank_percent, 2.1, "%"),
            PaperDelta("x8 per-rank power overhead", x8.overhead_per_rank_percent, 2.3, "%"),
        ],
        trends=trends,
    )


# ----------------------------------------------------------------------
# Figure 6: headline normalized performance.
def _fig6_comparisons(ctx: FigureContext) -> Dict[str, Comparison]:
    return {"main": Comparison(FIG6_CONFIGURATIONS, ctx.all_workloads(), BASELINE, ctx.experiment)}


def _fig6_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    comparison = runs["main"]
    ctr_gain = comparison.speedup_over("secddr_ctr", "integrity_tree_64")
    xts_gain = comparison.speedup_over("secddr_xts", "integrity_tree_64")
    ctr_vs_upper = comparison.gmean("secddr_ctr") / comparison.gmean("encrypt_only_ctr")
    xts_vs_upper = comparison.gmean("secddr_xts") / comparison.gmean("encrypt_only_xts")
    return FigureArtifact(
        key="fig6",
        title="Figure 6: normalized IPC of the main configurations (baseline = 1.0)",
        paper_ref="Figure 6",
        columns=["workload"] + list(comparison.configurations),
        rows=_comparison_rows(comparison),
        summary=_gmean_summary(comparison),
        deltas=[
            PaperDelta("SecDDR+CTR over 64-ary tree (gmean all)", 100 * (ctr_gain - 1), 9.6, "%"),
            PaperDelta("SecDDR+XTS over 64-ary tree (gmean all)", 100 * (xts_gain - 1), 18.8, "%"),
        ],
        trends=[
            TrendResult("SecDDR+CTR beats the 64-ary integrity tree", ctr_gain > 1.0),
            TrendResult("SecDDR+XTS beats the 64-ary integrity tree", xts_gain > 1.0),
            TrendResult("SecDDR+XTS within 5% of its encrypt-only upper bound", xts_vs_upper > 0.95),
            TrendResult("SecDDR+CTR within 7% of its encrypt-only upper bound", ctr_vs_upper > 0.93),
        ],
    )


# ----------------------------------------------------------------------
# Figure 7: metadata-cache behaviour under the tree.
def _fig7_comparisons(ctx: FigureContext) -> Dict[str, Comparison]:
    # Figure 7 plots raw tree results, so the tree is its own baseline.
    tree = "integrity_tree_64"
    return {"tree": Comparison([tree], ctx.all_workloads(), tree, ctx.experiment)}


def _fig7_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    tree = runs["tree"]
    results = tree.results[tree.baseline]
    rows = [
        {
            "workload": workload,
            "llc_mpki": WORKLOAD_REGISTRY[workload].mpki,
            "metadata_miss_rate": result.stat("metadata_miss_rate"),
            "metadata_mpki": result.stat("metadata_mpki"),
        }
        for workload, result in results.items()
    ]
    trends = []
    high_locality = [w for w in ("namd", "povray", "exchange2", "x264") if w in results]
    low_locality = [w for w in ("mcf", "omnetpp", "pr", "sssp", "bc") if w in results]
    if high_locality and low_locality:
        avg_high = sum(results[w].stat("metadata_miss_rate") for w in high_locality) / len(high_locality)
        avg_low = sum(results[w].stat("metadata_miss_rate") for w in low_locality) / len(low_locality)
        trends.append(TrendResult(
            "random/graph workloads defeat the metadata cache; streaming ones do not",
            avg_low > avg_high,
        ))
    return FigureArtifact(
        key="fig7",
        title="Figure 7: metadata cache behaviour (64-ary tree configuration)",
        paper_ref="Figure 7",
        columns=["workload", "llc_mpki", "metadata_miss_rate", "metadata_mpki"],
        rows=rows,
        trends=trends,
    )


# ----------------------------------------------------------------------
# Figure 8: tree-arity and counter-packing sensitivity.
FIG8_POINTS = (8, 64, 128)
#: One comparison per arity group, then one per packing group.  The packing
#: groups reuse the arity groups' SecDDR / encrypt-only configurations, so
#: their jobs dedup against the arity ones.
FIG8_GROUPS = {
    **{"arity/%d" % point: arity_group(point) for point in FIG8_POINTS},
    **{"packing/%d" % point: packing_group(point) for point in FIG8_POINTS},
}


def _fig8_comparisons(ctx: FigureContext) -> Dict[str, Comparison]:
    workloads = ctx.memory_intensive()
    return {
        name: Comparison(list(group.values()), workloads, BASELINE, ctx.experiment)
        for name, group in FIG8_GROUPS.items()
    }


def _fig8_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    gmeans = {
        name: {role: runs[name].gmean(config) for role, config in group.items()}
        for name, group in FIG8_GROUPS.items()
    }
    arity = {point: gmeans["arity/%d" % point] for point in FIG8_POINTS}
    packing = {point: gmeans["packing/%d" % point] for point in FIG8_POINTS}
    rows: List[Dict[str, object]] = []
    for value, roles in arity.items():
        rows.append({
            "axis": "arity", "value": value,
            "tree": roles["tree"], "secddr": roles["secddr"],
            "encrypt_only": roles["encrypt_only"],
        })
    for value, roles in packing.items():
        rows.append({
            "axis": "packing", "value": value,
            "tree": None, "secddr": roles["secddr"], "encrypt_only": roles["encrypt_only"],
        })
    trends = [
        TrendResult(
            "the 8-ary hash tree is the worst integrity mechanism",
            arity[8]["tree"] < arity[64]["tree"],
        ),
        TrendResult(
            "SecDDR never loses to the tree at any arity",
            all(v["secddr"] >= v["tree"] * 0.98 for v in arity.values()),
        ),
        TrendResult(
            "SecDDR tracks its encrypt-only upper bound at every arity and packing",
            all(
                v["secddr"] <= v["encrypt_only"] * 1.05
                for sweep in (arity, packing)
                for v in sweep.values()
            ),
        ),
        TrendResult(
            "64- and 128-counter packings perform similarly",
            abs(packing[64]["secddr"] - packing[128]["secddr"]) < 0.1,
        ),
    ]
    return FigureArtifact(
        key="fig8",
        title="Figure 8: tree-arity and counter-packing sensitivity (gmean, memory-intensive)",
        paper_ref="Figure 8",
        columns=["axis", "value", "tree", "secddr", "encrypt_only"],
        rows=rows,
        trends=trends,
    )


# ----------------------------------------------------------------------
# Figures 10 and 12: SecDDR vs. InvisiMem.
def _invisimem_artifact(
    comparison: ComparisonResult,
    key: str,
    secddr: str,
    realistic: str,
    unrealistic: str,
    title: str,
    paper_ref: str,
    paper_realistic: float,
    paper_unrealistic: float,
) -> FigureArtifact:
    over_realistic = comparison.speedup_over(secddr, realistic)
    over_unrealistic = comparison.speedup_over(secddr, unrealistic)
    return FigureArtifact(
        key=key,
        title=title,
        paper_ref=paper_ref,
        columns=["workload"] + list(comparison.configurations),
        rows=_comparison_rows(comparison),
        summary=_gmean_summary(comparison),
        deltas=[
            PaperDelta(
                "SecDDR over realistic InvisiMem (2400 MT/s)",
                100 * (over_realistic - 1), paper_realistic, "%",
            ),
            PaperDelta(
                "SecDDR over unrealistic InvisiMem (3200 MT/s)",
                100 * (over_unrealistic - 1), paper_unrealistic, "%",
            ),
        ],
        trends=[
            TrendResult("SecDDR beats the realistic InvisiMem variant", over_realistic > 1.0),
            TrendResult("SecDDR beats the unrealistic InvisiMem variant", over_unrealistic > 1.0),
            TrendResult(
                "the channel-derated variant pays at least as much as the ideal one",
                over_realistic >= over_unrealistic,
            ),
        ],
    )


def _fig10_comparisons(ctx: FigureContext) -> Dict[str, Comparison]:
    return {"main": Comparison(FIG10_CONFIGURATIONS, ctx.all_workloads(), BASELINE, ctx.experiment)}


def _fig10_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    return _invisimem_artifact(
        runs["main"], "fig10",
        secddr="secddr_xts",
        realistic="invisimem_realistic_xts",
        unrealistic="invisimem_unrealistic_xts",
        title="Figure 10: SecDDR vs InvisiMem (all AES-XTS), normalized IPC",
        paper_ref="Figure 10",
        paper_realistic=7.2, paper_unrealistic=2.9,
    )


def _fig12_comparisons(ctx: FigureContext) -> Dict[str, Comparison]:
    return {"main": Comparison(FIG12_CONFIGURATIONS, ctx.all_workloads(), BASELINE, ctx.experiment)}


def _fig12_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    return _invisimem_artifact(
        runs["main"], "fig12",
        secddr="secddr_ctr",
        realistic="invisimem_realistic_ctr",
        unrealistic="invisimem_unrealistic_ctr",
        title="Figure 12: SecDDR vs InvisiMem (counter-mode encryption), normalized IPC",
        paper_ref="Figure 12",
        paper_realistic=16.6, paper_unrealistic=9.4,
    )


# ----------------------------------------------------------------------
# Attack-detection matrix (Figures 1 & 3 / Section III claims).
REPLAY_STYLE_ATTACKS = (
    "bus_replay",
    "address_corruption",
    "write_drop",
    "write_to_read_conversion",
    "dimm_substitution",
)


def _attacks_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    results = run_standard_campaign()
    matrix = AttackCampaign.summarize(results)
    attacks = sorted({r.attack for r in results})
    configs = list(matrix)
    rows = [
        {"attack": attack, **{config: matrix[config].get(attack, "-") for config in configs}}
        for attack in attacks
    ]
    secddr_detects_all = all(v == "detected" for v in matrix["secddr"].values())
    baseline_falls = all(
        matrix["baseline_no_rap"][attack] == "succeeded" for attack in REPLAY_STYLE_ATTACKS
    )
    no_ewcrc_gap_only = (
        matrix["secddr_no_ewcrc"]["address_corruption"] == "succeeded"
        and all(
            outcome == "detected"
            for attack, outcome in matrix["secddr_no_ewcrc"].items()
            if attack != "address_corruption"
        )
    )
    corruption_caught = all(
        matrix[config]["rowhammer_bitflips"] == "detected"
        and matrix[config]["read_data_tamper"] == "detected"
        for config in matrix
    )
    detected = sum(1 for r in results if r.configuration == "secddr" and r.detected)
    total = sum(1 for r in results if r.configuration == "secddr")
    return FigureArtifact(
        key="attacks",
        title="Attack-detection matrix (functional SecDDR model, real cryptography)",
        paper_ref="Figures 1 & 3 / Section III",
        columns=["attack"] + configs,
        rows=rows,
        summary={"secddr_detected": float(detected), "secddr_attacks_total": float(total)},
        trends=[
            TrendResult("full SecDDR detects every attack", secddr_detects_all),
            TrendResult("the no-replay-protection baseline falls to every replay-style attack",
                        baseline_falls),
            TrendResult("without eWCRC only the misdirected-write attack still succeeds",
                        no_ewcrc_gap_only),
            TrendResult("data corruption is caught by every MAC-protected configuration",
                        corruption_caught),
        ],
    )


# ----------------------------------------------------------------------
# Section III security arithmetic.
def _security_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    report = SecurityAnalysis().report()
    rows = [{"quantity": key, "value": value} for key, value in report.items()]

    def approx(measured: float, paper: float, rel: float) -> bool:
        return abs(measured - paper) <= rel * paper
    return FigureArtifact(
        key="security",
        title="Security analysis (Sections III-B and III-C)",
        paper_ref="Sections III-B / III-C",
        columns=["quantity", "value"],
        rows=rows,
        deltas=[
            PaperDelta("CCCA error interval @ BER 1e-16",
                       report["ccca_error_interval_days_worst_ber"], 11.13, " days"),
            PaperDelta("eWCRC brute-force attempts (50%)",
                       report["ewcrc_attempts_for_50pct"], 4.5e4),
            PaperDelta("brute-force duration @ BER 1e-16",
                       report["bruteforce_years_worst_ber"], 1385, " years"),
        ],
        trends=[
            TrendResult("CCCA natural-error interval reproduces ~11.13 days",
                        approx(report["ccca_error_interval_days_worst_ber"], 11.13, 0.05)),
            TrendResult("eWCRC brute-force effort reproduces ~4.5e4 attempts",
                        approx(report["ewcrc_attempts_for_50pct"], 4.5e4, 0.02)),
            TrendResult("brute-force duration @ worst-case BER reproduces ~1,385 years",
                        approx(report["bruteforce_years_worst_ber"], 1385, 0.05)),
            TrendResult("brute-force duration @ realistic BER reproduces ~1.38e8 years",
                        approx(report["bruteforce_years_realistic_ber"], 1.38e8, 0.05)),
            TrendResult("a 1,000-node x 16-channel parallel attacker still needs > 80,000 years",
                        report["bruteforce_years_parallel_1000x16"] > 80_000),
            TrendResult("the 64-bit transaction counter lasts > 500 years at 1 txn/ns",
                        report["counter_overflow_years"] > 500),
        ],
    )


# ----------------------------------------------------------------------
# Scalability with protected capacity (Sections I / II-D).
SCALABILITY_CAPACITIES = (16 * GB, 64 * GB, 256 * GB, 1024 * GB)
SCALABILITY_MEASURED_WORKLOADS = ("mcf", "pr")
SCALABILITY_MEASURED_CONFIGURATIONS = ("integrity_tree_64", "secddr_ctr", "secddr_xts")


def _scalability_comparisons(ctx: FigureContext) -> Dict[str, Comparison]:
    # The simulated companion of the analytic sweep, at the
    # (capacity-independent) simulator scale.
    return {"measured": Comparison(
        SCALABILITY_MEASURED_CONFIGURATIONS, SCALABILITY_MEASURED_WORKLOADS, BASELINE, ctx.experiment,
    )}


def _scalability_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    analytic = scalability_sweep(capacities_bytes=SCALABILITY_CAPACITIES)
    rows = [
        {
            "capacity_gib": capacity // GB,
            "tree64_extra_accesses": points["counter_tree"].worst_case_extra_accesses,
            "hash8_extra_accesses": points["hash_merkle_tree"].worst_case_extra_accesses,
            "secddr_ctr_extra_accesses": points["secddr_ctr"].worst_case_extra_accesses,
            "secddr_xts_extra_accesses": points["secddr_xts"].worst_case_extra_accesses,
            "tree64_metadata_pct": 100 * points["counter_tree"].metadata_overhead_fraction,
            "hash8_metadata_pct": 100 * points["hash_merkle_tree"].metadata_overhead_fraction,
            "secddr_ctr_metadata_pct": 100 * points["secddr_ctr"].metadata_overhead_fraction,
        }
        for capacity, points in analytic.items()
    ]
    measured = runs["measured"]
    capacities = sorted(analytic)
    tree_costs = [analytic[c]["counter_tree"].worst_case_extra_accesses for c in capacities]
    secddr_costs = [analytic[c]["secddr_ctr"].worst_case_extra_accesses for c in capacities]
    return FigureArtifact(
        key="scalability",
        title="Scalability: protection cost vs. protected capacity",
        paper_ref="Sections I / II-D",
        columns=[
            "capacity_gib",
            "tree64_extra_accesses", "hash8_extra_accesses",
            "secddr_ctr_extra_accesses", "secddr_xts_extra_accesses",
            "tree64_metadata_pct", "hash8_metadata_pct", "secddr_ctr_metadata_pct",
        ],
        rows=rows,
        summary={
            "measured_gmean/%s" % config: measured.gmean(config) for config in measured.configurations
        },
        trends=[
            TrendResult("the tree's worst-case traversal cost grows with capacity",
                        tree_costs[-1] > tree_costs[0]),
            TrendResult("SecDDR+CTR stays at one extra access at every capacity",
                        secddr_costs == [1] * len(capacities)),
            TrendResult("SecDDR+XTS needs no extra accesses at any capacity",
                        all(analytic[c]["secddr_xts"].worst_case_extra_accesses == 0
                            for c in capacities)),
        ],
    )


# ----------------------------------------------------------------------
# Ablation: metadata-cache size sensitivity.
ABLATION_CACHE_WORKLOADS = ("mcf", "pr", "omnetpp")
ABLATION_CACHE_SIZES = (32 * 1024, 128 * 1024, 512 * 1024)
ABLATION_CACHE_CONFIGURATIONS = ("integrity_tree_64", "secddr_ctr", "secddr_xts")


def _ablation_cache_comparisons(ctx: FigureContext) -> Dict[str, Comparison]:
    return {
        str(size): Comparison(
            ABLATION_CACHE_CONFIGURATIONS, ABLATION_CACHE_WORKLOADS, BASELINE,
            ctx.experiment_with(metadata_cache_bytes=size),
        )
        for size in ABLATION_CACHE_SIZES
    }


def _ablation_cache_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    gmeans = {
        size: {c: runs[str(size)].gmean(c) for c in ABLATION_CACHE_CONFIGURATIONS}
        for size in ABLATION_CACHE_SIZES
    }
    rows = [
        {"metadata_cache_kb": size // 1024, **gmeans[size]}
        for size in ABLATION_CACHE_SIZES
    ]
    smallest, _, largest = ABLATION_CACHE_SIZES
    xts_values = [gmeans[size]["secddr_xts"] for size in ABLATION_CACHE_SIZES]
    return FigureArtifact(
        key="ablation_cache",
        title="Ablation: metadata cache size (gmean normalized IPC over %s)"
        % ", ".join(ABLATION_CACHE_WORKLOADS),
        paper_ref="Section IV ablation",
        columns=["metadata_cache_kb"] + list(ABLATION_CACHE_CONFIGURATIONS),
        rows=rows,
        trends=[
            TrendResult(
                "SecDDR stays ahead of the tree at every metadata cache size",
                all(
                    gmeans[size]["secddr_ctr"] > gmeans[size]["integrity_tree_64"]
                    and gmeans[size]["secddr_xts"] > gmeans[size]["integrity_tree_64"]
                    for size in ABLATION_CACHE_SIZES
                ),
            ),
            TrendResult("SecDDR+XTS is insensitive to the metadata cache size",
                        max(xts_values) - min(xts_values) < 0.05),
            TrendResult(
                "a larger cache helps the tree (or at worst leaves it unchanged)",
                gmeans[largest]["integrity_tree_64"]
                >= gmeans[smallest]["integrity_tree_64"] - 0.02,
            ),
        ],
    )


# ----------------------------------------------------------------------
# Ablation: eWCRC write-burst overhead on DDR4 vs DDR5.
ABLATION_BURST_WORKLOADS = ("lbm", "roms", "fotonik3d", "bwaves", "mcf")


def _ablation_burst_comparisons(ctx: FigureContext) -> Dict[str, Comparison]:
    return {
        "ddr4": Comparison(
            ["secddr_xts", "encrypt_only_xts"], ABLATION_BURST_WORKLOADS, BASELINE, ctx.experiment,
        ),
        "ddr5": Comparison(
            ["secddr_xts_ddr5", "encrypt_only_xts_ddr5"], ABLATION_BURST_WORKLOADS,
            "tdx_baseline_ddr5", ctx.experiment,
        ),
    }


def _ablation_burst_build(ctx: FigureContext, runs: Dict[str, ComparisonResult]) -> FigureArtifact:
    ddr4, ddr5 = runs["ddr4"], runs["ddr5"]
    rows = []
    ddr4_overheads: Dict[str, float] = {}
    for workload in ABLATION_BURST_WORKLOADS:
        ddr4_ratio = (
            ddr4.normalized["secddr_xts"][workload]
            / ddr4.normalized["encrypt_only_xts"][workload]
        )
        ddr5_ratio = (
            ddr5.normalized["secddr_xts_ddr5"][workload]
            / ddr5.normalized["encrypt_only_xts_ddr5"][workload]
        )
        ddr4_overheads[workload] = 1.0 - ddr4_ratio
        rows.append({
            "workload": workload,
            "ddr4_overhead_pct": 100 * (1 - ddr4_ratio),
            "ddr5_overhead_pct": 100 * (1 - ddr5_ratio),
        })
    ddr4_gmean = ddr4.gmean("secddr_xts") / ddr4.gmean("encrypt_only_xts")
    ddr5_gmean = ddr5.gmean("secddr_xts_ddr5") / ddr5.gmean("encrypt_only_xts_ddr5")
    return FigureArtifact(
        key="ablation_burst",
        title="Ablation: eWCRC write-burst overhead (SecDDR+XTS vs encrypt-only XTS)",
        paper_ref="Section IV-B ablation",
        columns=["workload", "ddr4_overhead_pct", "ddr5_overhead_pct"],
        rows=rows,
        summary={
            "avg_overhead_ddr4_pct": 100 * (1 - ddr4_gmean),
            "avg_overhead_ddr5_pct": 100 * (1 - ddr5_gmean),
        },
        deltas=[
            PaperDelta("worst-case (lbm) write-burst overhead on DDR4",
                       100 * ddr4_overheads["lbm"], 1.6, "%"),
        ],
        trends=[
            TrendResult("the write-burst overhead exists but stays small (< 6% gmean)",
                        0.0 <= 1.0 - ddr4_gmean < 0.06),
            TrendResult("DDR5's longer bursts never make the relative overhead worse",
                        (1.0 - ddr5_gmean) <= (1.0 - ddr4_gmean) + 0.01),
            TrendResult("the read-dominated control workload (mcf) is essentially unaffected",
                        abs(ddr4_overheads["mcf"]) < 0.05),
        ],
    )


# ----------------------------------------------------------------------
# Registration, in paper order.
register_figure(FigureSpec(
    key="table1",
    title="Table I: Configuration Parameters",
    paper_ref="Table I",
    description="The evaluated system configuration and the DDR4-3200 timing set.",
    build=_table1_build,
))
register_figure(FigureSpec(
    key="table2",
    title="Table II: AES engine power overhead",
    paper_ref="Table II / Section V-B",
    description="Analytical AES power per ECC chip, per-rank overhead, and the area budget.",
    build=_table2_build,
))
register_figure(FigureSpec(
    key="fig6",
    title="Figure 6: normalized performance of the main configurations",
    paper_ref="Figure 6",
    description="Normalized IPC of tree/SecDDR/encrypt-only (CTR and XTS) over every workload.",
    build=_fig6_build,
    comparisons=_fig6_comparisons,
))
register_figure(FigureSpec(
    key="fig7",
    title="Figure 7: metadata-cache behaviour per workload",
    paper_ref="Figure 7",
    description="Metadata cache miss rate and metadata MPKI under the 64-ary tree.",
    build=_fig7_build,
    comparisons=_fig7_comparisons,
))
register_figure(FigureSpec(
    key="fig8",
    title="Figure 8: tree-arity and counter-packing sensitivity",
    paper_ref="Figure 8",
    description="Gmean normalized IPC per tree arity and counters-per-line packing.",
    build=_fig8_build,
    comparisons=_fig8_comparisons,
))
register_figure(FigureSpec(
    key="fig10",
    title="Figure 10: SecDDR vs InvisiMem (AES-XTS)",
    paper_ref="Figure 10",
    description="SecDDR against unrealistic/realistic InvisiMem variants under AES-XTS.",
    build=_fig10_build,
    comparisons=_fig10_comparisons,
))
register_figure(FigureSpec(
    key="fig12",
    title="Figure 12: SecDDR vs InvisiMem (counter mode)",
    paper_ref="Figure 12",
    description="SecDDR against unrealistic/realistic InvisiMem variants under CTR encryption.",
    build=_fig12_build,
    comparisons=_fig12_comparisons,
))
register_figure(FigureSpec(
    key="attacks",
    title="Attack-detection matrix",
    paper_ref="Figures 1 & 3 / Section III",
    description="The standard attack campaign against baseline / SecDDR-no-eWCRC / SecDDR.",
    build=_attacks_build,
))
register_figure(FigureSpec(
    key="security",
    title="Security arithmetic",
    paper_ref="Sections III-B / III-C",
    description="CCCA error interval, eWCRC brute-force effort, counter overflow horizon.",
    build=_security_build,
))
register_figure(FigureSpec(
    key="scalability",
    title="Scalability with protected capacity",
    paper_ref="Sections I / II-D",
    description="Analytic tree-vs-SecDDR scaling from 16 GiB to 1 TiB plus measured gmeans.",
    build=_scalability_build,
    comparisons=_scalability_comparisons,
))
register_figure(FigureSpec(
    key="ablation_cache",
    title="Ablation: metadata-cache size sensitivity",
    paper_ref="Section IV ablation",
    description="Tree vs SecDDR gmean IPC with 32/128/512 KB metadata caches.",
    build=_ablation_cache_build,
    comparisons=_ablation_cache_comparisons,
))
register_figure(FigureSpec(
    key="ablation_burst",
    title="Ablation: eWCRC write-burst overhead",
    paper_ref="Section IV-B ablation",
    description="SecDDR+XTS vs encrypt-only XTS on write-heavy workloads, DDR4 and DDR5.",
    build=_ablation_burst_build,
    comparisons=_ablation_burst_comparisons,
))
