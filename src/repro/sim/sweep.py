"""Parameter sweeps: tree arity and counter packing (Figure 8).

The canonical points (8, 64, 128) use the named registry configurations, so
their cache keys line up with the figure benchmarks.  Any *other* value is
supported too: its configuration group is derived on the fly from the 64-ary
bases with :meth:`SystemConfiguration.derive`, which flows through the
runner and the result cache exactly like a named configuration.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.secure.configs import CONFIGURATIONS, ConfigurationLike
from repro.sim.engines import EngineLike
from repro.sim.experiment import Comparison, ExperimentConfig, run_comparisons
from repro.sim.runner import ProgressHook, ResultCache, resolve_cache
from repro.workloads.registry import memory_intensive_workloads

__all__ = [
    "ARITY_GROUPS",
    "PACKING_GROUPS",
    "arity_group",
    "packing_group",
    "Sweep",
    "arity_sweep",
    "counter_packing_sweep",
]

#: Figure 8 groups: for each arity, the tree configuration and the SecDDR /
#: encrypt-only configurations using the matching counter packing.
ARITY_GROUPS: Dict[int, Dict[str, str]] = {
    8: {
        "tree": "integrity_tree_8_hash",
        "secddr": "secddr_ctr_pack8",
        "encrypt_only": "encrypt_only_ctr_pack8",
    },
    64: {
        "tree": "integrity_tree_64",
        "secddr": "secddr_ctr",
        "encrypt_only": "encrypt_only_ctr",
    },
    128: {
        "tree": "integrity_tree_128",
        "secddr": "secddr_ctr_pack128",
        "encrypt_only": "encrypt_only_ctr_pack128",
    },
}

#: Right half of Figure 8: SecDDR / encrypt-only per counters-per-line value.
PACKING_GROUPS: Dict[int, Dict[str, str]] = {
    8: {"secddr": "secddr_ctr_pack8", "encrypt_only": "encrypt_only_ctr_pack8"},
    64: {"secddr": "secddr_ctr", "encrypt_only": "encrypt_only_ctr"},
    128: {"secddr": "secddr_ctr_pack128", "encrypt_only": "encrypt_only_ctr_pack128"},
}


def _check_sweep_value(kind: str, value: int) -> None:
    if not isinstance(value, int) or value < 2:
        raise ValueError("%s must be an integer >= 2, got %r" % (kind, value))


def arity_group(arity: int) -> Dict[str, ConfigurationLike]:
    """The {tree, secddr, encrypt_only} group for ``arity``.

    Canonical arities map to the named Figure 8 configurations; any other
    value derives a counter tree of that arity (with matching counter
    packing) plus packing-matched SecDDR / encrypt-only variants.
    """
    if arity in ARITY_GROUPS:
        return dict(ARITY_GROUPS[arity])
    _check_sweep_value("arity", arity)
    return {
        "tree": CONFIGURATIONS["integrity_tree_64"].derive(
            tree_arity=arity, counters_per_line=arity
        ),
        "secddr": CONFIGURATIONS["secddr_ctr"].derive(counters_per_line=arity),
        "encrypt_only": CONFIGURATIONS["encrypt_only_ctr"].derive(counters_per_line=arity),
    }


def packing_group(packing: int) -> Dict[str, ConfigurationLike]:
    """The {secddr, encrypt_only} group for ``packing`` counters per line."""
    if packing in PACKING_GROUPS:
        return dict(PACKING_GROUPS[packing])
    _check_sweep_value("packing", packing)
    return {
        "secddr": CONFIGURATIONS["secddr_ctr"].derive(counters_per_line=packing),
        "encrypt_only": CONFIGURATIONS["encrypt_only_ctr"].derive(counters_per_line=packing),
    }


def _derive_group(
    group: Dict[str, ConfigurationLike], overrides: Optional[Mapping[str, object]]
) -> Dict[str, ConfigurationLike]:
    """Apply ``derive()`` overrides to every configuration in a sweep group.

    The normalization baseline is *not* part of the group, so it keeps its
    canonical parameters — overrides shift the evaluated mechanisms only.
    """
    if not overrides:
        return group
    return {
        role: (CONFIGURATIONS[config] if isinstance(config, str) else config).derive(**overrides)
        for role, config in group.items()
    }


class Sweep:
    """One Figure 8 sweep: per swept value, a group of configurations by role.

    Each value's group -- after ``derive_overrides`` -- is compared over the
    same workloads (default: the memory-intensive subset, as in the paper's
    summary bars).  :attr:`comparisons` lists one
    :class:`~repro.sim.experiment.Comparison` per value, in order, for
    :func:`~repro.sim.experiment.run_comparisons`; :meth:`summary` reads
    their outcomes back.
    """

    def __init__(
        self,
        groups: Mapping[int, Dict[str, ConfigurationLike]],
        workloads: Optional[Iterable[str]] = None,
        experiment: Optional[ExperimentConfig] = None,
        baseline: ConfigurationLike = "tdx_baseline",
        derive_overrides: Optional[Mapping[str, object]] = None,
    ) -> None:
        workload_list = list(workloads) if workloads is not None else memory_intensive_workloads()
        #: Per value, each role's configuration name.
        self.roles: Dict[int, Dict[str, str]] = {}
        self.comparisons: List[Comparison] = []
        for value, group in groups.items():
            group = _derive_group(group, derive_overrides)
            self.roles[value] = {
                role: config if isinstance(config, str) else config.name
                for role, config in group.items()
            }
            self.comparisons.append(
                Comparison(list(group.values()), workload_list, baseline, experiment)
            )

    def summary(self, outcomes: Sequence[List[object]]) -> Dict[int, Dict[str, float]]:
        """``{value: {role: gmean normalized IPC}}`` from the comparisons' outcomes."""
        summary: Dict[int, Dict[str, float]] = {}
        for (value, roles), comparison, cells in zip(
            self.roles.items(), self.comparisons, outcomes
        ):
            table = comparison.normalize(cells)
            summary[value] = {role: table.gmean(name) for role, name in roles.items()}
        return summary


def arity_sweep(
    workloads: Optional[Iterable[str]] = None,
    arities: Iterable[int] = (8, 64, 128),
    experiment: Optional[ExperimentConfig] = None,
    baseline: ConfigurationLike = "tdx_baseline",
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressHook] = None,
    derive_overrides: Optional[Mapping[str, object]] = None,
    engine: Optional[EngineLike] = None,
) -> Dict[int, Dict[str, float]]:
    """Figure 8: gmean normalized IPC per arity for tree/SecDDR/encrypt-only.

    Returns ``{arity: {"tree": g, "secddr": g, "encrypt_only": g}}`` where
    each value is the geometric mean of normalized IPC over ``workloads``
    (default: the memory-intensive subset, as in the paper's summary bars).

    The per-arity comparisons run in one pass, so the baseline is simulated
    once per workload and reused across every arity.
    """
    sweep = Sweep(
        {arity: arity_group(arity) for arity in arities},
        workloads, experiment, baseline, derive_overrides,
    )
    cache = resolve_cache(cache, cache_dir)
    return sweep.summary(run_comparisons(
        sweep.comparisons, jobs=jobs, cache=cache, progress=progress, engine=engine
    ).outcomes)


def counter_packing_sweep(
    workloads: Optional[Iterable[str]] = None,
    packings: Iterable[int] = (8, 64, 128),
    experiment: Optional[ExperimentConfig] = None,
    baseline: ConfigurationLike = "tdx_baseline",
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressHook] = None,
    derive_overrides: Optional[Mapping[str, object]] = None,
    engine: Optional[EngineLike] = None,
) -> Dict[int, Dict[str, float]]:
    """Right half of Figure 8: SecDDR / encrypt-only vs. counters per line.

    Shares its cache keys with :func:`arity_sweep` (the packing groups reuse
    the same configurations), so running both sweeps against one cache only
    simulates each unique (workload, configuration) pair once.
    """
    sweep = Sweep(
        {packing: packing_group(packing) for packing in packings},
        workloads, experiment, baseline, derive_overrides,
    )
    cache = resolve_cache(cache, cache_dir)
    return sweep.summary(run_comparisons(
        sweep.comparisons, jobs=jobs, cache=cache, progress=progress, engine=engine
    ).outcomes)
