"""Scalability analysis: protection cost as the protected memory grows.

The paper's central motivation (Section I / II-D) is that integrity trees do
not scale: the tree's height -- and with it the worst-case number of extra
memory accesses per demand access -- grows with the protected capacity, while
SecDDR's per-access cost is constant (at most one counter line under
counter-mode encryption, nothing under AES-XTS).  This module quantifies that
claim analytically so it can be reported and tested without running the full
simulator at terabyte scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.secure.integrity_tree import TreeGeometry, hash_merkle_tree_geometry

__all__ = [
    "ScalabilityPoint",
    "tree_scalability",
    "secddr_scalability",
    "scalability_sweep",
]

LINE_BYTES = 64
GB = 2**30


@dataclass(frozen=True)
class ScalabilityPoint:
    """Protection cost figures for one protected-memory capacity."""

    protected_bytes: int
    mechanism: str
    #: Off-chip tree levels that may have to be walked on a metadata miss
    #: (0 for SecDDR -- there is no tree).
    offchip_levels: int
    #: Worst-case extra memory accesses per demand read (cold metadata).
    worst_case_extra_accesses: int
    #: Bytes of off-chip security metadata (counters / MACs / tree nodes).
    metadata_bytes: int

    @property
    def metadata_overhead_fraction(self) -> float:
        return self.metadata_bytes / self.protected_bytes if self.protected_bytes else 0.0

    @property
    def protected_gib(self) -> float:
        return self.protected_bytes / GB


def tree_scalability(
    protected_bytes: int,
    arity: int = 64,
    counters_per_line: int = 64,
    hash_tree: bool = False,
) -> ScalabilityPoint:
    """Cost of a counter tree (or hash Merkle tree) at ``protected_bytes``."""
    data_lines = max(1, protected_bytes // LINE_BYTES)
    if hash_tree:
        geometry = hash_merkle_tree_geometry(protected_bytes, arity=arity)
        leaf_bytes = geometry.leaf_lines * LINE_BYTES  # in-memory MAC lines
        mechanism = "hash_merkle_tree_%d" % arity
    else:
        counter_lines = (data_lines + counters_per_line - 1) // counters_per_line
        geometry = TreeGeometry.build(arity, counter_lines)
        leaf_bytes = counter_lines * LINE_BYTES  # encryption-counter lines
        mechanism = "counter_tree_%d" % arity
    node_bytes = geometry.total_offchip_nodes * LINE_BYTES
    # Worst case: the leaf metadata line plus every off-chip tree level.
    worst_case = 1 + geometry.offchip_levels
    return ScalabilityPoint(
        protected_bytes=protected_bytes,
        mechanism=mechanism,
        offchip_levels=geometry.offchip_levels,
        worst_case_extra_accesses=worst_case,
        metadata_bytes=leaf_bytes + node_bytes,
    )


def secddr_scalability(
    protected_bytes: int,
    counter_mode: bool = False,
    counters_per_line: int = 64,
) -> ScalabilityPoint:
    """Cost of SecDDR at ``protected_bytes``.

    MACs live in the ECC chips (no extra storage on the data bus and no extra
    transfers); with AES-XTS there is no per-access metadata at all, with
    counter-mode encryption at most the one counter line -- independent of
    capacity, which is the whole point.
    """
    if counter_mode:
        data_lines = max(1, protected_bytes // LINE_BYTES)
        counter_lines = (data_lines + counters_per_line - 1) // counters_per_line
        return ScalabilityPoint(
            protected_bytes=protected_bytes,
            mechanism="secddr_ctr",
            offchip_levels=0,
            worst_case_extra_accesses=1,
            metadata_bytes=counter_lines * LINE_BYTES,
        )
    return ScalabilityPoint(
        protected_bytes=protected_bytes,
        mechanism="secddr_xts",
        offchip_levels=0,
        worst_case_extra_accesses=0,
        metadata_bytes=0,
    )


def scalability_sweep(
    capacities_bytes: Iterable[int] = (16 * GB, 64 * GB, 256 * GB, 1024 * GB),
    tree_arity: int = 64,
) -> Dict[int, Dict[str, ScalabilityPoint]]:
    """Compare tree vs SecDDR costs over a range of protected capacities."""
    sweep: Dict[int, Dict[str, ScalabilityPoint]] = {}
    for capacity in capacities_bytes:
        sweep[capacity] = {
            "counter_tree": tree_scalability(capacity, arity=tree_arity),
            "hash_merkle_tree": tree_scalability(capacity, arity=8, hash_tree=True),
            "secddr_ctr": secddr_scalability(capacity, counter_mode=True),
            "secddr_xts": secddr_scalability(capacity, counter_mode=False),
        }
    return sweep
