"""Integrity-tree geometry and node addressing: k-ary counter trees and hash Merkle trees.

Replay-attack protection with an integrity tree works by covering the
encryption counters (or the MACs) with a tree of counters/hashes whose root
stays on chip.  Verifying a line requires walking from the leaf metadata line
towards the root until a *cached* (already verified) node is found; updating
a line dirties the same path.  Tree height -- and therefore traversal cost --
grows with the protected memory size and shrinks with the arity, which is the
trade-off Figure 8 sweeps (8-ary hash tree, 64-ary counter tree, 128-ary
Morphable-style tree).  A tree mechanism's
:class:`~repro.secure.base.MetadataPath` carries its :class:`IntegrityTree`,
which :func:`repro.secure.configs.metadata_path` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.secure.base import MetadataLayout

__all__ = ["TreeGeometry", "IntegrityTree", "hash_merkle_tree_geometry"]

LINE_BYTES = 64


@dataclass(frozen=True)
class TreeGeometry:
    """Shape of an integrity tree.

    Attributes
    ----------
    arity:
        Children per node (64 for the baseline counter tree, 128 for the
        Morphable-style tree, 8 for the hash Merkle tree).
    leaf_lines:
        Number of level-0 metadata lines (counter lines or MAC lines) the
        tree protects.
    level_sizes:
        Number of nodes at each level above the leaves, from level 1 (just
        above the leaf metadata) up to and including the root level.
    """

    arity: int
    leaf_lines: int
    level_sizes: Tuple[int, ...]

    @property
    def offchip_levels(self) -> int:
        """Tree levels stored in memory (the root is pinned on chip)."""
        return max(0, len(self.level_sizes) - 1)

    @property
    def total_offchip_nodes(self) -> int:
        return sum(self.level_sizes[:-1]) if self.level_sizes else 0

    @classmethod
    def build(cls, arity: int, leaf_lines: int) -> "TreeGeometry":
        """Compute the level sizes for ``leaf_lines`` leaves at ``arity``."""
        if arity < 2:
            raise ValueError("tree arity must be at least 2")
        if leaf_lines < 1:
            raise ValueError("tree must protect at least one leaf line")
        sizes: List[int] = []
        current = leaf_lines
        while current > 1:
            current = (current + arity - 1) // arity
            sizes.append(current)
        if not sizes:
            sizes = [1]
        return cls(arity=arity, leaf_lines=leaf_lines, level_sizes=tuple(sizes))


def hash_merkle_tree_geometry(
    protected_bytes: int,
    arity: int = 8,
    macs_per_line: int = 8,
    line_bytes: int = LINE_BYTES,
) -> TreeGeometry:
    """Geometry of a hash Merkle tree built over in-memory MAC lines."""
    data_lines = max(1, protected_bytes // line_bytes)
    mac_lines = (data_lines + macs_per_line - 1) // macs_per_line
    return TreeGeometry.build(arity=arity, leaf_lines=mac_lines)


class IntegrityTree:
    """Node addressing and traversal paths for one integrity tree."""

    def __init__(
        self,
        geometry: TreeGeometry,
        layout: MetadataLayout,
        region_base: int | None = None,
    ) -> None:
        self.geometry = geometry
        self.layout = layout
        self.region_base = layout.tree_region_base if region_base is None else region_base
        # Byte offset of each level's node array within the tree region.
        self._level_offsets: List[int] = []
        offset = 0
        for size in geometry.level_sizes:
            self._level_offsets.append(offset)
            offset += size * LINE_BYTES
        self.region_bytes = offset

    # ------------------------------------------------------------------
    def node_address(self, level: int, node_index: int) -> int:
        """Address of node ``node_index`` at off-chip ``level`` (1-based)."""
        if level < 1 or level > len(self.geometry.level_sizes):
            raise ValueError("level %d out of range" % level)
        size = self.geometry.level_sizes[level - 1]
        if node_index < 0 or node_index >= size:
            raise ValueError("node index %d out of range for level %d" % (node_index, level))
        return self.region_base + self._level_offsets[level - 1] + node_index * LINE_BYTES

    def path_for_leaf(self, leaf_index: int) -> List[int]:
        """Tree-node addresses from just above the leaf up to below the root.

        The root itself is stored on chip and never accessed from memory, so
        it is not part of the returned path.
        """
        if leaf_index < 0 or leaf_index >= self.geometry.leaf_lines:
            raise ValueError("leaf index %d out of range" % leaf_index)
        path: List[int] = []
        index = leaf_index
        for level in range(1, len(self.geometry.level_sizes) + 1):
            index //= self.geometry.arity
            if self.geometry.level_sizes[level - 1] == 1:
                # This is the root level: on-chip, traversal stops before it.
                break
            path.append(self.node_address(level, index))
        return path

    def storage_overhead_bytes(self) -> int:
        """Bytes of memory the off-chip tree nodes occupy."""
        return self.geometry.total_offchip_nodes * LINE_BYTES
