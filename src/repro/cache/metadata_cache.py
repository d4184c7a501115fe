"""The shared security-metadata cache (paper Table I: 128 KB, 8-way, 64 B).

Counter-mode encryption engines and integrity trees keep recently used
encryption-counter lines and tree nodes in a dedicated on-chip cache.  Its
hit rate determines how many *extra* DRAM accesses each demand access incurs,
which is exactly the effect Figure 7 reports per workload and the mechanism
behind the integrity tree's slowdown on low-locality workloads.

The metadata cache here is a thin wrapper over :class:`repro.cache.Cache`
that adds the "verified level" semantics an integrity tree needs: a tree node
found in the cache is trusted, so traversal can stop there (Bonsai-style
caching of verified nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.cache import AccessOutcome, Cache, CacheConfig

__all__ = ["MetadataCache", "MetadataAccessResult"]


@dataclass(frozen=True)
class MetadataAccessResult:
    """Result of a metadata lookup."""

    hit: bool
    writeback_address: Optional[int]


class MetadataCache:
    """Shared cache for encryption counters, tree nodes and MAC lines."""

    def __init__(
        self,
        size_bytes: int = 128 * 1024,
        line_bytes: int = 64,
        associativity: int = 8,
    ) -> None:
        self._cache = Cache(
            CacheConfig(
                size_bytes=size_bytes,
                line_bytes=line_bytes,
                associativity=associativity,
                name="metadata-cache",
            )
        )

    # ------------------------------------------------------------------
    @property
    def config(self):
        """Geometry of the underlying cache (sets, ways, line size)."""
        return self._cache.config

    @property
    def stats(self):
        """Underlying hit/miss statistics."""
        return self._cache.stats

    def contains(self, address: int) -> bool:
        """Non-destructive presence check (used to find the verified level)."""
        return self._cache.probe(address)

    def index_and_tag_arrays(self, addresses):
        """Vectorized ``(set_index, tag)`` columns for an address array.

        Exposes the underlying cache geometry as array arithmetic so the
        batch engine can precompute metadata-cache lookup coordinates for a
        whole trace chunk at once.
        """
        return self._cache.index_and_tag_arrays(addresses)

    def access(self, address: int, is_write: bool = False) -> MetadataAccessResult:
        """Look up a metadata line, allocating it on a miss.

        Returns whether it hit and, on a miss that evicted a dirty victim,
        the victim's address (the caller turns that into a DRAM write).
        """
        outcome, writeback = self._cache.access(address, is_write=is_write)
        return MetadataAccessResult(hit=outcome is AccessOutcome.HIT, writeback_address=writeback)

    def traverse_until_hit(self, node_addresses: List[int], dirty: bool = False) -> Tuple[List[int], List[int]]:
        """Walk tree-node addresses leaf-to-root until a cached node is found.

        Parameters
        ----------
        node_addresses:
            Tree-node line addresses ordered from the lowest (leaf-most)
            level to the highest off-chip level.  The root is on-chip and is
            never part of this list.
        dirty:
            Whether the traversal is for a write (the touched nodes become
            dirty and will generate writebacks when evicted).

        Returns
        -------
        (missed_addresses, writeback_addresses):
            The node addresses that must be fetched from DRAM (cache misses
            below the first cached level) and any dirty victim lines evicted
            while allocating them.
        """
        missed: List[int] = []
        writebacks: List[int] = []
        for address in node_addresses:
            was_cached = self._cache.probe(address)
            result = self.access(address, is_write=dirty)
            if result.writeback_address is not None:
                writebacks.append(result.writeback_address)
            if was_cached:
                # Found a verified (cached) node: traversal stops here.
                break
            missed.append(address)
        return missed, writebacks

    def flush(self) -> List[int]:
        """Clean the whole cache, returning writeback addresses."""
        return self._cache.flush_dirty_lines()

    def occupancy(self) -> int:
        """Valid metadata lines currently resident."""
        return self._cache.occupancy()
