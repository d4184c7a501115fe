"""Set-associative cache model with write-back/write-allocate semantics."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.replacement import LRUPolicy, ReplacementPolicy

__all__ = ["CacheConfig", "CacheStats", "AccessOutcome", "Cache"]


class AccessOutcome(enum.Enum):
    """Result of a cache lookup."""

    HIT = "hit"
    MISS = "miss"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy configuration for one cache."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                "%s: size %d is not divisible by line*assoc"
                % (self.name, self.size_bytes)
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass
class CacheStats:
    """Hit/miss/writeback counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class _Line:
    tag: int
    dirty: bool = False


class Cache:
    """A write-back, write-allocate set-associative cache.

    The model tracks only tags and dirty bits (no data); the functional model
    keeps data in :class:`repro.dram.storage.DramStorage` and the timing model
    needs only hit/miss/writeback decisions.
    """

    def __init__(self, config: CacheConfig, policy: Optional[ReplacementPolicy] = None) -> None:
        self.config = config
        self.policy = policy or LRUPolicy()
        self._num_sets = config.num_sets
        self._line_bytes = config.line_bytes
        # sets[set_index][way] -> _Line
        self._sets: Dict[int, Dict[int, _Line]] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        line_address = address // self._line_bytes
        return line_address % self._num_sets, line_address // self._num_sets

    def index_and_tag_arrays(self, addresses) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(set_index, tag)`` computation over an address array.

        The batch simulation engine precomputes these columns for whole trace
        chunks; element ``i`` matches ``_index_and_tag(addresses[i])``.
        """
        lines = np.asarray(addresses, dtype=np.int64) // self._line_bytes
        return lines % self._num_sets, lines // self._num_sets

    def _find_way(self, set_index: int, tag: int) -> Optional[int]:
        ways = self._sets.get(set_index, {})
        for way, line in ways.items():
            if line.tag == tag:
                return way
        return None

    # ------------------------------------------------------------------
    def probe(self, address: int) -> bool:
        """Non-destructive lookup (no statistics, no recency update)."""
        set_index, tag = self._index_and_tag(address)
        return self._find_way(set_index, tag) is not None

    def access(self, address: int, is_write: bool = False) -> Tuple[AccessOutcome, Optional[int]]:
        """Access the cache; returns (outcome, victim_writeback_address).

        On a miss the line is allocated (write-allocate); if the victim is
        dirty its line address is returned so the caller can issue the
        writeback to the next level.
        """
        set_index, tag = self._index_and_tag(address)
        ways = self._sets.setdefault(set_index, {})
        way = self._find_way(set_index, tag)

        if way is not None:
            self.stats.hits += 1
            self.policy.on_access(set_index, way)
            if is_write:
                ways[way].dirty = True
            return AccessOutcome.HIT, None

        self.stats.misses += 1
        victim_writeback: Optional[int] = None
        victim_way = self.policy.choose_victim(set_index, list(ways.keys()), self.config.associativity)
        if victim_way in ways:
            victim = ways[victim_way]
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
                victim_writeback = (victim.tag * self._num_sets + set_index) * self._line_bytes
            self.policy.on_invalidate(set_index, victim_way)
        ways[victim_way] = _Line(tag=tag, dirty=is_write)
        self.policy.on_access(set_index, victim_way)
        return AccessOutcome.MISS, victim_writeback

    def invalidate(self, address: int) -> bool:
        """Drop ``address`` from the cache; returns True if it was present."""
        set_index, tag = self._index_and_tag(address)
        way = self._find_way(set_index, tag)
        if way is None:
            return False
        del self._sets[set_index][way]
        self.policy.on_invalidate(set_index, way)
        return True

    def flush_dirty_lines(self) -> List[int]:
        """Write back and clean every dirty line; returns their addresses."""
        writebacks: List[int] = []
        for set_index, ways in self._sets.items():
            for line in ways.values():
                if line.dirty:
                    line.dirty = False
                    writebacks.append((line.tag * self._num_sets + set_index) * self._line_bytes)
        return writebacks

    def occupancy(self) -> int:
        """Number of valid lines currently cached."""
        return sum(len(ways) for ways in self._sets.values())
