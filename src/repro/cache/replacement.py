"""Replacement policies for the set-associative cache model."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List

__all__ = ["ReplacementPolicy", "LRUPolicy", "RandomPolicy"]


class ReplacementPolicy(ABC):
    """Chooses a victim way within one cache set."""

    @abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """Record a hit/fill touching ``way`` of ``set_index``."""

    @abstractmethod
    def choose_victim(self, set_index: int, occupied_ways: List[int], num_ways: int) -> int:
        """Return the way to evict (or an empty way if one exists)."""

    @abstractmethod
    def on_invalidate(self, set_index: int, way: int) -> None:
        """Forget recency state for an invalidated way."""


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used replacement (per-set recency stacks)."""

    def __init__(self) -> None:
        self._recency: Dict[int, List[int]] = {}

    def on_access(self, set_index: int, way: int) -> None:
        stack = self._recency.setdefault(set_index, [])
        if way in stack:
            stack.remove(way)
        stack.append(way)

    def choose_victim(self, set_index: int, occupied_ways: List[int], num_ways: int) -> int:
        # Prefer an empty way.
        for way in range(num_ways):
            if way not in occupied_ways:
                return way
        stack = self._recency.setdefault(set_index, [])
        # stack is ordered oldest -> newest; evict the oldest occupied way.
        for way in stack:
            if way in occupied_ways:
                return way
        # No recency information (shouldn't happen): evict way 0.
        return occupied_ways[0]

    def on_invalidate(self, set_index: int, way: int) -> None:
        stack = self._recency.get(set_index)
        if stack and way in stack:
            stack.remove(way)


class RandomPolicy(ReplacementPolicy):
    """Random replacement (useful as a baseline and for stress tests)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_access(self, set_index: int, way: int) -> None:
        # Random replacement keeps no recency state.
        return None

    def choose_victim(self, set_index: int, occupied_ways: List[int], num_ways: int) -> int:
        for way in range(num_ways):
            if way not in occupied_ways:
                return way
        return self._rng.choice(occupied_ways)

    def on_invalidate(self, set_index: int, way: int) -> None:
        return None
