"""Greedy block construction by merging bundles in bid order.

Each builder assembles its block from the searcher bundles it received plus
its own bundle. Bundles are added highest current bid first; an added bundle
zeroes the value (and so the bid) of every bundle it conflicts with. The loop
stops at capacity or when the best remaining bundle has no positive value
left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError
from .market import InteractionGraph


@dataclass
class PendingBundle:
    """A candidate bundle inside one builder's merge loop.

    ``bid_fraction`` is the share of the current effective value offered to
    the builder: a searcher's sigmoid bid ratio, or 1.0 for the builder's own
    bundle (it pays itself the full value).
    """

    owner: int
    effective_value: float
    bid_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.bid_fraction <= 1.0:
            raise ConfigError(f"bid fraction must be in [0, 1], got {self.bid_fraction}")

    @property
    def bid(self) -> float:
        return self.bid_fraction * self.effective_value


class BlockEntry(NamedTuple):
    owner: int
    value: float  # effective value at inclusion
    bid: float  # amount paid to the builder


@dataclass(frozen=True)
class Block:
    """An ordered tuple of included bundles for one builder."""

    builder: int
    entries: tuple[BlockEntry, ...]
    capacity: int | None = None

    def __post_init__(self):
        owners = [e.owner for e in self.entries]
        if len(set(owners)) != len(owners):
            raise ConfigError(f"duplicate bundles in block: {owners}")
        if self.capacity is not None and len(self.entries) > self.capacity:
            raise ConfigError(f"block holds {len(self.entries)} bundles, capacity {self.capacity}")

    @property
    def total_bid(self) -> float:
        """The builder's truthful auction bid: all value captured by the block."""
        return sum(e.bid for e in self.entries)

    @property
    def total_value(self) -> float:
        return sum(e.value for e in self.entries)


def build_block(
    builder: int,
    pending: list[PendingBundle],
    graph: InteractionGraph,
    capacity: int | None = None,
) -> Block:
    """Merge pending bundles into a block, greedily by current bid.

    Sort order: positive-value bundles first, then bid descending, ties by
    lower owner index. In a two-point graph an addition leaves every other
    bundle's value either unchanged or zero, so the order never changes: one
    sort, then a scan that skips the bundles an earlier addition zeroed,
    picks exactly what re-sorting after every addition would. The input list
    is not mutated.
    """
    if capacity is not None and capacity < 1:
        raise ConfigError(f"capacity must be >= 1 or None, got {capacity}")

    entries: list[BlockEntry] = []
    blocked: set[int] = set()
    for b in sorted(pending, key=lambda b: (b.effective_value <= 0, -b.bid, b.owner)):
        if b.effective_value <= 0 or len(entries) == capacity:
            break
        if b.owner not in blocked:
            entries.append(BlockEntry(b.owner, b.effective_value, b.bid))
            blocked |= graph.conflicts(b.owner)
    return Block(builder=builder, entries=tuple(entries), capacity=capacity)
