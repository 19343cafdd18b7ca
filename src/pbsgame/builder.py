"""Greedy block construction by merging bundles in bid order.

Each builder assembles its block from the searcher bundles offered to it plus
its own bundle, each a ``BlockEntry`` of owner, value and bid. Bundles are
added highest current bid first; an added bundle zeroes the value (and so the
bid) of every bundle it conflicts with. The loop stops at capacity or when the
best remaining bundle has no positive value left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError
from .market import InteractionGraph


class BlockEntry(NamedTuple):
    """A bundle offered to a builder, and as included in its block.

    ``bid`` is the amount paid to the builder: a searcher's sigmoid bid ratio
    times ``value``, or the whole value for the builder's own bundle.
    """

    owner: int
    value: float
    bid: float


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
    offers: list[BlockEntry],
    graph: InteractionGraph,
    capacity: int | None = None,
) -> Block:
    """Merge offered bundles into a block, greedily by current bid.

    Sort order: positive-value bundles first, then bid descending, ties by
    lower owner index. In a two-point graph an addition leaves every other
    bundle's value either unchanged or zero, so the order never changes and
    an included bundle keeps its offered value and bid: one sort, then a scan
    that skips the bundles an earlier addition zeroed, picks exactly what
    re-sorting after every addition would. The block holds the included
    offers themselves; the input list is not mutated.
    """
    if capacity is not None and capacity < 1:
        raise ConfigError(f"capacity must be >= 1 or None, got {capacity}")
    for e in offers:
        if not 0 <= e.bid <= e.value:
            raise ConfigError(f"bid must be in [0, value], got {e}")

    entries: list[BlockEntry] = []
    blocked: set[int] = set()
    for e in sorted(offers, key=lambda e: (e.value <= 0, -e.bid, e.owner)):
        if e.value <= 0 or len(entries) == capacity:
            break
        if e.owner not in blocked:
            entries.append(e)
            blocked |= graph.conflicts(e.owner)
    return Block(builder=builder, entries=tuple(entries), capacity=capacity)
