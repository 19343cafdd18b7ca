"""Greedy block construction by merging bundles in bid order.

Each builder assembles its block from the searcher bundles offered to it plus
its own bundle, each an (owner, value, bid) offer. Bundles are added highest
current bid first; an added bundle zeroes the value (and so the bid) of every
bundle it conflicts with. The loop stops at capacity or when the best
remaining bundle has no positive value left. ``rank_offers`` ranks the offers
to every builder of a round in one call; ``build_block`` scans one builder's.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

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


def rank_offers(values: np.ndarray, bids: np.ndarray) -> np.ndarray:
    """The greedy scan order of each row of offers, whose columns are in owner order.

    Rows of ``values`` and ``bids`` are the offers to one builder. Order:
    positive-value bundles first, then bid descending, ties by lower owner
    (one stable argsort of the key ``-bid``, or ``+inf`` where the value is
    not positive). Raises unless every bid lies in [0, value].
    """
    values = np.asarray(values, dtype=float)
    bids = np.asarray(bids, dtype=float)
    bad = ~((0 <= bids) & (bids <= values))
    if bad.any():
        k = tuple(np.argwhere(bad)[0])
        raise ConfigError(f"bid must be in [0, value], got bid {bids[k]} for value {values[k]}")
    return np.argsort(np.where(values > 0, -bids, np.inf), axis=-1, kind="stable")


def build_block(
    builder: int,
    offers: Sequence[tuple[int, float, float]],
    graph: InteractionGraph,
    capacity: int | None = None,
    order: Sequence[int] | None = None,
) -> Block:
    """Merge offered ``(owner, value, bid)`` bundles into a block, greedily by current bid.

    The offers are scanned in ``order`` (indices into ``offers``, as a row of
    ``rank_offers`` gives them); by default they are ranked here. In a
    two-point graph an addition leaves every other bundle's value either
    unchanged or zero, so the order never changes and an included bundle
    keeps its offered value and bid: one ranking, then a scan that skips the
    bundles an earlier addition zeroed, picks exactly what re-sorting after
    every addition would. The input is not mutated.
    """
    if capacity is not None and capacity < 1:
        raise ConfigError(f"capacity must be >= 1 or None, got {capacity}")
    if order is None:
        offers = sorted(offers, key=itemgetter(0))
        order = rank_offers([e[1] for e in offers], [e[2] for e in offers]).tolist()

    masks = graph.conflict_masks
    entries: list[BlockEntry] = []
    blocked = 0
    for k in order:
        owner, value, bid = offers[k]
        if value <= 0:
            break
        if not blocked >> owner & 1:
            entries.append(BlockEntry(owner, value, bid))
            if len(entries) == capacity:
                break
            blocked |= masks[owner]
    return Block(builder=builder, entries=tuple(entries), capacity=capacity)
