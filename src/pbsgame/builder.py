"""Greedy block construction by merging bundles in bid order.

Each builder assembles its block from the searcher bundles offered to it plus
its own bundle, each an (owner, value, bid) offer. Bundles are added highest
current bid first; an added bundle zeroes the value (and so the bid) of every
bundle it conflicts with. The loop stops at capacity or when the best
remaining bundle has no positive value left. ``rank_offers`` ranks the offers
to every builder of a round in one call, ``greedy_scan`` scans one builder's
ranked offers into included positions and a total bid, and ``build_block``
does both for one builder and returns its ``Block``.
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


def greedy_scan(
    owners: Sequence[int], values: Sequence[float], bids: Sequence[float], masks: Sequence[int],
    capacity: int | None = None,
) -> tuple[list[int], float]:
    """One builder's greedy pass over its offers, ranked as ``rank_offers`` orders them.

    Returns the positions of the included offers and their total bid, summed
    from 0 left to right as ``Block.total_bid`` sums them. In a two-point
    graph an addition leaves every other bundle's value unchanged or zero, so
    the order never changes and an included bundle keeps its offered value
    and bid; skipping the bundles an earlier addition zeroed (``masks``)
    picks what re-sorting after every addition would.
    """
    picked: list[int] = []
    total = 0
    blocked = 0
    for k, owner in enumerate(owners):
        # positive values rank first, so the first unzeroed non-positive one ends the scan
        if not blocked >> owner & 1:
            if values[k] <= 0:
                break
            picked.append(k)
            total += bids[k]
            if len(picked) == capacity:
                break
            blocked |= masks[owner]
    return picked, total


def build_block(
    builder: int,
    offers: Sequence[tuple[int, float, float]],
    graph: InteractionGraph,
    capacity: int | None = None,
) -> Block:
    """Merge offered ``(owner, value, bid)`` bundles into a block, greedily by current bid.

    The offers, in any order, are ranked by ``rank_offers`` and scanned by
    ``greedy_scan``; the included ones enter the block unchanged. The input
    is not mutated.
    """
    if capacity is not None and capacity < 1:
        raise ConfigError(f"capacity must be >= 1 or None, got {capacity}")
    offers = sorted(offers, key=itemgetter(0))
    order = rank_offers([e[1] for e in offers], [e[2] for e in offers]).tolist()
    ranked = [offers[k] for k in order]
    owners, values, bids = zip(*ranked) if ranked else ((), (), ())
    picked, _ = greedy_scan(owners, values, bids, graph.conflict_masks, capacity)
    return Block(builder, tuple(BlockEntry(*ranked[k]) for k in picked), capacity)
