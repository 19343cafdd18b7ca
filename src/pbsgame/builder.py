"""Greedy block construction by merging bundles in bid order.

Each builder assembles its block from the searcher bundles offered to it plus
its own bundle, each an (owner, value, bid) offer. Bundles are added highest
current bid first; an added bundle zeroes the value (and so the bid) of every
bundle it conflicts with. The loop stops at capacity or when the best
remaining bundle has no positive value left. ``rank_offers`` ranks the offers
to every builder of a round in one call, ``greedy_scan`` scans one builder's
ranked offers into included positions and a total bid, ``greedy_total`` gives
that total alone, and ``build_block`` ranks and scans for one builder and
returns its ``Block``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter
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
        return reduce(add, (e.bid for e in self.entries), 0.0)

    @property
    def total_value(self) -> float:
        return reduce(add, (e.value for e in self.entries), 0.0)


def rank_offers(values: np.ndarray, bids: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """The greedy scan order of each row of offers, whose columns are in owner order.

    Rows of ``values`` and ``bids`` are the offers to one builder. Order:
    positive-value bundles first, then bid descending, ties by lower owner
    (one stable argsort of the key ``-bid``, or ``+inf`` where the value is
    not positive), where ``positive`` is ``values > 0``.
    Raises unless every bid lies in [0, value].
    """
    values = np.asarray(values, dtype=float)
    bids = np.asarray(bids, dtype=float)
    valid = (bids >= 0) & (bids <= values)
    if not valid.all():
        k = tuple(np.argwhere(~valid)[0])
        raise ConfigError(f"bid must be in [0, value], got bid {bids[k]} for value {values[k]}")
    keys = np.where(positive, -bids, np.inf)
    return keys.argsort(axis=-1, kind="stable")


def greedy_scan(
    owners: Sequence[int], bids: Sequence[float], length: int, masks: Sequence[int],
    bits: Sequence[int], capacity: int | None = None,
) -> tuple[list[int], float]:
    """One builder's greedy pass over its offers, ranked as ``rank_offers`` orders them.

    Scans the first ``length`` offers, those of positive value, which rank
    first: the rest are never included. ``masks[a]`` holds the bundles owner
    ``a``'s bundle zeroes and ``bits[a]`` is ``1 << a``. Returns the
    positions of the included offers and their total bid, summed from 0 left
    to right as ``Block.total_bid`` sums them. In a two-point graph an
    addition leaves every other bundle's value unchanged or zero, so the
    order never changes and an included bundle keeps its offered value and
    bid; skipping the bundles an earlier addition zeroed picks what
    re-sorting after every addition would.
    """
    picked: list[int] = []
    total = 0
    blocked = 0
    for k in range(length):
        owner = owners[k]
        if not blocked & bits[owner]:
            picked.append(k)
            total += bids[k]
            if len(picked) == capacity:
                break
            blocked |= masks[owner]
    return picked, total


def greedy_total(
    owners: Sequence[int], bids: Sequence[float], length: int, masks: Sequence[int],
    bits: Sequence[int], capacity: int | None = None,
) -> float:
    """``greedy_scan``'s total alone: the same pass and the same additions in the
    same order, so the same value bit for bit, with no positions kept."""
    total = 0
    blocked = 0
    if capacity is None:
        for k in range(length):
            owner = owners[k]
            if not blocked & bits[owner]:
                total += bids[k]
                blocked |= masks[owner]
        return total
    room = capacity
    for k in range(length):
        owner = owners[k]
        if not blocked & bits[owner]:
            total += bids[k]
            room -= 1
            if not room:
                break
            blocked |= masks[owner]
    return total


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
    owners, values, bids = zip(*offers) if offers else ((), (), ())
    positive = np.greater(values, 0)
    order = rank_offers(values, bids, positive).tolist()
    length = int(np.count_nonzero(positive))
    bits = [1 << a for a in range(len(graph.weights))]
    ranked_owners, ranked_bids = [owners[k] for k in order], [bids[k] for k in order]
    picked, _ = greedy_scan(ranked_owners, ranked_bids, length, graph.conflict_masks, bits, capacity)
    return Block(builder, tuple(BlockEntry(*offers[order[k]]) for k in picked), capacity)
