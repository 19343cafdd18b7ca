"""Second-price block auction and per-round payoff settlement.

Builders submit truthful bids equal to the total value their block captures.
The winner pays the second-highest bid to the proposer, keeps the surplus, and
rebates a fraction of it to the searchers whose bundles it included, pro rata
by their bids. Every unit of captured value ends up with exactly one party, so
settlement conserves the winning block's total effective value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .builder import Block
from .errors import ConfigError


@dataclass(frozen=True)
class AuctionOutcome:
    winner: int
    winning_block: Block
    payment: float  # second-highest truthful bid, 0 with a single bidder
    bids: dict[int, float]  # builder -> truthful bid


@dataclass(frozen=True)
class Settlement:
    payoffs: tuple[float, ...]  # one entry per agent
    proposer: float

    @property
    def total(self) -> float:
        return self.proposer + sum(self.payoffs)


def run_auction(
    bids: dict[int, float], rng: np.random.Generator, block_of: Callable[[int], Block]
) -> AuctionOutcome:
    """Pick the winner at the second-highest truthful bid, from the bids alone.

    ``bids`` maps each builder to its block's total bid; only the winner's
    block is then asked for, as ``block_of(winner)``. Exact bid ties are
    broken uniformly at random among the tied builders in ``bids`` order;
    the generator is only consumed when a tie actually occurs.
    """
    if not bids:
        raise ConfigError("no builders this round; nothing to auction")
    top = max(bids.values())
    tied = [b for b, bid in bids.items() if bid == top]
    winner = tied[0] if len(tied) == 1 else int(tied[rng.integers(len(tied))])
    others = [bid for b, bid in bids.items() if b != winner]
    payment = max(others) if others else 0.0
    return AuctionOutcome(
        winner=winner, winning_block=block_of(winner), payment=payment, bids=dict(bids)
    )


def settle(outcome: AuctionOutcome, n_agents: int, rebate_ratio: float) -> Settlement:
    """Distribute the winning block's value among searchers, winner, and proposer.

    Included searchers keep their unbid value plus a pro-rata share of the
    rebate pool rebate_ratio * (total bid - payment). With no searcher bundle
    included there is nobody to rebate to and the winner keeps the full
    surplus. Losing builders and excluded searchers get 0.
    """
    payoffs = [0.0] * n_agents
    block = outcome.winning_block
    surplus = block.total_bid - outcome.payment

    searcher_entries = [e for e in block.entries if e.owner != outcome.winner]
    searcher_bid_sum = sum(e.bid for e in searcher_entries)
    rebate_pool = rebate_ratio * surplus if searcher_bid_sum > 0 else 0.0

    for entry in searcher_entries:
        share = entry.bid / searcher_bid_sum if searcher_bid_sum > 0 else 0.0
        payoffs[entry.owner] += (entry.value - entry.bid) + share * rebate_pool
    payoffs[outcome.winner] += surplus - rebate_pool

    return Settlement(payoffs=tuple(payoffs), proposer=outcome.payment)


def conservation_residual(settlement: Settlement, outcome: AuctionOutcome) -> float:
    """Absolute gap between distributed payoffs and the block's captured value."""
    return abs(settlement.total - outcome.winning_block.total_value)
