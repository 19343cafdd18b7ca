"""Second-price block auction and per-round payoff settlement.

Builders submit truthful bids equal to the total value their block captures.
The winner pays the second-highest bid to the proposer, keeps the surplus, and
rebates a fraction of it to the searchers whose bundles it included, pro rata
by their bids. Every unit of captured value ends up with exactly one party, so
settlement conserves the winning block's total effective value. The round calls
``second_price`` and ``distribute`` on plain values; ``run_auction`` and ``settle`` wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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


def second_price(totals: Sequence[float], rng: np.random.Generator) -> tuple[int, float]:
    """The winning position in ``totals`` and its payment, the second-highest total.

    An exact tie is broken uniformly at random among the tied positions in
    order; the generator is only consumed when a tie actually occurs.
    """
    if not totals:
        raise ConfigError("no builders this round; nothing to auction")
    top = max(totals)
    tied = [k for k, total in enumerate(totals) if total == top]
    winner = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
    return winner, max(totals[:winner] + totals[winner + 1 :], default=0.0)


def distribute(winner: int, payment: float, total_bid: float, entries: Sequence[tuple[int, float, float]],
               rebate_ratio: float, n_agents: int) -> list[float]:
    """Every agent's payoff from the winning block's ``(owner, value, bid)`` entries.

    Included searchers keep their unbid value plus a pro-rata share of the
    rebate pool rebate_ratio * (total bid - payment). With no searcher bundle
    included there is nobody to rebate to and the winner keeps the full
    surplus. Losing builders and excluded searchers get 0.
    """
    payoffs = [0.0] * n_agents
    surplus = total_bid - payment
    searcher_entries = [e for e in entries if e[0] != winner]
    searcher_bid_sum = sum(e[2] for e in searcher_entries)
    rebate_pool = rebate_ratio * surplus if searcher_bid_sum > 0 else 0.0
    for owner, value, bid in searcher_entries:
        share = bid / searcher_bid_sum if searcher_bid_sum > 0 else 0.0
        payoffs[owner] += (value - bid) + share * rebate_pool
    payoffs[winner] += surplus - rebate_pool
    return payoffs


def conservation_residual(distributed: float, captured: float) -> float:
    """Absolute gap between the value paid out (payoffs plus payment) and the value captured."""
    return abs(distributed - captured)


def run_auction(bids: dict[int, float], rng: np.random.Generator,
                block_of: Callable[[int], Block]) -> AuctionOutcome:
    """``second_price`` over ``bids``, each builder's block total, ties drawn in ``bids``
    order; only the winner's block is then asked for, as ``block_of(winner)``."""
    position, payment = second_price(list(bids.values()), rng)
    winner = list(bids)[position]
    return AuctionOutcome(winner, block_of(winner), payment, dict(bids))


def settle(outcome: AuctionOutcome, n_agents: int, rebate_ratio: float) -> Settlement:
    """``distribute`` the winning block's value among searchers, winner, and proposer."""
    winner, block, payment = outcome.winner, outcome.winning_block, outcome.payment
    payoffs = distribute(winner, payment, block.total_bid, block.entries, rebate_ratio, n_agents)
    return Settlement(tuple(payoffs), payment)
