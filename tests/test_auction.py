import numpy as np
import pytest

from pbsgame.auction import AuctionOutcome, conservation_residual, run_auction, settle
from pbsgame.builder import Block, BlockEntry
from pbsgame.errors import ConfigError


def block_with_bid(builder, bid):
    return Block(builder, (BlockEntry(builder, bid, bid),))


def auction(blocks, rng):
    """The auction over whole blocks: each block's total bid, then the winner's block."""
    return run_auction({b: block.total_bid for b, block in blocks.items()}, rng, blocks.__getitem__)


def test_second_price_textbook():
    blocks = {0: block_with_bid(0, 5.0), 1: block_with_bid(1, 3.0), 2: block_with_bid(2, 1.0)}
    outcome = auction(blocks, np.random.default_rng(0))
    assert outcome.winner == 0
    assert outcome.payment == 3.0
    assert outcome.bids == {0: 5.0, 1: 3.0, 2: 1.0}
    assert outcome.winning_block is blocks[0]


def test_only_the_winners_block_is_asked_for():
    asked = []

    def block_of(builder):
        asked.append(builder)
        return block_with_bid(builder, 3.0)

    outcome = run_auction({0: 1.0, 1: 3.0, 2: 2.0}, np.random.default_rng(0), block_of)
    assert asked == [1]
    assert (outcome.winner, outcome.payment) == (1, 2.0)


def test_single_bidder_pays_nothing():
    outcome = auction({4: block_with_bid(4, 5.0)}, np.random.default_rng(0))
    assert outcome.winner == 4
    assert outcome.payment == 0.0


def test_empty_auction_rejected():
    with pytest.raises(ConfigError):
        auction({}, np.random.default_rng(0))


def test_tied_bids_split_evenly_over_seeds():
    blocks = {0: block_with_bid(0, 4.0), 1: block_with_bid(1, 4.0)}
    wins = 0
    for seed in range(10_000):
        outcome = auction(blocks, np.random.default_rng(seed))
        assert outcome.payment == 4.0
        wins += outcome.winner == 0
    assert 0.45 <= wins / 10_000 <= 0.55


def test_tie_draw_is_over_the_tied_builders_in_bids_order():
    # a tied winner pays the tied bid and gains nothing, so no payoff shows
    # which tied builder won; pin the draw itself
    bids = {0: 1.0, 1: 4.0, 2: 4.0, 3: 4.0}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        outcome = run_auction(bids, rng, lambda b: block_with_bid(b, bids[b]))
        expected = np.random.default_rng(seed)
        assert outcome.winner == [1, 2, 3][expected.integers(3)]
        assert rng.bit_generator.state == expected.bit_generator.state
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    auction({0: block_with_bid(0, 1.0), 1: block_with_bid(1, 2.0)}, rng)
    assert rng.bit_generator.state == before


def one_builder_one_searcher(alpha):
    # builder 0 own value 0.2; searcher 1 value 0.1 at beta 0.5; single bidder
    block = Block(0, (BlockEntry(0, 0.2, 0.2), BlockEntry(1, 0.1, 0.05)))
    outcome = AuctionOutcome(winner=0, winning_block=block, payment=0.0, bids={0: 0.25})
    return settle(outcome, 2, alpha), outcome


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
def test_settle_single_builder_example(alpha):
    settlement, outcome = one_builder_one_searcher(alpha)
    # total bids 0.25, payment 0: the searcher keeps 0.05 plus the full rebate share
    assert settlement.payoffs[1] == pytest.approx(0.05 + alpha * 0.25)
    assert settlement.payoffs[0] == pytest.approx((1 - alpha) * 0.25)
    assert settlement.proposer == 0.0
    assert conservation_residual(settlement.total, outcome.winning_block.total_value) < 1e-12


def test_settle_no_rebate_at_zero_alpha():
    settlement, _ = one_builder_one_searcher(0.0)
    assert settlement.payoffs[1] == pytest.approx(0.05)
    assert settlement.payoffs[0] == pytest.approx(0.25)


def test_excluded_searcher_gets_zero():
    block = Block(0, (BlockEntry(0, 0.2, 0.2),))
    outcome = AuctionOutcome(winner=0, winning_block=block, payment=0.1, bids={0: 0.2, 1: 0.1})
    settlement = settle(outcome, 3, 0.6)
    assert settlement.payoffs[2] == 0.0
    assert settlement.payoffs[1] == 0.0


def test_no_searchers_included_builder_keeps_surplus():
    # nobody to rebate to, so the pool stays with the winner and value conserves
    block = Block(0, (BlockEntry(0, 0.2, 0.2),))
    outcome = AuctionOutcome(winner=0, winning_block=block, payment=0.05, bids={0: 0.2, 1: 0.05})
    settlement = settle(outcome, 2, 0.6)
    assert settlement.payoffs[0] == pytest.approx(0.15)
    assert settlement.proposer == pytest.approx(0.05)
    assert conservation_residual(settlement.total, outcome.winning_block.total_value) < 1e-12


def test_losing_builders_get_zero():
    blocks = {
        0: block_with_bid(0, 5.0),
        1: block_with_bid(1, 3.0),
    }
    outcome = auction(blocks, np.random.default_rng(1))
    settlement = settle(outcome, 2, 0.4)
    assert settlement.payoffs[1] == 0.0


def random_outcome(rng):
    n_entries = int(rng.integers(1, 6))
    owners = rng.choice(np.arange(1, 10), size=n_entries, replace=False)
    entries = [BlockEntry(0, float(rng.exponential(0.1)), 0.0)]
    for owner in owners:
        value = float(rng.exponential(0.1))
        entries.append(BlockEntry(int(owner), value, float(rng.uniform(0, 1)) * value))
    entries[0] = BlockEntry(0, entries[0].value, entries[0].value)  # builder self-bid
    block = Block(0, tuple(entries))
    payment = float(rng.uniform(0, block.total_bid))
    return AuctionOutcome(winner=0, winning_block=block, payment=payment, bids={0: block.total_bid})


def test_conservation_on_random_settlements():
    rng = np.random.default_rng(7)
    for _ in range(500):
        outcome = random_outcome(rng)
        settlement = settle(outcome, 10, float(rng.uniform(0, 1)))
        assert conservation_residual(settlement.total, outcome.winning_block.total_value) < 1e-12
        assert all(p >= -1e-15 for p in settlement.payoffs)


def test_rebate_shares_sum_to_one_in_effect():
    rng = np.random.default_rng(8)
    for _ in range(100):
        outcome = random_outcome(rng)
        base = settle(outcome, 10, 0.0)
        full = settle(outcome, 10, 1.0)
        surplus = outcome.winning_block.total_bid - outcome.payment
        searcher_gain = sum(full.payoffs[1:]) - sum(base.payoffs[1:])
        has_searchers = len(outcome.winning_block.entries) > 1
        expected = surplus if has_searchers else 0.0
        assert searcher_gain == pytest.approx(expected, abs=1e-12)


def test_monotone_in_alpha():
    rng = np.random.default_rng(9)
    for _ in range(50):
        outcome = random_outcome(rng)
        alphas = np.linspace(0, 1, 5)
        settlements = [settle(outcome, 10, a) for a in alphas]
        builder = [s.payoffs[0] for s in settlements]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(builder, builder[1:]))
        for agent in range(1, 10):
            series = [s.payoffs[agent] for s in settlements]
            assert all(x2 >= x1 - 1e-12 for x1, x2 in zip(series, series[1:]))
