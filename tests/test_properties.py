"""Property tests of the round's core invariants, each against a plain reference."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbsgame.simulation
from pbsgame.analytic import OneSidedMarket, _payoff_coefficients, monte_carlo_searcher_payoff
from pbsgame.auction import conservation_residual, run_auction, second_price, settle
from pbsgame.builder import Block, BlockEntry, build_block, greedy_scan
from pbsgame.codec import Chromosome, bid_ratio, decode_builder, decode_searcher
from pbsgame.egta import HeuristicPayoffTable, HptRow, alpharank
from pbsgame.evolution import GAConfig, StrategyPool, evolve, select_strategies, select_strategy
from pbsgame.market import InteractionGraph, Scenario, draw_scenario
from pbsgame.simulation import SimConfig, Simulation

# a few repeated levels make equal values and bids (and zero bid fractions) common
VALUES = st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 1.0))
FRACTIONS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def instances(draw, max_n=7):
    """(owner, value, bid fraction) bundles, a random two-point graph over them,
    and a capacity (None or 1..n)."""
    n = draw(st.integers(1, max_n))
    bundles = [(i, draw(VALUES), draw(FRACTIONS)) for i in range(n)]
    pairs = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    capacity = draw(st.one_of(st.none(), st.integers(1, n)))
    return bundles, InteractionGraph.from_conflict_pairs(n, pairs), capacity


def offers(bundles):
    return [BlockEntry(i, v, f * v) for i, v, f in bundles]


def resort_per_pick(bundles, graph, capacity):
    """The iterative greedy: re-sort after every pick and apply v * (1 + w) to the rest."""
    pool = [list(b) for b in bundles]
    chosen = []
    while pool and (capacity is None or len(chosen) < capacity):
        pool.sort(key=lambda d: (d[1] <= 0, -d[2] * d[1], d[0]))
        owner, value, fraction = pool.pop(0)
        for other in pool:
            other[1] *= 1.0 + graph.weight(other[0], owner)
        if value <= 0:
            break
        chosen.append(BlockEntry(owner, value, fraction * value))
    return chosen


def exhaustive_best_bid(bundles, graph, capacity):
    """Best total bid over every ordered subset of bundles."""
    best = 0.0
    longest = len(bundles) if capacity is None else min(len(bundles), capacity)
    for size in range(1, longest + 1):
        for order in itertools.permutations(bundles, size):
            values = [value for _, value, _ in order]
            for k, (owner, _, _) in enumerate(order):
                for prior, _, _ in order[:k]:
                    values[k] *= 1.0 + graph.weight(owner, prior)
            best = max(best, sum(fraction * v for (_, _, fraction), v in zip(order, values)))
    return best


@given(st.floats(0.0, 1e300))
def test_two_point_weights_act_exactly(value):
    # why one sort suffices: an executed bundle leaves another's value
    # v * (1 + 0) == v unchanged or v * (1 - 1) == 0, with no rounding
    assert value * (1.0 + 0.0) == value
    assert value * (1.0 + -1.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(instances())
def test_one_pass_greedy_equals_resort_per_pick(instance):
    bundles, graph, capacity = instance
    block = build_block(0, offers(bundles), graph, capacity)
    assert list(block.entries) == resort_per_pick(bundles, graph, capacity)


@settings(max_examples=150, deadline=None)
@given(instances(max_n=5))
def test_greedy_never_beats_exhaustive_oracle(instance):
    bundles, graph, capacity = instance
    block = build_block(0, offers(bundles), graph, capacity)
    assert block.total_bid <= exhaustive_best_bid(bundles, graph, capacity) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    n_builders=st.integers(1, 4),
    n_searchers=st.integers(0, 5),
    p_c=st.floats(0.0, 1.0),
    capacity=st.one_of(st.none(), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_settlement_conserves_value(n_builders, n_searchers, p_c, capacity, seed):
    rng = np.random.default_rng(seed)
    n = n_builders + n_searchers
    scenario = draw_scenario(max(n, 2), p_c, 10.0, rng)  # a scenario has at least two bundles
    values = scenario.values
    betas = rng.uniform(0.0, 1.0, size=(n, n_builders))
    alphas = rng.uniform(0.0, 1.0, size=n_builders)
    blocks = {
        j: build_block(
            j,
            offers([(j, values[j], 1.0)]
                   + [(i, values[i], float(betas[i, j])) for i in range(n_builders, n)]),
            scenario.graph,
            capacity,
        )
        for j in range(n_builders)
    }
    outcome = run_auction({j: b.total_bid for j, b in blocks.items()}, rng, blocks.__getitem__)
    settlement = settle(outcome, n, float(alphas[outcome.winner]))
    assert conservation_residual(settlement.total, outcome.winning_block.total_value) <= 1e-12


@st.composite
def equal_sized_pools(draw):
    size = draw(st.integers(1, 20))
    fitness = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-10.0, 10.0))
    return [
        StrategyPool(k, 5, [0] * size, [draw(fitness) for _ in range(size)],
                     temperature=draw(st.floats(0.05, 10.0)))
        for k in range(draw(st.integers(1, 6)))
    ]


def one_builder_greedy(offers, weights, capacity):
    """One builder's greedy block as the round once built it: sort by
    (value <= 0, -bid, owner), then scan, blocking each included bundle's
    frozenset of conflicts."""
    conflicts = [frozenset(np.flatnonzero(col).tolist()) for col in weights.T]
    entries, blocked = [], set()
    for e in sorted(offers, key=lambda e: (e.value <= 0, -e.bid, e.owner)):
        if e.value <= 0 or len(entries) == capacity:
            break
        if e.owner not in blocked:
            entries.append(e)
            blocked |= conflicts[e.owner]
    return entries


# gamma2 = 0 (low five bits 0) bids the whole value, tying a builder's own
# bundle of equal value; shared genomes and values tie searchers
SEARCHER_GENOMES = st.one_of(st.sampled_from([0, 0b10110_00000, 0b01010_00111]), st.integers(0, 1023))
BUILDER_GENOMES = st.one_of(st.sampled_from([0, 31]), st.integers(0, 31))


@st.composite
def rounds(draw):
    """A config, one fixed genome per agent, and a scenario with tie-prone values."""
    n_builders, n_searchers = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    n = n_builders + n_searchers
    genomes = [format(draw(BUILDER_GENOMES), "05b") for _ in range(n_builders)]
    genomes += [format(draw(SEARCHER_GENOMES), "010b") for _ in range(n_searchers)]
    pairs = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    scenario = Scenario(
        values=tuple(draw(VALUES) for _ in range(n)),
        graph=InteractionGraph.from_conflict_pairs(n, pairs),
    )
    config = SimConfig(
        n_builders=n_builders, n_searchers=n_searchers, rounds=1, p_c=0.5,
        capacity=draw(st.one_of(st.none(), st.integers(1, n))), seed=draw(st.integers(0, 2**32 - 1)),
    )
    return config, genomes, scenario


@settings(max_examples=200, deadline=None)
@given(rounds())
def test_round_ranking_and_scan_equal_one_builder_greedy(round_):
    config, genomes, scenario = round_
    sim = Simulation(config)
    for pool, bits in zip(sim.pools, genomes):
        pool.codes[:] = int(bits, 2)
    scans, ranked, auctions = [], [], []

    def scan_spy(*args):
        scans.append((args[0], *greedy_scan(*args)))
        ranked.append(args[:3])
        return scans[-1][1:]

    def auction_spy(totals, rng):
        before = rng.bit_generator.state
        outcome = second_price(totals, rng)
        auctions.append((before, outcome, rng.bit_generator.state))
        return outcome

    with mock.patch.object(pbsgame.simulation, "greedy_scan", scan_spy), \
            mock.patch.object(pbsgame.simulation, "second_price", auction_spy):
        record = sim.run_round(scenario)

    values, weights = scenario.values, scenario.graph.weights
    blocks = {}
    for j in config.builder_ids:
        alpha = decode_builder(Chromosome(genomes[j])).alpha
        offers = [BlockEntry(j, values[j], values[j])] + [
            BlockEntry(i, values[i], bid_ratio(decode_searcher(Chromosome(genomes[i])), alpha) * values[i])
            for i in config.searcher_ids
        ]
        blocks[j] = Block(j, tuple(one_builder_greedy(offers, weights, config.capacity)))
    assert len(scans) == config.n_builders
    for (owners, picked, total), block in zip(scans, blocks.values()):
        assert [owners[k] for k in picked] == [e.owner for e in block.entries]
        assert total == block.total_bid

    # the auction on the oracle's blocks, from the generator state the round's auction met
    [(before, (winner, payment), after)] = auctions
    rng = np.random.default_rng()
    rng.bit_generator.state = before
    expected = run_auction({j: b.total_bid for j, b in blocks.items()}, rng, blocks.__getitem__)
    (_, picked, _), (owners, worths, bids) = scans[winner], ranked[winner]
    entries = tuple(BlockEntry(owners[k], worths[k], bids[k]) for k in picked)
    assert entries == expected.winning_block.entries
    assert (record.winner, record.payment) == (winner, payment) == (expected.winner, expected.payment)
    assert after == rng.bit_generator.state
    for k in range(config.n_agents):
        assert scenario.graph.conflicts(k) == frozenset(np.flatnonzero(weights[:, k]).tolist())


@settings(max_examples=200, deadline=None)
@given(pools=equal_sized_pools(), seed=st.integers(0, 2**32 - 1))
def test_batched_selection_equals_scalar_draws(pools, seed):
    fitness = np.array([pool.fitness for pool in pools])
    temperatures = np.array([[pool.temperature] for pool in pools])
    batched = select_strategies(fitness, temperatures, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    scalar = []
    for pool in pools:  # one pool's softmax and one scalar draw at a time
        weights = np.exp((pool.fitness - pool.fitness.max()) / pool.temperature)
        cumulative = np.cumsum(weights / weights.sum())
        index = int(np.searchsorted(cumulative, rng.random(), side="right"))
        scalar.append(min(index, len(pool.codes) - 1))
    assert batched == scalar
    assert select_strategy(pools[0], np.random.default_rng(seed)) == batched[0]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 30), p_c=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_vectorised_conflict_draw_equals_double_loop(n, p_c, seed):
    rng = np.random.default_rng(seed)
    rng.exponential(scale=0.1, size=n)
    draws = rng.random(n * (n - 1) // 2)
    expected = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if draws[k] < p_c:
                expected.append((i, j))
            k += 1

    drawn = np.random.default_rng(seed)
    graph = draw_scenario(n, p_c, 10.0, drawn).graph
    assert graph.conflict_pairs() == expected
    assert np.array_equal(graph.weights, graph.weights.T)
    assert drawn.random() == rng.random()  # the draw consumed the same stream


@st.composite
def ga_steps(draw):
    """A pool with tie-prone fitness, a GA config and a seed."""
    width = draw(st.sampled_from([5, 10]))
    fitness = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(-10.0, 10.0))
    bits = st.text("01", min_size=width, max_size=width)
    size = draw(st.integers(1, 20))
    codes = [int(draw(bits), 2) for _ in range(size)]
    pool = StrategyPool(0, width, codes, [draw(fitness) for _ in range(size)])
    ga = GAConfig(trigger=1.0, elimination=draw(st.floats(0.0, 1.0)), mutation=draw(st.floats(0.0, 1.0)))
    return pool, ga, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(ga_steps())
def test_evolve_keeps_shape_and_the_top_strategies(step):
    pool, ga, seed = step
    codes, fitness = pool.codes.tolist(), pool.fitness.tolist()
    size, width = len(codes), pool.width
    evolve(pool, ga, np.random.default_rng(seed))
    assert len(pool.codes) == len(pool.fitness) == size
    assert all(len(bits) == width for bits in pool.bits)
    assert 0 <= pool.codes.min() and pool.codes.max() < 2**width
    # the worst fraction by (fitness, index) goes, always leaving one survivor,
    # and the survivors keep their order at the front of the pool
    n_drop = min(int(size * ga.elimination), size - 1)
    kept = sorted(sorted(range(size), key=lambda k: (fitness[k], k))[n_drop:])
    assert pool.codes[: len(kept)].tolist() == [codes[k] for k in kept]
    assert pool.fitness[: len(kept)].tolist() == [fitness[k] for k in kept]


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 9),
    payoffs=st.lists(st.one_of(st.sampled_from([0.0, 0.1]), st.floats(-1.0, 1.0)), min_size=16, max_size=16),
    alpha=st.floats(0.01, 100.0),
)
def test_alpharank_stationary_distribution_is_a_fixed_point(m, payoffs, alpha):
    rows = [HptRow(0, m, None, 0.0, 1)]
    rows += [HptRow(k, m - k, payoffs[2 * k - 2], payoffs[2 * k - 1], 1) for k in range(1, m)]
    rows.append(HptRow(m, 0, 0.0, None, 1))
    result = alpharank(HeuristicPayoffTable(m=m, rows=tuple(rows)), alpha)
    nu = result.stationary
    assert np.all(nu >= 0) and nu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(nu @ result.transition, nu, rtol=0.0, atol=1e-12)


def monte_carlo_by_where(market, n, rng):
    """The sample mean and standard error as plain expressions: fresh arrays throughout."""
    if market.value == 0:
        return 0.0, 0.0
    v1 = rng.exponential(1.0 / market.rate1, size=n)
    v2 = rng.exponential(1.0 / market.rate2, size=n)
    x = v1 - v2
    a0, a_slope, b0, b_slope = _payoff_coefficients(market)
    payoff = np.where(x >= -market.delta_beta * market.value, a0 + a_slope * x, b0 + b_slope * x)
    return float(payoff.mean()), float(payoff.std(ddof=1) / math.sqrt(n))


@st.composite
def markets(draw):
    unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    rebate = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
    return OneSidedMarket(
        rate1=draw(st.floats(0.05, 50.0)),
        rate2=draw(st.floats(0.05, 50.0)),
        value=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        beta1=draw(unit),
        beta2=draw(unit),
        rebate1=draw(rebate),
        rebate2=draw(rebate),
    )


# odd n, n off multiples of 8 and 128 (numpy's pairwise-sum block), and sizes
# either side of them
SAMPLE_COUNTS = st.one_of(
    st.sampled_from([2, 3, 7, 8, 9, 127, 128, 129, 255, 1001, 1023, 1024, 1025, 4097]),
    st.integers(2, 5000),
)


@settings(max_examples=200, deadline=None)
@given(market=markets(), n=SAMPLE_COUNTS, seed=st.integers(0, 2**32 - 1))
def test_monte_carlo_kernel_matches_plain_expressions(market, n, seed):
    kernel_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert monte_carlo_searcher_payoff(market, n, kernel_rng) == monte_carlo_by_where(
        market, n, reference_rng
    )
    assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(n=SAMPLE_COUNTS, seed=st.integers(0, 2**32 - 1))
def test_monte_carlo_zero_value_market_draws_nothing(n, seed):
    market = OneSidedMarket(2.0, 3.0, 0.0, 0.4, 0.1, 0.5, 0.5)
    rng = np.random.default_rng(seed)
    untouched = rng.bit_generator.state
    assert monte_carlo_searcher_payoff(market, n, rng) == (0.0, 0.0)
    assert rng.bit_generator.state == untouched
