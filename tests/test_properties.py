"""Property tests of the round's core invariants, each against a plain reference."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pbsgame.auction import conservation_residual, run_auction, settle
from pbsgame.builder import BlockEntry, PendingBundle, build_block
from pbsgame.codec import Chromosome
from pbsgame.evolution import StrategyPool, select_strategies, select_strategy
from pbsgame.market import InteractionGraph, draw_scenario

# a few repeated levels make equal values and bids (and zero bid fractions) common
VALUES = st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 1.0))
FRACTIONS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def instances(draw, max_n=7):
    """Pending bundles, a random two-point graph over them, and a capacity (None or 1..n)."""
    n = draw(st.integers(1, max_n))
    pending = [PendingBundle(i, draw(VALUES), draw(FRACTIONS)) for i in range(n)]
    pairs = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    capacity = draw(st.one_of(st.none(), st.integers(1, n)))
    return pending, InteractionGraph.from_conflict_pairs(n, pairs), capacity


def resort_per_pick(pending, graph, capacity):
    """The iterative greedy: re-sort after every pick and apply v * (1 + w) to the rest."""
    pool = [[b.owner, b.effective_value, b.bid_fraction] for b in pending]
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


def exhaustive_best_bid(pending, graph, capacity):
    """Best total bid over every ordered subset of bundles."""
    best = 0.0
    longest = len(pending) if capacity is None else min(len(pending), capacity)
    for size in range(1, longest + 1):
        for order in itertools.permutations(pending, size):
            values = [b.effective_value for b in order]
            for k, b in enumerate(order):
                for prior in order[:k]:
                    values[k] *= 1.0 + graph.weight(b.owner, prior.owner)
            best = max(best, sum(b.bid_fraction * v for b, v in zip(order, values)))
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
    pending, graph, capacity = instance
    block = build_block(0, pending, graph, capacity)
    assert list(block.entries) == resort_per_pick(pending, graph, capacity)


@settings(max_examples=150, deadline=None)
@given(instances(max_n=5))
def test_greedy_never_beats_exhaustive_oracle(instance):
    pending, graph, capacity = instance
    block = build_block(0, pending, graph, capacity)
    assert block.total_bid <= exhaustive_best_bid(pending, graph, capacity) + 1e-12


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
    values = [b.base_value for b in scenario.bundles]
    betas = rng.uniform(0.0, 1.0, size=(n, n_builders))
    alphas = rng.uniform(0.0, 1.0, size=n_builders)
    blocks = {
        j: build_block(
            j,
            [PendingBundle(j, values[j], 1.0)]
            + [PendingBundle(i, values[i], float(betas[i, j])) for i in range(n_builders, n)],
            scenario.graph,
            capacity,
        )
        for j in range(n_builders)
    }
    outcome = run_auction(blocks, rng)
    settlement = settle(outcome, n, float(alphas[outcome.winner]))
    assert conservation_residual(settlement, outcome) <= 1e-12


@st.composite
def equal_sized_pools(draw):
    size = draw(st.integers(1, 20))
    fitness = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-10.0, 10.0))
    return [
        StrategyPool(k, [Chromosome("00000", draw(fitness)) for _ in range(size)],
                     temperature=draw(st.floats(0.05, 10.0)))
        for k in range(draw(st.integers(1, 6)))
    ]


@settings(max_examples=200, deadline=None)
@given(pools=equal_sized_pools(), seed=st.integers(0, 2**32 - 1))
def test_batched_selection_equals_scalar_draws(pools, seed):
    batched = select_strategies(pools, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    scalar = []
    for pool in pools:  # one pool's softmax and one scalar draw at a time
        fitness = np.array([c.fitness for c in pool.strategies])
        weights = np.exp((fitness - fitness.max()) / pool.temperature)
        cumulative = np.cumsum(weights / weights.sum())
        index = int(np.searchsorted(cumulative, rng.random(), side="right"))
        scalar.append(min(index, len(pool.strategies) - 1))
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
