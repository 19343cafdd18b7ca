"""Greedy block construction, checked against exhaustive and trace oracles."""

import itertools

import numpy as np
import pytest

from pbsgame.builder import Block, BlockEntry, build_block
from pbsgame.errors import ConfigError
from pbsgame.market import InteractionGraph


def two_point_graph(n, pairs):
    return InteractionGraph.from_conflict_pairs(n, pairs)


def offer(owner, value, fraction):
    """The bundle of ``owner`` offered at ``value`` for a bid of ``fraction`` of it."""
    return BlockEntry(owner, value, fraction * value)


def test_independent_bundles_ordered_by_bid():
    offers = [offer(0, 0.5, 0.8), offer(1, 0.3, 1.0)]
    block = build_block(9, offers, two_point_graph(2, []), capacity=2)
    assert [e.owner for e in block.entries] == [0, 1]
    assert block.total_bid == pytest.approx(0.7)


def test_conflicting_bundle_collapses_and_loop_exits():
    offers = [offer(0, 0.5, 0.8), offer(1, 0.3, 1.0)]
    block = build_block(9, offers, two_point_graph(2, [(0, 1)]), capacity=2)
    assert [e.owner for e in block.entries] == [0]
    assert block.total_bid == pytest.approx(0.4)


def test_empty_pending_gives_empty_block():
    block = build_block(3, [], two_point_graph(2, []))
    assert block.entries == ()


def test_capacity_limits_block_length():
    offers = [offer(i, 0.1 * (i + 1), 1.0) for i in range(5)]
    block = build_block(0, offers, two_point_graph(5, []), capacity=2)
    assert len(block.entries) == 2
    assert [e.owner for e in block.entries] == [4, 3]


def test_no_conflicts_includes_everything_sorted_by_bid():
    rng = np.random.default_rng(5)
    offers = [offer(i, float(rng.exponential(0.1)), float(rng.uniform(0.1, 1))) for i in range(8)]
    block = build_block(0, offers, two_point_graph(8, []))
    assert len(block.entries) == 8
    bids = [e.bid for e in block.entries]
    assert bids == sorted(bids, reverse=True)


def test_input_list_not_mutated():
    offers = [offer(0, 0.5, 0.8), offer(1, 0.3, 1.0)]
    build_block(9, offers, two_point_graph(2, [(0, 1)]))
    assert offers == [offer(0, 0.5, 0.8), offer(1, 0.3, 1.0)]


def test_tie_break_is_lower_owner_first():
    offers = [offer(1, 0.2, 0.5), offer(0, 0.2, 0.5)]
    block = build_block(7, offers, two_point_graph(2, []))
    assert [e.owner for e in block.entries] == [0, 1]


def test_never_includes_nonpositive_value():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        offers = [
            offer(i, float(rng.exponential(0.1)), float(rng.uniform(0, 1)))
            for i in range(n)
        ]
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        block = build_block(0, offers, two_point_graph(n, pairs))
        assert all(e.value > 0 for e in block.entries)
        assert len(block.entries) <= n


def test_block_validation():
    with pytest.raises(ConfigError):
        Block(0, (BlockEntry(1, 0.1, 0.1), BlockEntry(1, 0.2, 0.1)))
    with pytest.raises(ConfigError):
        Block(0, (BlockEntry(1, 0.1, 0.1), BlockEntry(2, 0.2, 0.1)), capacity=1)
    with pytest.raises(ConfigError):
        build_block(0, [offer(0, 0.5, 1.2)], two_point_graph(2, []))  # bid above value
    with pytest.raises(ConfigError):
        build_block(0, [], two_point_graph(2, []), capacity=0)


def brute_force_best(bundles, graph, capacity=None):
    """Best total bid and total value over every ordered subset of (owner, value, fraction) bundles."""
    n = len(bundles)
    best_bid = 0.0
    best_value = 0.0
    indices = range(n)
    max_len = n if capacity is None else min(n, capacity)
    for size in range(1, max_len + 1):
        for subset in itertools.permutations(indices, size):
            values = {k: bundles[k][1] for k in subset}
            total_bid = 0.0
            total_value = 0.0
            placed = []
            for k in subset:
                for prior in placed:
                    values[k] *= 1.0 + graph.weight(bundles[k][0], bundles[prior][0])
                total_bid += bundles[k][2] * values[k]
                total_value += values[k]
                placed.append(k)
            best_bid = max(best_bid, total_bid)
            best_value = max(best_value, total_value)
    return best_bid, best_value


def trace_reference(bundles, graph, capacity=None):
    """Independent sort-pop-update re-implementation of the merge loop."""
    pool = [{"owner": owner, "value": value, "fraction": fraction} for owner, value, fraction in bundles]
    chosen = []
    while pool and (capacity is None or len(chosen) < capacity):
        pool.sort(key=lambda d: (d["value"] <= 0, -d["fraction"] * d["value"], d["owner"]))
        head = pool[0]
        pool = pool[1:]
        for other in pool:
            other["value"] = other["value"] * (1.0 + graph.weight(other["owner"], head["owner"]))
        if head["value"] <= 0:
            break
        chosen.append((head["owner"], head["value"], head["fraction"] * head["value"]))
    return chosen


def random_instance(rng):
    n = int(rng.integers(2, 7))
    bundles = [(i, float(rng.exponential(0.1)), float(rng.uniform(0, 1))) for i in range(n)]
    p_c = float(rng.random())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_c]
    capacity = None if rng.random() < 0.7 else int(rng.integers(1, n + 1))
    return bundles, two_point_graph(n, pairs), capacity


def test_greedy_never_beats_exhaustive_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        bundles, graph, capacity = random_instance(rng)
        block = build_block(0, [offer(*b) for b in bundles], graph, capacity)
        best_bid, best_value = brute_force_best(bundles, graph, capacity)
        assert block.total_bid <= best_bid + 1e-12
        assert block.total_value <= best_value + 1e-12


def test_greedy_matches_independent_trace():
    rng = np.random.default_rng(314)
    for _ in range(100):
        bundles, graph, capacity = random_instance(rng)
        block = build_block(0, [offer(*b) for b in bundles], graph, capacity)
        expected = trace_reference(bundles, graph, capacity)
        assert [e.owner for e in block.entries] == [o for o, _, _ in expected]
        for entry, (_, value, bid) in zip(block.entries, expected):
            assert entry.value == pytest.approx(value)
            assert entry.bid == pytest.approx(bid)
