import math

import numpy as np
import pytest

from pbsgame.auction import Settlement, settle
from pbsgame.codec import Chromosome, bid_ratio, decode_searcher
from pbsgame.errors import ConfigError, NumericalError
from pbsgame.evolution import GAConfig, StrategyPool
from pbsgame.market import InteractionGraph, Scenario
from pbsgame.simulation import (
    SimConfig,
    Simulation,
    cov,
    final_window_mean,
    moving_average,
    summarize,
)
from pbsgame.sweep import SWEEP_METRICS, replica_rng, run_replicas, sweep_conflict


def small_config(**overrides):
    base = dict(n_builders=3, n_searchers=3, rounds=50, p_c=0.5, seed=11)
    base.update(overrides)
    return SimConfig(**base)


def test_cov_examples():
    assert cov([5, 5, 5, 5]) == 0.0
    assert cov([0, 0, 0]) == 0.0
    assert cov([1, 3]) == pytest.approx(0.5)


def test_cov_rejects_empty():
    with pytest.raises(ConfigError):
        cov([])


def test_moving_average_window_and_purity():
    series = [1.0, 2.0, 3.0, 4.0, 5.0]
    ma = moving_average(series, 2)
    assert ma == [1.0, 1.5, 2.5, 3.5, 4.5]
    assert moving_average(series, 10) == [1.0, 1.5, 2.0, 2.5, 3.0]
    assert series == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_final_window_mean():
    series = list(range(10))
    assert final_window_mean(series, 0.2) == pytest.approx(8.5)
    assert final_window_mean([math.nan, 1.0], 1.0) == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(rounds=0)
    with pytest.raises(ConfigError):
        small_config(p_c=1.5)
    with pytest.raises(ConfigError):
        small_config(n_builders=0, n_searchers=0)
    with pytest.raises(ConfigError):
        small_config(value_rate=0)
    with pytest.raises(ConfigError):
        small_config(capacity=0)


def test_deterministic_replay():
    records = []
    metrics = []
    for _ in range(2):
        sim = Simulation(small_config(rounds=100, record_rounds=True))
        sim.run()
        records.append(sim.records)
        metrics.append(sim.metrics)
    for r1, r2 in zip(records[0], records[1]):
        assert r1.alphas == r2.alphas
        assert r1.gammas == r2.gammas
        assert r1.betas == r2.betas
        assert r1.winner == r2.winner
        assert r1.payment == r2.payment
        assert r1.payoffs == r2.payoffs
    for name in metrics[0].FIELDS:
        assert getattr(metrics[0], name) == getattr(metrics[1], name)


def test_metrics_lengths_match_rounds():
    sim = Simulation(small_config(rounds=40))
    sim.run()
    for name in sim.metrics.FIELDS:
        assert len(getattr(sim.metrics, name)) == 40


def test_no_searchers_degenerate_run():
    sim = Simulation(small_config(n_searchers=0, rounds=30))
    sim.run()
    assert all(math.isnan(v) for v in sim.metrics.searcher_reward)
    assert all(math.isnan(v) for v in sim.metrics.avg_bid_ratio)
    assert all(v >= 0 for v in sim.metrics.builder_reward)
    assert sim.max_residual <= 1e-12


def test_no_builders_all_payoffs_zero():
    sim = Simulation(small_config(n_builders=0, rounds=30))
    sim.run()
    assert all(v == 0.0 for v in sim.metrics.searcher_reward)
    assert all(v == 0.0 for v in sim.metrics.proposer_reward)


def frozen_pool(owner, bits, size=20):
    return StrategyPool(owner, [Chromosome(bits) for _ in range(size)], learning_rate=0.0)


def test_single_builder_single_searcher_matches_settlement_formula():
    # frozen strategies, fixed values, no conflicts: payoffs follow the
    # hand-derived split of the one-builder market
    config = SimConfig(
        n_builders=1,
        n_searchers=1,
        rounds=1,
        p_c=0.0,
        seed=0,
        learning_rate=0.0,
        ga=GAConfig(trigger=0.0),
    )
    sim = Simulation(config)
    sim.pools[0] = frozen_pool(0, "10100")  # alpha = 20/31
    sim.pools[1] = frozen_pool(1, "1010001010")
    alpha = 20 / 31
    beta = bid_ratio(decode_searcher(Chromosome("1010001010")), alpha)
    scenario = Scenario(values=(0.2, 0.1), graph=InteractionGraph.independent(2))
    record = sim.run_round(scenario)
    total = 0.2 + beta * 0.1
    assert record.payment == 0.0
    assert record.payoffs[1] == pytest.approx((1 - beta) * 0.1 + alpha * total)
    assert record.payoffs[0] == pytest.approx((1 - alpha) * total)


def test_conservation_tracked_each_round():
    sim = Simulation(small_config(rounds=200, p_c=0.7))
    sim.run()
    assert sim.max_residual <= 1e-12


def test_conservation_guard_catches_a_tiny_leak(monkeypatch):
    def leaky_settle(outcome, n_agents, rebate_ratio):
        settlement = settle(outcome, n_agents, rebate_ratio)
        payoffs = list(settlement.payoffs)
        payoffs[outcome.winner] += 1e-9
        return Settlement(payoffs=tuple(payoffs), proposer=settlement.proposer)

    monkeypatch.setattr("pbsgame.simulation.settle", leaky_settle)
    with pytest.raises(NumericalError, match="conservation"):
        Simulation(small_config(rounds=5)).run()


def test_conservation_guard_scales_with_block_value():
    # bundle values ~1e9: float noise of ~1e-6 is far above an absolute 1e-12,
    # yet far below 1e-12 of the block's value, so the correct run passes
    sim = Simulation(small_config(rounds=200, value_rate=1e-9))
    sim.run()
    assert sim.max_residual > 1e-12


def test_records_only_when_enabled():
    sim = Simulation(small_config(rounds=10))
    sim.run()
    assert sim.records == []
    sim = Simulation(small_config(rounds=10, record_rounds=True))
    sim.run()
    assert len(sim.records) == 10


def test_snapshots_taken_on_schedule():
    sim = Simulation(small_config(rounds=20, snapshot_every=10))
    sim.run()
    assert [s["round"] for s in sim.snapshots] == [10, 20]
    snap = sim.snapshots[0]
    assert len(snap["pools"]) == 6
    assert all(len(p["strategies"]) == 20 for p in snap["pools"])


def test_summarize_keys():
    sim = Simulation(small_config(rounds=30))
    sim.run()
    summary = summarize(sim)
    for metric in SWEEP_METRICS:
        assert metric in summary


def test_scenario_size_checked():
    sim = Simulation(small_config())
    wrong = Scenario(values=(0.1, 0.1), graph=InteractionGraph.independent(2))
    with pytest.raises(ConfigError):
        sim.run_round(wrong)


def test_replica_rng_is_deterministic_and_index_sensitive():
    a = replica_rng(5, 1, 2).random(4)
    b = replica_rng(5, 1, 2).random(4)
    c = replica_rng(5, 2, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_replicas_returns_results_in_task_order(jobs):
    # the long first task finishes last on two workers; indices are not sorted
    tasks = [
        (small_config(rounds=240), 7, (2, 1)),
        (small_config(rounds=20, p_c=0.9), 7, (0, 0)),
        (small_config(rounds=20, n_builders=2), 8, (1,)),
        (small_config(rounds=20), 7, (0, 3)),
    ]
    expected = []
    for config, master_seed, indices in tasks:
        sim = Simulation(config, rng=replica_rng(master_seed, *indices))
        sim.run()
        expected.append(summarize(sim))
    assert run_replicas(tasks, jobs) == expected


def test_sweep_shape_and_determinism_across_jobs():
    base = small_config(rounds=60)
    p_values = [0.2, 0.8]
    serial = sweep_conflict(base, p_values, repetitions=2, jobs=1)
    parallel = sweep_conflict(base, p_values, repetitions=2, jobs=2)
    assert len(serial) == len(p_values) * 2 * len(SWEEP_METRICS)
    assert serial == parallel


def test_sweep_single_cell_shape():
    base = small_config(rounds=30)
    rows = sweep_conflict(base, [0.5], repetitions=1)
    assert len(rows) == len(SWEEP_METRICS)
    assert {r.metric for r in rows} == set(SWEEP_METRICS)


def test_sweep_validates_inputs():
    base = small_config()
    with pytest.raises(ConfigError):
        sweep_conflict(base, [0.5], repetitions=0)
    with pytest.raises(ConfigError):
        sweep_conflict(base, [1.5], repetitions=1)
