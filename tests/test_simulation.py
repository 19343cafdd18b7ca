import dataclasses
import math

import numpy as np
import pytest

import pbsgame.sweep

from pbsgame.auction import distribute
from pbsgame.codec import Chromosome, bid_ratio, decode_searcher
from pbsgame.errors import ConfigError, NumericalError
from pbsgame.evolution import GAConfig
from pbsgame.market import InteractionGraph, Scenario
from pbsgame.simulation import (
    LOG_FLUSH,
    Lockstep,
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


def test_cov_of_rows_equals_cov_of_each_row():
    rows = np.random.default_rng(3).integers(0, 32, size=(9, 20)).astype(float)
    rows[4] = 0.0  # a zero mean gives 0, as for a 1-D input
    assert cov(rows).tolist() == [cov(row) for row in rows]


def test_pools_are_views_of_the_simulation_arrays():
    sim = Simulation(small_config(rounds=5, ga=GAConfig(trigger=1.0)))
    sim.pools[4].codes[3] = 0b1010001010
    sim.pools[4].fitness[3] = 2.5
    assert (sim.codes[4, 3], sim.fitness[4, 3]) == (0b1010001010, 2.5)
    sim.run()  # every pool is rebuilt by the GA each round, in place
    for agent, pool in enumerate(sim.pools):
        assert np.shares_memory(pool.codes, sim.codes[agent])
        assert np.shares_memory(pool.fitness, sim.fitness[agent])
    assert isinstance(sim.pools, tuple)  # a pool is written, never replaced


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
    with pytest.raises(ConfigError, match="temperature"):
        small_config(temperature=math.nan)
    with pytest.raises(ConfigError, match="value rate"):
        small_config(value_rate=1e-320)


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


def freeze(pool, bits):
    """Every strategy of the pool becomes ``bits``; a zero learning rate in the config
    keeps its fitness from learning."""
    pool.codes[:] = int(bits, 2)


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
    freeze(sim.pools[0], "10100")  # alpha = 20/31
    freeze(sim.pools[1], "1010001010")
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
    def leaky_distribute(winner, *args):
        payoffs = distribute(winner, *args)
        payoffs[winner] += 1e-9
        return payoffs

    monkeypatch.setattr("pbsgame.simulation.distribute", leaky_distribute)
    with pytest.raises(NumericalError, match="conservation"):
        Simulation(small_config(rounds=5)).run()


def test_conservation_guard_catches_a_nan_payoff(monkeypatch):
    def nan_distribute(winner, *args):
        payoffs = distribute(winner, *args)
        payoffs[winner] = math.nan
        return payoffs

    monkeypatch.setattr("pbsgame.simulation.distribute", nan_distribute)
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


def test_round_decodes_no_genome_unless_recording(monkeypatch):
    calls = []
    for name in ("decode_builder", "decode_searcher", "searcher_params"):
        monkeypatch.setattr(f"pbsgame.simulation.{name}", lambda c, name=name: calls.append(name))
    Simulation(small_config(rounds=20)).run()
    assert calls == []
    # the spies are live: a recording round decodes its searchers' codes for the record
    Simulation(small_config(rounds=1, record_rounds=True)).run()
    assert calls == ["searcher_params"] * 3


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


class RecordingPool:
    """Stands in for ProcessPoolExecutor without starting a process: records the worker
    count it is opened with and runs the batches inline."""

    opened: list = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, batches, chunksize=1):
        return map(fn, batches)


@pytest.mark.parametrize(
    "n_tasks, jobs, cpus, workers",
    [
        (2, 100_000, 64, [2]),  # never more workers than batches
        (10, 8, 3, [3]),  # nor than CPUs
        (10, 8, None, []),  # an unknown CPU count means one, so no pool
        (1, 4, 64, []),  # one batch runs in this process
        (70, 4, 64, [4]),
        (100, 1, 64, []),  # at most MAX_BATCH replicas a batch
    ],
)
def test_worker_count_is_capped_by_batches_and_cpus(monkeypatch, n_tasks, jobs, cpus, workers):
    monkeypatch.setattr(RecordingPool, "opened", [])
    monkeypatch.setattr("pbsgame.sweep.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    batches = []

    def fake_batch(tasks):
        batches.append(len(tasks))
        return [{"task": indices} for _, _, indices in tasks]

    monkeypatch.setattr(pbsgame.sweep, "_run_batch", fake_batch)
    tasks = [(small_config(p_c=0.1 * (k % 3)), 7, (k,)) for k in range(n_tasks)]
    assert run_replicas(tasks, jobs) == [{"task": (k,)} for k in range(n_tasks)]
    assert RecordingPool.opened == workers
    size = min(pbsgame.sweep.MAX_BATCH, -(-n_tasks // jobs))
    assert max(batches) <= size and max(batches) - min(batches) <= 1
    assert len(batches) == -(-n_tasks // size)


@pytest.mark.parametrize("jobs", [0, -3])
def test_fewer_than_one_job_is_refused(monkeypatch, jobs):
    monkeypatch.setattr("pbsgame.sweep.ProcessPoolExecutor", RecordingPool)
    with pytest.raises(ConfigError, match="jobs"):
        run_replicas([(small_config(rounds=5), 7, (0,))], jobs)


def test_tasks_are_batched_by_shape(monkeypatch):
    batches = []
    original = pbsgame.sweep._run_batch

    def spy(tasks):
        batches.append([indices for _, _, indices in tasks])
        return original(tasks)

    monkeypatch.setattr(pbsgame.sweep, "_run_batch", spy)
    tasks = [
        (small_config(rounds=5, p_c=0.2), 1, (0,)),
        (small_config(rounds=5, n_builders=2), 1, (1,)),
        (small_config(rounds=5, p_c=0.9, seed=3), 1, (2,)),
    ]
    run_replicas(tasks, jobs=1)
    assert batches == [[(0,), (2,)], [(1,)]]


def test_lockstep_takes_one_shape_and_steps_its_replicas_together():
    configs = [small_config(rounds=5), small_config(rounds=5, p_c=0.1, seed=4)]
    lockstep = Lockstep(configs[0], 2)
    with pytest.raises(ConfigError, match="p_c and seed"):
        Simulation(small_config(rounds=6), None, lockstep, 1)
    sims = [Simulation(config, None, lockstep, row) for row, config in enumerate(configs)]
    scenario = Scenario(values=(0.1,) * 6, graph=InteractionGraph.independent(6))
    with pytest.raises(ConfigError, match="lone replica"):
        lockstep.run_round(sims, scenario)
    for wrong in (sims[:1], sims[::-1], [sims[0], Simulation(configs[1])]):
        with pytest.raises(ConfigError, match="step together"):
            lockstep.run_round(wrong)
    with pytest.raises(ConfigError, match="step together"):
        sims[0].run()
    assert [sim.round_index for sim in sims] == [0, 0]
    lockstep.run(sims)
    assert [sim.round_index for sim in sims] == [5, 5]


def test_pool_settings_are_the_configs_and_read_only():
    sim = Simulation(small_config(temperature=0.5, learning_rate=0.25))
    assert {(pool.temperature, pool.learning_rate) for pool in sim.pools} == {(0.5, 0.25)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        sim.pools[0].learning_rate = 0.0


def test_configs_are_hashable_and_equal_configs_hash_equal():
    a, b = SimConfig(1, 1, 1, 0.5), SimConfig(1, 1, 1, 0.5, ga=GAConfig())
    assert a == b and hash(a) == hash(b)
    assert len({a, b, SimConfig(1, 1, 1, 0.25)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.ga.trigger = 0.5


def test_window_means_add_left_to_right():
    # a compensated sum (Python's ``sum`` since 3.12) would keep the 1.0: 1/3
    assert final_window_mean([1e16, 1.0, -1e16], 1.0) == 0.0


def test_run_plays_only_the_rounds_left():
    sim = Simulation(small_config(rounds=50, snapshot_every=25))
    for _ in range(5):
        sim.run_round()
    sim.run()
    whole = Simulation(small_config(rounds=50, snapshot_every=25))
    whole.run()
    assert sim.round_index == 50 and len(sim.metrics) == 50
    assert [s["round"] for s in sim.snapshots] == [25, 50]
    assert sim.metrics == whole.metrics and sim.snapshots == whole.snapshots
    sim.run()  # nothing is left
    assert sim.round_index == 50


def test_a_run_without_reads_keeps_each_ga_log_bounded(monkeypatch):
    # ~1.2 GA steps per replica-round; a round takes pool CoVs only for a full log
    calls = []

    def cov_spy(values):
        calls.append(len(values))
        return cov(values)

    monkeypatch.setattr("pbsgame.simulation.cov", cov_spy)
    config = small_config(rounds=600, ga=GAConfig(trigger=0.2))
    lockstep = Lockstep(config, 3)
    sims = [Simulation(config, None, lockstep, row) for row in range(3)]
    for _ in range(config.rounds):
        lockstep.run_round(sims)
        assert all(len(sim._log) < LOG_FLUSH for sim in sims)
    # the first round's CoVs of every replica's pools, then one pool per logged step of
    # a full log, which one round's steps may take past the flush size
    assert calls[0] == 3 and len(calls) > 1
    assert all(LOG_FLUSH <= steps < LOG_FLUSH + config.n_agents for steps in calls[1:])
    assert all(0 < len(sim._metrics.cov_alpha) < config.rounds for sim in sims)


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
