import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures.process import BrokenProcessPool
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import pbsgame.auction
import pbsgame.builder
import pbsgame.cli
import pbsgame.simulation
import pbsgame.sweep

from pbsgame.auction import distribute
from pbsgame.builder import Block, BlockEntry
from pbsgame.codec import bid_ratio, decode_searcher
from pbsgame.egta import estimate_hpt
from pbsgame.errors import ConfigError, NumericalError
from pbsgame.evolution import GAConfig
from pbsgame.market import InteractionGraph, Scenario
from pbsgame.simulation import (
    FILL_BLOCK,
    LOG_FLUSH,
    Lockstep,
    MetricsSeries,
    SimConfig,
    Simulation,
    cov,
    moving_average,
    summarize,
)
from pbsgame.sweep import SWEEP_METRICS, replica_rng, run_replicas, sweep_conflict
from reference import given_scenario


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


def test_moving_average_window_and_purity():
    series = [1.0, 2.0, 3.0, 4.0, 5.0]
    ma = moving_average(series, 2)
    assert ma == [1.0, 1.5, 2.5, 3.5, 4.5]
    assert moving_average(series, 10) == [1.0, 1.5, 2.0, 2.5, 3.0]
    assert series == [1.0, 2.0, 3.0, 4.0, 5.0]


def summary_of(rounds: int, column: str, values) -> dict[str, float]:
    """``summarize`` of a finished run whose ``column`` series reads ``values`` in its last rounds."""
    lockstep = Lockstep([small_config(rounds=rounds)])
    lockstep.run()
    lockstep.series[0, rounds - len(values) :, MetricsSeries.FIELDS.index(column)] = values
    return summarize(lockstep.replicas[0])


def test_final_window_mean():
    # the window is the last max(1, int(0.1 * rounds)) rounds: values 0..rounds-1 average
    # the window's first and last round
    for rounds in (1, 9, 10, 25, 50):
        width = max(1, int(0.1 * rounds))
        summary = summary_of(rounds, "proposer_reward", range(rounds))
        assert summary["proposer_reward"] == (2 * rounds - width - 1) / 2, rounds


def test_a_replica_with_no_round_played_summarizes_to_nan():
    summary = summarize(Simulation(small_config()))
    assert summary.pop("max_residual") == 0.0
    assert all(math.isnan(value) for value in summary.values())


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(rounds=0)
    with pytest.raises(ConfigError):
        small_config(p_c=1.5)
    with pytest.raises(ConfigError):
        small_config(n_builders=0, n_searchers=0)
    # no round can draw a scenario of one bundle
    with pytest.raises(ConfigError, match="at least 2 agents"):
        small_config(n_builders=1, n_searchers=0)
    with pytest.raises(ConfigError):
        small_config(value_rate=0)
    with pytest.raises(ConfigError):
        small_config(capacity=0)
    with pytest.raises(ConfigError, match="temperature"):
        small_config(temperature=math.nan)
    with pytest.raises(ConfigError, match="value rate"):
        small_config(value_rate=1e-320)
    # the fitness moving average needs a step in [0, 1]; NaN made every fitness NaN
    for rate in (1.5, -0.1, math.nan):
        with pytest.raises(ConfigError, match="learning rate"):
            small_config(learning_rate=rate)


def test_deterministic_replay():
    records = []
    metrics = []
    for _ in range(2):
        sim = Simulation(small_config(rounds=100))
        records.append([sim.run_round() for _ in range(100)])
        metrics.append(sim.metrics)
    for r1, r2 in zip(records[0], records[1]):
        # the played codes: every decoded alpha, gamma and beta follows from them
        assert r1.codes.tolist() == r2.codes.tolist()
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


def freeze(codes, bits):
    """Every strategy of a pool's codes row becomes ``bits``; a zero learning rate in the
    config keeps its fitness from learning."""
    codes[:] = int(bits, 2)


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
    freeze(sim.codes[0], "10100")  # alpha = 20/31
    freeze(sim.codes[1], "1010001010")
    alpha = 20 / 31
    beta = bid_ratio(decode_searcher(int("1010001010", 2)), alpha)
    scenario = Scenario(values=(0.2, 0.1), graph=InteractionGraph.independent(2))
    with given_scenario(scenario):
        record = sim.run_round()
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


def test_summarize_keys():
    sim = Simulation(small_config(rounds=30))
    sim.run()
    assert set(summarize(sim)) == set(SWEEP_METRICS)


def test_a_round_decodes_no_genome(monkeypatch, tmp_path):
    calls = []
    spied = [(pbsgame.simulation, "decode_builder"), (pbsgame.simulation, "decode_searcher"),
             (pbsgame.cli, "decode_searcher")]
    for module, name in spied:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda c, name=name, real=real: calls.append(name) or real(c))
    Simulation(small_config(rounds=20)).run()
    assert calls == []
    # the spies are live: simulate decodes its searchers' codes as it writes rounds.csv
    argv = ["simulate", "--builders", 3, "--searchers", 3, "--rounds", 1, "--record-rounds", "-o", tmp_path]
    assert pbsgame.cli.main([str(a) for a in argv]) == 0
    assert calls == ["decode_searcher"] * 3


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
        sim = Lockstep([config], [replica_rng(master_seed, *indices)]).replicas[0]
        sim.run()
        expected.append(summarize(sim))
    assert run_replicas(tasks, jobs) == expected


class RecordingPool:
    """Stands in for ProcessPoolExecutor without starting a process: records the worker
    count it is opened with and the arguments of each shutdown, and runs the batches inline."""

    opened: list = []
    closed: list = []

    def __init__(self, max_workers):
        self.workers = max_workers
        self.opened.append(max_workers)

    def shutdown(self, **kwargs):
        self.closed.append((self.workers, kwargs))

    def map(self, fn, batches, chunksize=1):
        return map(fn, batches)


@pytest.fixture
def fresh_pool(monkeypatch):
    """Empties the process's cached worker pool for one test, so the test neither reuses
    another test's workers nor leaves its stand-in behind, and shuts down what it cached."""
    monkeypatch.setattr(pbsgame.sweep, "_pool", None)
    monkeypatch.setattr(RecordingPool, "opened", [])
    monkeypatch.setattr(RecordingPool, "closed", [])
    yield
    if pbsgame.sweep._pool is not None:
        pbsgame.sweep._pool[1].shutdown()


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
def test_worker_count_is_capped_by_batches_and_cpus(monkeypatch, fresh_pool, n_tasks, jobs, cpus, workers):
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
def test_fewer_than_one_job_is_refused(monkeypatch, fresh_pool, jobs):
    monkeypatch.setattr("pbsgame.sweep.ProcessPoolExecutor", RecordingPool)
    with pytest.raises(ConfigError, match="jobs"):
        run_replicas([(small_config(rounds=5), 7, (0,))], jobs)


def test_consecutive_parallel_calls_share_one_pool(monkeypatch, fresh_pool):
    built = []
    executor = pbsgame.sweep.ProcessPoolExecutor

    def counting(max_workers):
        built.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr("pbsgame.sweep.ProcessPoolExecutor", counting)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    tasks = [(small_config(rounds=5, p_c=0.3 * k), 7, (k,)) for k in range(4)]
    assert run_replicas(tasks, 2) == run_replicas(tasks, 2)
    assert built == [2]


def test_another_worker_count_replaces_the_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr("pbsgame.sweep.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    tasks = [(small_config(rounds=5), 7, (k,)) for k in range(6)]
    expected = run_replicas(tasks, 2)
    assert run_replicas(tasks, 1) == expected  # a call without workers leaves the pool alone
    assert (RecordingPool.opened, RecordingPool.closed) == ([2], [])
    assert run_replicas(tasks, 3) == expected
    assert RecordingPool.opened == [2, 3]
    assert RecordingPool.closed == [(2, {"wait": True})]
    assert pbsgame.sweep._pool[0] == 3


def test_a_broken_pool_is_dropped_and_the_next_call_starts_afresh(monkeypatch, fresh_pool):
    class BrokenPool(RecordingPool):
        def map(self, fn, batches, chunksize=1):
            raise BrokenProcessPool("a worker died")

    monkeypatch.setattr("pbsgame.sweep.ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    tasks = [(small_config(rounds=5), 7, (k,)) for k in range(4)]
    with pytest.raises(BrokenProcessPool):
        run_replicas(tasks, 2)
    assert pbsgame.sweep._pool is None
    assert RecordingPool.closed == [(2, {"wait": False, "cancel_futures": True})]
    monkeypatch.setattr("pbsgame.sweep.ProcessPoolExecutor", RecordingPool)
    assert run_replicas(tasks, 2) == run_replicas(tasks, 1)
    assert RecordingPool.opened == [2, 2]


def test_warm_workers_return_the_one_process_summaries(monkeypatch, fresh_pool):
    # each call hands the same two workers new replicas, of every role split
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    calls = [
        [(small_config(rounds=60, p_c=0.25 * (k % 5), n_builders=1 + k % 5, n_searchers=5 - k % 5),
          seed, (k,)) for k in range(5)]
        for seed in (3, 4, 5)
    ]
    expected = [run_replicas(tasks, 1) for tasks in calls]
    assert [run_replicas(tasks, 2) for tasks in calls] == expected


def test_a_parallel_sweep_leaves_no_worker_behind():
    probe = (
        "import os, pbsgame.sweep as sweep\n"
        "from pbsgame.simulation import SimConfig\n"
        "os.cpu_count = lambda: 2\n"
        "sweep.sweep_conflict(SimConfig(3, 3, 20, 0.5), [0.0, 1.0], 2, jobs=2)\n"
        "print(*sweep._pool[1]._processes)\n"
    )
    src = str(Path(pbsgame.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    pids = [int(pid) for pid in result.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


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


def test_an_egta_tables_role_splits_run_in_one_batch(monkeypatch):
    # the 4 simulated splits of 4 agents x 2 reps are one population: one batch of 8
    batches = []
    original = pbsgame.sweep._run_batch

    def spy(tasks):
        batches.append(sorted(config.n_builders for config, _, _ in tasks))
        return original(tasks)

    monkeypatch.setattr(pbsgame.sweep, "_run_batch", spy)
    table = estimate_hpt(4, small_config(rounds=5), reps=2, jobs=1)
    assert batches == [[1, 1, 2, 2, 3, 3, 4, 4]]
    assert [row.n_building for row in table.rows] == [0, 1, 2, 3, 4]


def test_lockstep_takes_one_shape_and_steps_its_replicas_together():
    configs = [small_config(rounds=5), small_config(rounds=5, p_c=0.1, seed=4)]
    with pytest.raises(ConfigError, match="p_c and seed"):
        Lockstep([configs[0], small_config(rounds=6)])
    lockstep = Lockstep(configs)
    sims = lockstep.replicas
    assert [sim.config for sim in sims] == configs
    assert [sim.round_index for sim in sims] == [0, 0]
    # stepping one replica steps the batch and returns that replica's record
    alone = [Simulation(config) for config in configs]
    record, expected = sims[0].run_round(), alone[0].run_round()
    alone[1].run_round()
    assert (record.index, record.codes.tolist(), record.payoffs) == (
        expected.index, expected.codes.tolist(), expected.payoffs)
    assert [sim.round_index for sim in sims] == [1, 1]
    assert [sim.rng.bit_generator.state for sim in sims] == [sim.rng.bit_generator.state for sim in alone]
    lockstep.run()
    assert [sim.round_index for sim in sims] == [5, 5]


def test_a_dropped_replica_frees_its_lockstep_without_the_cycle_collector():
    # a lockstep that kept its views would form a cycle with them, and every finished
    # simulation's arrays would wait for a full collection: sim-ref's peak RSS rose ~3 MB
    gc.disable()
    try:
        for make in (lambda: [Simulation(small_config(rounds=5))],
                     lambda: Lockstep([small_config(rounds=5)] * 2).replicas):
            sims = make()
            sims[0].run()
            lockstep = weakref.ref(sims[0]._lockstep)
            del sims
            assert lockstep() is None
    finally:
        gc.enable()


def test_pool_settings_are_the_configs_and_read_only():
    # each agent's played fitness moves toward its payoff by exactly the config's learning
    # rate; fitness above every payoff makes each played entry, and only it, change
    sim = Simulation(small_config(learning_rate=0.25, ga=GAConfig(trigger=0.0)))
    sim.fitness[:] = 1 + np.arange(sim.fitness.size).reshape(sim.fitness.shape) / 8
    before = sim.fitness.copy()
    record = sim.run_round()
    agents, played = np.nonzero(sim.fitness != before)
    assert agents.tolist() == list(range(sim.config.n_agents))
    assert sim.codes[agents, played].tolist() == record.codes.tolist()
    after = [0.75 * f + 0.25 * payoff for f, payoff in zip(before[agents, played], record.payoffs)]
    assert sim.fitness[agents, played].tolist() == after
    with pytest.raises(dataclasses.FrozenInstanceError):
        sim.config.learning_rate = 0.0


def test_configs_are_hashable_and_equal_configs_hash_equal():
    a, b = SimConfig(1, 1, 1, 0.5), SimConfig(1, 1, 1, 0.5, ga=GAConfig())
    assert a == b and hash(a) == hash(b)
    assert len({a, b, SimConfig(1, 1, 1, 0.25)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.ga.trigger = 0.5


def test_window_means_add_left_to_right():
    # 30 rounds: a window of 3; a compensated sum (Python's ``sum`` since 3.12) would keep the 1.0: 1/3
    assert summary_of(30, "avg_bid_ratio", [1e16, 1.0, -1e16])["bid_ratio"] == 0.0


def compensated_sum(items, start=0):
    """``sum`` as Python 3.12+ adds: ints exactly, then floats with Neumaier's compensation."""
    items = iter(items)
    for item in items:
        if not isinstance(item, int):
            break
        start += item
    else:
        return start
    total, compensation = float(start), 0.0
    for x in chain([item], items):
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def patch_sum(monkeypatch):
    for module in (pbsgame.auction, pbsgame.builder, pbsgame.simulation):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_the_stand_in_sums_as_python_312():
    assert compensated_sum([1.0, 1e-16, 1e-16]) == 1.0 + 2**-52
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([3, 4]) == 7 and compensated_sum([]) == 0


def test_block_totals_and_rebate_shares_add_left_to_right(monkeypatch):
    # 1 + 1e-16 rounds back to 1 at each step; a compensated sum gives 1 + 2**-52
    patch_sum(monkeypatch)
    entries = [(0, 1.0, 1.0), (1, 1e-16, 1e-16), (2, 1e-16, 1e-16)]
    block = Block(3, tuple(BlockEntry(*e) for e in entries))
    assert block.total_bid == 1.0 and block.total_value == 1.0
    # searcher 0's share of the 0.25 rebate pool is its bid over the searchers' bid sum
    assert distribute(3, 0.5, 1.0, entries, 0.5, 4)[0] == 0.25


@pytest.mark.parametrize("config", [SimConfig(10, 10, 300, 0.1, seed=1), SimConfig(2, 3, 80, 0.0, seed=4)])
def test_settlement_is_the_same_under_a_compensated_sum(monkeypatch, config):
    def outputs():
        sim = Simulation(config)
        sim.run()
        series = [getattr(sim.metrics, name) for name in MetricsSeries.FIELDS]
        return json.dumps([series, sim.max_residual, sim.snapshot()])

    plain = outputs()
    patch_sum(monkeypatch)
    assert outputs() == plain


def test_run_plays_only_the_rounds_left():
    sim = Simulation(small_config(rounds=50))
    for _ in range(5):
        sim.run_round()
    sim.run()
    whole = Simulation(small_config(rounds=50))
    whole.run()
    assert sim.round_index == 50 and len(sim.metrics) == 50
    assert sim.metrics == whole.metrics
    sim.run()  # nothing is left
    assert sim.round_index == 50


@pytest.mark.parametrize("replicas", [1, 2])
def test_a_round_past_the_configured_rounds_is_refused(replicas):
    config = small_config(rounds=3)
    lockstep = Lockstep([dataclasses.replace(config, seed=r) for r in range(replicas)])
    sims = lockstep.replicas
    lockstep.run()
    states = [sim.rng.bit_generator.state for sim in sims]
    series = [sim.metrics for sim in sims]
    with pytest.raises(ConfigError, match="all 3 rounds"):
        lockstep.run_round()
    assert [sim.round_index for sim in sims] == [3] * replicas
    assert [sim.rng.bit_generator.state for sim in sims] == states
    assert [sim.metrics for sim in sims] == series


def test_a_lockstep_holds_at_most_100_bytes_per_replica_round():
    # eight float64 series take 64 B a replica-round; eight lists of Python floats took
    # ~32 B a value. A read fills the consensus series and empties the GA log.
    def held(rounds):
        config = small_config(rounds=rounds)
        tracemalloc.start()
        try:
            lockstep = Lockstep([dataclasses.replace(config, seed=r) for r in range(4)])
            lockstep.run()
            for sim in lockstep.replicas:
                sim.metrics
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held(100)  # fills the lazily built lookup tables and numpy's small-buffer cache
    assert (held(2100) - held(100)) / (4 * 2000) <= 100


def test_the_mean_fill_holds_a_few_chunks_of_bid_ratios():
    # 127 50x50 rounds play 127 x 2,500 bid ratios, ~5 chunks of 2**16; taken at once,
    # they and their running sums peak near 10 chunk sizes (5 MB). With no GA step no log
    # fills the series early, so the measured fill holds all 127 rounds.
    lockstep = Lockstep([SimConfig(50, 50, LOG_FLUSH, 0.1, ga=GAConfig(trigger=0.0), seed=0)])
    for _ in range(LOG_FLUSH - 1):
        lockstep.run_round()
    assert lockstep._filled == 0
    tracemalloc.start()
    try:
        lockstep._fill()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert FILL_BLOCK == 2**16 and peak < 3 * 8 * FILL_BLOCK
    assert not np.isnan(lockstep.series[0, : LOG_FLUSH - 1, [0, 1, 5, 6]]).any()


def test_a_run_without_reads_keeps_each_ga_log_bounded(monkeypatch):
    # ~1.2 GA steps per replica-round; a round takes pool CoVs only at a fill, for a full
    # log or a full block of rounds
    calls = []

    def cov_spy(values):
        calls.append(len(values))
        return cov(values)

    monkeypatch.setattr("pbsgame.simulation.cov", cov_spy)
    config = small_config(rounds=600, ga=GAConfig(trigger=0.2))
    lockstep = Lockstep([config] * 3)
    for _ in range(config.rounds):
        lockstep.run_round()
        assert len(lockstep._steps) < LOG_FLUSH * 3
    # the first round's CoVs of every replica's pools, then one pool per logged step of the
    # batch at a fill, which one round's steps may take past the flush size
    assert calls[0] == 3 and len(calls) > 1
    assert all(steps < LOG_FLUSH * 3 + 3 * config.n_agents for steps in calls[1:])
    assert 0 < lockstep._filled < config.rounds


def test_a_fill_takes_every_rows_consensus_in_one_cov_and_one_means(monkeypatch):
    # trigger 1.0: every pool of every replica steps in every round, so the log holds all
    # three rows' steps; the fill's means of 6 played rows are one chunk of bid ratios
    lockstep = Lockstep([small_config(rounds=60, ga=GAConfig(trigger=1.0), seed=s) for s in range(3)])
    for _ in range(2):
        lockstep.run_round()
    calls = []

    def spy(function):
        def call(*args):
            calls.append(function.__name__)
            return function(*args)
        return call

    for name in ("cov", "_means"):
        monkeypatch.setattr(f"pbsgame.simulation.{name}", spy(getattr(pbsgame.simulation, name)))
    lockstep._fill()
    assert sorted(calls) == ["_means", "_means", "cov"]
    assert lockstep._filled == 2 and not np.isnan(lockstep.series[:, :2]).any()


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
