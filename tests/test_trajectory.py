"""Whole trajectories of the simulator against the scalar reference in ``reference.py``.

Each example runs one small simulation and its scalar transcription from the
same seed, and asserts that every metric series, every pool's genomes and
fitness, the round records and the final generator state are equal (NaN
equal to NaN). The lockstep property does the same for every replica of a
batch stepped together, a third reads the metrics at drawn rounds of a run,
whose consensus series are filled on read, and the replica-runner property checks that batching
tasks by shape returns, in task order, what one simulation per task returns.
A further property checks one GA step on its own.
"""

import math
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbsgame.simulation
from pbsgame.evolution import GAConfig, StrategyPool, evolve
from pbsgame.simulation import LOG_FLUSH, Lockstep, MetricsSeries, SimConfig, Simulation, summarize
from pbsgame.sweep import replica_rng, run_replicas
from reference import FIELDS, ReferenceRun
from reference import evolve as string_evolve


def same(a, b) -> bool:
    """Equality that holds NaN equal to NaN, through tuples, lists and dicts."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def unit(*endpoints):
    return st.one_of(st.sampled_from(endpoints), st.floats(0.0, 1.0))


@st.composite
def configs(draw):
    n_builders = draw(st.integers(0, 6))
    n_searchers = draw(st.integers(max(0, 2 - n_builders), 6))
    n = n_builders + n_searchers
    ga = GAConfig(
        trigger=draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5))),
        elimination=draw(unit(0.0, 0.5, 1.0)),
        mutation=draw(unit(0.0, 1.0)),
    )
    return SimConfig(
        n_builders=n_builders,
        n_searchers=n_searchers,
        rounds=draw(st.integers(1, 60)),
        p_c=draw(unit(0.0, 1.0)),
        temperature=draw(st.one_of(st.just(2.0), st.floats(0.05, 10.0))),
        learning_rate=draw(unit(0.0, 0.5, 1.0)),
        ga=ga,
        capacity=draw(st.one_of(st.none(), st.integers(1, n))),
        seed=draw(st.integers(0, 2**32 - 1)),
        record_rounds=draw(st.booleans()),
    )


def assert_follows_the_reference(sim, config):
    reference = ReferenceRun(config).run()
    assert FIELDS == MetricsSeries.FIELDS
    for name in FIELDS:
        assert same(getattr(sim.metrics, name), reference.series[name]), name
    pools = [
        [[bits, fitness] for bits, fitness in pool["strategies"]]
        for pool in sim.snapshot()["pools"]
    ]
    assert same(pools, reference.pools)
    records = [
        (r.index, r.alphas, r.gammas, r.betas, r.winner, r.payment, tuple(r.payoffs), r.residual)
        for r in sim.records
    ]
    assert same(records, reference.records)
    assert sim.rng.bit_generator.state == reference.rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(configs())
def test_simulation_follows_the_scalar_reference(config):
    sim = Simulation(config)
    sim.run()
    assert_follows_the_reference(sim, config)


@settings(max_examples=100, deadline=None)
@given(configs(), st.sampled_from([1, 2, 7]), st.data())
def test_every_lockstep_replica_follows_its_scalar_reference(shape, replicas, data):
    configs = [
        replace(shape, p_c=data.draw(unit(0.0, 1.0)), seed=data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(replicas)
    ]
    lockstep = Lockstep(shape, replicas)
    sims = [Simulation(config, None, lockstep, row) for row, config in enumerate(configs)]
    lockstep.run(sims)
    for sim, config in zip(sims, configs):
        assert_follows_the_reference(sim, config)


@settings(max_examples=100, deadline=None)
@given(configs(), st.sampled_from([None, 1, 2, 7]), st.sampled_from([1, 3, LOG_FLUSH]), st.data())
def test_metrics_read_mid_run_follow_the_scalar_reference(shape, replicas, flush, data):
    # the consensus series are filled on read and whenever a GA log holds ``flush``
    # steps; a read at any round sees the reference's prefix and leaves the rest as is
    reads = sorted(data.draw(st.sets(st.integers(0, shape.rounds), max_size=4)))
    if replicas is None:
        configs = [shape]
        sims = [Simulation(shape)]
        step, finish = sims[0].run_round, sims[0].run
    else:
        configs = [
            replace(shape, p_c=data.draw(unit(0.0, 1.0)), seed=data.draw(st.integers(0, 2**32 - 1)))
            for _ in range(replicas)
        ]
        lockstep = Lockstep(shape, replicas)
        sims = [Simulation(config, None, lockstep, row) for row, config in enumerate(configs)]
        step, finish = partial(lockstep.run_round, sims), partial(lockstep.run, sims)
    references = [ReferenceRun(config).run() for config in configs]
    with mock.patch.object(pbsgame.simulation, "LOG_FLUSH", flush):
        for t in reads:
            while sims[0].round_index < t:
                step()
            for sim, reference in zip(sims, references):
                for name in FIELDS:
                    assert same(getattr(sim.metrics, name), reference.series[name][:t]), (t, name)
        finish()
    for sim, config in zip(sims, configs):
        assert_follows_the_reference(sim, config)


@st.composite
def task_lists(draw):
    """Replica tasks of 2-4 shapes, one without builders and one with a lone task,
    in a drawn order; each task has its own p_c, master seed and seed indices."""
    shapes = [
        replace(draw(configs()), rounds=draw(st.integers(1, 25)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    shapes.append(replace(shapes[0], n_builders=0, n_searchers=draw(st.integers(2, 6)), capacity=None))
    counts = [1] + [draw(st.integers(1, 6)) for _ in shapes[1:]]
    tasks = [
        (
            replace(shape, p_c=draw(unit(0.0, 1.0))),
            draw(st.integers(0, 2**32 - 1)),
            tuple(draw(st.lists(st.integers(0, 9), max_size=3))),
        )
        for shape, count in zip(shapes, counts)
        for _ in range(count)
    ]
    return draw(st.permutations(tasks))


@pytest.mark.parametrize("jobs", [1, 2])
@settings(max_examples=15, deadline=None)
@given(task_lists())
def test_batched_replicas_equal_one_simulation_per_task(jobs, tasks):
    expected = []
    for config, master_seed, indices in tasks:
        sim = Simulation(config, rng=replica_rng(master_seed, *indices))
        sim.run()
        expected.append(summarize(sim))
    assert same(run_replicas(tasks, jobs), expected)


@st.composite
def ga_steps(draw):
    """A pool of 1-20 ``[bits, fitness]`` strategies with tie-prone fitness, its
    temperature, the elimination and mutation rates, and a seed."""
    width = draw(st.sampled_from([5, 10]))
    fitness = st.one_of(st.sampled_from([0.0, 0.5, -1.0]), st.floats(-10.0, 10.0))
    strategies = [
        [format(draw(st.integers(0, 2**width - 1)), f"0{width}b"), draw(fitness)]
        for _ in range(draw(st.integers(1, 20)))
    ]
    temperature = draw(st.one_of(st.just(2.0), st.floats(0.05, 10.0)))
    return strategies, temperature, draw(unit(0.0, 0.5, 1.0)), draw(unit(0.0, 1.0)), draw(
        st.integers(0, 2**32 - 1)
    )


@settings(max_examples=500, deadline=None)
@given(ga_steps())
def test_array_ga_step_equals_the_string_ga(step):
    strategies, temperature, elimination, mutation, seed = step
    codes = [int(bits, 2) for bits, _ in strategies]
    width = len(strategies[0][0])
    pool = StrategyPool(0, width, codes, [f for _, f in strategies], temperature=temperature)
    rng = np.random.default_rng(seed)
    evolve(pool, GAConfig(trigger=1.0, elimination=elimination, mutation=mutation), rng)
    reference_rng = np.random.default_rng(seed)
    expected = string_evolve(strategies, temperature, elimination, mutation, reference_rng)
    assert pool.bits == [bits for bits, _ in expected]
    assert pool.fitness.tolist() == [f for _, f in expected]
    assert rng.bit_generator.state == reference_rng.bit_generator.state
