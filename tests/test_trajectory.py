"""Whole trajectories of the simulator against the scalar reference in ``reference.py``.

Each example runs one small simulation and its scalar transcription from the
same seed, and asserts that every metric series, every pool's genomes and
fitness, the records the rounds return, decoded, and the final generator state
are equal (NaN equal to NaN). The lockstep properties do the same for every replica of a
batch stepped together, of one role split or of a split per replica, a fourth reads the
metrics at drawn rounds of a run, whose consensus series are filled on read, and the
replica-runner property checks that batching tasks by shape returns, in task order,
what one simulation per task returns.
A further property checks one GA step on its own.
"""

import math
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pbsgame.simulation
from pbsgame.codec import BUILDER_ALPHAS, bid_ratio, decode_searcher
from pbsgame.evolution import GAConfig, evolve
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
    )


@contextmanager
def returned_records():
    """Each replica's records, as the ``Lockstep.run_round`` calls under the block return
    them: ``rounds[r]`` lists those of the replica in row ``r``."""
    rounds = []
    run_round = Lockstep.run_round

    def spy(self):
        rounds.append(run_round(self))
        return rounds[-1]

    with mock.patch.object(Lockstep, "run_round", spy):
        yield rounds
    rounds[:] = zip(*rounds)


def decoded(record, config):
    """A ``RoundRecord`` as the reference keeps it: its codes decoded, betas by the scalar
    ``bid_ratio``."""
    codes = record.codes.tolist()
    alphas = {j: BUILDER_ALPHAS[codes[j]] for j in config.builder_ids}
    gammas = {i: decode_searcher(codes[i]) for i in config.searcher_ids}
    betas = {i: tuple(bid_ratio(gammas[i], alpha) for alpha in alphas.values()) for i in gammas}
    return (record.index, alphas, gammas, betas, record.winner, record.payment,
            tuple(record.payoffs), record.residual)


def assert_follows_the_reference(sim, config, records):
    reference = ReferenceRun(config).run()
    assert FIELDS == MetricsSeries.FIELDS
    for name in FIELDS:
        assert same(getattr(sim.metrics, name), reference.series[name]), name
    pools = [
        [[bits, fitness] for bits, fitness in pool["strategies"]]
        for pool in sim.snapshot()["pools"]
    ]
    assert same(pools, reference.pools)
    assert same([decoded(record, config) for record in records], reference.records)
    assert sim.rng.bit_generator.state == reference.rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(configs())
def test_simulation_follows_the_scalar_reference(config):
    sim = Simulation(config)
    with returned_records() as rounds:
        sim.run()
    assert_follows_the_reference(sim, config, rounds[0])


@settings(max_examples=100, deadline=None)
@given(configs(), st.sampled_from([1, 2, 7]), st.data())
def test_every_lockstep_replica_follows_its_scalar_reference(shape, replicas, data):
    configs = [
        replace(shape, p_c=data.draw(unit(0.0, 1.0)), seed=data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(replicas)
    ]
    lockstep = Lockstep(configs)
    with returned_records() as rounds:
        lockstep.run()
    for sim, config, records in zip(lockstep.replicas, configs, rounds):
        assert_follows_the_reference(sim, config, records)


@settings(max_examples=100, deadline=None)
@given(configs(), st.sampled_from([2, 7]), st.data())
def test_every_replica_of_a_mixed_split_lockstep_follows_its_scalar_reference(shape, replicas, data):
    # one population, each replica with its own split of its agents into builders and
    # searchers: one row without builders and one of builders only, the rest drawn
    n = shape.n_agents
    splits = [0, n] + [data.draw(st.integers(0, n)) for _ in range(replicas - 2)]
    configs = [
        replace(shape, n_builders=n_b, n_searchers=n - n_b, p_c=data.draw(unit(0.0, 1.0)),
                seed=data.draw(st.integers(0, 2**32 - 1)))
        for n_b in data.draw(st.permutations(splits))
    ]
    lockstep = Lockstep(configs)
    with returned_records() as rounds:
        lockstep.run()
    for sim, config, records in zip(lockstep.replicas, configs, rounds):
        assert_follows_the_reference(sim, config, records)


@settings(max_examples=100, deadline=None)
@given(configs(), st.sampled_from([None, 1, 2, 7]), st.sampled_from([1, 3, LOG_FLUSH]), st.data())
def test_metrics_read_mid_run_follow_the_scalar_reference(shape, replicas, flush, data):
    # every replica's series are filled on a read of any one, whenever the batch's one GA
    # log holds ``flush`` steps a replica and whenever the block of ``flush`` rounds is
    # full; a read of a drawn subset of replicas at any round, one at a full block too,
    # sees the reference's prefix and leaves the rest as is, and the end reads every replica
    reads = data.draw(st.sets(st.integers(0, shape.rounds), max_size=4))
    reads = sorted(reads | {t for t in (flush, 2 * flush) if t <= shape.rounds})
    # the lockstep sizes its block of played rounds by ``LOG_FLUSH``, so it is built under the patch
    with mock.patch.object(pbsgame.simulation, "LOG_FLUSH", flush):
        if replicas is None:
            configs = [shape]
            sims = [Simulation(shape)]
            step, finish = sims[0].run_round, sims[0].run
        else:
            configs = [
                replace(shape, p_c=data.draw(unit(0.0, 1.0)), seed=data.draw(st.integers(0, 2**32 - 1)))
                for _ in range(replicas)
            ]
            lockstep = Lockstep(configs)
            sims = lockstep.replicas
            # looked up at each step, so that ``returned_records`` sees the round
            step, finish = lambda: lockstep.run_round(), lockstep.run
        references = [ReferenceRun(config).run() for config in configs]
        with returned_records() as rounds:
            for t in reads:
                while sims[0].round_index < t:
                    step()
                for r in sorted(data.draw(st.sets(st.integers(0, len(sims) - 1), min_size=1))):
                    for name in FIELDS:
                        assert same(getattr(sims[r].metrics, name), references[r].series[name][:t]), (t, r, name)
            finish()
    for sim, config, records in zip(sims, configs, rounds):
        assert_follows_the_reference(sim, config, records)


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
        sim = Lockstep([config], [replica_rng(master_seed, *indices)]).replicas[0]
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


POOL = [[format(37 * k % 1024, "010b"), float(k % 7 - 3)] for k in range(20)]


@settings(max_examples=500, deadline=None)
@given(ga_steps())
@example((POOL, 2.0, 0.45, 0.01, 7))  # a shortfall of 9: the last pair breeds one child
@example((POOL, 2.0, 0.5, 0.0, 7))  # no mutation uniforms between the pairs' parents
@example((POOL, 2.0, 0.0, 0.01, 7))  # nothing eliminated: no draw at all
def test_array_ga_step_equals_the_string_ga(step):
    strategies, temperature, elimination, mutation, seed = step
    codes = np.array([int(bits, 2) for bits, _ in strategies])
    fitness = np.array([f for _, f in strategies])
    width = len(strategies[0][0])
    rng = np.random.default_rng(seed)
    ga = GAConfig(trigger=1.0, elimination=elimination, mutation=mutation)
    evolve(codes, fitness, width, temperature, ga, rng)
    reference_rng = np.random.default_rng(seed)
    expected = string_evolve(strategies, temperature, elimination, mutation, reference_rng)
    assert [format(code, f"0{width}b") for code in codes.tolist()] == [bits for bits, _ in expected]
    assert fitness.tolist() == [f for _, f in expected]
    assert rng.bit_generator.state == reference_rng.bit_generator.state
