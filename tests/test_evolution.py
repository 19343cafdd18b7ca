import math

import numpy as np
import pytest

from pbsgame.codec import Chromosome
from pbsgame.errors import ConfigError
from pbsgame.evolution import (
    GAConfig,
    StrategyPool,
    evolve,
    select_strategies,
    select_strategy,
    selection_probabilities,
    update_fitness,
)


def pool_of(fitness_values, bits="00000", **kwargs):
    strategies = [Chromosome(bits, f) for f in fitness_values]
    return StrategyPool(0, strategies, **kwargs)


def test_uniform_selection_when_fitness_equal():
    pool = pool_of([1.0] * 20)
    probs = selection_probabilities(pool)
    assert np.allclose(probs, 0.05)


def test_softmax_closed_form_two_strategies():
    # fitness gap of T*ln 2 doubles the selection odds
    pool = pool_of([1.0, 1.0 + 2.0 * math.log(2)], temperature=2.0)
    probs = selection_probabilities(pool)
    assert probs[0] == pytest.approx(1 / 3)
    assert probs[1] == pytest.approx(2 / 3)


def test_high_temperature_flattens_selection():
    rng = np.random.default_rng(0)
    pool = pool_of(list(np.linspace(0, 1, 20)), temperature=1e6)
    counts = np.zeros(20)
    for _ in range(10_000):
        counts[select_strategy(pool, rng)] += 1
    from scipy.stats import chisquare

    assert chisquare(counts).pvalue > 0.01


def test_selection_frequencies_follow_probabilities():
    rng = np.random.default_rng(1)
    pool = pool_of([0.0, 2.0 * math.log(2)], temperature=2.0)
    draws = np.array([select_strategy(pool, rng) for _ in range(30_000)])
    assert draws.mean() == pytest.approx(2 / 3, abs=0.01)


def test_softmax_shift_invariance():
    base = pool_of(list(np.linspace(0, 0.5, 20)))
    shifted = pool_of(list(np.linspace(0, 0.5, 20) + 123.0))
    assert np.allclose(selection_probabilities(base), selection_probabilities(shifted))
    assert selection_probabilities(base).sum() == pytest.approx(1.0)


def test_update_fitness_arithmetic():
    pool = pool_of([2.0, 7.0])
    update_fitness(pool, 0, 4.0)
    assert pool.strategies[0].fitness == pytest.approx(3.0)
    assert pool.strategies[1].fitness == 7.0


def test_update_fitness_limits():
    frozen = pool_of([2.0], learning_rate=0.0)
    update_fitness(frozen, 0, 100.0)
    assert frozen.strategies[0].fitness == 2.0
    memoryless = pool_of([2.0], learning_rate=1.0)
    update_fitness(memoryless, 0, 100.0)
    assert memoryless.strategies[0].fitness == 100.0


def test_evolve_restores_pool_size_and_width():
    rng = np.random.default_rng(2)
    pool = StrategyPool.random(0, 10, rng)
    for _ in range(20):
        evolve(pool, GAConfig(), rng)
        assert len(pool.strategies) == 20
        assert all(c.width == 10 for c in pool.strategies)


def test_evolve_eliminates_lowest_fitness_half():
    rng = np.random.default_rng(3)
    pool = pool_of(list(range(20)), bits="11111")
    evolve(pool, GAConfig(mutation=0.0), rng)
    survivors = [c.fitness for c in pool.strategies[:10]]
    assert survivors == list(range(10, 20))


def test_evolve_elimination_tie_breaks_by_index():
    rng = np.random.default_rng(4)
    strategies = [Chromosome("00000", 0.0) for _ in range(20)]
    strategies[15].fitness = 1.0
    pool = StrategyPool(0, strategies)
    evolve(pool, GAConfig(mutation=0.0), rng)
    # the ten lowest-index zero-fitness strategies are gone; 15's survives
    assert pool.strategies[5].fitness == 1.0


def test_offspring_fitness_is_parent_mean():
    from pbsgame.evolution import _crossover

    rng = np.random.default_rng(5)
    child_a, child_b = _crossover(Chromosome("00000", 1.0), Chromosome("11111", 3.0), rng)
    assert child_a.fitness == pytest.approx(2.0)
    assert child_b.fitness == pytest.approx(2.0)
    # the two children are complementary single-point recombinations
    point = child_a.bits.index("1")
    assert child_a.bits == "0" * point + "1" * (5 - point)
    assert child_b.bits == "1" * point + "0" * (5 - point)


def test_evolve_offspring_fitness_within_parent_range():
    rng = np.random.default_rng(5)
    pool = StrategyPool(0, [Chromosome("00000", 1.0), Chromosome("11111", 3.0),
                            Chromosome("00000", -1.0), Chromosome("11111", -2.0)])
    evolve(pool, GAConfig(elimination=0.5, mutation=0.0), rng)
    assert len(pool.strategies) == 4
    for child in pool.strategies[2:]:
        assert child.fitness in (1.0, 2.0, 3.0)  # mean of some survivor pair


def test_identical_parents_breed_identical_offspring_without_mutation():
    rng = np.random.default_rng(6)
    pool = StrategyPool(0, [Chromosome("0110101100", 1.0) for _ in range(20)])
    evolve(pool, GAConfig(mutation=0.0), rng)
    assert all(c.bits == "0110101100" for c in pool.strategies)


def test_mutation_flips_bits_at_expected_rate():
    rng = np.random.default_rng(7)
    pool = StrategyPool(0, [Chromosome("0" * 10, 1.0) for _ in range(20)])
    flipped = total = 0
    for _ in range(200):
        evolve(pool, GAConfig(mutation=0.01), rng)
        for c in pool.strategies[10:]:
            flipped += c.bits.count("1")
            total += 10
        for c in pool.strategies:
            c.bits = "0" * 10  # reset genome, keep the loop stationary
    assert flipped / total == pytest.approx(0.01, rel=0.35)


def test_ga_config_validation():
    with pytest.raises(ConfigError):
        GAConfig(trigger=1.5)
    with pytest.raises(ConfigError):
        GAConfig(mutation=-0.1)


def test_pool_validation():
    with pytest.raises(ConfigError):
        StrategyPool(0, [])
    with pytest.raises(ConfigError):
        StrategyPool(0, [Chromosome("00000")], temperature=0.0)
    with pytest.raises(ConfigError):
        StrategyPool(0, [Chromosome("00000")], learning_rate=1.5)


class TopDraw:
    """Stands in for a generator whose every draw is the largest double below 1."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


def test_selection_clips_to_last_strategy():
    # ten equal weights sum to just under 1, so the top draw passes every cumulative bound
    pool = pool_of([0.0] * 10)
    assert np.cumsum(selection_probabilities(pool))[-1] <= np.nextafter(1.0, 0.0)
    assert select_strategies([pool, pool], TopDraw()) == [9, 9]
    assert select_strategy(pool, TopDraw()) == 9
