import math

import numpy as np
import pytest

from pbsgame.codec import random_codes
from pbsgame.errors import CodecError, ConfigError
from pbsgame.evolution import (
    GAConfig,
    StrategyPool,
    _softmax,
    evolve,
    roulette,
    select_strategy,
    update_fitness,
)


def from_bits(bits, fitness, **kwargs):
    """A pool of equal-width bit strings, each read most-significant first, and their fitness."""
    return StrategyPool(0, len(bits[0]), [int(b, 2) for b in bits], fitness, **kwargs)


def pool_of(fitness_values, bits="00000", **kwargs):
    return from_bits([bits] * len(fitness_values), fitness_values, **kwargs)


def probabilities(pool):
    """Softmax over the pool's fitness at its temperature."""
    return _softmax(pool.fitness, pool.temperature)


def test_uniform_selection_when_fitness_equal():
    pool = pool_of([1.0] * 20)
    probs = probabilities(pool)
    assert np.allclose(probs, 0.05)


def test_softmax_closed_form_two_strategies():
    # fitness gap of T*ln 2 doubles the selection odds
    pool = pool_of([1.0, 1.0 + 2.0 * math.log(2)], temperature=2.0)
    probs = probabilities(pool)
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
    assert np.allclose(probabilities(base), probabilities(shifted))
    assert probabilities(base).sum() == pytest.approx(1.0)


def test_update_fitness_arithmetic():
    pool = pool_of([2.0, 7.0])
    update_fitness(pool, 0, 4.0)
    assert pool.fitness[0] == pytest.approx(3.0)
    assert pool.fitness[1] == 7.0


def test_update_fitness_limits():
    frozen = pool_of([2.0], learning_rate=0.0)
    update_fitness(frozen, 0, 100.0)
    assert frozen.fitness[0] == 2.0
    memoryless = pool_of([2.0], learning_rate=1.0)
    update_fitness(memoryless, 0, 100.0)
    assert memoryless.fitness[0] == 100.0


def test_evolve_restores_pool_size_and_width():
    rng = np.random.default_rng(2)
    pool = StrategyPool(0, 10, random_codes(10, 20, rng), np.zeros(20))
    for _ in range(20):
        evolve(pool, GAConfig(), rng)
        assert len(pool.codes) == len(pool.fitness) == 20
        assert all(len(bits) == 10 for bits in pool.bits)
        assert 0 <= pool.codes.min() and pool.codes.max() < 2**10


def test_evolve_eliminates_lowest_fitness_half():
    rng = np.random.default_rng(3)
    pool = pool_of(list(range(20)), bits="11111")
    evolve(pool, GAConfig(mutation=0.0), rng)
    survivors = pool.fitness[:10].tolist()
    assert survivors == list(range(10, 20))


def test_evolve_elimination_tie_breaks_by_index():
    rng = np.random.default_rng(4)
    fitness = [0.0] * 20
    fitness[15] = 1.0
    pool = pool_of(fitness)
    evolve(pool, GAConfig(mutation=0.0), rng)
    # the ten lowest-index zero-fitness strategies are gone; 15's survives
    assert pool.fitness[5] == 1.0


def test_offspring_fitness_is_parent_mean():
    # the two worst go, leaving parents 00000 (fitness 1) and 11111 (fitness 3);
    # seed 2 draws them in that order for the one crossover
    rng = np.random.default_rng(2)
    pool = from_bits(["00000", "11111", "00000", "00000"], [1.0, 3.0, -9.0, -9.0])
    evolve(pool, GAConfig(elimination=0.5, mutation=0.0), rng)
    child_a, child_b = pool.bits[2:]
    assert pool.fitness[2] == pytest.approx(2.0)
    assert pool.fitness[3] == pytest.approx(2.0)
    # the two children are complementary single-point recombinations
    point = child_a.index("1")
    assert child_a == "0" * point + "1" * (5 - point)
    assert child_b == "1" * point + "0" * (5 - point)


def test_evolve_offspring_fitness_within_parent_range():
    rng = np.random.default_rng(5)
    pool = from_bits(["00000", "11111", "00000", "11111"], [1.0, 3.0, -1.0, -2.0])
    evolve(pool, GAConfig(elimination=0.5, mutation=0.0), rng)
    assert len(pool.codes) == len(pool.fitness) == 4
    for child_fitness in pool.fitness[2:]:
        assert child_fitness in (1.0, 2.0, 3.0)  # mean of some survivor pair


def test_identical_parents_breed_identical_offspring_without_mutation():
    rng = np.random.default_rng(6)
    pool = from_bits(["0110101100"] * 20, [1.0] * 20)
    evolve(pool, GAConfig(mutation=0.0), rng)
    assert all(bits == "0110101100" for bits in pool.bits)


def test_mutation_flips_bits_at_expected_rate():
    rng = np.random.default_rng(7)
    pool = from_bits(["0" * 10] * 20, [1.0] * 20)
    flipped = total = 0
    for _ in range(200):
        evolve(pool, GAConfig(mutation=0.01), rng)
        for bits in pool.bits[10:]:
            flipped += bits.count("1")
            total += 10
        pool.codes[:] = 0  # reset genome, keep the loop stationary
    assert flipped / total == pytest.approx(0.01, rel=0.35)


def test_ga_config_validation():
    with pytest.raises(ConfigError):
        GAConfig(trigger=1.5)
    with pytest.raises(ConfigError):
        GAConfig(mutation=-0.1)


def test_pool_validation():
    with pytest.raises(ConfigError):
        StrategyPool(0, 5, [], [])
    with pytest.raises(ConfigError):
        from_bits(["00000"], [0.0], temperature=0.0)
    with pytest.raises(ConfigError):
        from_bits(["00000"], [0.0], learning_rate=1.5)


@pytest.mark.parametrize(
    "width, codes, fitness",
    [(5, [32], [0.0]), (10, [-1], [0.0]), (7, [0], [0.0]), (5, [0, 1], [0.0]), (5, [[0]], [[0.0]])],
    ids=["code-too-wide", "negative-code", "width-7", "fitness-short", "two-dimensional"],
)
def test_pool_arrays_validation(width, codes, fitness):
    with pytest.raises((CodecError, ConfigError)):
        StrategyPool(0, width, codes, fitness)


def test_pool_bits_read_codes_most_significant_first():
    pool = StrategyPool(3, 10, [0b0010101001, 0b1111100000, 1], [0.5, -1.0, 0.0], temperature=0.5)
    assert pool.bits == ["0010101001", "1111100000", "0000000001"]
    assert pool.fitness.tolist() == [0.5, -1.0, 0.0]
    assert (pool.owner, pool.width, pool.temperature) == (3, 10, 0.5)
    assert StrategyPool(0, 5, [1, 16], [0.0, 0.0]).bits == ["00001", "10000"]


class TopDraw:
    """Stands in for a generator whose every draw is the largest double below 1."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


def test_selection_clips_to_last_strategy():
    # ten equal weights sum to just under 1, so the top draw passes every cumulative bound
    pool = pool_of([0.0] * 10)
    assert np.cumsum(probabilities(pool))[-1] <= np.nextafter(1.0, 0.0)
    assert roulette(np.stack([pool.fitness] * 2), pool.temperature, TopDraw().random(2)).tolist() == [9, 9]
    assert select_strategy(pool, TopDraw()) == 9
