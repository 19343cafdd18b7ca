import math

import numpy as np
import pytest

from pbsgame.codec import random_codes
from pbsgame.errors import ConfigError
from pbsgame.evolution import GAConfig, _softmax, evolve, roulette, select_strategy, update_fitness
from pbsgame.simulation import SimConfig, Simulation


def from_bits(bits):
    """Genome codes of equal-width bit strings, each read most-significant first."""
    return np.array([int(b, 2) for b in bits])


def as_bits(codes, width):
    return [format(code, f"0{width}b") for code in codes.tolist()]


def fitness_of(values):
    return np.array(values, dtype=float)


def test_uniform_selection_when_fitness_equal():
    probs = _softmax(fitness_of([1.0] * 20), 2.0)
    assert np.allclose(probs, 0.05)


def test_softmax_closed_form_two_strategies():
    # fitness gap of T*ln 2 doubles the selection odds
    probs = _softmax(fitness_of([1.0, 1.0 + 2.0 * math.log(2)]), 2.0)
    assert probs[0] == pytest.approx(1 / 3)
    assert probs[1] == pytest.approx(2 / 3)


def test_high_temperature_flattens_selection():
    rng = np.random.default_rng(0)
    fitness = np.linspace(0, 1, 20)
    counts = np.zeros(20)
    for _ in range(10_000):
        counts[select_strategy(fitness, 1e6, rng)] += 1
    from scipy.stats import chisquare

    assert chisquare(counts).pvalue > 0.01


def test_selection_frequencies_follow_probabilities():
    rng = np.random.default_rng(1)
    fitness = fitness_of([0.0, 2.0 * math.log(2)])
    draws = np.array([select_strategy(fitness, 2.0, rng) for _ in range(30_000)])
    assert draws.mean() == pytest.approx(2 / 3, abs=0.01)


def test_softmax_shift_invariance():
    base = _softmax(np.linspace(0, 0.5, 20), 2.0)
    shifted = _softmax(np.linspace(0, 0.5, 20) + 123.0, 2.0)
    assert np.allclose(base, shifted)
    assert base.sum() == pytest.approx(1.0)


def test_update_fitness_arithmetic():
    fitness = fitness_of([2.0, 7.0])
    update_fitness(fitness, 0, 4.0, 0.5)
    assert fitness[0] == pytest.approx(3.0)
    assert fitness[1] == 7.0


def test_update_fitness_limits():
    frozen = fitness_of([2.0])
    update_fitness(frozen, 0, 100.0, 0.0)
    assert frozen[0] == 2.0
    memoryless = fitness_of([2.0])
    update_fitness(memoryless, 0, 100.0, 1.0)
    assert memoryless[0] == 100.0


def test_evolve_restores_pool_size_and_width():
    rng = np.random.default_rng(2)
    codes, fitness = random_codes(10, 20, rng), np.zeros(20)
    for _ in range(20):
        evolve(codes, fitness, 10, 2.0, GAConfig(), rng)
        assert len(codes) == len(fitness) == 20
        assert 0 <= codes.min() and codes.max() < 2**10


def test_evolve_eliminates_lowest_fitness_half():
    rng = np.random.default_rng(3)
    codes, fitness = from_bits(["11111"] * 20), fitness_of(range(20))
    evolve(codes, fitness, 5, 2.0, GAConfig(mutation=0.0), rng)
    assert fitness[:10].tolist() == list(range(10, 20))


def test_evolve_elimination_tie_breaks_by_index():
    rng = np.random.default_rng(4)
    fitness = np.zeros(20)
    fitness[15] = 1.0
    evolve(from_bits(["00000"] * 20), fitness, 5, 2.0, GAConfig(mutation=0.0), rng)
    # the ten lowest-index zero-fitness strategies are gone; 15's survives
    assert fitness[5] == 1.0


def test_offspring_fitness_is_parent_mean():
    # the two worst go, leaving parents 00000 (fitness 1) and 11111 (fitness 3);
    # seed 2 draws them in that order for the one crossover
    rng = np.random.default_rng(2)
    codes, fitness = from_bits(["00000", "11111", "00000", "00000"]), fitness_of([1.0, 3.0, -9.0, -9.0])
    evolve(codes, fitness, 5, 2.0, GAConfig(elimination=0.5, mutation=0.0), rng)
    child_a, child_b = as_bits(codes, 5)[2:]
    assert fitness[2] == pytest.approx(2.0)
    assert fitness[3] == pytest.approx(2.0)
    # the two children are complementary single-point recombinations
    point = child_a.index("1")
    assert child_a == "0" * point + "1" * (5 - point)
    assert child_b == "1" * point + "0" * (5 - point)


def test_evolve_offspring_fitness_within_parent_range():
    rng = np.random.default_rng(5)
    codes, fitness = from_bits(["00000", "11111", "00000", "11111"]), fitness_of([1.0, 3.0, -1.0, -2.0])
    evolve(codes, fitness, 5, 2.0, GAConfig(elimination=0.5, mutation=0.0), rng)
    assert len(codes) == len(fitness) == 4
    for child_fitness in fitness[2:]:
        assert child_fitness in (1.0, 2.0, 3.0)  # mean of some survivor pair


def test_identical_parents_breed_identical_offspring_without_mutation():
    rng = np.random.default_rng(6)
    codes = from_bits(["0110101100"] * 20)
    evolve(codes, np.ones(20), 10, 2.0, GAConfig(mutation=0.0), rng)
    assert all(bits == "0110101100" for bits in as_bits(codes, 10))


def test_mutation_flips_bits_at_expected_rate():
    rng = np.random.default_rng(7)
    codes, fitness = np.zeros(20, dtype=np.int64), np.ones(20)
    flipped = total = 0
    for _ in range(200):
        evolve(codes, fitness, 10, 2.0, GAConfig(mutation=0.01), rng)
        for bits in as_bits(codes[10:], 10):
            flipped += bits.count("1")
            total += 10
        codes[:] = 0  # reset genome, keep the loop stationary
    assert flipped / total == pytest.approx(0.01, rel=0.35)


def test_ga_config_validation():
    with pytest.raises(ConfigError):
        GAConfig(trigger=1.5)
    with pytest.raises(ConfigError):
        GAConfig(mutation=-0.1)


def test_pool_validation():
    # the pools' selection settings are the config's, checked there once
    with pytest.raises(ConfigError, match="temperature"):
        SimConfig(n_builders=1, n_searchers=1, rounds=1, p_c=0.5, temperature=0.0)
    with pytest.raises(ConfigError, match="learning rate"):
        SimConfig(n_builders=1, n_searchers=1, rounds=1, p_c=0.5, learning_rate=1.5)


def test_pool_bits_read_codes_most_significant_first():
    sim = Simulation(SimConfig(n_builders=1, n_searchers=1, rounds=1, p_c=0.5))
    sim.codes[0, :2] = [0b00001, 0b10000]
    sim.codes[1, :3] = [0b0010101001, 0b1111100000, 1]
    sim.fitness[1, :3] = [0.5, -1.0, 0.0]
    builder, searcher = (pool["strategies"] for pool in sim.snapshot()["pools"])
    assert [bits for bits, _ in builder[:2]] == ["00001", "10000"]
    assert searcher[:3] == [["0010101001", 0.5], ["1111100000", -1.0], ["0000000001", 0.0]]


class TopDraw:
    """Stands in for a generator whose every draw is the largest double below 1."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


def test_selection_clips_to_last_strategy():
    # ten equal weights sum to just under 1, so the top draw passes every cumulative bound
    fitness = np.zeros(10)
    assert np.cumsum(_softmax(fitness, 2.0))[-1] <= np.nextafter(1.0, 0.0)
    assert roulette(np.stack([fitness] * 2), 2.0, TopDraw().random(2)).tolist() == [9, 9]
    assert select_strategy(fitness, 2.0, TopDraw()) == 9
