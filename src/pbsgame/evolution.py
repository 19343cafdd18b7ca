"""Per-agent strategy pools: softmax selection, fitness updates, and the GA.

Each agent keeps a pool of POOL_SIZE chromosomes. Every round it plays one,
chosen by softmax roulette over fitness; the played strategy's fitness moves
toward the realized payoff by an exponential moving average. With a small
per-round probability the pool is rebuilt: the worst fraction is eliminated
and offspring are bred from the survivors by roulette selection,
single-point crossover, and bit-flip mutation until the pool is full again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import Chromosome, random_chromosome
from .errors import ConfigError

POOL_SIZE = 20


@dataclass
class GAConfig:
    trigger: float = 0.01  # per-agent per-round probability of a GA step
    elimination: float = 0.5  # fraction of the pool removed
    mutation: float = 0.01  # per-bit flip probability

    def __post_init__(self):
        for name in ("trigger", "elimination", "mutation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"GA {name} must be in [0, 1], got {value}")


@dataclass
class StrategyPool:
    owner: int
    strategies: list[Chromosome]
    temperature: float = 2.0  # softmax selection temperature
    learning_rate: float = 0.5  # step of the fitness moving average

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("strategy pool cannot be empty")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.learning_rate <= 1.0:
            raise ConfigError(f"learning rate must be in [0, 1], got {self.learning_rate}")

    @classmethod
    def random(cls, owner: int, width: int, rng: np.random.Generator, **params) -> "StrategyPool":
        """A pool of POOL_SIZE random chromosomes; ``params`` sets the remaining fields."""
        return cls(owner, [random_chromosome(width, rng) for _ in range(POOL_SIZE)], **params)


def _softmax(fitness: np.ndarray, temperature) -> np.ndarray:
    """Softmax along the last axis; shift-invariant."""
    weights = np.exp((fitness - fitness.max(axis=-1, keepdims=True)) / temperature)
    return weights / weights.sum(axis=-1, keepdims=True)


def _roulette(cumulative: np.ndarray, u: np.ndarray) -> list[int]:
    """The index each u draws: the count of cumulative probabilities <= u, clipped to the last."""
    picked = np.count_nonzero(cumulative <= u[:, None], axis=-1)
    return np.minimum(picked, cumulative.shape[-1] - 1).tolist()


def select_strategies(pools: Sequence[StrategyPool], rng: np.random.Generator) -> list[int]:
    """One roulette draw per equal-sized pool; ``rng.random(n)`` equals n scalar draws."""
    fitness = np.array([[c.fitness for c in pool.strategies] for pool in pools])
    temperature = np.array([[pool.temperature] for pool in pools])
    return _roulette(np.cumsum(_softmax(fitness, temperature), axis=1), rng.random(len(pools)))


def select_strategy(pool: StrategyPool, rng: np.random.Generator) -> int:
    """Roulette-wheel draw; returns the index of the selected strategy."""
    return select_strategies([pool], rng)[0]


def update_fitness(pool: StrategyPool, index: int, payoff: float) -> None:
    """EMA update of the played strategy only: f <- (1 - eta) f + eta * payoff."""
    chrom = pool.strategies[index]
    eta = pool.learning_rate
    chrom.fitness = (1.0 - eta) * chrom.fitness + eta * payoff


def _crossover(
    parent_a: Chromosome, parent_b: Chromosome, rng: np.random.Generator
) -> tuple[Chromosome, Chromosome]:
    width = parent_a.width
    point = int(rng.integers(1, width))
    child_fitness = 0.5 * (parent_a.fitness + parent_b.fitness)
    bits_a = parent_a.bits[:point] + parent_b.bits[point:]
    bits_b = parent_b.bits[:point] + parent_a.bits[point:]
    return Chromosome(bits_a, child_fitness), Chromosome(bits_b, child_fitness)


def _mutate(chrom: Chromosome, rate: float, rng: np.random.Generator) -> Chromosome:
    if rate <= 0:
        return chrom
    flips = rng.random(chrom.width) < rate
    if not flips.any():
        return chrom
    bits = "".join(
        ("1" if b == "0" else "0") if flip else b for b, flip in zip(chrom.bits, flips)
    )
    return Chromosome(bits, chrom.fitness)


def evolve(pool: StrategyPool, config: GAConfig, rng: np.random.Generator) -> None:
    """One GA step: eliminate the worst half, breed back to full size.

    Elimination removes the lowest-fitness strategies (ties broken by lower
    index). Parents are drawn by softmax roulette from the survivors; each pair
    yields two single-point-crossover offspring whose fitness is the parents'
    mean, mutated bit-wise. A surplus offspring is dropped if the shortfall is
    odd.
    """
    size = len(pool.strategies)
    # keep at least one survivor so there is always a parent to breed from
    n_drop = min(int(size * config.elimination), size - 1)
    order = sorted(range(size), key=lambda k: (pool.strategies[k].fitness, k))
    dropped = set(order[:n_drop])
    survivors = [c for k, c in enumerate(pool.strategies) if k not in dropped]

    cumulative = np.cumsum(_softmax(np.array([c.fitness for c in survivors]), pool.temperature))
    offspring: list[Chromosome] = []
    while len(survivors) + len(offspring) < size:
        idx_a, idx_b = _roulette(cumulative, rng.random(2))
        child_a, child_b = _crossover(survivors[idx_a], survivors[idx_b], rng)
        offspring.append(_mutate(child_a, config.mutation, rng))
        if len(survivors) + len(offspring) < size:
            offspring.append(_mutate(child_b, config.mutation, rng))

    pool.strategies = survivors + offspring
