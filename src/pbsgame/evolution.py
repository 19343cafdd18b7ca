"""Per-agent strategy pools: softmax selection, fitness updates, and the GA.

Each agent keeps a pool of POOL_SIZE genome codes (``codec``) with a fitness
each. Every round it plays one, chosen by softmax roulette over fitness; the
played strategy's fitness moves toward the realized payoff by an exponential
moving average. With a small per-round probability the pool is rebuilt: the
worst fraction is eliminated and offspring are bred from the survivors by
roulette selection, single-point crossover, and bit-flip mutation until the
pool is full again.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .codec import BUILDER_WIDTH, SEARCHER_WIDTH
from .errors import CodecError, ConfigError

POOL_SIZE = 20


@dataclass(frozen=True)
class GAConfig:
    trigger: float = 0.01  # per-agent per-round probability of a GA step
    elimination: float = 0.5  # fraction of the pool removed
    mutation: float = 0.01  # per-bit flip probability

    def __post_init__(self):
        for name in ("trigger", "elimination", "mutation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"GA {name} must be in [0, 1], got {value}")


@dataclass(eq=False, frozen=True)
class StrategyPool:
    """One agent's strategies: ``width``-bit genome codes and their fitness. In a
    ``Simulation`` both are views onto the agent's rows of its pool arrays, and the
    temperature and learning rate are the ``SimConfig``'s. The fields cannot be
    reassigned; the arrays' entries can."""

    owner: int
    width: int
    codes: np.ndarray
    fitness: np.ndarray
    temperature: float = 2.0  # softmax selection temperature
    learning_rate: float = 0.5  # step of the fitness moving average

    def __post_init__(self):
        object.__setattr__(self, "codes", np.asarray(self.codes, dtype=np.int64))
        object.__setattr__(self, "fitness", np.asarray(self.fitness, dtype=float))
        if not self.codes.size or self.codes.ndim != 1 or self.fitness.shape != self.codes.shape:
            raise ConfigError(f"a pool needs a non-empty row of codes, one fitness each, "
                              f"got {self.codes.shape} and {self.fitness.shape}")
        if self.width not in (BUILDER_WIDTH, SEARCHER_WIDTH) or np.any(self.codes >> self.width):
            raise CodecError(f"codes must be non-negative {self.width}-bit integers, width 5 or 10")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.learning_rate <= 1.0:
            raise ConfigError(f"learning rate must be in [0, 1], got {self.learning_rate}")

    @property
    def bits(self) -> list[str]:
        return [format(code, f"0{self.width}b") for code in self.codes.tolist()]


def _softmax(fitness: np.ndarray, temperature) -> np.ndarray:
    """Softmax along the last axis; shift-invariant."""
    weights = np.exp((fitness - fitness.max(axis=-1, keepdims=True)) / temperature)
    return weights / weights.sum(axis=-1, keepdims=True)


def roulette(fitness: np.ndarray, temperature, uniforms: np.ndarray) -> np.ndarray:
    """One softmax roulette pick per row of ``fitness`` (any leading axes), each from the
    uniform draw of the same index: the count of the row's cumulative probabilities <= the
    draw, clipped to the last strategy. Each row is reduced on its own, so stacking rows
    never changes a pick."""
    cumulative = np.cumsum(_softmax(fitness, temperature), axis=-1)
    picked = np.count_nonzero(cumulative <= uniforms[..., None], axis=-1)
    return np.minimum(picked, cumulative.shape[-1] - 1)


def select_strategy(pool: StrategyPool, rng: np.random.Generator) -> int:
    """Roulette-wheel draw from one ``rng.random`` double; returns the selected index."""
    return int(roulette(pool.fitness, pool.temperature, np.array(rng.random())))


def update_fitness(pool: StrategyPool, index: int, payoff: float) -> None:
    """EMA update of the played strategy only: f <- (1 - eta) f + eta * payoff."""
    eta = pool.learning_rate
    pool.fitness[index] = (1.0 - eta) * pool.fitness[index] + eta * payoff


def evolve(pool: StrategyPool, config: GAConfig, rng: np.random.Generator) -> None:
    """One GA step, in place: eliminate the worst fraction, breed back to full size.

    Elimination removes the lowest-fitness strategies (ties broken by lower
    index). Parents are drawn by softmax roulette from the survivors; each pair
    yields two single-point-crossover offspring whose fitness is the parents'
    mean, each mutated bit-wise. A surplus offspring is dropped if the
    shortfall is odd. Survivors keep their order and the offspring follow.
    """
    size, width = len(pool.codes), pool.width
    # keep at least one survivor so there is always a parent to breed from
    n_drop = min(int(size * config.elimination), size - 1)
    kept = np.sort(np.argsort(pool.fitness, kind="stable")[n_drop:])  # by (fitness, index)
    codes, fitness = pool.codes[kept].tolist(), pool.fitness[kept].tolist()
    cumulative = np.cumsum(_softmax(np.array(fitness), pool.temperature)).tolist()
    last = len(codes) - 1
    places = [1 << bit for bit in reversed(range(width))]  # string position -> code bit
    while len(codes) < size:
        u_a, u_b = rng.random(2).tolist()
        a, b = min(bisect_right(cumulative, u_a), last), min(bisect_right(cumulative, u_b), last)
        # the first ``point`` bits (the high ones) come from one parent, the rest from the other
        low = (1 << width - int(rng.integers(1, width))) - 1
        child_fitness = 0.5 * (fitness[a] + fitness[b])
        for child in (codes[a] & ~low | codes[b] & low, codes[b] & ~low | codes[a] & low):
            if len(codes) == size:
                break
            if config.mutation > 0:
                flips = zip(places, rng.random(width).tolist())
                child ^= sum(place for place, u in flips if u < config.mutation)
            codes.append(child)
            fitness.append(child_fitness)
    pool.codes[:] = codes
    pool.fitness[:] = fitness
