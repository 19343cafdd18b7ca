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

from .errors import ConfigError

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


def _softmax(fitness: np.ndarray, temperature) -> np.ndarray:
    """Softmax along the last axis, in a new array; shift-invariant."""
    weights = fitness - np.maximum.reduce(fitness, axis=-1, keepdims=True)
    weights /= temperature
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights


def roulette(fitness: np.ndarray, temperature, uniforms: np.ndarray) -> np.ndarray:
    """One softmax roulette pick per row of ``fitness`` (any leading axes), each from the
    uniform draw of the same index: the count of the row's cumulative probabilities <= the
    draw, clipped to the last strategy. Each row is reduced on its own, so stacking rows
    never changes a pick."""
    cumulative = np.add.accumulate(_softmax(fitness, temperature), axis=-1)
    picked = np.add.reduce(cumulative <= uniforms[..., None], axis=-1, dtype=np.intp)
    return np.minimum(picked, cumulative.shape[-1] - 1)


def select_strategy(fitness: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    """Roulette-wheel draw over one pool's fitness from one ``rng.random`` double; returns
    the selected index."""
    return int(roulette(fitness, temperature, np.array(rng.random())))


def update_fitness(fitness: np.ndarray, index: int, payoff: float, learning_rate: float) -> None:
    """EMA update of the played strategy only, in place: f <- (1 - eta) f + eta * payoff."""
    fitness[index] = (1.0 - learning_rate) * fitness[index] + learning_rate * payoff


def evolve(
    codes: np.ndarray, fitness: np.ndarray, width: int, temperature: float, ga: GAConfig,
    rng: np.random.Generator,
) -> None:
    """One GA step on one pool's ``width``-bit genome codes and their fitness, in place:
    eliminate the worst fraction, breed back to full size.

    Elimination removes the lowest-fitness strategies (ties broken by lower
    index). Parents are drawn by softmax roulette from the survivors; each pair
    yields two single-point-crossover offspring whose fitness is the parents'
    mean, each mutated bit-wise. A surplus offspring is dropped if the
    shortfall is odd. Survivors keep their order and the offspring follow.
    """
    size = len(codes)
    # keep at least one survivor so there is always a parent to breed from
    n_drop = min(int(size * ga.elimination), size - 1)
    if n_drop == 0:  # the pool stays as it is, and no draw is made
        return
    kept = fitness.argsort(kind="stable")[n_drop:]  # by (fitness, index)
    kept.sort()
    new_codes, new_fitness = codes[kept].tolist(), fitness[kept].tolist()
    cumulative = np.add.accumulate(_softmax(fitness[kept], temperature)).tolist()
    last = len(new_codes) - 1
    places = [1 << bit for bit in reversed(range(width))]  # string position -> code bit
    flip_width = width if ga.mutation > 0 else 0
    uniforms = rng.random(2).tolist()  # the first pair's parents
    while (short := size - len(new_codes)) > 0:
        u_a, u_b = uniforms[-2:]
        a, b = min(bisect_right(cumulative, u_a), last), min(bisect_right(cumulative, u_b), last)
        # the first ``point`` bits (the high ones) come from one parent, the rest from the other
        low = (1 << width - int(rng.integers(1, width))) - 1
        child_fitness = 0.5 * (new_fitness[a] + new_fitness[b])
        children = (new_codes[a] & ~low | new_codes[b] & low, new_codes[b] & ~low | new_codes[a] & low)[:short]
        # the children's mutation uniforms, then the next pair's parents: adjacent in the stream
        uniforms = rng.random(len(children) * flip_width + 2 * (short > 2)).tolist()
        for k, child in enumerate(children):
            draws = uniforms[k * flip_width : (k + 1) * flip_width]
            if draws and min(draws) < ga.mutation:  # most children keep every bit
                child ^= sum(place for place, u in zip(places, draws) if u < ga.mutation)
            new_codes.append(child)
            new_fitness.append(child_fitness)
    codes[:] = new_codes
    fitness[:] = new_fitness
