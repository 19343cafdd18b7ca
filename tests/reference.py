"""A scalar transcription of the round loop: the reference for whole trajectories.

Everything here works one agent, one offer and one bit at a time, on genomes
held as bit strings, in the order the round consumes its generator:

1. the scenario draw (``draw_scenario``, the market layer);
2. one uniform draw per agent, in index order, for the softmax roulette over
   its pool's fitness;
3. the scalar sigmoid bid ratio of every searcher towards every builder;
4. each builder's greedy block: sort by (value <= 0, -bid, owner), then scan,
   blocking the frozenset of bundles each included bundle conflicts with;
5. the second-price auction, a uniform integer draw only on an exact tie
   among the builders in index order, and the settlement;
6. the EMA update of each agent's played strategy;
7. one uniform draw per agent for the GA trigger, then, for each triggered
   agent in index order, the string GA: elimination by (fitness, index),
   roulette over the survivors, single-point crossover, bit-flip mutation;
8. the metrics, each a left-to-right Python sum, with each pool's CoV taken
   by numpy's 1-D mean and standard deviation.

It also holds ``random_genomes``, a pool drawn with one generator call per
genome, the asymmetric Laplace density and distribution of v1 - v2, the
oracle the closed-form market's quadrature and Monte Carlo checks integrate,
``bitmasks``, the conflict masks built one bit at a time, and ``given_scenario``,
which makes the simulator's next rounds play a fixed market.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from unittest import mock

import numpy as np

import pbsgame.simulation
from pbsgame.errors import ConfigError
from pbsgame.market import draw_scenario, pair_indices

POOL_SIZE = 20
BUILDER_WIDTH = 5
SEARCHER_WIDTH = 10


def linear(d: int, low: float, high: float) -> float:
    return low + (d / 31) * (high - low)


def alpha_of(bits: str) -> float:
    return linear(int(bits, 2), 0.0, 1.0)


def gammas_of(bits: str) -> tuple[float, float]:
    return linear(int(bits[:5], 2), 1.0, 5.0), linear(int(bits[5:], 2), 0.0, 4.0)


def bid_ratio(gammas: tuple[float, float], alpha: float) -> float:
    gamma1, gamma2 = gammas
    base = 1.0 / (1.0 + gamma1 ** (-alpha))
    return base**gamma2


def mean(values: list[float]) -> float:
    # strictly left to right: ``sum`` of floats is compensated since Python 3.12
    return reduce(operator.add, values) / len(values) if values else math.nan


def roulette(fitness: list[float], temperature: float, u: float) -> int:
    """The strategy one uniform draw picks: the count of cumulative softmax
    probabilities at or below ``u``, clipped to the last strategy."""
    f = np.array(fitness)
    weights = np.exp((f - f.max()) / temperature)
    cumulative = np.cumsum(weights / weights.sum()).tolist()
    return min(sum(1 for c in cumulative if c <= u), len(fitness) - 1)


def pool_cov(pool: list[list], segment: int) -> float:
    # fitness does not enter the CoV, and a pool's genomes change only at a GA step
    return genome_cov(tuple(bits for bits, _ in pool), segment)


@lru_cache(maxsize=4096)
def genome_cov(genomes: tuple[str, ...], segment: int) -> float:
    ints = [int(bits[5 * segment : 5 * segment + 5], 2) for bits in genomes]
    arr = np.array(ints, dtype=float)
    m = arr.mean()
    return 0.0 if m == 0 else float(arr.std() / m)


def random_genomes(width: int, size: int, rng: np.random.Generator) -> list[str]:
    """``size`` random genomes of ``width`` bits, one ``rng.integers`` call each."""
    return ["".join("1" if b else "0" for b in rng.integers(0, 2, size=width)) for _ in range(size)]


def mutate(bits: str, rate: float, rng: np.random.Generator) -> str:
    if rate <= 0:
        return bits
    flips = [rng.random() < rate for _ in bits]
    return "".join(("1" if b == "0" else "0") if flip else b for b, flip in zip(bits, flips))


def evolve(
    pool: list[list], temperature: float, elimination: float, mutation: float,
    rng: np.random.Generator,
) -> list[list]:
    """One string GA step on ``[bits, fitness]`` strategies; returns the new pool."""
    size = len(pool)
    n_drop = min(int(size * elimination), size - 1)
    dropped = set(sorted(range(size), key=lambda k: (pool[k][1], k))[:n_drop])
    survivors = [list(s) for k, s in enumerate(pool) if k not in dropped]
    fitness = [f for _, f in survivors]
    offspring = []
    while len(survivors) + len(offspring) < size:
        u_a, u_b = rng.random(), rng.random()
        bits_a, fit_a = survivors[roulette(fitness, temperature, u_a)]
        bits_b, fit_b = survivors[roulette(fitness, temperature, u_b)]
        point = int(rng.integers(1, len(bits_a)))
        child_fitness = 0.5 * (fit_a + fit_b)
        offspring.append([mutate(bits_a[:point] + bits_b[point:], mutation, rng), child_fitness])
        if len(survivors) + len(offspring) < size:
            offspring.append([mutate(bits_b[:point] + bits_a[point:], mutation, rng), child_fitness])
    return survivors + offspring


FIELDS = (
    "avg_bid_ratio", "avg_rebate_ratio", "cov_alpha", "cov_gamma1", "cov_gamma2",
    "searcher_reward", "builder_reward", "proposer_reward",
)


class ReferenceRun:
    """A whole simulation of ``config`` (a ``SimConfig``), one scalar step at a time."""

    def __init__(self, config):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.builders = list(range(config.n_builders))
        self.searchers = list(range(config.n_builders, config.n_builders + config.n_searchers))
        self.pools = []
        for agent in self.builders + self.searchers:
            width = BUILDER_WIDTH if agent in self.builders else SEARCHER_WIDTH
            self.pools.append([[bits, 0.0] for bits in random_genomes(width, POOL_SIZE, self.rng)])
        self.series = {name: [] for name in FIELDS}
        self.records = []

    def run(self) -> "ReferenceRun":
        for index in range(self.config.rounds):
            self.run_round(index)
        return self

    def run_round(self, index: int) -> None:
        cfg, rng = self.config, self.rng
        n = cfg.n_builders + cfg.n_searchers
        scenario = draw_scenario(n, cfg.p_c, cfg.value_rate, rng)
        values, weights = scenario.values, scenario.graph.weights
        conflicts = [frozenset(np.flatnonzero(weights[:, k] < 0).tolist()) for k in range(n)]

        chosen = []
        for pool in self.pools:
            chosen.append(roulette([f for _, f in pool], cfg.temperature, rng.random()))
        genomes = [pool[k][0] for pool, k in zip(self.pools, chosen)]
        alphas = [alpha_of(genomes[j]) for j in self.builders]
        gammas = {i: gammas_of(genomes[i]) for i in self.searchers}
        betas = {i: tuple(bid_ratio(gammas[i], alpha) for alpha in alphas) for i in self.searchers}

        winner, payment, payoffs, residual = None, 0.0, [0.0] * n, 0.0
        if self.builders:
            blocks, totals = {}, {}
            for j in self.builders:
                offers = [(j, values[j], values[j])]
                offers += [(i, values[i], values[i] * betas[i][j]) for i in self.searchers]
                entries, blocked = [], set()
                for owner, value, bid in sorted(offers, key=lambda e: (e[1] <= 0, -e[2], e[0])):
                    if value <= 0 or len(entries) == cfg.capacity:
                        break
                    if owner not in blocked:
                        entries.append((owner, value, bid))
                        blocked |= conflicts[owner]
                blocks[j] = entries
                totals[j] = reduce(operator.add, (bid for _, _, bid in entries), 0.0)

            top = max(totals.values())
            tied = [j for j in self.builders if totals[j] == top]
            winner = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
            others = [totals[j] for j in self.builders if j != winner]
            payment = max(others) if others else 0.0

            entries = blocks[winner]
            surplus = totals[winner] - payment
            searcher_entries = [e for e in entries if e[0] != winner]
            bid_sum = reduce(operator.add, (bid for _, _, bid in searcher_entries), 0.0)
            rebate_pool = alphas[winner] * surplus if bid_sum > 0 else 0.0
            for owner, value, bid in searcher_entries:
                share = bid / bid_sum if bid_sum > 0 else 0.0
                payoffs[owner] += (value - bid) + share * rebate_pool
            payoffs[winner] += surplus - rebate_pool
            residual = abs(
                (payment + reduce(operator.add, payoffs, 0.0))
                - reduce(operator.add, (value for _, value, _ in entries), 0.0)
            )

        eta = cfg.learning_rate
        for agent, pool in enumerate(self.pools):
            strategy = pool[chosen[agent]]
            strategy[1] = (1.0 - eta) * strategy[1] + eta * payoffs[agent]

        triggers = [rng.random() for _ in range(n)]
        for agent in range(n):
            if triggers[agent] < cfg.ga.trigger:
                self.pools[agent] = evolve(
                    self.pools[agent], cfg.temperature, cfg.ga.elimination, cfg.ga.mutation, rng
                )

        s = self.series
        s["avg_bid_ratio"].append(mean([b for i in self.searchers for b in betas[i]]))
        s["avg_rebate_ratio"].append(mean(alphas))
        s["cov_alpha"].append(mean([pool_cov(self.pools[j], 0) for j in self.builders]))
        s["cov_gamma1"].append(mean([pool_cov(self.pools[i], 0) for i in self.searchers]))
        s["cov_gamma2"].append(mean([pool_cov(self.pools[i], 1) for i in self.searchers]))
        s["searcher_reward"].append(mean([payoffs[i] for i in self.searchers]))
        s["builder_reward"].append(mean([payoffs[j] for j in self.builders]))
        s["proposer_reward"].append(payment)
        self.records.append((
            index, dict(enumerate(alphas)), gammas, betas, winner, payment, tuple(payoffs), residual,
        ))


def laplace_pdf(x: float, rate1: float, rate2: float) -> float:
    """Density of v1 - v2 for independent exponentials with the given rates."""
    if rate1 <= 0 or rate2 <= 0:
        raise ConfigError("rates must be positive")
    k = rate1 * rate2 / (rate1 + rate2)
    return k * math.exp(-rate1 * x) if x >= 0 else k * math.exp(rate2 * x)


def laplace_cdf(x: float, rate1: float, rate2: float) -> float:
    if rate1 <= 0 or rate2 <= 0:
        raise ConfigError("rates must be positive")
    if x < 0:
        return rate1 / (rate1 + rate2) * math.exp(rate2 * x)
    return 1.0 - rate2 / (rate1 + rate2) * math.exp(-rate1 * x)


def bitmasks(conflicts: np.ndarray) -> list[int]:
    """Row ``k`` of a boolean matrix as a Python int with bit ``i`` set where entry ``(k, i)`` is."""
    masks = []
    for row in conflicts.tolist():
        mask = 0
        for i, conflict in enumerate(row):
            if conflict:
                mask |= 1 << i
        masks.append(mask)
    return masks


def given_scenario(scenario):
    """A patch under which every round plays ``scenario``: the round's draw returns its
    values and pair draws and makes no generator call, so a round draws only its
    selection uniforms, GA triggers and any auction tie, as a drawn round then does."""
    rows, cols = pair_indices(scenario.n)
    draws = (np.array(scenario.values), scenario.graph.weights[rows, cols] < 0)
    return mock.patch.object(pbsgame.simulation, "draw_round", lambda n, p_c, rate, rng: draws)
