"""The round loop: role assignment, strategy play, block auction, learning.

Agents 0..n_builders-1 build blocks; the rest share bundles. Each round draws
a fresh scenario, every agent plays a strategy from its pool, searchers bid to
every builder through the sigmoid of that builder's announced rebate ratio,
each builder greedily merges a block, the blocks go to a second-price auction,
and realized payoffs feed back into strategy fitness. Occasionally a pool is
rebuilt by the GA.

A simulation is strictly sequential and owns a single RNG, so a (config, seed)
pair reproduces bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .auction import conservation_residual, run_auction, settle
from .builder import build_block, rank_offers
from .codec import (
    BUILDER_WIDTH,
    SEARCHER_WIDTH,
    SearcherParams,
    bid_ratios,
    decode_builder,
    decode_searcher,
    segment_ints,
)
from .codec import bid_ratio  # noqa: F401  the benchmark's layer probes wrap this name
from .errors import ConfigError, NumericalError
from .evolution import GAConfig, StrategyPool, evolve, select_strategies, update_fitness
from .evolution import select_strategy  # noqa: F401  the benchmark's layer probes wrap this name
from .market import Scenario, draw_scenario

# residuals beyond this share of the winning block's value (or of 1.0 for a
# smaller block) indicate a settlement bug, not float noise
_RESIDUAL_HARD_LIMIT = 1e-12
# fraction of rounds treated as post-convergence by ``summarize``
FINAL_WINDOW = 0.1


@dataclass(frozen=True)
class SimConfig:
    n_builders: int
    n_searchers: int
    rounds: int
    p_c: float
    value_rate: float = 10.0
    temperature: float = StrategyPool.temperature
    learning_rate: float = StrategyPool.learning_rate
    ga: GAConfig = field(default_factory=GAConfig)
    capacity: int | None = None
    seed: int = 0
    ma_window: int = 200
    record_rounds: bool = False
    snapshot_every: int = 0  # pool snapshot period; 0 disables

    def __post_init__(self):
        if self.n_builders < 0 or self.n_searchers < 0:
            raise ConfigError("agent counts must be non-negative")
        if self.n_builders + self.n_searchers < 1:
            raise ConfigError("need at least one agent")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.p_c <= 1:
            raise ConfigError(f"conflict probability must be in [0, 1], got {self.p_c}")
        if not 0 < self.value_rate < math.inf:
            raise ConfigError(f"value rate must be positive and finite, got {self.value_rate}")
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1 or None, got {self.capacity}")
        if self.ma_window < 1:
            raise ConfigError(f"moving-average window must be >= 1, got {self.ma_window}")
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot period must be >= 0, got {self.snapshot_every}")

    @property
    def n_agents(self) -> int:
        return self.n_builders + self.n_searchers

    @property
    def builder_ids(self) -> range:
        return range(self.n_builders)

    @property
    def searcher_ids(self) -> range:
        return range(self.n_builders, self.n_agents)

    def role_of(self, agent: int) -> str:
        return "builder" if agent < self.n_builders else "searcher"


@dataclass
class RoundRecord:
    index: int
    alphas: dict[int, float]  # builder -> announced rebate ratio
    gammas: dict[int, SearcherParams]  # searcher -> decoded parameters
    betas: dict[int, tuple[float, ...]]  # searcher -> bid ratio per builder
    winner: int | None
    payment: float
    payoffs: tuple[float, ...]
    residual: float


@dataclass
class MetricsSeries:
    """Per-round scalar series; NaN where a role is absent."""

    avg_bid_ratio: list[float] = field(default_factory=list)
    avg_rebate_ratio: list[float] = field(default_factory=list)
    cov_alpha: list[float] = field(default_factory=list)
    cov_gamma1: list[float] = field(default_factory=list)
    cov_gamma2: list[float] = field(default_factory=list)
    searcher_reward: list[float] = field(default_factory=list)
    builder_reward: list[float] = field(default_factory=list)
    proposer_reward: list[float] = field(default_factory=list)

    FIELDS = (
        "avg_bid_ratio",
        "avg_rebate_ratio",
        "cov_alpha",
        "cov_gamma1",
        "cov_gamma2",
        "searcher_reward",
        "builder_reward",
        "proposer_reward",
    )

    def __len__(self) -> int:
        return len(self.avg_bid_ratio)

    def row(self, t: int) -> tuple[float, ...]:
        return tuple(getattr(self, name)[t] for name in self.FIELDS)


def cov(values) -> float:
    """Population coefficient of variation; 0 when the mean is 0."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigError("cov needs a non-empty list")
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.std() / mean)


def moving_average(series, window: int) -> list[float]:
    """Trailing mean over up to ``window`` points; pure function of the series."""
    out = []
    running = 0.0
    values = list(series)
    for t, v in enumerate(values):
        running += v
        if t >= window:
            running -= values[t - window]
        out.append(running / min(t + 1, window))
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


class Simulation:
    """Owns the per-agent pools, the RNG, and the accumulated metrics."""

    def __init__(self, config: SimConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.pools: list[StrategyPool] = [
            StrategyPool.random(
                agent,
                BUILDER_WIDTH if config.role_of(agent) == "builder" else SEARCHER_WIDTH,
                self.rng,
                temperature=config.temperature,
                learning_rate=config.learning_rate,
            )
            for agent in range(config.n_agents)
        ]
        self.round_index = 0
        self.metrics = MetricsSeries()
        self.records: list[RoundRecord] = []
        self.snapshots: list[dict] = []
        self.max_residual = 0.0
        # per agent, the CoV of each genome segment over its pool; a pool's
        # genomes change only in a GA step, which drops the agent's entry
        self._covs: list[tuple[float, ...] | None] = [None] * config.n_agents

    def _pool_covs(self, agent: int) -> tuple[float, ...]:
        covs = self._covs[agent]
        if covs is None:
            ints = [segment_ints(c.bits) for c in self.pools[agent].strategies]
            covs = self._covs[agent] = tuple(cov(segment) for segment in zip(*ints))
        return covs

    def run_round(self, scenario: Scenario | None = None) -> RoundRecord:
        """Play one round; draws a scenario from the owned RNG unless given one."""
        cfg = self.config
        n = cfg.n_agents
        if scenario is None:
            scenario = draw_scenario(n, cfg.p_c, cfg.value_rate, self.rng)
        elif scenario.n != n:
            raise ConfigError(f"scenario has {scenario.n} bundles for {n} agents")

        # strategy selection, one softmax draw per agent in index order
        chosen = select_strategies(self.pools, self.rng)
        genomes = [pool.strategies[k] for pool, k in zip(self.pools, chosen)]
        n_b = cfg.n_builders

        alphas = [decode_builder(genomes[j]).alpha for j in cfg.builder_ids]
        gammas = {i: decode_searcher(genomes[i]) for i in cfg.searcher_ids}
        betas = bid_ratios(genomes[n_b:], genomes[:n_b])

        winner: int | None = None
        payment = 0.0
        payoffs = tuple(0.0 for _ in range(n))
        residual = 0.0
        if n_b > 0:
            values = scenario.values
            # row j: the offers to builder j in owner order, its own bundle
            # (bid at its whole value) then every searcher's
            offer_values = np.empty((n_b, n - n_b + 1))
            offer_values[:, 0] = values[:n_b]
            offer_values[:, 1:] = values[n_b:]
            offer_bids = offer_values.copy()
            offer_bids[:, 1:] *= betas.T
            orders = rank_offers(offer_values, offer_bids).tolist()
            owners = tuple(cfg.searcher_ids)
            blocks = {}
            for j, bids in enumerate(offer_bids.tolist()):
                offers = list(zip((j, *owners), (values[j], *values[n_b:]), bids))
                blocks[j] = build_block(j, offers, scenario.graph, cfg.capacity, orders[j])
            outcome = run_auction(blocks, self.rng)
            settlement = settle(outcome, n, alphas[outcome.winner])
            winner = outcome.winner
            payment = outcome.payment
            payoffs = settlement.payoffs
            residual = conservation_residual(settlement, outcome)
            if residual > _RESIDUAL_HARD_LIMIT * max(1.0, outcome.winning_block.total_value):
                raise NumericalError(
                    f"payoff conservation violated by {residual:.3e} in round {self.round_index}"
                )
            self.max_residual = max(self.max_residual, residual)

        # only the played strategy learns; losers and the excluded see payoff 0
        for agent in range(n):
            update_fitness(self.pools[agent], chosen[agent], payoffs[agent])

        for agent in np.flatnonzero(self.rng.random(n) < cfg.ga.trigger).tolist():
            evolve(self.pools[agent], cfg.ga, self.rng)
            self._covs[agent] = None

        m = self.metrics
        m.avg_bid_ratio.append(_mean(betas.ravel().tolist()))
        m.avg_rebate_ratio.append(_mean(alphas))
        m.cov_alpha.append(_mean([self._pool_covs(j)[0] for j in cfg.builder_ids]))
        m.cov_gamma1.append(_mean([self._pool_covs(i)[0] for i in cfg.searcher_ids]))
        m.cov_gamma2.append(_mean([self._pool_covs(i)[1] for i in cfg.searcher_ids]))
        m.searcher_reward.append(_mean([payoffs[i] for i in cfg.searcher_ids]))
        m.builder_reward.append(_mean([payoffs[j] for j in cfg.builder_ids]))
        m.proposer_reward.append(payment)

        record = RoundRecord(
            index=self.round_index,
            alphas=dict(enumerate(alphas)),
            gammas=gammas,
            betas=dict(zip(cfg.searcher_ids, map(tuple, betas.tolist()))),
            winner=winner,
            payment=payment,
            payoffs=payoffs,
            residual=residual,
        )
        if cfg.record_rounds:
            self.records.append(record)
        self.round_index += 1
        if cfg.snapshot_every and (
            self.round_index % cfg.snapshot_every == 0 or self.round_index == cfg.rounds
        ):
            self.snapshots.append(self.snapshot())
        return record

    def snapshot(self) -> dict:
        return {
            "round": self.round_index,
            "pools": [
                {
                    "agent": pool.owner,
                    "role": self.config.role_of(pool.owner),
                    "strategies": [[c.bits, c.fitness] for c in pool.strategies],
                }
                for pool in self.pools
            ],
        }

    def run(self) -> MetricsSeries:
        for _ in range(self.config.rounds):
            self.run_round()
        return self.metrics


def final_window_mean(series, fraction: float) -> float:
    """Mean over the trailing fraction of a series, NaN-aware."""
    values = [v for v in series]
    start = max(0, len(values) - max(1, int(len(values) * fraction)))
    tail = [v for v in values[start:] if not math.isnan(v)]
    return _mean(tail)


def summarize(sim: Simulation) -> dict[str, float]:
    """Post-convergence averages over the final FINAL_WINDOW of the rounds."""
    m = sim.metrics
    return {
        "bid_ratio": final_window_mean(m.avg_bid_ratio, FINAL_WINDOW),
        "rebate_ratio": final_window_mean(m.avg_rebate_ratio, FINAL_WINDOW),
        "searcher_reward": final_window_mean(m.searcher_reward, FINAL_WINDOW),
        "builder_reward": final_window_mean(m.builder_reward, FINAL_WINDOW),
        "proposer_reward": final_window_mean(m.proposer_reward, FINAL_WINDOW),
        "cov_alpha": final_window_mean(m.cov_alpha, FINAL_WINDOW),
        "cov_gamma1": final_window_mean(m.cov_gamma1, FINAL_WINDOW),
        "cov_gamma2": final_window_mean(m.cov_gamma2, FINAL_WINDOW),
        "max_residual": sim.max_residual,
    }
