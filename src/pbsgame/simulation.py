"""The round loop: role assignment, strategy play, block auction, learning.

Agents 0..n_builders-1 build blocks; the rest share bundles. Each round draws
a fresh scenario, every agent plays a strategy from its pool, searchers bid to
every builder through the sigmoid of that builder's announced rebate ratio,
each builder's greedy scan gives its block's total bid, the totals go to a
second-price auction, only the winner's block is built and settled, and
realized payoffs feed back into strategy fitness. Occasionally a pool is
rebuilt by the GA. Pool state is two ``(agents, POOL_SIZE)`` arrays, genome
codes and fitness, and each agent's ``StrategyPool`` is a view onto its rows.

A simulation is strictly sequential and owns a single RNG, so a (config, seed)
pair reproduces bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .auction import conservation_residual, run_auction, settle
from .builder import Block, BlockEntry, greedy_scan, rank_offers
from .builder import build_block  # noqa: F401  the benchmark's layer probes wrap this name
from .codec import BUILDER_ALPHAS, BUILDER_WIDTH, SEARCHER_WIDTH, SEGMENT_BITS, SEGMENT_MAX
from .codec import SearcherParams, bid_ratios, random_codes, searcher_params
from .codec import bid_ratio, decode_builder, decode_searcher, segment_ints  # noqa: F401  probed
from .errors import ConfigError, NumericalError
from .evolution import POOL_SIZE, GAConfig, StrategyPool, evolve, select_strategies
from .evolution import select_strategy, update_fitness  # noqa: F401  the benchmark's probes wrap these
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
        # the value scale 1/rate must be finite and positive too: 1/1e-320 is inf
        if not (self.value_rate > 0 and 0 < 1 / self.value_rate < math.inf):
            raise ConfigError(
                f"value rate and its inverse must be positive and finite, got {self.value_rate}"
            )
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1 or None, got {self.capacity}")
        if self.ma_window < 1:
            raise ConfigError(f"moving-average window must be >= 1, got {self.ma_window}")
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot period must be >= 0, got {self.snapshot_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

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
    """One round's outcome. With ``record_rounds`` off the round returns, but does not keep,
    a record whose ``alphas``, ``gammas`` and ``betas`` are empty: it decodes no searcher."""

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


def cov(values):
    """Population coefficient of variation along the last axis (a float for 1-D input);
    0 where the mean is 0. Each row takes the numpy sums a 1-D input would."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigError("cov needs a non-empty list")
    mean = arr.mean(axis=-1)
    ratio = np.divide(arr.std(axis=-1), mean, out=np.zeros_like(mean), where=mean != 0)
    return float(ratio) if ratio.ndim == 0 else ratio


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
    """Owns the pool arrays and their per-agent views, the RNG, and the accumulated metrics."""

    def __init__(self, config: SimConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        widths = [BUILDER_WIDTH] * config.n_builders + [SEARCHER_WIDTH] * config.n_searchers
        # row a: agent a's genome codes and their fitness
        self.codes = np.array([random_codes(w, POOL_SIZE, self.rng) for w in widths])
        self.fitness = np.zeros(self.codes.shape)
        self.pools = tuple(
            StrategyPool(a, w, self.codes[a], self.fitness[a], config.temperature, config.learning_rate)
            for a, w in enumerate(widths)
        )
        self.round_index = 0
        self.metrics = MetricsSeries()
        self.records: list[RoundRecord] = []
        self.snapshots: list[dict] = []
        self.max_residual = 0.0
        self._agents = np.arange(config.n_agents)
        # the mean pool CoV of alpha, gamma1 and gamma2; genomes change only
        # in a GA step, which clears it
        self._consensus: tuple[float, float, float] | None = None

    def _pool_covs(self) -> tuple[float, float, float]:
        if self._consensus is None:
            n_b, n, codes = self.config.n_builders, self.config.n_agents, self.codes
            # one row per genome segment: each builder's, then each searcher's two
            segments = (codes[:n_b], codes[n_b:] >> SEGMENT_BITS, codes[n_b:] & SEGMENT_MAX)
            covs = cov(np.concatenate(segments)).tolist()
            self._consensus = (_mean(covs[:n_b]), _mean(covs[n_b:n]), _mean(covs[n:]))
        return self._consensus

    def run_round(self, scenario: Scenario | None = None) -> RoundRecord:
        """Play one round; draws a scenario from the owned RNG unless given one."""
        cfg = self.config
        n = cfg.n_agents
        if scenario is None:
            scenario = draw_scenario(n, cfg.p_c, cfg.value_rate, self.rng)
        elif scenario.n != n:
            raise ConfigError(f"scenario has {scenario.n} bundles for {n} agents")

        # strategy selection, one softmax draw per agent in index order
        temperatures = np.array([[pool.temperature] for pool in self.pools])
        chosen = select_strategies(self.fitness, temperatures, self.rng)
        played = self.codes[self._agents, chosen].tolist()
        n_b = cfg.n_builders

        alphas = [BUILDER_ALPHAS[code] for code in played[:n_b]]
        betas = bid_ratios(played[n_b:], played[:n_b])

        winner, payment, payoffs, residual = None, 0.0, (0.0,) * n, 0.0
        if n_b > 0:
            # row j: the offers to builder j in owner order, its own bundle
            # (bid at its whole value) then every searcher's
            width = n - n_b + 1
            offer_owners = np.empty((n_b, width), dtype=np.intp)
            offer_owners[:] = range(n_b - 1, n)
            offer_owners[:, 0] = cfg.builder_ids
            offer_values = np.empty((n_b, width))
            offer_values[:] = scenario.values[n_b - 1 :]
            offer_values[:, 0] = scenario.values[:n_b]
            offer_bids = offer_values.copy()
            offer_bids[:, 1:] *= betas.T
            # each row in rank order, as flat indices into the offer matrices
            ranked = rank_offers(offer_values, offer_bids) + width * np.arange(n_b)[:, None]
            owners, values, bids = (
                a.ravel()[ranked].tolist() for a in (offer_owners, offer_values, offer_bids)
            )
            masks = scenario.graph.conflict_masks
            scans = [greedy_scan(*row, masks, cfg.capacity) for row in zip(owners, values, bids)]

            def winning_block(j: int) -> Block:
                entries = (BlockEntry(owners[j][k], values[j][k], bids[j][k]) for k in scans[j][0])
                return Block(j, tuple(entries), cfg.capacity)

            totals = {j: total for j, (_, total) in enumerate(scans)}
            outcome = run_auction(totals, self.rng, winning_block)
            settlement = settle(outcome, n, alphas[outcome.winner])
            winner, payment, payoffs = outcome.winner, outcome.payment, settlement.payoffs
            residual = conservation_residual(settlement, outcome)
            # written so that a NaN residual fails too
            if not residual <= _RESIDUAL_HARD_LIMIT * max(1.0, outcome.winning_block.total_value):
                raise NumericalError(
                    f"payoff conservation violated by {residual:.3e} in round {self.round_index}"
                )
            self.max_residual = max(self.max_residual, residual)

        # only the played strategy learns; losers and the excluded see payoff 0
        eta = np.array([pool.learning_rate for pool in self.pools])
        played_fitness = self.fitness[self._agents, chosen]
        self.fitness[self._agents, chosen] = (1.0 - eta) * played_fitness + eta * np.array(payoffs)

        for agent in np.flatnonzero(self.rng.random(n) < cfg.ga.trigger).tolist():
            evolve(self.pools[agent], cfg.ga, self.rng)
            self._consensus = None

        m = self.metrics
        m.avg_bid_ratio.append(_mean(betas.ravel().tolist()))
        m.avg_rebate_ratio.append(_mean(alphas))
        for series, value in zip((m.cov_alpha, m.cov_gamma1, m.cov_gamma2), self._pool_covs()):
            series.append(value)
        m.searcher_reward.append(_mean([payoffs[i] for i in cfg.searcher_ids]))
        m.builder_reward.append(_mean([payoffs[j] for j in cfg.builder_ids]))
        m.proposer_reward.append(payment)

        record = RoundRecord(self.round_index, {}, {}, {}, winner, payment, payoffs, residual)
        if cfg.record_rounds:
            record.alphas = dict(enumerate(alphas))
            record.gammas = {i: searcher_params(played[i]) for i in cfg.searcher_ids}
            record.betas = dict(zip(cfg.searcher_ids, map(tuple, betas.tolist())))
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
                    "strategies": [list(s) for s in zip(pool.bits, pool.fitness.tolist())],
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
