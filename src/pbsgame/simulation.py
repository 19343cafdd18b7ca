"""The round kernel: role assignment, strategy play, block auction, learning.

Agents 0..n_builders-1 build blocks; the rest share bundles. Each round draws
a fresh scenario, every agent plays a strategy from its pool, searchers bid to
every builder through the sigmoid of that builder's announced rebate ratio,
each builder's greedy scan gives its block's total bid, the totals go to a
second-price auction, only the winner's block is built and settled, and
realized payoffs feed back into strategy fitness. Occasionally a pool is
rebuilt by the GA.

``Lockstep`` plays R replicas of one shape through each round together, on
``(R, agents, POOL_SIZE)`` arrays of genome codes and fitness; a
``Simulation`` is one replica, and one built alone has a ``Lockstep`` of
one. Every replica owns a single RNG and makes the same calls in the same
order however many replicas step with it, so a (config, seed) pair
reproduces bit-identical results.

No round reads the pool consensus (the ``cov_*`` series), so a round only logs the
codes each GA step leaves; ``Simulation.metrics`` fills the series when read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .auction import conservation_residual, distribute, second_price
from .auction import run_auction, settle  # noqa: F401  the benchmark's layer probes wrap these
from .builder import greedy_scan, rank_offers
from .builder import build_block  # noqa: F401  the benchmark's layer probes wrap this name
from .codec import BUILDER_ALPHAS, BUILDER_WIDTH, SEARCHER_WIDTH, SEGMENT_BITS, SEGMENT_MAX
from .codec import SearcherParams, bid_ratios, random_codes, searcher_params
from .codec import bid_ratio, decode_builder, decode_searcher, segment_ints  # noqa: F401  probed
from .errors import ConfigError, NumericalError
from .evolution import POOL_SIZE, GAConfig, StrategyPool, evolve, roulette
from .evolution import select_strategy, update_fitness  # noqa: F401  the benchmark's probes wrap these
from .market import Scenario, conflict_masks, draw_round, pair_indices
from .market import draw_scenario  # noqa: F401  the benchmark's probes wrap this name

# residuals beyond this share of the winning block's value (or of 1.0 for a
# smaller block) indicate a settlement bug, not float noise
_RESIDUAL_HARD_LIMIT = 1e-12
# fraction of rounds treated as post-convergence by ``summarize``
FINAL_WINDOW = 0.1
_ALPHAS = np.array(BUILDER_ALPHAS)
# GA steps a replica logs before its consensus series are filled without a read
LOG_FLUSH = 128


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
        # the value scale 1/rate and the softmax scale 1/temperature must be finite and
        # positive too: 1e-320 is positive, and 1/1e-320 is inf
        for name in ("value_rate", "temperature"):
            if not (getattr(self, name) > 0 and 0 < 1 / getattr(self, name) < math.inf):
                raise ConfigError(f"{name.replace('_', ' ')} and its inverse must be positive "
                                  f"and finite, got {getattr(self, name)}")
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1 or None, got {self.capacity}")
        if self.ma_window < 1:
            raise ConfigError(f"moving-average window must be >= 1, got {self.ma_window}")
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot period must be >= 0, got {self.snapshot_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def shape(self) -> "SimConfig":
        """This config but for ``p_c`` and ``seed``: replicas of one shape step in lockstep."""
        return replace(self, p_c=0.0, seed=0)

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
    CONSENSUS = ("cov_alpha", "cov_gamma1", "cov_gamma2")  # filled on read

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
    """Mean of a sum taken strictly left to right: Python's ``sum`` of floats is
    compensated since 3.12, so its last bit depends on the Python version."""
    return reduce(operator.add, values) / len(values) if values else math.nan


def _means(*parts: np.ndarray) -> np.ndarray:
    """``_mean`` of each row of each 2-D part as a (rows, parts) array, NaN for width 0: one
    left-to-right ``cumsum`` over the parts padded with zeros, which leave each sum as is."""
    widths = [part.shape[1] for part in parts]
    padded = np.zeros((len(parts[0]), len(parts), max(*widths, 1)))
    for k, part in enumerate(parts):
        padded[:, k, : widths[k]] = part
    sums = np.cumsum(padded, axis=-1)[:, range(len(parts)), [max(w, 1) - 1 for w in widths]]
    return sums / np.array([w or math.nan for w in widths])


def _segment_covs(codes: np.ndarray) -> list[list[float]]:
    """Per leading row of ``(rows, ..., POOL_SIZE)`` codes, the ``cov`` of each pool's high
    and then of its low five bits, for every pool in turn."""
    covs = cov(np.stack((codes >> SEGMENT_BITS, codes & SEGMENT_MAX), axis=-2))
    return covs.reshape(len(codes), -1).tolist()


class Simulation:
    """One replica: its config, RNG, pool rows and their per-agent views, and the
    accumulated metrics. Its rows are row ``row`` of a ``Lockstep``'s arrays: one of its
    own when none is given, else that of a batch, whose replicas step only together
    through ``Lockstep.run_round(sims)``."""

    def __init__(
        self, config: SimConfig, rng: np.random.Generator | None = None,
        lockstep: Lockstep | None = None, row: int = 0,
    ):
        if lockstep is None:
            lockstep = Lockstep(config, 1)
        elif config.shape != lockstep.config.shape:
            raise ConfigError("lockstep replicas must differ in p_c and seed only")
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._lockstep, self._row = lockstep, row
        # row [a]: agent a's genome codes and their fitness
        self.codes, self.fitness = lockstep.codes[row], lockstep.fitness[row]
        widths = [BUILDER_WIDTH] * config.n_builders + [SEARCHER_WIDTH] * config.n_searchers
        self.codes[:] = [random_codes(w, POOL_SIZE, self.rng) for w in widths]
        self.pools = tuple(
            StrategyPool(a, w, self.codes[a], self.fitness[a], config.temperature, config.learning_rate)
            for a, w in enumerate(widths)
        )
        self.round_index = 0
        self.max_residual = 0.0
        self._metrics = MetricsSeries()
        fields = [name for name in MetricsSeries.FIELDS if name not in MetricsSeries.CONSENSUS]
        self._columns = [getattr(self._metrics, name) for name in fields]
        # ``_segment_covs`` of every pool as of the last fill (the first is the first
        # round's), and each GA step since, as (round, agent, codes)
        self._pool_covs: list[float] | None = None
        self._log: list[tuple[int, int, np.ndarray]] = []
        self.records: list[RoundRecord] = []
        self.snapshots: list[dict] = []

    def run_round(self, scenario: Scenario | None = None) -> RoundRecord:
        """Play one round; draws a scenario from the owned RNG unless given one."""
        (record,) = self._lockstep.run_round([self], scenario)
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

    @property
    def metrics(self) -> MetricsSeries:
        """Every series up to ``round_index``."""
        self._fill_consensus()
        return self._metrics

    def _fill_consensus(self) -> None:
        """Extend the consensus series to ``round_index``: one ``cov`` over the logged pools,
        then each role's ``_means`` after each step; a round takes those after its last."""
        start, n_b = len(self._metrics.cov_alpha), self.config.n_builders
        if start == self.round_index:
            return
        states, rounds = [self._pool_covs], [t for t, _, _ in self._log]
        if self._log:
            pairs = _segment_covs(np.array([codes for _, _, codes in self._log]))
            for (_, agent, _), pair in zip(self._log, pairs):
                states.append(list(states[-1]))
                states[-1][2 * agent : 2 * agent + 2] = pair
            self._log.clear()
        # alpha is a builder's low segment (its only one), gamma1 and gamma2 a searcher's two
        covs = np.array(states)
        means = _means(covs[:, 1 : 2 * n_b : 2], covs[:, 2 * n_b :: 2], covs[:, 2 * n_b + 1 :: 2])
        latest = np.searchsorted(rounds, np.arange(start, self.round_index), side="right")
        for name, column in zip(MetricsSeries.CONSENSUS, means[latest].T.tolist()):
            getattr(self._metrics, name).extend(column)
        self._pool_covs = states[-1]

    def run(self) -> MetricsSeries:
        """Play the rounds left until ``config.rounds``."""
        self._lockstep.run([self])
        return self.metrics


class Lockstep:
    """The pool arrays of R replicas of one ``SimConfig.shape`` and the round that plays
    them all at once.

    Pool state is two ``(R, agents, POOL_SIZE)`` arrays, genome codes and fitness; the
    replica built with ``row=r`` owns rows ``r``. Each replica's generator makes exactly
    the calls a lone replica makes, in the same order: a per-replica loop draws values,
    pairs and selection uniforms, then runs the greedy scans, the auction (whose tie draw
    it is), the settlement and its guard, and draws the GA triggers; the triggered GA
    steps follow, each logged by its replica. Selection, bids, offer ranking, the fitness
    update and the per-round metrics run once per round on the stacked arrays, each row
    reduced on its own; the first round takes every pool's CoV, batched over replicas.
    """

    def __init__(self, config: SimConfig, size: int):
        self.config = config
        n, n_b, n_s = config.n_agents, config.n_builders, config.n_searchers
        self.codes = np.zeros((size, n, POOL_SIZE), dtype=np.int64)
        self.fitness = np.zeros(self.codes.shape)
        self._rows = POOL_SIZE * np.arange(size * n).reshape(size, n)  # flat index of pool [r, a]
        width = n_s + 1
        # offer [r, j, k]: builder j's own bundle at k = 0, then searcher n_b + k - 1
        owners = np.empty((size, n_b, width), dtype=np.intp)
        owners[:] = range(n_b - 1, n)
        owners[:, :, 0] = range(n_b)
        self._owners = owners.ravel()
        self._offsets = width * np.arange(size * n_b).reshape(size, n_b, 1)

    def run_round(self, sims: Sequence[Simulation], scenario: Scenario | None = None) -> list[RoundRecord]:
        """Play one round of every replica, ``sims[r]`` being the one built with ``row=r``;
        a given scenario is played by a lone replica. Returns each replica's record."""
        cfg, size = self.config, len(self.codes)
        n, n_b = cfg.n_agents, cfg.n_builders
        if len(sims) != size or any(s._lockstep is not self or s._row != r for r, s in enumerate(sims)):
            raise ConfigError("the replicas of a lockstep step together, in row order")
        if scenario is None:
            values = np.empty((size, n))
            uniforms = np.empty((size, n))
            pairs = []
            for r, sim in enumerate(sims):
                values[r], conflict = draw_round(n, sim.config.p_c, cfg.value_rate, sim.rng)
                pairs.append(conflict)
                uniforms[r] = sim.rng.random(n)
            rows, cols = pair_indices(n)
            graphs = np.zeros((size, n, n), dtype=bool)
            graphs[:, rows, cols] = graphs[:, cols, rows] = pairs
            masks = conflict_masks(graphs)
        elif size != 1:
            raise ConfigError("a given scenario is played by a lone replica")
        elif scenario.n != n:
            raise ConfigError(f"scenario has {scenario.n} bundles for {n} agents")
        else:
            values = np.array([scenario.values])
            masks = [scenario.graph.conflict_masks]
            uniforms = sims[0].rng.random(n)[None]

        # strategy selection, one softmax draw per agent
        played_at = self._rows + roulette(self.fitness, cfg.temperature, uniforms)
        played = self.codes.reshape(-1)[played_at]
        alphas = _ALPHAS[played[:, :n_b]]
        betas = bid_ratios(played[:, n_b:], played[:, :n_b])

        if n_b > 0:
            # row [r, j]: the offers to builder j in owner order, its own bundle (bid at
            # its whole value) then every searcher's; ranked as flat indices
            offer_values = np.empty((size, n_b, n - n_b + 1))
            offer_values[:] = values[:, None, n_b - 1 :]
            offer_values[:, :, 0] = values[:, :n_b]
            offer_bids = offer_values.copy()
            offer_bids[:, :, 1:] *= betas.transpose(0, 2, 1)
            ranked = rank_offers(offer_values, offer_bids) + self._offsets
            offers = zip(
                self._owners[ranked].tolist(),
                offer_values.ravel()[ranked].tolist(),
                offer_bids.ravel()[ranked].tolist(),
                masks,
                alphas.tolist(),
            )
        outcomes = []
        triggers = np.empty((size, n))
        for r, sim in enumerate(sims):
            winner, payment, payoffs, residual = None, 0.0, (0.0,) * n, 0.0
            if n_b > 0:
                owners, worths, bids, bundle_masks, rebates = next(offers)
                scans = [
                    greedy_scan(*row, bundle_masks, cfg.capacity) for row in zip(owners, worths, bids)
                ]
                winner, payment = second_price([total for _, total in scans], sim.rng)
                picked, total = scans[winner]
                entries = [(owners[winner][k], worths[winner][k], bids[winner][k]) for k in picked]
                payoffs = tuple(distribute(winner, payment, total, entries, rebates[winner], n))
                captured = sum(entry[1] for entry in entries)
                residual = conservation_residual(payment + sum(payoffs), captured)
                # written so that a NaN residual fails too
                if not residual <= _RESIDUAL_HARD_LIMIT * max(1.0, captured):
                    raise NumericalError(
                        f"payoff conservation violated by {residual:.3e} in round {sim.round_index}"
                    )
                sim.max_residual = max(sim.max_residual, residual)
            outcomes.append((winner, payment, payoffs, residual))
            triggers[r] = sim.rng.random(n)

        # only the played strategy learns; losers and the excluded see payoff 0
        eta = cfg.learning_rate
        rewards = np.array([outcome[2] for outcome in outcomes])
        fitness = self.fitness.reshape(-1)
        fitness[played_at] = (1.0 - eta) * fitness[played_at] + eta * rewards

        if sims[0]._pool_covs is None:
            for sim, covs in zip(sims, _segment_covs(self.codes)):
                sim._pool_covs = covs
        for r, agent in zip(*(k.tolist() for k in np.nonzero(triggers < cfg.ga.trigger))):
            sim = sims[r]
            evolve(sim.pools[agent], cfg.ga, sim.rng)
            sim._log.append((sim.round_index, agent, sim.codes[agent].copy()))

        metrics = _means(betas.reshape(size, -1), alphas, rewards[:, n_b:], rewards[:, :n_b]).tolist()
        if cfg.record_rounds:
            recorded = zip(alphas.tolist(), betas.tolist(), played.tolist())
        records = []
        for sim, row, (winner, payment, payoffs, residual) in zip(sims, metrics, outcomes):
            for column, value in zip(sim._columns, (*row, payment)):
                column.append(value)
            record = RoundRecord(sim.round_index, {}, {}, {}, winner, payment, payoffs, residual)
            if cfg.record_rounds:
                alpha_row, beta_rows, codes = next(recorded)
                record.alphas = dict(enumerate(alpha_row))
                record.gammas = {i: searcher_params(codes[i]) for i in cfg.searcher_ids}
                record.betas = dict(zip(cfg.searcher_ids, map(tuple, beta_rows)))
                sim.records.append(record)
            sim.round_index += 1
            if len(sim._log) >= LOG_FLUSH:
                sim._fill_consensus()
            if cfg.snapshot_every and (
                sim.round_index % cfg.snapshot_every == 0 or sim.round_index == cfg.rounds
            ):
                sim.snapshots.append(sim.snapshot())
            records.append(record)
        return records

    def run(self, sims: Sequence[Simulation]) -> None:
        """Play the rounds left until ``config.rounds``."""
        for _ in range(self.config.rounds - sims[0].round_index):
            self.run_round(sims)


def final_window_mean(series, fraction: float) -> float:
    """Mean over the trailing fraction of a series, NaN-aware."""
    values = list(series)
    start = max(0, len(values) - max(1, int(len(values) * fraction)))
    tail = [v for v in values[start:] if not math.isnan(v)]
    return _mean(tail)


def summarize(sim: Simulation) -> dict[str, float]:
    """Post-convergence averages over the final FINAL_WINDOW of the rounds."""
    m = sim.metrics
    names = ("avg_bid_ratio", "avg_rebate_ratio", "searcher_reward", "builder_reward",
             "proposer_reward", *MetricsSeries.CONSENSUS)
    means = {name.removeprefix("avg_"): final_window_mean(getattr(m, name), FINAL_WINDOW) for name in names}
    return {**means, "max_residual": sim.max_residual}
