"""The round kernel: role assignment, strategy play, block auction, learning.

Agents 0..n_builders-1 build blocks; the rest share bundles. Each round draws
a fresh scenario, every agent plays a strategy from its pool, searchers bid to
every builder through the sigmoid of that builder's announced rebate ratio,
each builder's greedy scan gives its block's total bid, the totals go to a
second-price auction, only the winner's block is built and settled, and
realized payoffs feed back into strategy fitness. Occasionally a pool is
rebuilt by the GA.

``Lockstep`` owns R replicas of one population (role split per row), on
``(R, agents, POOL_SIZE)`` arrays of genome codes and fitness, with all their
round state, and plays each round of them together; a ``Simulation`` views one row, and one built alone is the
one replica of its own ``Lockstep``. Every replica owns a single RNG and makes
the same calls in the same order however many replicas step with it, so a
(config, seed) pair reproduces bit-identical results.

No round reads a metric series, so a round writes only what was played and paid: its
payment, and each replica's played codes and payoffs into a block of ``LOG_FLUSH``
rounds, and it logs the codes each GA step leaves in the batch's one log. One fill writes
every replica's means and consensus (the ``cov_*`` series) from both, when the block is
full, when the log holds ``LOG_FLUSH`` steps a replica, and when ``Simulation.metrics`` is read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from typing import ClassVar, Sequence

import numpy as np

from .auction import conservation_residual, distribute, second_price
from .auction import run_auction, settle  # noqa: F401  the benchmark's layer probes wrap these
from .builder import greedy_scan, rank_offers
from .builder import build_block  # noqa: F401  the benchmark's layer probes wrap this name
from .codec import BUILDER_ALPHAS, BUILDER_WIDTH, SEARCHER_WIDTH, SEGMENT_BITS, SEGMENT_MAX
from .codec import bid_ratios, random_codes
from .codec import bid_ratio, decode_builder, decode_searcher, segment_ints  # noqa: F401  probed
from .errors import ConfigError, NumericalError
from .evolution import POOL_SIZE, GAConfig, evolve, roulette
from .evolution import select_strategy, update_fitness  # noqa: F401  the benchmark's probes wrap these
from .market import conflict_masks, draw_round, pair_indices
from .market import draw_scenario  # noqa: F401  the benchmark's probes wrap this name

# residuals beyond this share of the winning block's value (or of 1.0 for a
# smaller block) indicate a settlement bug, not float noise
_RESIDUAL_HARD_LIMIT = 1e-12
# fraction of rounds treated as post-convergence by ``summarize``
FINAL_WINDOW = 0.1
_ALPHAS = np.array(BUILDER_ALPHAS)
# GA steps per replica a lockstep logs, and rounds it holds, before their series are filled without a read
LOG_FLUSH = 128
FILL_BLOCK = 1 << 16  # bid ratios a fill takes per chunk of its means: 512 KiB of floats


@dataclass(frozen=True)
class SimConfig:
    n_builders: int
    n_searchers: int
    rounds: int
    p_c: float
    value_rate: float = 10.0
    temperature: float = 2.0  # softmax selection temperature
    learning_rate: float = 0.5  # step of the fitness moving average
    ga: GAConfig = field(default_factory=GAConfig)
    capacity: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_builders < 0 or self.n_searchers < 0:
            raise ConfigError("agent counts must be non-negative")
        if self.n_builders + self.n_searchers < 2:
            # a round's scenario needs two bundles (``market.draw_round``)
            raise ConfigError(f"need at least 2 agents, got {self.n_builders + self.n_searchers}")
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
        if not 0 <= self.learning_rate <= 1:  # written so that NaN fails too
            raise ConfigError(f"learning rate must be in [0, 1], got {self.learning_rate}")
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1 or None, got {self.capacity}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def shape(self) -> "SimConfig":
        """This config but for its role split, ``p_c`` and ``seed``: replicas of one population
        (role split per row) step in lockstep."""
        return replace(self, n_builders=0, n_searchers=self.n_agents, p_c=0.0, seed=0)

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
    """One replica's round: the genome code each agent played and the outcome. The round
    keeps none and decodes no genome; ``simulate --record-rounds`` keeps them and decodes
    the codes as it writes rounds.csv."""

    index: int
    codes: np.ndarray  # agent -> played genome code, a row view of the round's played codes
    winner: int | None
    payment: float
    payoffs: tuple[float, ...]
    residual: float


@dataclass
class MetricsSeries:
    """Per-round scalar series; NaN where a role is absent. ``FIELDS`` names them in field
    order, the column order of ``Lockstep.series`` and metrics.csv."""

    avg_bid_ratio: list[float] = field(default_factory=list)
    avg_rebate_ratio: list[float] = field(default_factory=list)
    cov_alpha: list[float] = field(default_factory=list)
    cov_gamma1: list[float] = field(default_factory=list)
    cov_gamma2: list[float] = field(default_factory=list)
    searcher_reward: list[float] = field(default_factory=list)
    builder_reward: list[float] = field(default_factory=list)
    proposer_reward: list[float] = field(default_factory=list)

    FIELDS: ClassVar[tuple[str, ...]]  # set from the fields, below the class

    def __len__(self) -> int:
        return len(self.avg_bid_ratio)

    def row(self, t: int) -> tuple[float, ...]:
        return tuple(getattr(self, name)[t] for name in self.FIELDS)


MetricsSeries.FIELDS = tuple(f.name for f in fields(MetricsSeries))


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


def _means(counts: np.ndarray, *parts: np.ndarray) -> np.ndarray:
    """The mean of each row of each 2-D part as a (rows, parts) array: one left-to-right running
    sum (``np.cumsum``) over the row, whose padding is 0.0 (``x + 0.0 == x``, so the sum keeps the
    bits of its terms alone), divided by the row's count of terms, ``counts[:, k]``; NaN for 0."""
    sums = np.zeros(counts.shape)
    for k, part in enumerate(parts):
        if part.shape[1]:
            sums[:, k] = np.add.accumulate(part, axis=1)[:, -1]
    return np.divide(sums, counts, out=np.full(counts.shape, math.nan), where=counts > 0)


def _segment_covs(codes: np.ndarray) -> np.ndarray:
    """Per leading row of ``(rows, ..., POOL_SIZE)`` codes, the ``cov`` of each pool's high
    and then of its low five bits, for every pool in turn: a ``(rows, 2 * pools)`` array."""
    covs = cov(np.stack((codes >> SEGMENT_BITS, codes & SEGMENT_MAX), axis=-2))
    return covs.reshape(len(codes), -1)


class Simulation:
    """One replica, a view of row r of a ``Lockstep``: its config, RNG and pool rows (``codes[a]``
    and ``fitness[a]`` are agent a's). Stepping a batch's replica steps the whole batch."""

    def __new__(cls, config: SimConfig) -> Simulation:
        return Lockstep([config]).replicas[0]

    @property
    def round_index(self) -> int:
        return self._lockstep.round_index

    @property
    def max_residual(self) -> float:
        return self._lockstep.max_residual[self._row]

    def run_round(self) -> RoundRecord:
        """Play one round of the batch, drawn from each replica's RNG; returns this one's record."""
        return self._lockstep.run_round()[self._row]

    def snapshot(self) -> dict:
        """Every pool's strategies as ``[bits, fitness]``, each code read most-significant first."""
        pools = []
        for agent, (codes, fitness) in enumerate(zip(self.codes.tolist(), self.fitness.tolist())):
            width = BUILDER_WIDTH if agent < self.config.n_builders else SEARCHER_WIDTH
            strategies = [[format(code, f"0{width}b"), f] for code, f in zip(codes, fitness)]
            pools.append({"agent": agent, "role": self.config.role_of(agent), "strategies": strategies})
        return {"round": self.round_index, "pools": pools}

    @property
    def metrics(self) -> MetricsSeries:
        """Every series up to ``round_index``, as lists of Python floats; fills the whole batch."""
        self._lockstep._fill()
        return MetricsSeries(*self._lockstep.series[self._row, : self.round_index].T.tolist())

    def run(self) -> MetricsSeries:
        """Play the batch's rounds left until ``config.rounds``."""
        self._lockstep.run()
        return self.metrics


class Lockstep:
    """R replicas of one population (role split per row): configs of one ``SimConfig.shape``,
    all their round state, and the round that plays them all at once.

    Pool state is two ``(R, agents, POOL_SIZE)`` arrays, genome codes and fitness, and the
    series one ``(R, rounds, 8)`` float64 array in ``MetricsSeries.FIELDS`` order. Row r's
    generator is ``rngs[r]``, else one seeded from its config, and makes exactly the calls a
    lone replica's makes, in the same order: the pools, drawn in row order; each round the
    values, pairs and selection uniforms, the auction's tie draw and the GA triggers; then
    the triggered GA steps. Selection, bids, offer ranking and the fitness update run once
    per round on the stacked arrays, and one ``_fill`` writes every row's series at once from
    one log of GA steps and one array of pool CoVs, each row reduced on its own. Builder
    columns run to the most builders of a row and searcher columns from the fewest; a row
    scans and auctions its own builders only, and a padded offer is worth a constant 0, so
    it ranks last and is never scanned. Each round returns every replica's ``RoundRecord``,
    keeps none and decodes no genome.
    """

    def __init__(self, configs: Sequence[SimConfig], rngs: Sequence[np.random.Generator] | None = None):
        self.config = config = configs[0]
        if any(other.shape != config.shape for other in configs):
            raise ConfigError("lockstep replicas must differ in role split, p_c and seed only")
        size, n = len(configs), config.n_agents
        # row r's builders are agents 0..n_b[r]-1; builder columns run to the most builders
        # of a row, searcher columns from the fewest
        self._n_b = [c.n_builders for c in configs]
        lo, hi = min(self._n_b), max(self._n_b)
        try:
            self._builds = np.arange(n) < np.array(self._n_b)[:, None]
            self.series = np.empty((size, config.rounds, len(MetricsSeries.FIELDS)))
            self.codes = np.zeros((size, n, POOL_SIZE), dtype=np.int64)
            self.fitness = np.zeros(self.codes.shape)
            self._rows = POOL_SIZE * np.arange(size * n).reshape(size, n)  # flat index of pool [r, a]
            # a round's values, and a constant 0 in each row's column n for the padded offers
            self._values = np.zeros((size, n + 1))
            width = n - lo + 1
            # offer [r, j, k]: builder j's own bundle at k = 0, then agent lo + k - 1's; a
            # builder's slot and every slot of a row's non-builder j are padding, worth 0
            owners = np.empty((size, hi, width), dtype=np.intp)
            owners[:] = range(lo - 1, n)
            owners[:, :, 0] = range(hi)
            self._owners = owners.ravel()
            offered = np.ones(owners.shape, dtype=bool)
            offered[:, :, 1:] = ~self._builds[:, None, lo:]
            offered &= self._builds[:, :hi, None]
            # each offer's value's flat index in ``_values``
            self._offer_at = np.where(offered, owners, n) + (n + 1) * np.arange(size).reshape(size, 1, 1)
            self._offsets = width * np.arange(size * hi).reshape(size, hi, 1)
            # pair_at[i, j]: the draw of pair {i, j} in a row of pair draws whose trailing
            # column, read on the diagonal, is False
            rows, cols = pair_indices(n)
            self._pair_at = np.full((n, n), rows.size)
            self._pair_at[rows, cols] = self._pair_at[cols, rows] = range(rows.size)
            # the codes played and payoffs paid in the rounds since the last fill
            self._played = np.empty((size, min(LOG_FLUSH, config.rounds), n), dtype=np.int64)
            self._paid = np.empty(self._played.shape)
        except (ValueError, MemoryError) as exc:  # numpy: "array is too big", or no memory
            raise ConfigError(f"cannot hold {config.rounds} rounds of metrics of {n} agents: {exc}") from exc
        self._bits = [1 << a for a in range(n)]
        self._configs = list(configs)
        self._rngs = list(rngs) if rngs is not None else [np.random.default_rng(c.seed) for c in configs]
        self.codes[:] = [
            [random_codes(BUILDER_WIDTH if build else SEARCHER_WIDTH, POOL_SIZE, rng) for build in builds]
            for builds, rng in zip(self._builds.tolist(), self._rngs)
        ]
        self.round_index, self.max_residual = 0, [0.0] * size
        # how many rounds' series are filled; ``_segment_covs`` of every pool as of the last
        # fill (the first round's first), and each GA step since as ``(round, row, agent, codes)``
        self._filled, self._covs = 0, None
        self._steps: list[tuple[int, int, int, np.ndarray]] = []

    @property
    def replicas(self) -> list[Simulation]:
        """A new view of each row, in row order. Views hold the lockstep and it holds none, so
        no reference cycle keeps a finished batch's arrays alive until a full collection."""
        views = [object.__new__(Simulation) for _ in self._rngs]
        for r, sim in enumerate(views):  # rows [a] of codes and fitness: agent a's pool
            sim.config, sim.rng, sim._lockstep, sim._row = self._configs[r], self._rngs[r], self, r
            sim.codes, sim.fitness = self.codes[r], self.fitness[r]
        return views

    def run_round(self) -> list[RoundRecord]:
        """Play one round of every replica; returns each replica's ``RoundRecord``, in row order."""
        cfg, size, t = self.config, len(self._rngs), self.round_index
        n, lo, hi = cfg.n_agents, min(self._n_b), max(self._n_b)
        if t >= cfg.rounds:
            raise ConfigError(f"all {cfg.rounds} rounds are played")
        values, uniforms = self._values, np.empty((size, n))
        pairs = np.zeros((size, pair_indices(n)[0].size + 1), dtype=bool)
        for r, (config, rng) in enumerate(zip(self._configs, self._rngs)):
            values[r, :n], pairs[r, :-1] = draw_round(n, config.p_c, cfg.value_rate, rng)
            uniforms[r] = rng.random(n)
        masks = conflict_masks(pairs[:, self._pair_at])

        # strategy selection, one softmax draw per agent
        played_at = self._rows + roulette(self.fitness, cfg.temperature, uniforms)
        played = self.codes.reshape(-1)[played_at]
        # a searcher's code in a builder column would index past the builder genomes
        betas = bid_ratios(played[:, lo:], played[:, :hi] & SEGMENT_MAX)
        held = t - self._filled  # this round's place in the block of played codes and payoffs
        self._played[:, held] = played

        # row [r, j]: the offers to builder j in owner order, its own bundle (bid at its
        # whole value) then every searcher's, padded to the widest row with offers worth 0;
        # ranked as flat indices, each row's scan bounded by its count of positive values,
        # which rank first, so no padding is scanned. An offer's value is its owner's draw,
        # so the winner's entries read it from ``values``.
        offer_values = values.reshape(-1)[self._offer_at]
        offer_bids = offer_values.copy()
        offer_bids[:, :, 1:] *= betas.transpose(0, 2, 1)
        positive = offer_values > 0
        ranked = rank_offers(offer_values, offer_bids, positive) + self._offsets
        offers = zip(
            self._owners[ranked].tolist(),
            offer_bids.ravel()[ranked].tolist(),
            np.add.reduce(positive, axis=-1, dtype=np.intp).tolist(),
            masks,
            values.tolist(),
        )
        records = []
        triggers = np.empty((size, n))
        for r, (rng, n_b, its_offers) in enumerate(zip(self._rngs, self._n_b, offers)):
            winner, payment, payoffs, residual = None, 0.0, (0.0,) * n, 0.0
            if n_b > 0:
                owners, bids, lengths, bundle_masks, worths = its_offers
                scans = [
                    greedy_scan(*row, bundle_masks, self._bits, cfg.capacity)
                    for row in zip(owners, bids, lengths[:n_b])
                ]
                winner, payment = second_price([total for _, total in scans], rng)
                picked, total = scans[winner]
                won_owners, won_bids = owners[winner], bids[winner]
                entries = [(won_owners[k], worths[won_owners[k]], won_bids[k]) for k in picked]
                rebate = BUILDER_ALPHAS[played[r, winner]]
                payoffs = tuple(distribute(winner, payment, total, entries, rebate, n))
                captured = reduce(operator.add, (entry[1] for entry in entries), 0.0)
                residual = conservation_residual(payment + reduce(operator.add, payoffs, 0.0), captured)
                # written so that a NaN residual fails too
                if not residual <= _RESIDUAL_HARD_LIMIT * max(1.0, captured):
                    raise NumericalError(f"payoff conservation violated by {residual:.3e} in round {t}")
                self.max_residual[r] = max(self.max_residual[r], residual)
            records.append(RoundRecord(t, played[r], winner, payment, payoffs, residual))
            triggers[r] = rng.random(n)

        # only the played strategy learns; losers and the excluded see payoff 0
        eta = cfg.learning_rate
        self._paid[:, held] = [record.payoffs for record in records]
        fitness = self.fitness.reshape(-1)
        fitness[played_at] = (1.0 - eta) * fitness[played_at] + eta * self._paid[:, held]

        if t == 0:
            self._covs = _segment_covs(self.codes)
        for r, agent in zip(*(k.tolist() for k in (triggers < cfg.ga.trigger).nonzero())):
            width = BUILDER_WIDTH if agent < self._n_b[r] else SEARCHER_WIDTH
            evolve(self.codes[r, agent], self.fitness[r, agent], width, cfg.temperature, cfg.ga, self._rngs[r])
            self._steps.append((t, r, agent, self.codes[r, agent].copy()))

        # the payment column of round t; ``_fill`` writes the means and the consensus
        self.series[:, t, 7] = [record.payment for record in records]
        self.round_index += 1
        if held + 1 == self._played.shape[1] or len(self._steps) >= LOG_FLUSH * size:
            self._fill()
        return records

    def run(self) -> None:
        """Play the rounds left until ``config.rounds``."""
        for _ in range(self.config.rounds - self.round_index):
            self.run_round()

    def _roles(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Of each listed replica row: its builder count, whether each builder column builds
        and whether each searcher column searches."""
        lo, hi = min(self._n_b), max(self._n_b)
        return np.array(self._n_b)[rows], self._builds[rows, :hi], ~self._builds[rows, lo:]

    def _fill(self) -> None:
        """Fill every replica's series to ``round_index`` and empty the block and the log: the
        means from the codes played and payoffs paid, ``FILL_BLOCK`` bid ratios at a time; the
        consensus from one ``cov`` of every logged pool, then one ``_means`` over each row's
        state at the start and after each of its steps, a round taking its row's latest. Each
        role's means take its columns, the other role's entries in them set to 0."""
        start, stop, n = self._filled, self.round_index, self.config.n_agents
        if start == stop:
            return
        size, lo, hi = len(self._rngs), min(self._n_b), max(self._n_b)
        played, paid = (block[:, : stop - start].reshape(-1, n) for block in (self._played, self._paid))
        n_b, builds, sells = self._roles(np.arange(size).repeat(stop - start))
        counts = np.stack([(n - n_b) * n_b, n_b, n - n_b, n_b], axis=1)
        means = np.empty((len(played), 4))
        step = max(1, FILL_BLOCK // max((n - lo) * hi, n))
        for a in range(0, len(played), step):
            codes, payoffs, b, s = (x[a : a + step] for x in (played, paid, builds, sells))
            builder_codes = codes[:, :hi] & SEGMENT_MAX
            betas = bid_ratios(codes[:, lo:], builder_codes)
            betas *= s[:, :, None] & b[:, None]  # bid ratios lie in [0, 1]: exact, and no -0.0
            alphas = np.where(b, _ALPHAS[builder_codes], 0.0)
            rewards = np.where(s, payoffs[:, lo:], 0.0), np.where(b, payoffs[:, :hi], 0.0)
            betas = betas.reshape(len(codes), -1)
            means[a : a + step] = _means(counts[a : a + step], betas, alphas, *rewards)
        self.series[:, start:stop, [0, 1, 5, 6]] = means.reshape(size, stop - start, 4)
        states, steps = [self._covs.copy()], self._steps
        pairs = _segment_covs(np.array([codes for *_, codes in steps])) if steps else ()
        for (_, row, agent, _), pair in zip(steps, pairs):
            self._covs[row, 2 * agent : 2 * agent + 2] = pair
            states.append(self._covs[row].copy())
        covs = np.vstack(states)
        n_b, b, s = self._roles([*range(size), *(row for _, row, _, _ in steps)])
        # alpha is a builder's low segment (its only one), gamma1 and gamma2 a searcher's two
        segments = covs[:, 1 : 2 * hi : 2], covs[:, 2 * lo :: 2], covs[:, 2 * lo + 1 :: 2]
        by_state = _means(np.stack([n_b, n - n_b, n - n_b], axis=1),
                          *(np.where(role, part, 0.0) for role, part in zip((b, s, s), segments)))
        self.series[:, start:stop, 2:5] = by_state[:size, None]  # the ``cov_*`` columns
        for (t, row, _, _), row_means in zip(steps, by_state[size:]):
            self.series[row, t:stop, 2:5] = row_means  # from its round on, until a later step's
        steps.clear()
        self._filled = stop


def summarize(sim: Simulation) -> dict[str, float]:
    """``max_residual`` and, keyed by its name without ``avg_``, each series' left-to-right mean over
    the last ``max(1, int(round_index * FINAL_WINDOW))`` rounds: NaN before the first round, and for
    a role nobody plays, whose series is NaN in every round (none is NaN in only some)."""
    t, names = sim.round_index, [name.removeprefix("avg_") for name in MetricsSeries.FIELDS]
    if t == 0:
        return {**dict.fromkeys(names, math.nan), "max_residual": sim.max_residual}
    sim._lockstep._fill()
    window = sim._lockstep.series[sim._row, t - max(1, int(t * FINAL_WINDOW)) : t]
    means = np.add.accumulate(window, axis=0)[-1] / len(window)
    return {**dict(zip(names, means.tolist())), "max_residual": sim.max_residual}
