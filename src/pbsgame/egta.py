"""Meta-game over the two roles: payoff table estimation and alpha-rank.

Role choice is treated as a two-strategy meta-game (block building vs bundle
sharing). A heuristic payoff table records, for each split of m agents across
the roles, the mean post-convergence payoff per role from repeated
simulations. Alpha-rank then builds the single-population monomorphic Markov
chain from the one-mutant profiles: the chance that one deviant takes over the
population follows the finite-population fixation formula, and the chain's
stationary distribution scores the two roles.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  the benchmark's pool-start counter patches this name
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import ConfigError
from .simulation import Lockstep, SimConfig
from .sweep import MAX_REPLICAS, run_replicas


@dataclass(frozen=True)
class HptRow:
    n_building: int
    n_sharing: int
    u_building: float | None  # None when no agent plays the role
    u_sharing: float | None
    samples: int
    max_residual: float = 0.0


@dataclass(frozen=True)
class HeuristicPayoffTable:
    m: int
    rows: tuple[HptRow, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError(f"meta-game needs at least 2 agents, got {self.m}")
        seen = set()
        for row in self.rows:
            profile = f"profile ({row.n_building}, {row.n_sharing})"
            if row.n_building + row.n_sharing != self.m:
                raise ConfigError(f"{profile} does not sum to {self.m}")
            if not (0 <= row.n_building <= self.m and 0 <= row.n_sharing <= self.m):
                raise ConfigError(f"{profile} has a role count outside [0, {self.m}]")
            if not all(math.isfinite(u) for u in (row.u_building, row.u_sharing) if u is not None):
                raise ConfigError(f"{profile} has a non-finite payoff")
            if (row.n_building == 0 and row.u_building is not None
                    or row.n_sharing == 0 and row.u_sharing is not None):
                raise ConfigError(f"{profile} has a payoff for a role no agent plays")
            if row.samples < 0:
                raise ConfigError(f"{profile} has {row.samples} samples, fewer than 0")
            if row.n_building in seen:
                raise ConfigError(f"payoff table has two profiles with {row.n_building} builders")
            seen.add(row.n_building)

    def row(self, n_building: int) -> HptRow:
        for r in self.rows:
            if r.n_building == n_building:
                return r
        raise ConfigError(f"payoff table has no profile with {n_building} builders")


def _mean(values: list[float]) -> float:
    """Mean of a sum taken strictly left to right: Python's ``sum`` of floats is
    compensated since 3.12, so its last bit depends on the Python version."""
    return reduce(operator.add, values) / len(values)


def estimate_hpt(m: int, template: SimConfig, reps: int, jobs: int = 1) -> HeuristicPayoffTable:
    """Estimate mean role payoffs for each of the m+1 splits of m agents across the roles.

    Payoffs are post-convergence averages; a role with zero adopters in a
    profile gets no payoff entry. The no-builder profile is not simulated:
    without builders there is no auction, so its row is written with sharing
    payoff 0.0, residual 0.0 and ``reps`` samples.

    Replica seeds are SeedSequence([template.seed, n_building, rep]), with no
    p_c index: tables estimated at different p_c use common random numbers,
    so equal p_c values give equal tables.
    """
    if m < 2:
        raise ConfigError(f"meta-game needs at least 2 agents, got {m}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    Lockstep([replace(template, n_builders=m, n_searchers=0)])  # a profile too large to hold ends here
    if m * reps > MAX_REPLICAS:
        raise ConfigError(f"{m} profiles x {reps} reps is more than {MAX_REPLICAS} replicas")
    tasks = [
        (replace(template, n_builders=n1, n_searchers=m - n1), template.seed, (n1, rep))
        for n1 in range(1, m + 1)
        for rep in range(reps)
    ]
    summaries = run_replicas(tasks, jobs)

    rows = [HptRow(0, m, None, 0.0, reps, 0.0)]
    for n1 in range(1, m + 1):
        block = summaries[(n1 - 1) * reps : n1 * reps]
        rows.append(
            HptRow(
                n_building=n1,
                n_sharing=m - n1,
                u_building=_mean([s["builder_reward"] for s in block]),
                u_sharing=None if n1 == m else _mean([s["searcher_reward"] for s in block]),
                samples=reps,
                max_residual=max(s["max_residual"] for s in block),
            )
        )
    return HeuristicPayoffTable(m=m, rows=tuple(rows))


def fixation_probability(delta: float, alpha: float, m: int) -> float:
    """Fixation probability of one mutant under a constant payoff advantage.

    (1 - e^(-alpha*delta)) / (1 - e^(-m*alpha*delta)), with the neutral-drift
    limit 1/m at delta == 0. Stable for large |alpha*delta|. Special case of
    path_fixation_probability for a gap that does not depend on how many
    mutants are already present.
    """
    x = alpha * delta
    if x == 0.0:
        return 1.0 / m
    if x > 0:
        return float(np.expm1(-x) / np.expm1(-m * x))
    y = -x
    # rho = (e^y - 1) / (e^(m y) - 1), rewritten to avoid overflow
    return float(math.exp(-(m - 1) * y) * (-np.expm1(-y)) / (-np.expm1(-m * y)))


def path_fixation_probability(gaps, alpha: float) -> float:
    """Fixation probability along the full invasion path of a birth-death chain.

    ``gaps[k-1]`` is the mutant-minus-resident payoff gap when k mutants are
    present (k = 1..m-1). Backward/forward rates follow the logistic-selection
    ratio e^(-alpha * gap), giving

        rho = 1 / (1 + sum_j prod_{k<=j} e^(-alpha * gaps[k]))

    which collapses to the constant-gap formula when all gaps are equal. Log
    accumulation keeps large alpha*gap products from overflowing.
    """
    total = 1.0
    log_prod = 0.0
    for gap in gaps:
        log_prod += -alpha * gap
        total += math.exp(min(log_prod, 700.0))
    return 1.0 / total


@dataclass(frozen=True)
class AlphaRankResult:
    transition: np.ndarray  # 2x2 row-stochastic, order (building, sharing)
    stationary: np.ndarray
    alpha: float

    @property
    def nu_building(self) -> float:
        return float(self.stationary[0])

    @property
    def nu_sharing(self) -> float:
        return float(self.stationary[1])


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of the two-state chain [[1 - p, p], [q, 1 - q]].

    In closed form it is [q, p] / (p + q) (Omidshafiei et al. 2019, alpha-Rank),
    exact even when both fixation probabilities are tiny; with p + q = 0 no
    state is ever left and the distribution is uniform.
    """
    transition = np.asarray(transition, dtype=float)
    if transition.shape != (2, 2):
        raise ConfigError(f"expected a 2x2 transition matrix, got shape {transition.shape}")
    p, q = transition[0, 1], transition[1, 0]
    if p + q == 0:
        return np.array([0.5, 0.5])
    return np.array([q, p]) / (p + q)


def alpharank(hpt: HeuristicPayoffTable, alpha: float) -> AlphaRankResult:
    """Two-strategy alpha-rank over the monomorphic chain.

    A mutant's takeover probability is evaluated along the whole invasion
    path, reading the mutant-vs-resident payoff gap from every mixed profile
    row it passes through; with one builder the builder column is the mutant
    payoff, and symmetrically for sharing. Intermediate competition therefore
    matters: a profitable first deviant can still fail to take over when two
    of its kind underperform.
    """
    if not 0 < alpha < math.inf:
        raise ConfigError(f"ranking intensity must be positive and finite, got {alpha}")
    m = hpt.m

    # every mixed profile is consumed; monomorphic rows ground the chain
    hpt.row(0)
    hpt.row(m)
    mixed = {}
    for k in range(1, m):
        row = hpt.row(k)
        if row.u_building is None or row.u_sharing is None:
            raise ConfigError(
                f"payoff table row ({row.n_building}, {row.n_sharing}) is missing a payoff"
            )
        mixed[k] = row

    # k builders present -> gap seen by the growing builder minority
    build_gaps = [mixed[k].u_building - mixed[k].u_sharing for k in range(1, m)]
    # k searchers present -> profile (m - k) builders, sharing is the mutant
    share_gaps = [mixed[m - k].u_sharing - mixed[m - k].u_building for k in range(1, m)]

    rho_share_to_build = path_fixation_probability(build_gaps, alpha)
    rho_build_to_share = path_fixation_probability(share_gaps, alpha)
    transition = np.array(
        [
            [1.0 - rho_build_to_share, rho_build_to_share],
            [rho_share_to_build, 1.0 - rho_share_to_build],
        ]
    )
    stationary = stationary_distribution(transition)
    return AlphaRankResult(transition=transition, stationary=stationary, alpha=alpha)


def intensity_sweep(hpt: HeuristicPayoffTable, alphas: list[float]) -> list[AlphaRankResult]:
    return [alpharank(hpt, a) for a in alphas]
