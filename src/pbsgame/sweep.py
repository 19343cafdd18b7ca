"""Conflict-probability sweep: independent replicas, merged deterministically.

Each (p_c, repetition) cell runs a full co-evolution simulation with its own
RNG. Replica seeds are split from the master seed by a fixed rule,
SeedSequence([master, p_index, repetition]), so results do not depend on how
many workers execute the replicas or in which order they finish.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .simulation import SimConfig, Simulation, summarize

SWEEP_METRICS = (
    "bid_ratio",
    "rebate_ratio",
    "searcher_reward",
    "builder_reward",
    "proposer_reward",
    "cov_alpha",
    "cov_gamma1",
    "cov_gamma2",
    "max_residual",
)


@dataclass(frozen=True)
class SweepRow:
    p_c: float
    repetition: int
    metric: str
    value: float


def replica_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Deterministic per-replica generator, independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, *indices]))


def _run_replica(task: tuple[SimConfig, int, tuple[int, ...]]) -> dict[str, float]:
    config, master_seed, indices = task
    sim = Simulation(config, rng=replica_rng(master_seed, *indices))
    sim.run()
    return summarize(sim)


def run_replicas(tasks: list[tuple], jobs: int = 1) -> list[dict[str, float]]:
    """Simulate each (config, master seed, seed indices) task; summaries in task order.

    A task draws from replica_rng(master seed, *seed indices), so the results
    depend on neither ``jobs`` nor the order in which workers finish. Sweep
    cells and egta profiles both run here.
    """
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_replica, tasks, chunksize=1))
    return [_run_replica(t) for t in tasks]


def sweep_conflict(
    base: SimConfig,
    p_values: list[float],
    repetitions: int,
    jobs: int = 1,
) -> list[SweepRow]:
    """Run the grid and return a long-format table sorted by (p_c, rep, metric)."""
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    for p in p_values:
        if not 0 <= p <= 1:
            raise ConfigError(f"conflict probability must be in [0, 1], got {p}")

    cells = list(itertools.product(range(len(p_values)), range(repetitions)))
    summaries = run_replicas(
        [(replace(base, p_c=p_values[ip]), base.seed, (ip, rep)) for ip, rep in cells], jobs
    )
    return [
        SweepRow(p_values[ip], rep, metric, summary[metric])
        for (ip, rep), summary in zip(cells, summaries)
        for metric in SWEEP_METRICS
    ]
