"""Conflict-probability sweep: independent replicas, merged deterministically.

Each (p_c, repetition) cell runs a full co-evolution simulation with its own
RNG, and cells of one shape step together in ``Lockstep`` batches. Replica
seeds are split from the master seed by a fixed rule, SeedSequence([master,
p_index, repetition]), so results depend neither on how many workers execute
the replicas nor on how they are batched or in which order they finish.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .simulation import Lockstep, SimConfig, Simulation, summarize

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


# replicas per lockstep batch at most: bounds a worker's series memory
MAX_BATCH = 32


def _run_batch(tasks: list[tuple[SimConfig, int, tuple[int, ...]]]) -> list[dict[str, float]]:
    lockstep = Lockstep(tasks[0][0], len(tasks))
    sims = [
        Simulation(config, replica_rng(master_seed, *indices), lockstep, row)
        for row, (config, master_seed, indices) in enumerate(tasks)
    ]
    lockstep.run(sims)
    return [summarize(sim) for sim in sims]


def run_replicas(tasks: list[tuple], jobs: int = 1) -> list[dict[str, float]]:
    """Simulate each (config, master seed, seed indices) task; summaries in task order.

    A task draws from replica_rng(master seed, *seed indices), so the results
    depend on neither ``jobs`` nor the order in which workers finish. Tasks of
    one ``SimConfig.shape`` run in ``Lockstep`` batches of at most
    ``ceil(len(tasks) / jobs)`` and MAX_BATCH replicas, cut as evenly as that
    allows, and ``min(jobs, batches, CPUs)`` worker processes take the
    batches. Sweep cells and egta profiles both run here.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    groups: dict[SimConfig, list[int]] = {}
    for k, (config, _, _) in enumerate(tasks):
        groups.setdefault(config.shape, []).append(k)
    size = min(MAX_BATCH, -(-len(tasks) // jobs))
    batches = []
    for ks in groups.values():
        count = -(-len(ks) // size)  # as many batches as the size needs, as even as can be
        batches += [ks[i * len(ks) // count : (i + 1) * len(ks) // count] for i in range(count)]
    work = [[tasks[k] for k in batch] for batch in batches]
    workers = min(jobs, len(batches), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_batch, work, chunksize=1))
    else:
        done = [_run_batch(batch) for batch in work]
    by_task = dict(zip(itertools.chain(*batches), itertools.chain(*done)))
    return [by_task[k] for k in range(len(tasks))]


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
