"""Conflict-probability sweep: independent replicas, merged deterministically.

Each (p_c, repetition) cell runs a full co-evolution simulation with its own
RNG, and cells of one population (role split per row) run in ``Lockstep``
batches. Replica seeds are split from the master seed by a fixed rule,
SeedSequence([master, p_index, repetition]), so results depend neither on how
many workers execute the replicas nor on how they are batched or in which
order they finish.

Parallel replicas run on one worker pool per process. The first
``run_replicas`` call that needs workers starts it, and later calls with the
same worker count reuse it, so a sweep, every p_c table of an egta grid and
the calls after them share its workers. A call that needs another worker
count shuts the pool down, waiting for its workers, before starting one of
the new size. An exception that escapes a call, a broken pool or an
interrupt included, shuts the pool down without waiting and empties the
slot, so the next call starts clean. ``concurrent.futures`` joins the
workers when the interpreter exits. The workers are forked once, when the
pool starts, so a change the parent makes to module state afterwards is
invisible to them; a task is a pure function of its (config, seed, indices),
so no result depends on it.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .simulation import Lockstep, SimConfig, summarize

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
# replicas a sweep or one egta payoff table may list at most: each builds its task list
# whole, so the count is checked first
MAX_REPLICAS = 10**6

# the process's worker pool, kept between run_replicas calls: (workers, executor), or None
_pool: tuple[int, ProcessPoolExecutor] | None = None


def _run_batch(tasks: list[tuple[SimConfig, int, tuple[int, ...]]]) -> list[dict[str, float]]:
    lockstep = Lockstep([task[0] for task in tasks], [replica_rng(seed, *ids) for _, seed, ids in tasks])
    lockstep.run()
    return [summarize(sim) for sim in lockstep.replicas]


def run_replicas(tasks: list[tuple], jobs: int = 1) -> list[dict[str, float]]:
    """Simulate each (config, master seed, seed indices) task; summaries in task order.

    A task draws from replica_rng(master seed, *seed indices), so the results
    depend on neither ``jobs`` nor the order in which workers finish. Tasks of
    one population (role split per row), one ``SimConfig.shape``, run in
    ``Lockstep`` batches of at most ``ceil(len(tasks) / jobs)`` and MAX_BATCH
    replicas, cut as evenly as that allows, and ``min(jobs, batches, CPUs)``
    worker processes take the batches. Sweep cells and egta profiles both run
    here; all of an egta table's profiles are one population.

    The workers are the process's one pool, kept between calls, replaced for
    another worker count and dropped when an exception escapes; forked when it
    started, they miss later changes to the parent (see the module docstring).
    """
    global _pool
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
        if _pool is not None and _pool[0] != workers:
            _pool[1].shutdown(wait=True)  # no executor thread is alive when the new pool forks
            _pool = None
        if _pool is None:
            _pool = (workers, ProcessPoolExecutor(max_workers=workers))
        try:
            done = list(_pool[1].map(_run_batch, work, chunksize=1))
        except BaseException:
            _pool[1].shutdown(wait=False, cancel_futures=True)
            _pool = None
            raise
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
    """Run the grid. Rows are not sorted: p_c in the grid's order, then rep, then SWEEP_METRICS."""
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    if len(p_values) * repetitions > MAX_REPLICAS:
        raise ConfigError(f"{len(p_values)} p_c values x {repetitions} repetitions "
                          f"is more than {MAX_REPLICAS} replicas")

    cells = list(itertools.product(range(len(p_values)), range(repetitions)))
    summaries = run_replicas(
        [(replace(base, p_c=p_values[ip]), base.seed, (ip, rep)) for ip, rep in cells], jobs
    )
    return [
        SweepRow(p_values[ip], rep, metric, summary[metric])
        for (ip, rep), summary in zip(cells, summaries)
        for metric in SWEEP_METRICS
    ]
