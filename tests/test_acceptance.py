"""Acceptance gate: every top-level target runs here at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so a full run documents the whole scorecard. Two known gaps of the
current model are asserted faithfully rather than loosened: the builder
consensus bound (criterion 1; the seed ensemble mean lands near 0.37 against
the 0.3 bound because some seeds settle on low rebates where the coefficient
of variation is denominator-sensitive) and the role-transition window
(criterion 5; the stationary mass flips to block building between conflict
probabilities 0.4 and 0.5 rather than by 0.4).
"""

import csv
import hashlib
import itertools
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from pbsgame.analytic import verification_report
from pbsgame.builder import BlockEntry, build_block
from pbsgame.cli import main as cli_main
from pbsgame.egta import (
    HeuristicPayoffTable,
    HptRow,
    alpharank,
    estimate_hpt,
    fixation_probability,
    intensity_sweep,
)
from pbsgame.market import InteractionGraph
from pbsgame.simulation import MetricsSeries, SimConfig, Simulation
from pbsgame.sweep import sweep_conflict

JOBS = 2
SWEEP_P_VALUES = [round(0.1 * k, 10) for k in range(11)]
EGTA_P_VALUES = [0.0, 0.1, 0.4, 0.5]
ALPHA_GRID = [float(a) for a in np.geomspace(0.1, 100, 10)]

# sha256 of the fixtures' own outputs, one repr a line: every column of the 5
# convergence runs' series, every sweep row, and each egta p_c's table rows and
# alpha-rank results
CONVERGENCE_SERIES = "b5ff196d2e6502b399ce7a32f19540144e123e1f160436f125df5d1072d59aaa"
SWEEP_ROWS = "0411eba9272d154be13c8535edeb30b72e64b456f75c4380c9fbc34d0527b28f"
EGTA_TABLES = "5208ad39a4d3b39a0834b75e0097c32163f049ea783525dbe99ccc8e71876007"


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def convergence_runs():
    runs = []
    for seed in range(5):
        config = SimConfig(n_builders=10, n_searchers=10, rounds=10_000, p_c=0.8, seed=seed)
        started = time.monotonic()
        sim = Simulation(config)
        sim.run()
        runs.append(
            {
                "seed": seed,
                "first500": float(np.mean(sim.metrics.cov_alpha[:500])),
                "last500": float(np.mean(sim.metrics.cov_alpha[-500:])),
                "residual": sim.max_residual,
                "seconds": time.monotonic() - started,
                "series": [getattr(sim.metrics, name) for name in MetricsSeries.FIELDS],
            }
        )
    return runs


@pytest.fixture(scope="module")
def sweep_rows():
    base = SimConfig(n_builders=5, n_searchers=5, rounds=4000, p_c=0.5, seed=7)
    return sweep_conflict(base, SWEEP_P_VALUES, repetitions=10, jobs=JOBS)


def sweep_values(rows, metric):
    xs, ys = [], []
    for row in rows:
        if row.metric == metric:
            xs.append(row.p_c)
            ys.append(row.value)
    return xs, ys


@pytest.fixture(scope="module")
def egta_results():
    results = {}
    for p in EGTA_P_VALUES:
        template = SimConfig(n_builders=1, n_searchers=9, rounds=4000, p_c=p, seed=77)
        hpt = estimate_hpt(10, template, reps=4, jobs=JOBS)
        results[p] = {
            "sweep": intensity_sweep(hpt, ALPHA_GRID),
            "residual": max(row.max_residual for row in hpt.rows),
            "rows": hpt.rows,
        }
    return results


def repr_digest(values) -> str:
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()


def test_convergence_series_are_pinned(convergence_runs):
    values = [x for run in convergence_runs for column in run["series"] for x in column]
    assert repr_digest(values) == CONVERGENCE_SERIES


def test_sweep_rows_are_pinned(sweep_rows):
    assert repr_digest(sweep_rows) == SWEEP_ROWS


def test_egta_tables_and_ranks_are_pinned(egta_results):
    values = []
    for p in EGTA_P_VALUES:
        values += [p, *egta_results[p]["rows"]]
        for result in egta_results[p]["sweep"]:
            values += [result.alpha, *result.transition.ravel().tolist(), *result.stationary.tolist()]
    assert repr_digest(values) == EGTA_TABLES


def test_criterion_1_builder_consensus(convergence_runs):
    first = float(np.mean([r["first500"] for r in convergence_runs]))
    last = float(np.mean([r["last500"] for r in convergence_runs]))
    slowest = max(r["seconds"] for r in convergence_runs)
    per_seed = ", ".join(f"seed {r['seed']}: {r['last500']:.3f}" for r in convergence_runs)
    ok = last < 0.3 and last < first and slowest < 120
    report(
        1,
        ok,
        f"mean CoV(alpha) last 500 = {last:.3f} (bound 0.3), first 500 = {first:.3f}, "
        f"slowest seed {slowest:.0f}s; per seed: {per_seed}",
    )
    assert slowest < 120
    assert last < first
    assert last < 0.3


def test_criterion_2_bid_ratio_rises_with_conflict(sweep_rows):
    xs, ys = sweep_values(sweep_rows, "bid_ratio")
    rho = float(spearmanr(xs, ys).statistic)
    ok = rho > 0.7
    report(2, ok, f"Spearman(p_c, bid ratio) = {rho:.3f} over {len(xs)} replicas (need > 0.7)")
    assert rho > 0.7


def test_criterion_3_searcher_reward_falls_with_conflict(sweep_rows):
    xs, ys = sweep_values(sweep_rows, "searcher_reward")
    rho = float(spearmanr(xs, ys).statistic)
    ok = rho < -0.7
    report(3, ok, f"Spearman(p_c, searcher reward) = {rho:.3f} (need < -0.7)")
    assert rho < -0.7


def test_criterion_4_proposer_reward_peaks_interior(sweep_rows):
    xs, ys = sweep_values(sweep_rows, "proposer_reward")
    means = {p: float(np.mean([y for x, y in zip(xs, ys) if x == p])) for p in SWEEP_P_VALUES}
    peak = max(means, key=means.get)
    curve = " ".join(f"{means[p]:.3f}" for p in SWEEP_P_VALUES)
    ok = peak in (0.2, 0.3, 0.4) and means[peak] > means[0.0] and means[peak] > means[1.0]
    report(4, ok, f"proposer reward by p_c: {curve}; peak at {peak}")
    assert peak in (0.2, 0.3, 0.4)
    assert means[peak] > means[0.0]
    assert means[peak] > means[1.0]


def test_criterion_5_role_transition(egta_results):
    high_alpha = {p: egta_results[p]["sweep"][-1] for p in EGTA_P_VALUES}
    masses = {p: r.nu_sharing for p, r in high_alpha.items()}
    detail = ", ".join(f"p={p}: sharing {m:.3f}" for p, m in masses.items())
    sharing_low = all(masses[p] > 0.5 for p in EGTA_P_VALUES if p <= 0.1)
    building_high = all(masses[p] < 0.5 for p in EGTA_P_VALUES if p >= 0.4)
    report(5, sharing_low and building_high, f"{detail} at alpha = {ALPHA_GRID[-1]:.0f}")
    assert sharing_low, "bundle sharing must dominate at low conflict"
    assert building_high, "block building must dominate from p_c = 0.4 on"


def test_criterion_6_analytic_verification():
    started = time.monotonic()
    result = verification_report(
        sign_points=1000, mc_points=50, mc_samples=10**6, fd_points=100, seed=6
    )
    elapsed = time.monotonic() - started
    ok = result["passed"] and elapsed < 30
    report(
        6,
        ok,
        f"derivative sign violations {result['sign_check']['violations']}/1000, "
        f"MC z-failures {result['mc_check']['failures']}/50, "
        f"max FD error {result['fd_check']['max_relative_error']:.2e}, {elapsed:.1f}s",
    )
    assert result["sign_check"]["violations"] == 0
    assert result["mc_check"]["failures"] == 0
    assert result["fd_check"]["max_relative_error"] < 1e-4
    assert elapsed < 30


def _offers(bundles):
    return [BlockEntry(i, v, f * v) for i, v, f in bundles]


def _oracle_best_bid(bundles, graph, capacity):
    """Best total bid over every ordered subset of (owner, value, bid fraction) bundles."""
    n = len(bundles)
    best = 0.0
    limit = n if capacity is None else min(n, capacity)
    for size in range(1, limit + 1):
        for subset in itertools.permutations(range(n), size):
            values = {k: bundles[k][1] for k in subset}
            total = 0.0
            placed = []
            for k in subset:
                for prior in placed:
                    values[k] *= 1.0 + graph.weight(bundles[k][0], bundles[prior][0])
                total += bundles[k][2] * values[k]
                placed.append(k)
            best = max(best, total)
    return best


def _trace_owners(bundles, graph, capacity):
    pool = [list(b) for b in bundles]
    chosen = []
    while pool and (capacity is None or len(chosen) < capacity):
        pool.sort(key=lambda d: (d[1] <= 0, -d[2] * d[1], d[0]))
        head, pool = pool[0], pool[1:]
        for other in pool:
            other[1] *= 1.0 + graph.weight(other[0], head[0])
        if head[1] <= 0:
            break
        chosen.append(head[0])
    return chosen


def test_criterion_7_greedy_against_oracles():
    rng = np.random.default_rng(1848)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        bundles = [(i, float(rng.exponential(0.1)), float(rng.uniform(0, 1))) for i in range(n)]
        p_c = float(rng.random())
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_c]
        graph = InteractionGraph.from_conflict_pairs(n, pairs)
        capacity = None if rng.random() < 0.7 else int(rng.integers(1, n + 1))
        block = build_block(0, _offers(bundles), graph, capacity)
        if block.total_bid > _oracle_best_bid(bundles, graph, capacity) + 1e-12:
            violations += 1
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        bundles = [(i, float(rng.exponential(0.1)), float(rng.uniform(0, 1))) for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        graph = InteractionGraph.from_conflict_pairs(n, pairs)
        block = build_block(0, _offers(bundles), graph, None)
        if [e.owner for e in block.entries] != _trace_owners(bundles, graph, None):
            mismatches += 1
    ok = violations == 0 and mismatches == 0
    report(7, ok, f"oracle violations {violations}/1000, trace mismatches {mismatches}/100")
    assert violations == 0
    assert mismatches == 0


def test_criterion_8_conservation(convergence_runs, sweep_rows, egta_results):
    residuals = [r["residual"] for r in convergence_runs]
    residuals += [row.value for row in sweep_rows if row.metric == "max_residual"]
    residuals += [egta_results[p]["residual"] for p in EGTA_P_VALUES]
    worst = max(residuals)
    ok = worst <= 1e-12
    report(8, ok, f"largest per-round conservation residual {worst:.3e} over all runs")
    assert worst <= 1e-12


def test_criterion_9_alpharank_unit_suite():
    checks = []
    m = 10
    checks.append(abs(fixation_probability(0.0, 5.0, m) - 1 / m) < 1e-15)

    rows = [HptRow(0, m, None, 0.0, 1)]
    rows += [HptRow(k, m - k, 0.31, 0.27, 1) for k in range(1, m)]
    rows.append(HptRow(m, 0, 0.31, None, 1))
    hpt = HeuristicPayoffTable(m=m, rows=tuple(rows))
    result = alpharank(hpt, 3.0)
    checks.append(bool(np.allclose(result.transition.sum(axis=1), 1.0, atol=1e-12)))
    checks.append(
        float(np.abs(result.stationary @ result.transition - result.stationary).max()) < 1e-10
    )

    rng = np.random.default_rng(9)
    scaling_ok = True
    for _ in range(20):
        ub, us, c = rng.uniform(0.05, 1.0, 3)
        scaled_rows = [HptRow(0, m, None, 0.0, 1)]
        scaled_rows += [HptRow(k, m - k, float(c * ub), float(c * us), 1) for k in range(1, m)]
        scaled_rows.append(HptRow(m, 0, float(c * ub), None, 1))
        base_rows = [HptRow(0, m, None, 0.0, 1)]
        base_rows += [HptRow(k, m - k, float(ub), float(us), 1) for k in range(1, m)]
        base_rows.append(HptRow(m, 0, float(ub), None, 1))
        scaled = alpharank(HeuristicPayoffTable(m=m, rows=tuple(scaled_rows)), 2.0)
        boosted = alpharank(HeuristicPayoffTable(m=m, rows=tuple(base_rows)), 2.0 * float(c))
        scaling_ok &= float(np.abs(scaled.stationary - boosted.stationary).max()) < 1e-9
    checks.append(scaling_ok)

    ok = all(checks)
    report(9, ok, f"neutral drift, row stochasticity, fixed point, scaling: {checks}")
    assert all(checks)


def test_criterion_10_byte_identical_outputs(tmp_path):
    specs = {
        "simulate": ["simulate", "--builders", "2", "--searchers", "2", "--rounds", "80",
                     "--pc", "0.6", "--seed", "13"],
        "sweep": ["sweep", "--builders", "2", "--searchers", "2", "--rounds", "60",
                  "--pc", "0.2,0.8", "--reps", "2", "--seed", "13"],
        "egta": ["egta", "--agents", "2", "--pc", "0.5", "--alpha", "1,10", "--reps", "2",
                 "--rounds", "60", "--seed", "13"],
    }
    outputs = {"simulate": "metrics.csv", "sweep": "sweep.csv", "egta": "alpharank.csv"}
    mismatches = []
    for name, args in specs.items():
        blobs = []
        for jobs in (1, 2):
            out = tmp_path / f"{name}-j{jobs}"
            assert cli_main([*args, "--jobs", str(jobs), "-o", str(out)]) == 0
            blobs.append((out / outputs[name]).read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    ok = not mismatches
    report(10, ok, f"jobs-invariant outputs for {sorted(specs)}; mismatches: {mismatches or 'none'}")
    assert not mismatches
