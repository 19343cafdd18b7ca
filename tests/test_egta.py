import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from pbsgame.cli import main
from pbsgame.egta import (
    AlphaRankResult,
    HeuristicPayoffTable,
    HptRow,
    alpharank,
    estimate_hpt,
    fixation_probability,
    intensity_sweep,
    path_fixation_probability,
    stationary_distribution,
)
from pbsgame.errors import ConfigError
from pbsgame.evolution import GAConfig
from pbsgame.simulation import Lockstep, SimConfig, summarize
from pbsgame.sweep import replica_rng


def full_table(m, u_building, u_sharing):
    """Payoff table with the same per-role payoffs in every mixed profile."""
    rows = [HptRow(0, m, None, 0.0, 1)]
    rows += [HptRow(k, m - k, u_building, u_sharing, 1) for k in range(1, m)]
    rows.append(HptRow(m, 0, u_building, None, 1))
    return HeuristicPayoffTable(m=m, rows=tuple(rows))


def test_fixation_neutral_drift():
    assert fixation_probability(0.0, 5.0, 10) == pytest.approx(0.1)


def test_fixation_monotone_and_bounded():
    rhos = [fixation_probability(d, 1.0, 10) for d in np.linspace(-2, 2, 41)]
    assert all(0 < r <= 1 for r in rhos)
    assert all(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:]))


def test_fixation_limits():
    assert fixation_probability(1.0, 100.0, 10) == pytest.approx(1.0, abs=1e-12)
    assert fixation_probability(-1.0, 100.0, 10) < 1e-30


def test_fixation_extreme_intensity_is_finite():
    assert fixation_probability(-10.0, 100.0, 10) >= 0.0
    assert path_fixation_probability([-10.0] * 9, 100.0) >= 0.0


def test_path_fixation_reduces_to_constant_gap_formula():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        delta = float(rng.normal(0, 0.5))
        alpha = float(rng.uniform(0.1, 50))
        closed = fixation_probability(delta, alpha, m)
        path = path_fixation_probability([delta] * (m - 1), alpha)
        assert path == pytest.approx(closed, rel=1e-10)


def test_neutral_drift_transition_matrix():
    hpt = full_table(10, 0.3, 0.3)
    result = alpharank(hpt, 1.0)
    assert result.transition[0, 1] == pytest.approx(0.1)
    assert result.transition[1, 0] == pytest.approx(0.1)
    assert np.allclose(result.stationary, [0.5, 0.5], atol=1e-12)


def test_dominant_strategy_takes_all_mass_at_high_intensity():
    hpt = full_table(10, 0.5, 0.2)
    result = alpharank(hpt, 100.0)
    assert result.nu_building > 0.999
    masses = [r.nu_building for r in intensity_sweep(hpt, [0.5, 1, 5, 20, 100])]
    assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(masses, masses[1:]))


def test_stationary_matches_power_iteration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        hpt = full_table(10, float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5)))
        result = alpharank(hpt, 1.0)
        # independent oracle: brute-force power iteration on the transition matrix
        nu = np.array([0.5, 0.5])
        for _ in range(200_000):
            nxt = nu @ result.transition
            if np.abs(nxt - nu).max() < 1e-15:
                nu = nxt
                break
            nu = nxt
        nu = nu / nu.sum()
        assert np.abs(result.stationary - nu).max() < 1e-10


def test_rows_are_stochastic_and_stationary_is_fixed_point():
    rng = np.random.default_rng(4)
    for _ in range(20):
        hpt = full_table(6, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        result = alpharank(hpt, float(rng.uniform(0.1, 50)))
        assert np.allclose(result.transition.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(result.stationary @ result.transition - result.stationary).max() < 1e-10
        assert result.stationary.min() >= 0
        assert result.stationary.sum() == pytest.approx(1.0)


def test_payoff_scaling_equals_intensity_scaling():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ub, us = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        c = float(rng.uniform(0.1, 10))
        scaled_payoffs = alpharank(full_table(10, c * ub, c * us), 2.0)
        scaled_intensity = alpharank(full_table(10, ub, us), 2.0 * c)
        assert np.abs(scaled_payoffs.stationary - scaled_intensity.stationary).max() < 1e-9


def test_intensity_sweep_shape():
    hpt = full_table(10, 0.4, 0.4)
    alphas = list(np.geomspace(0.1, 100, 7))
    results = intensity_sweep(hpt, alphas)
    assert len(results) == len(alphas)
    assert all(isinstance(r, AlphaRankResult) for r in results)
    assert all(np.allclose(r.stationary, [0.5, 0.5], atol=1e-10) for r in results)


def test_alpharank_requires_complete_mixed_rows():
    # the table is refused when it is built, so alpha-rank never sees it
    rows = (
        HptRow(0, 10, None, 0.0, 1),
        HptRow(1, 9, 0.5, 0.2, 1),
        HptRow(9, 1, 0.5, 0.2, 1),
        HptRow(10, 0, 0.5, None, 1),
    )
    with pytest.raises(ConfigError):
        HeuristicPayoffTable(m=10, rows=rows)


@pytest.mark.parametrize("dropped", range(5))
def test_hpt_refuses_a_missing_profile(dropped):
    rows = tuple(row for row in full_table(4, 0.2, 0.1).rows if row.n_building != dropped)
    with pytest.raises(ConfigError, match=f"no profile with {dropped} builders"):
        HeuristicPayoffTable(m=4, rows=rows)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("role", ["u_building", "u_sharing"])
def test_hpt_refuses_a_mixed_row_without_a_payoff(k, role):
    rows = list(full_table(4, 0.2, 0.1).rows)
    rows[k] = dataclasses.replace(rows[k], **{role: None})
    with pytest.raises(ConfigError, match=rf"row \({k}, {4 - k}\) is missing a payoff"):
        HeuristicPayoffTable(m=4, rows=tuple(rows))


def test_hpt_keeps_rows_in_builder_order():
    ordered = bistable_table()
    shuffled = list(ordered.rows)
    np.random.default_rng(11).shuffle(shuffled)
    assert [row.n_building for row in shuffled] != list(range(5))
    table = HeuristicPayoffTable(m=4, rows=tuple(shuffled))
    assert [row.n_building for row in table.rows] == list(range(5))
    assert table == ordered
    assert [table.row(k) for k in range(5)] == list(ordered.rows)
    for alpha in (0.5, 100.0):
        ranked, expected = alpharank(table, alpha), alpharank(ordered, alpha)
        assert ranked.transition.tolist() == expected.transition.tolist()
        assert ranked.stationary.tolist() == expected.stationary.tolist()


def test_alpharank_is_linear_in_the_table_size():
    m = 40_000
    rows = [HptRow(0, m, None, 0.0, 1)]
    rows += [HptRow(k, m - k, 0.3 + 1e-6 * k, 0.3, 1) for k in range(1, m)]
    rows.append(HptRow(m, 0, 0.3, None, 1))
    table = HeuristicPayoffTable(m=m, rows=tuple(rows))
    started = time.perf_counter()
    alpharank(table, 1.0)
    # searching the rows for each profile took about 20 s at this size on a 2-core host
    assert time.perf_counter() - started < 2.0


def test_alpharank_rejects_bad_intensity():
    for alpha in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            alpharank(full_table(4, 0.1, 0.1), alpha)


def test_hpt_validation():
    with pytest.raises(ConfigError):
        HeuristicPayoffTable(m=4, rows=(HptRow(1, 2, 0.1, 0.1, 1),))
    table = full_table(4, 0.1, 0.2)
    for k in (9, 5, -1):  # a negative count must not index from the end
        with pytest.raises(ConfigError, match=f"no profile with {k} builders"):
            table.row(k)
    for payoff in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="non-finite payoff"):
            HeuristicPayoffTable(m=2, rows=(HptRow(0, 2, None, payoff, 1),))
    # a table of fewer than 2 agents has no invasion to rank: alpha-rank gave it nu 0.5/0.5
    for m in (0, 1):
        rows = tuple(HptRow(k, m - k, 0.1 if k else None, 0.1 if k < m else None, 1) for k in range(m + 1))
        with pytest.raises(ConfigError, match=f"at least 2 agents, got {m}"):
            HeuristicPayoffTable(m=m, rows=rows)
    # "None when no agent plays the role": a payoff there, or a negative sample count, was ranked
    for row in (HptRow(2, 0, 0.1, 7.0, 1), HptRow(0, 2, 5.0, 0.0, 1)):
        with pytest.raises(ConfigError, match="a role no agent plays"):
            HeuristicPayoffTable(m=2, rows=(row,))
    with pytest.raises(ConfigError, match="-7 samples"):
        HeuristicPayoffTable(m=2, rows=(HptRow(1, 1, 0.1, 0.1, -7),))
    # a negative role count that still sums to m was ranked as if the row were absent
    for row in (HptRow(-1, 3, 0.4, 0.3, 1), HptRow(3, -1, 0.4, 0.3, 1)):
        with pytest.raises(ConfigError, match=r"role count outside \[0, 2\]"):
            HeuristicPayoffTable(m=2, rows=(row,))


def test_stationary_distribution_direct():
    transition = np.array([[0.9, 0.1], [0.3, 0.7]])
    nu = stationary_distribution(transition)
    assert np.allclose(nu, [0.75, 0.25], atol=1e-10)


def two_state(p, q):
    return np.array([[1.0 - p, p], [q, 1.0 - q]])


@pytest.mark.parametrize(
    "p, q, expected",
    [(1e-20, 1e-18, [100 / 101, 1 / 101]), (1e-11, 1e-10, [10 / 11, 1 / 11]), (0.0, 0.0, [0.5, 0.5])],
)
def test_stationary_distribution_nearly_absorbing(p, q, expected):
    # only the ratio of the two exit probabilities matters, however small they are
    assert np.allclose(stationary_distribution(two_state(p, q)), expected, rtol=1e-14, atol=0)


def test_stationary_distribution_rejects_other_shapes():
    for transition in (np.eye(3), np.ones(2), [[1.0]]):
        with pytest.raises(ConfigError):
            stationary_distribution(transition)


def bistable_table():
    """m = 4; the role that holds the majority earns more, so neither invades."""
    u_building = {1: 0.1, 2: 0.3, 3: 0.7, 4: 0.6}
    u_sharing = {0: 0.5, 1: 0.6, 2: 0.3, 3: 0.1}
    rows = [HptRow(0, 4, None, u_sharing[0], 1)]
    rows += [HptRow(k, 4 - k, u_building[k], u_sharing[k], 1) for k in range(1, 4)]
    rows.append(HptRow(4, 0, u_building[4], None, 1))
    return HeuristicPayoffTable(m=4, rows=tuple(rows))


# At alpha 100 the invasion paths of bistable_table sum to 1 + 2e^50 + e^-10
# (builders invading) and 1 + 2e^60 + e^10 (sharing invading); each
# fixation probability is the reciprocal.
BISTABLE_NU_SHARING = (1 + 2 * math.exp(50) + math.exp(-10)) / (
    (1 + 2 * math.exp(60) + math.exp(10)) + (1 + 2 * math.exp(50) + math.exp(-10))
)


def test_alpharank_bistable_table():
    result = alpharank(bistable_table(), 100.0)
    assert result.transition[0, 1] < 1e-26 and result.transition[1, 0] < 1e-21
    assert result.nu_sharing == pytest.approx(BISTABLE_NU_SHARING, rel=1e-12)
    assert result.nu_building == pytest.approx(1 - BISTABLE_NU_SHARING, rel=1e-12)


def test_egta_hpt_file_bistable_table(tmp_path):
    hpt_file = tmp_path / "table.csv"
    with open(hpt_file, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_building", "n_sharing", "u_building", "u_sharing", "samples"])
        for row in bistable_table().rows:
            cells = [row.n_building, row.n_sharing, row.u_building, row.u_sharing, 1]
            writer.writerow(["" if cell is None else cell for cell in cells])
    assert main(["egta", "--hpt-file", str(hpt_file), "--alpha", "100", "-o", str(tmp_path)]) == 0
    with open(tmp_path / "alpharank.csv") as handle:
        (row,) = list(csv.DictReader(handle))
    assert float(row["nu_sharing"]) == pytest.approx(BISTABLE_NU_SHARING, rel=1e-12)


def tiny_template(p_c=0.5):
    return SimConfig(n_builders=1, n_searchers=1, rounds=40, p_c=p_c, seed=3)


def test_estimate_hpt_enumerates_all_profiles():
    hpt = estimate_hpt(2, tiny_template(), reps=2)
    assert [(r.n_building, r.n_sharing) for r in hpt.rows] == [(0, 2), (1, 1), (2, 0)]
    assert all(r.samples == 2 for r in hpt.rows)


def test_estimate_hpt_zero_adopters_absent_and_no_builders_zero():
    hpt = estimate_hpt(2, tiny_template(), reps=2)
    no_builders = hpt.row(0)
    assert no_builders.u_building is None
    assert no_builders.u_sharing == 0.0  # nothing lands on chain without builders
    all_builders = hpt.row(2)
    assert all_builders.u_sharing is None
    assert all_builders.u_building is not None


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("p_c", [0.1, 0.9])
@pytest.mark.parametrize("seed", [3, 41])
def test_no_builder_row_equals_simulating_the_profile(m, p_c, seed):
    template = SimConfig(n_builders=1, n_searchers=1, rounds=60, p_c=p_c, seed=seed)
    reps = 2
    summaries = []
    for rep in range(reps):  # the profile's replicas, seeded as estimate_hpt seeds them
        config = SimConfig(n_builders=0, n_searchers=m, rounds=60, p_c=p_c, seed=seed)
        sim = Lockstep([config], [replica_rng(seed, 0, rep)]).replicas[0]
        sim.run()
        summaries.append(summarize(sim))
    simulated = HptRow(
        0, m, None, float(np.mean([s["searcher_reward"] for s in summaries])), reps,
        max(s["max_residual"] for s in summaries),
    )
    # repr also tells 0.0 from -0.0, which print differently in hpt.csv
    assert repr(estimate_hpt(m, template, reps=reps).row(0)) == repr(simulated)


def test_profile_payoffs_add_left_to_right_at_ten_reps():
    # numpy's pairwise mean adds 8 or more values in another order: it gave u_building
    # 0.026989442839200056 for 2 builders here, where adding left to right gives ...063
    template, reps = SimConfig(n_builders=3, n_searchers=0, rounds=40, p_c=0.4, seed=5), 10
    hpt = estimate_hpt(3, template, reps)
    for n1 in range(1, 4):
        config = dataclasses.replace(template, n_builders=n1, n_searchers=3 - n1)
        totals = [0.0, 0.0]
        for rep in range(reps):
            sim = Lockstep([config], [replica_rng(5, n1, rep)]).replicas[0]
            sim.run()
            summary = summarize(sim)
            totals = [totals[0] + summary["builder_reward"], totals[1] + summary["searcher_reward"]]
        row = hpt.row(n1)
        assert row.u_building == totals[0] / reps
        assert row.u_sharing == (None if n1 == 3 else totals[1] / reps)
    assert hpt.row(2).u_building == 0.026989442839200063


def test_all_builder_row_is_the_same_at_every_p_c():
    # with no searchers each block holds its builder's one bundle, so no conflict reaches a
    # payoff, and the replicas draw the same numbers at any p_c
    low, high = (estimate_hpt(3, tiny_template(p_c), reps=2) for p_c in (0.1, 0.9))
    for field in dataclasses.fields(HptRow):
        assert repr(getattr(low.row(3), field.name)) == repr(getattr(high.row(3), field.name)), field.name
    # a profile with searchers does see p_c
    assert low.row(1) != high.row(1)


def test_all_builder_row_is_bit_identical_across_p_c_with_ga_steps():
    # the same pin with a GA step in most rounds of each replica, and at both ends of the
    # range of p_c
    template = SimConfig(n_builders=1, n_searchers=1, rounds=60, p_c=0.0, seed=7, ga=GAConfig(trigger=0.3))
    rows = [estimate_hpt(3, dataclasses.replace(template, p_c=p_c), reps=3).row(3) for p_c in (0.0, 0.37, 1.0)]
    assert rows[0].u_building is not None and rows[0].samples == 3
    assert [repr(row) for row in rows[1:]] == [repr(rows[0])] * 2


def test_hpt_rejects_duplicate_profiles():
    rows = full_table(3, 0.2, 0.1).rows
    with pytest.raises(ConfigError, match="two profiles"):
        HeuristicPayoffTable(m=3, rows=rows + rows[1:2])


def test_estimate_hpt_deterministic_across_jobs():
    a = estimate_hpt(3, tiny_template(), reps=2, jobs=1)
    b = estimate_hpt(3, tiny_template(), reps=2, jobs=2)
    assert a == b


def test_estimate_hpt_validation():
    with pytest.raises(ConfigError):
        estimate_hpt(1, tiny_template(), reps=1)
    with pytest.raises(ConfigError):
        estimate_hpt(4, tiny_template(), reps=0)
