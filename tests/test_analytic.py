import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from pbsgame.analytic import (
    MC_BLOCK,
    OneSidedMarket,
    expected_searcher_payoff,
    finite_difference_derivative,
    monte_carlo_searcher_payoff,
    payoff_derivative,
    sample_market,
    verification_report,
)
from pbsgame.codec import bid_ratio, decode_builder, decode_searcher
from pbsgame.errors import ConfigError
from pbsgame.evolution import GAConfig
from pbsgame.market import InteractionGraph, Scenario
from pbsgame.simulation import SimConfig, Simulation
from reference import given_scenario, laplace_cdf, laplace_pdf


def test_pdf_at_zero_is_shared_constant():
    assert laplace_pdf(0.0, 3.0, 7.0) == pytest.approx(21 / 10)


def test_pdf_symmetric_rates_hand_point():
    assert laplace_pdf(1.0, 1.0, 1.0) == pytest.approx(0.5 * math.exp(-1))


def test_pdf_integrates_to_one():
    total, _ = integrate.quad(lambda x: laplace_pdf(x, 2.5, 9.0), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_matches_sampled_differences():
    rng = np.random.default_rng(0)
    rate1, rate2 = 7.0, 12.0
    samples = rng.exponential(1 / rate1, 10**6) - rng.exponential(1 / rate2, 10**6)
    result = stats.kstest(samples, lambda x: np.vectorize(laplace_cdf)(x, rate1, rate2))
    assert result.pvalue > 0.01


def test_pdf_rejects_bad_rates():
    with pytest.raises(ConfigError):
        laplace_pdf(0.0, 0.0, 1.0)


@pytest.mark.parametrize("rate1, rate2", [(-1.0, 2.0), (0.0, 0.0)])
def test_cdf_rejects_bad_rates(rate1, rate2):
    with pytest.raises(ConfigError, match="rates must be positive"):
        laplace_cdf(0.5, rate1, rate2)


def market(**kwargs):
    base = dict(rate1=10.0, rate2=10.0, value=0.1, beta1=0.3, beta2=0.1,
                rebate1=0.5, rebate2=0.5)
    base.update(kwargs)
    return OneSidedMarket(**base)


def test_zero_value_bundle_earns_nothing():
    assert expected_searcher_payoff(market(value=0.0)) == 0.0
    mean, err = monte_carlo_searcher_payoff(market(value=0.0), 1000, np.random.default_rng(0))
    assert mean == 0.0 and err == 0.0


def test_no_bids_no_rebates_keeps_everything():
    m = market(beta1=0.0, beta2=0.0, rebate1=0.0, rebate2=0.0, value=0.17)
    assert expected_searcher_payoff(m) == pytest.approx(0.17, abs=1e-12)


def quadrature_oracle(m):
    """Adaptive quadrature of the piecewise payoff times the Laplace density."""
    delta = m.beta1 - m.beta2
    split = -delta * m.value
    win1 = (1 - m.beta1) * m.value + m.rebate1 * delta * m.value
    win2 = (1 - m.beta2) * m.value - m.rebate2 * delta * m.value

    def integrand(x):
        payoff = win1 + m.rebate1 * x if x >= split else win2 - m.rebate2 * x
        return payoff * laplace_pdf(x, m.rate1, m.rate2)

    lo, hi = min(split, 0.0), max(split, 0.0)
    pieces = [(-np.inf, lo), (lo, hi), (hi, np.inf)] if lo < hi else [(-np.inf, lo), (hi, np.inf)]
    return sum(
        integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in pieces
    )


def test_expected_payoff_matches_quadrature_oracle():
    rng = np.random.default_rng(8)
    signs = set()
    for t in range(1200):
        beta1, beta2 = rng.uniform(0, 1, 2)
        m = OneSidedMarket(
            rate1=float(rng.uniform(1, 20)),
            rate2=float(rng.uniform(1, 20)),
            value=float(10 ** rng.uniform(-6, 0)),
            beta1=float(beta1),
            beta2=float(beta1 if t % 3 == 0 else beta2),
            rebate1=float(rng.uniform(0, 1)),
            rebate2=float(rng.uniform(0, 1)),
        )
        signs.add(np.sign(m.delta_beta))
        exact, oracle = expected_searcher_payoff(m), quadrature_oracle(m)
        assert abs(exact - oracle) <= 1e-12 * abs(oracle), (m, exact, oracle)
    assert signs == {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("n_samples", [0, 1])
def test_monte_carlo_needs_two_samples(n_samples):
    with pytest.raises(ConfigError, match="2 samples"):
        monte_carlo_searcher_payoff(market(), n_samples, np.random.default_rng(0))


@pytest.mark.parametrize("blocks", [4, 16])
def test_monte_carlo_holds_one_sample_array(blocks):
    # past the n v1 draws, one block-sized v2 buffer and mask, whatever n is
    n = blocks * MC_BLOCK
    tracemalloc.start()
    try:
        monte_carlo_searcher_payoff(market(), n, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n <= peak < 8 * n + 10 * MC_BLOCK


def test_quadrature_matches_monte_carlo_on_spec_point():
    m = market()
    exact = expected_searcher_payoff(m)
    mean, err = monte_carlo_searcher_payoff(m, 10**6, np.random.default_rng(1))
    assert abs(exact - mean) < 3 * err


def test_quadrature_matches_monte_carlo_on_random_markets():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = OneSidedMarket(
            rate1=float(rng.uniform(1, 20)),
            rate2=float(rng.uniform(1, 20)),
            value=float(rng.uniform(0.01, 0.5)),
            beta1=float(rng.uniform(0, 1)),
            beta2=float(rng.uniform(0, 1)),
            rebate1=float(rng.uniform(0, 1)),
            rebate2=float(rng.uniform(0, 1)),
        )
        exact = expected_searcher_payoff(m)
        mean, err = monte_carlo_searcher_payoff(m, 2 * 10**5, rng)
        assert abs(exact - mean) < 4 * err


def test_derivative_negative_on_valid_grid():
    rng = np.random.default_rng(3)
    for _ in range(500):
        assert payoff_derivative(sample_market(rng)) < 0


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = sample_market(rng, min_beta1=0.01, max_beta1=0.99)
        closed = payoff_derivative(m)
        fd = finite_difference_derivative(m)
        assert abs(fd - closed) / abs(closed) < 1e-4


def test_derivative_boundary_reduction():
    # delta_beta = 0 with rebate1 near 1 leaves only the weaker builder's term
    m = market(beta1=0.0, beta2=0.0, rebate1=1 - 1e-12, rebate2=0.8)
    k = m.rate1 * m.rate2 / (m.rate1 + m.rate2)
    assert payoff_derivative(m) == pytest.approx(-k * m.rebate2 * m.value / m.rate2, rel=1e-6)
    flat = market(beta1=0.0, beta2=0.0, rebate1=1 - 1e-12, rebate2=0.0)
    assert payoff_derivative(flat) == pytest.approx(0.0, abs=1e-10)


def test_derivative_requires_zero_beta2():
    with pytest.raises(ConfigError):
        payoff_derivative(market(beta2=0.1))


def test_market_validation():
    with pytest.raises(ConfigError):
        market(rate1=0.0)
    with pytest.raises(ConfigError):
        market(beta1=1.2)
    with pytest.raises(ConfigError):
        market(rebate1=1.0)
    with pytest.raises(ConfigError):
        market(value=-0.1)


def test_verification_report_smoke():
    report = verification_report(sign_points=50, mc_points=3, mc_samples=10**5, fd_points=10, seed=5)
    assert report["passed"]
    assert report["sign_check"]["violations"] == 0
    assert report["fd_check"]["max_relative_error"] < 1e-4


def test_verification_report_states_the_family_false_alarm_rate():
    # 50 independent |z| > 3 tests: a correct closed form fails one ~12.6% of the time
    rates = [
        verification_report(sign_points=0, mc_points=points, mc_samples=1000, fd_points=0, seed=0)
        ["mc_check"]["family_false_alarm"]
        for points in (1, 50)
    ]
    assert rates[0] == pytest.approx(math.erfc(3 / math.sqrt(2)), rel=1e-12)
    assert rates[1] == pytest.approx(0.126, abs=5e-4)


def test_two_builder_simulation_reproduces_expected_payoff():
    # frozen strategies, fixed searcher value, independent bundles: the full
    # simulator's mean searcher payoff must match the closed-form market
    alpha1_bits, alpha2_bits = "10100", "00101"  # 20/31 and 5/31
    searcher_bits = "1010001010"
    alpha1 = decode_builder(int(alpha1_bits, 2)).alpha
    alpha2 = decode_builder(int(alpha2_bits, 2)).alpha
    params = decode_searcher(int(searcher_bits, 2))
    v3 = 0.1
    m = OneSidedMarket(
        rate1=10.0,
        rate2=10.0,
        value=v3,
        beta1=bid_ratio(params, alpha1),
        beta2=bid_ratio(params, alpha2),
        rebate1=alpha1,
        rebate2=alpha2,
    )
    n_rounds = 40_000
    config = SimConfig(
        n_builders=2, n_searchers=1, rounds=n_rounds, p_c=0.0, seed=0,
        learning_rate=0.0, ga=GAConfig(trigger=0.0),
    )
    sim = Simulation(config)
    for codes, bits in zip(sim.codes, (alpha1_bits, alpha2_bits, searcher_bits)):
        codes[:] = int(bits, 2)

    rng = np.random.default_rng(99)
    graph = InteractionGraph.independent(3)
    payoffs = np.empty(n_rounds)
    for t in range(n_rounds):
        v1, v2 = rng.exponential(0.1, 2)
        scenario = Scenario(values=(float(v1), float(v2), v3), graph=graph)
        with given_scenario(scenario):
            payoffs[t] = sim.run_round().payoffs[2]
    stderr = payoffs.std(ddof=1) / math.sqrt(n_rounds)
    assert abs(payoffs.mean() - expected_searcher_payoff(m)) < 3 * stderr
