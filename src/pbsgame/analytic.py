"""Closed-form one-sided market: two builders bidding for one shared bundle.

With builder values v1 ~ Exp(rate1) and v2 ~ Exp(rate2), the difference
follows an asymmetric Laplace density. The searcher's expected payoff is a
piecewise integral against that density, split where the winning builder
flips and at zero, where the density changes branch. Every piece integrates
a linear payoff times an exponential, so the expectation is a sum of
elementary antiderivatives. The derivative of the expected payoff with
respect to the bid-gap (with the bid to the weaker builder fixed at zero) has
a closed form that is strictly negative, so bidding the two builders evenly
is optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

MC_BLOCK = 1 << 16  # samples per Monte Carlo block: 512 KiB of floats, small enough for L2


@dataclass(frozen=True)
class OneSidedMarket:
    rate1: float  # exponential rate of builder 1's value
    rate2: float
    value: float  # the searcher's bundle value
    beta1: float  # bid ratio offered to builder 1
    beta2: float
    rebate1: float  # builder 1's rebate ratio
    rebate2: float

    def __post_init__(self):
        if self.rate1 <= 0 or self.rate2 <= 0:
            raise ConfigError("value rates must be positive")
        if self.value < 0:
            raise ConfigError(f"bundle value must be >= 0, got {self.value}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0 <= b <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {b}")
        for name in ("rebate1", "rebate2"):
            a = getattr(self, name)
            if not 0 <= a < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {a}")

    @property
    def delta_beta(self) -> float:
        return self.beta1 - self.beta2


def _payoff_coefficients(market: OneSidedMarket) -> tuple[float, float, float, float]:
    """Linear payoff pieces: a1 + rebate1*x when builder 1 wins, b0 - rebate2*x otherwise."""
    v3, db = market.value, market.delta_beta
    a1 = (1.0 - market.beta1) * v3 + market.rebate1 * db * v3
    b0 = (1.0 - market.beta2) * v3 - market.rebate2 * db * v3
    return a1, market.rebate1, b0, -market.rebate2


def _antiderivative(a: float, b: float, rate: float, x: float) -> float:
    """Antiderivative of (a + b x) e^(rate x) at x; rate is never 0."""
    return math.exp(rate * x) * ((a + b * x) / rate - b / rate**2)


def expected_searcher_payoff(market: OneSidedMarket) -> float:
    """Expected searcher payoff over the two builders' random values.

    A zero-value bundle bids nothing and triggers the zero-denominator rebate
    convention, so its expected payoff is exactly 0.
    """
    v3 = market.value
    if v3 == 0:
        return 0.0
    l1, l2 = market.rate1, market.rate2
    k = l1 * l2 / (l1 + l2)
    a0, a_slope, b0, b_slope = _payoff_coefficients(market)
    split = -market.delta_beta * v3
    # builder 1 wins on [split, inf) and the density's branch flips at 0; of
    # the two middle pieces, the one on the wrong side of 0 has zero width
    lo, hi = min(split, 0.0), max(split, 0.0)
    p = _antiderivative
    return k * (
        p(b0, b_slope, l2, lo)  # builder 2 wins below both
        - p(a0, a_slope, -l1, hi)  # builder 1 wins above both
        + p(a0, a_slope, l2, 0.0) - p(a0, a_slope, l2, lo)  # builder 1 wins on [split, 0)
        + p(b0, b_slope, -l1, hi) - p(b0, b_slope, -l1, 0.0)  # builder 2 wins on [0, split)
    )


def monte_carlo_searcher_payoff(
    market: OneSidedMarket, n_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Sample mean and standard error of the searcher payoff.

    One call holds one n-float array, the v1 draws, and works through it in
    cache-sized blocks of ``MC_BLOCK``: each block draws its v2 into one reused
    buffer, as one n-sample draw would, and turns its v1 into payoffs. The mean
    and the squared-deviation sum are each one reduction over the whole array,
    as numpy's pairwise sum depends on the length. So the result and the state
    left in ``rng`` equal, bit for bit, those of the plain form:
    ``rng.exponential(1 / rate, n)`` draws (numpy defines them as scale times
    ``standard_exponential``), an ``np.where`` merge of the two branches,
    ``mean()`` and ``std(ddof=1)``.
    """
    if n_samples < 2:
        raise ConfigError(f"a standard error needs at least 2 samples, got {n_samples}")
    if market.value == 0:
        return 0.0, 0.0
    try:
        x = rng.standard_exponential(n_samples)  # every v1 comes before any v2 in the stream
    except MemoryError:
        raise ConfigError(f"mc_samples {n_samples} is too large to hold in memory") from None
    size = min(n_samples, MC_BLOCK)
    other, below = np.empty(size), np.empty(size, dtype=bool)
    split = -market.delta_beta * market.value
    a0, a_slope, b0, b_slope = _payoff_coefficients(market)
    for start in range(0, n_samples, MC_BLOCK):
        v = x[start : start + MC_BLOCK]
        w, wins2 = other[: len(v)], below[: len(v)]
        rng.standard_exponential(out=w)
        v *= 1.0 / market.rate1
        w *= 1.0 / market.rate2
        v -= w  # v1 - v2
        np.less(v, split, out=wins2)  # builder 2 wins
        np.multiply(v, b_slope, out=w)
        w += b0
        v *= a_slope
        v += a0
        np.copyto(v, w, where=wins2)
    mean = x.mean()
    x -= mean
    x *= x
    stderr = math.sqrt(x.sum() / (n_samples - 1)) / math.sqrt(n_samples)
    return float(mean), stderr


def payoff_derivative(market: OneSidedMarket) -> float:
    """Closed-form d E[payoff] / d delta_beta; beta2 must be 0, delta_beta >= 0."""
    if market.beta2 != 0:
        raise ConfigError("the derivative is defined with beta2 fixed at 0")
    if market.delta_beta < 0:
        raise ConfigError(f"delta_beta must be >= 0, got {market.delta_beta}")
    l1, l2 = market.rate1, market.rate2
    v3, db = market.value, market.delta_beta
    k = l1 * l2 / (l1 + l2)
    decay = math.exp(-l2 * db * v3)
    return k * (
        v3 * (market.rebate1 - 1.0) / l1
        + v3 * (market.rebate1 - 1.0) / l2 * (1.0 - decay)
        - v3**2 * db * decay
        - market.rebate2 * v3 * decay / l2
    )


def sample_market(
    rng: np.random.Generator, min_beta1: float = 0.0, max_beta1: float = 1.0
) -> OneSidedMarket:
    """Random valid market with beta2 = 0 for verification grids."""
    return OneSidedMarket(
        rate1=rng.uniform(1.0, 20.0),
        rate2=rng.uniform(1.0, 20.0),
        value=rng.uniform(0.01, 0.5),
        beta1=rng.uniform(min_beta1, max_beta1),
        beta2=0.0,
        rebate1=rng.uniform(0.0, 1.0),
        rebate2=rng.uniform(0.0, 1.0),
    )


def finite_difference_derivative(market: OneSidedMarket, step: float = 1e-4) -> float:
    """Central finite difference of the expected payoff in delta_beta."""
    up = expected_searcher_payoff(replace(market, beta1=market.beta1 + step))
    down = expected_searcher_payoff(replace(market, beta1=market.beta1 - step))
    return (up - down) / (2 * step)


def verification_report(
    sign_points: int, mc_points: int, mc_samples: int, fd_points: int, seed: int
) -> dict:
    """Grid verification of the closed-form market: signs, MC deltas, FD match."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    sign_values = []
    for _ in range(sign_points):
        sign_values.append(payoff_derivative(sample_market(rng)))
    sign_violations = sum(1 for d in sign_values if d >= 0)

    mc_rows = []
    for _ in range(mc_points):
        market = sample_market(rng)
        exact = expected_searcher_payoff(market)
        mc_mean, mc_err = monte_carlo_searcher_payoff(market, mc_samples, rng)
        z = abs(exact - mc_mean) / mc_err if mc_err > 0 else 0.0
        mc_rows.append({"quadrature": exact, "mc_mean": mc_mean, "mc_stderr": mc_err, "z": z})
    mc_failures = sum(1 for r in mc_rows if r["z"] > 3.0)

    fd_errors = []
    for _ in range(fd_points):
        market = sample_market(rng, min_beta1=0.01, max_beta1=0.99)
        closed = payoff_derivative(market)
        fd = finite_difference_derivative(market)
        fd_errors.append(abs(fd - closed) / max(abs(closed), 1e-12))
    max_fd_error = max(fd_errors) if fd_errors else 0.0

    return {
        "sign_check": {
            "points": sign_points,
            "violations": sign_violations,
            "max_derivative": max(sign_values) if sign_values else None,
        },
        "mc_check": {
            "points": mc_points,
            "samples": mc_samples,
            "failures": mc_failures,
            "max_z": max((r["z"] for r in mc_rows), default=0.0),
            # the chance that a correct closed form fails some point: P(|z| > 3) per point
            "family_false_alarm": 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** mc_points,
            "rows": mc_rows,
        },
        "fd_check": {"points": fd_points, "max_relative_error": max_fd_error},
        "passed": sign_violations == 0 and mc_failures == 0 and max_fd_error < 1e-4,
    }
