"""Quantitative iteration asymptotics: the two-term expansion of P^k F, the
epsilon/threshold bookkeeping, and log-linear decay-exponent fitting.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from statistics import linear_regression

from .field import BetaParams
from .piecewise import PiecewisePoly
from .spectral import make_u_tilde
from .transfer import BudgetExceeded, apply_transfer, pointwise_transfer_power

NOISE_FLOOR_RATIO = 1e-12
FIT_SKIP = 5  # entries with k <= FIT_SKIP are excluded from slope fits
PIECE_BUDGET = 10 ** 6  # two_term_residual_exact refuses residuals with more pieces


@dataclass
class ResidualSeries:
    """Residual magnitudes per iteration count with a fitted decay slope of
    ln(residual_upper) against k (ln(residual_lower) where the upper is NaN).
    The magnitudes are packed doubles, 8 bytes each where a list of floats
    takes 40, so a caller that keeps many series keeps a quarter the memory."""

    ks: list[int]
    residual_lower: array  # of 'd'
    residual_upper: array  # of 'd'
    fitted_slope: float


def fit_slope(ks, values) -> float:
    """Closed-form OLS slope of ln(values) vs k, skipping k <= FIT_SKIP and
    entries below the floating-noise floor relative to the initial residual."""
    if len(values) < 2:
        raise ValueError("a slope fit needs at least two points, got %d" % len(values))
    floor = NOISE_FLOOR_RATIO * values[0]
    pts = [(k, math.log(v)) for k, v in zip(ks, values)
           if k > FIT_SKIP and v > floor and v > 0]
    if len(pts) < 2:
        raise ValueError("not enough usable points for a slope fit")
    return linear_regression(*zip(*pts)).slope


def slope_or_nan(ks, values) -> float:
    """fit_slope, or NaN when fewer than two points are usable: a series too
    short to fit, or residuals that are exactly 0 or below the noise floor."""
    try:
        return fit_slope(ks, values)
    except ValueError:
        return math.nan


@dataclass
class TheoremParams:
    N: int
    epsilon: float
    N_min_bound: float


def epsilon_of(params: BetaParams, N: int | None = None) -> TheoremParams:
    """The contraction exponent epsilon for a given smoothness order N,
    together with the threshold 3 ln(beta^2/a1) / ln(beta/a1) that N must
    exceed. Whether N exceeds it is decided exactly: the inequality is
    beta^(N-6) > a1^(N-3) with N > 6, and it is also the condition for
    epsilon > 0. The float threshold is within a few a0 ulps of the true
    one, so only an N that near it needs the exact powers. N None takes the
    least admitted N; at a1 = 1 the threshold is exactly 6, though its float
    may read 5.999999999999999."""
    b = params.beta_float()
    a1 = params.a1
    threshold = 3 * math.log(b * b / a1) / math.log(b / a1)

    def admitted(n):
        if abs(n - threshold) > 1e-12 * params.a0 * threshold:
            return n > threshold
        return n > 6 and params.power(n - 6) > a1 ** (n - 3)

    if N is None:
        N = next(n for n in count(max(7, math.floor(threshold))) if admitted(n))
    elif not admitted(N):
        raise ValueError("N=%d is at or below the threshold %.6f" % (N, threshold))
    epsilon = min(3.0 / N,
                  (-(3.0 / N) * math.log(b * b / a1) + math.log(b / a1)) / math.log(b))
    return TheoremParams(N=N, epsilon=epsilon, N_min_bound=threshold)


def two_term_residual_exact(F: PiecewisePoly, k_max: int,
                            terms: int = 2) -> ResidualSeries:
    """Certified float sup-norm brackets of R_k, P^k F minus its expansion, for
    k = 1..k_max (PiecewisePoly.sup_norm_bracket).

    terms=2 subtracts u1*integral(F) and beta^-k * u3 * (F(1)-F(0))/4;
    terms=1 subtracts only the invariant part. The exact residual is iterated
    itself, R_k = P R_{k-1}, and PIECE_BUDGET bounds the pieces of R_k; for
    polynomial F that is the piece count of P^k F."""
    if terms not in (1, 2):
        raise ValueError("terms must be 1 or 2, got %r" % (terms,))
    if k_max < 1:
        raise ValueError("k_max must be >= 1, got %d" % k_max)
    u1, _, u3 = make_u_tilde(F.params)
    # P u1 = u1 and P u3 = u3/beta hold exactly, so with R_0 = F - u1*integral(F)
    # [+ u3*(F(0)-F(1))/4] the linear P gives R_k = P^k R_0, the residual at k
    resid = F + u1.scaled(-F.integrate())
    if terms == 2:
        f0, f1 = F.boundary_values()
        resid = resid + u3.scaled((f0 - f1) * Fraction(1, 4))
    ks, lows, ups = [], array("d"), array("d")
    for k in range(1, k_max + 1):
        resid = apply_transfer(resid)
        if len(resid.pieces) > PIECE_BUDGET:
            raise BudgetExceeded("piece budget exceeded at k=%d" % k)
        lo, up = resid.sup_norm_bracket()
        ks.append(k)
        lows.append(lo)
        ups.append(up)
    return ResidualSeries(ks=ks, residual_lower=lows, residual_upper=ups,
                          fitted_slope=slope_or_nan(ks, ups))


def two_term_residual_numeric(F, params: BetaParams, ks,
                              grid: int = 101) -> ResidualSeries:
    """Grid sup of the two-term residual using the pointwise preimage engine;
    the eigenfunctions are evaluated exactly at the grid points. A grid sup
    is no upper bound, so residual_upper is NaN and the slope is fitted to
    residual_lower."""
    if grid < 101:
        raise ValueError("grid must be >= 101, got %d" % grid)
    u1, _, u3 = make_u_tilde(params)
    xs = [(2 * i + 1) / (2 * grid) for i in range(grid)]
    u1_vals = u1.eval_float(xs)
    u3_vals = u3.eval_float(xs)
    anti = F.derivative(math, -1)
    total = anti(1.0) - anti(0.0)
    jump = (F(1.0) - F(0.0)) / 4.0
    b = params.beta_float()
    ks = list(ks)
    lows = array("d")
    for k in ks:
        pk = pointwise_transfer_power(F, params, k, xs)
        bk = b ** (-k)
        lows.append(max(abs(p - u * total - bk * v * jump)
                        for p, u, v in zip(pk.tolist(), u1_vals, u3_vals)))
    return ResidualSeries(ks=ks, residual_lower=lows,
                          residual_upper=array("d", [math.nan]) * len(ks),
                          fitted_slope=slope_or_nan(ks, lows))
