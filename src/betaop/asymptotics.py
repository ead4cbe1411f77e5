"""Quantitative iteration asymptotics: the two-term expansion of P^k F, the
epsilon/threshold bookkeeping, and log-linear decay-exponent fitting.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from statistics import linear_regression

from .field import BetaParams
from .piecewise import PiecewisePoly, _bracket
from .spectral import make_u_tilde
from .transfer import (BudgetExceeded, _bernstein_iterates, apply_transfer_iterate,
                       pointwise_transfer_power)

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
    exceed, also the condition for epsilon > 0. The threshold is 6 + s for
    s = 3 ln(a1)/ln(beta/a1), and N exceeds it iff N >= 7 + floor(s), decided
    by _floor_of_excess. N None takes that least admitted N."""
    a1 = params.a1
    # ln(beta/a1) as log1p of the exact (beta - a1)/a1, accurate also where
    # beta/a1 rounds to 1.0
    l1, l2 = math.log1p(float((params.beta() - a1) / a1)), math.log(a1)
    floor, frac = _floor_of_excess(params, 3 * l2 / l1)
    if N is None:
        N = 7 + floor
    elif N < 7 + floor:
        raise ValueError("N=%d is at or below the threshold %.6f" % (N, 6 + floor + frac))
    # the second term is (ln(beta/a1) - (3/N) ln(beta^2/a1))/ln(beta), which is
    # l1 (N - 6 - s)/(N ln(beta)), without its cancellation near the threshold
    epsilon = min(3.0 / N, l1 * (N - 7 - floor + (1 - frac)) / (N * (l1 + l2)))
    return TheoremParams(N=N, epsilon=epsilon, N_min_bound=6 + floor + frac)


def _floor_of_excess(params: BetaParams, s: float) -> tuple[int, float]:
    """floor(s) and, as a float, s - floor(s), for s = 3 ln(a1)/ln(beta/a1)
    given its float. s is 0 at a1 = 1 and irrational otherwise (beta^m is
    irrational for m >= 1), so floor(s) is decided on bounds of s: the float
    widened by 2^-45, which covers the rounding of its logs, and near an
    integer, mpmath intervals at doubling precision, the only mpmath import."""
    lo, hi = math.floor(s * (1 - 2.0 ** -45)), math.floor(s * (1 + 2.0 ** -45))
    if lo == hi:
        return lo, s - lo
    from mpmath import iv
    saved, iv.prec = iv.prec, 128
    try:
        while True:  # (beta - a1)/a1 = (a0 - 2 a1 + sqrt(a0^2 + 4 a1))/(2 a1)
            x = 3 * iv.log(params.a1) / iv.log1p(
                (params.a0 - 2 * params.a1 + iv.sqrt(params.disc)) / (2 * params.a1))
            if int(x.a) == int(x.b):
                return int(x.a), float((x - int(x.a)).mid)
            iv.prec *= 2
    finally:
        iv.prec = saved


def two_term_residual_exact(F: PiecewisePoly, k_max: int,
                            terms: int = 2) -> ResidualSeries:
    """Certified float sup-norm brackets of R_k, P^k F minus its expansion, for
    k = 1..k_max (PiecewisePoly.sup_norm_bracket).

    terms=2 subtracts u1*integral(F) and beta^-k * u3 * (F(1)-F(0))/4;
    terms=1 subtracts only the invariant part. The exact residual is iterated
    itself, R_k = P R_{k-1}, and PIECE_BUDGET bounds the pieces of R_k; for
    polynomial F that is the piece count of P^k F. For polynomial F, R_0 lies
    in S_nu, and R_k is stepped on its Bernstein coefficients
    (transfer._bernstein_iterates) for as long as they are those of its
    canonical form; from there on, apply_transfer iterates it."""
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
    params, steps, at, brackets = F.params, _bernstein_iterates(resid), 0, []
    for k in range(1, k_max + 1):
        # None from the first k where R_k leaves the stepped form (at once if
        # R_0 lies outside S_nu); resid = R_at is then iterated to R_k
        if (boxes := next(steps, None)) is None:
            resid, at = apply_transfer_iterate(resid, k - at), k
        # a stepped R_k is 0 or has the 2 pieces of S_nu
        if (len(resid.pieces) if boxes is None else 1 + bool(boxes)) > PIECE_BUDGET:
            raise BudgetExceeded("piece budget exceeded at k=%d" % k)
        brackets.append(resid.sup_norm_bracket() if boxes is None else _bracket(boxes, params))
    lows, ups = (array("d", column) for column in zip(*brackets))
    ks = list(range(1, k_max + 1))
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
