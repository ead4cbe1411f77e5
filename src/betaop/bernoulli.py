"""Bernoulli polynomials, periodized evaluation, and the complete asymptotic
expansion for integer-base transfer operators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .field import BetaParams
from .piecewise import PiecewisePoly, Polynomial
from .transfer import BudgetExceeded

MAX_BERNOULLI_DEGREE = 64
MAX_DIRECT_TERMS = 2 ** 16  # integer_transfer_pointwise refuses longer sums


@lru_cache(maxsize=None)
def bernoulli_coeffs(n: int) -> tuple[Fraction, ...]:
    """Exact rational coefficients of B_n, ascending degree, via the
    recursion B_n' = n*B_{n-1} with zero mean on [0,1]."""
    if not 0 <= n <= MAX_BERNOULLI_DEGREE:
        raise ValueError("n must be in [0, %d]" % MAX_BERNOULLI_DEGREE)
    if n == 0:
        return (Fraction(1),)
    prev = bernoulli_coeffs(n - 1)
    # antiderivative of n*B_{n-1}, constant fixed by zero mean
    body = [Fraction(0)] + [n * c / (i + 1) for i, c in enumerate(prev)]
    mean = sum(c / (i + 1) for i, c in enumerate(body))
    body[0] = -mean
    return tuple(body)


@lru_cache(maxsize=None)
def bernoulli_polynomial(params: BetaParams, n: int) -> Polynomial:
    """B_n as a Polynomial over Q(beta) (rational coefficients), cached:
    Polynomial is immutable."""
    return Polynomial.from_rationals(bernoulli_coeffs(n), params)


def bernoulli_piecewise(params: BetaParams, n: int) -> PiecewisePoly:
    """B_n restricted to [0,1] as a piecewise polynomial."""
    return PiecewisePoly.from_polynomial(bernoulli_polynomial(params, n))


def periodized_eval(n: int, x) -> float:
    """B_n(x - floor(x)): the Z-periodic extension evaluated at x.

    Works on floats and on mpmath numbers."""
    if isinstance(x, float):
        frac, coeff = x - math.floor(x), lambda c: c.numerator / c.denominator
    else:
        import mpmath as mp
        frac, coeff = x - mp.floor(x), lambda c: mp.mpf(c.numerator) / c.denominator
    acc = 0 * frac
    for c in reversed(bernoulli_coeffs(n)):
        acc = acc * frac + coeff(c)
    return acc


def integer_transfer_pointwise(F, q: int, k: int, x):
    """(Q^k F)(x) = q^-k * sum_{j<q^k} F((x+j)/q^k), the exact uniform
    preimage tree of the integer-base operator, in mpmath working precision.

    Without a closed form the sum has q^k terms; more than MAX_DIRECT_TERMS
    raise BudgetExceeded before the first."""
    if getattr(F, "qk_integer_transfer", None) is not None:
        return F.qk_integer_transfer(x, q, k)
    # q >= 2, so q**k >= 2**k: a long k is refused before the power is built
    if k >= MAX_DIRECT_TERMS.bit_length() or q ** k > MAX_DIRECT_TERMS:
        raise BudgetExceeded("Q^%d F at q=%d needs over %d terms per point"
                             % (k, q, MAX_DIRECT_TERMS))
    import mpmath as mp
    f = F.derivative(mp, 0)  # at the working precision of this call
    n = q ** k
    h = mp.mpf(1) / n
    return mp.fsum(f((x + j) * h) for j in range(n)) * h


def integer_base_expansion_residual(F, q: int, k: int, N: int, grid: int) -> float:
    """Sup over a grid of the order-N residual of (Q^k F): the transfer sum
    minus the integral term and the q^{-jk} jump terms with j < N, so the
    residual is dominated by the first neglected term and decays like
    q^{-Nk}. Where the expansion terminates (a Bernoulli polynomial of
    degree n), order n + 1 subtracts every term.

    The transfer sum and the expansion are evaluated in mpmath working
    precision (raise it with mpmath.workdps), which resolves residuals below
    double round-off."""
    import mpmath as mp
    if q < 2:
        raise ValueError("q must be >= 2, got %d" % q)
    if k < 1:
        raise ValueError("k must be >= 1, got %d" % k)
    if N < 1:
        raise ValueError("N must be >= 1")
    if grid < 1:
        raise ValueError("grid must be >= 1, got %d" % grid)
    xs = [(2 * i + 1) / (2 * grid) for i in range(grid)]
    one, zero = mp.mpf(1), mp.mpf(0)
    anti = F.derivative(mp, -1)
    integral = anti(one) - anti(zero)
    derivs = [F.derivative(mp, j) for j in range(N - 1)]
    jumps = [d(one) - d(zero) for d in derivs]
    worst = mp.mpf(0)
    for x in xs:
        xv = mp.mpf(x)
        lhs = integer_transfer_pointwise(F, q, k, xv)
        rhs = integral
        for j, jump in enumerate(jumps, start=1):
            scale = mp.mpf(q) ** (-j * k)
            rhs = rhs + scale * jump * periodized_eval(j, xv) / math.factorial(j)
        err = abs(lhs - rhs)
        # within 2^10 ulps of the terms, err is rounding noise of that precision: 0
        if err > worst and err > 1024 * mp.eps * (abs(lhs) + abs(rhs)):
            worst = err
    return float(worst)
