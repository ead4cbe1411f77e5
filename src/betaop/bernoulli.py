"""Bernoulli polynomials, periodized evaluation, the Euler-Bernoulli
approximation formula (rescaled to an arbitrary interval), and the complete
asymptotic expansion for integer-base transfer operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .field import BetaParams, QuadNum
from .piecewise import PiecewisePoly, Polynomial

MAX_BERNOULLI_DEGREE = 64


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
    frac = x - math.floor(x) if isinstance(x, float) else x - mp.floor(x)
    coeffs = bernoulli_coeffs(n)
    acc = 0 * frac
    for c in reversed(coeffs):
        num, den = c.numerator, c.denominator
        acc = acc * frac + (num / den if isinstance(frac, float) else mp.mpf(num) / den)
    return acc


@lru_cache(maxsize=None)
def bernoulli_l1_norm(n: int) -> float:
    """L1 norm of B_n on [0,1] in rational arithmetic: the sum of |A(v) - A(u)|,
    A an antiderivative, over the pieces [u, v] cut at the roots of B_n. These
    lie among 0, 1/2, 1 for n = 0 and odd n, else they are r and 1 - r, with r
    bisected to 2^-65 (an error that enters only squared, as B_n(r) = 0)."""
    bn = bernoulli_coeffs(n)
    at = lambda cs, t: sum(c * t ** i for i, c in enumerate(cs))
    r = Fraction(1, 2)
    if n % 2 == 0 < n:
        # B_n(0) and B_n(1/2) = (2^{1-n} - 1)*B_n(0) differ in sign
        lo, hi = Fraction(0), Fraction(1, 2)
        for _ in range(64):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if at(bn, mid) * bn[0] > 0 else (lo, mid)
        r = lo
    anti = (0,) + tuple(c / (i + 1) for i, c in enumerate(bn))
    values = [at(anti, t) for t in (0, r, 1 - r, 1)]
    return float(sum(abs(v - u) for u, v in zip(values, values[1:])))


@dataclass
class EBExpansion:
    """Finite Euler-Bernoulli expansion of F on [a,b]: interval mean plus
    derivative-jump terms; reconstruct() omits the integral remainder."""

    mean: float
    jump_coeffs: list[float]
    interval: tuple[QuadNum, QuadNum]
    N: int
    _len: float = field(init=False)
    _a: float = field(init=False)

    def __post_init__(self):
        a, b = self.interval
        self._a = float(a)
        self._len = float(b) - float(a)

    def reconstruct(self, y: float) -> float:
        h = self._len
        u = (y - self._a) / h
        acc = self.mean
        for s, jump in enumerate(self.jump_coeffs, start=1):
            acc += h ** (s - 1) * jump * periodized_eval(s, u) / math.factorial(s)
        return acc


def eb_expand(F, a: QuadNum, b: QuadNum, N: int) -> EBExpansion:
    """Euler-Bernoulli expansion data of F over [a,b] up to order N.

    F must expose value/derivative evaluation (see catalog.SmoothFunction);
    the interval mean uses F's exact integral when available, else mpmath
    quadrature."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if (b - a).sign() <= 0:
        raise ValueError("need a < b")
    af, bf = float(a), float(b)
    mean = F.integral(af, bf) / (bf - af)
    jumps = [F.deriv_eval(s - 1, bf) - F.deriv_eval(s - 1, af) for s in range(1, N + 1)]
    return EBExpansion(mean=mean, jump_coeffs=jumps, interval=(a, b), N=N)


def integer_transfer_pointwise(F, q: int, k: int, x, use_mp: bool = False):
    """(Q^k F)(x) = q^-k * sum_{j<q^k} F((x+j)/q^k), the exact uniform
    preimage tree of the integer-base operator."""
    n = q ** k
    if getattr(F, "qk_integer_transfer", None) is not None:
        return F.qk_integer_transfer(x, q, k, use_mp)
    if use_mp:
        h = mp.mpf(1) / n
        return mp.fsum(F.mp_eval((x + j) * h) for j in range(n)) * h
    j = np.arange(n, dtype=float)
    return float(math.fsum(F(v) for v in (x + j) / n) / n)


def integer_base_expansion_residual(F, q: int, k: int, N: int, grid: int,
                                    use_mp: bool = False,
                                    include_last: bool = False) -> float:
    """Sup over a grid of the order-N residual of (Q^k F): the transfer sum
    minus the integral term and the q^{-jk} jump terms with j < N, so the
    residual is dominated by the first neglected term and decays like
    q^{-Nk}. With include_last=True the j = N term is subtracted as well
    (useful when the expansion terminates exactly, e.g. for Bernoulli
    polynomials).

    With use_mp=True the transfer sum and the expansion are evaluated in
    mpmath working precision, which resolves residuals below double
    round-off."""
    if q < 2 or k < 1:
        raise ValueError("need q >= 2 and k >= 1")
    top = N + 1 if include_last else N
    xs = [(2 * i + 1) / (2 * grid) for i in range(grid)]
    if use_mp:
        one, zero = mp.mpf(1), mp.mpf(0)
        integral = F.mp_integral(zero, one)
        jumps = [F.mp_deriv_eval(j - 1, one) - F.mp_deriv_eval(j - 1, zero)
                 for j in range(1, top)]
    else:
        integral = F.integral(0.0, 1.0)
        jumps = [F.deriv_eval(j - 1, 1.0) - F.deriv_eval(j - 1, 0.0)
                 for j in range(1, top)]
    worst = mp.mpf(0) if use_mp else 0.0
    for x in xs:
        xv = mp.mpf(x) if use_mp else x
        lhs = integer_transfer_pointwise(F, q, k, xv, use_mp=use_mp)
        rhs = integral
        for j, jump in enumerate(jumps, start=1):
            scale = mp.mpf(q) ** (-j * k) if use_mp else q ** (-j * k)
            rhs = rhs + scale * jump * periodized_eval(j, xv) / math.factorial(j)
        err = abs(lhs - rhs)
        if err > worst:
            worst = err
    return float(worst)
