"""Bernoulli polynomials and the integer-base asymptotic residual."""

import hashlib
import math
import struct
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from betaop import (BetaParams, BudgetExceeded, Polynomial, bernoulli, bernoulli_coeffs,
                    bernoulli_polynomial, builtin, fit_slope,
                    integer_base_expansion_residual,
                    integer_transfer_pointwise, periodized_eval)

GOLDEN = BetaParams(1, 1)


def test_low_degree_tables():
    assert bernoulli_coeffs(0) == (Fraction(1),)
    assert bernoulli_coeffs(1) == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_coeffs(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))
    assert bernoulli_coeffs(3) == (Fraction(0), Fraction(1, 2),
                                   Fraction(-3, 2), Fraction(1))


def derivative(p):
    """p' as a Polynomial, from its QuadNum coefficients."""
    return Polynomial([c * n for n, c in enumerate(p.coeffs)][1:], p.params)


def test_recursion_identities():
    for n in range(1, 21):
        bn = bernoulli_polynomial(GOLDEN, n)
        dn = derivative(bn)
        target = bernoulli_polynomial(GOLDEN, n - 1).scaled(GOLDEN.rational(n))
        assert (dn - target).is_zero()
        anti = bn.antiderivative()
        assert (anti.eval(GOLDEN.one()) - anti.eval(GOLDEN.zero())).is_zero()
        if n >= 2:
            assert (bn.eval(GOLDEN.one()) - bn.eval(GOLDEN.zero())).is_zero()


def test_degree_cap():
    with pytest.raises(ValueError):
        bernoulli_coeffs(65)


def test_periodized_eval():
    assert periodized_eval(1, 1.5) == pytest.approx(0.0)
    assert periodized_eval(2, 2.0) == pytest.approx(1 / 6)
    assert periodized_eval(1, 0.25) == pytest.approx(-0.25)
    with mp.workdps(40):
        v = periodized_eval(2, mp.mpf("2.25"))
        assert abs(v - (mp.mpf(1) / 16 - mp.mpf(1) / 4 + mp.mpf(1) / 6)) < 1e-35


def test_integer_transfer_pointwise_direct_sum():
    F = builtin("quadratic")
    q, k, x = 3, 2, 0.4
    direct = sum(F((x + j) / 9) for j in range(9)) / 9
    assert integer_transfer_pointwise(F, q, k, x) == pytest.approx(direct)


def test_sin_closed_form_matches_direct_sum():
    F = builtin("sin")
    for k in (1, 3, 5):
        n = 2 ** k
        for x in (0.1, 0.5, 0.9):
            direct = math.fsum(math.sin((x + j) / n) for j in range(n)) / n
            assert F.qk_integer_transfer(x, 2, k) == \
                pytest.approx(direct, abs=1e-14)


def test_residual_zero_for_terminating_expansion():
    # B2 is an eigenfunction and its expansion terminates at order 2
    params = GOLDEN

    class B2:
        """x^2 - x + 1/6 over lib: antiderivative, value, first derivative."""

        @staticmethod
        def derivative(lib, order):
            sixth = 1 / 6 if lib is math else lib.mpf(1) / 6
            return [lambda t: t ** 3 / 3 - t * t / 2 + t * sixth,
                    lambda t: t * t - t + sixth,
                    lambda t: 2 * t - 1][order + 1]

    F = B2()
    for k in (2, 4, 6):
        r = integer_base_expansion_residual(F, 2, k, 3, 51)
        assert r < 1e-12


def test_sin_residual_slope():
    F = builtin("sin")
    ks = list(range(6, 15))
    with mp.workdps(60):
        res = [integer_base_expansion_residual(F, 2, k, 3, 41)
               for k in ks]
    slope = fit_slope(ks, res)
    assert slope == pytest.approx(-3 * math.log(2), abs=0.1)


def test_constant_residual_zero():
    F = builtin("psi1")
    for q, k, N in ((2, 3, 1), (3, 2, 4)):
        assert integer_base_expansion_residual(F, q, k, N, 21) < 1e-14


@pytest.mark.parametrize("grid", [0, -3])
def test_residual_over_an_empty_grid_is_refused(grid):
    # the sup over no points is no bound at all, so it is not returned as 0.0
    with pytest.raises(ValueError, match="grid must be >= 1, got %d" % grid):
        integer_base_expansion_residual(builtin("sin"), 2, 6, 3, grid)


def test_polynomial_residuals_are_exact_at_working_precision():
    # the expansion of a polynomial ends, so the residual is exactly 0; a
    # double-precision evaluation of F would leave about 2e-16, and at q = 3
    # and 5 the 60-digit sums leave about 1e-61, rounding noise read as 0
    F = builtin("cubic")
    with mp.workdps(60):
        residuals = [integer_base_expansion_residual(F, 2, k, 4, 41) for k in (4, 8, 12)]
        residuals += [integer_base_expansion_residual(F, q, k, 4, 5)
                      for q, k in ((3, 1), (3, 5), (5, 2))]
    assert residuals == [0.0] * 6


CATALOG = ["psi1", "psi3", "linear", "quadratic", "cubic", "sin-normalized",
           "exp-normalized", "sin"]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_mp_forms_keep_working_precision(name):
    F = builtin(name)
    with mp.workdps(50):
        x = mp.mpf(1) / 3
        f = F.derivative(mp, 0)
        assert abs(f(x) - F(float(x))) < 1e-15
        for order in range(4):
            ref = mp.diff(f, x, order)
            assert abs(F.derivative(mp, order)(x) - ref) < mp.mpf(10) ** -40
        anti = F.derivative(mp, -1)
        assert abs(anti(x) - anti(mp.mpf(0)) - mp.quad(f, [0, x])) < mp.mpf(10) ** -40


def test_catalog_float_forms_are_bit_identical():
    # SHA-256 over every entry's float value, derivative orders 0..6 and
    # antiderivative at fixed points, plus its value on an array (or the
    # marker b"scalar" where it does not vectorise); recorded when each
    # entry carried a separate callable per form
    xs = [i / 1000 for i in range(1001)] + [-0.75, 1.5, math.pi / 7, 2.0 ** -30]
    h = hashlib.sha256()
    for name in sorted(CATALOG):
        F = builtin(name)
        h.update(name.encode())
        h.update(struct.pack("<%dd" % len(xs), *map(F, xs)))
        for order in range(-1, 7):
            h.update(struct.pack("<%dd" % len(xs), *map(F.derivative(math, order), xs)))
        try:
            h.update(np.asarray(F(np.array(xs)), dtype=float).tobytes())
        except TypeError:
            h.update(b"scalar")
    assert h.hexdigest() == \
        "bb25b296d811ae3871565b554191595bda85f7a93cbec1005edd105cb9f714ab"


def test_integer_transfer_sums_at_the_working_precision_of_the_call():
    # sum_{j<n} e^((x+j)/n) / (n (e - 1)) = e^(x/n) / (n (e^(1/n) - 1)): the
    # form of F, its constant 1/(e - 1) included, is fetched inside the call
    F = builtin("exp-normalized")
    n = 2 ** 5
    with mp.workdps(50):
        for x in (mp.mpf(1) / 3, mp.mpf(7) / 8):
            exact = mp.exp(x / n) / (n * mp.expm1(mp.mpf(1) / n))
            assert abs(integer_transfer_pointwise(F, 2, 5, x) - exact) < mp.mpf(10) ** -45


def test_integer_transfer_direct_sum_is_budgeted(monkeypatch):
    F = builtin("cubic")
    for q, k in ((2, 17), (3, 11), (2, 10 ** 12)):
        with pytest.raises(BudgetExceeded):
            integer_transfer_pointwise(F, q, k, 0.5)
    # a sum of exactly the budget runs; at a budget of 16 that is 2^4 terms
    monkeypatch.setattr(bernoulli, "MAX_DIRECT_TERMS", 16)
    direct = sum(F((0.5 + j) / 16) for j in range(16)) / 16
    assert integer_transfer_pointwise(F, 2, 4, 0.5) == pytest.approx(direct)
    for q, k in ((2, 5), (17, 1), (3, 3)):
        with pytest.raises(BudgetExceeded):
            integer_transfer_pointwise(F, q, k, 0.5)
