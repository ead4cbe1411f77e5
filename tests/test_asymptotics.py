"""Two-term iteration asymptotics, the epsilon bookkeeping, and slope
fitting; the paper's Euler-Bernoulli reconstruction and decomposition budget
as float oracles."""

import hashlib
import json
import math
from bisect import bisect_right
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betaop import (BetaParams, BudgetExceeded, PiecewisePoly, Polynomial, apply_transfer,
                    bernoulli_coeffs, builtin, epsilon_of, fit_slope, make_psi_basis,
                    make_u_tilde, refine_to_level,
                    two_term_residual_exact, two_term_residual_numeric)
import betaop.asymptotics as asymptotics
import betaop.field as field
import betaop.piecewise as piecewise
from betaop.asymptotics import FIT_SKIP, NOISE_FLOOR_RATIO

GOLDEN = BetaParams(1, 1)
ALL_PARAMS_5 = [BetaParams(a0, a1) for a0 in range(1, 6)
                for a1 in range(1, a0 + 1)]


def test_epsilon_examples():
    tp = epsilon_of(GOLDEN, 7)
    assert tp.epsilon == pytest.approx(1 / 7, abs=1e-12)
    assert tp.N_min_bound == pytest.approx(6.0, abs=1e-12)
    tp2 = epsilon_of(BetaParams(2, 1), 12)
    assert tp2.epsilon == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        epsilon_of(GOLDEN, 6)


def test_epsilon_default_N_is_the_least_admitted():
    # at a1 = 1 the threshold is exactly 6; its float reads 5.999999999999999
    # at (5, 1), where N = 6 is refused by the exact comparison
    for params in ALL_PARAMS_5:
        tp = epsilon_of(params)
        assert tp.epsilon > 0 and tp.N > tp.N_min_bound
        with pytest.raises(ValueError):
            epsilon_of(params, tp.N - 1)
        if params.a1 == 1:
            assert tp.N == 7
    assert epsilon_of(BetaParams(3, 2)).N == 10
    assert epsilon_of(BetaParams(5, 5)).N == 37


def test_epsilon_threshold_is_decided_exactly():
    # the float threshold of (36, 1) reads 5.999999999999999, so a float
    # comparison would admit N = 6 there with an epsilon of about 1e-16
    for a0 in range(1, 60):
        for a1 in range(1, a0 + 1):
            params = BetaParams(a0, a1)
            with pytest.raises(ValueError, match="at or below the threshold"):
                epsilon_of(params, 6)
            if a1 == 1:
                tp = epsilon_of(params)
                assert tp.N == 7 and tp.epsilon == pytest.approx(1 / 7, rel=1e-12)
    # far from the threshold the float comparison decides, with no large power
    with patch.object(field, "_beta_power", wraps=field._beta_power) as power:
        assert epsilon_of(BetaParams(3, 2), 10 ** 6).N == 10 ** 6
    assert all(abs(call.args[1]) <= 1 for call in power.call_args_list)


def test_epsilon_scan_bounds():
    for a0 in range(1, 6):
        for a1 in range(1, a0 + 1):
            params = BetaParams(a0, a1)
            thr = epsilon_of(params, 1000).N_min_bound
            for N in range(int(thr) + 1, int(thr) + 12):
                if N <= thr + 1e-9:  # avoid float fuzz at an integer threshold
                    continue
                tp = epsilon_of(params, N)
                assert 0 < tp.epsilon <= 3.0 / N + 1e-12


def test_exact_residual_is_second_eigenterm():
    for params in (GOLDEN, BetaParams(3, 2)):
        psi1 = make_psi_basis(params, 2)[0]
        u2 = make_u_tilde(params)[1]
        with patch.object(piecewise, "BRACKET_WIDTH", Fraction(1, 128)):
            lo2, up2 = u2.sup_norm_bracket()
        lam = params.a1 / params.beta_float() ** 2
        series = two_term_residual_exact(psi1, 8)
        for k, lo, up in zip(series.ks, series.residual_lower,
                             series.residual_upper):
            assert lo <= lam ** k * up2 * (1 + 1e-12)
            assert up >= lam ** k * lo2 * (1 - 1e-12)


def test_exact_residual_piece_budget(monkeypatch):
    F = builtin("linear").piecewise(GOLDEN)  # 2 pieces after one step
    monkeypatch.setattr(asymptotics, "PIECE_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        two_term_residual_exact(F, 3)


def test_residual_columns_are_packed_doubles():
    # 8 bytes a magnitude, where a list of floats takes 40: a caller that keeps
    # many series (the benchmark keeps every result) keeps a quarter the memory
    F = builtin("cubic")
    for series in (two_term_residual_exact(F.piecewise(GOLDEN), 6),
                   two_term_residual_numeric(F, GOLDEN, range(1, 7))):
        for column in (series.residual_lower, series.residual_upper):
            assert column.typecode == "d" and len(column) == len(series.ks) == 6


@st.composite
def level_splines(draw):
    """Splines of degree <= 2 with rational coefficients on the level-M
    partition, M <= 2: P maps them to splines of level M - 1, so their
    iterates keep few pieces."""
    params = draw(st.sampled_from(ALL_PARAMS_5))
    points = refine_to_level(params, draw(st.integers(1, 2))).points
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    pcs = [Polynomial.from_rationals(draw(st.lists(coeff, max_size=3)), params)
           for _ in points[1:]]
    return PiecewisePoly(params, points, pcs)


@settings(deadline=None, max_examples=40)
@given(level_splines(), st.integers(1, 12), st.sampled_from([1, 2]))
def test_residual_series_matches_the_two_term_formula(F, k_max, terms):
    # oracle: P^k F - u1*integral(F) + beta^-k u3 (F(0)-F(1))/4 from the
    # iterates of F, against the residual iterated by itself
    params = F.params
    u1, _, u3 = make_u_tilde(params)
    base = u1.scaled(-F.integrate())
    f0, f1 = F.boundary_values()
    c = (f0 - f1) * Fraction(1, 4) if terms == 2 else params.zero()
    series = two_term_residual_exact(F, k_max, terms)
    assert series.ks == list(range(1, k_max + 1))
    resid, cur = F + base + u3.scaled(c), F
    for k in series.ks:
        cur, resid = apply_transfer(cur), apply_transfer(resid)
        want = cur + base + u3.scaled(c * params.power(-k))
        assert resid.equal_ae(want)
        assert (series.residual_lower[k - 1], series.residual_upper[k - 1]) == \
            want.sup_norm_bracket()


def test_invariant_density_residual_vanishes():
    u1 = make_u_tilde(GOLDEN)[0]
    series = two_term_residual_exact(u1, 6, terms=1)
    assert max(series.residual_upper) < 1e-13


def test_numeric_residual_matches_prediction():
    F = builtin("psi1")
    u2 = make_u_tilde(GOLDEN)[1]
    xs = np.array([(2 * i + 1) / 202.0 for i in range(101)])
    grid_sup = float(np.abs(u2.eval_float(xs)).max())
    lam = 1 / GOLDEN.beta_float() ** 2
    series = two_term_residual_numeric(F, GOLDEN, range(1, 9))
    for k, lo in zip(series.ks, series.residual_lower):
        assert lo == pytest.approx(lam ** k * grid_sup, abs=1e-10)
    # a grid sup bounds nothing from above
    assert all(math.isnan(up) for up in series.residual_upper)


def test_two_term_slopes_golden():
    b = GOLDEN.beta_float()
    target = -(1 + epsilon_of(GOLDEN, 7).epsilon) * math.log(b)
    for name in ("linear", "quadratic"):
        F = builtin(name).piecewise(GOLDEN)
        series = two_term_residual_exact(F, 16)
        assert series.fitted_slope <= target + 0.05
    one_term = two_term_residual_exact(builtin("linear").piecewise(GOLDEN),
                                       16, terms=1)
    assert one_term.fitted_slope == pytest.approx(-math.log(b), abs=0.05)


def test_two_term_slope_numeric_smooth():
    F = builtin("exp-normalized")
    series = two_term_residual_numeric(F, GOLDEN, range(1, 19))
    b = GOLDEN.beta_float()
    target = -(8 / 7) * math.log(b)
    assert series.fitted_slope <= target + 0.05


def eb_expansion(F, a, b, N):
    """The order-N Euler-Bernoulli expansion of F over the float interval
    [a, b]: the mean of F, the jumps F^(s-1)(b) - F^(s-1)(a) for s = 1..N, and
    the expansion less its integral remainder as a function of y,
    mean + sum_s h^(s-1) jump_s B_s((y - a)/h) / s! with h = b - a."""
    h, anti = b - a, F.derivative(math, -1)
    mean = (anti(b) - anti(a)) / h
    jumps = [d(b) - d(a) for d in (F.derivative(math, s) for s in range(N))]

    def periodized(s, t):  # B_s(t - floor(t)) in floats
        coeffs = [c.numerator / c.denominator for c in bernoulli_coeffs(s)]
        return piecewise.horner(coeffs, t - math.floor(t))

    def reconstruct(y):
        acc = mean
        for s, jump in enumerate(jumps, start=1):
            acc += h ** (s - 1) * jump * periodized(s, (y - a) / h) / math.factorial(s)
        return acc
    return mean, jumps, reconstruct


def test_eb_expansion_exact_cases():
    # order 1 gives 2x, order 3 gives 3x^2 (the B_2 term ends it); a
    # constant has no jumps
    mean, jumps, lin = eb_expansion(builtin("linear"), 0.0, 1.0, 1)
    assert mean == pytest.approx(1.0) and jumps == [pytest.approx(2.0)]
    assert all(lin(y) == pytest.approx(2 * y, abs=1e-13) for y in (0.125, 0.5, 0.875))
    quad = eb_expansion(builtin("quadratic"), 0.0, 1.0, 3)[2]
    assert all(quad(y) == pytest.approx(3 * y * y, abs=1e-12) for y in (0.1, 0.37, 0.77))
    _, jumps, const = eb_expansion(builtin("psi1"), 0.0, 1.0, 4)
    assert jumps == [pytest.approx(0.0)] * 4 and const(0.3) == pytest.approx(1.0)


def test_eb_expansion_on_subinterval():
    sub = eb_expansion(builtin("linear"), float(BetaParams(2, 1).power(-1)), 1.0, 2)[2]
    assert all(sub(y) == pytest.approx(2 * y, abs=1e-12) for y in (0.5, 0.7, 0.9))


def test_eb_error_bound_smooth():
    # the remainder is at most sup|F^(N)| sup|B_N| / N!
    ts = np.linspace(0, 1, 1001)
    for name, N in (("sin", 3), ("exp-normalized", 4)):
        F = builtin(name)
        reconstruct = eb_expansion(F, 0.0, 1.0, N)[2]
        bn_max = max(abs(np.polyval([float(c) for c in reversed(bernoulli_coeffs(N))], ts)))
        sup_dn = max(abs(F.derivative(math, N)(t)) for t in ts)
        worst = max(abs(F(y) - reconstruct(y)) for y in np.linspace(0.001, 0.999, 997))
        assert worst <= sup_dn * bn_max / math.factorial(N) * 1.000001


GRID = [(2 * i + 1) / 2002 for i in range(1001)]


def level_reconstruction_error(F, params, M, N):
    """Sup over GRID of |F - its order-N Euler-Bernoulli expansions|, one on
    each gap of the level-M partition."""
    gaps = refine_to_level(params, M).gaps
    lefts = [float(g.value) for g in gaps]
    parts = [eb_expansion(F, a, float(g.right_endpoint()), N)[2] for a, g in zip(lefts, gaps)]
    return max(abs(F(x) - parts[bisect_right(lefts, x) - 1](x)) for x in GRID)


def test_hor13_exact_cases():
    assert level_reconstruction_error(builtin("psi1"), GOLDEN, 2, 1) < 1e-13
    assert level_reconstruction_error(builtin("linear"), GOLDEN, 2, 2) < 1e-12


def test_hor13_level_scaling():
    # the error is C beta^-MN sup|F^(N)| with C < 100, so one level more
    # divides it by about beta^N
    F, N, b = builtin("exp-normalized"), 4, GOLDEN.beta_float()
    sup_dn = max(abs(F.derivative(math, N)(x)) for x in GRID)
    err2, err3 = (level_reconstruction_error(F, GOLDEN, M, N) for M in (2, 3))
    assert err2 / (b ** (-2 * N) * sup_dn) < 100 and err3 / (b ** (-3 * N) * sup_dn) < 100
    assert b ** -N / 3 < err3 / err2 < b ** -N * 3


def test_lemmaPk_decomposition():
    # the residual at k = 10 is within 100 times the largest error scale of
    # the level M = 3, order N = 7 decomposition
    k, M, N, b = 10, 3, 7, GOLDEN.beta_float()
    scales = ((GOLDEN.a1 / b ** 2) ** (k - M), b ** (-(k + M)), b ** (k - M * N))
    for F in (make_psi_basis(GOLDEN, 2)[2], make_u_tilde(GOLDEN)[0]):
        assert two_term_residual_exact(F, k).residual_upper[-1] <= 100 * max(scales)


def test_fit_slope_noise_floor():
    ks = list(range(1, 31))
    vals = [math.exp(-k) if k <= 20 else 1e-22 for k in ks]
    slope = fit_slope(ks, vals)
    assert slope == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_slope([1, 2, 3], [1.0, 0.5, 0.25])  # all k <= FIT_SKIP


def numpy_slope(ks, values):
    """np.polyfit over the points that fit_slope keeps; None if they are
    fewer than two."""
    ks, values = np.asarray(ks, dtype=float), np.asarray(values, dtype=float)
    mask = (ks > FIT_SKIP) & (values > NOISE_FLOOR_RATIO * values[0]) & (values > 0)
    if mask.sum() < 2:
        return None
    return float(np.polyfit(ks[mask], np.log(values[mask]), 1)[0])


def iteration_digest(params, k_max=40):
    """SHA-256 over the exact iterates P^k F, k <= k_max, F cubic."""
    cur = builtin("cubic").piecewise(params)
    h = hashlib.sha256()
    for _ in range(k_max):
        cur = apply_transfer(cur)
        h.update(json.dumps(cur.to_json_dict(), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("a0, a1, digest", [
    (1, 1, "6ed80bc6f1ac004fbf55e3f57dc95188181b7a2c7d7fc8d7b62496094c904aa1"),
    (5, 5, "b91e268ab663fb5c43e64a4fe7d164d41bb0a697ae6c59b63a6aef6e9f5625ea"),
], ids=["1-1", "5-5"])
def test_iterates_are_bit_identical(a0, a1, digest):
    # recorded before the brackets became exact; any changed bit of an iterate
    # changes the digest
    assert iteration_digest(BetaParams(a0, a1)) == digest


def _value(coeffs, x):
    acc = x.params.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def positive_on(coeffs, a, b) -> bool:
    """True iff the polynomial with QuadNum coefficients (ascending) is > 0
    on [a, b], decided exactly: it is > 0 at a and b, and its Sturm sequence
    counts no root between them."""
    if _value(coeffs, a).sign() <= 0 or _value(coeffs, b).sign() <= 0:
        return False
    chain = [list(coeffs), [c * i for i, c in enumerate(coeffs)][1:]]
    while chain[-1]:
        r, q = list(chain[-2]), chain[-1]
        while len(r) >= len(q):  # r <- r mod q; each pass clears the top term
            f, shift = r[-1] / q[-1], len(r) - len(q)
            for i, c in enumerate(q[:-1]):
                r[shift + i] = r[shift + i] - f * c
            r.pop()
        while r and r[-1].is_zero():
            r.pop()
        chain.append([-c for c in r])

    def changes(x):
        signs = [s for s in (_value(p, x).sign() for p in chain[:-1]) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return changes(a) == changes(b)


def residuals(F, k_max):
    """The two-term residuals R_1, ..., R_k_max of F, iterated exactly."""
    u1, _, u3 = make_u_tilde(F.params)
    f0, f1 = F.boundary_values()
    resid = F + u1.scaled(-F.integrate()) + u3.scaled((f0 - f1) * Fraction(1, 4))
    for _ in range(k_max):
        resid = apply_transfer(resid)
        yield resid


def bracket_holds_the_sup(f, lo, up) -> bool:
    """lower <= sup|f| < upper, decided exactly piece by piece: sup|f| < c iff
    c - p and c + p are positive on every piece p."""
    def below(c):
        c = f.params.rational(Fraction(c))
        return all(positive_on([c - p.coeffs[0], *(-x for x in p.coeffs[1:])], a, b)
                   and positive_on([c + p.coeffs[0], *p.coeffs[1:]], a, b)
                   if p.coeffs else c.sign() > 0
                   for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces))
    return not below(lo) and below(up)


@pytest.mark.parametrize("a0, a1", [(1, 1), (5, 5)], ids=["1-1", "5-5"])
def test_residual_brackets_hold_the_exact_sup(a0, a1):
    # the two-term residuals R_k of the cubic, k <= 40, pieces of degree 3;
    # the fitted slope is a least-squares fit, checked against np.polyfit
    F = builtin("cubic").piecewise(BetaParams(a0, a1))
    series = two_term_residual_exact(F, 40)
    for resid, lo, up in zip(residuals(F, 40), series.residual_lower, series.residual_upper):
        assert bracket_holds_the_sup(resid, lo, up)
    assert series.fitted_slope == pytest.approx(
        numpy_slope(series.ks, series.residual_upper), rel=1e-12)


def test_linear_residual_brackets_hold_the_exact_sup():
    # the 640 two-term residuals of linear F, k <= 160, are piecewise linear,
    # so their sup is the largest one-sided end value, compared exactly; the
    # float-sampled bracket this replaced missed it 562 times
    count = 0
    for params in (GOLDEN, BetaParams(2, 1), BetaParams(3, 2), BetaParams(5, 5)):
        for resid in residuals(builtin("linear").piecewise(params), 160):
            ends = [p.eval(x) for a, b, p in zip(resid.breakpoints, resid.breakpoints[1:],
                                                 resid.pieces) for x in (a, b)]
            sup = max(v if v.sign() >= 0 else -v for v in ends)
            lo, up = resid.sup_norm_bracket()
            assert params.rational(Fraction(lo)) <= sup <= params.rational(Fraction(up))
            assert up > 0.0
            count += 1
    assert count == 640


def test_upper_bound_of_a_nonzero_residual_is_never_zero():
    # from k = 387 the residuals lie below the float range; the sampled bracket
    # read an upper bound of 0.0 there 14 times, the lower bound still does
    series = two_term_residual_exact(builtin("linear").piecewise(BetaParams(5, 5)), 400)
    assert min(series.residual_upper) == 5e-324 and series.residual_lower.count(0.0) == 14


@pytest.mark.parametrize("a0, a1, c, pre, p", [
    (1, 1, Fraction(1, 3), 0, 8), (2, 1, Fraction(1, 3), 0, 8),
    (3, 2, Fraction(1, 3), 0, 4), (5, 5, Fraction(3, 10), 2, 3),
], ids=["1-1", "2-1", "3-2", "5-5"])
def test_a_jump_has_a_periodic_limit(a0, a1, c, pre, p):
    # F = 1 on [c, 1] breaks the expansion: beta^k R_k tends to a cycle of
    # period p, that of c's greedy orbit, from its pre-period on. Exactly, the
    # step D_k = beta^(k+p) R_(k+p) - beta^k R_k is a non-zero multiple of u2,
    # so beta P maps it to (-a1/beta) D_k
    params = BetaParams(a0, a1)
    u1, u2, u3 = make_u_tilde(params)
    F = PiecewisePoly(params, [params.zero(), params.rational(c), params.one()],
                      [Polynomial.zero(params), Polynomial.from_rationals([1], params)])
    R = [F + u1.scaled(-F.integrate()) + u3.scaled(Fraction(-1, 4))]
    while len(R) < 35 + p:
        R.append(apply_transfer(R[-1]))
    assert all(len(r.pieces) == 3 for r in R)
    D = [R[k + p].scaled(params.power(k + p)) - R[k].scaled(params.power(k))
         for k in range(35)]
    assert not D[pre].is_zero()
    for k in range(pre, 34):
        assert D[k + 1].equal_ae(D[k].scaled(-a1 * params.power(-1)))
        ratio = D[k].boundary_values()[0] / u2.boundary_values()[0]
        assert D[k].equal_ae(u2.scaled(ratio))


@pytest.mark.parametrize("a0, a1", [(1, 1), (3, 2), (5, 5)])
def test_a_kink_decays_at_the_next_eigenvalue(a0, a1):
    # F = |x - 1/2| is continuous, so the two-term residual decays like
    # (a1/beta^2)^k; measured within 0.005 of that rate. (2, 1) and (3, 1)
    # read 0.08 and -0.14 off it at k_max = 40, and no rate is asserted there
    params = BetaParams(a0, a1)
    half = params.rational(Fraction(1, 2))
    F = PiecewisePoly(params, [params.zero(), half, params.one()],
                      [Polynomial.from_rationals([Fraction(1, 2), -1], params),
                       Polynomial.from_rationals([Fraction(-1, 2), 1], params)])
    slope = two_term_residual_exact(F, 40).fitted_slope
    assert abs(slope - math.log(a1 / params.beta_float() ** 2)) <= 0.05


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=60), st.floats(-3, 0),
       st.integers(0, 10))
def test_fit_slope_matches_polyfit(noise, slope, start):
    ks = list(range(start, start + len(noise)))
    values = [math.exp(slope * k + 0.01 * e) for k, e in zip(ks, noise)]
    want = numpy_slope(ks, values)
    if want is None:
        with pytest.raises(ValueError, match="not enough usable points"):
            fit_slope(ks, values)
    else:
        assert fit_slope(ks, values) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_fit_slope_needs_two_points():
    for ks in ([], [7]):
        with pytest.raises(ValueError, match="at least two points"):
            fit_slope(ks, [1.0] * len(ks))
