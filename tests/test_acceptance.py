"""Acceptance suite: ten end-to-end criteria, each printing one PASS/FAIL
line with its runtime. Tolerances are zero wherever the underlying check is
exact; fitted-rate checks use the stated windows."""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from betaop import (BetaParams, PiecewisePoly, Polynomial, QuadNum,
                    apply_integer_transfer, apply_transfer,
                    apply_transfer_iterate, bernoulli_piecewise, builtin,
                    epsilon_of, greedy_expand, intermediate_check,
                    lemmacrux_check, make_psi_basis, make_u_tilde,
                    block_eigenvalues,
                    expand_in_basis, pointwise_transfer_power,
                    refine_to_level, restriction_matrix, riesz_projections,
                    two_term_residual_exact, two_term_residual_numeric)
from betaop.spectral import mat_equal, mat_mul, mat_scale

GOLDEN = BetaParams(1, 1)
ALL_PARAMS_5 = [BetaParams(a0, a1) for a0 in range(1, 6)
                for a1 in range(1, a0 + 1)]


def report(number: int, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    print("ACCEPTANCE %d: %s (%.2fs%s)" % (
        number, "PASS" if ok else "FAIL", elapsed,
        ", " + detail if detail else ""), flush=True)
    assert ok
    assert elapsed < budget, "runtime budget exceeded: %.2fs" % elapsed


def test_criterion_1_exact_eigenrelations():
    started = time.perf_counter()
    ok = True
    for params in ALL_PARAMS_5:
        u1, u2, u3 = make_u_tilde(params)
        binv = params.beta().inverse()
        lam2 = -(binv ** 2) * params.a1
        ok &= apply_transfer(u1).equal_ae(u1)
        ok &= apply_transfer(u2).equal_ae(u2.scaled(lam2))
        ok &= apply_transfer(u3).equal_ae(u3.scaled(binv))
        ok &= (u1.integrate() - 1).is_zero()
        ok &= u2.integrate().is_zero()
        ok &= u3.integrate().is_zero()
    report(1, ok, started, 5.0, "15 parameter pairs, exact")


def test_criterion_2_restriction_matrix_and_spectrum():
    started = time.perf_counter()
    ok = True
    for params in ALL_PARAMS_5:
        beta = params.beta()
        binv = beta.inverse()
        a0, a1 = params.a0, params.a1
        z = params.zero()
        display = [
            [binv * a0, params.one(), -(binv ** 3) * (2 * a0 * a1), z],
            [binv ** 2 * a1, z, (binv ** 3) * (2 * a0 * a1), z],
            [z, z, binv ** 2 * a0, params.rational(Fraction(1, a1))],
            [z, z, binv ** 4 * a1 * a1, z],
        ]
        basis = make_psi_basis(params, 2)
        m4 = restriction_matrix(basis)
        ok &= mat_equal(m4, display)
        # the closed-form eigenvalues annihilate the characteristic polynomial
        # of each diagonal block of the computed nu=4 matrix
        m8 = restriction_matrix(make_psi_basis(params, 4))
        eigs = block_eigenvalues(params, 4)
        for k in range(1, 5):
            r = 2 * (k - 1)
            (t00, t01), (t10, t11) = (row[r:r + 2] for row in m8[r:r + 2])
            tr = t00 + t11
            det = t00 * t11 - t01 * t10
            for lam in eigs[r:r + 2]:
                ok &= (lam * lam - tr * lam + det).is_zero()
        # projection algebra and designated columns
        data = riesz_projections(params)
        projs = data.projections
        zero4 = mat_scale(projs[0], z)
        for i, pi in enumerate(projs):
            lam = data.eigenvalues[i]
            ok &= mat_equal(mat_mul(pi, pi), pi)
            ok &= mat_equal(mat_mul(m4, pi), mat_scale(pi, lam))
            ok &= mat_equal(mat_mul(pi, m4), mat_scale(pi, lam))
            for j, pj in enumerate(projs):
                if i != j:
                    ok &= mat_equal(mat_mul(pi, pj), zero4)
        u1, u2, u3 = data.u_tilde
        c1 = expand_in_basis(u1, basis)
        c2 = expand_in_basis(u2, basis)
        c3 = expand_in_basis(u3, basis)
        pi1, pi2, pi3, _ = projs
        ok &= all((pi1[i][0] - c1[i]).is_zero() for i in range(4))
        ok &= all((pi2[i][0] - c2[i]).is_zero() for i in range(2))
        ok &= all((pi3[i][2] - c3[i]).is_zero() for i in range(4))
    report(2, ok, started, 5.0, "display + algebra exact, 15 pairs")


def test_criterion_3_counterexample_identity():
    started = time.perf_counter()
    ok = True
    for params in ALL_PARAMS_5:
        psi1 = make_psi_basis(params, 2)[0]
        u1, u2, _ = make_u_tilde(params)
        lam = -(params.beta().inverse() ** 2) * params.a1
        cur = psi1
        lam_k = params.one()
        for k in range(1, 41):
            cur = apply_transfer(cur)
            lam_k = lam_k * lam
            ok &= cur.equal_ae(u1 + u2.scaled(lam_k))
    report(3, ok, started, 10.0, "k <= 40, 15 pairs, exact")


def test_criterion_4_lemmacrux():
    started = time.perf_counter()
    ok = True
    for a0 in range(1, 4):
        for a1 in range(1, a0 + 1):
            params = BetaParams(a0, a1)
            for M in range(1, 6):
                ok &= lemmacrux_check(params, M, 3).passed
            for s in range(4):
                ok &= intermediate_check(params, s)
    report(4, ok, started, 60.0, "M <= 5, s <= 3, a0 <= 3, exact")


def test_criterion_5_partition_law():
    started = time.perf_counter()
    ok = True
    for a0 in range(1, 4):
        for a1 in range(1, a0 + 1):
            params = BetaParams(a0, a1)
            binv = params.beta().inverse()
            for M in range(1, 9):
                part = refine_to_level(params, M)
                lengths = {M: binv ** M, M + 1: binv ** (M + 1)}
                prev = params.zero()
                for gap in part.gaps:
                    ok &= gap.depth in (M, M + 1)
                    ok &= (gap.value - prev).is_zero()
                    prev = gap.value + lengths[gap.depth]
                ok &= (prev - 1).is_zero()
    report(5, ok, started, 10.0, "M <= 8, a0 <= 3, gaps tile [0,1] exactly")


def test_criterion_6_integer_base():
    started = time.perf_counter()
    ok = True
    for q in (2, 3, 4):
        for n in range(7):
            f = bernoulli_piecewise(GOLDEN, n)
            ok &= apply_integer_transfer(f, q).equal_ae(
                f.scaled(Fraction(1, q ** n)))
    from betaop import fit_slope, integer_base_expansion_residual
    F = builtin("sin")
    ks = list(range(6, 15))
    with mp.workdps(60):
        res = [integer_base_expansion_residual(F, 2, k, 3, 41)
               for k in ks]
    slope = fit_slope(ks, res)
    ok &= abs(slope - (-3 * math.log(2))) <= 0.1
    report(6, ok, started, 60.0, "QB_n exact; sin slope %.4f vs %.4f" % (
        slope, -3 * math.log(2)))


def test_criterion_7_theorem_rate():
    started = time.perf_counter()
    b = GOLDEN.beta_float()
    eps = epsilon_of(GOLDEN, 7).epsilon
    assert eps == pytest.approx(1 / 7, abs=1e-12)
    bound = -(1 + eps) * math.log(b) + 0.05
    slopes = []
    for name in ("linear", "quadratic"):
        F = builtin(name).piecewise(GOLDEN)
        series = two_term_residual_exact(F, 18)
        slopes.append(series.fitted_slope)
    series = two_term_residual_numeric(builtin("exp-normalized"), GOLDEN,
                                       range(1, 19))
    slopes.append(series.fitted_slope)
    ok = all(s <= bound for s in slopes)
    one_term = two_term_residual_exact(builtin("linear").piecewise(GOLDEN),
                                       18, terms=1)
    ok &= abs(one_term.fitted_slope - (-math.log(b))) <= 0.05
    report(7, ok, started, 300.0,
           "slopes %s <= %.3f; one-term %.4f" % (
               ["%.4f" % s for s in slopes], bound, one_term.fitted_slope))


def test_criterion_8_markov_properties():
    started = time.perf_counter()
    rng = random.Random(20260823)
    ok = True
    for _ in range(1000):
        params = rng.choice(ALL_PARAMS_5)
        cuts = sorted({Fraction(rng.randint(1, 99), 100)
                       for _ in range(rng.randint(0, 3))})
        bps = ([params.zero()] + [params.rational(c) for c in cuts]
               + [params.one()])
        pcs = [Polynomial.from_rationals(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 6))
             for _ in range(rng.randint(1, 3))], params)
            for _ in range(len(bps) - 1)]
        f = PiecewisePoly(params, bps, pcs)
        g = apply_transfer(f)
        ok &= (g.integrate() - f.integrate()).is_zero()
        # certified direction of the sup bound ||Pf|| <= ((a0+1)/beta)||f||,
        # decided exactly in Q(beta) on the bracket's floats
        lo_pf, _ = g.sup_norm_bracket()
        _, up_f = f.sup_norm_bracket()
        ok &= params.rational(Fraction(lo_pf)) * params.beta() <= (params.a0 + 1) * Fraction(up_f)
    report(8, ok, started, 30.0, "10^3 random functions")


def test_criterion_9_engine_cross_validation():
    started = time.perf_counter()
    xs = np.array([(2 * i + 1) / 202.0 for i in range(101)])
    worst = 0.0
    for params, k_max in ((GOLDEN, 12), (BetaParams(2, 1), 10),
                          (BetaParams(3, 2), 9)):
        for name in ("psi1", "linear", "quadratic", "cubic"):
            F = builtin(name)
            exact = apply_transfer_iterate(F.piecewise(params), 0)
            for k in range(1, k_max + 1):
                exact = apply_transfer(exact)
                got = pointwise_transfer_power(F, params, k, xs)
                worst = max(worst,
                            float(np.abs(exact.eval_float(xs) - got).max()))
    ok = worst < 1e-12
    report(9, ok, started, 60.0, "max discrepancy %.2e" % worst)


def test_criterion_10_greedy_expansion():
    started = time.perf_counter()
    rng = random.Random(424242)
    ok = True
    binv30 = {p: p.beta().inverse() ** 30 for p in ALL_PARAMS_5}
    for _ in range(100):
        params = rng.choice(ALL_PARAMS_5)
        x = QuadNum(Fraction(rng.randint(-20, 20), rng.randint(1, 17)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 17)),
                    params)
        x = x - x.floor()
        g = greedy_expand(x, 30)
        ok &= all(0 <= d <= params.a0 for d in g.digits)
        ok &= all(o.sign() >= 0 and (o - 1).sign() < 0 for o in g.orbit)
        err = x - g.partial_sum()
        ok &= err.sign() >= 0 and (err - binv30[params]).sign() < 0
    report(10, ok, started, 10.0, "100 random points, k = 30, exact")
