"""Transfer/Koopman/integer-base operators, conservation and contraction,
pointwise preimage engine, greedy digit expansions."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betaop import (BetaParams, PiecewisePoly, Polynomial, QuadNum,
                    apply_integer_transfer, apply_koopman, apply_transfer,
                    apply_transfer_iterate, bernoulli_piecewise, builtin,
                    building_block, greedy_expand, make_psi_basis, make_u_tilde,
                    pointwise_transfer_power, refine_to_level, BudgetExceeded)

GOLDEN = BetaParams(1, 1)
ALL_PARAMS_5 = [BetaParams(a0, a1) for a0 in range(1, 6)
                for a1 in range(1, a0 + 1)]


def random_rational_pw(rng, params):
    cuts = sorted({Fraction(rng.randint(1, 99), 100)
                   for _ in range(rng.randint(0, 3))})
    bps = [params.zero()] + [params.rational(c) for c in cuts] + [params.one()]
    pcs = [Polynomial.from_rationals(
        [Fraction(rng.randint(-8, 8), rng.randint(1, 6))
         for _ in range(rng.randint(1, 3))], params)
        for _ in range(len(bps) - 1)]
    return PiecewisePoly(params, bps, pcs)


def test_transfer_on_psi_displays():
    for params in ALL_PARAMS_5:
        psi1, psi2, psi3, psi4 = make_psi_basis(params, 2).functions
        beta = params.beta()
        binv = beta.inverse()
        assert apply_transfer(psi2).equal_ae(psi1)
        expect = psi1.scaled(binv * params.a0) + psi2.scaled(binv ** 2 * params.a1)
        assert apply_transfer(psi1).equal_ae(expect)
        assert apply_transfer(psi4).equal_ae(psi3.scaled(Fraction(1, params.a1)))


def test_iterate_identity_and_u3():
    u1, u2, u3 = make_u_tilde(GOLDEN)
    assert apply_transfer_iterate(u3, 0).equal_ae(u3)
    binv = GOLDEN.beta().inverse()
    assert apply_transfer_iterate(u3, 2).equal_ae(u3.scaled(binv ** 2))


def test_conservation_random():
    rng = random.Random(1234)
    for _ in range(300):
        params = rng.choice(ALL_PARAMS_5)
        f = random_rational_pw(rng, params)
        assert (apply_transfer(f).integrate() - f.integrate()).is_zero()


def test_positivity_and_domination():
    rng = random.Random(88)
    xs = np.linspace(0, 1, 301)
    for _ in range(30):
        params = rng.choice(ALL_PARAMS_5)
        f = random_rational_pw(rng, params)
        g = apply_transfer(f)
        # |P f| <= P |f| is hard exactly; check positivity preservation:
        sq = f * f
        vals = apply_transfer(sq).eval_float(xs)
        assert vals.min() > -1e-12


def test_sup_norm_contraction_bound():
    rng = random.Random(2718)
    for _ in range(60):
        params = rng.choice(ALL_PARAMS_5)
        f = random_rational_pw(rng, params)
        bound = (params.a0 + 1) / params.beta_float()
        lo_pf, _ = apply_transfer(f).sup_norm_bracket()
        _, up_f = f.sup_norm_bracket()
        # certified direction: lower(Pf) <= ||Pf|| <= bound*||f|| <= bound*upper(f)
        assert lo_pf <= bound * up_f + 1e-12


def test_duality_on_psi_pairs():
    for params in (GOLDEN, BetaParams(2, 1), BetaParams(3, 2)):
        funcs = make_psi_basis(params, 2).functions
        for f in funcs:
            for g in funcs:
                lhs = (apply_transfer(f) * g).integrate()
                rhs = (f * apply_koopman(g)).integrate()
                assert (lhs - rhs).is_zero()


def test_koopman_is_composition():
    params = BetaParams(2, 1)
    beta_f = params.beta_float()
    g = make_psi_basis(params, 2).functions[2]
    kg = apply_koopman(g)
    xs = np.array([0.05, 0.2, 0.33, 0.41, 0.55, 0.72, 0.9])
    direct = g.eval_float(beta_f * xs - np.floor(beta_f * xs))
    assert np.allclose(kg.eval_float(xs), direct, atol=1e-12)


def test_integer_transfer_eigenrelations():
    params = GOLDEN
    chi = PiecewisePoly.from_polynomial(Polynomial.constant(params.one()))
    assert apply_integer_transfer(chi, 3).equal_ae(chi)
    for q in (2, 3, 4):
        for n in range(7):
            f = bernoulli_piecewise(params, n)
            assert apply_integer_transfer(f, q).equal_ae(
                f.scaled(Fraction(1, q ** n)))


def test_integer_transfer_rejects_irrational():
    u1 = make_u_tilde(GOLDEN)[0]
    with pytest.raises(ValueError):
        apply_integer_transfer(u1, 2)


def test_pointwise_matches_exact_engine():
    xs = np.array([(2 * i + 1) / 202.0 for i in range(101)])
    for params, kmax in ((GOLDEN, 12), (BetaParams(2, 1), 10),
                         (BetaParams(3, 2), 9)):
        for name in ("psi1", "linear", "quadratic"):
            F = builtin(name)
            exact = F.piecewise(params)
            for k in (1, kmax // 2, kmax):
                exact_k = apply_transfer_iterate(exact, k)
                got = pointwise_transfer_power(F, params, k, xs)
                assert np.abs(exact_k.eval_float(xs) - got).max() < 1e-12


def test_pointwise_scalar_and_k0():
    F = builtin("linear")
    assert pointwise_transfer_power(F, GOLDEN, 0, 0.25) == pytest.approx(0.5)
    x = GOLDEN.rational(Fraction(1, 4))
    exact5 = apply_transfer_iterate(F.piecewise(GOLDEN), 5)
    got = pointwise_transfer_power(F, GOLDEN, 5, x)
    assert got == pytest.approx(float(exact5.eval(x)), abs=1e-12)


def test_pointwise_budget():
    F = builtin("psi1")
    with pytest.raises(BudgetExceeded):
        pointwise_transfer_power(F, BetaParams(5, 5), 20,
                                 np.linspace(0, 1, 101), node_budget=10 ** 4)


def test_greedy_examples():
    g0 = greedy_expand(GOLDEN.zero(), 5)
    assert g0.digits == [0] * 5
    half = GOLDEN.rational(Fraction(1, 2))
    gh = greedy_expand(half, 4)
    assert gh.digits[:2] == [0, 1]
    # a0=2, a1=1: x = 1/beta gives beta*x = 1 exactly
    p21 = BetaParams(2, 1)
    gb = greedy_expand(p21.beta().inverse(), 3)
    assert gb.digits == [1, 0, 0]
    assert gb.orbit[1].is_zero()


def test_greedy_reconstruction_random():
    rng = random.Random(90210)
    binv30 = {}
    for _ in range(100):
        params = rng.choice(ALL_PARAMS_5)
        x = QuadNum(Fraction(rng.randint(-20, 20), rng.randint(1, 17)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 17)), params)
        x = x - x.floor()  # reduce into [0,1)
        g = greedy_expand(x, 30)
        assert all(0 <= d <= params.a0 for d in g.digits)
        for step, o in enumerate(g.orbit):
            assert o.sign() >= 0 and (o - 1).sign() < 0
        err = x - g.partial_sum()
        if params not in binv30:
            binv30[params] = params.beta().inverse() ** 30
        assert err.sign() >= 0
        assert (err - binv30[params]).sign() < 0


def test_greedy_rejects_out_of_range():
    with pytest.raises(ValueError):
        greedy_expand(GOLDEN.one(), 3)


def left_limit(f, x):
    """lim_{y -> x-} f(y): the piece whose interval ends at or beyond x."""
    idx = max(i for i, b in enumerate(f.breakpoints[:-1]) if (x - b).sign() > 0)
    return f.pieces[idx].eval(x)


@pytest.mark.parametrize("params", ALL_PARAMS_5, ids=str)
def test_pointwise_keeps_top_branch_at_the_cut(params):
    # at x = a1/beta the top branch (x+a0)/beta = 1 is admissible, so the
    # preimage tree gives the left limit of P^k F there
    F = builtin("linear")
    x = params.beta().inverse() * params.a1
    for k in (1, 2, 3):
        exact = left_limit(apply_transfer_iterate(F.piecewise(params), k), x)
        assert pointwise_transfer_power(F, params, k, x) == pytest.approx(
            float(exact), abs=1e-12)


def transfer_by_definition(f, x):
    """(1/beta) * sum_j f((x+j)/beta), the terms with (x+j)/beta > 1 dropped."""
    params = f.params
    binv = params.power(-1)
    total = params.zero()
    for j in range(params.a0 + 1):
        y = (x + j) * binv
        if (y - 1).sign() <= 0:
            total = total + f.eval(y)
    return total * binv


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([p for p in ALL_PARAMS_5 if p.a0 <= 3]), st.integers(1, 3),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_transfer_of_blocks_matches_the_definition(params, M, s, rng):
    gaps = refine_to_level(params, M).gaps
    letters = {(g.k_word[0], g.j_word[0]) for g in gaps}
    assert len(letters) == params.a0 + params.a1
    for letter in sorted(letters):
        gap = rng.choice([g for g in gaps if (g.k_word[0], g.j_word[0]) == letter])
        f = building_block(gap, s)
        g = apply_transfer(f)
        for a, b in zip(g.breakpoints, g.breakpoints[1:]):
            m = (a + b) * Fraction(1, 2)
            assert g.eval(m) == transfer_by_definition(f, m)


def test_transfer_of_zero_is_zero():
    for params in ALL_PARAMS_5:
        zero = PiecewisePoly.zero(params)
        assert apply_transfer(zero).equal_ae(zero)
