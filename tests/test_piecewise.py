"""Piecewise polynomial algebra: evaluation conventions, linear combinations,
affine pullbacks, exact integration, sup-norm brackets, serialization."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betaop import (BetaParams, PiecewisePoly, Polynomial, QuadNum, combine,
                    make_psi_basis, make_u_tilde)

GOLDEN = BetaParams(1, 1)
ALL_PARAMS_5 = [BetaParams(a0, a1) for a0 in range(1, 6)
                for a1 in range(1, a0 + 1)]


def rational_pw(rng, params, max_pieces=4, max_deg=2):
    """Random piecewise polynomial with rational breakpoints/coefficients."""
    cuts = sorted({Fraction(rng.randint(1, 99), 100)
                   for _ in range(rng.randint(0, max_pieces - 1))})
    bps = [params.zero()] + [params.rational(c) for c in cuts] + [params.one()]
    pcs = [Polynomial.from_rationals(
        [Fraction(rng.randint(-8, 8), rng.randint(1, 6))
         for _ in range(rng.randint(1, max_deg + 1))], params)
        for _ in range(len(bps) - 1)]
    return PiecewisePoly(params, bps, pcs)


def test_psi_evaluations():
    psi1, psi2, psi3, psi4 = make_psi_basis(GOLDEN, 2).functions
    half = GOLDEN.rational(Fraction(1, 2))
    assert psi1.eval(half) == 1
    assert psi3.eval(half).is_zero()
    # 1/2 < a1/beta ~ 0.618 so psi2(1/2) = beta/a1 = beta
    assert psi2.eval(half) == GOLDEN.beta()
    # psi4 vanishes at its center a1/(2 beta)
    center = GOLDEN.beta().inverse() * Fraction(1, 2)
    assert psi4.eval(center).is_zero()
    # |psi4(0)| = 2 beta
    assert psi4.eval(GOLDEN.zero()) == QuadNum(0, -2, GOLDEN)


def test_eval_outside_domain_errors():
    psi1 = make_psi_basis(GOLDEN, 2).functions[0]
    with pytest.raises(ValueError):
        psi1.eval(GOLDEN.rational(2))


def test_breakpoint_convention_right_limit():
    params = GOLDEN
    cut = params.rational(Fraction(1, 2))
    left = PiecewisePoly.on_interval(Polynomial.constant(params.one()),
                                     params.zero(), cut)
    # at the interior breakpoint the right-side (zero) piece wins; at 1 the
    # left piece wins
    assert left.eval(cut).is_zero()
    assert left.eval(params.one()).is_zero()
    right = PiecewisePoly.on_interval(Polynomial.constant(params.one()),
                                      cut, params.one())
    assert right.eval(cut) == 1
    assert right.eval(params.one()) == 1


def test_combine_cancellation_and_u1_values():
    psi1 = make_psi_basis(GOLDEN, 2).functions[0]
    zero = combine([(GOLDEN.one(), psi1), (GOLDEN.rational(-1), psi1)])
    assert zero.is_zero()
    assert [b.to_string() for b in zero.breakpoints] == ["0", "1"]

    u1, u2, u3 = make_u_tilde(GOLDEN)
    assert len(u1.pieces) == 2
    lo = float(u1.eval(GOLDEN.rational(Fraction(1, 4))))
    hi = float(u1.eval(GOLDEN.rational(Fraction(9, 10))))
    assert lo == pytest.approx((5 + 3 * 5 ** 0.5) / 10, abs=1e-14)
    assert hi == pytest.approx((5 + 5 ** 0.5) / 10, abs=1e-14)


def test_integrate_linearity_random():
    rng = random.Random(424242)
    params_pool = [BetaParams(1, 1), BetaParams(2, 1), BetaParams(3, 2)]
    for _ in range(1000):
        params = rng.choice(params_pool)
        f = rational_pw(rng, params)
        g = rational_pw(rng, params)
        a = QuadNum(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-3, 3)), params)
        c = combine([(a, f), (params.one(), g)])
        assert (c.integrate() - (a * f.integrate() + g.integrate())).is_zero()


def test_compose_affine_examples():
    params = GOLDEN
    binv = params.beta().inverse()
    psi1 = make_psi_basis(params, 2).functions[0]
    # [0,1]/beta is inside [0,1], so the pullback of the indicator is psi1
    assert psi1.compose_affine(binv, params.zero()).equal_ae(psi1)
    # shift by a0/beta: support shrinks to [0, a1/beta]
    shifted = psi1.compose_affine(binv, binv)
    cut = binv  # a1/beta with a1=1
    assert shifted.eval(params.zero()) == 1
    assert shifted.eval((cut + 1) * Fraction(1, 2)).is_zero()
    # f(x) = x pulled back is x/beta
    ident = PiecewisePoly.from_polynomial(
        Polynomial([params.zero(), params.one()], params))
    pulled = ident.compose_affine(binv, params.zero())
    assert pulled.eval(params.one()) == binv


def test_compose_affine_jacobian_on_indicators():
    rng = random.Random(11)
    params = BetaParams(2, 1)
    binv = params.beta().inverse()
    for _ in range(50):
        a = Fraction(rng.randint(0, 49), 100)
        b = Fraction(rng.randint(51, 100), 100)
        ind = PiecewisePoly.indicator(params, params.rational(a),
                                      params.rational(b))
        # shift = 0: the pullback of chi_[a,b] under x -> x/beta is
        # chi_[beta*a, min(beta*b, 1)], so the Jacobian relation reads
        # integral(pullback) = measure of preimage interval
        pulled = ind.compose_affine(binv, params.zero())
        lo = params.rational(a) * binv.inverse()
        hi = params.rational(b) * binv.inverse()
        if (hi - 1).sign() > 0:
            hi = params.one()
        if (lo - 1).sign() > 0:
            lo = params.one()
        assert (pulled.integrate() - (hi - lo)).is_zero()
        # random shift: cross-check against a numeric Riemann sum
        shift = binv * rng.randint(0, 2) * Fraction(1, 2)
        pulled = ind.compose_affine(binv, shift)
        xs = np.linspace(0, 1, 20001)
        approx = pulled.eval_float(xs).mean()
        assert abs(float(pulled.integrate()) - approx) < 2e-3


def test_canonical_merge_idempotent():
    params = GOLDEN
    one = Polynomial.constant(params.one())
    f = PiecewisePoly(params, [params.zero(),
                               params.rational(Fraction(1, 2)), params.one()],
                      [one, one])
    assert len(f.pieces) == 1
    g = PiecewisePoly(params, f.breakpoints, f.pieces)
    assert len(g.pieces) == 1 and g.equal_ae(f)


def test_equal_ae_examples():
    psi1, psi2 = make_psi_basis(GOLDEN, 2).functions[:2]
    assert psi1.equal_ae(psi1)
    assert not psi1.equal_ae(psi2)


def test_sup_norm_bracket():
    psi3 = make_psi_basis(GOLDEN, 2).functions[2]
    lo, up = psi3.sup_norm_bracket()
    assert lo <= 2.0 <= up
    lo, up = psi3.sup_norm_bracket(512)
    assert up - lo < 0.05
    z = PiecewisePoly.zero(GOLDEN)
    assert z.sup_norm_bracket() == (0.0, 0.0)
    psi4 = make_psi_basis(GOLDEN, 2).functions[3]
    lo4, up4 = psi4.sup_norm_bracket()
    assert lo4 <= 2 * GOLDEN.beta_float() + 1e-12
    assert 2 * GOLDEN.beta_float() <= up4


def test_sup_norm_bracket_shrinks():
    rng = random.Random(99)
    for _ in range(20):
        f = rational_pw(rng, GOLDEN, max_pieces=3, max_deg=3)
        widths = []
        for n in (8, 16, 32, 64):
            lo, up = f.sup_norm_bracket(n)
            assert lo <= up
            widths.append(up - lo)
        assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))


def test_degree_cap():
    params = GOLDEN
    with pytest.raises(ValueError):
        Polynomial([params.one()] * 70, params)


def test_json_round_trip():
    rng = random.Random(321)
    u1, u2, u3 = make_u_tilde(BetaParams(3, 2))
    for f in (u1, u3, rational_pw(rng, BetaParams(3, 2))):
        doc = json.loads(json.dumps(f.to_json_dict()))
        assert doc["schema"] == 1
        g = PiecewisePoly.from_json_dict(doc)
        assert g.equal_ae(f)
        assert [b.to_string() for b in g.breakpoints] == \
               [b.to_string() for b in f.breakpoints]


# -- hypothesis: exact oracles for canonical comparison and pullbacks ------------


def quadnums(params, size=6):
    """Small exact elements p + q*beta of Q(beta)."""
    return st.builds(lambda a, b, d: QuadNum(Fraction(a, d), Fraction(b, d), params),
                     st.integers(-size, size), st.integers(-size // 2, size // 2),
                     st.integers(1, 4))


@st.composite
def piecewise_polys(draw, params):
    """Up to five pieces, some zero, cut at eighths and at the points j/beta."""
    pool = ([params.rational(Fraction(i, 8)) for i in range(1, 8)]
            + [params.power(-1) * j for j in range(1, params.a0 + 1)])
    cuts = sorted(set(draw(st.lists(st.sampled_from(pool), max_size=4))), key=float)
    poly = st.one_of(st.just(()), st.lists(quadnums(params), min_size=1, max_size=3))
    pcs = [Polynomial(draw(poly), params) for _ in range(len(cuts) + 1)]
    return PiecewisePoly(params, [params.zero()] + cuts + [params.one()], pcs)


@st.composite
def same_field(draw, count):
    params = draw(st.sampled_from(ALL_PARAMS_5))
    return params, [draw(piecewise_polys(params)) for _ in range(count)]


def midpoints(f):
    return [(a + b) * Fraction(1, 2) for a, b in zip(f.breakpoints, f.breakpoints[1:])]


@settings(deadline=None)
@given(same_field(2), st.integers(1, 8))
def test_equal_ae_agrees_with_the_difference(pair, depth):
    params, (f, g) = pair
    assert f.equal_ae(g) == (f - g).is_zero()
    # equal a.e. but built differently
    rebuilt = (f + g) - g
    assert rebuilt.equal_ae(f) and (rebuilt - f).is_zero()
    assert f.scaled(2).scaled(Fraction(1, 2)).equal_ae(f)
    # perturbed by a tiny rational on a sub-interval
    tiny = PiecewisePoly.indicator(params, params.zero(), params.power(-depth))
    nudged = f + tiny.scaled(Fraction(1, 10 ** 30))
    assert not nudged.equal_ae(f) and not (nudged - f).is_zero()


@settings(deadline=None)
@given(st.sampled_from(ALL_PARAMS_5).flatmap(
    lambda p: st.tuples(st.lists(quadnums(p), max_size=5), quadnums(p), quadnums(p),
                        quadnums(p), st.just(p))))
def test_polynomial_compose_affine_matches_eval(args):
    coeffs, scale, shift, x, params = args
    p = Polynomial(coeffs, params)
    assert p.compose_affine(scale, shift).eval(x) == p.eval(scale * x + shift)


def assert_pullback_matches(f, scale, shift):
    g = f.compose_affine(scale, shift)
    for m in midpoints(g):
        y = scale * m + shift
        inside = y.sign() >= 0 and (y - 1).sign() <= 0
        assert g.eval(m) == (f.eval(y) if inside else 0)


@settings(deadline=None)
@given(st.sampled_from(ALL_PARAMS_5).flatmap(
    lambda p: st.tuples(piecewise_polys(p), st.integers(0, 3), st.integers(-4, 4),
                        st.integers(-2, 2), st.just(p))))
def test_piecewise_compose_affine_matches_eval(args):
    f, depth, h_rational, h_beta, params = args
    shift = QuadNum(Fraction(h_rational, 4), Fraction(h_beta, 4), params)
    assert_pullback_matches(f, params.power(-depth), shift)


def test_compose_affine_on_the_support_edges():
    params = BetaParams(2, 1)
    binv = params.power(-1)
    quad = Polynomial.from_rationals([1, -3, 2], params)
    block = PiecewisePoly.on_interval(quad, binv, binv * 2)
    low = PiecewisePoly.on_interval(quad, params.zero(), binv)
    high = PiecewisePoly.on_interval(quad, binv * 2, params.one())
    zero = PiecewisePoly.zero(params)
    half = binv * Fraction(1, 2)
    for f, shift, expect_zero in (
            (zero, params.zero(), True),       # zero f
            (block, params.zero(), True),      # image [0, 1/beta] ends where f starts
            (block, binv * 2, True),           # image starts where f ends
            (block, half, False),              # partial overlap on the left
            (block, binv + half, False),       # partial overlap on the right
            (low, -half, False),               # image sticks out below 0
            (high, 1 - half, False),           # image sticks out above 1
            (high, -binv, True)):              # image misses [0,1] altogether
        assert f.compose_affine(binv, shift).is_zero() == expect_zero
        assert_pullback_matches(f, binv, shift)
    assert zero.compose_affine(binv, params.zero()).equal_ae(zero)
