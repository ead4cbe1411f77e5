"""Piecewise polynomial algebra: evaluation conventions, linear combinations,
affine pullbacks, exact integration, sup-norm brackets, serialization."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betaop.piecewise as piecewise
from betaop import (BetaParams, PiecewisePoly, Polynomial, QuadNum, apply_integer_transfer,
                    apply_transfer, combine, make_psi_basis, make_u_tilde)

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
    psi1, psi2, psi3, psi4 = make_psi_basis(GOLDEN, 2)
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
    psi1 = make_psi_basis(GOLDEN, 2)[0]
    with pytest.raises(ValueError):
        psi1.eval(GOLDEN.rational(2))


def test_breakpoint_convention_right_limit():
    params = GOLDEN
    cut = params.rational(Fraction(1, 2))
    left = PiecewisePoly.on_interval(Polynomial.from_rationals([1], params),
                                     params.zero(), cut)
    # at the interior breakpoint the right-side (zero) piece wins; at 1 the
    # left piece wins
    assert left.eval(cut).is_zero()
    assert left.eval(params.one()).is_zero()
    right = PiecewisePoly.on_interval(Polynomial.from_rationals([1], params),
                                      cut, params.one())
    assert right.eval(cut) == 1
    assert right.eval(params.one()) == 1


def test_combine_cancellation_and_u1_values():
    psi1 = make_psi_basis(GOLDEN, 2)[0]
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
    psi1 = make_psi_basis(params, 2)[0]
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
        ind = PiecewisePoly.on_interval(Polynomial.from_rationals([1], params),
                                        params.rational(a), params.rational(b))
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
        approx = np.asarray(pulled.eval_float(xs)).mean()
        assert abs(float(pulled.integrate()) - approx) < 2e-3


def test_canonical_merge_idempotent():
    params = GOLDEN
    one = Polynomial.from_rationals([1], params)
    f = PiecewisePoly(params, [params.zero(),
                               params.rational(Fraction(1, 2)), params.one()],
                      [one, one])
    assert len(f.pieces) == 1
    g = PiecewisePoly(params, f.breakpoints, f.pieces)
    assert len(g.pieces) == 1 and g.equal_ae(f)


def test_equal_ae_examples():
    psi1, psi2 = make_psi_basis(GOLDEN, 2)[:2]
    assert psi1.equal_ae(psi1)
    assert not psi1.equal_ae(psi2)


def test_sup_norm_bracket(monkeypatch):
    psi3 = make_psi_basis(GOLDEN, 2)[2]
    lo, up = psi3.sup_norm_bracket()
    assert lo <= 2.0 <= up
    z = PiecewisePoly.zero(GOLDEN)
    assert z.sup_norm_bracket() == (0.0, 0.0)
    psi4 = make_psi_basis(GOLDEN, 2)[3]
    lo4, up4 = psi4.sup_norm_bracket()
    assert lo4 <= 2 * GOLDEN.beta_float() + 1e-12
    assert 2 * GOLDEN.beta_float() <= up4
    # x - x^3 peaks inside [0, 1], at 1/sqrt(3), with the sup^2 = 4/27
    bump = PiecewisePoly.from_polynomial(Polynomial.from_rationals([0, 1, 0, -1], GOLDEN))
    monkeypatch.setattr(piecewise, "BRACKET_WIDTH", Fraction(1, 64))
    lo, up = bump.sup_norm_bracket()
    assert Fraction(lo) ** 2 <= Fraction(4, 27) <= Fraction(up) ** 2
    assert up - lo <= lo / 64


def test_sup_norm_bracket_shrinks(monkeypatch):
    # the splits follow one order whatever the width, so a smaller width only
    # adds splits: the lower bound never falls and the upper never rises
    rng = random.Random(99)
    for _ in range(20):
        f = rational_pw(rng, GOLDEN, max_pieces=3, max_deg=3)
        brackets = []
        for width in (Fraction(1, 2), Fraction(1, 8), Fraction(1, 32), Fraction(1, 128)):
            monkeypatch.setattr(piecewise, "BRACKET_WIDTH", width)
            lo, up = f.sup_norm_bracket()
            assert lo <= up <= lo * (1 + width) * (1 + 2 ** -50)  # up to the outward steps
            brackets.append((lo, up))
        for (lo, up), (lo2, up2) in zip(brackets, brackets[1:]):
            assert lo <= lo2 and up2 <= up and up2 - lo2 <= up - lo

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
    tiny = PiecewisePoly.on_interval(Polynomial.from_rationals([1], params),
                                     params.zero(), params.power(-depth))
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


def assert_pullback_matches(f, scale, shift, factor=None):
    g = f.compose_affine(scale, shift, factor)
    for m in midpoints(g):
        y = scale * m + shift
        inside = y.sign() >= 0 and (y - 1).sign() <= 0
        want = f.eval(y) if inside else f.params.zero()
        assert g.eval(m) == (want if factor is None else want * factor)
    # canonical form: a kept cut between equal pieces would merge here
    again = PiecewisePoly(g.params, g.breakpoints, g.pieces)
    assert again.breakpoints == g.breakpoints and again.pieces == g.pieces


@settings(deadline=None)
@given(st.sampled_from(ALL_PARAMS_5).flatmap(
    lambda p: st.tuples(piecewise_polys(p), st.integers(-2, 3), st.integers(-4, 4),
                        st.integers(-2, 2), st.one_of(st.none(), quadnums(p)),
                        st.just(p))))
def test_piecewise_compose_affine_matches_eval(args):
    # scales beta^-3 .. beta^2: the transfer branches and, above 1, the
    # Koopman case; beside the drawn shift, images [shift, shift + scale]
    # that start or end on each cut of f
    f, depth, h_rational, h_beta, factor, params = args
    scale = params.power(-depth)
    shifts = [QuadNum(Fraction(h_rational, 4), Fraction(h_beta, 4), params)]
    for y in f.breakpoints[1:-1]:
        shifts += [y, y - scale]
    for shift in shifts:
        assert_pullback_matches(f, scale, shift, factor)


@st.composite
def sum_cases(draw):
    """1-6 terms over one field, some replaced by the zero function, with a
    coefficient each and an order to take them in."""
    params, terms = draw(st.integers(1, 6).flatmap(same_field))
    terms = [PiecewisePoly.zero(params) if draw(st.integers(0, 3)) == 0 else f
             for f in terms]
    coeffs = [draw(quadnums(params)) for _ in terms]
    return params, terms, coeffs, draw(st.permutations(range(len(terms))))


@settings(deadline=None)
@given(sum_cases())
def test_sum_is_canonical_exact_and_independent_of_order(case):
    params, terms, coeffs, order = case
    scaled = [f.scaled(c) for c, f in zip(coeffs, terms)]
    total = combine(list(zip(coeffs, terms)))
    chained = scaled[0]
    for g in scaled[1:]:
        chained = chained + g
    for g in (total, chained):
        again = PiecewisePoly(params, g.breakpoints, g.pieces)
        assert again.breakpoints == g.breakpoints and again.pieces == g.pieces
    assert chained.equal_ae(total)
    union = sorted({b for f in terms for b in f.breakpoints})
    for a, b in zip(union, union[1:]):
        m = (a + b) * Fraction(1, 2)
        assert total.eval(m) == sum((f.eval(m) for f in scaled), params.zero())
    shuffled = combine([(coeffs[i], terms[i]) for i in order])
    assert shuffled.breakpoints == total.breakpoints and shuffled.pieces == total.pieces
    # a term from another field is an error, the zero function included
    other = BetaParams(params.a0 + 1, params.a1)
    for stranger in (PiecewisePoly.zero(other), PiecewisePoly.from_polynomial(
            Polynomial.from_rationals([1], other))):
        with pytest.raises(ValueError):
            combine(list(zip(coeffs, terms)) + [(other.one(), stranger)])
        with pytest.raises(ValueError):
            total + stranger
        with pytest.raises(ValueError):
            stranger + total


def test_polynomial_compose_affine_rejects_another_field():
    p = Polynomial.from_rationals([0, 1], GOLDEN)
    other = BetaParams(2, 1)
    own = (GOLDEN.beta(), GOLDEN.zero(), None)
    for i, value in enumerate((other.beta(), other.zero(), other.one())):
        args = list(own)
        args[i] = value
        with pytest.raises(ValueError, match="another field"):
            p.compose_affine(*args)
    assert p.compose_affine(*own) == Polynomial([GOLDEN.zero(), GOLDEN.beta()], GOLDEN)


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


def quadnum_compose_affine(f, scale, shift, factor=None):
    """PiecewisePoly.compose_affine on QuadNum operators, the reference for its
    cuts on integer triples: each cut compared with shift and end by _cmp, each
    kept cut pulled back by a subtraction and a division."""
    if scale.sign() <= 0:
        raise ValueError("scale must be positive")
    pieces = f.pieces
    first = 1 if pieces[0].is_zero() else 0
    last = len(pieces) - (2 if pieces[-1].is_zero() else 1)
    if first > last:
        return PiecewisePoly.zero(f.params)
    s, t = f.breakpoints[first], f.breakpoints[last + 1]
    end = shift + scale
    if shift >= t or end <= s:
        return PiecewisePoly.zero(f.params)
    zp = Polynomial.zero(f.params)
    bps, pcs = [f.params.zero()], []
    if s > shift:
        bps.append((s - shift) / scale)
        pcs.append(zp)
    idx = first
    for m in range(first + 1, last + 1):
        y = f.breakpoints[m]
        if y <= shift:
            idx = m
        elif y >= end:
            break
        else:
            bps.append((y - shift) / scale)
            pcs.append(pieces[idx].compose_affine(scale, shift, factor))
            idx = m
    pcs.append(pieces[idx].compose_affine(scale, shift, factor))
    if t < end:
        bps.append((t - shift) / scale)
        pcs.append(zp)
    bps.append(f.params.one())
    return PiecewisePoly._trusted(f.params, *piecewise._merged(bps, pcs))


@settings(deadline=None)
@given(st.sampled_from(ALL_PARAMS_5).flatmap(
    lambda p: st.tuples(piecewise_polys(p), st.integers(2, 7), st.integers(-6, 6),
                        st.integers(-4, 4), st.one_of(st.none(), quadnums(p)),
                        st.just(p))))
def test_compose_affine_cuts_match_the_quadnum_oracle(args):
    # scales beta^-3 .. beta^2 and 1/q; shifts inside and outside [0, 1], and
    # images [shift, shift + scale] that start or end on each breakpoint of f,
    # the support's ends and 0 and 1 among them
    f, q, h_rational, h_beta, factor, params = args
    scales = [params.power(-depth) for depth in range(-2, 4)]
    for scale in scales + [params.rational(Fraction(1, q))]:
        shifts = [QuadNum(Fraction(h_rational, 4), Fraction(h_beta, 4), params)]
        for y in f.breakpoints:
            shifts += [y, y - scale]
        for shift in shifts:
            got = f.compose_affine(scale, shift, factor)
            want = quadnum_compose_affine(f, scale, shift, factor)
            assert got.equal_ae(want)  # the same breakpoint triples and pieces
            again = PiecewisePoly(params, got.breakpoints, got.pieces)
            assert again.breakpoints == got.breakpoints and again.pieces == got.pieces


# -- integer-pair Horner and internal construction ----------------------------

BIG = 2 ** 400


def big_quadnums(params):
    """Elements whose numerators and denominators reach 400 bits."""
    return st.builds(lambda a, b, d, e: QuadNum(Fraction(a, d), Fraction(b, e), params),
                     st.integers(-BIG, BIG), st.integers(-BIG, BIG),
                     st.integers(1, BIG), st.integers(1, BIG))


def horner_oracle(p, scale, shift):
    """p(scale*x + shift) by Horner in QuadNum arithmetic on coefficient lists."""
    if not p.coeffs:
        return p
    acc = [p.coeffs[-1]]
    for c in reversed(p.coeffs[:-1]):
        acc = ([acc[0] * shift + c]
               + [a * shift + b * scale for a, b in zip(acc[1:], acc)]
               + [acc[-1] * scale])
    return Polynomial(acc, p.params)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(ALL_PARAMS_5).flatmap(
    lambda p: st.tuples(st.lists(big_quadnums(p), min_size=1, max_size=7),
                        big_quadnums(p), big_quadnums(p),
                        big_quadnums(p).filter(lambda x: not x.is_zero()), st.just(p))))
def test_integer_pair_horner_matches_quadnum_horner(args):
    coeffs, scale, shift, factor, params = args
    if scale.sign() < 0:
        scale = -scale
    elif scale.is_zero():
        scale = params.one()
    p = Polynomial(coeffs, params)
    assert p.compose_affine(scale, shift) == horner_oracle(p, scale, shift)
    assert p.compose_affine(scale, shift, factor) \
        == horner_oracle(p, scale, shift).scaled(factor)
    assert p.compose_affine(params.power(-1), params.power(-1) * params.a0) \
        == horner_oracle(p, params.power(-1), params.power(-1) * params.a0)


# -- the integer-pair layout of Polynomial ---------------------------------------


def is_canonical(p):
    """(u_i + v_i beta)/den with den > 0, gcd(den, all entries) = 1 and no
    trailing (0, 0) pair."""
    return (type(p.num) is tuple and all(type(pair) is tuple for pair in p.num)
            and p.den > 0 and math.gcd(p.den, *(x for pair in p.num for x in pair)) == 1
            and (not p.num or p.num[-1] != (0, 0)))


def layout_polys(params):
    """Small coefficients, so that equal polynomials turn up, or 400-bit ones."""
    coeff = st.one_of(quadnums(params, 3), big_quadnums(params), st.just(params.zero()))
    return st.lists(coeff, max_size=5).map(lambda cs: Polynomial(cs, params))


@st.composite
def layout_cases(draw):
    params = draw(st.sampled_from(ALL_PARAMS_5))
    p, q = draw(layout_polys(params)), draw(layout_polys(params))
    scale = draw(big_quadnums(params).filter(lambda x: x.sign() > 0))
    return params, p, q, scale, draw(big_quadnums(params)), draw(big_quadnums(params))


@settings(deadline=None, max_examples=150)
@given(layout_cases())
def test_every_polynomial_result_is_canonical(case):
    params, p, q, scale, shift, factor = case
    results = [p, q, p + q, p - p, p.scaled(factor), p.scaled(params.zero()),
               p.compose_affine(scale, shift),
               p.compose_affine(scale, shift, factor)]
    assert all(is_canonical(r) for r in results)
    assert (p - p).is_zero() and (p - p).den == 1


@settings(deadline=None, max_examples=150)
@given(layout_cases())
def test_polynomial_equality_is_equality_of_coefficients(case):
    params, p, q, _, _, factor = case
    for a, b in ((p, q), (p, (p + q) - q), (p, Polynomial(p.coeffs, params)),
                 (p.scaled(factor), Polynomial([c * factor for c in p.coeffs], params))):
        assert (a == b) == (a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)
    assert p == (p + q) - q


@settings(deadline=None, max_examples=150)
@given(layout_cases())
def test_float_coeffs_are_bit_equal_to_the_quadnum_floats(case):
    _, p, q, scale, shift, _ = case
    for r in (p, p + q, p.compose_affine(scale, shift)):
        try:
            expected = [float(c) for c in r.coeffs]
        except OverflowError:  # a coefficient beyond the float range
            with pytest.raises(OverflowError):
                r.float_coeffs()
        else:
            assert r.float_coeffs() == expected


def test_coeffs_is_a_read_only_view_built_on_demand():
    params = BetaParams(2, 1)
    p = Polynomial([QuadNum(Fraction(1, 2), 3, params), QuadNum(0, Fraction(1, 6), params)],
                   params)
    assert p.num == ((3, 18), (0, 1)) and p.den == 6
    with pytest.raises(AttributeError):
        p.coeffs = ()
    f = PiecewisePoly.from_polynomial(p)
    g = apply_transfer(f)
    assert all(piece._coeffs is None for piece in f.pieces + g.pieces)
    assert p.coeffs == (QuadNum(Fraction(1, 2), 3, params), QuadNum(0, Fraction(1, 6), params))


def test_integer_transfer_reads_rationality_from_the_pairs():
    params = BetaParams(2, 1)
    f = PiecewisePoly.from_polynomial(Polynomial.from_rationals([1, -3, 2], params))
    # the integer-base operator keeps the degree: x^n goes to q^-n x^n + lower terms
    assert len(apply_integer_transfer(f, 3).pieces[0].num) == 3
    irrational = f + PiecewisePoly.from_polynomial(Polynomial([params.beta()], params))
    with pytest.raises(ValueError, match="rational coefficients"):
        apply_integer_transfer(irrational, 3)
    assert f.pieces[0]._coeffs is None and irrational.pieces[0]._coeffs is None


def test_polynomials_over_different_fields_are_unequal():
    golden, silver = BetaParams(1, 1), BetaParams(2, 1)
    assert Polynomial.zero(golden) != Polynomial.zero(silver)
    assert Polynomial.from_rationals([1, 2], golden) != Polynomial.from_rationals([1, 2], silver)
    assert Polynomial.zero(golden) == Polynomial((), BetaParams(1, 1))
    assert hash(Polynomial.zero(golden)) == hash(Polynomial((), BetaParams(1, 1)))
    # arithmetic across fields is an error, as it is for QuadNum
    with pytest.raises(ValueError):
        Polynomial.from_rationals([1], golden) + Polynomial.from_rationals([1], silver)
    with pytest.raises(ValueError):
        Polynomial.from_rationals([1], golden).scaled(silver.beta())
    with pytest.raises(ValueError):
        PiecewisePoly.from_polynomial(Polynomial.zero(golden)).scaled(silver.beta())


def test_internal_constructions_stay_canonical():
    params = BetaParams(2, 1)
    binv = params.power(-1)
    quad = Polynomial.from_rationals([1, -3, 2], params)
    f = PiecewisePoly.on_interval(quad, binv, binv * 2)
    for g in (f + f.scaled(-1), f.scaled(0)):
        assert g.breakpoints == [params.zero(), params.one()] and g.is_zero()
    twice = f.scaled(2)
    rebuilt = PiecewisePoly(params, twice.breakpoints, twice.pieces)
    assert twice.breakpoints == rebuilt.breakpoints and twice.pieces == rebuilt.pieces


def test_on_interval_rejects_intervals_outside_or_degenerate():
    params = BetaParams(2, 1)
    binv, tiny, zero, one_q = params.power(-1), params.power(-9), params.zero(), params.one()
    one = Polynomial.from_rationals([1], params)
    for a, b in ((-binv, binv),             # a < 0
                 (-tiny, binv),
                 (binv, params.beta()),     # b > 1
                 (binv, one_q + tiny),
                 (binv, binv),              # b = a
                 (zero, zero), (one_q, one_q),
                 (binv * 2, binv)):         # b < a
        with pytest.raises(ValueError, match="non-degenerate"):
            PiecewisePoly.on_interval(one, a, b)
    with pytest.raises(ValueError, match="another field"):
        PiecewisePoly.on_interval(one, GOLDEN.zero(), one_q)


def test_on_interval_on_the_edges_of_the_unit_interval():
    for params in (GOLDEN, BetaParams(2, 1), BetaParams(5, 3)):
        zero, one, binv = params.zero(), params.one(), params.power(-1)
        tiny = params.power(-9)
        poly, zp = Polynomial.from_rationals([1, -2], params), Polynomial.zero(params)
        for a, b, bps, pcs in ((zero, binv, [zero, binv, one], [poly, zp]),
                               (binv, one, [zero, binv, one], [zp, poly]),
                               (zero, one, [zero, one], [poly]),
                               (tiny, one - tiny, [zero, tiny, one - tiny, one],
                                [zp, poly, zp])):
            f = PiecewisePoly.on_interval(poly, a, b)
            assert f.breakpoints == bps and f.pieces == pcs


def test_on_interval_of_zero_polynomial_is_canonical_zero():
    params = BetaParams(2, 1)
    binv = params.power(-1)
    zero = PiecewisePoly.zero(params)
    for a, b in ((binv, binv * 2), (params.zero(), binv), (binv, params.one())):
        f = PiecewisePoly.on_interval(Polynomial.zero(params), a, b)
        assert f.breakpoints == zero.breakpoints and f.pieces == zero.pieces


# -- float views: eval_float against numpy, the bracket against exact values ---


def numpy_eval_float(f, xs):
    """PiecewisePoly.eval_float as it was written with numpy."""
    bps = np.array([float(b) for b in f.breakpoints])
    idx = np.clip(np.searchsorted(bps, xs, side="right") - 1, 0, len(f.pieces) - 1)
    out = np.empty_like(np.asarray(xs, dtype=float))
    for i, piece in enumerate(f.pieces):
        mask = idx == i
        if mask.any():
            descending = [float(c) for c in reversed(piece.coeffs)] or [0.0]
            out[mask] = np.polyval(descending, np.asarray(xs)[mask])
    return out


@st.composite
def float_view_cases(draw):
    """Up to five pieces of degree <= 7, small or 400-bit coefficients."""
    params = draw(st.sampled_from(ALL_PARAMS_5))
    pool = ([params.rational(Fraction(i, 8)) for i in range(1, 8)]
            + [params.power(-1) * j for j in range(1, params.a0 + 1)])
    cuts = sorted(set(draw(st.lists(st.sampled_from(pool), max_size=4))), key=float)
    coeff = st.one_of(quadnums(params, 50), big_quadnums(params))
    poly = st.one_of(st.just(()), st.lists(coeff, min_size=1, max_size=8))
    pcs = [Polynomial(draw(poly), params) for _ in range(len(cuts) + 1)]
    return PiecewisePoly(params, [params.zero()] + cuts + [params.one()], pcs)


@settings(deadline=None, max_examples=150)
@given(float_view_cases())
def test_sup_norm_bracket_holds_every_exact_value(f):
    # upper >= |f(x)| exactly at both one-sided limits of every breakpoint and
    # on the grid of 64ths; for pieces of degree <= 1 the sup is the largest
    # end value, and lower <= sup <= upper holds exactly
    params = f.params
    lo, up = f.sup_norm_bracket()
    assert 0.0 <= lo <= up and (up > 0.0) == (not f.is_zero())
    ends = [p.eval(x) for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces)
            for x in (a, b)]
    grid = [f.eval(params.rational(Fraction(i, 64))) for i in range(65)]
    upper = params.rational(Fraction(up))
    assert all(-upper <= v <= upper for v in ends + grid)
    if all(len(p.num) <= 2 for p in f.pieces):
        sup = max(v if v.sign() >= 0 else -v for v in ends)
        assert params.rational(Fraction(lo)) <= sup <= upper


@settings(deadline=None, max_examples=150)
@given(float_view_cases(), st.lists(st.floats(0, 1), max_size=20))
def test_eval_float_is_bit_equal_to_polyval(f, xs):
    xs = xs + [0.0, 1.0] + [float(b) for b in f.breakpoints]
    assert f.eval_float(xs) == numpy_eval_float(f, xs).tolist()
    assert f.eval_float(np.array(xs)) == numpy_eval_float(f, xs).tolist()
