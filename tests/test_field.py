"""Exact arithmetic in Q(beta): field axioms, exact ordering, floors,
decimal rendering, and string round-trips."""

import copy
import decimal
import math
import pickle
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from betaop import BetaParams, QuadNum, quadnum_from_string
from betaop.field import _sign, quad_float, quad_float_outward

ALL_PARAMS_5 = [BetaParams(a0, a1) for a0 in range(1, 6)
                for a1 in range(1, a0 + 1)]
ALL_PARAMS_10 = [BetaParams(a0, a1) for a0 in range(1, 11)
                 for a1 in range(1, a0 + 1)]


def random_quadnum(rng, params):
    return QuadNum(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                   Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                   params)


def test_params_validation():
    with pytest.raises(ValueError):
        BetaParams(1, 2)
    with pytest.raises(ValueError):
        BetaParams(0, 0)
    with pytest.raises(TypeError):
        BetaParams(2.0, 1)


def test_params_are_one_interned_immutable_object_per_field():
    golden = BetaParams(1, 1)
    assert BetaParams(2, 1) is BetaParams(2, 1)
    assert BetaParams(a0=2, a1=1) is BetaParams(2, 1) is not golden
    # validation runs before the lookup, so (True, True) never reaches (1, 1)
    with pytest.raises(TypeError):
        BetaParams(True, True)
    with pytest.raises(TypeError):
        BetaParams(1, True)
    for a0, a1 in ((1, 1), (2, 1), (5, 3), (10, 10)):
        assert hash(BetaParams(a0, a1)) == hash((a0, a1))
    for name in ("a0", "a1", "other"):
        with pytest.raises(AttributeError):
            setattr(golden, name, 2)
    with pytest.raises(AttributeError):
        del golden.a0
    assert (golden.a0, golden.a1) == (1, 1)
    for params in (golden, BetaParams(3, 2)):
        assert copy.copy(params) is params
        assert copy.deepcopy(params) is params
        assert pickle.loads(pickle.dumps(params)) is params
        x = pickle.loads(pickle.dumps(params.beta() + 1))
        assert x.params is params and x == params.beta() + 1
    assert repr(golden) == "BetaParams(a0=1, a1=1)"
    assert repr(BetaParams(5, 3)) == "BetaParams(a0=5, a1=3)"


def test_defining_relation_examples():
    p = BetaParams(1, 1)
    b = p.beta()
    assert b * b == QuadNum(1, 1, p)          # beta^2 = 1 + beta
    assert b.inverse() == QuadNum(-1, 1, p)   # 1/beta = beta - 1
    p2 = BetaParams(2, 1)
    b2 = p2.beta()
    # (1 + beta)(1 - beta) = 1 - beta^2 = -2*beta after reduction
    prod = (1 + b2) * (1 - b2)
    assert prod == QuadNum(0, -2, p2)


def test_beta_identities_all_params():
    for p in ALL_PARAMS_10:
        b = p.beta()
        assert (b * b - b * p.a0 - p.a1).is_zero()
        assert (p.a0 * b.inverse() + p.a1 * b.inverse() ** 2 - 1).is_zero()
        assert b.floor() == p.a0


def test_field_axioms_random():
    rng = random.Random(20240817)
    count = 0
    while count < 10_000:
        p = rng.choice(ALL_PARAMS_5)
        x, y, z = (random_quadnum(rng, p) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if not x.is_zero():
            assert (x * x.inverse() - 1).is_zero()
            assert ((1 / x) * x - 1).is_zero()
        count += 5


def test_sign_examples():
    p = BetaParams(1, 1)
    assert QuadNum(-1, 1, p).sign() == 1     # beta > 1
    assert QuadNum(2, -1, p).sign() == 1     # beta < 2
    # a0=3, a1=2: beta = (3+sqrt(17))/2 ~ 3.5616 so -7/2 + beta > 0
    p32 = BetaParams(3, 2)
    assert QuadNum(Fraction(-7, 2), 1, p32).sign() == 1
    assert BetaParams(2, 2).zero().sign() == 0


def test_sign_against_high_precision_oracle():
    rng = random.Random(987654)
    with mp.workdps(100):
        checked = 0
        while checked < 10_000:
            p = rng.choice(ALL_PARAMS_5)
            x = random_quadnum(rng, p)
            beta = (p.a0 + mp.sqrt(p.disc)) / 2
            val = mp.mpf(x.p.numerator) / x.p.denominator \
                + beta * x.q.numerator / x.q.denominator
            if abs(val) < mp.mpf(10) ** -50:
                continue
            assert x.sign() == int(mp.sign(val))
            checked += 1


def test_comparisons_and_ordering():
    p = BetaParams(2, 1)
    b = p.beta()
    assert b > 2 and b < 3
    assert b.inverse() < 1
    vals = sorted([b, p.one(), b.inverse(), p.zero(), b * b])
    floats = [float(v) for v in vals]
    assert floats == sorted(floats)


def test_floor_examples_and_random():
    assert BetaParams(1, 1).zero().floor() == 0
    p22 = BetaParams(2, 2)
    b = p22.beta()
    assert (b * b).floor() == 7  # beta = 1 + sqrt(3), beta^2 ~ 7.46
    rng = random.Random(5150)
    for _ in range(500):
        p = rng.choice(ALL_PARAMS_5)
        x = random_quadnum(rng, p)
        m = x.floor()
        assert (x - m).sign() >= 0
        assert (x - (m + 1)).sign() < 0


def test_to_decimal_examples():
    assert BetaParams(1, 1).beta().to_decimal(10) == "1.6180339887"
    assert BetaParams(1, 1).rational(Fraction(1, 2)).to_decimal(3) == "0.500"
    assert BetaParams(2, 1).beta().to_decimal(8) == "2.41421356"
    # negative irrational value
    p = BetaParams(1, 1)
    assert QuadNum(0, -1, p).to_decimal(4) == "-1.6180"


def test_to_decimal_matches_mpmath():
    rng = random.Random(31337)
    with mp.workdps(60):
        for _ in range(200):
            p = rng.choice(ALL_PARAMS_5)
            x = random_quadnum(rng, p)
            if x.q == 0:
                continue
            beta = (p.a0 + mp.sqrt(p.disc)) / 2
            val = mp.mpf(x.p.numerator) / x.p.denominator \
                + beta * x.q.numerator / x.q.denominator
            got = x.to_decimal(12)
            assert abs(mp.mpf(got) - val) < mp.mpf(10) ** -12


def test_float_conversion_avoids_cancellation():
    # huge opposite-sign components with a small true value
    p = BetaParams(1, 1)
    big = 10 ** 30
    x = QuadNum(-big, Fraction(big * 10 ** 15 + 1, 10 ** 15 + 1), p) * 0 \
        + QuadNum(0, 1, p)  # sanity: arithmetic still exact
    assert float(x) == pytest.approx(p.beta_float(), rel=1e-15)
    tiny = p.beta().inverse() ** 80  # p, q are ~17-digit integers here
    assert float(tiny) == pytest.approx(p.beta_float() ** -80, rel=1e-13)


def test_beta_float_is_the_correctly_rounded_beta():
    # (a0 + sqrt(D))/2 in floats is an ulp off for 416 of these fields, (5, 3)
    # among them; 60 digits then one rounding to float give the nearest float
    ctx = decimal.Context(prec=60)
    for a0 in range(1, 60):
        for a1 in range(1, a0 + 1):
            p = BetaParams(a0, a1)
            beta = ctx.divide(ctx.add(a0, ctx.sqrt(p.disc)), 2)
            assert p.beta_float() == float(beta) == float(p.beta()), (a0, a1)
    assert BetaParams(5, 3).beta_float() == 5.54138126514911


def test_params_mixing_is_hard_error():
    x = BetaParams(1, 1).beta()
    y = BetaParams(2, 1).beta()
    with pytest.raises(ValueError):
        _ = x + y


def test_division_by_zero():
    p = BetaParams(1, 1)
    with pytest.raises(ZeroDivisionError):
        p.zero().inverse()


def test_string_round_trip():
    rng = random.Random(777)
    for _ in range(300):
        p = rng.choice(ALL_PARAMS_5)
        x = random_quadnum(rng, p)
        assert quadnum_from_string(x.to_string(), p) == x
    p = BetaParams(1, 1)
    assert quadnum_from_string("-2+1*beta", p) == QuadNum(-2, 1, p)
    assert quadnum_from_string("3/4", p) == QuadNum(Fraction(3, 4), 0, p)


def test_string_parser_reads_bare_forms_and_names_what_it_refuses():
    p = BetaParams(2, 1)
    assert quadnum_from_string("3*beta", p) == QuadNum(0, 3, p)
    assert quadnum_from_string("-1/2*beta", p) == QuadNum(0, Fraction(-1, 2), p)
    assert quadnum_from_string(" 7 ", p) == QuadNum(7, 0, p)
    for text in ("beta", "-beta", "1*beta*beta", "1+*beta", "1+-2*beta", "1.5", "",
                 "1+2", "1_0", "beta*2"):
        with pytest.raises(ValueError) as info:
            quadnum_from_string(text, p)
        assert str(info.value) == "malformed Q(beta) string %r" % text
    # a zero denominator is a ValueError that names the string
    for text in ("1/0", "1/0*beta", "1+1/0*beta"):
        with pytest.raises(ValueError) as info:
            quadnum_from_string(text, p)
        assert str(info.value) == "malformed Q(beta) string %r: zero denominator" % text


def test_unreduced_inputs_normalise_to_one_value():
    p = BetaParams(2, 1)
    x = QuadNum(Fraction(2, 4), Fraction(-6, 8), p)
    y = QuadNum(Fraction(1, 2), Fraction(-3, 4), p)
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    # results of arithmetic normalise the same way
    z = (y * 6 + QuadNum(0, Fraction(3, 2), p)) / 6 - QuadNum(0, Fraction(1, 4), p)
    assert z == y and hash(z) == hash(y)
    # + and - on equal denominators: (1+beta)/2 +- (1-beta)/2 over d = 2, reduced
    u, v = QuadNum(Fraction(1, 2), Fraction(1, 2), p), QuadNum(Fraction(1, 2), Fraction(-1, 2), p)
    assert u.d == v.d == 2
    assert ((u + v).a, (u + v).b, (u + v).d) == (1, 0, 1)
    assert ((u - v).a, (u - v).b, (u - v).d) == (0, 1, 1)


def test_rational_elements_hash_like_the_rationals_they_equal():
    p = BetaParams(1, 1)
    for value in (0, 1, -7, Fraction(3, 4), Fraction(-5, 2)):
        x = QuadNum(value, 0, p)
        assert x == value
        assert hash(x) == hash(value)
        assert value in {x} and x in {value}
    # a rational reached by cancelling the beta part, not built directly
    b = p.beta()
    assert b * b - b == 1
    assert 1 in {b * b - b}
    assert hash((b + 1) / 2 - b / 2) == hash(Fraction(1, 2))


def test_p_and_q_return_the_original_fractions():
    rng = random.Random(4242)
    for _ in range(300):
        params = rng.choice(ALL_PARAMS_5)
        p0 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        q0 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        x = QuadNum(p0, q0, params)
        assert isinstance(x.p, Fraction) and isinstance(x.q, Fraction)
        assert (x.p, x.q) == (p0, q0)
        assert QuadNum(x.p, x.q, params) == x
    x = QuadNum(3, -2, BetaParams(1, 1))
    assert (x.p, x.q) == (Fraction(3), Fraction(-2))


def test_floor_of_large_power():
    # beta^n + (-1/beta)^n is the Lucas number L_n, and 0 < (-1/beta)^n < 1
    # for even n > 0, so floor(beta^n) = L_n - 1
    p = BetaParams(1, 1)
    lucas = [2, 1]
    while len(lucas) <= 3000:
        lucas.append(lucas[-1] + lucas[-2])
    big = p.beta() ** 3000
    assert big.floor() == lucas[3000] - 1
    assert (-big).floor() == -lucas[3000]
    assert big.inverse().floor() == 0


def test_float_is_the_nearest_float():
    # (a0 - beta)/d and (a0 + 1 - beta)/d nearly cancel; a reference through a
    # 4096-bit isqrt, one int / int rounding, decides the nearest float. An
    # interval of 2^-60 relative width was once taken as enough and rounded 26
    # of these the wrong way, (20 - beta)/3 over (20, 1) among them
    assert float((20 - BetaParams(20, 1).beta()) / 3) == -0.01662520704029676
    for a0 in range(1, 60):
        for a1 in range(1, a0 + 1):
            params = BetaParams(a0, a1)
            root = math.isqrt(params.disc << 8192)
            for j in (a0, a0 + 1):
                for b in (1, -1):
                    for d in (1, 3, 5, 6, 7):
                        x = QuadNum(Fraction(-b * j, d), Fraction(b, d), params)
                        r = -2 * b * j + a0 * b  # (r + b sqrt(D))/(2d) is x
                        assert float(x) == ((r << 4096) + b * root) / ((2 * d) << 4096)


def test_float_beyond_range_raises_overflow():
    # float() keeps Python's convention for values beyond the float range
    big = BetaParams(1, 1).beta() ** 3000
    with pytest.raises(OverflowError):
        float(big)
    with pytest.raises(OverflowError):
        float(-big)


# -- field laws over random triples, with components of up to 400 bits --------

BIG = 2 ** 400


@st.composite
def elements(draw, count):
    """`count` elements of one randomly chosen field."""
    params = draw(st.sampled_from(ALL_PARAMS_5))
    coord = st.integers(-BIG, BIG)
    denom = st.integers(1, BIG)
    return [QuadNum(Fraction(draw(coord), draw(denom)),
                    Fraction(draw(coord), draw(denom)), params)
            for _ in range(count)]


@settings(deadline=None)
@given(elements(3))
def test_associativity_and_distributivity(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(deadline=None)
@given(elements(1))
def test_inverse_law(xs):
    (x,) = xs
    assume(not x.is_zero())
    assert x * x.inverse() == 1


@settings(deadline=None)
@given(elements(2), st.integers(-BIG, BIG), st.integers(1, BIG))
def test_equality_agrees_with_hash(xy, num, den):
    x, y = xy
    assume(not y.is_zero())
    # the same value reached along another route
    same = (x * y) / y
    assert same == x and hash(same) == hash(x)
    assert (x == y) == (x - y).is_zero()
    # a rational element equals, and hashes like, the Fraction it holds
    r = QuadNum(Fraction(num, den), 0, x.params)
    assert r == Fraction(num, den) and hash(r) == hash(Fraction(num, den))
    assert x - x.q * x.params.beta() == x.p
    assert hash(x - x.q * x.params.beta()) == hash(x.p)


@settings(deadline=None)
@given(elements(1))
def test_floor_brackets(xs):
    (x,) = xs
    m = x.floor()
    assert (x - m).sign() >= 0 > (x - m - 1).sign()


@settings(deadline=None)
@given(elements(2), st.integers(-BIG, BIG), st.integers(1, BIG))
def test_comparisons_agree_with_sign_of_difference(xy, num, den):
    x, y = xy
    for other in (y, x, x + 1, num, Fraction(num, den)):
        s = (x - other).sign()
        assert (x < other) == (s < 0) and (x <= other) == (s <= 0)
        assert (x > other) == (s > 0) and (x >= other) == (s >= 0)
        # int and Fraction on the left reach the reflected QuadNum comparison
        assert (other > x) == (s < 0) and (other >= x) == (s <= 0)
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        with pytest.raises(TypeError):
            getattr(x, op)(0.5)
    with pytest.raises(TypeError):
        0.5 < x


@settings(deadline=None)
@given(elements(1), st.integers(1, 60))
def test_to_decimal_rounds_to_nearest_on_large_components(xs, digits):
    # decided exactly: (n - 1/2)/10^d < x < (n + 1/2)/10^d, no tie when irrational
    (x,) = xs
    text = x.to_decimal(digits)
    assert len(text.split(".")[1]) == digits
    half = Fraction(1, 2 * 10 ** digits)
    value = Fraction(text)
    if x.is_rational():
        assert value - half <= x <= value + half
    else:
        assert value - half < x < value + half


@settings(deadline=None)
@given(elements(1))
def test_outward_floats_enclose_the_value(xs):
    x = xs[0]
    try:
        lo, hi = quad_float_outward(x.a, x.b, x.d, x.params)
    except OverflowError:
        return
    assert float(x) in (lo, hi) and lo <= hi <= math.nextafter(lo, math.inf)
    assert x.params.rational(Fraction(lo)) <= x <= x.params.rational(Fraction(hi))


def sign_by_squares(a, b, params):
    """The sign of a + b beta = (r + b sqrt(D))/2, r = 2a + a0 b: that of r or
    b where they agree or one is 0, else that of the larger of r^2 and b^2 D."""
    r = 2 * a + params.a0 * b
    sr, sb = (r > 0) - (r < 0), (b > 0) - (b < 0)
    if sr * sb >= 0:
        return sr or sb
    return sr if r * r > b * b * params.disc else sb


def floor_b_beta(b, params):
    """floor(b beta) = floor((a0 b + b sqrt(D))/2), from isqrt(b^2 D)."""
    root = math.isqrt(b * b * params.disc)
    return (params.a0 * b + (root if b >= 0 else -root - 1)) // 2


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(ALL_PARAMS_10), st.integers(-2 ** 1000, 2 ** 1000),
       st.integers(-2 ** 1000, 2 ** 1000), st.integers(-2, 2), st.booleans())
def test_sign_matches_the_squares_of_the_conjugate_form(params, a, b, delta, near):
    # near-cancelling pairs a = -floor(b beta) + delta, as comparisons of big
    # breakpoints and bounds make them
    if near:
        a = delta - floor_b_beta(b, params)
    assert _sign(a, b, params) == sign_by_squares(a, b, params)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(ALL_PARAMS_10), st.integers(1, 400), st.integers(-BIG, BIG).filter(bool),
       st.integers(-2, 2), st.integers(1, BIG))
def test_quad_float_rounds_to_nearest_under_heavy_cancellation(params, n, c, e, d):
    """(a0 - beta)^n = (-a1/beta)^n has coordinates of about n log2(beta) bits
    and a value below 1, so a = c x.a + e, b = c x.b cancel heavily. The value
    (a + b beta)/d, irrational as b != 0, lies strictly between the midpoints
    from quad_float's result f to both neighbouring floats: each midpoint is
    an exact P/Q, and value - P/Q has the sign of (a Q - P d) + b Q beta."""
    x = QuadNum(params.a0, -1, params) ** n
    a, b = c * x.a + e, c * x.b
    f = quad_float(a, b, d, params)
    for side, g in ((1, math.nextafter(f, -math.inf)), (-1, math.nextafter(f, math.inf))):
        P, Q = ((Fraction(f) + Fraction(g)) / 2).as_integer_ratio()
        assert _sign(a * Q - P * d, b * Q, params) == side
