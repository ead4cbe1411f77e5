"""Exact arithmetic in the quadratic field Q(beta), beta the positive root of
beta^2 = a0*beta + a1 with integers a0 >= a1 >= 1.

Every element is represented uniquely as (a + b*beta)/d with integers a, b
and d > 0, gcd(a, b, d) = 1; all arithmetic is on plain ints.
Ordering and integer parts are decided in integer arithmetic, without
floats.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


class BetaParams:
    """The pair (a0, a1) defining beta^2 = a0*beta + a1. There is one
    immutable instance per pair, so `is` decides whether two fields agree."""

    __slots__ = ("a0", "a1", "_hash")
    _interned: dict = {}

    def __new__(cls, a0: int, a1: int):
        # validated before the lookup, which would take (True, True) for (1, 1)
        if not (type(a0) is int and type(a1) is int):  # a bool is refused
            raise TypeError("a0 and a1 must be integers")
        if not a0 >= a1 >= 1:
            raise ValueError("need a0 >= a1 >= 1, got a0=%s a1=%s" % (a0, a1))
        self = cls._interned.get((a0, a1))
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "a0", a0)
            object.__setattr__(self, "a1", a1)
            # not id-based, so element hashes and set orders are the same in every run
            object.__setattr__(self, "_hash", hash((a0, a1)))
            self = cls._interned.setdefault((a0, a1), self)
        return self

    def __setattr__(self, *args):
        raise AttributeError("BetaParams is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # copies and unpickling return the interned instance
        return BetaParams, (self.a0, self.a1)

    def __repr__(self):
        return "BetaParams(a0=%d, a1=%d)" % (self.a0, self.a1)

    @property
    def disc(self) -> int:
        # discriminant of t^2 - a0 t - a1; never a perfect square under a0 >= a1 >= 1
        return self.a0 * self.a0 + 4 * self.a1

    def beta(self) -> "QuadNum":
        return QuadNum(0, 1, self)

    def power(self, n: int) -> "QuadNum":
        """beta**n for any integer n, cached per (params, n)."""
        return _beta_power(self, n)

    def beta_float(self) -> float:
        """beta rounded to the nearest float."""
        return float(self.power(1))

    def one(self) -> "QuadNum":
        return QuadNum(1, 0, self)

    def zero(self) -> "QuadNum":
        return QuadNum(0, 0, self)

    def rational(self, value) -> "QuadNum":
        return QuadNum(Fraction(value), 0, self)


@lru_cache(maxsize=None)
def _beta_power(params: BetaParams, n: int) -> "QuadNum":
    return params.beta() ** n


@lru_cache(maxsize=64)
def _scaled_isqrt(D: int, m: int) -> int:
    """floor(sqrt(D) * 2^m), constant per field and precision."""
    return isqrt(D << (2 * m))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (type(x),))


def _raw(a: int, b: int, d: int, params: BetaParams) -> "QuadNum":
    """(a + b*beta)/d from a triple that is already normalised."""
    x = object.__new__(QuadNum)
    x.a, x.b, x.d, x.params = a, b, d, params
    return x


def _make(a: int, b: int, d: int, params: BetaParams) -> "QuadNum":
    """(a + b*beta)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    return _raw(a // g, b // g, d // g, params)


def _sign(a: int, b: int, params: BetaParams) -> int:
    """Exact sign of a + b*beta."""
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    # here r = -a/b > 0, and beta > r iff r^2 - a0 r - a1 < 0 (beta is the
    # positive root), i.e. a^2 + a0 a b - a1 b^2 < 0 after scaling by b^2
    f = a * a + params.a0 * a * b - params.a1 * b * b
    return sb if f < 0 else -sb  # equality impossible: beta is irrational


class QuadNum:
    """An element (a + b*beta)/d of Q(beta) with exact field arithmetic.

    The integer triple is normalised (d > 0, gcd(a, b, d) = 1), so equal
    values have equal triples. The rational coordinates p = a/d and
    q = b/d of p + q*beta are available as the Fractions `.p` and `.q`.
    """

    __slots__ = ("a", "b", "d", "params")

    def __init__(self, p, q, params: BetaParams):
        if type(p) is int and type(q) is int:
            self.a, self.b, self.d = p, q, 1
        else:
            p, q = _as_fraction(p), _as_fraction(q)
            # with d = lcm of the reduced denominators, gcd(a, b, d) = 1
            dp, dq = p.denominator, q.denominator
            d = dp // gcd(dp, dq) * dq
            self.a, self.b, self.d = p.numerator * (d // dp), q.numerator * (d // dq), d
        self.params = params

    @property
    def p(self) -> Fraction:
        """The rational part a/d."""
        return Fraction(self.a, self.d)

    @property
    def q(self) -> Fraction:
        """The beta coefficient b/d."""
        return Fraction(self.b, self.d)

    # -- coercion helpers -------------------------------------------------

    def _coerce(self, other) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.params is not self.params:
                raise ValueError("mixing QuadNum values from different fields: %s vs %s"
                                 % (self.params, other.params))
            return other
        if isinstance(other, int):
            return _raw(other, 0, 1, self.params)
        if isinstance(other, Fraction):
            return _raw(other.numerator, 0, other.denominator, self.params)
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, od = self.d, o.d
        return _make(self.a * od + o.a * d, self.b * od + o.b * d, d * od, self.params)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, od = self.d, o.d
        return _make(self.a * od - o.a * d, self.b * od - o.b * d, d * od, self.params)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d, self.params)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a + b beta)(oa + ob beta) with beta^2 = a0 beta + a1
        a, b, oa, ob, params = self.a, self.b, o.a, o.b, self.params
        cross = b * ob
        return _make(a * oa + cross * params.a1, a * ob + b * oa + cross * params.a0,
                     self.d * o.d, params)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        # d/(a + b beta) = d (a + a0 b - b beta) / (a^2 + a0 a b - a1 b^2)
        a, b, d, params = self.a, self.b, self.d, self.params
        n = a * a + params.a0 * a * b - params.a1 * b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(beta)")
        if n < 0:
            n, d = -n, -d
        return _make(d * (a + params.a0 * b), -d * b, n, params)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = _raw(1, 0, 1, self.params)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of (a + b*beta)/d, which is the sign of a + b*beta."""
        return _sign(self.a, self.b, self.params)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            return (self.a == other.a and self.b == other.b and self.d == other.d
                    and self.params is other.params)
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and self.d == other.denominator and self.a == other.numerator
        return NotImplemented

    def __hash__(self):
        # a rational element hashes like the int or Fraction it equals
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d, self.params))

    def _cmp(self, other) -> int:
        """Sign of self - other, from its unnormalised form over d * o.d."""
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError("cannot order QuadNum and %s" % type(other).__name__)
        d, od = self.d, o.d
        return _sign(self.a * od - o.a * d, self.b * od - o.b * d, self.params)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions ---------------------------------------------------------

    def floor(self) -> int:
        """The unique integer m with m <= self < m+1."""
        if self.b == 0:
            return self.a // self.d
        # self = (r + b*sqrt(D))/(2d) with b*sqrt(D) irrational, whose floor is
        # isqrt(b^2 D) or -isqrt(b^2 D) - 1; floor(y/(2d)) = floor(floor(y)/(2d))
        root = isqrt(self.b * self.b * self.params.disc)
        r = 2 * self.a + self.params.a0 * self.b
        return (r + (root if self.b > 0 else -root - 1)) // (2 * self.d)

    def __float__(self) -> float:
        """The value as a float; beyond the float range it raises OverflowError,
        as float() of a large int does (to_decimal works at any size)."""
        return quad_float(self.a, self.b, self.d, self.params)

    def to_decimal(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` digits after the point."""
        if digits < 1:
            raise ValueError("digits must be >= 1, got %d" % digits)
        scale = 10 ** digits
        if self.b == 0:
            n = round(self.p * scale)  # half-even on exact rationals
        else:
            n = (self * scale + Fraction(1, 2)).floor()  # never a tie: irrational
        sign = "-" if n < 0 else ""
        ip, fp = divmod(abs(n), scale)
        return "%s%d.%0*d" % (sign, ip, digits, fp)

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        return "QuadNum(%s + %s*beta; a0=%d, a1=%d)" % (
            self.p, self.q, self.params.a0, self.params.a1)

    def to_string(self) -> str:
        """Exact string form "p/q" or "p/q+r/s*beta" (lossless)."""
        if self.q == 0:
            return str(self.p)
        qs = str(abs(self.q)) + "*beta"
        op = "+" if self.q > 0 else "-"
        return "%s%s%s" % (self.p, op, qs)


def quad_float(a: int, b: int, d: int, params: BetaParams) -> float:
    """(a + b*beta)/d as a float for any d > 0; (ga, gb, gd) gives the same
    float, as n and the divisor below both scale by g."""
    # (r + b*sqrt(D))/(2d), r = 2a + a0*b, with sqrt(D) in an interval narrowed until
    # both ends round to one float; a/d + (b/d)*beta cancels when a, b are large and opposite.
    if b == 0:
        return a / d
    r = 2 * a + params.a0 * b
    D = params.disc
    m = 64
    while True:
        # sqrt(D) within 2^-m, so n / 2^m is within |b| / 2^m of r + b*sqrt(D); where
        # both ends round to one float (int / int rounds correctly), so does the value
        n, den = (r << m) + b * _scaled_isqrt(D, m), (2 * d) << m
        if abs(n) > abs(b) << 53 and (n - abs(b)) / den == (n + abs(b)) / den:
            return n / den
        m *= 2


def quad_float_outward(a: int, b: int, d: int, params: BetaParams) -> tuple[float, float]:
    """Floats lo <= (a + b*beta)/d <= hi: the nearest float, and the next one out."""
    f = quad_float(a, b, d, params)
    n, m = f.as_integer_ratio()
    side = _sign(a * m - n * d, b * m, params)  # the sign of the value minus f
    return (math.nextafter(f, -math.inf) if side < 0 else f,
            math.nextafter(f, math.inf) if side > 0 else f)


def affine_horner(num, den: int, scale: QuadNum, shift: QuadNum,
                  factor: QuadNum | None = None) -> tuple[list, int]:
    """Integer pairs and denominator, not reduced, of the polynomial
    x -> factor * sum_i c_i (scale*x + shift)^i with c_i = (u_i + v_i beta)/den
    for (u_i, v_i) = num[i] (ascending, num not empty), factor 1 when None.

    Horner on integer pairs over one denominator: with E = lcm(d_scale,
    d_shift), it is sum_i (u_i + v_i beta) E^(n-i) (E shift + E scale x)^i
    / (den E^n); the output pairs are multiplied by the factor's pair."""
    params = scale.params
    a0, a1 = params.a0, params.a1
    E = math.lcm(scale.d, shift.d)
    sa, sb = scale.a * (E // scale.d), scale.b * (E // scale.d)
    ha, hb = shift.a * (E // shift.d), shift.b * (E // shift.d)
    acc, w = [], 1  # w = E^(n-i) at coefficient i
    for cu, cv in reversed(num):
        # acc <- acc*(H + S x) + (cu + cv beta) E^(n-i), with beta^2 = a0 beta + a1
        out, pu, pv = [], 0, 0  # (pu, pv): the previous entry times S
        for u, v in acc:
            cross = v * hb
            out.append((u * ha + cross * a1 + pu, u * hb + v * ha + cross * a0 + pv))
            cross = v * sb
            pu, pv = u * sa + cross * a1, u * sb + v * sa + cross * a0
        out.append((pu, pv))
        out[0] = (out[0][0] + cu * w, out[0][1] + cv * w)
        acc, w = out, w * E
    den *= w // E
    if factor is not None:
        fa, fb, den = factor.a, factor.b, den * factor.d
        acc = [(u * fa + v * fb * a1, u * fb + v * fa + v * fb * a0) for u, v in acc]
    return acc, den


# "p", "p+q*beta" or "p-q*beta" as QuadNum.to_string writes them, or "q*beta"
_QUADNUM = re.compile(r"([+-]?{0})(?:([+-]{0})\*beta)?|([+-]?{0})\*beta".format(
    r"[0-9]+(?:/[0-9]+)?"))  # p and q: an integer or a/b


def quadnum_from_string(text: str, params: BetaParams) -> QuadNum:
    """Parse the output of QuadNum.to_string, or a bare "q*beta"; anything
    else raises ValueError."""
    match = _QUADNUM.fullmatch(text.strip())
    if match is None:
        raise ValueError("malformed Q(beta) string %r" % text)
    try:  # the groups: p, q after p, and a bare q
        return QuadNum(Fraction(match[1] or 0), Fraction(match[2] or match[3] or 0), params)
    except ZeroDivisionError:  # "1/0"
        raise ValueError("malformed Q(beta) string %r: zero denominator" % text) from None
