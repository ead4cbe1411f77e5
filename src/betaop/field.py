"""Exact arithmetic in the quadratic field Q(beta), beta the positive root of
beta^2 = a0*beta + a1 with integers a0 >= a1 >= 1.

Every element is represented uniquely as (a + b*beta)/d with integers a, b
and d > 0, gcd(a, b, d) = 1; all arithmetic is on plain ints.
Ordering and integer parts are decided in integer arithmetic, without
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


@dataclass(frozen=True)
class BetaParams:
    """The pair (a0, a1) defining beta^2 = a0*beta + a1."""

    a0: int
    a1: int

    def __post_init__(self):
        if not (isinstance(self.a0, int) and isinstance(self.a1, int)):
            raise TypeError("a0 and a1 must be integers")
        if not self.a0 >= self.a1 >= 1:
            raise ValueError("need a0 >= a1 >= 1, got a0=%s a1=%s" % (self.a0, self.a1))

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
        return (self.a0 + math.sqrt(self.disc)) / 2.0

    def one(self) -> "QuadNum":
        return QuadNum(1, 0, self)

    def zero(self) -> "QuadNum":
        return QuadNum(0, 0, self)

    def rational(self, value) -> "QuadNum":
        return QuadNum(Fraction(value), 0, self)


@lru_cache(maxsize=None)
def _beta_power(params: BetaParams, n: int) -> "QuadNum":
    return params.beta() ** n


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
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d, params)


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
            if other.params is not self.params and other.params != self.params:
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
        if d == od:
            return _make(self.a + o.a, self.b + o.b, d, self.params)
        return _make(self.a * od + o.a * d, self.b * od + o.b * d, d * od, self.params)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, od = self.d, o.d
        if d == od:
            return _make(self.a - o.a, self.b - o.b, d, self.params)
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
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        sb = 1 if b > 0 else -1
        if a == 0 or (a > 0) == (b > 0):
            return sb
        # here r = -a/b > 0, and beta > r iff r^2 - a0 r - a1 < 0 (beta is the
        # positive root), i.e. a^2 + a0 a b - a1 b^2 < 0 after scaling by b^2
        f = a * a + self.params.a0 * a * b - self.params.a1 * b * b
        return sb if f < 0 else -sb  # equality impossible: beta is irrational

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            return (self.a == other.a and self.b == other.b and self.d == other.d
                    and self.params == other.params)
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

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

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
        # Evaluate (r + b*sqrt(D))/(2d), r = 2a + a0*b, with an interval around
        # sqrt(D) that is narrowed until the result is correct to ~2^-60
        # relative error; the naive a/d + (b/d)*beta cancels catastrophically
        # when a and b are large with opposite signs.
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return a / d
        r = 2 * a + self.params.a0 * b
        D = self.params.disc
        m = 64
        while True:
            # sqrt(D) within 2^-m, so n / 2^m is within |b| / 2^m of r + b*sqrt(D)
            n = (r << m) + b * isqrt(D << (2 * m))
            if abs(n) > abs(b) << 60:
                return n / ((2 * d) << m)  # int / int rounds correctly
            m *= 2

    def to_decimal(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` digits after the point."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        scale = 10 ** digits
        if self.b == 0:
            n = round(self.p * scale)  # half-even on exact rationals
        else:
            # value = r + s*sqrt(D) with rational r, s
            r = Fraction(2 * self.a + self.params.a0 * self.b, 2 * self.d)
            s = Fraction(self.b, 2 * self.d)
            D = self.params.disc
            m = digits + 20
            while True:
                lo = Fraction(isqrt(D * 10 ** (2 * m)), 10 ** m)
                hi = lo + Fraction(1, 10 ** m)
                if s > 0:
                    vlo, vhi = r + s * lo, r + s * hi
                else:
                    vlo, vhi = r + s * hi, r + s * lo
                nlo = math.floor(vlo * scale + Fraction(1, 2))
                nhi = math.floor(vhi * scale + Fraction(1, 2))
                if nlo == nhi:
                    n = nlo
                    break
                m += 20
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


def quadnum_from_string(text: str, params: BetaParams) -> QuadNum:
    """Parse the output of QuadNum.to_string."""
    text = text.strip()
    if "beta" not in text:
        return QuadNum(Fraction(text), 0, params)
    head, tail = text.split("*beta")
    if tail:
        raise ValueError("malformed QuadNum string: %r" % text)
    # split head into rational part and beta coefficient at the last +/- that
    # is not a leading sign or part of a fraction
    for i in range(len(head) - 1, 0, -1):
        if head[i] in "+-" and head[i - 1] not in "+-/":
            p_part = head[:i]
            q_part = head[i] + head[i + 1:]
            break
    else:
        p_part, q_part = "0", head
    if q_part in ("+", "-"):
        q_part += "1"
    return QuadNum(Fraction(p_part), Fraction(q_part), params)
