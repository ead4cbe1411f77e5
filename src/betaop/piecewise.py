"""Piecewise polynomials on [0,1] with QuadNum breakpoints and coefficients.

This is the function class that the exact transfer engine is closed on.
Functions are identified up to their values at the finitely many breakpoints;
evaluation at an interior breakpoint uses the right-limit piece (the left
piece at x=1), which is consistent with almost-everywhere identities.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cmp_to_key, lru_cache, partial, reduce
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

from .field import (BetaParams, QuadNum, _make, _raw, _sign, affine_horner,
                    quad_float_outward, quadnum_from_string)

DEGREE_CAP = 64
BERNSTEIN_MAPS = 128  # _bernstein_map keeps the maps of this many (interval, degree) keys
BRACKET_WIDTH = Fraction(1, 8)  # sup_norm_bracket splits while upper > (1 + this) lower


class Polynomial:
    """Dense polynomial over Q(beta), stored like FLINT's fmpq_poly: coefficient
    i is (u_i + v_i beta)/den for (u_i, v_i) = num[i], with den > 0, gcd(den, all
    u_i, v_i) = 1 and no trailing (0, 0). The form is unique, so == and hash compare
    it and the field. `.coeffs` is a read-only QuadNum view, built on each read."""

    __slots__ = ("num", "den", "params")

    def __init__(self, coeffs: Sequence[QuadNum], params: BetaParams):
        cs = list(coeffs)
        if any(c.params is not params for c in cs):
            raise ValueError("coefficient from another field")
        den = math.lcm(*(c.d for c in cs))
        self._reduce([(c.a * (den // c.d), c.b * (den // c.d)) for c in cs], den, params)

    def _reduce(self, num: list, den: int, params: BetaParams) -> "Polynomial":
        """Set the canonical form of num over den > 0: trim, then one gcd."""
        while num and num[-1] == (0, 0):
            num.pop()
        if len(num) > DEGREE_CAP + 1:
            raise ValueError("polynomial degree %d exceeds cap %d" % (len(num) - 1, DEGREE_CAP))
        g = math.gcd(den, *chain.from_iterable(num))
        if g != 1:
            den //= g
            num = [(u // g, v // g) for u, v in num]
        self.num, self.den, self.params = tuple(num), den, params
        return self

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, params: BetaParams) -> "Polynomial":
        return cls((), params)  # shared, as every Polynomial is immutable

    @classmethod
    def from_rationals(cls, coeffs: Iterable, params: BetaParams) -> "Polynomial":
        return cls([QuadNum(Fraction(c), 0, params) for c in coeffs], params)

    @property
    def coeffs(self) -> tuple[QuadNum, ...]:
        return tuple(_make(u, v, self.den, self.params) for u, v in self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.num == other.num
                and self.den == other.den and self.params is other.params)

    def __hash__(self):
        return hash((self.num, self.den, self.params))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if other.params is not self.params:
            raise ValueError("adding polynomials over different fields")
        return _pairs_sum([(self.num, self.den), (other.num, other.den)], self.params)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scaled(QuadNum(-1, 0, self.params))

    def scaled(self, factor) -> "Polynomial":
        if not isinstance(factor, QuadNum) or factor.params is not self.params:
            factor = self.params.one() * factor  # an int or Fraction, or the field error
        fa, fb, a0, a1 = factor.a, factor.b, self.params.a0, self.params.a1
        return _new()._reduce([(u * fa + v * fb * a1, u * fb + v * fa + v * fb * a0)
                               for u, v in self.num], self.den * factor.d, self.params)

    def eval(self, x: QuadNum) -> QuadNum:
        return horner(self.coeffs, x)

    def antiderivative(self) -> "Polynomial":
        L = math.lcm(*range(1, len(self.num) + 1))
        return _new()._reduce([(0, 0)] + [(u * (L // n), v * (L // n))
                                          for n, (u, v) in enumerate(self.num, 1)],
                              self.den * L, self.params)

    def compose_affine(self, scale: QuadNum, shift: QuadNum,
                       factor: QuadNum | None = None) -> "Polynomial":
        """The polynomial x -> factor * p(scale*x + shift), factor 1 when None.
        scale, shift and factor must lie in the field of p (ValueError)."""
        for c in (scale, shift, factor):
            if c is not None and c.params is not self.params:
                raise ValueError("composing with a value from another field")
        if not self.num:
            return self
        return _new()._reduce(*affine_horner(self.num, self.den, scale, shift, factor),
                              self.params)

    def __repr__(self):
        return "Polynomial([%s])" % ", ".join(c.to_string() for c in self.coeffs)


_new = partial(object.__new__, Polynomial)  # an empty instance for _reduce to fill


def _pairs_sum(terms: Sequence[tuple], params: BetaParams) -> Polynomial:
    """The canonical sum of terms (num, den), each the polynomial with coefficients
    (u_i + v_i beta)/den for (u_i, v_i) = num[i], not reduced; terms is not empty.
    One lcm of the denominators and one gcd."""
    den = math.lcm(*(d for _, d in terms))
    width = max(len(num) for num, _ in terms)
    us, vs = [0] * width, [0] * width
    for num, d in terms:
        m = den // d
        for i, (u, v) in enumerate(num):
            us[i] += u * m
            vs[i] += v * m
    return _new()._reduce(list(zip(us, vs)), den, params)


def _merged(bps: Sequence[QuadNum], pcs: Sequence[Polynomial]):
    """Breakpoints and pieces with adjacent identical pieces merged."""
    mb, mp = [bps[0]], []
    for b, p in zip(bps[1:], pcs):
        if mp and mp[-1] == p:
            mb[-1] = b
        else:
            mb.append(b)
            mp.append(p)
    return mb, mp


def horner(coeffs: Sequence, x):
    """sum_i coeffs[i] * x**i (ascending coefficients) on floats, mpf or
    arrays; a float result is rounded step by step as np.polyval rounds."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=BERNSTEIN_MAPS)
def _bernstein_map(a: tuple, b: tuple, n: int, params: BetaParams) -> tuple[tuple, int]:
    """Rows of integer pairs M_ij over D with L b_i = sum_j M_ij c_j: b_i are the
    Bernstein coefficients on [a, b] (normalised triples) of sum_j c_j x^j, of
    degree n, and L the lcm of the C(n, j). Row i is (u parts, v parts), each
    cut after its last non-zero entry."""
    a0, a1, E = params.a0, params.a1, math.lcm(a[2], b[2])
    A = (a[0] * (E // a[2]), a[1] * (E // a[2]))  # a = A/E and b - a = H/E
    H = (b[0] * (E // b[2]) - A[0], b[1] * (E // b[2]) - A[1])

    def times(x, y):  # the pair of (x_u + x_v beta)(y_u + y_v beta)
        cross = x[1] * y[1]
        return x[0] * y[0] + cross * a1, x[0] * y[1] + x[1] * y[0] + cross * a0
    cols, power = [], [(1, 0)]  # column j: (A + H t)^j E^(n-j) = (a + (b - a)t)^j E^n
    for j in range(n + 1):
        cols.append([[x * E ** (n - j) for x in part] for part in zip(*power)])
        lo, hi = [times(c, A) for c in power], [times(c, H) for c in power]
        power = [(x + y, z + w) for (x, z), (y, w) in zip(lo + [(0, 0)], [(0, 0)] + hi)]
    L = math.lcm(*(math.comb(n, k) for k in range(n + 1)))
    rows = []
    for i in range(n + 1):  # b_i = sum_k C(i, k)/C(n, k) times the t^k coefficient
        w = [math.comb(i, k) * L // math.comb(n, k) for k in range(i + 1)]
        mu, mv = [sum(map(mul, w, cu)) for cu, _ in cols], [sum(map(mul, w, cv)) for _, cv in cols]
        for part in (mu, mv):
            while part and not part[-1]:
                part.pop()
        rows.append((tuple(mu), tuple(mv)))
    return tuple(rows), E ** n * L


def _halves(b: list) -> tuple[list, list]:
    """de Casteljau at 1/2 on Bernstein pairs over den: the halves over den 2^n."""
    n, left, right = len(b) - 1, [], []
    for r in range(n + 1):
        left.append((b[0][0] << (n - r), b[0][1] << (n - r)))
        right.append((b[-1][0] << (n - r), b[-1][1] << (n - r)))
        b = [(u + x, v + y) for (u, v), (x, y) in zip(b, b[1:])]
    return left, right[::-1]


class PiecewisePoly:
    """Finitely many polynomial pieces over strictly increasing breakpoints
    covering [0,1]; canonical form merges adjacent identical pieces."""

    __slots__ = ("params", "breakpoints", "pieces")

    def __init__(self, params: BetaParams, breakpoints: Sequence[QuadNum],
                 pieces: Sequence[Polynomial]):
        self.params = params
        bps = list(breakpoints)
        pcs = list(pieces)
        if len(bps) != len(pcs) + 1:
            raise ValueError("need one piece per gap between breakpoints")
        if any(x.params is not params for x in chain(bps, pcs)):
            raise ValueError("breakpoint or piece from another field")
        if not bps[0].is_zero() or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        for a, b in zip(bps, bps[1:]):
            if b <= a:
                raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints, self.pieces = _merged(bps, pcs)

    @classmethod
    def _trusted(cls, params: BetaParams, breakpoints: list,
                 pieces: list) -> "PiecewisePoly":
        """Internal constructor without checks: the breakpoints run strictly
        increasing from 0 to 1 and adjacent pieces are distinct."""
        f = object.__new__(cls)
        f.params, f.breakpoints, f.pieces = params, breakpoints, pieces
        return f

    # -- constructors --------------------------------------------------------

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, params: BetaParams) -> "PiecewisePoly":
        # shared: no operation changes a function's breakpoints or pieces in place
        return cls._trusted(params, [params.zero(), params.one()], [Polynomial.zero(params)])

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "PiecewisePoly":
        params = poly.params
        return cls(params, [params.zero(), params.one()], [poly])

    @classmethod
    def on_interval(cls, poly: Polynomial, a: QuadNum, b: QuadNum) -> "PiecewisePoly":
        """poly on [a,b] within [0,1], zero elsewhere."""
        params = poly.params
        if a.params is not params or b.params is not params:
            raise ValueError("interval ends from another field")
        # signs of a, b - 1 and b - a, decided on the triples
        above_zero, above_one = a.sign(), _sign(b.a - b.d, b.b, params)
        if (above_zero < 0 or above_one > 0
                or _sign(b.a * a.d - a.a * b.d, b.b * a.d - a.b * b.d, params) <= 0):
            raise ValueError("interval must be non-degenerate inside [0,1]")
        bps, pcs = [params.zero()], []
        zp = Polynomial.zero(params)
        if above_zero > 0:
            bps.append(a)
            pcs.append(zp)
        bps.append(b)
        pcs.append(poly)
        if above_one < 0:
            bps.append(params.one())
            pcs.append(zp)
        # the checks above imply everything the public constructor checks
        return cls._trusted(params, *_merged(bps, pcs))

    # -- evaluation ----------------------------------------------------------

    def _piece_index(self, x: QuadNum) -> int:
        if x.sign() < 0 or x > 1:
            raise ValueError("argument outside [0,1]")
        # largest i < len(pieces) with breakpoints[i] <= x, so 1 is in the last piece
        return bisect_right(self.breakpoints, x, 1, len(self.pieces)) - 1

    def eval(self, x: QuadNum) -> QuadNum:
        return self.pieces[self._piece_index(x)].eval(x)

    def boundary_values(self) -> tuple[QuadNum, QuadNum]:
        """One-sided limits (f(0+), f(1-))."""
        return (self.pieces[0].eval(self.params.zero()),
                self.pieces[-1].eval(self.params.one()))

    # -- algebra -------------------------------------------------------------

    def _piece_on(self, a: QuadNum, b: QuadNum) -> Polynomial:
        mid = (a + b) * Fraction(1, 2)
        return self.pieces[self._piece_index(mid)]

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if other.params is not self.params:
            raise ValueError("adding functions over different fields")
        return _piecewise_sum((self, other), self.params)

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self + other.scaled(QuadNum(-1, 0, self.params))

    def scaled(self, factor) -> "PiecewisePoly":
        pcs = [p.scaled(factor) for p in self.pieces]
        return PiecewisePoly._trusted(self.params, *_merged(self.breakpoints, pcs))

    def is_zero(self) -> bool:
        # in canonical form the zero function is the one with a single zero piece
        return len(self.pieces) == 1 and not self.pieces[0].num

    def equal_ae(self, other: "PiecewisePoly") -> bool:
        """True iff self and other agree almost everywhere. The canonical form
        (strictly increasing breakpoints, adjacent pieces distinct, normalised
        coefficients) is unique, so this compares it directly."""
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def compose_affine(self, scale: QuadNum, shift: QuadNum,
                       factor: QuadNum | None = None) -> "PiecewisePoly":
        """The function x -> factor * f(scale*x + shift) on [0,1] (factor 1
        when None), extended by zero where scale*x + shift leaves [0,1].
        Requires scale > 0.

        Only the support [s, t] of f (from the first to the last non-zero
        piece) is pulled back; an image [shift, shift + scale] that misses it
        gives the zero function at once."""
        params = self.params
        if scale.params is not params or shift.params is not params:
            raise ValueError("composing with a value from another field")
        if scale.sign() <= 0:
            raise ValueError("scale must be positive")
        pieces, breakpoints = self.pieces, self.breakpoints
        # in canonical form no two zero pieces are adjacent
        first = 1 if pieces[0].is_zero() else 0
        last = len(pieces) - (2 if pieces[-1].is_zero() else 1)
        if first > last:
            return PiecewisePoly.zero(params)
        # cuts are decided in y = scale*x + shift on integer triples: with shift
        # and end = shift + scale over E, y - shift = (p + q beta)/(y.d E) has the
        # sign of p + q beta, and a cut y is pulled back by one product with 1/scale
        E = math.lcm(scale.d, shift.d)
        za, zb = shift.a * (E // shift.d), shift.b * (E // shift.d)
        ea, eb = za + scale.a * (E // scale.d), zb + scale.b * (E // scale.d)
        s, t = breakpoints[first], breakpoints[last + 1]
        if (_sign(t.a * E - za * t.d, t.b * E - zb * t.d, params) <= 0  # t <= shift
                or _sign(s.a * E - ea * s.d, s.b * E - eb * s.d, params) >= 0):  # s >= end
            return PiecewisePoly.zero(params)
        # the cuts are the breakpoints in (shift, end), breakpoints[lo:hi]
        lo, hi = first, last + 2
        while lo <= last and _sign((y := breakpoints[lo]).a * E - za * y.d,
                                   y.b * E - zb * y.d, params) <= 0:
            lo += 1
        while hi > lo and _sign((y := breakpoints[hi - 1]).a * E - ea * y.d,
                                  y.b * E - eb * y.d, params) >= 0:
            hi -= 1
        inv = scale.inverse()
        ia, ib, a0, a1 = inv.a, inv.b, params.a0, params.a1
        bps = [params.zero()]
        for y in breakpoints[lo:hi]:
            p, q = y.a * E - za * y.d, y.b * E - zb * y.d
            bps.append(_make(p * ia + q * ib * a1, p * ib + q * ia + q * ib * a0,
                             y.d * E * inv.d, params))
        bps.append(params.one())
        # output interval i carries input piece lo - 1 + i, or zero off the support
        zp, pcs = Polynomial.zero(params), []
        for m in range(lo - 1, hi):
            pcs.append(pieces[m].compose_affine(scale, shift, factor)
                       if first <= m <= last else zp)
        return PiecewisePoly._trusted(params, *_merged(bps, pcs))

    def integrate(self) -> QuadNum:
        """Exact integral over [0,1]."""
        total = self.params.zero()
        for a, b, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces):
            anti = p.antiderivative()
            total = total + anti.eval(b) - anti.eval(a)
        return total

    # -- numeric views ---------------------------------------------------------

    def eval_float(self, xs) -> list[float]:
        """Evaluate at float points (right-limit convention, left at 1); a
        point outside [0,1], nan too, raises ValueError as eval does."""
        xs = [float(x) for x in xs]
        if not all(0.0 <= x <= 1.0 for x in xs):
            raise ValueError("argument outside [0,1]")
        bps = [float(b) for b in self.breakpoints]
        coeffs = [[float(c) for c in p.coeffs] for p in self.pieces]
        n = len(self.pieces)
        return [horner(coeffs[bisect_right(bps, x, 1, n) - 1], x) for x in xs]

    def sup_norm_bracket(self) -> tuple[float, float]:
        """Certified floats lower <= sup|f| <= upper; upper > 0 for f != 0.
        Decided on integer pairs: max|b_i| of a piece's Bernstein coefficients
        bounds it, b_0 and b_n are its end values. The box of the largest bound
        is halved (de Casteljau) while that bound exceeds (1 + BRACKET_WIDTH)
        times the lower one; both bounds are rounded outward once."""
        params, boxes, lower = self.params, [], ((0, 0), 1)

        def larger(x, y):  # of x, y = ((u, v), d, ...), standing for (u + v beta)/d
            (xu, xv), xd, (yu, yv), yd = x[0], x[1], y[0], y[1]
            return y if _sign(yu * xd - xu * yd, yv * xd - xv * yd, params) > 0 else x

        def add(b, den):  # the box (max |b_i|, den, b) of Bernstein pairs b over den
            nonlocal lower
            size = [(u, v) if _sign(u, v, params) >= 0 else (-u, -v) for u, v in b]
            boxes.append((reduce(larger, [(m, 1) for m in size])[0], den, b))
            lower = larger(lower, (larger((size[0], 1), (size[-1], 1))[0], den))

        for a, b, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces):
            if p.num:  # L times its Bernstein coefficients, the pairs of sum_j M_ij c_j
                rows, D = _bernstein_map((a.a, a.b, a.d), (b.a, b.b, b.d), len(p.num) - 1, params)
                us, vs = [u for u, _ in p.num], [v for _, v in p.num]
                add([(sum(map(mul, mu, us)) + params.a1 * (t := sum(map(mul, mv, vs))),
                      sum(map(mul, mu, vs)) + sum(map(mul, mv, us)) + params.a0 * t)
                     for mu, mv in rows], p.den * D)
        wn, wd = BRACKET_WIDTH.numerator, BRACKET_WIDTH.denominator
        while True:  # top is lower itself for f = 0
            top, ((lu, lv), ld) = reduce(larger, boxes or [lower]), lower
            if larger(((lu * (wd + wn), lv * (wd + wn)), ld * wd), top) is not top:
                break
            boxes.remove(top)
            for half in _halves(top[2]):
                add(half, top[1] << (len(top[2]) - 1))
        lo = quad_float_outward(*lower[0], lower[1], params)
        # top is not below lower, so if not above it, one rounding serves both
        up = lo if larger(lower, top) is lower else quad_float_outward(*top[0], top[1], params)
        return lo[0], up[1]

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "a0": self.params.a0,
            "a1": self.params.a1,
            "breakpoints": [b.to_string() for b in self.breakpoints],
            "pieces": [[c.to_string() for c in p.coeffs] for p in self.pieces],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PiecewisePoly":
        """Inverse of to_json_dict; a document of another shape (a key
        missing, a string where a list belongs) raises TypeError."""
        def parse(value, what):
            if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
                raise TypeError("%s must be a list of strings" % what)
            return [quadnum_from_string(s, params) for s in value]

        missing = [k for k in ("a0", "a1", "breakpoints", "pieces") if k not in doc]
        if missing:
            raise TypeError("missing key %r" % missing[0])
        params = BetaParams(doc["a0"], doc["a1"])
        pcs = [Polynomial(parse(cs, "each piece"), params) for cs in doc["pieces"]]
        return cls(params, parse(doc["breakpoints"], "'breakpoints'"), pcs)

    def __repr__(self):
        return "PiecewisePoly(%d pieces on [0,1]; a0=%d, a1=%d)" % (
            len(self.pieces), self.params.a0, self.params.a1)


def combine(terms: Sequence[tuple[QuadNum, PiecewisePoly]]) -> PiecewisePoly:
    """Exact linear combination sum(c_i * f_i) in canonical form."""
    if not terms:
        raise ValueError("need at least one term")
    params = terms[0][1].params
    if any(f.params is not params for _, f in terms):
        raise ValueError("combining functions over different fields")
    return _piecewise_sum([f.scaled(c) for c, f in terms], params)


def _piecewise_sum(terms: Sequence[PiecewisePoly], params: BetaParams) -> PiecewisePoly:
    """The sum in canonical form of functions over params (not checked). Zero
    terms drop out and a lone term is returned as it is; otherwise _walk adds
    the pieces over each interval of the union of their breakpoints."""
    terms = [f for f in terms if not f.is_zero()]
    if len(terms) < 2:
        return terms[0] if terms else PiecewisePoly.zero(params)
    return _walk([(b.a, b.b, b.d, t) for t, f in enumerate(terms) for b in f.breakpoints[1:-1]],
                 [[(p.num, p.den) if p.num else None for p in f.pieces] for f in terms],
                 params)


def _walk(cuts: list, rows: Sequence[Sequence], params: BetaParams) -> PiecewisePoly:
    """The canonical function whose piece on each interval between the cuts
    is the sum of one term from each row. Row t lists a term (pairs, den), not
    reduced, or None for zero, per interval of its own, and a cut (a, b, d, t)
    moves row t on to its next term at x = (a + b beta)/d, a normalised
    triple. The cuts are sorted in place on the triples, one _sign each
    comparison; one walk over them sums each output piece with one lcm and
    one gcd, and adjacent identical pieces merge."""
    cuts.sort(key=cmp_to_key(lambda x, y: _sign(x[0] * y[2] - y[0] * x[2],
                                                 x[1] * y[2] - y[1] * x[2], params)))
    at, bps, pcs, last = [0] * len(rows), [params.zero()], [], None
    for a, b, d, t in cuts:
        if (a, b, d) != last:  # the cut closes the interval that starts at bps[-1]
            pcs.append(_column_sum(rows, at, params))
            bps.append(_raw(a, b, d, params))
            last = (a, b, d)
        at[t] += 1
    pcs.append(_column_sum(rows, at, params))
    bps.append(params.one())
    return PiecewisePoly._trusted(params, *_merged(bps, pcs))


def _column_sum(rows: Sequence[Sequence], at: Sequence[int], params: BetaParams) -> Polynomial:
    """The sum of the terms rows[t][at[t]], zero when all are None."""
    terms = [row[i] for row, i in zip(rows, at) if row[i] is not None]
    return _pairs_sum(terms, params) if terms else Polynomial.zero(params)
