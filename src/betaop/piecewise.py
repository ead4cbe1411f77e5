"""Piecewise polynomials on [0,1] with QuadNum breakpoints and coefficients.

This is the function class that the exact transfer engine is closed on.
Functions are identified up to their values at the finitely many breakpoints;
evaluation at an interior breakpoint uses the right-limit piece (the left
piece at x=1), which is consistent with almost-everywhere identities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .field import BetaParams, QuadNum, quadnum_from_string

DEGREE_CAP = 64


class Polynomial:
    """Dense polynomial over Q(beta), coefficients in ascending degree."""

    __slots__ = ("coeffs", "params")

    def __init__(self, coeffs: Sequence[QuadNum], params: BetaParams):
        # trim trailing zeros so the zero polynomial is the empty tuple
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        if len(cs) > DEGREE_CAP + 1:
            raise ValueError("polynomial degree %d exceeds cap %d" % (len(cs) - 1, DEGREE_CAP))
        self.coeffs = tuple(cs)
        self.params = params

    @classmethod
    def zero(cls, params: BetaParams) -> "Polynomial":
        return cls((), params)

    @classmethod
    def constant(cls, value: QuadNum) -> "Polynomial":
        return cls((value,), value.params)

    @classmethod
    def from_rationals(cls, coeffs: Iterable, params: BetaParams) -> "Polynomial":
        return cls([QuadNum(Fraction(c), 0, params) for c in coeffs], params)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out, self.params)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scaled(QuadNum(-1, 0, self.params))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.params)
        zero = QuadNum(0, 0, self.params)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out, self.params)

    def scaled(self, factor: QuadNum) -> "Polynomial":
        return Polynomial([c * factor for c in self.coeffs], self.params)

    def eval(self, x: QuadNum) -> QuadNum:
        acc = QuadNum(0, 0, self.params)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([c * n for n, c in enumerate(self.coeffs)][1:], self.params)

    def antiderivative(self) -> "Polynomial":
        zero = QuadNum(0, 0, self.params)
        return Polynomial([zero] + [c * Fraction(1, n + 1) for n, c in enumerate(self.coeffs)],
                          self.params)

    def compose_affine(self, scale: QuadNum, shift: QuadNum) -> "Polynomial":
        """The polynomial x -> p(scale*x + shift)."""
        if not self.coeffs:
            return self
        # Horner on coefficient lists: acc <- acc*(shift + scale*x) + c
        acc = [self.coeffs[-1]]
        for c in reversed(self.coeffs[:-1]):
            acc = ([acc[0] * shift + c]
                   + [a * shift + b * scale for a, b in zip(acc[1:], acc)]
                   + [acc[-1] * scale])
        return Polynomial(acc, self.params)

    def float_coeffs(self) -> np.ndarray:
        # descending order for np.polyval
        return np.array([float(c) for c in reversed(self.coeffs)], dtype=float) \
            if self.coeffs else np.zeros(1)

    def __repr__(self):
        return "Polynomial([%s])" % ", ".join(c.to_string() for c in self.coeffs)


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
        if not bps[0].is_zero() or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        for a, b in zip(bps, bps[1:]):
            if (b - a).sign() <= 0:
                raise ValueError("breakpoints must be strictly increasing")
        # merge adjacent identical pieces
        mb, mp = [bps[0]], []
        for b, p in zip(bps[1:], pcs):
            if mp and mp[-1] == p:
                mb[-1] = b
            else:
                mb.append(b)
                mp.append(p)
        self.breakpoints = mb
        self.pieces = mp

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, params: BetaParams) -> "PiecewisePoly":
        z = params.zero()
        return cls(params, [z, params.one()], [Polynomial.zero(params)])

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "PiecewisePoly":
        params = poly.params
        return cls(params, [params.zero(), params.one()], [poly])

    @classmethod
    def on_interval(cls, poly: Polynomial, a: QuadNum, b: QuadNum) -> "PiecewisePoly":
        """poly on [a,b] within [0,1], zero elsewhere."""
        params = poly.params
        zero_q, one_q = params.zero(), params.one()
        if a.sign() < 0 or (b - one_q).sign() > 0 or (b - a).sign() <= 0:
            raise ValueError("interval must be non-degenerate inside [0,1]")
        bps, pcs = [zero_q], []
        zp = Polynomial.zero(params)
        if a.sign() > 0:
            bps.append(a)
            pcs.append(zp)
        bps.append(b)
        pcs.append(poly)
        if (one_q - b).sign() > 0:
            bps.append(one_q)
            pcs.append(zp)
        return cls(params, bps, pcs)

    @classmethod
    def indicator(cls, params: BetaParams, a: QuadNum, b: QuadNum) -> "PiecewisePoly":
        return cls.on_interval(Polynomial.constant(params.one()), a, b)

    # -- evaluation ----------------------------------------------------------

    def _piece_index(self, x: QuadNum) -> int:
        if x.sign() < 0 or (x - 1).sign() > 0:
            raise ValueError("argument outside [0,1]")
        if (x - 1).sign() == 0:
            return len(self.pieces) - 1
        lo, hi = 0, len(self.pieces) - 1
        # largest i with breakpoints[i] <= x
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if (x - self.breakpoints[mid]).sign() >= 0:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def eval(self, x: QuadNum) -> QuadNum:
        return self.pieces[self._piece_index(x)].eval(x)

    def __call__(self, x: QuadNum) -> QuadNum:
        return self.eval(x)

    def boundary_values(self) -> tuple[QuadNum, QuadNum]:
        """One-sided limits (f(0+), f(1-))."""
        return (self.pieces[0].eval(self.params.zero()),
                self.pieces[-1].eval(self.params.one()))

    # -- algebra -------------------------------------------------------------

    def _piece_on(self, a: QuadNum, b: QuadNum) -> Polynomial:
        mid = (a + b) * Fraction(1, 2)
        return self.pieces[self._piece_index(mid)]

    def _zip_pieces(self, other: "PiecewisePoly"):
        """Merged breakpoints plus, per merged interval, the pair of piece
        indices covering it, by a single linear walk (no binary searches)."""
        bps = [self.breakpoints[0]]
        pairs = []
        i = j = 0
        while True:
            an = self.breakpoints[i + 1]
            bn = other.breakpoints[j + 1]
            s = (an - bn).sign()
            pairs.append((i, j))
            bps.append(an if s <= 0 else bn)
            if s <= 0:
                i += 1
            if s >= 0:
                j += 1
            if i == len(self.pieces) and j == len(other.pieces):
                return bps, pairs

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        bps, pairs = self._zip_pieces(other)
        pcs = [self.pieces[i] + other.pieces[j] for i, j in pairs]
        return PiecewisePoly(self.params, bps, pcs)

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self + other.scaled(QuadNum(-1, 0, self.params))

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        bps, pairs = self._zip_pieces(other)
        pcs = [self.pieces[i] * other.pieces[j] for i, j in pairs]
        return PiecewisePoly(self.params, bps, pcs)

    def scaled(self, factor) -> "PiecewisePoly":
        if isinstance(factor, (int, Fraction)):
            factor = QuadNum(factor, 0, self.params)
        return PiecewisePoly(self.params, self.breakpoints,
                             [p.scaled(factor) for p in self.pieces])

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.pieces)

    def equal_ae(self, other: "PiecewisePoly") -> bool:
        """True iff self and other agree almost everywhere. The canonical form
        (strictly increasing breakpoints, adjacent pieces distinct, normalised
        coefficients) is unique, so this compares it directly."""
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def compose_affine(self, scale: QuadNum, shift: QuadNum) -> "PiecewisePoly":
        """The function x -> f(scale*x + shift) on [0,1], extended by zero
        where scale*x + shift leaves [0,1]. Requires scale > 0.

        Only the support [s, t] of f (from the first to the last non-zero
        piece) is pulled back; an image [shift, shift + scale] that misses it
        gives the zero function at once."""
        if scale.sign() <= 0:
            raise ValueError("scale must be positive")
        live = [i for i, p in enumerate(self.pieces) if not p.is_zero()]
        if not live:
            return PiecewisePoly.zero(self.params)
        first, last = live[0], live[-1]
        s, t = self.breakpoints[first], self.breakpoints[last + 1]
        if (shift - t).sign() >= 0 or (shift + scale - s).sign() <= 0:
            return PiecewisePoly.zero(self.params)
        inv = scale.inverse()
        zero_q, one_q = self.params.zero(), self.params.one()
        # support in x: scale*x+shift in [s, t]
        lo = (s - shift) * inv
        hi = (t - shift) * inv
        if lo.sign() < 0:
            lo = zero_q
        if (hi - one_q).sign() > 0:
            hi = one_q
        # interior cuts are pullbacks of the breakpoints inside the support;
        # the input piece index on [cut_m, next) is m, so no per-segment
        # search is needed
        cuts = []
        for m in range(first + 1, last + 1):
            x = (self.breakpoints[m] - shift) * inv
            if (x - lo).sign() > 0 and (hi - x).sign() > 0:
                cuts.append((x, m))
        if cuts:
            start_idx = cuts[0][1] - 1
        else:
            mid = (lo + hi) * Fraction(1, 2)
            start_idx = self._piece_index(mid * scale + shift)
        zp = Polynomial.zero(self.params)
        bps, pcs = [zero_q], []
        if lo.sign() > 0:
            bps.append(lo)
            pcs.append(zp)
        idx = start_idx
        for x, m in cuts:
            bps.append(x)
            pcs.append(self.pieces[idx].compose_affine(scale, shift))
            idx = m
        bps.append(hi)
        pcs.append(self.pieces[idx].compose_affine(scale, shift))
        if (one_q - hi).sign() > 0:
            bps.append(one_q)
            pcs.append(zp)
        return PiecewisePoly(self.params, bps, pcs)

    def integrate(self) -> QuadNum:
        """Exact integral over [0,1]."""
        total = self.params.zero()
        for a, b, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces):
            anti = p.antiderivative()
            total = total + anti.eval(b) - anti.eval(a)
        return total

    # -- numeric views ---------------------------------------------------------

    def eval_float(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at float points (right-limit convention, left at 1)."""
        bps = np.array([float(b) for b in self.breakpoints])
        idx = np.clip(np.searchsorted(bps, xs, side="right") - 1, 0, len(self.pieces) - 1)
        out = np.empty_like(np.asarray(xs, dtype=float))
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[mask] = np.polyval(piece.float_coeffs(), np.asarray(xs)[mask])
        return out

    def sup_norm_bracket(self, samples_per_piece: int = 32) -> tuple[float, float]:
        """Certified bracket (lower, upper) for the sup norm.

        Lower: max |f| over per-piece Chebyshev samples plus one-sided
        endpoint limits. Upper: lower + mean-value slack from a coefficient
        bound on |f'| times the largest sample gap.
        """
        if samples_per_piece < 2:
            raise ValueError("samples_per_piece must be >= 2")
        lower = 0.0
        upper_slack = 0.0
        theta = np.cos(np.pi * (2 * np.arange(samples_per_piece) + 1)
                       / (2 * samples_per_piece))
        for a, b, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces):
            if p.is_zero():
                continue
            af, bf = float(a), float(b)
            xs = np.sort(np.concatenate((
                [af, bf], (af + bf) / 2 + (bf - af) / 2 * theta)))
            vals = np.abs(np.polyval(p.float_coeffs(), xs))
            piece_lower = float(vals.max())
            dcoeffs = p.derivative().float_coeffs()
            dbound = float(np.abs(dcoeffs).sum())  # valid since [a,b] in [0,1]
            gap = float(np.diff(xs).max()) if len(xs) > 1 else bf - af
            lower = max(lower, piece_lower)
            upper_slack = max(upper_slack, dbound * gap / 2)
        return lower, lower + upper_slack

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
        params = BetaParams(doc["a0"], doc["a1"])
        bps = [quadnum_from_string(s, params) for s in doc["breakpoints"]]
        pcs = [Polynomial([quadnum_from_string(s, params) for s in cs], params)
               for cs in doc["pieces"]]
        return cls(params, bps, pcs)

    def __repr__(self):
        return "PiecewisePoly(%d pieces on [0,1]; a0=%d, a1=%d)" % (
            len(self.pieces), self.params.a0, self.params.a1)


def combine(terms: Sequence[tuple[QuadNum, PiecewisePoly]]) -> PiecewisePoly:
    """Exact linear combination sum(c_i * f_i) in canonical form."""
    if not terms:
        raise ValueError("need at least one term")
    acc = terms[0][1].scaled(terms[0][0])
    for c, f in terms[1:]:
        acc = acc + f.scaled(c)
    return acc
