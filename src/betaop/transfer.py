"""The transfer operator of the greedy beta-map T(x) = beta*x - floor(beta*x),
its Koopman dual, the integer-base analogue, a pointwise preimage-tree
evaluator, and exact greedy digit expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import BetaParams, QuadNum
from .piecewise import PiecewisePoly, Polynomial

DEFAULT_NODE_BUDGET = 10 ** 8


class BudgetExceeded(RuntimeError):
    """Raised when the preimage tree outgrows the configured node budget."""


def apply_transfer(f: PiecewisePoly) -> PiecewisePoly:
    """Exact (1/beta) * sum_{j=0}^{a0} f((x+j)/beta), in canonical form.

    The j = a0 branch is automatically supported only on [0, a1/beta]
    because f vanishes outside [0,1]. Branches whose image misses the support
    of f come back as the zero function and are left out of the sum."""
    params = f.params
    binv = params.power(-1)
    acc = None
    for j in range(params.a0 + 1):
        term = f.compose_affine(binv, binv * j)
        if not term.is_zero():
            acc = term if acc is None else acc + term
    return PiecewisePoly.zero(params) if acc is None else acc.scaled(binv)


def apply_transfer_iterate(f: PiecewisePoly, k: int) -> PiecewisePoly:
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        f = apply_transfer(f)
    return f


def apply_koopman(g: PiecewisePoly) -> PiecewisePoly:
    """Exact g(T(x)): on each branch [j/beta, (j+1)/beta) substitute beta*x - j."""
    params = g.params
    beta = params.beta()
    binv = beta.inverse()
    zero_q, one_q = params.zero(), params.one()
    bps = [zero_q]
    pcs = []
    for j in range(params.a0 + 1):
        left = binv * j
        right = binv * (j + 1)
        if (right - one_q).sign() > 0:
            right = one_q
        if (right - left).sign() <= 0:
            break
        # interior breakpoints of this branch: preimages (b+j)/beta
        cuts = []
        for b in g.breakpoints[1:-1]:
            x = (b + j) * binv
            if (x - left).sign() > 0 and (right - x).sign() > 0:
                cuts.append(x)
        seg_bps = [left] + cuts + [right]
        for a, b in zip(seg_bps, seg_bps[1:]):
            mid = (a + b) * Fraction(1, 2)
            piece = g.pieces[g._piece_index(mid * beta - j)]
            bps.append(b)
            pcs.append(piece.compose_affine(beta, QuadNum(-j, 0, params)))
    return PiecewisePoly(params, bps, pcs)


def apply_integer_transfer(f: PiecewisePoly, q: int) -> PiecewisePoly:
    """Exact (1/q) * sum_{j=0}^{q-1} f((x+j)/q). Requires purely rational f."""
    if q < 2:
        raise ValueError("q must be >= 2")
    params = f.params
    for b in f.breakpoints:
        if not b.is_rational():
            raise ValueError("integer-base operator needs rational breakpoints")
    for p in f.pieces:
        for c in p.coeffs:
            if not c.is_rational():
                raise ValueError("integer-base operator needs rational coefficients")
    qinv = QuadNum(Fraction(1, q), 0, params)
    acc = None
    for j in range(q):
        term = f.compose_affine(qinv, QuadNum(Fraction(j, q), 0, params))
        acc = term if acc is None else acc + term
    return acc.scaled(qinv)


def pointwise_transfer_power(F, params: BetaParams, k: int, xs,
                             node_budget: int = DEFAULT_NODE_BUDGET):
    """(P^k F)(x) by summing F over the depth-k inverse-branch tree.

    The branch (x+a0)/beta is admissible only while x <= a1/beta, the
    convention under which the operator formula is an identity on functions
    supported in [0,1]; at x = a1/beta the sum is the left limit of P^k F.
    Since T(1) = a1/beta, the node 1 leads back to the cut through a float
    node off by up to an ulp, so the cut allows 4 ulps. Accepts a scalar or
    an array of sample points; evaluation across sample points is
    embarrassingly parallel (vectorized).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    scalar = np.isscalar(xs) or isinstance(xs, QuadNum)
    if isinstance(xs, QuadNum):
        xs = [float(xs)]
    pts = np.atleast_1d(np.asarray(xs, dtype=float))
    if ((pts < 0) | (pts > 1)).any():
        raise ValueError("sample points must lie in [0,1]")
    beta = params.beta_float()
    cut = float(params.power(-1) * params.a1) * (1 + 2.0 ** -50)
    nodes = pts.copy()
    origin = np.arange(len(pts))
    total_nodes = len(nodes)
    for _ in range(k):
        full = [(nodes + j) / beta for j in range(params.a0)]
        adm = nodes <= cut
        top = (nodes[adm] + params.a0) / beta
        nodes = np.concatenate(full + [top])
        origin = np.concatenate([origin] * params.a0 + [origin[adm]])
        total_nodes += len(nodes)
        if total_nodes > node_budget:
            raise BudgetExceeded("preimage tree exceeded %d nodes" % node_budget)
    try:
        vals = np.asarray(F(nodes), dtype=float)
        if vals.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.asarray([F(x) for x in nodes], dtype=float)
    out = np.bincount(origin, weights=vals, minlength=len(pts)) / beta ** k
    return float(out[0]) if scalar else out


@dataclass
class GreedyDigits:
    """Exact greedy expansion data: digits[i] = floor(beta * orbit[i]) and
    orbit[i+1] = beta*orbit[i] - digits[i]."""

    x0: QuadNum
    digits: list[int]
    orbit: list[QuadNum]

    def partial_sum(self, upto: int | None = None) -> QuadNum:
        """sum_{i<upto} digits[i] * beta^-(i+1), exact."""
        n = len(self.digits) if upto is None else upto
        binv = self.x0.params.beta().inverse()
        acc = self.x0.params.zero()
        power = binv
        for d in self.digits[:n]:
            acc = acc + power * d
            power = power * binv
        return acc


def greedy_expand(x: QuadNum, k: int) -> GreedyDigits:
    """First k greedy digits of x in base beta, all exact."""
    if k < 1:
        raise ValueError("k must be >= 1")
    params = x.params
    if x.sign() < 0 or (x - 1).sign() >= 0:
        raise ValueError("x must lie in [0,1)")
    beta = params.beta()
    digits = []
    orbit = [x]
    cur = x
    for _ in range(k):
        y = beta * cur
        d = y.floor()
        digits.append(d)
        cur = y - d
        orbit.append(cur)
    return GreedyDigits(x0=x, digits=digits, orbit=orbit)
