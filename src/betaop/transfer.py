"""The transfer operator of the greedy beta-map T(x) = beta*x - floor(beta*x),
the integer-base analogue, a pointwise preimage-tree evaluator, and exact
greedy digit expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .field import BetaParams, QuadNum
from .piecewise import PiecewisePoly, _piecewise_sum

NODE_BUDGET = 10 ** 8  # pointwise_transfer_power refuses larger preimage trees


class BudgetExceeded(RuntimeError):
    """Raised when a computation outgrows its budget: preimage-tree nodes,
    pieces, partition gaps or integer-base terms."""


def apply_transfer(f: PiecewisePoly) -> PiecewisePoly:
    """Exact (1/beta) * sum_{j=0}^{a0} f((x+j)/beta), in canonical form.

    The j = a0 branch is automatically supported only on [0, a1/beta]
    because f vanishes outside [0,1]. Branches whose image misses the support
    of f come back as the zero function and drop out of the sum."""
    binv = f.params.power(-1)
    return _piecewise_sum([f.compose_affine(binv, shift, binv)
                           for shift in _branch_shifts(f.params)], f.params)


@lru_cache(maxsize=None)
def _branch_shifts(params: BetaParams) -> tuple[QuadNum, ...]:
    """The shifts j/beta, j = 0..a0, of the transfer branches."""
    return tuple(params.power(-1) * j for j in range(params.a0 + 1))


def apply_transfer_iterate(f: PiecewisePoly, k: int) -> PiecewisePoly:
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        f = apply_transfer(f)
    return f


def apply_integer_transfer(f: PiecewisePoly, q: int) -> PiecewisePoly:
    """Exact (1/q) * sum_{j=0}^{q-1} f((x+j)/q). Requires purely rational f."""
    if q < 2:
        raise ValueError("q must be >= 2")
    params = f.params
    if not all(b.is_rational() for b in f.breakpoints):
        raise ValueError("integer-base operator needs rational breakpoints")
    if any(v for p in f.pieces for _, v in p.num):
        raise ValueError("integer-base operator needs rational coefficients")
    qinv = params.rational(Fraction(1, q))
    return _piecewise_sum([f.compose_affine(qinv, params.rational(Fraction(j, q)), qinv)
                           for j in range(q)], params)


def pointwise_transfer_power(F, params: BetaParams, k: int, xs):
    """(P^k F)(x) by summing F over the depth-k inverse-branch tree.

    The branch (x+a0)/beta is admissible only while x <= a1/beta, the
    convention under which the operator formula is an identity on functions
    supported in [0,1]; at x = a1/beta the sum is the left limit of P^k F.
    Since T(1) = a1/beta, the node 1 leads back to the cut through a float
    node off by up to an ulp, so the cut allows 4 ulps. Accepts a scalar or
    an array of sample points; evaluation across sample points is
    embarrassingly parallel (vectorized). The tree may hold NODE_BUDGET
    nodes over all its levels.
    """
    import numpy as np
    if k < 0:
        raise ValueError("k must be >= 0")
    scalar = np.isscalar(xs) or isinstance(xs, QuadNum)
    if isinstance(xs, QuadNum):
        xs = [float(xs)]
    pts = np.atleast_1d(np.asarray(xs, dtype=float))
    if not ((pts >= 0) & (pts <= 1)).all():  # a NaN fails both tests
        raise ValueError("sample points must lie in [0,1]")
    beta = params.beta_float()
    cut = float(params.power(-1) * params.a1) * (1 + 2.0 ** -50)
    nodes = pts.copy()
    origin = np.arange(len(pts))
    total_nodes = len(nodes)
    for _ in range(k):
        # size the next level before building it: a refused level is never allocated
        adm = nodes <= cut
        n, size = len(nodes), params.a0 * len(nodes) + int(np.count_nonzero(adm))
        total_nodes += size
        if total_nodes > NODE_BUDGET:
            raise BudgetExceeded("preimage tree exceeded %d nodes" % NODE_BUDGET)
        level = np.empty(size)  # branch j = 0..a0 fills its slice with (x + j) / beta
        head = level[:params.a0 * n].reshape(params.a0, n)  # row j is branch j
        np.add(nodes, np.arange(params.a0)[:, None], out=head)
        top = np.compress(adm, nodes, out=level[params.a0 * n:])
        np.add(top, params.a0, out=top)
        nodes = np.divide(level, beta, out=level)  # drops the previous level
        level = np.empty(size, dtype=origin.dtype)
        level[:params.a0 * n].reshape(params.a0, n)[:] = origin
        origin = level  # drops the previous level; its copy is origin[:n]
        np.compress(adm, origin[:n], out=origin[params.a0 * n:])
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

    def partial_sum(self) -> QuadNum:
        """sum_i digits[i] * beta^-(i+1) over all digits, exact."""
        params = self.x0.params
        acc = params.zero()
        for i, d in enumerate(self.digits):
            acc = acc + params.power(-(i + 1)) * d
        return acc


def greedy_expand(x: QuadNum, k: int) -> GreedyDigits:
    """First k greedy digits of x in base beta, all exact."""
    if k < 1:
        raise ValueError("k must be >= 1")
    params = x.params
    if x.sign() < 0 or x >= 1:
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
