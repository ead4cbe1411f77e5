"""The transfer operator of the greedy beta-map T(x) = beta*x - floor(beta*x),
the integer-base analogue, a pointwise preimage-tree evaluator, and exact
greedy digit expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul

from .field import BetaParams, QuadNum, _raw, _sign
from .piecewise import PiecewisePoly, Polynomial, _bernstein_box, _piecewise_sum, _walk

NODE_BUDGET = 10 ** 8  # pointwise_transfer_power refuses larger preimage trees
BRANCH_BUDGET = 10 ** 5  # apply_transfer refuses more branches, a0 + 1


class BudgetExceeded(RuntimeError):
    """Raised when a computation outgrows its budget: preimage-tree nodes,
    pieces, partition gaps or integer-base terms."""


def apply_transfer(f: PiecewisePoly) -> PiecewisePoly:
    """Exact (1/beta) * sum_{j=0}^{a0} f((x+j)/beta), in canonical form.

    The j = a0 branch counts only for x < a1/beta, where (x+a0)/beta < 1:
    f vanishes outside [0,1].

    A function with at most one non-zero piece (a collapse block, the zero
    function) is pulled back branch by branch, one compose_affine per branch,
    and _piecewise_sum adds the branches; a branch whose image misses the
    support comes back as the zero function and drops out. Any other function
    goes through _transfer_sweep, which pulls each non-zero piece back once
    and hands the branches to piecewise._walk, the walk of _piecewise_sum."""
    params = f.params
    shifts = _branch_shifts(params)  # refuses more than BRANCH_BUDGET branches
    if sum(1 for p in f.pieces if p.num) < 2:
        binv = params.power(-1)
        return _piecewise_sum([f.compose_affine(binv, shift, binv) for shift in shifts], params)
    return _transfer_sweep(f)


def _transfer_sweep(f: PiecewisePoly) -> PiecewisePoly:
    """apply_transfer in one scan of the breakpoints of f.

    An interior breakpoint y of f with j = floor(beta*y) cuts branch j at
    x = beta*y - j, decided on integer triples; at y = j/beta that is 0, and
    branch j starts there instead. The top branch j = a0 ends at a1/beta.
    Each non-zero piece p is pulled back once, to q(x) = p(x/beta)/beta on
    integer pairs, and branch j reads q(x + j), a Taylor shift by the integer
    j. rows[j] lists these terms in the order branch j reads them, and _walk
    sums the branches over the output cuts."""
    params, bps = f.params, f.breakpoints
    a0, a1 = params.a0, params.a1
    pulled = [_pull_back(p) if p.num else None for p in f.pieces]
    # row j starts on the piece holding j/beta+: at the first breakpoint y
    # with beta*y >= j, the piece left of y, or the one right of y if y = j/beta
    rows, cuts, j = [[pulled[0]]], [], 0
    for k in range(1, len(pulled)):
        y = bps[k]
        u, v, d = a1 * y.b, y.a + a0 * y.b, y.d  # beta*y = (u + v beta)/d
        while j < a0 and (s := _sign(u - (j + 1) * d, v, params)) >= 0:  # beta*y >= j + 1
            j += 1
            rows.append([_shifted(pulled[k - (s > 0)], j)])
        u -= j * d
        if u or v:  # not y = j/beta, where row j has begun on piece k
            g = gcd(u, v, d)
            cuts.append((u // g, v // g, d // g, j))
            rows[j].append(_shifted(pulled[k], j))
    rows += [[_shifted(pulled[-1], i)] for i in range(j + 1, a0 + 1)]
    cuts.append((-a0, 1, 1, a0))  # a1/beta = beta - a0, past which (x + a0)/beta > 1
    rows[a0].append(None)  # the zero past 1
    return _walk(cuts, rows, params)


@lru_cache(maxsize=None)
def _inverse_powers(params: BetaParams, n: int) -> tuple[tuple, int]:
    """beta^-(i+1), i = 0..n, as integer pairs over one denominator a1^(n+1)."""
    den = params.a1 ** (n + 1)
    return tuple((w.a * (den // w.d), w.b * (den // w.d))
                 for w in map(params.power, range(-1, -n - 2, -1))), den


def _pull_back(p) -> tuple[list, int]:
    """p(x/beta)/beta for a Polynomial p, as a term (pairs, den), not reduced:
    coefficient i of p times beta^-(i+1)."""
    ws, wden = _inverse_powers(p.params, len(p.num) - 1)
    a0, a1, out = p.params.a0, p.params.a1, []
    for (u, v), (s, t) in zip(p.num, ws):
        cross = v * t
        out.append((u * s + cross * a1, u * t + v * s + cross * a0))
    return out, p.den * wden


def _shifted(term, j: int):
    """term(x + j) for an integer j >= 0, by a Taylor shift on the u and v lists
    of its pairs; a zero term (None) and j = 0 return the term itself."""
    if term is None or not j:
        return term
    num, den = term
    us, vs, top = [u for u, _ in num], [v for _, v in num], len(num) - 1
    for i in range(top):
        for m in range(top - 1, i - 1, -1):
            us[m] += j * us[m + 1]
            vs[m] += j * vs[m + 1]
    return list(zip(us, vs)), den


@lru_cache(maxsize=None)
def _branch_shifts(params: BetaParams) -> tuple[QuadNum, ...]:
    """The shifts j/beta, j = 0..a0, of the transfer branches."""
    if params.a0 >= BRANCH_BUDGET:
        raise BudgetExceeded("the transfer has more than %d branches" % BRANCH_BUDGET)
    return tuple(params.power(-1) * j for j in range(params.a0 + 1))


def apply_transfer_iterate(f: PiecewisePoly, k: int) -> PiecewisePoly:
    if k < 0:
        raise ValueError("k must be >= 0, got %d" % k)
    for _ in range(k):
        f = apply_transfer(f)
    return f


@lru_cache(maxsize=16)
def _s_nu_matrix(params: BetaParams, nu: int) -> tuple[tuple, int]:
    """P on S_nu, the functions that are polynomials of degree < nu on
    [0, a1/beta] and on [a1/beta, 1], in the Bernstein bases of degree nu - 1
    of the two intervals, left first: rows (u parts, v parts) of integer pairs
    over one denominator. Column j is P e_j, read back by _bernstein_box."""
    n, cut = nu - 1, _raw(-params.a0, 1, 1, params)  # a1/beta = beta - a0
    spans, boxes = ((params.zero(), cut), (cut, params.one())), []
    for a, b in spans:
        scale = (b - a).inverse()
        for i in range(nu):  # basis function C(n, i) t^i (1 - t)^(n - i), t = (x - a)/(b - a)
            e = Polynomial.from_rationals(
                [0] * i + [comb(n, i) * comb(n - i, k) * (-1) ** k for k in range(nu - i)], params)
            g = apply_transfer(PiecewisePoly.on_interval(e.compose_affine(scale, -a * scale), a, b))
            boxes += [_bernstein_box(g._piece_on(x, y), (x.a, x.b, x.d), (y.a, y.b, y.d), n)
                      for x, y in spans]
    us, vs, den = _one_den(boxes)  # column after column
    return tuple((tuple(us[i::2 * nu]), tuple(vs[i::2 * nu])) for i in range(2 * nu)), den


def _one_den(boxes: list) -> tuple[list, list, int]:
    """The u parts and v parts of the pairs of boxes (pairs, den), over their lcm."""
    den = lcm(*(d for _, d in boxes))
    us, vs = ([w[i] * (den // d) for pairs, d in boxes for w in pairs] for i in (0, 1))
    return us, vs, den


def _bernstein_iterates(f: PiecewisePoly):
    """For f in S_nu, the Bernstein boxes (pairs, den) of the non-zero pieces
    of P^k f, k = 1, 2, ..., as sup_norm_bracket reads them off its canonical
    form, from one product with _s_nu_matrix and one gcd a step. It stops at
    the first k where they may not be the canonical form's: a non-zero piece
    of lower degree (its (nu - 1)-th forward difference is 0), or two pieces that
    meet at a1/beta and so may merge. For f outside S_nu it yields nothing."""
    params, cut = f.params, (-f.params.a0, 1, 1)
    if any((y.a, y.b, y.d) != cut for y in f.breakpoints[1:-1]):
        return
    nu = max(1, *(len(p.num) for p in f.pieces))
    n, (rows, mden), a0, a1 = nu - 1, _s_nu_matrix(params, nu), params.a0, params.a1
    us, vs, den = _one_den([_bernstein_box(f.pieces[0], (0, 0, 1), cut, n),
                            _bernstein_box(f.pieces[-1], cut, (1, 0, 1), n)])
    diff = [comb(n, i) * (-1) ** (n - i) for i in range(nu)]
    while True:
        step = [(sum(map(mul, mu, us)) + a1 * (t := sum(map(mul, mv, vs))),
                 sum(map(mul, mu, vs)) + sum(map(mul, mv, us)) + a0 * t) for mu, mv in rows]
        g = gcd(den := den * mden, *(w for pair in step for w in pair))
        us, vs, den = [u // g for u, _ in step], [v // g for _, v in step], den // g
        boxes = []
        for pu, pv in ((us[:nu], vs[:nu]), (us[nu:], vs[nu:])):
            if any(pu) or any(pv):  # a zero piece has no box
                if not (sum(map(mul, diff, pu)) or sum(map(mul, diff, pv))):
                    return
                boxes.append((list(zip(pu, pv)), den))
        if len(boxes) == 2 and (us[n], vs[n]) == (us[nu], vs[nu]):
            return
        yield boxes


def apply_integer_transfer(f: PiecewisePoly, q: int) -> PiecewisePoly:
    """Exact (1/q) * sum_{j=0}^{q-1} f((x+j)/q). Requires purely rational f."""
    if q < 2:
        raise ValueError("q must be >= 2, got %d" % q)
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
    node off by up to an ulp, so the cut allows 4 ulps. xs is a flat
    sequence of float sample points, evaluated all at once (vectorized), and
    the values come back as an ndarray in its order; a scalar raises
    TypeError. The tree may hold NODE_BUDGET nodes over all its levels.
    """
    import numpy as np
    if k < 0:
        raise ValueError("k must be >= 0, got %d" % k)
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 1:
        raise TypeError("xs must be a flat sequence of floats, not %d-dimensional" % pts.ndim)
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
    return out


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
        raise ValueError("k must be >= 1, got %d" % k)
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
