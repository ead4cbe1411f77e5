"""Transfer/Koopman/integer-base operators, conservation and contraction,
pointwise preimage engine, greedy digit expansions."""

import hashlib
import json
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betaop.transfer as transfer
from betaop import (BetaParams, PiecewisePoly, Polynomial, QuadNum,
                    apply_integer_transfer, apply_transfer,
                    apply_transfer_iterate, bernoulli_piecewise, builtin,
                    building_block, greedy_expand, make_psi_basis, make_u_tilde,
                    pointwise_transfer_power, refine_to_level, BudgetExceeded)

GOLDEN = BetaParams(1, 1)
ALL_PARAMS_5 = [BetaParams(a0, a1) for a0 in range(1, 6)
                for a1 in range(1, a0 + 1)]


def random_rational_pw(rng, params):
    cuts = sorted({Fraction(rng.randint(1, 99), 100)
                   for _ in range(rng.randint(0, 3))})
    bps = [params.zero()] + [params.rational(c) for c in cuts] + [params.one()]
    pcs = [Polynomial.from_rationals(
        [Fraction(rng.randint(-8, 8), rng.randint(1, 6))
         for _ in range(rng.randint(1, 3))], params)
        for _ in range(len(bps) - 1)]
    return PiecewisePoly(params, bps, pcs)


# -- oracles: the Koopman dual and the pointwise product --------------------------
# The library never needs them; they serve the duality and positivity checks below.


def apply_koopman(g: PiecewisePoly) -> PiecewisePoly:
    """Exact g(T(x)): on each branch [j/beta, (j+1)/beta) substitute beta*x - j.
    The pull-back x -> g(beta*x - j) vanishes off that branch, so the
    branches add up."""
    params = g.params
    acc = PiecewisePoly.zero(params)
    for j in range(params.a0 + 1):
        acc = acc + g.compose_affine(params.beta(), QuadNum(-j, 0, params))
    return acc


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out = [p.params.zero()] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Polynomial(out, p.params)


def multiply(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    """Exact pointwise product, piece by piece over the union of breakpoints."""
    def piece(h, a, b):
        return h.pieces[bisect_right(h.breakpoints, (a + b) * Fraction(1, 2)) - 1]
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return PiecewisePoly(f.params, bps, [poly_mul(piece(f, a, b), piece(g, a, b))
                                         for a, b in zip(bps, bps[1:])])


def test_transfer_on_psi_displays():
    for params in ALL_PARAMS_5:
        psi1, psi2, psi3, psi4 = make_psi_basis(params, 2)
        beta = params.beta()
        binv = beta.inverse()
        assert apply_transfer(psi2).equal_ae(psi1)
        expect = psi1.scaled(binv * params.a0) + psi2.scaled(binv ** 2 * params.a1)
        assert apply_transfer(psi1).equal_ae(expect)
        assert apply_transfer(psi4).equal_ae(psi3.scaled(Fraction(1, params.a1)))


def test_iterate_identity_and_u3():
    u1, u2, u3 = make_u_tilde(GOLDEN)
    assert apply_transfer_iterate(u3, 0).equal_ae(u3)
    binv = GOLDEN.beta().inverse()
    assert apply_transfer_iterate(u3, 2).equal_ae(u3.scaled(binv ** 2))


def test_conservation_random():
    rng = random.Random(1234)
    for _ in range(300):
        params = rng.choice(ALL_PARAMS_5)
        f = random_rational_pw(rng, params)
        assert (apply_transfer(f).integrate() - f.integrate()).is_zero()


def test_positivity_and_domination():
    rng = random.Random(88)
    xs = np.linspace(0, 1, 301)
    for _ in range(30):
        params = rng.choice(ALL_PARAMS_5)
        f = random_rational_pw(rng, params)
        g = apply_transfer(f)
        # |P f| <= P |f| is hard exactly; check positivity preservation:
        sq = multiply(f, f)
        vals = np.asarray(apply_transfer(sq).eval_float(xs))
        assert vals.min() > -1e-12


def test_sup_norm_contraction_bound():
    rng = random.Random(2718)
    for _ in range(60):
        params = rng.choice(ALL_PARAMS_5)
        f = random_rational_pw(rng, params)
        bound = (params.a0 + 1) / params.beta_float()
        lo_pf, _ = apply_transfer(f).sup_norm_bracket()
        _, up_f = f.sup_norm_bracket()
        # certified direction: lower(Pf) <= ||Pf|| <= bound*||f|| <= bound*upper(f)
        assert lo_pf <= bound * up_f + 1e-12


def test_duality_on_psi_pairs():
    for params in (GOLDEN, BetaParams(2, 1), BetaParams(3, 2)):
        funcs = make_psi_basis(params, 2)
        for f in funcs:
            for g in funcs:
                lhs = multiply(apply_transfer(f), g).integrate()
                rhs = multiply(f, apply_koopman(g)).integrate()
                assert (lhs - rhs).is_zero()


def test_koopman_is_composition():
    params = BetaParams(2, 1)
    beta_f = params.beta_float()
    g = make_psi_basis(params, 2)[2]
    kg = apply_koopman(g)
    xs = np.array([0.05, 0.2, 0.33, 0.41, 0.55, 0.72, 0.9])
    direct = g.eval_float(beta_f * xs - np.floor(beta_f * xs))
    assert np.allclose(kg.eval_float(xs), direct, atol=1e-12)


def test_koopman_equals_exact_composition_on_random_functions():
    """apply_koopman(g) = g(beta*x - floor(beta*x)) exactly: on every interval
    between its breakpoints, the branch points j/beta and the preimages of the
    breakpoints of g, both sides are polynomials of degree <= 3, so five exact
    evaluations per interval decide equality."""
    rng = random.Random(7)
    for params in ALL_PARAMS_5:
        beta, binv = params.beta(), params.power(-1)
        pool = ([params.rational(Fraction(i, 8)) for i in range(1, 8)]
                + [binv * j for j in range(1, params.a0 + 1)]
                + [params.power(-2) * j for j in (1, 2)])
        pool = [x for x in pool if 0 < float(x) < 1]
        for _ in range(12):
            cuts = sorted(set(rng.sample(pool, rng.randint(0, min(4, len(pool))))))
            pcs = [Polynomial((), params) if rng.random() < 0.3 else
                   Polynomial([QuadNum(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                       Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                       params) for _ in range(rng.randint(1, 4))], params)
                   for _ in range(len(cuts) + 1)]
            g = PiecewisePoly(params, [params.zero()] + cuts + [params.one()], pcs)
            kg = apply_koopman(g)
            again = PiecewisePoly(params, kg.breakpoints, kg.pieces)
            assert kg.breakpoints == again.breakpoints and kg.pieces == again.pieces
            grid = set(kg.breakpoints) | {binv * j for j in range(params.a0 + 1)}
            grid |= {(b + j) * binv for b in g.breakpoints for j in range(params.a0 + 1)}
            grid = sorted(x for x in grid if 0 <= x <= 1)
            for lo, hi in zip(grid, grid[1:]):
                for t in range(1, 6):
                    x = lo + (hi - lo) * Fraction(t, 6)
                    y = beta * x
                    assert kg.eval(x) == g.eval(y - y.floor())


def test_transfer_iterates_serialize_to_a_fixed_digest():
    """SHA-256 over to_json_dict() of exact transfer iterates of random
    functions with irrational cuts and coefficients, over every field with
    a0 <= 5. The value was recorded before Polynomial stored its pieces as
    integer pairs over one denominator; no change of layout may move it."""
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for params in ALL_PARAMS_5:
        binv = params.power(-1)
        pool = ([params.rational(Fraction(i, 8)) for i in range(1, 8)]
                + [binv * j for j in range(1, params.a0 + 1)])
        for _ in range(3):
            cuts = sorted(set(rng.sample(pool, rng.randint(0, 4))))
            pcs = [Polynomial([QuadNum(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                       Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                                       params) for _ in range(rng.randint(0, 4))], params)
                   for _ in range(len(cuts) + 1)]
            f = PiecewisePoly(params, [params.zero()] + cuts + [params.one()], pcs)
            for _ in range(6):
                f = apply_transfer(f)
                digest.update(json.dumps(f.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == \
        "104cc4d9b39180e9eac3e3e10f74c20ca6263497e11c455b6126e36b975874f6"


def test_integer_transfer_eigenrelations():
    params = GOLDEN
    chi = PiecewisePoly.from_polynomial(Polynomial.from_rationals([1], params))
    assert apply_integer_transfer(chi, 3).equal_ae(chi)
    for q in (2, 3, 4):
        for n in range(7):
            f = bernoulli_piecewise(params, n)
            assert apply_integer_transfer(f, q).equal_ae(
                f.scaled(Fraction(1, q ** n)))


def test_integer_transfer_rejects_irrational():
    u1 = make_u_tilde(GOLDEN)[0]
    with pytest.raises(ValueError):
        apply_integer_transfer(u1, 2)
    with pytest.raises(ValueError, match="^q must be >= 2, got 1$"):
        apply_integer_transfer(u1, 1)


def test_pointwise_matches_exact_engine():
    xs = np.array([(2 * i + 1) / 202.0 for i in range(101)])
    for params, kmax in ((GOLDEN, 12), (BetaParams(2, 1), 10),
                         (BetaParams(3, 2), 9)):
        for name in ("psi1", "linear", "quadratic"):
            F = builtin(name)
            exact = F.piecewise(params)
            for k in (1, kmax // 2, kmax):
                exact_k = apply_transfer_iterate(exact, k)
                got = pointwise_transfer_power(F, params, k, xs)
                assert np.abs(exact_k.eval_float(xs) - got).max() < 1e-12


def test_pointwise_scalar_and_k0():
    F = builtin("linear")
    assert pointwise_transfer_power(F, GOLDEN, 0, [0.25]).tolist() == [0.5]
    x = GOLDEN.rational(Fraction(1, 4))
    exact5 = apply_transfer_iterate(F.piecewise(GOLDEN), 5)
    got = pointwise_transfer_power(F, GOLDEN, 5, [float(x)])
    assert got.shape == (1,) and got[0] == pytest.approx(float(exact5.eval(x)), abs=1e-12)
    for bad in (0.25, x, [[0.25]]):  # the sample points are a flat sequence
        with pytest.raises(TypeError, match="xs"):
            pointwise_transfer_power(F, GOLDEN, 5, bad)


@pytest.mark.parametrize("xs", [pytest.param([x], id=str(x)) for x in (math.nan, -0.25, 1.5)]
                         + [[math.nan, 0.5], [0.5, -1e-300], np.array([0.5, math.nan])])
def test_pointwise_refuses_sample_points_outside_the_unit_interval(xs):
    with pytest.raises(ValueError, match=r"sample points must lie in \[0,1\]"):
        pointwise_transfer_power(builtin("cubic"), GOLDEN, 3, xs)


def test_pointwise_budget(monkeypatch):
    F = builtin("psi1")
    monkeypatch.setattr(transfer, "NODE_BUDGET", 10 ** 4)
    with pytest.raises(BudgetExceeded):
        pointwise_transfer_power(F, BetaParams(5, 5), 20, np.linspace(0, 1, 101))


def test_apply_transfer_refuses_more_branches_than_its_budget():
    # a0 + 1 branches: refused before the first shift j/beta is built, on the
    # per-branch path (one piece) and on the sweep (two)
    params = BetaParams(transfer.BRANCH_BUDGET, 1)
    one = Polynomial.from_rationals([1], params)
    for f in (PiecewisePoly.from_polynomial(one),
              PiecewisePoly.on_interval(one, params.zero(), params.power(-1))):
        with pytest.raises(BudgetExceeded, match="more than %d branches" % transfer.BRANCH_BUDGET):
            apply_transfer(f)


def test_pointwise_budget_refuses_a_level_before_building_it(monkeypatch):
    # (3,1) on these 101 points: levels 0..7 of the tree hold 622,425 nodes,
    # level 7 alone 434,002
    params, F = BetaParams(3, 1), builtin("linear")
    xs = [i / 100 for i in range(101)]
    monkeypatch.setattr(transfer, "NODE_BUDGET", 622425)
    pointwise_transfer_power(F, params, 7, xs)
    monkeypatch.setattr(transfer, "NODE_BUDGET", 622424)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            pointwise_transfer_power(F, params, 7, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building level 7 takes at least two float64 arrays of its size
    assert peak < 16 * 434002


def test_preimage_levels_are_built_in_place():
    """Each level is one float64 and one integer array filled by slices: with
    F returning its argument, the peak is those two arrays of the last level
    (434002 nodes) plus the previous level's origins and mask, under 20 bytes
    a node. Concatenating per-branch arrays held about 27."""
    params, xs = BetaParams(3, 1), [i / 100 for i in range(101)]
    tracemalloc.start()
    try:
        pointwise_transfer_power(lambda x: x, params, 7, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 434002


def test_greedy_examples():
    g0 = greedy_expand(GOLDEN.zero(), 5)
    assert g0.digits == [0] * 5
    half = GOLDEN.rational(Fraction(1, 2))
    gh = greedy_expand(half, 4)
    assert gh.digits[:2] == [0, 1]
    # a0=2, a1=1: x = 1/beta gives beta*x = 1 exactly
    p21 = BetaParams(2, 1)
    gb = greedy_expand(p21.beta().inverse(), 3)
    assert gb.digits == [1, 0, 0]
    assert gb.orbit[1].is_zero()


def test_greedy_reconstruction_random():
    rng = random.Random(90210)
    binv30 = {}
    for _ in range(100):
        params = rng.choice(ALL_PARAMS_5)
        x = QuadNum(Fraction(rng.randint(-20, 20), rng.randint(1, 17)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 17)), params)
        x = x - x.floor()  # reduce into [0,1)
        g = greedy_expand(x, 30)
        assert all(0 <= d <= params.a0 for d in g.digits)
        for step, o in enumerate(g.orbit):
            assert o.sign() >= 0 and (o - 1).sign() < 0
        err = x - g.partial_sum()
        if params not in binv30:
            binv30[params] = params.beta().inverse() ** 30
        assert err.sign() >= 0
        assert (err - binv30[params]).sign() < 0


def test_greedy_rejects_out_of_range():
    with pytest.raises(ValueError):
        greedy_expand(GOLDEN.one(), 3)


def left_limit(f, x):
    """lim_{y -> x-} f(y): the piece whose interval ends at or beyond x."""
    idx = max(i for i, b in enumerate(f.breakpoints[:-1]) if (x - b).sign() > 0)
    return f.pieces[idx].eval(x)


@pytest.mark.parametrize("params", ALL_PARAMS_5, ids=str)
def test_pointwise_keeps_top_branch_at_the_cut(params):
    # at x = a1/beta the top branch (x+a0)/beta = 1 is admissible, so the
    # preimage tree gives the left limit of P^k F there
    F = builtin("linear")
    x = params.beta().inverse() * params.a1
    for k in (1, 2, 3):
        exact = left_limit(apply_transfer_iterate(F.piecewise(params), k), x)
        assert pointwise_transfer_power(F, params, k, [float(x)])[0] == pytest.approx(
            float(exact), abs=1e-12)


def transfer_by_definition(f, x):
    """(1/beta) * sum_j f((x+j)/beta), the terms with (x+j)/beta > 1 dropped."""
    params = f.params
    binv = params.power(-1)
    total = params.zero()
    for j in range(params.a0 + 1):
        y = (x + j) * binv
        if (y - 1).sign() <= 0:
            total = total + f.eval(y)
    return total * binv


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([p for p in ALL_PARAMS_5 if p.a0 <= 3]), st.integers(1, 3),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_transfer_of_blocks_matches_the_definition(params, M, s, rng):
    gaps = refine_to_level(params, M).gaps
    letters = {(g.k_word[0], g.j_word[0]) for g in gaps}
    assert len(letters) == params.a0 + params.a1
    for letter in sorted(letters):
        gap = rng.choice([g for g in gaps if (g.k_word[0], g.j_word[0]) == letter])
        f = building_block(gap, s)
        g = apply_transfer(f)
        for a, b in zip(g.breakpoints, g.breakpoints[1:]):
            m = (a + b) * Fraction(1, 2)
            assert g.eval(m) == transfer_by_definition(f, m)


def test_transfer_of_zero_is_zero():
    for params in ALL_PARAMS_5:
        zero = PiecewisePoly.zero(params)
        assert apply_transfer(zero).equal_ae(zero)


@pytest.mark.parametrize("params", ALL_PARAMS_5, ids=str)
def test_transfer_pulls_back_once_per_branch(params, monkeypatch):
    # one PiecewisePoly.compose_affine call per branch, missed ones included
    calls = []
    pull_back = PiecewisePoly.compose_affine

    def counted(f, *args):
        calls.append(args)
        return pull_back(f, *args)

    monkeypatch.setattr(PiecewisePoly, "compose_affine", counted)
    block = building_block(refine_to_level(params, 1).gaps[-1], 1)
    for f in (block, PiecewisePoly.zero(params)):
        calls.clear()
        apply_transfer(f)
        assert len(calls) == params.a0 + 1


def _transfer_cut_pool(params):
    """Breakpoints that exercise the sweep's cuts: j/beta (fractional part 0
    under the beta-map), a1/beta (where the top branch ends), rational and
    irrational points, and the preimages (y + j)/beta of all of them."""
    binv = params.power(-1)
    base = ([binv * j for j in range(1, params.a0 + 1)]
            + [params.rational(Fraction(1, 3)), params.rational(Fraction(5, 7)),
               params.power(-3), 1 - params.power(-2), QuadNum(Fraction(1, 5), Fraction(1, 9), params)])
    pool = base + [(y + j) * binv for y in base for j in range(params.a0 + 1)]
    return sorted({y for y in pool if 0 < y < 1})


@st.composite
def transfer_inputs(draw, params):
    """A random Q(beta)-spline over params: cuts from _transfer_cut_pool, and
    pieces of degree 0-4 with rational or irrational coefficients, or zero."""
    cuts = sorted(draw(st.lists(st.sampled_from(_transfer_cut_pool(params)),
                                max_size=7, unique=True)))
    small = st.integers(-9, 9)

    def coefficient():
        q = draw(st.sampled_from((0, 0, draw(small))))  # rational two times in three
        return QuadNum(Fraction(draw(small), draw(st.integers(1, 8))),
                       Fraction(q, draw(st.integers(1, 8))), params)

    pcs = [Polynomial([coefficient() for _ in range(draw(st.integers(-1, 4)) + 1)], params)
           for _ in range(len(cuts) + 1)]  # degree -1 is the zero piece
    return PiecewisePoly(params, [params.zero()] + cuts + [params.one()], pcs)


@pytest.mark.parametrize("params", ALL_PARAMS_5, ids=str)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_transfer_sweep_equals_the_per_branch_sum(params, data):
    """The one-sweep transfer equals the sum of the a0 + 1 pull-backs
    f((x+j)/beta)/beta, each through compose_affine, and is canonical: the
    public constructor, which checks and merges, rebuilds it unchanged."""
    f = data.draw(transfer_inputs(params))
    binv = params.power(-1)
    reference = PiecewisePoly.zero(params)
    for j in range(params.a0 + 1):
        reference = reference + f.compose_affine(binv, binv * j, binv)
    for g in (transfer._transfer_sweep(f), apply_transfer(f)):
        assert g.breakpoints == reference.breakpoints and g.pieces == reference.pieces
        rebuilt = PiecewisePoly(params, g.breakpoints,
                                [Polynomial(p.coeffs, params) for p in g.pieces])
        assert rebuilt.breakpoints == g.breakpoints and rebuilt.pieces == g.pieces
