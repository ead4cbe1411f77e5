"""Level partitions of [0,1], gap-length law, rescaled building blocks, and
the exact collapse of blocks under powers of the transfer operator."""

import gc
from fractions import Fraction

import pytest

from betaop import (BetaParams, BudgetExceeded, PartitionPoint, apply_transfer,
                    bernoulli_piecewise, building_block, collapse_check,
                    first_layer_point, intermediate_check, lemmacrux_check,
                    refine_to_level)
from betaop.partition import _successor

GOLDEN = BetaParams(1, 1)
ALL_PARAMS_5 = [BetaParams(a0, a1) for a0 in range(1, 6) for a1 in range(1, a0 + 1)]


def test_first_layer_points():
    p = BetaParams(2, 1)
    binv = p.beta().inverse()
    assert first_layer_point(p, 1, 0).is_zero()
    assert first_layer_point(p, 1, 1) == binv
    assert first_layer_point(p, 2, 0) == binv * 2
    with pytest.raises(ValueError):
        first_layer_point(p, 3, 0)


def test_golden_level2_points():
    part = refine_to_level(GOLDEN, 2)
    binv = GOLDEN.beta().inverse()
    pts = part.points
    assert len(pts) == 4
    assert pts[0].is_zero()
    assert pts[1] == binv ** 2
    assert pts[2] == binv
    assert pts[3] == 1
    assert [g.depth for g in part.gaps] == [2, 3, 2]


def test_gap_law_and_total_length():
    for a0 in range(1, 4):
        for a1 in range(1, a0 + 1):
            params = BetaParams(a0, a1)
            binv = params.beta().inverse()
            for M in range(1, 9):
                part = refine_to_level(params, M)
                lengths = {M: binv ** M, M + 1: binv ** (M + 1)}
                prev = params.zero()
                for gap in part.gaps:
                    assert gap.depth in (M, M + 1)
                    # gaps tile [0,1] in order, so lengths sum to one
                    assert (gap.value - prev).is_zero()
                    prev = gap.value + lengths[gap.depth]
                assert (prev - 1).is_zero()


def word_point(params, gap):
    """The left endpoint and depth that the gap's (k, j) words address."""
    binv = params.beta().inverse()
    acc, depth = params.zero(), 0
    for k, j in zip(gap.k_word, gap.j_word):
        acc = acc + binv ** depth * first_layer_point(params, k, j)
        depth += k
    return acc, depth


def test_point_recursion_from_words():
    params = BetaParams(3, 2)
    part = refine_to_level(params, 4)
    for gap in part.gaps[::7]:
        assert word_point(params, gap) == (gap.value, gap.depth)


def test_building_block_golden_s1():
    binv = GOLDEN.beta().inverse()
    gap = PartitionPoint((1, 1), (0, 0), GOLDEN.zero())
    blk = building_block(gap, 1)
    # beta^2 * B1(beta^2 x) on [0, beta^-2]
    b2 = GOLDEN.beta() ** 2
    x = binv ** 2 * Fraction(1, 4)
    assert blk.eval(x) == b2 * (b2 * x - Fraction(1, 2))
    assert blk.eval(binv).is_zero()


def test_building_block_integrals():
    params = BetaParams(2, 2)
    part = refine_to_level(params, 3)
    for gap in part.gaps[::5]:
        assert (building_block(gap, 0).integrate() - 1).is_zero()
        for s in (1, 2, 3):
            assert building_block(gap, s).integrate().is_zero()


def test_collapse_on_single_gaps():
    part = refine_to_level(BetaParams(2, 1), 3)
    for gap in (part.gaps[0], part.gaps[-1]):
        for s in (0, 1, 2):
            assert collapse_check(gap, s)


def test_intermediate_identity():
    for params in (GOLDEN, BetaParams(2, 2), BetaParams(3, 1)):
        for s in (0, 1, 2, 3):
            assert intermediate_check(params, s)


def test_lemmacrux_small():
    rep = lemmacrux_check(GOLDEN, 3, 2)
    assert rep.passed
    assert rep.checked == len(refine_to_level(GOLDEN, 3).gaps) * 3
    rep2 = lemmacrux_check(BetaParams(2, 2), 2, 1)
    assert rep2.passed and not rep2.failures


def test_successor_is_the_beta_map_one_level_up():
    for params in ALL_PARAMS_5:
        for M in range(1, 5):
            for gap in refine_to_level(params, M).gaps:
                nxt = _successor(gap)
                bt = gap.value * params.beta()
                assert nxt.value == bt - bt.floor()
                assert nxt.depth == gap.depth - 1
                assert word_point(params, nxt) == (nxt.value, nxt.depth)


@pytest.mark.parametrize("a0,a1", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_orbit_walk_agrees_with_the_full_power(a0, a1):
    params = BetaParams(a0, a1)
    for M in range(1, 4):
        rep = lemmacrux_check(params, M, 2)
        failed = {(f.k_word, f.j_word, f.s) for f in rep.failures}
        for gap in refine_to_level(params, M).gaps:
            for s in range(3):
                assert collapse_check(gap, s) == ((gap.k_word, gap.j_word, s) not in failed)


@pytest.mark.parametrize("args,blocks", [((2, 1, 3, 3), 100), ((3, 2, 2, 3), 84),
                                         ((2, 1, 1, 3), 16)])
def test_lemmacrux_builds_each_block_once(monkeypatch, args, blocks):
    import betaop.partition as partition
    calls = {"block": 0, "transfer": 0}

    def counted(name, fn):
        def wrapper(*a):
            calls[name] += 1
            return fn(*a)
        return wrapper
    monkeypatch.setattr(partition, "building_block", counted("block", building_block))
    monkeypatch.setattr(partition, "apply_transfer", counted("transfer", apply_transfer))
    a0, a1, M, s_max = args
    assert lemmacrux_check(BetaParams(a0, a1), M, s_max).passed
    # one block per distinct (word, s); one transfer per non-empty word
    assert calls["block"] == blocks
    assert calls["transfer"] == blocks - (s_max + 1)


def test_partition_and_lemmacrux_leave_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        lemmacrux_check(BetaParams(2, 1), 3, 3)
        refine_to_level(BetaParams(2, 1), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verifiers_fail_on_a_perturbed_operator(monkeypatch):
    # negative control: with P replaced by 2P every block check must fail
    import betaop.partition as partition
    orig = partition.apply_transfer
    monkeypatch.setattr(partition, "apply_transfer", lambda f: orig(f).scaled(2))
    rep = lemmacrux_check(GOLDEN, 3, 2)
    assert not rep.passed
    assert [(f.k_word, f.j_word, f.s) for f in rep.failures] == [
        (gap.k_word, gap.j_word, s)
        for gap in refine_to_level(GOLDEN, 3).gaps for s in range(3)]
    assert len(rep.failures) == rep.checked
    for params in (GOLDEN, BetaParams(2, 2)):
        assert not intermediate_check(params, 1)
    assert not collapse_check(refine_to_level(BetaParams(2, 1), 3).gaps[0], 1)


def test_budget_guards():
    with pytest.raises(ValueError):
        refine_to_level(GOLDEN, 0)
    with pytest.raises(ValueError):
        lemmacrux_check(GOLDEN, 7, 1)
    with pytest.raises(ValueError):
        lemmacrux_check(GOLDEN, 2, 5)
    with pytest.raises(ValueError, match="s_max"):
        lemmacrux_check(BetaParams(2, 1), 2, -3)  # would check nothing and pass
    gap = PartitionPoint((1,), (0,), GOLDEN.zero())
    with pytest.raises(ValueError):
        building_block(gap, 9)
    # a negative degree is refused as s, not as the Bernoulli degree n
    for check, args in ((building_block, (gap, -2)), (collapse_check, (gap, -1)),
                        (intermediate_check, (BetaParams(2, 1), -1))):
        with pytest.raises(ValueError, match=r"^s must be in \[0, 8\], got -"):
            check(*args)


@pytest.mark.parametrize("a0,a1", [(1, 1), (2, 1), (3, 2), (5, 5)])
def test_gap_budget_is_checked_on_the_exact_count(monkeypatch, a0, a1):
    import betaop.partition as partition
    p = BetaParams(a0, a1)
    count = len(refine_to_level(p, 4).gaps)
    monkeypatch.setattr(partition, "MAX_GAPS", count)
    assert len(refine_to_level(p, 4).gaps) == count
    monkeypatch.setattr(partition, "MAX_GAPS", count - 1)
    with pytest.raises(BudgetExceeded):
        refine_to_level(p, 4)
