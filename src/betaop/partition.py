"""The beta-adic partition of [0,1]: refinement to a level M where every gap
has length beta^-M or beta^-(M+1), rescaled-Bernoulli building blocks on the
gaps, and the verification that a fixed power of the transfer operator maps
each block onto a global basis function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bernoulli import bernoulli_polynomial, bernoulli_piecewise
from .field import BetaParams, QuadNum
from .piecewise import PiecewisePoly
from .transfer import apply_transfer


@dataclass(frozen=True)
class PartitionPoint:
    """Left endpoint of a partition gap, addressed by its (k, j) words.

    value = sum_i beta^-(k_1+...+k_{i-1}) * t(k_i, j_i) with
    t(1, j) = j/beta and t(2, j) = a0/beta + j/beta^2."""

    k_word: tuple[int, ...]
    j_word: tuple[int, ...]
    value: QuadNum

    @property
    def depth(self) -> int:
        return sum(self.k_word)

    def gap_length(self) -> QuadNum:
        return self.value.params.power(-self.depth)

    def right_endpoint(self) -> QuadNum:
        return self.value + self.gap_length()


def first_layer_point(params: BetaParams, k: int, j: int) -> QuadNum:
    binv = params.power(-1)
    if k == 1:
        return binv * j
    if k == 2:
        return binv * params.a0 + params.power(-2) * j
    raise ValueError("k must be 1 or 2")


@dataclass
class LevelPartition:
    """Sorted gaps covering [0,1]; every gap depth is M or M+1."""

    params: BetaParams
    M: int
    gaps: list[PartitionPoint]

    @property
    def points(self) -> list[QuadNum]:
        return [g.value for g in self.gaps] + [self.params.one()]

    def locate(self, x: QuadNum) -> int:
        """Index of the gap containing x (right endpoints excluded except at 1)."""
        lo, hi = 0, len(self.gaps) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if (x - self.gaps[mid].value).sign() >= 0:
                lo = mid
            else:
                hi = mid - 1
        return lo


def refine_to_level(params: BetaParams, M: int) -> LevelPartition:
    """Split [0,1] recursively: each gap of depth L < M is replaced by a0
    subgaps of depth L+1 and a1 subgaps of depth L+2 (a scaled copy of the
    first layer). The result has gap depths in {M, M+1} exactly."""
    if M < 1:
        raise ValueError("M must be >= 1")
    binv = params.power(-1)
    gaps: list[PartitionPoint] = []
    # offsets[depth][(k, j)] = binv^depth * t(k, j), precomputed once
    layer = [(k, j) for k in (1, 2) for j in range(params.a0 if k == 1 else params.a1)]
    offsets = []
    scale = params.one()
    for _ in range(M):
        offsets.append({(k, j): scale * first_layer_point(params, k, j)
                        for k, j in layer})
        scale = scale * binv

    def split(k_word, j_word, value, depth):
        if depth >= M:
            gaps.append(PartitionPoint(k_word, j_word, value))
            return
        off = offsets[depth]
        for j in range(params.a0):
            split(k_word + (1,), j_word + (j,), value + off[(1, j)], depth + 1)
        for j in range(params.a1):
            split(k_word + (2,), j_word + (j,), value + off[(2, j)], depth + 2)

    split((), (), params.zero(), 0)
    return LevelPartition(params=params, M=M, gaps=gaps)


def building_block(gap: PartitionPoint, s: int) -> PiecewisePoly:
    """beta^|k| * B_s(beta^|k| (x - t)) on the gap [t, t + beta^-|k|], zero
    elsewhere (the L1 normalization constant of B_s is deliberately dropped
    so everything stays in Q(beta))."""
    if s > 8:
        raise ValueError("s must be <= 8")
    params = gap.value.params
    scale = params.power(gap.depth)
    poly = bernoulli_polynomial(params, s).compose_affine(scale, -(scale * gap.value))
    poly = poly.scaled(scale)
    return PiecewisePoly.on_interval(poly, gap.value, gap.right_endpoint())


@dataclass
class BlockCheckFailure:
    k_word: tuple[int, ...]
    j_word: tuple[int, ...]
    s: int


@dataclass
class LemmaCruxReport:
    params: BetaParams
    M: int
    s_max: int
    checked: int
    failures: list[BlockCheckFailure]

    @property
    def passed(self) -> bool:
        return not self.failures


def collapse_check(gap: PartitionPoint, s: int) -> bool:
    """P^|k| applied to the gap's block equals B_s on all of [0,1], exactly."""
    params = gap.value.params
    f = building_block(gap, s)
    for _ in range(gap.depth):
        f = apply_transfer(f)
    return f.equal_ae(bernoulli_piecewise(params, s))


def intermediate_check(params: BetaParams, s: int) -> bool:
    """One application of the operator carries each first-layer depth-2 block
    onto the depth-1 block with the same j, for every admissible j."""
    for j in range(params.a1):
        g2 = PartitionPoint((2,), (j,), first_layer_point(params, 2, j))
        g1 = PartitionPoint((1,), (j,), first_layer_point(params, 1, j))
        if not apply_transfer(building_block(g2, s)).equal_ae(building_block(g1, s)):
            return False
    return True


def _tail_gap(gap: PartitionPoint) -> PartitionPoint:
    """The gap addressed by dropping the first letter: its left endpoint is
    beta^{k_1} (t - t(k_1, j_1))."""
    params = gap.value.params
    k1, j1 = gap.k_word[0], gap.j_word[0]
    value = (gap.value - first_layer_point(params, k1, j1)) * params.power(k1)
    return PartitionPoint(gap.k_word[1:], gap.j_word[1:], value)


def lemmacrux_check(params: BetaParams, M: int, s_max: int) -> LemmaCruxReport:
    """Exact verification of the collapse identity on every gap of the
    level-M partition, for all s <= s_max.

    Each gap is verified by applying the operator k_1 times and comparing
    exactly against the building block of its tail gap, which is verified
    recursively (with memoization across gaps that share suffixes). Since
    every comparison is an exact piecewise identity, composing the stages
    proves P^{|k|} G = B_s on [0,1] for the full word."""
    if M > 6:
        raise ValueError("M must be <= 6 (piece-count budget)")
    if s_max > 4:
        raise ValueError("s_max must be <= 4 (piece-count budget)")
    partition = refine_to_level(params, M)
    failures = []
    checked = 0
    verified: set[tuple] = set()

    def verify(gap: PartitionPoint, s: int, block=None) -> bool:
        # block: the gap's building block, when the caller has built it
        key = (gap.k_word, gap.j_word, s)
        if key in verified:
            return True
        if not gap.k_word:
            verified.add(key)
            return True
        f = building_block(gap, s) if block is None else block
        for _ in range(gap.k_word[0]):
            f = apply_transfer(f)
        tail = _tail_gap(gap)
        target = (building_block(tail, s) if tail.k_word
                  else bernoulli_piecewise(params, s))
        if not f.equal_ae(target) or not verify(tail, s, target):
            return False
        verified.add(key)
        return True

    for gap in partition.gaps:
        for s in range(s_max + 1):
            checked += 1
            if not verify(gap, s):
                failures.append(BlockCheckFailure(gap.k_word, gap.j_word, s))
    return LemmaCruxReport(params=params, M=M, s_max=s_max,
                           checked=checked, failures=failures)
