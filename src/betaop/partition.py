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
from .transfer import BudgetExceeded, apply_transfer

MAX_GAPS = 10 ** 6  # refine_to_level refuses partitions with more gaps


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
    raise ValueError("k must be 1 or 2, got %d" % k)


@dataclass
class LevelPartition:
    """Sorted gaps covering [0,1]; every gap depth is M or M+1."""

    params: BetaParams
    M: int
    gaps: list[PartitionPoint]

    @property
    def points(self) -> list[QuadNum]:
        return [g.value for g in self.gaps] + [self.params.one()]


def refine_to_level(params: BetaParams, M: int) -> LevelPartition:
    """Split [0,1] repeatedly: each gap of depth L < M is replaced by a0
    subgaps of depth L+1 and a1 subgaps of depth L+2 (a scaled copy of the
    first layer). The result has gap depths in {M, M+1} exactly."""
    if M < 1:
        raise ValueError("M must be >= 1, got %d" % M)
    n, prev = 1, 1  # gaps under a gap r levels above M: n_r = a0*n_{r-1} + a1*n_{r-2}
    for _ in range(M):
        n, prev = params.a0 * n + params.a1 * prev, n
        if n > MAX_GAPS:
            raise BudgetExceeded("level %d has over %d gaps" % (M, MAX_GAPS))
    gaps: list[PartitionPoint] = []
    # offsets[depth][(k, j)] = beta^-depth * t(k, j), precomputed once
    layer = [(k, j) for k in (1, 2) for j in range(params.a0 if k == 1 else params.a1)]
    offsets = [{(k, j): params.power(-depth) * first_layer_point(params, k, j)
                for k, j in layer} for depth in range(M)]

    # depth-first with an explicit stack; children pushed in reverse pop in gap order
    stack = [((), (), params.zero(), 0)]
    while stack:
        k_word, j_word, value, depth = stack.pop()
        if depth >= M:
            gaps.append(PartitionPoint(k_word, j_word, value))
            continue
        off = offsets[depth]
        for k, j in reversed(layer):
            stack.append((k_word + (k,), j_word + (j,), value + off[(k, j)], depth + k))
    return LevelPartition(params=params, M=M, gaps=gaps)


def building_block(gap: PartitionPoint, s: int) -> PiecewisePoly:
    """beta^|k| * B_s(beta^|k| (x - t)) on the gap [t, t + beta^-|k|], zero
    elsewhere (the L1 normalization constant of B_s is deliberately dropped
    so everything stays in Q(beta))."""
    if not 0 <= s <= 8:
        raise ValueError("s must be in [0, 8], got %d" % s)
    params = gap.value.params
    scale = params.power(gap.depth)
    poly = bernoulli_polynomial(params, s).compose_affine(scale, -(scale * gap.value), scale)
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
        if not apply_transfer(building_block(g2, s)).equal_ae(building_block(_successor(g2), s)):
            return False
    return True


def _successor(gap: PartitionPoint) -> PartitionPoint:
    """The gap that T(x) = beta*x - floor(beta*x) maps this gap onto, one
    level shallower: (1, j)+u goes to u and (2, j)+u to (1, j)+u. Its left
    endpoint is beta*t - j_1, or beta*t - a0 for a first letter 2."""
    params = gap.value.params
    k1, j1 = gap.k_word[0], gap.j_word[0]
    value = gap.value * params.power(1) - (j1 if k1 == 1 else params.a0)
    if k1 == 1:
        return PartitionPoint(gap.k_word[1:], gap.j_word[1:], value)
    return PartitionPoint((1,) + gap.k_word[1:], gap.j_word, value)


def lemmacrux_check(params: BetaParams, M: int, s_max: int) -> LemmaCruxReport:
    """Exact verification of the collapse identity P^{|k|} G = B_s on [0,1]
    for every gap of the level-M partition and all s <= s_max.

    Each gap is followed along its orbit g, T g, T^2 g, ... under the
    beta-map (`_successor`), one level per step, down to the empty word,
    whose block is B_s on [0,1]. A step is the exact piecewise identity
    P block(g) = block(T g): only one branch of the operator meets a block.
    The chain of steps proves the identity for g. A walk stops early at a
    word whose chain is already proven, so every block is built once per
    call and, while the steps hold, every word gets one transfer. A failing
    step records a failure for the starting gap and proves nothing on its
    walk."""
    if M > 6:
        raise ValueError("M must be <= 6 (piece-count budget), got %d" % M)
    if s_max > 4:
        raise ValueError("s_max must be <= 4 (piece-count budget), got %d" % s_max)
    if s_max < 0:
        raise ValueError("s_max must be >= 0, got %d" % s_max)
    partition = refine_to_level(params, M)
    failures = []
    blocks: dict[tuple, PiecewisePoly] = {}  # (k_word, j_word, s) -> building block
    verified: set[tuple] = set()
    for gap in partition.gaps:
        for s in range(s_max + 1):
            walk = []
            g, key = gap, (gap.k_word, gap.j_word, s)
            while g.k_word and key not in verified:
                nxt = _successor(g)
                nxt_key = (nxt.k_word, nxt.j_word, s)
                if key not in blocks:
                    blocks[key] = building_block(g, s)
                if nxt_key not in blocks:
                    blocks[nxt_key] = building_block(nxt, s)
                if not apply_transfer(blocks[key]).equal_ae(blocks[nxt_key]):
                    failures.append(BlockCheckFailure(gap.k_word, gap.j_word, s))
                    break
                walk.append(key)
                g, key = nxt, nxt_key
            else:
                verified.update(walk)
    return LemmaCruxReport(params=params, M=M, s_max=s_max,
                           checked=len(partition.gaps) * (s_max + 1), failures=failures)
