"""The three benchmark workloads.

Each workload is a fixed multiset of ops, the same on every seed, run as
whole cycles. The seed draws the order of a cycle and the inputs that leave
the amount of work unchanged: signs, and which Bernoulli degree an
intermediate check uses. Everything from `betaop` is imported inside `setup`,
which the benchmark times.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Any

from harness import Op, fraction_probe, interpreter_probe

CLI_CODE = "import sys; from betaop.cli import main; sys.exit(main(sys.argv[1:]))"
CLI_TIMEOUT_S = 120


class Workload:
    name = ""
    why = ""
    # Fixed per workload so that runs of different length, and commits of
    # different speed, report the same percentile: the highest one with at
    # least ten samples beyond it in a run that completes two thirds of the
    # ops the seed commit completes in 25 s.
    tail_pct: float
    # False when ops run in child processes, whose peak RSS is reported.
    in_process = True
    # Measures the machine's slowdown for this workload's kind of work.
    speed_probe = staticmethod(fraction_probe)

    def setup(self, seed: int, root: Path) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> bool:
        raise NotImplementedError


def gap_count(a0: int, a1: int, M: int) -> int:
    """Gaps of the level-M partition, from the split rule alone: a gap that
    still needs r levels becomes a0 gaps needing r-1 and a1 needing r-2."""
    need = {-1: 1, 0: 1}
    for r in range(1, M + 1):
        need[r] = a0 * need[r - 1] + a1 * need[r - 2]
    return need[M]


class Collapse(Workload):
    """lemmacrux_check and intermediate_check over pairs with a0 <= 3: the
    exact-kernel path of the partition collapse identity."""

    name = "collapse"
    why = ("exact kernel on blocks with many pieces and small coefficients; "
           "1/(a0+1) of transfer branches hit (the lemmacrux acceptance path)")
    tail_pct = 95.0
    PAIRS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
    S_MAX = (0, 3)
    CHECK_CAP = 100  # blocks per lemmacrux call; keeps every op under ~0.4 s

    def setup(self, seed, root):
        import betaop
        self.bp = betaop
        self.params = {p: betaop.BetaParams(*p) for p in self.PAIRS}
        rng = random.Random(seed)
        ops = []
        for a0, a1 in self.PAIRS:
            for M in range(1, 6):
                for s_max in self.S_MAX:
                    checked = gap_count(a0, a1, M) * (s_max + 1)
                    if checked <= self.CHECK_CAP:
                        ops.append(Op("lemmacrux", (a0, a1, M, s_max), checked))
            ops.append(Op("intermediate", (a0, a1, rng.randrange(4)), True))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        a0, a1, *rest = op.args
        params = self.params[(a0, a1)]
        if op.kind == "lemmacrux":
            return self.bp.lemmacrux_check(params, *rest)
        return self.bp.intermediate_check(params, *rest)

    def check(self, op, result):
        if op.kind == "lemmacrux":
            return result.passed and result.checked == op.ref
        return result is op.ref


class DeepSeries(Workload):
    """two_term_residual_exact on catalog polynomials at deep k: two pieces,
    every branch useful, coefficient height growing linearly with k."""

    name = "deep-series"
    why = ("exact kernel on 2-piece iterates with coefficients growing to "
           "hundreds of bits; every branch hits, so branch skipping cannot help")
    tail_pct = 80.0
    FUNCTIONS = ("linear", "quadratic", "cubic")
    # k_max per pair and function. A cycle holds four cheap ops (k_max 20 or
    # 40), four of mid cost and four dear ones (k_max 120 or 160), so the median
    # falls in the middle of the mid-cost ops and p80 among the dear ones,
    # not in a gap between two cost levels, where the slowest sample of one
    # level and the fastest of the next would set it.
    K_MAX = {(1, 1): (20, 160, 80), (2, 1): (40, 80, 120),
             (3, 2): (80, 120, 20), (5, 5): (120, 20, 40)}
    SLOPE_TOL = 0.05

    def setup(self, seed, root):
        import betaop
        self.bp = betaop
        rng = random.Random(seed)
        picks = [(a0, a1, name, k_max) for (a0, a1), ks in self.K_MAX.items()
                 for name, k_max in zip(self.FUNCTIONS, ks)]
        self.inputs = {}
        ops = []
        for a0, a1, name, k_max in picks:
            params = betaop.BetaParams(a0, a1)
            # the next eigenvalue after 1 and 1/beta is -a1/beta^2
            slope = math.log(a1 / params.beta_float() ** 2)
            sign = rng.choice((1, -1))
            args = (a0, a1, name, k_max, sign)
            self.inputs[args] = betaop.builtin(name).piecewise(params).scaled(sign)
            ops.append(Op("two_term_exact", args, slope))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        return self.bp.two_term_residual_exact(self.inputs[op.args], op.args[3])

    def check(self, op, result):
        return abs(result.fitted_slope - op.ref) <= self.SLOPE_TOL


class CliCold(Workload):
    """One fresh interpreter per CLI command: what a shell user pays."""

    name = "cli-cold"
    why = ("fresh python process per CLI command: interpreter start and "
           "import dominate (control for exact-kernel changes)")
    tail_pct = 60.0
    in_process = False
    speed_probe = staticmethod(interpreter_probe)
    COMMANDS = (
        ("eigen-check", "--a0", "2", "--a1", "1"),
        ("iterate", "--a0", "1", "--a1", "1", "--F", "cubic", "--k", "6", "--out", "json"),
        ("partition-dump", "--a0", "2", "--a1", "1", "--M", "4", "--out", "json"),
        ("asymptotics", "--a0", "1", "--a1", "1", "--F", "linear", "--k-max", "14"),
        ("asymptotics", "--a0", "1", "--a1", "1", "--F", "exp-normalized",
         "--k-max", "12", "--engine", "numeric"),
        ("asymptotics", "--a0", "1", "--a1", "1", "--F", "sin", "--k-max", "12",
         "--engine", "numeric"),
        ("asymptotics", "--a0", "1", "--a1", "1", "--F", "cubic", "--k-max", "12",
         "--engine", "numeric"),
        ("integer-base", "--q", "2", "--N", "3", "--F", "sin", "--k-min", "6", "--k-max", "12"),
        ("bernoulli-table", "--n-max", "10"),
    )

    def setup(self, seed, root):
        import betaop.cli
        self.cli = betaop.cli
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        ops = [Op("cli", argv, self.run_in_process(argv)) for argv in self.COMMANDS]
        random.Random(seed).shuffle(ops)
        return ops

    def run_in_process(self, argv) -> bytes:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(list(argv))
        if code != 0:
            raise RuntimeError("reference run of %s exited %d" % (argv, code))
        return out.getvalue().encode()

    def command(self, argv, *flags) -> list[str]:
        return [sys.executable, *flags, "-c", CLI_CODE, *argv]

    def execute(self, op, flags=()):
        proc = subprocess.run(self.command(op.args, *flags), capture_output=True,
                              env=self.env, cwd=self.root, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, result):
        code, stdout, _ = result
        return code == 0 and stdout == op.ref


WORKLOADS = {w.name: w for w in (Collapse, DeepSeries, CliCold)}
