"""Closed-loop runner, statistics, span bookkeeping and result stamping.

Standard library only: the benchmark imports this module before it starts
timing set-up, so it must not pull in numpy, scipy or mpmath itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Sequence

MIN_BEYOND = 10
TAIL_LADDER = (50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 99, 99.9)


# -- statistics -----------------------------------------------------------------


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked above the nearest-rank pct-th percentile of n samples."""
    return n - math.ceil(n * pct / 100 - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct % of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(len(ordered) * pct / 100 - 1e-9))
    return ordered[rank - 1]


def highest_tail_pct(n: int, ladder: Sequence[float] = TAIL_LADDER) -> float | None:
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    usable = [p for p in ladder if samples_beyond(n, p) >= MIN_BEYOND]
    return max(usable) if usable else None


# -- machine speed --------------------------------------------------------------

# On a shared host the same code runs up to ~1.7x slower for seconds to
# minutes at a time, so raw wall times of runs minutes apart disagree by more
# than any bound. Before each op the loop therefore times a fixed task that
# lies outside the program and does the same kind of work as the op, and
# divides it by that task's time at a fixed reference speed: the slowdown.
# Every timing the benchmark reports is divided by the slowdown measured
# around it; the raw wall times are printed beside them.
FRACTION_TERMS = 700
FRACTION_REFERENCE_S = 0.002
INTERPRETER_REFERENCE_S = 0.04
DEPENDENCY_IMPORT = "import numpy, scipy.integrate, mpmath"
DEPENDENCY_IMPORT_REFERENCE_S = 0.6
SPEED_WINDOW = 5  # probes on either side of an op that set its slowdown


def fraction_task() -> Fraction:
    """Like the exact kernel: Fraction arithmetic on integers of a few hundred
    to a thousand bits."""
    total = Fraction(0)
    for i in range(1, FRACTION_TERMS):
        total += Fraction(1, i)
    return total


def fraction_probe(clock: Callable[[], float] = time.perf_counter) -> float:
    """Slowdown of in-process Python work now."""
    t0 = clock()
    fraction_task()
    return (clock() - t0) / FRACTION_REFERENCE_S


def interpreter_probe(clock: Callable[[], float] = time.perf_counter) -> float:
    """Slowdown of starting a Python process now: `python -c pass`, which
    reads and runs the interpreter's own start-up modules, as an import does."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (clock() - t0) / INTERPRETER_REFERENCE_S


def dependency_import_probe(clock: Callable[[], float] = time.perf_counter) -> float:
    """Slowdown of importing betaop's third-party dependencies in a fresh
    process now: the bulk of a set-up, from loading extension modules to
    running module bodies."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", DEPENDENCY_IMPORT], check=True)
    return (clock() - t0) / DEPENDENCY_IMPORT_REFERENCE_S


def speed_factors(slowdowns: Sequence[float], window: int = SPEED_WINDOW) -> list[float]:
    """For each probe, one over the median slowdown within `window` places
    of it: a wall time times its factor is the time at the reference speed.
    The median keeps a probe that was preempted from moving the factor."""
    return [1.0 / statistics.median(slowdowns[max(0, i - window):i + window + 1])
            for i in range(len(slowdowns))]


# -- closed loop ----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One operation of a workload: `kind` and `args` are plain data (they
    feed the op-list digest); `ref` is what the check compares against."""

    kind: str
    args: tuple
    ref: Any = field(default=None, compare=False, repr=False)

    @property
    def key(self) -> list:
        return [self.kind, list(self.args)]


@dataclass
class CycleStats:
    latencies: list[float]
    probes: list[float]  # slowdown measured just before each op
    failed: int
    results: list[Any]

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_cycle(ops: Sequence[Op], execute: Callable[[Op], Any],
              check: Callable[[Op, Any], bool],
              clock: Callable[[], float] = time.perf_counter,
              speed_probe: Callable[[], float] = fraction_probe) -> CycleStats:
    """Issue each op when the previous one has completed (one caller).

    An op fails when it raises or when its check rejects the result; both
    count against the ops attempted. Only `execute` is inside the latency
    window; the speed probe runs before it and the check after it."""
    latencies, probes, results = [], [], []
    failed = 0
    for op in ops:
        probes.append(speed_probe())
        t0 = clock()
        try:
            result = execute(op)
        except Exception:  # the loop must go on; the op is counted as failed
            latencies.append(clock() - t0)
            results.append(None)
            failed += 1
            print("op %s %s raised:" % (op.kind, op.args), file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        latencies.append(clock() - t0)
        results.append(result)
        try:
            ok = bool(check(op, result))
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
        if not ok:
            failed += 1
            print("op %s %s failed its check" % (op.kind, op.args), file=sys.stderr)
    return CycleStats(latencies=latencies, probes=probes, failed=failed,
                      results=results)


def closed_loop(ops: Sequence[Op], execute, check, seconds: float,
                clock: Callable[[], float] = time.perf_counter,
                speed_probe: Callable[[], float] = fraction_probe) -> list[CycleStats]:
    """Repeat whole cycles of `ops` until `seconds` have passed. Every cycle
    holds the same ops, so runs of different length do the same mix."""
    cycles = []
    start = clock()
    while True:
        cycles.append(run_cycle(ops, execute, check, clock, speed_probe))
        if clock() - start >= seconds:
            return cycles


@dataclass
class Summary:
    throughput_ops_s: float
    latency_p50_ms: float
    latency_tail_ms: float
    wall: tuple[float, float, float]  # the three above from raw wall times
    slowdown: float  # median over the ops of the slowdown they were divided by
    tail_pct: float
    tail_beyond: int
    samples: int
    attempted: int
    failed: int

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def summarize(cycles: Sequence[CycleStats], tail_pct: float) -> Summary:
    """Throughput is ops completed ÷ the time spent in them (one caller, so
    the reciprocal of the mean latency); the latencies pool every op of every
    cycle. Each op's latency is rescaled by the speed the probes around it
    measured, across cycle boundaries."""
    wall = [x for c in cycles for x in c.latencies]
    factors = speed_factors([x for c in cycles for x in c.probes])
    scaled = [x * f for x, f in zip(wall, factors)]
    attempted = sum(c.attempted for c in cycles)

    def three(latencies):
        return (attempted / sum(latencies), 1e3 * statistics.median(latencies),
                1e3 * percentile(latencies, tail_pct))

    throughput, p50, tail = three(scaled)
    return Summary(
        throughput_ops_s=throughput,
        latency_p50_ms=p50,
        latency_tail_ms=tail,
        wall=three(wall),
        slowdown=statistics.median(1 / f for f in factors),
        tail_pct=tail_pct,
        tail_beyond=samples_beyond(len(wall), tail_pct),
        samples=len(wall),
        attempted=attempted,
        failed=sum(c.failed for c in cycles))


# -- spans ----------------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children. Overlapping children are merged first, so no
    instant is subtracted twice. A span is (name, start, end, parent, op)
    with parent the index of the enclosing span or -1."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


# -- stamping -------------------------------------------------------------------


def op_digest(ops: Sequence[Op]) -> str:
    """sha256 over the generated op list, in order; equal digests mean two
    runs issued identical inputs."""
    text = json.dumps([op.key for op in ops], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    (git is never asked to search directories above the checkout)."""
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(root: Path, workload: str, seed: int, ops: Sequence[Op], trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "ops_per_cycle": len(ops),
        "op_digest": op_digest(ops),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "scipy": _version("scipy"),
        "commit": git_commit(root),
    }

