"""Run one betaop benchmark workload and print its metrics.

    python3 bench/run.py --workload collapse --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of layers.PER_LAYER. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (MIN_BEYOND, closed_loop, dependency_import_probe, highest_tail_pct,
                     stamp, summarize)
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def setup(workload, seed: int):
    """Import betaop from the checkout, generate the op list and compute the
    references; returns the ops and the seconds this took."""
    if not (SRC / "betaop" / "__init__.py").is_file():
        sys.exit("bench: no betaop package under %s; run from a checkout" % SRC)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    ops = workload.setup(seed, ROOT)
    elapsed = time.perf_counter() - start
    import betaop
    if SRC.resolve() not in Path(betaop.__file__).resolve().parents:
        sys.exit("bench: imported betaop from %s, not from the checkout" % betaop.__file__)
    return ops, elapsed


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure_setup(name: str, seed: int, set_up=setup_in_child,
                  probe=dependency_import_probe) -> tuple[list[float], list[float]]:
    """Set up SETUP_REPEATS times, each in a fresh process, with a dependency
    import probe before the first set-up and after each one. Returns every
    set-up divided by the mean slowdown of the two probes beside it (set-up
    is mostly import), and as measured."""
    slowdowns = [probe()]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(set_up(name, seed))
        slowdowns.append(probe())
    scaled = [t / ((a + b) / 2) for t, a, b in zip(raw, slowdowns, slowdowns[1:])]
    return scaled, raw


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(workload, ops, args) -> dict:
    cycles = closed_loop(ops, workload.execute, workload.check, args.seconds,
                         speed_probe=workload.speed_probe)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024  # read before set-up children run
    setups, setups_raw = measure_setup(workload.name, args.seed)
    s = summarize(cycles, workload.tail_pct)
    setup_scaled = statistics.median(setups)
    print("%s: %d cycles of %d ops; times at reference speed (as measured), "
          "median slowdown %.4f" % (workload.name, len(cycles), len(ops), s.slowdown))
    print("  throughput_ops_s  %10.4f ops/s  (%.4f)" % (s.throughput_ops_s, s.wall[0]))
    print("  latency_p50_ms    %10.4f ms     (%.4f; n=%d)"
          % (s.latency_p50_ms, s.wall[1], s.samples))
    print("  latency_tail_ms   %10.4f ms     (%.4f; p%g, %d samples beyond, n=%d)"
          % (s.latency_tail_ms, s.wall[2], s.tail_pct, s.tail_beyond, s.samples))
    print("  failed_frac       %10.4f ratio  (%d of %d)" % (s.failed_frac, s.failed, s.attempted))
    print("  peak_rss_mb       %10.4f MB     (%s)" % (
        peak_mb, "this process" if workload.in_process else "largest CLI child"))
    print("  setup_s           %10.4f s      (median of %s; as measured %s)" % (
        setup_scaled, ", ".join("%.4f" % x for x in setups),
        ", ".join("%.4f" % x for x in setups_raw)))
    if s.tail_beyond < MIN_BEYOND:
        best = highest_tail_pct(s.samples)
        print("  note: fewer than %d samples beyond p%g; at n=%d %s" % (
            MIN_BEYOND, s.tail_pct, s.samples,
            "no percentile has %d beyond" % MIN_BEYOND if best is None
            else "the highest percentile with %d beyond is p%g" % (MIN_BEYOND, best)))
    metrics = {
        "throughput_ops_s": metric(s.throughput_ops_s, "ops/s"),
        "latency_p50_ms": metric(s.latency_p50_ms, "ms"),
        "latency_tail_ms": metric(s.latency_tail_ms, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "setup_s": metric(setup_scaled, "s"),
    }
    return {"correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed,
            "metrics": metrics}


def run_per_layer(workload, ops, args) -> dict:
    from layers import PER_LAYER, run_traced
    spans = BENCH / "out" / ("spans-%s-seed%d.json.gz" % (workload.name, args.seed))
    values, untraced, traced = run_traced(workload, ops, args.seconds, args.seed, spans)
    cycles = untraced + traced
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    print("%s: %d untraced and %d traced cycles of %d ops, spans in %s" % (
        workload.name, len(untraced), len(traced), len(ops), spans.relative_to(ROOT)))
    for name, unit in PER_LAYER:
        print("  %-52s %14.6g %s" % (name, values[name], unit))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: metric(values[name], unit) for name, unit in PER_LAYER}}


def run_all(args) -> dict:
    """Every workload, each in a fresh process of its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({"%s.%s" % (name, k): v for k, v in one["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used to repeat set-up)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    workload = WORKLOADS[args.workload]()
    ops, setup_s = setup(workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result = run_per_layer(workload, ops, args)
    else:
        result = run_end_to_end(workload, ops, args)
    print("stamp " + json.dumps(stamp(ROOT, args.workload, args.seed, ops, bool(args.trace))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
