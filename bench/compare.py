"""Repeat benchmark runs on one checkout, or alternate them between two.

    python3 bench/compare.py --workload collapse --runs 10 .
    python3 bench/compare.py --workload collapse --runs 10 ../parent ../change

With one checkout it prints the median and quartiles of every metric over
`--runs` seeds. With two it runs `--runs` pairs, the same seed on both sides
of a pair, alternating which side goes first, and for each metric prints both
sides' medians and quartiles, the share of pairs the second checkout wins
(ties count for neither), and a verdict: "gain" when it wins at least nine
tenths of the pairs and the medians differ by more than the first side's
quartile distance; "regression" when its median is worse by more than the
metric's bound in BENCHMARK.json; "unresolved" when the first side's own
spread exceeds the bound; otherwise "same".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    stamp = next(json.loads(l[len("stamp "):]) for l in lines if l.startswith("stamp "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s: %d of %d ops failed on seed %d"
                         % (checkout, result["failed"], result["attempted"], seed))
    return {"seed": seed, "stamp": stamp,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def summarize(runs) -> dict:
    names = runs[0]["metrics"]
    return {n: quartiles([r["metrics"][n] for r in runs]) for n in names}


def verdict(spec: dict, base: dict, new: dict, wins: float) -> str:
    sign = 1 if spec["better"] == "higher" else -1
    worse = sign * (base["median"] - new["median"]) / base["median"]
    if worse > spec["bound"]:
        return "regression"
    if base["spread"] > spec["bound"]:
        return "unresolved"
    if wins >= 0.9 and abs(new["median"] - base["median"]) > base["q3"] - base["q1"]:
        return "gain"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one checkout, or two to compare")
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = [[] for _ in args.checkouts]
    for i in range(args.runs):
        seed = args.first_seed + i
        order = list(range(len(sides)))
        if i % 2:
            order.reverse()
        for side in order:
            sides[side].append(run_once(args.checkouts[side], args.workload, seed,
                                        seconds, args.trace))
        print("run %d (seed %d) done" % (i + 1, seed), file=sys.stderr)
    summaries = [summarize(runs) for runs in sides]
    report = {"workload": args.workload, "run_seconds": seconds,
              "checkouts": [str(c) for c in args.checkouts],
              "runs": sides, "summary": summaries}
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name in summaries[0]:
        cols = ["%-28s" % name] + ["%12.6g [%.6g, %.6g] spread %.3f" % (
            s[name]["median"], s[name]["q1"], s[name]["q3"], s[name]["spread"])
            for s in summaries]
        if len(sides) == 2 and "bound" in bounds.get(name, {}):
            sign = 1 if bounds[name]["better"] == "higher" else -1
            wins = sum(sign * (b["metrics"][name] - a["metrics"][name]) > 0
                       for a, b in zip(*sides)) / args.runs
            report.setdefault("verdicts", {})[name] = v = verdict(
                bounds[name], summaries[0][name], summaries[1][name], wins)
            cols.append("wins %.2f  %s" % (wins, v))
        print("  ".join(cols))
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
