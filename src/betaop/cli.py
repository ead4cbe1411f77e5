"""Command-line interface: exact verification commands plus CSV/JSON export
of iterates, residual series, partitions, Bernoulli tables, and integer-base
residuals. Every file output is accompanied by a JSON run manifest.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error,
3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import math
import sys
import time

from . import __version__
from .asymptotics import (epsilon_of, slope_or_nan, two_term_residual_exact,
                          two_term_residual_numeric)
from .bernoulli import bernoulli_coeffs, integer_base_expansion_residual
from .catalog import builtin
from .field import BetaParams
from .partition import refine_to_level
from .piecewise import PiecewisePoly
from .spectral import mat_equal, mat_mul, mat_scale, riesz_projections
from .transfer import BudgetExceeded, apply_transfer, apply_transfer_iterate

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _dec(x: float, rounding: str | None = None) -> str:
    """15 significant digits, rounded half-even or, for a bound, by a decimal rounding."""
    if rounding:
        with decimal.localcontext(prec=15, rounding=rounding):  # 15 digits survive float()
            x = float(+decimal.Decimal(x))
    return "{:.15g}".format(float(x))


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_output(args, text: str, elapsed: float, extra: dict) -> None:
    """Write the data file plus a sibling <path>.manifest.json; without
    --output the data goes to stdout and no manifest is built."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        with open(args.output + ".manifest.json", "w") as fh:
            fh.write(_json(_manifest(args, elapsed, extra)))
    else:
        sys.stdout.write(text)


def _manifest(args, elapsed: float, extra: dict) -> dict:
    from importlib.metadata import version
    doc = {
        "schema": 1,
        "command": args.command,
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "output") and v is not None},
        "versions": {
            "betaop": __version__,
            "python": sys.version.split()[0],
            "numpy": version("numpy"),
            "mpmath": version("mpmath"),
        },
        "elapsed_seconds": elapsed,
    }
    # strict JSON has no NaN: a slope with no points to fit is written null
    doc.update({k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in extra.items()})
    return doc


def _params(args) -> BetaParams:
    return BetaParams(args.a0, args.a1)


def _load_function(args):
    """A catalog entry, or a PiecewisePoly read from --piecewise-json, which
    must be over the field that --a0/--a1 name."""
    if not args.piecewise_json:
        return builtin(args.F)
    try:
        with open(args.piecewise_json) as fh:
            F = PiecewisePoly.from_json_dict(json.load(fh))
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError("--piecewise-json %s is malformed: %s"
                         % (args.piecewise_json, exc)) from None
    if F.params is not _params(args):
        raise ValueError("--piecewise-json %s is over a0=%d a1=%d, not --a0 %d --a1 %d"
                         % (args.piecewise_json, F.params.a0, F.params.a1,
                            args.a0, args.a1))
    return F


# -- commands -------------------------------------------------------------------
# Each returns (text, manifest extras, exit code); main writes and times them.


def cmd_eigen_check(args):
    params = _params(args)
    data = riesz_projections(params)
    eigs = data.eigenvalues
    _, lam2, binv, _ = eigs
    u1, u2, u3 = data.u_tilde
    projs = data.projections
    m4 = data.matrix
    ok_alg = True
    for i, (pi, lam) in enumerate(zip(projs, eigs)):
        ok_alg &= mat_equal(mat_mul(pi, pi), pi)
        ok_alg &= mat_equal(mat_mul(m4, pi), mat_scale(pi, lam))
        ok_alg &= mat_equal(mat_mul(pi, m4), mat_scale(pi, lam))
        for j, pj in enumerate(projs):
            if i != j:
                zero = mat_scale(pi, params.zero())
                ok_alg &= mat_equal(mat_mul(pi, pj), zero)
    checks = [
        ("P u1 = u1", apply_transfer(u1).equal_ae(u1)),
        ("P u2 = (-a1/beta^2) u2", apply_transfer(u2).equal_ae(u2.scaled(lam2))),
        ("P u3 = (1/beta) u3", apply_transfer(u3).equal_ae(u3.scaled(binv))),
        ("integral u1 = 1", u1.integrate() == 1),
        ("integral u2 = 0", u2.integrate() == 0),
        ("integral u3 = 0", u3.integrate() == 0),
        ("projection algebra on the 4x4 restriction matrix", ok_alg),
    ]
    lines = ["%s %s" % ("PASS" if ok else "FAIL", label) for label, ok in checks]
    failures = sum(not ok for _, ok in checks)
    if args.json:
        text = _json({
            "schema": 1,
            "a0": params.a0,
            "a1": params.a1,
            "nu": 2,
            "eigenvalues": [e.to_string() for e in eigs],
            "eigenvalues_decimal": [_dec(float(e)) for e in eigs],
            "restriction_matrix": [[e.to_string() for e in row] for row in m4],
            "checks": lines,
            "failures": failures,
        })
    else:
        text = "".join(l + "\n" for l in lines)
        text += "eigenvalues: %s\n" % ", ".join(
            "%s (%s)" % (e.to_string(), _dec(float(e))) for e in eigs)
    return text, {"failures": failures}, EXIT_PASS if failures == 0 else EXIT_VERIFICATION


def cmd_iterate(args):
    params = _params(args)
    F = _load_function(args)
    if not isinstance(F, PiecewisePoly):
        F = F.piecewise(params)
    g = apply_transfer_iterate(F, args.k)
    if args.out == "json":
        text = _json(g.to_json_dict())
    else:
        if args.grid < 0:
            raise ValueError("--grid must be >= 0, got %d" % args.grid)
        step = 1.0 / max(args.grid - 1, 1)  # as np.linspace: i*step, the last point 1
        xs = [i * step for i in range(args.grid)]
        if args.grid > 1:
            xs[-1] = 1.0
        text = _csv([("x", "value")] + [(_dec(x), _dec(v))
                                        for x, v in zip(xs, g.eval_float(xs))])
    return text, {"pieces": len(g.pieces)}, EXIT_PASS


def cmd_asymptotics(args):
    params = _params(args)
    theorem = epsilon_of(params, args.N)
    args.N = theorem.N  # the manifest records the N used, also when --N was not given
    b = params.beta_float()
    F = _load_function(args)
    if args.k_max < 1:
        raise ValueError("--k-max must be >= 1, got %d" % args.k_max)
    if args.engine == "exact":
        if not isinstance(F, PiecewisePoly):
            F = F.piecewise(params)
        series = two_term_residual_exact(F, args.k_max)
    elif isinstance(F, PiecewisePoly):
        raise ValueError("--piecewise-json needs --engine exact")
    else:
        series = two_term_residual_numeric(F, params, range(1, args.k_max + 1),
                                           grid=args.grid)
    header = ("k", "residual_lower", "residual_upper", "beta_power_bound", "ratio")
    rows = []
    for k, lo, up in zip(series.ks, series.residual_lower, series.residual_upper):
        bound = b ** (-(1.0 + theorem.epsilon) * k)
        # the bound underflows to 0.0 at large k; the numeric engine's upper is NaN
        ratio = (lo if math.isnan(up) else up) / bound if bound else math.nan
        rows.append((k, _dec(lo, decimal.ROUND_FLOOR), _dec(up, decimal.ROUND_CEILING),
                     _dec(bound), _dec(ratio)))
    extra = {"fitted_slope": series.fitted_slope,
             "epsilon": theorem.epsilon,
             "predicted_slope_bound": -(1.0 + theorem.epsilon) * math.log(b)}
    if args.out == "json":
        text = _json({"schema": 1, "a0": params.a0, "a1": params.a1,
                      "rows": [dict(zip(header, row)) for row in rows],
                      **{k: _dec(v) for k, v in extra.items()}})
    else:
        text = _csv([header] + rows)
    return text, extra, EXIT_PASS


def cmd_partition_dump(args):
    params = _params(args)
    partition = refine_to_level(params, args.M)
    histogram: dict[int, int] = {}
    for g in partition.gaps:
        histogram[g.depth] = histogram.get(g.depth, 0) + 1
    if args.out == "json":
        text = _json({
            "schema": 1, "a0": params.a0, "a1": params.a1, "M": args.M,
            "points": [{"exact": p.to_string(), "decimal": _dec(float(p))}
                       for p in partition.points],
            "gap_depth_histogram": {str(d): histogram[d] for d in sorted(histogram)},
        })
    else:
        text = _csv(
            [("left_exact", "left_decimal", "depth", "gap_length_decimal")]
            + [(g.value.to_string(), _dec(float(g.value)), g.depth,
                _dec(float(g.gap_length()))) for g in partition.gaps]
            + [(), ("depth", "count")]
            + [(d, histogram[d]) for d in sorted(histogram)])
    return text, {"gaps": len(partition.gaps)}, EXIT_PASS


def cmd_bernoulli_table(args):
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0, got %d" % args.n_max)
    ns = range(args.n_max + 1)
    if args.out == "json":
        text = _json({"schema": 1,
                      "rows": [{"n": n, "coeffs": [str(c) for c in bernoulli_coeffs(n)]}
                               for n in ns]})
    else:
        text = _csv([("n", "coefficients_ascending")]
                    + [(n, " ".join(str(c) for c in bernoulli_coeffs(n))) for n in ns])
    return text, {}, EXIT_PASS


def cmd_integer_base(args):
    F = builtin(args.F)
    if args.k_min > args.k_max:
        raise ValueError("--k-min %d is greater than --k-max %d"
                         % (args.k_min, args.k_max))
    ks = list(range(args.k_min, args.k_max + 1))
    import mpmath
    with mpmath.workdps(60):
        residuals = [integer_base_expansion_residual(F, args.q, k, args.N, args.grid)
                     for k in ks]
    slope = slope_or_nan(ks, residuals)
    text = _csv([("k", "residual")] + [(k, _dec(r)) for k, r in zip(ks, residuals)])
    return text, {"fitted_slope": slope,
                  "expected_slope": -args.N * math.log(args.q)}, EXIT_PASS


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betaop",
        description="Transfer-operator laboratory for greedy base-beta "
                    "expansions with beta^2 = a0*beta + a1.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--a0", type=int, required=True)
        p.add_argument("--a1", type=int, required=True)

    def add_common(p):
        p.add_argument("--output", help="write data here plus a "
                       "<output>.manifest.json run manifest")

    p = sub.add_parser("eigen-check", help="exact eigenrelation and "
                       "projection-algebra verification")
    add_params(p)
    p.add_argument("--json", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_eigen_check)

    p = sub.add_parser("iterate", help="apply the transfer operator k times")
    add_params(p)
    p.add_argument("--F", default="psi1")
    p.add_argument("--piecewise-json", help="read F from a piecewise JSON file")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("asymptotics", help="two-term residual series and "
                       "fitted decay slope")
    add_params(p)
    p.add_argument("--F", default="linear")
    p.add_argument("--piecewise-json")
    p.add_argument("--k-max", type=int, default=14)
    p.add_argument("--N", type=int, help="smoothness order of the decay bound; "
                   "default: the least that the threshold admits")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--engine", choices=("exact", "numeric"), default="exact")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("partition-dump", help="level-M partition points and "
                       "gap histogram")
    add_params(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=cmd_partition_dump)

    p = sub.add_parser("bernoulli-table", help="exact Bernoulli polynomial "
                       "coefficients")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=cmd_bernoulli_table)

    p = sub.add_parser("integer-base", help="integer-base expansion residual "
                       "series")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--F", default="sin")
    p.add_argument("--k-min", type=int, default=6)
    p.add_argument("--k-max", type=int, default=14)
    p.add_argument("--grid", type=int, default=41)
    add_common(p)
    p.set_defaults(func=cmd_integer_base)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        text, extra, code = args.func(args)
        _write_output(args, text, round(time.perf_counter() - started, 6), extra)
        return code
    except BudgetExceeded as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print("error: %s" % message, file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
