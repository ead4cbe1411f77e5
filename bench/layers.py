"""Per-layer tracing, done from outside the package.

Public functions of the betaop modules are wrapped at their module
boundaries. A name imported with `from .transfer import apply_transfer` is a
separate binding in the importing module, so every attribute of every loaded
betaop module that refers to the wrapped function object is rebound, and put
back afterwards. QuadNum methods are never wrapped: field-layer costs come
from a kernel loop over QuadNum operands harvested from the workload's own
transfer iterates.
"""

from __future__ import annotations

import gzip
import json
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from harness import CycleStats, run_cycle, self_times, summarize

# (module, function) wrapped at module level; the span is "module.function"
LAYER_FUNCTIONS = (
    ("transfer", "apply_transfer"),
    ("transfer", "pointwise_transfer_power"),
    ("partition", "refine_to_level"),
    ("partition", "building_block"),
    ("partition", "lemmacrux_check"),
    ("partition", "intermediate_check"),
    ("spectral", "make_u_tilde"),
    ("spectral", "restriction_matrix"),
    ("spectral", "riesz_projections"),
    ("asymptotics", "two_term_residual_exact"),
    ("asymptotics", "two_term_residual_numeric"),
    ("bernoulli", "integer_base_expansion_residual"),
)
PIECEWISE_METHODS = (
    ("compose_affine", "piecewise.compose_affine"),
    ("__add__", "piecewise.add"),
    ("scaled", "piecewise.scaled"),
    ("equal_ae", "piecewise.equal_ae"),
    ("sup_norm_bracket", "piecewise.sup_norm_bracket"),
)
# Bookkeeping done by the tracer itself runs in spans of this name, so the
# layers' self times exclude it.
HOOK = "bench.hook"
RESERVOIR = 256
A0_RANGE = range(1, 6)
CATALOG_F = ("cubic", "exp-normalized", "sin")  # the F of the numeric CLI commands
POINTWISE = "transfer.pointwise_transfer_power"
IMPORT_PACKAGES = ("scipy", "numpy", "mpmath", "betaop")
INTERPRETER_PROBES = 3
FIELD_BUDGET_S = 0.05

# Every per-layer metric, in print order. Counts and times are per traced
# cycle (one pass over the workload's op multiset).
PER_LAYER = (
    [("field.%s_ns" % op, "ns") for op in ("mul", "add", "sign", "inverse", "float")]
    + [("transfer.apply_transfer.calls", "count"),
       ("transfer.apply_transfer.self_s", "s"),
       ("transfer.apply_transfer.pieces_in", "count"),
       ("transfer.apply_transfer.pieces_out", "count"),
       ("transfer.coeff_bits_max", "bits"),
       ("transfer.branch_hit_ratio", "ratio")]
    + [("transfer.branch_hit_ratio.a0_%d" % a0, "ratio") for a0 in A0_RANGE]
    + [("piecewise.%s.self_s" % m, "s")
       for m in ("compose_affine", "add", "scaled", "equal_ae")]
    + [("piecewise.sup_norm_bracket.calls", "count"),
       ("piecewise.sup_norm_bracket.self_s", "s"),
       ("partition.building_block.calls", "count"),
       ("partition.building_block.self_s", "s"),
       ("partition.refine_to_level.self_s", "s"),
       ("partition.transfers_per_block", "ratio"),
       ("spectral.make_u_tilde.calls", "count"),
       ("spectral.make_u_tilde.self_s", "s"),
       ("spectral.restriction_matrix.self_s", "s"),
       ("spectral.riesz_projections.self_s", "s"),
       ("asymptotics.two_term_residual_exact.self_s", "s"),
       ("asymptotics.two_term_residual_numeric.self_s", "s"),
       ("transfer.pointwise_transfer_power.self_s", "s"),
       ("transfer.pointwise_transfer_power.nodes", "count"),
       ("transfer.pointwise_transfer_power.nodes_per_s", "1/s"),
       ("catalog.scalar_fallback_share", "ratio")]
    + [("catalog.scalar_fallback_share.%s" % f, "ratio") for f in CATALOG_F]
    + [("bernoulli.integer_base_expansion_residual.self_s", "s"),
       ("cli.interpreter_s", "s"),
       ("cli.import_s", "s")]
    + [("cli.import.%s_s" % p, "s") for p in IMPORT_PACKAGES]
    + [("cli.command_body_s", "s"),
       ("trace.untraced_ops_s", "ops/s"),
       ("trace.traced_ops_s", "ops/s"),
       ("trace.overhead_frac", "ratio")]
)


class CountingF:
    """A catalog function handed out by `catalog.builtin` while tracing. It
    counts the preimage leaves it is asked to evaluate inside
    pointwise_transfer_power: an array call counts its size as vectorized
    leaves, a scalar call counts one scalar-fallback leaf. A vector call that
    raises (math.exp on an array) counts nothing; the engine then retries
    leaf by leaf. Calls elsewhere, such as F(1) - F(0), are not leaves and
    are not counted. Other attributes pass through to the wrapped function."""

    def __init__(self, F, tracer: "Tracer", name: str):
        self._F, self._tracer, self._name = F, tracer, name

    def __call__(self, x):
        vector = getattr(x, "ndim", 0) > 0
        out = self._F(x)
        if self._tracer.innermost() == POINTWISE:
            self._tracer.counters["leaves.%s.%s" % (
                "vector" if vector else "scalar", self._name)] += x.size if vector else 1
        return out

    def __getattr__(self, attr):
        return getattr(self._F, attr)


class Tracer:
    """Spans (name, start, end, parent, op) kept in memory, plus counters."""

    def __init__(self, seed: int):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.counters: Counter = Counter()
        self.coeff_bits_max = 0
        self.pairs: list = []  # reservoir of same-field QuadNum operand pairs
        self._offered = 0
        self._rng = random.Random(seed)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                hook = self.open(HOOK)
                try:
                    after(args, result)
                finally:
                    self.close(hook)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- hooks --------------------------------------------------------------

    def _after_transfer(self, args, result):
        self.counters["apply_transfer.pieces_in"] += len(args[0].pieces)
        self.counters["apply_transfer.pieces_out"] += len(result.pieces)
        coeffs = [c for piece in result.pieces for c in piece.coeffs]
        for c in coeffs:
            self.coeff_bits_max = max(
                self.coeff_bits_max, c.p.numerator.bit_length(), c.p.denominator.bit_length(),
                c.q.numerator.bit_length(), c.q.denominator.bit_length())
        for pair in zip(coeffs, coeffs[1:]):
            self._offered += 1
            if len(self.pairs) < RESERVOIR:
                self.pairs.append(pair)
            else:
                slot = self._rng.randrange(self._offered)
                if slot < RESERVOIR:
                    self.pairs[slot] = pair

    def _after_compose(self, args, result):
        a0 = args[0].params.a0
        self.counters["branch.calls.a0_%d" % a0] += 1
        if not result.is_zero():
            self.counters["branch.hits.a0_%d" % a0] += 1

    # -- installation -------------------------------------------------------

    @contextmanager
    def active(self):
        """Wrap the package for the duration of the block; `catalog.builtin`
        hands out counting catalog functions meanwhile."""
        import betaop
        from betaop.piecewise import PiecewisePoly
        modules = [m for n, m in sys.modules.items()
                   if n == "betaop" or n.startswith("betaop.")]
        hooks = {"transfer.apply_transfer": self._after_transfer,
                 "piecewise.compose_affine": self._after_compose}
        builtin = betaop.catalog.builtin
        replacements = [(builtin, lambda name: CountingF(builtin(name), self, name))]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(getattr(betaop, mod_name), fn_name)
            span = "%s.%s" % (mod_name, fn_name)
            replacements.append((original, self.wrap(span, original, hooks.get(span))))
        undo = []
        try:
            for original, wrapper in replacements:
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            for attr, span in PIECEWISE_METHODS:
                original = vars(PiecewisePoly)[attr]
                undo.append((PiecewisePoly, attr, original))
                setattr(PiecewisePoly, attr, self.wrap(span, original, hooks.get(span)))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


# -- per-layer metrics ----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    """A ratio whose denominator was never counted on this workload reads 0."""
    return num / den if den else 0.0


def field_kernel_ns(pairs) -> dict[str, float]:
    """ns per QuadNum operation on the harvested operand pairs."""
    if not pairs:
        return {op: 0.0 for op in ("mul", "add", "sign", "inverse", "float")}
    diffs = [x - y for x, y in pairs]
    nonzero = [x for x, _ in pairs if not x.is_zero()] or [pairs[0][0].params.one()]

    def mul():
        for x, y in pairs:
            x * y
        return len(pairs)

    def add():
        for x, y in pairs:
            x + y
        return len(pairs)

    def sign():
        for d in diffs:
            d.sign()
        return len(diffs)

    def inverse():
        for x in nonzero:
            x.inverse()
        return len(nonzero)

    def to_float():
        for x, _ in pairs:
            float(x)
        return len(pairs)

    out = {}
    for name, body in (("mul", mul), ("add", add), ("sign", sign),
                       ("inverse", inverse), ("float", to_float)):
        done = 0
        start = time.perf_counter()
        while time.perf_counter() - start < FIELD_BUDGET_S:
            done += body()
        out[name] = 1e9 * (time.perf_counter() - start) / done
    return out


def parse_importtime(stderr: str) -> list[tuple[int, int, int, str]]:
    """Rows (depth, self_us, cumulative_us, module) of `-X importtime`."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(self_us), int(cum_us), name.strip()))
    return rows


def import_breakdown(rows) -> dict[str, float]:
    """import_s: cumulative time of the top-level betaop imports. Per
    package: the summed self time of its modules, so no instant is counted
    under two packages."""
    out = {"import_s": 1e-6 * sum(cum for depth, _, cum, name in rows
                                  if depth == 0 and name.split(".")[0] == "betaop")}
    for pkg in IMPORT_PACKAGES:
        out["import.%s_s" % pkg] = 1e-6 * sum(
            own for _, own, _, name in rows if name.split(".")[0] == pkg)
    return out


def count_blocks(ops, cycles: list[CycleStats]) -> int:
    """Building blocks verified by the collapse ops of the given cycles."""
    blocks = 0
    for cycle in cycles:
        for op, result in zip(ops, cycle.results):
            if op.kind == "lemmacrux" and result is not None:
                blocks += result.checked
            elif op.kind == "intermediate":
                blocks += op.args[1]  # one block per admissible j < a1
    return blocks


def layer_metrics(tracer: Tracer, n_cycles: int, blocks: int, cli: dict,
                  untraced_rate: float, traced_rate: float) -> dict[str, float]:
    calls, self_s = Counter(), Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    c = tracer.counters
    per = 1.0 / n_cycles
    m = {"field.%s_ns" % k: v for k, v in field_kernel_ns(tracer.pairs).items()}
    m["transfer.apply_transfer.calls"] = per * calls["transfer.apply_transfer"]
    m["transfer.apply_transfer.self_s"] = per * self_s["transfer.apply_transfer"]
    m["transfer.apply_transfer.pieces_in"] = per * c["apply_transfer.pieces_in"]
    m["transfer.apply_transfer.pieces_out"] = per * c["apply_transfer.pieces_out"]
    m["transfer.coeff_bits_max"] = tracer.coeff_bits_max
    m["transfer.branch_hit_ratio"] = _ratio(
        sum(c["branch.hits.a0_%d" % a0] for a0 in A0_RANGE),
        sum(c["branch.calls.a0_%d" % a0] for a0 in A0_RANGE))
    for a0 in A0_RANGE:
        m["transfer.branch_hit_ratio.a0_%d" % a0] = _ratio(
            c["branch.hits.a0_%d" % a0], c["branch.calls.a0_%d" % a0])
    for name in ("compose_affine", "add", "scaled", "equal_ae"):
        m["piecewise.%s.self_s" % name] = per * self_s["piecewise." + name]
    for span in ("piecewise.sup_norm_bracket", "partition.building_block",
                 "spectral.make_u_tilde"):
        m[span + ".calls"] = per * calls[span]
        m[span + ".self_s"] = per * self_s[span]
    for span in ("partition.refine_to_level", "spectral.restriction_matrix",
                 "spectral.riesz_projections", "asymptotics.two_term_residual_exact",
                 "asymptotics.two_term_residual_numeric",
                 "transfer.pointwise_transfer_power",
                 "bernoulli.integer_base_expansion_residual"):
        m[span + ".self_s"] = per * self_s[span]
    m["partition.transfers_per_block"] = _ratio(calls["transfer.apply_transfer"], blocks)
    vector = {f: c["leaves.vector." + f] for f in CATALOG_F}
    scalar = {f: c["leaves.scalar." + f] for f in CATALOG_F}
    leaves = sum(vector.values()) + sum(scalar.values())
    m["transfer.pointwise_transfer_power.nodes"] = per * leaves
    m["transfer.pointwise_transfer_power.nodes_per_s"] = _ratio(
        leaves, self_s[POINTWISE])
    m["catalog.scalar_fallback_share"] = _ratio(sum(scalar.values()), leaves)
    for f in CATALOG_F:
        m["catalog.scalar_fallback_share." + f] = _ratio(scalar[f], scalar[f] + vector[f])
    for key in ("interpreter_s", "import_s", "command_body_s",
                *("import.%s_s" % p for p in IMPORT_PACKAGES)):
        m["cli." + key] = cli.get(key, 0.0)
    m["trace.untraced_ops_s"] = untraced_rate
    m["trace.traced_ops_s"] = traced_rate
    m["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return m


# -- the traced run -------------------------------------------------------------


def _joined(parts: list[CycleStats]) -> CycleStats:
    return CycleStats(latencies=[x for p in parts for x in p.latencies],
                      probes=[x for p in parts for x in p.probes],
                      failed=sum(p.failed for p in parts),
                      results=[r for p in parts for r in p.results])


def run_traced(workload, ops, seconds: float, seed: int, spans_path: Path):
    """Run whole cycles, each op once untraced and once traced, until
    `seconds` have passed. Returns the per-layer metrics and the untraced
    and traced halves of every cycle."""
    tracer = Tracer(seed)
    cli_rows = []  # (latency, import breakdown) per traced CLI op
    interpreter = []

    def execute_traced(op):
        tracer.op += 1
        if workload.in_process:
            return workload.execute(op)
        t0 = time.perf_counter()
        code, stdout, stderr = workload.execute(op, ("-X", "importtime"))
        latency = time.perf_counter() - t0
        cli_rows.append((latency, import_breakdown(parse_importtime(stderr.decode()))))
        # spans cannot cross the process boundary, so the command body is
        # also run in-process under the tracer
        workload.run_in_process(op.args)
        return code, stdout, stderr

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if not workload.in_process:
            for _ in range(INTERPRETER_PROBES):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "pass"], check=True)
                interpreter.append(time.perf_counter() - t0)
        # each op runs untraced and then traced, back to back, so a drift in
        # machine speed hits both sides of the overhead alike
        plain, probed = [], []
        for op in ops:
            plain.append(run_cycle([op], workload.execute, workload.check,
                                   speed_probe=workload.speed_probe))
            with tracer.active():
                probed.append(run_cycle([op], execute_traced, workload.check,
                                        speed_probe=workload.speed_probe))
        untraced.append(_joined(plain))
        traced.append(_joined(probed))
        if time.perf_counter() - start >= seconds:
            break

    cli = {}
    if cli_rows:
        cli["interpreter_s"] = statistics.median(interpreter)
        for key in cli_rows[0][1]:
            cli[key] = statistics.median(row[key] for _, row in cli_rows)
        cli["command_body_s"] = statistics.median(
            lat - cli["interpreter_s"] - row["import_s"] for lat, row in cli_rows)
    metrics = layer_metrics(
        tracer, len(traced), count_blocks(ops, traced), cli,
        untraced_rate=summarize(untraced, 50).throughput_ops_s,
        traced_rate=summarize(traced, 50).throughput_ops_s)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_path, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    return metrics, untraced, traced
