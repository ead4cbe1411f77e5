"""Self-tests of the benchmark harness, and a negative control per workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from harness import (CycleStats, Op, highest_tail_pct, op_digest,  # noqa: E402
                     percentile, run_cycle, samples_beyond, self_times, speed_factors,
                     summarize)
from layers import PER_LAYER, Tracer, import_breakdown, parse_importtime  # noqa: E402
from run import measure_setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- tail percentile --------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(9, None), (10, None), (20, 50), (21, 50), (36, 70),
                                    (100, 90), (199, 90), (200, 95), (1000, 99)])
def test_highest_tail_pct_keeps_ten_samples_beyond(n, pct):
    assert highest_tail_pct(n) == pct
    if pct is not None:
        assert samples_beyond(n, pct) >= 10


def test_percentile_is_nearest_rank_with_the_stated_samples_beyond():
    values = [float(v) for v in range(1, 201)]
    for pct in (50, 90, 95, 99):
        p = percentile(values, pct)
        assert sum(v > p for v in values) == samples_beyond(200, pct)
    assert percentile(values, 95) == 190.0


# -- machine speed ----------------------------------------------------------------


def test_latency_is_rescaled_by_the_probes_around_it():
    # the machine halves its speed after 20 ops: probes and latencies double
    slow = [1.0] * 20 + [2.0] * 20
    cycle = CycleStats(latencies=[0.1 * x for x in slow], probes=slow, failed=0,
                       results=[None] * 40)
    s = summarize([cycle], 90)
    assert s.wall == pytest.approx((40 / 6.0, 150.0, 200.0))
    assert (s.throughput_ops_s, s.latency_p50_ms, s.latency_tail_ms) == pytest.approx(
        (10.0, 100.0, 100.0))


def test_each_setup_is_rescaled_by_the_probes_beside_it():
    slowdowns = iter([1.0, 2.0, 2.0, 1.0])
    raw = iter([0.3, 0.4, 0.3])
    scaled, as_measured = measure_setup("collapse", 1, set_up=lambda name, seed: next(raw),
                                        probe=lambda: next(slowdowns))
    assert as_measured == [0.3, 0.4, 0.3]
    assert scaled == pytest.approx([0.2, 0.2, 0.2])


def test_one_preempted_probe_does_not_move_the_speed():
    slowdowns = [1.3] * 11
    slowdowns[5] = 50.0
    assert speed_factors(slowdowns) == pytest.approx([1 / 1.3] * 11)


# -- self time --------------------------------------------------------------------


def test_self_time_merges_overlapping_children():
    spans = [
        ("parent", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),    # overlaps a: [3, 4] must not count twice
        ("c", 8.0, 12.0, 0, 0),   # runs past the parent: only [8, 10] counts
        ("a.child", 1.5, 2.0, 1, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)


def test_self_time_of_disjoint_children_sums_to_duration():
    spans = [("p", 0.0, 4.0, -1, 0), ("x", 0.5, 1.0, 0, 0), ("y", 2.0, 3.5, 0, 0)]
    assert sum(self_times(spans)) == pytest.approx(4.0)


# -- failure accounting -----------------------------------------------------------


def test_exception_and_wrong_result_each_count_as_failed():
    ops = [Op("ok", (1,), 1), Op("raises", (2,), 2), Op("wrong", (3,), 3)]

    def execute(op):
        if op.kind == "raises":
            raise RuntimeError("injected")
        return op.args[0] if op.kind == "ok" else -1

    cycle = run_cycle(ops, execute, lambda op, result: result == op.ref)
    summary = summarize([cycle], 50)
    assert (cycle.attempted, cycle.failed) == (3, 2)
    assert summary.failed_frac == pytest.approx(2 / 3)
    assert len(cycle.latencies) == 3  # a failed op still has a latency


def test_check_that_raises_counts_as_failed():
    ops = [Op("x", (1,), None)]
    cycle = run_cycle(ops, lambda op: 1, lambda op, result: result.missing)
    assert cycle.failed == 1


# -- negative controls: a corrupted result must fail its check --------------------


def failed_frac(workload, ops, execute=None) -> float:
    cycle = run_cycle(ops, execute or workload.execute, workload.check)
    return cycle.failed / cycle.attempted


def perturb(op: Op, ref) -> Op:
    return dataclasses.replace(op, ref=ref)


@pytest.fixture(scope="module")
def collapse():
    w = WORKLOADS["collapse"]()
    return w, w.setup(7, ROOT)


def test_collapse_negative_control(collapse):
    w, ops = collapse
    lemma = next(op for op in ops if op.args == (1, 1, 2, 3))
    inter = next(op for op in ops if op.kind == "intermediate")
    assert failed_frac(w, [lemma, inter]) == 0
    assert failed_frac(w, [perturb(lemma, lemma.ref + 1)]) == 1
    assert failed_frac(w, [perturb(inter, False)]) == 1


def test_deep_series_negative_control():
    w = WORKLOADS["deep-series"]()
    op = min(w.setup(7, ROOT), key=lambda op: op.args[3])
    assert failed_frac(w, [op]) == 0
    wrong_slope = lambda op: dataclasses.replace(w.execute(op), fitted_slope=op.ref + 0.1)
    assert failed_frac(w, [op], wrong_slope) == 1


def test_cli_cold_negative_control():
    w = WORKLOADS["cli-cold"]()
    op = next(op for op in w.setup(7, ROOT) if op.args[0] == "bernoulli-table")
    assert failed_frac(w, [op]) == 0
    wrong_stdout = lambda op: (0, op.ref.replace(b"1", b"2", 1), b"")
    assert failed_frac(w, [op], wrong_stdout) == 1
    assert failed_frac(w, [op], lambda op: (1, op.ref, b"")) == 1


# -- inputs, tracing and the benchmark definition ---------------------------------


def test_op_digest_follows_the_seed(collapse):
    w, ops = collapse
    assert op_digest(ops) == op_digest(WORKLOADS["collapse"]().setup(7, ROOT))
    assert op_digest(ops) != op_digest(WORKLOADS["collapse"]().setup(8, ROOT))


def test_tracer_rebinds_every_import_and_restores_it(collapse):
    import betaop
    from betaop import partition, transfer
    w, _ = collapse
    original = transfer.apply_transfer
    tracer = Tracer(0)
    with tracer.active():
        assert partition.apply_transfer is not original
        assert betaop.apply_transfer is partition.apply_transfer
        assert w.execute(Op("intermediate", (2, 1, 1))) is True
    assert partition.apply_transfer is original and betaop.apply_transfer is original
    names = {span[0] for span in tracer.spans}
    assert {"partition.intermediate_check", "partition.building_block",
            "transfer.apply_transfer", "piecewise.compose_affine"} <= names
    # one level-1 block at a0 = 2: one of the three branches hits
    assert tracer.counters["branch.hits.a0_2"] * 3 == tracer.counters["branch.calls.a0_2"]


def test_import_breakdown_counts_each_instant_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:       200 |        200 |       scipy.integrate",
        "import time:        30 |        230 |     betaop.bernoulli",
        "import time:        20 |        250 |   betaop",
        "import time:        10 |        260 | betaop.cli",
    ])
    rows = parse_importtime(text)
    assert rows[0] == (1, 100, 100, "numpy.core")
    out = import_breakdown(rows)
    assert out["import_s"] == pytest.approx(260e-6)
    assert out["import.numpy_s"] == pytest.approx(150e-6)
    assert out["import.scipy_s"] == pytest.approx(200e-6)
    assert out["import.betaop_s"] == pytest.approx(60e-6)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "setup_s"}
