"""Tests of the benchmark's own machinery.

Run with: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from pffcert import arith, gf, sieve  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# 28, 40, 198 and 416 are the operations per pass of certify-wide, search,
# certify-grid and oracle
@pytest.mark.parametrize("n, p", [(28, 64), (40, 75), (41, 75), (60, 83), (198, 94), (358, 97), (416, 97)])
def test_tail_percentile_leaves_ten_operations_beyond(n, p):
    assert run.tail_percentile(n) == p
    values = list(range(n))
    beyond = [v for v in values if v > run.percentile(values, p)]
    assert len(beyond) >= 10
    # one percentile higher would leave fewer than ten
    assert len([v for v in values if v > run.percentile(values, p + 1)]) < 10


def test_tail_percentile_needs_more_than_ten_operations():
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_self_times_of_a_nested_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tr.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_summary_adds_self_times_per_name():
    t = tr.Tracer()
    f = t.wrap(lambda: None, "x.f")

    def g_body():
        f()
        f()
        raise KeyError

    g = t.wrap(g_body, "x.g")
    with pytest.raises(KeyError):
        g()
    out = tr.summary(t)
    assert out["x.f"]["calls"] == 2 and out["x.g"]["calls"] == 1
    assert out["x.g"]["raised"] == {"KeyError": 1}
    total = out["x.g"]["total_s"]
    assert out["x.g"]["self_s"] + out["x.f"]["self_s"] == pytest.approx(total)


def test_host_speed_scales_by_the_samples_around_an_interval():
    probe = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    for at, took in [(0.0, ref), (1.0, 2 * ref), (2.0, 3 * ref), (5.0, ref)]:
        probe.at.append(at)
        probe.took.append(took)
    # [0.5, 2.5] holds the samples at 1 and 2; its neighbours are those at 0 and 5
    assert probe.busy(0.5, 2.5) == pytest.approx(2 - 5 * ref)
    assert probe.scaled(0.5, 2.5) == pytest.approx((2 - 5 * ref) * 4 / 7)
    # no sample inside [3, 4]: the speed comes from the samples at 2 and 5
    assert probe.scaled(3.0, 4.0) == pytest.approx(1 / 2)


def test_host_speed_probe_samples_while_active():
    with hostspeed.HostSpeed() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.took) >= 4


def test_tracer_patches_every_binding_and_removes_its_wrappers():
    factor, multiply = arith.factor, gf.FieldTower.multiply
    assert sieve.factor is factor
    with tr.Tracer() as t:
        assert arith.factor is not factor and sieve.factor is arith.factor
        assert gf.FieldTower.multiply is not multiply
        assert arith.factor.cache_info() == factor.cache_info()
        t.current_op = 0
        sieve.certify(2, 5)
        out = tr.summary(t)
    assert arith.factor is factor and sieve.factor is factor
    assert gf.FieldTower.multiply is multiply
    assert out["sieve.certify"]["calls"] == 1
    assert out["arith.factor"]["calls"] >= 1
    assert set(t.op.tolist()) == {0}


def test_declared_metrics_are_measured_by_the_benchmark():
    names = {m["name"] for m in BENCH["end_to_end"]}
    assert "setup_s" in names
    fake = {"attempted": 20, "errors": 0, "undecided": 1, "wall_s": 1.0, "op_s": [0.05] * 20,
            "raw_op_s": [0.06] * 20, "host_slowdown": 1.2, "peak_rss_mib": 30.0}
    setup = {"setup_s": 0.3, "raw_setup_s": 0.36}
    assert names <= set(run.end_to_end([setup], [fake]))
    labels = set(sieve.METHODS) | {workloads.UNDECIDED}
    for m in BENCH["per_layer"]:
        if m["name"].startswith("sieve.method."):
            assert m["name"].removeprefix("sieve.method.") in labels


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_wide_sample_keeps_the_undecided_share():
    recorded = json.loads(workloads.WIDE_FILE.read_text())
    undecided = {tuple(r[:2]) for r in recorded["undecided"]}
    sample = workloads.wide_inputs(7)
    assert len(set(sample)) == len(sample) == sum(workloads.WIDE_SAMPLE.values())
    assert len(undecided & set(sample)) == workloads.WIDE_SAMPLE["undecided"]
    reachable = {p for seed in range(300) for p in workloads.wide_inputs(seed)}
    assert len(reachable) == workloads.WIDE_BAND * len(sample)


SMOKE = {
    "certify-grid": [(2, 3), (3, 5), (2, 21), (4, 7)],
    "certify-wide": [(5, 4), (31, 6), (89, 5)],
    "search": [("sweep", 3, 4), ("sweep", 2, 8), ("all", 2, 8), ("count", 2, 8), ("first", 3, 9)],
    "oracle": workloads.oracle_inputs(1)[:4],
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_passes_its_output_checks(name):
    w = workloads.WORKLOADS[name]
    ops = SMOKE[name]
    results = [w.run(op) for op in ops]
    assert w.check(ops, results) == []
    assert all(w.outcome(r) != workloads.UNDECIDED for r in results)


def test_checks_catch_wrong_outputs():
    w = workloads.WORKLOADS["certify-grid"]
    certs = [w.run((2, 3)), w.run((3, 5))]
    assert w.check([(3, 5), (2, 3)], certs)  # verdicts swapped between pairs
    s = workloads.WORKLOADS["search"]
    assert s.check([("sweep", 2, 4)], [1])
    assert s.check([("sweep", 2, 8), ("all", 2, 8)], [17, s.run(("all", 2, 8))])
    o = workloads.WORKLOADS["oracle"]
    op = workloads.oracle_inputs(1)[0]
    formula, brute = o.run(op)
    assert o.check([op], [(formula, brute + 1)])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
