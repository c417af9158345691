"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import harness
import run
import spans as spanlib

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 400


def tiny(name, **changes):
    return dataclasses.replace(harness.WORKLOADS[name], n=TINY, **changes)


def run_tiny(wl, tmp_path, trace):
    return harness.run_workload(wl, seed=3, seconds=0.0, trace=trace,
                                root=run.ROOT, workdir=tmp_path / "work",
                                setup_count=1)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_metric_is_emitted(name, tmp_path):
    wl = tiny(name)
    plain = run_tiny(wl, tmp_path, trace=False)
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for key in ("op_s", "op_cpu_s", "setup_s", "peak_rss_mb"):
        assert plain["metrics"][key] > 0.0
    # a coarse grid misses the fixture's alpha* and the 1e-3 representation
    # bound, and the checks say so
    assert plain["operations"][0]["outcome"] == "unexpected"
    assert not plain["correct"]
    traced = run_tiny(wl, tmp_path, trace=True)
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert traced["attempted"] == 2  # one input, untraced and traced
    assert traced["span_sums_hold"]
    assert traced["metrics"]["config.build_scenario_instance.s"] > 0.0
    assert traced["metrics"]["grid.solve_tridiagonal.calls"] > 0.0
    # the wrappers are gone once the traced operation is over
    import semifold.continuation
    import semifold.grid
    assert semifold.continuation.solve_tridiagonal is semifold.grid.solve_tridiagonal
    assert not hasattr(semifold.grid.solve_tridiagonal, "__wrapped__")


def test_units_match_benchmark_json():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    units = run.units_for(names, harness)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert units[m["name"]] == m["unit"], m["name"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


def test_passing_operation(tmp_path):
    wl = dataclasses.replace(harness.WORKLOADS["two-4k"],
                             draw=lambda u, fx: {"t": -9.0})
    result = run_tiny(wl, tmp_path, trace=False)
    assert result["correct"] and result["failed"] == 0
    op = result["operations"][0]
    assert op["outcome"] == "ok" and all(op["checks"].values())
    assert set(op["stages"]) == {"build_instance", "branch_start", "trace", "two"}
    m = result["metrics"]
    assert m["ops_per_s"] == pytest.approx(1.0 / op["wall_s"])
    assert m["op_s"] == op["wall_s"]
    assert m["answer_err"] == pytest.approx(5.17e-4, rel=1e-2)


def test_forced_failure_counts_in_fail_share(tmp_path):
    # t above the fold: `two` must exit 2 with "query past fold"
    wl = tiny("two-4k", draw=lambda u, fx: {"t": 5.0})
    result = run_tiny(wl, tmp_path, trace=False)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["metrics"]["ops_per_s"] == pytest.approx(
        1.0 / result["operations"][0]["wall_s"])
    assert not result["correct"]  # not one of the documented defects
    text = "\n".join(run.summary(result, run.units_for(result["metrics"], harness)))
    assert "fail_share = 1 " in text
    assert result["operations"][0]["rc"] == 2


def test_monotone_escape_is_a_known_failure():
    wl = harness.WORKLOADS["monotone-64k"]
    err = "numerical failure: upward iterate escaped above the supersolution at step 9"
    assert harness.known_failure(wl, 2, err) == "monotone_escape"
    assert harness.known_failure(wl, 2, "numerical failure: other") is None
    assert harness.known_failure(harness.WORKLOADS["fold-64k"], 2, err) is None


def test_same_seed_same_operations(tmp_path):
    wl = tiny("two-4k")
    assert harness.op_count(wl, 30.0, False) == round(30.0 / wl.op_s)
    assert harness.op_count(wl, 30.0, True) == round(15.0 / wl.op_s)
    assert harness.op_count(wl, 0.0, False) == 1
    wl = dataclasses.replace(wl, op_s=1.0)
    a, b = (harness.run_workload(wl, seed=3, seconds=3.0, trace=False,
                                 root=run.ROOT, workdir=tmp_path / f"w{i}",
                                 setup_count=1) for i in range(2))
    assert a["inputs"] == a["attempted"] == b["attempted"] == 3
    assert not a["cut"] and not b["cut"]
    assert a["failed"] == b["failed"]
    assert [(o["inputs"], o["outcome"]) for o in a["operations"]] == \
        [(o["inputs"], o["outcome"]) for o in b["operations"]]


def test_inputs_follow_the_seed():
    fx = harness.load_fixture(run.ROOT)
    for wl in harness.WORKLOADS.values():
        a = [harness.inputs_for(wl, fx, 7, k) for k in range(20)]
        assert a == [harness.inputs_for(wl, fx, 7, k) for k in range(20)]
        assert a != [harness.inputs_for(wl, fx, 8, k) for k in range(20)]
    ts = [harness.inputs_for(harness.WORKLOADS["two-4k"], fx, 5, k)["t"]
          for k in range(200)]
    assert fx.alpha - 10.0 < min(ts) and max(ts) < fx.alpha - 1e-3
    # the near-fold decade is drawn, not avoided
    assert any(t > fx.alpha - 1e-2 for t in ts)
    fold = [harness.inputs_for(harness.WORKLOADS["fold-64k"], fx, 5, k)
            for k in range(50)]
    assert all(1.5 <= x["step_ds"] < 2.5 for x in fold)
    assert all(-12 * fx.tau_star < x["t_start"] <= -8 * fx.tau_star for x in fold)


def test_self_times_sum_to_parent_duration():
    tracer = spanlib.Tracer()
    leaf = tracer.wrap("x.leaf", lambda: time.sleep(0.002))

    def middle_body():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = tracer.wrap("x.middle", middle_body)
    with tracer.root(0):
        middle()
        leaf()
    spans = tracer.spans
    own = spanlib.self_times(spans)
    assert [s.name for s in spans] == ["bench.op", "x.middle", "x.leaf",
                                       "x.leaf", "x.leaf"]
    for i, span in enumerate(spans):
        kids = [s.duration for s in spans if s.parent == i]
        assert own[i] + sum(kids) == pytest.approx(span.duration, abs=1e-12)
        assert own[i] >= 0.0
    assert sum(own) == pytest.approx(spans[0].duration, abs=1e-12)
    assert spanlib.child_counts(spans, "x.middle", "x.leaf") == (2, 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "two-4k", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
