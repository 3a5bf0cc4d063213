"""Tests of the benchmark itself, on reduced-size (smoke) workloads.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that are self times; together they cover every
#: layer, so they must add up to the whole traced pass.
SELF_METRICS = (
    "core.cell_setup_s", "routing.route_s", "network.loop_self_s",
    "flow.route_model_s", "flow.inject_s", "flow.loop_self_s",
    "metrics.collect_s", "placement.alloc_s", "apps.build_s",
    "mlcomms.import_s", "exec.plan_s", "exec.cache_get_s",
    "exec.cache_put_s", "exec.self_s", "cluster.schedule_s",
    "cluster.merge_s", "cluster.self_s", "bench.self_s",
)


def _run_cli(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, **(env or {})},
    )


def _smoke_pass(wl, tmp_path, seed=workloads.DEFAULT_SEED):
    inputs = wl.make_inputs(seed, smoke=True)
    return inputs, wl.run_pass(inputs, str(tmp_path))


def test_declared_names_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize(
    "workload, trace, names",
    [
        ("paper-grid-packet", "0", run.END_TO_END),
        ("ml-stream-cached", "1", run.PER_LAYER),
    ],
)
def test_cli_prints_every_declared_metric(workload, trace, names):
    done = _run_cli("--workload", workload, "--seed", "5", "--seconds", "0",
                    "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
    if trace == "0":
        assert all(result["metrics"][n]["value"] > 0 for n in names)
    assert "fail_frac" in done.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_pass_completes_cleanly(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs, raw = _smoke_pass(wl, tmp_path)
    res = wl.check(inputs, raw)
    assert res.ops and not res.violations


def test_wall_s_takes_each_step_at_its_fastest(tmp_path):
    assert run.fastest_steps([[1.0, 3.0], [2.0, 1.0]]) == 2.0
    wl = workloads.WORKLOADS["paper-grid-packet"]
    inputs = wl.make_inputs(workloads.DEFAULT_SEED, smoke=True)
    seconds, (grid, _report), steps = run.timed_pass(wl, inputs, str(tmp_path))
    assert len(steps) == len(grid.specs) + 1
    assert sum(steps) == pytest.approx(seconds)


def test_perturbed_cell_result_is_caught(tmp_path):
    wl = workloads.WORKLOADS["paper-grid-packet"]
    inputs, raw = _smoke_pass(wl, tmp_path)
    clean = wl.check(inputs, raw)

    reference = {"cells": clean.cells, "digests": clean.digests, "winners": clean.winners}
    oracle = run.Oracle(reference)
    oracle.add_pass(clean)
    assert oracle.failed == 0 and oracle.max_rel_err == 0.0

    # A comm time off by 1% fails against the reference and pass 1.
    shifted = copy.deepcopy(clean)
    op = sorted(shifted.cells)[0]
    shifted.cells[op]["median_comm_ns"] *= 1.01
    oracle.add_pass(shifted)
    assert oracle.failed == 1
    assert oracle.max_rel_err == pytest.approx(0.01)

    # A byte lost in the network breaks conservation.
    _grid, report = raw
    report.outcomes[0].result.job.bytes_recv[0] -= 1
    lossy = wl.check(inputs, raw)
    assert list(lossy.violations) == [f"{_grid.specs[0].app}/{_grid.specs[0].label}"]


@pytest.mark.parametrize("name", ["paper-grid-packet", "ml-stream-cached"])
def test_default_seed_reproduces_the_stored_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(workloads.DEFAULT_SEED)
    res = wl.check(inputs, wl.run_pass(inputs, str(tmp_path)))
    oracle = run.Oracle(run.load_reference(name))
    oracle.add_pass(res)
    assert oracle.failed == 0, oracle.reasons
    assert oracle.max_rel_err == 0.0
    if res.winners:
        agree, groups = oracle.top1
        assert agree == groups > 0


def test_warm_rerun_that_simulates_is_caught(tmp_path):
    wl = workloads.WORKLOADS["ml-stream-cached"]
    inputs, raw = _smoke_pass(wl, tmp_path)
    raw["warm"].counters["cells_cached"] -= 1
    res = wl.check(inputs, raw)
    assert list(res.violations) == ["warm/0000"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_self_times_sum_to_the_traced_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    tr, pass_s, raw, inputs = run.traced_pass(
        wl, workloads.DEFAULT_SEED, True, str(tmp_path)
    )
    unit_s = tr.total[tracer.ROOT]
    assert 0 < pass_s <= unit_s
    metrics = run.layer_metrics(tr, wl.check(inputs, raw).extra)
    covered = sum(metrics[m] for m in SELF_METRICS)
    assert covered == pytest.approx(unit_s, rel=run.SELF_SUM_TOL)
    assert covered == pytest.approx(sum(tr.layer_self().values()), rel=1e-9)


def test_instrumentation_is_removed_after_a_traced_pass():
    from repro.exec import pool
    from repro.flow.routes import FlowRouteModel

    before = (pool.run_single, FlowRouteModel.__dict__["entry"])
    with tracer.instrument(tracer.Tracer()):
        assert pool.run_single is not before[0]
    assert (pool.run_single, FlowRouteModel.__dict__["entry"]) == before


def test_stream_exposes_the_object_fabric(tmp_path):
    wl = workloads.WORKLOADS["ml-stream-cached"]
    tr, _pass_s, raw, inputs = run.traced_pass(
        wl, workloads.DEFAULT_SEED, True, str(tmp_path)
    )
    metrics = run.layer_metrics(tr, wl.check(inputs, raw).extra)
    assert metrics["exec.hit_rate"] == 1.0
    assert metrics["flow.object_fabrics"] > 0


def test_refuses_to_run_with_a_flow_knob_set():
    done = _run_cli("--workload", "paper-grid-packet", "--smoke",
                    env={"REPRO_FLOW_FABRIC": "object"})
    assert done.returncode == 2
    assert done.stdout == ""
