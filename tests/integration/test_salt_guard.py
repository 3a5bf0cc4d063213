"""Salt guard: simulated outputs may only change together with CODE_SALT.

:data:`repro.exec.plan.CODE_SALT` is folded into every cache key, and
it is bumped by hand. A change that alters simulation results but
forgets the bump makes every warm cache serve stale cells silently.
This test pins, per cell, the comm-time outputs and the
:attr:`~repro.exec.plan.RunSpec.key` of three canonical scenarios —
the tiny packet grid, the tiny flow grid and a seeded 3-job flow
stream (epoch and isolated-baseline cells) — to a committed fixture
recorded under the current salt, and compares them *exactly*: a cache
hit returns the stored floats bit for bit, so a one-ulp drift is
already a stale result.

Approved-update flow (after bumping ``CODE_SALT``)::

    PYTHONPATH=src python -m pytest tests/integration/test_salt_guard.py \
        --update-goldens

The update refuses to rewrite the fixture while the salt is unchanged
and the outputs differ — that is exactly the forgotten bump.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster.engine import run_stream
from repro.cluster.workload import generate_stream
from repro.exec.cache import ResultCache
from repro.exec.plan import CODE_SALT, plan_grid
from repro.exec.pool import execute_plan
from repro.routing import ROUTING_NAMES

FIXTURE_PATH = Path(__file__).parent.parent / "data" / "salt_guard.json"

#: Fixture identity: change only when the *intended* scenario changes.
SCENARIO = {
    "preset": "tiny",
    "grid_app": "FB",
    "grid_ranks": 8,
    "grid_trace_seed": 3,
    "grid_msg_scale": 0.05,
    "grid_seed": 7,
    "stream_mix": "AMG=1,DP=1,MOE=1",
    "stream_load": 0.9,
    "stream_jobs": 3,
    "stream_seed": 3,
}


def _comm(job) -> dict[str, float]:
    comm = job.comm_time_ns
    return {
        "median_comm_ns": float(np.median(comm)),
        "max_comm_ns": float(comm.max()),
        "mean_comm_ns": float(comm.mean()),
    }


def _grid_cells(backend: str) -> dict[str, dict]:
    trace = repro.fill_boundary_trace(
        num_ranks=SCENARIO["grid_ranks"], seed=SCENARIO["grid_trace_seed"]
    ).scaled(SCENARIO["grid_msg_scale"])
    grid = plan_grid(
        repro.tiny(),
        {SCENARIO["grid_app"]: trace},
        repro.PLACEMENT_NAMES,
        ROUTING_NAMES,
        seed=SCENARIO["grid_seed"],
        backend=backend,
    )
    report = execute_plan(grid, max_workers=1, cache=None)
    cells = {}
    for spec, outcome in zip(grid.specs, report.outcomes):
        result = outcome.result
        assert result is not None, outcome.error
        cells[f"{backend}/{spec.label}"] = {
            "key": spec.key,
            **_comm(result.job),
            "sim_time_ns": float(result.sim_time_ns),
        }
    return cells


def _stream_cells(tmp_path: Path) -> dict[str, dict]:
    cfg = repro.tiny()
    jobs = generate_stream(
        SCENARIO["stream_mix"], 7200.0, SCENARIO["stream_load"],
        cfg.topology.num_nodes, seed=SCENARIO["stream_seed"],
        max_jobs=SCENARIO["stream_jobs"],
    )
    cache = ResultCache(tmp_path / "stream-cache")
    run_stream(
        cfg, mix=SCENARIO["stream_mix"], load=SCENARIO["stream_load"],
        seed=SCENARIO["stream_seed"], jobs=jobs, cache=cache,
    )
    cells = {}
    for key, result in cache.iter_items():
        per_job = {
            f"{name}.{metric}": ej[metric]
            for name, ej in result.extra["epoch_jobs"].items()
            for metric in ("finish_ns", "comm_ns", "max_comm_ns")
        }
        cells[f"stream/{result.app}"] = {
            "key": key,
            **per_job,
            "sim_time_ns": float(result.sim_time_ns),
        }
    return cells


@pytest.fixture(scope="module")
def cells(tmp_path_factory) -> dict[str, dict]:
    out = {}
    out.update(_grid_cells("packet"))
    out.update(_grid_cells("flow"))
    out.update(_stream_cells(tmp_path_factory.mktemp("salt-guard")))
    return out


def _diff(got: dict, want: dict) -> list[str]:
    lines = [f"missing cell {c}" for c in sorted(set(want) - set(got))]
    lines += [f"unexpected cell {c}" for c in sorted(set(got) - set(want))]
    for cell in sorted(set(got) & set(want)):
        for field in sorted(set(got[cell]) | set(want[cell])):
            a, b = got[cell].get(field), want[cell].get(field)
            if a != b:
                lines.append(f"{cell}.{field}: got {a!r}, fixture {b!r}")
    return lines


def test_scenario_covers_all_three_paths(cells):
    assert sum(c.startswith("packet/") for c in cells) == 10
    assert sum(c.startswith("flow/") for c in cells) == 10
    stream = [c for c in cells if c.startswith("stream/")]
    assert any(c.startswith("stream/epoch:") for c in stream)
    assert any(c.startswith("stream/iso:") for c in stream)
    # At least one epoch co-schedules all three jobs.
    assert any(
        sum(f.endswith(".finish_ns") for f in cells[c]) == 3 for c in stream
    )


def test_outputs_change_only_with_a_salt_bump(cells, update_goldens):
    fixture = (
        json.loads(FIXTURE_PATH.read_text()) if FIXTURE_PATH.exists() else None
    )
    if update_goldens:
        if (
            fixture is not None
            and fixture["salt"] == CODE_SALT
            and fixture["scenario"] == SCENARIO
            and _diff(cells, fixture["cells"])
        ):
            pytest.fail(
                "outputs changed but CODE_SALT did not: bump CODE_SALT "
                "in repro/exec/plan.py, then regenerate"
            )
        FIXTURE_PATH.write_text(
            json.dumps(
                {"salt": CODE_SALT, "scenario": SCENARIO, "cells": cells},
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        fixture = json.loads(FIXTURE_PATH.read_text())
    assert fixture is not None, "no fixture: run with --update-goldens"
    assert fixture["scenario"] == SCENARIO, (
        "fixture was recorded for a different scenario; regenerate with "
        "--update-goldens"
    )
    assert fixture["salt"] == CODE_SALT, (
        f"CODE_SALT is {CODE_SALT!r} but the fixture was recorded under "
        f"{fixture['salt']!r}; regenerate with --update-goldens"
    )
    diff = _diff(cells, fixture["cells"])
    assert not diff, (
        "simulated outputs or cache keys changed while CODE_SALT stayed "
        f"{CODE_SALT!r} — a warm cache would now serve stale cells. Bump "
        "CODE_SALT if the change is intended.\n" + "\n".join(diff[:20])
    )
