"""The benchmark's workloads and their correctness checks.

Each workload turns the ``--seed`` into inputs (``make_inputs``), runs
one timed pass over ``repro``'s public API (``run_pass``) and checks
that pass's outputs outside the timed region (``check``). Calls into
``repro`` go through module attributes (``plan.plan_grid``,
``engine.run_stream``, ...) so the tracer's patches see them.

An *op* is one simulated cell, one epoch cell, the comms-trace import,
or the stream's per-job accounting. ``check`` returns, per op, the
simulated metrics compared against the stored reference (default seed)
or against the invocation's first pass (every seed), and the property
violations found: the op raised, a rank did not finish, bytes were not
conserved, or a warm re-run re-simulated a cell.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro
from repro import apps
from repro.cluster import engine
from repro.cluster.workload import StreamJob, WorkloadMix
from repro.exec import plan, pool
from repro.exec.cache import ResultCache
from repro.mlcomms import traceio

#: Seed whose outputs are stored under ``reference/``.
DEFAULT_SEED = 1

#: Relative difference above which a simulated metric fails the
#: reference check. Smaller differences only show in ``max_rel_err``.
REF_TOL = 1e-3


def derive(seed: int, *tags: object) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass
class PassResult:
    """What one pass produced, reduced to what the oracle compares."""

    #: op label -> simulated metrics of that op.
    cells: dict[str, dict[str, float]] = field(default_factory=dict)
    #: op label -> exact content digest (compared for equality).
    digests: dict[str, str] = field(default_factory=dict)
    #: ``app/routing`` -> placement with the lowest median comm time.
    winners: dict[str, str] = field(default_factory=dict)
    #: op label -> property violations found in this pass.
    violations: dict[str, list[str]] = field(default_factory=dict)
    #: Workload counters that are not compared (cache and epoch counts).
    extra: dict[str, float] = field(default_factory=dict)

    def violate(self, op: str, reason: str) -> None:
        self.violations.setdefault(op, []).append(reason)

    @property
    def ops(self) -> list[str]:
        return sorted(set(self.cells) | set(self.violations))


def _comm_metrics(result) -> dict[str, float]:
    comm = result.job.comm_time_ns
    return {
        "median_comm_ns": float(np.median(comm)),
        "max_comm_ns": float(comm.max()),
        "mean_comm_ns": float(comm.mean()),
        "sim_time_ns": float(result.sim_time_ns),
    }


def _conservation(result, expected_sent: list[int]) -> list[str]:
    """Completion and byte conservation of one replayed job."""
    job = result.job
    out = []
    if [int(b) for b in job.bytes_sent] != expected_sent:
        out.append("a rank did not send its whole trace")
    if int(job.bytes_sent.sum()) != int(job.bytes_recv.sum()):
        out.append("bytes sent != bytes received")
    if not np.all(np.isfinite(job.comm_time_ns)):
        out.append("non-finite comm time")
    return out


def _cell_laps(lap):
    """A progress callback that calls ``lap()`` as each cell settles."""
    if lap is None:
        return None
    settled = ("cell-done", "cell-cached", "cell-failed")

    def on_event(event) -> None:
        if event.kind in settled:
            lap()

    return on_event


# ----------------------------------------------------------------------
# placement x routing grids
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridWorkload:
    """A placement x routing grid run serially with the cache off."""

    name: str
    preset: str
    apps: tuple[str, ...]
    ranks: int
    msg_scale: float
    backend: str
    placements: tuple[str, ...] = repro.PLACEMENT_NAMES
    routings: tuple[str, ...] = ("min", "adp")
    #: Extra builder arguments (e.g. CR iteration count).
    builder_kw: tuple[tuple[str, Any], ...] = ()
    smoke_ranks: int = 4
    smoke_scale: float = 0.02

    def make_inputs(self, seed: int, smoke: bool = False) -> dict:
        ranks = self.smoke_ranks if smoke else self.ranks
        scale = self.smoke_scale if smoke else self.msg_scale
        traces = {}
        for app in self.apps:
            trace = apps.APP_BUILDERS[app](
                num_ranks=ranks, seed=derive(seed, "trace", app),
                **dict(self.builder_kw),
            )
            traces[app] = trace.scaled(scale) if scale != 1.0 else trace
        return {
            "config": getattr(repro, self.preset)(),
            "traces": traces,
            "study_seed": derive(seed, "study"),
        }

    def run_pass(self, inputs: dict, tmp: str, lap=None) -> tuple:
        grid = plan.plan_grid(
            inputs["config"], inputs["traces"], self.placements,
            self.routings, seed=inputs["study_seed"], backend=self.backend,
        )
        report = pool.execute_plan(
            grid, max_workers=1, cache=None, progress=_cell_laps(lap)
        )
        return grid, report

    def check(self, inputs: dict, raw: tuple) -> PassResult:
        grid, report = raw
        res = PassResult()
        best: dict[str, tuple[float, str]] = {}
        for spec, outcome in zip(grid.specs, report.outcomes):
            op = f"{spec.app}/{spec.label}"
            result = outcome.result
            if outcome.status != "done" or result is None:
                res.violate(op, f"cell {outcome.status}: {outcome.error}")
                continue
            sent = [rt.bytes_sent() for rt in grid.trace_for(spec).ranks]
            for reason in _conservation(result, sent):
                res.violate(op, reason)
            if spec.max_events is not None and result.events >= spec.max_events:
                res.violate(op, "event cap reached before the job finished")
            res.cells[op] = _comm_metrics(result)
            group = f"{spec.app}/{spec.routing}"
            median = res.cells[op]["median_comm_ns"]
            if group not in best or median < best[group][0]:
                best[group] = (median, spec.placement)
        res.winners = {g: p for g, (_, p) in best.items()}
        return res


# ----------------------------------------------------------------------
# comms-trace import + cached cluster stream
# ----------------------------------------------------------------------
def comms_trace_document(seed: int, num_ranks: int, iterations: int) -> str:
    """A seeded param/commsTraceReplay-style document, as JSON text."""
    rng = np.random.default_rng(derive(seed, "comms-trace"))
    records: list[dict] = []
    for it in range(iterations):
        records.append({
            "comms": "all_reduce",
            "in_msg_size": int(rng.integers(4096, 65536)),
            "dtype": "float32",
            "algo": "rd",
        })
        records.append({"marker": f"iteration_{it}"})
    return json.dumps(
        {"name": "param", "num_ranks": num_ranks, "trace": records}
    )


@dataclass(frozen=True)
class StreamWorkload:
    """Import a comms trace, then run a stream cold and warm.

    The job schedule is fixed: ``per_class`` jobs of every class in
    ``mix`` arrive round-robin at the Little's-law gap for ``load``,
    each with the class's mean target runtime; the imported trace
    arrives third. The seed draws every trace's content, the imported
    document and the stream seed. Drawing classes and arrival times as
    well would make a pass's cost swing with the draw, not the program.
    """

    name: str
    mix: str = "AMG=1,CR=1,FB=1,DP=1,MOE=1"
    per_class: int = 2
    import_ranks: int = 8
    import_iterations: int = 200
    import_scale: float = 0.01
    import_service_s: float = 120.0
    service_s: float = 510.0
    load: float = 0.6
    duration_s: float = 7200.0
    smoke_per_class: int = 1
    smoke_iterations: int = 10

    def make_inputs(self, seed: int, smoke: bool = False) -> dict:
        config = repro.tiny()
        mix = WorkloadMix.parse(self.mix)
        per_class = self.smoke_per_class if smoke else self.per_class
        iterations = self.smoke_iterations if smoke else self.import_iterations
        slots: list[tuple[str, int, float]] = []
        for j in range(per_class):
            for c in mix.classes:
                slots.append((c.app, (4, 8)[j % 2], c.scales[j % len(c.scales)]))
        slots.insert(2, ("import", self.import_ranks, self.import_scale))
        mean_ranks = sum(r for _, r, _ in slots) / len(slots)
        gap_s = mean_ranks * self.service_s / (self.load * config.topology.num_nodes)
        return {
            "config": config,
            "mix": mix,
            "doc": comms_trace_document(seed, self.import_ranks, iterations),
            "iterations": iterations,
            "slots": [
                (app, ranks, scale, i * gap_s, derive(seed, "job", i))
                for i, (app, ranks, scale) in enumerate(slots)
            ],
            "stream_seed": derive(seed, "stream"),
        }

    def build_jobs(self, inputs: dict, imported) -> list[StreamJob]:
        jobs = []
        for jid, (app, ranks, scale, arrival, tseed) in enumerate(inputs["slots"]):
            if app == "import":
                app, trace, service = "DP", imported, self.import_service_s
            else:
                trace = apps.APP_BUILDERS[app](num_ranks=ranks, seed=tseed)
                service = self.service_s
            jobs.append(StreamJob(
                id=jid, app=app, ranks=ranks, arrival_s=arrival,
                service_s=service, msg_scale=scale, trace=trace.scaled(scale),
            ))
        return jobs

    def run_pass(self, inputs: dict, tmp: str, lap=None) -> dict:
        imported = traceio.parse_comms_trace(json.loads(inputs["doc"]))
        if lap is not None:
            lap()
        jobs = self.build_jobs(inputs, imported)
        cache_dir = tempfile.mkdtemp(prefix="stream-", dir=tmp)
        runs = {}
        for phase in ("cold", "warm"):
            cache = ResultCache(cache_dir)
            runs[phase] = engine.run_stream(
                inputs["config"], mix=inputs["mix"],
                duration_s=self.duration_s, load=self.load,
                seed=inputs["stream_seed"], cache=cache, jobs=jobs,
                progress=_cell_laps(lap),
            )
            runs[phase + "_cache"] = cache
        return {"imported": imported, "jobs": jobs, "cache_dir": cache_dir, **runs}

    def check(self, inputs: dict, raw: dict) -> PassResult:
        res = PassResult()
        imported = raw["imported"]
        records = len(json.loads(inputs["doc"])["trace"])
        try:
            imported.validate()
        except ValueError as exc:
            res.violate("import", f"imported trace invalid: {exc}")
        if imported.meta["iterations"] != inputs["iterations"]:
            res.violate("import", "wrong iteration count")
        if imported.meta["records"] != records:
            res.violate("import", "wrong record count")
        res.cells["import"] = {
            "bytes": float(imported.total_bytes()),
            "ops": float(sum(len(rt) for rt in imported.ranks)),
        }
        res.digests["import"] = plan.trace_fingerprint(imported)

        sent = {j.name: [rt.bytes_sent() for rt in j.trace.ranks] for j in raw["jobs"]}
        for _key, result in ResultCache(raw["cache_dir"]).iter_items():
            op = result.app
            metrics: dict[str, float] = {}
            offset = 0
            for name, ej in result.extra["epoch_jobs"].items():
                ranks = int(ej["ranks"])
                part = result.job.bytes_sent[offset:offset + ranks]
                offset += ranks
                if [int(b) for b in part] != sent[name]:
                    res.violate(op, f"{name}: a rank did not send its whole trace")
                metrics[f"{name}.finish_ns"] = ej["finish_ns"]
                metrics[f"{name}.comm_ns"] = ej["comm_ns"]
                metrics[f"{name}.max_comm_ns"] = ej["max_comm_ns"]
            if int(result.job.bytes_sent.sum()) != int(result.job.bytes_recv.sum()):
                res.violate(op, "bytes sent != bytes received")
            res.cells[op] = metrics

        cold, warm = raw["cold"], raw["warm"]
        jobs = {}
        for rec in cold.jobs:
            if rec.status != "completed":
                res.violate("jobs", f"{rec.name} ended {rec.status}")
            jobs[f"{rec.name}.start_s"] = rec.start_s
            jobs[f"{rec.name}.finish_s"] = rec.finish_s
            jobs[f"{rec.name}.iterations"] = float(rec.iterations)
        res.cells["jobs"] = jobs
        planned = warm.counters["cells_planned"]
        missed = planned - warm.counters["cells_cached"]
        same = _job_table(cold) == _job_table(warm)
        for i in range(planned):
            op = f"warm/{i:04d}"
            res.cells[op] = {}
            if i < missed:
                res.violate(op, "warm re-run simulated a cell")
            if not same:
                res.violate(op, "warm re-run changed the per-job results")
        warm_cache = raw["warm_cache"]
        lookups = warm_cache.hits + warm_cache.misses
        res.extra = {
            "hit_rate": warm_cache.hits / lookups if lookups else 0.0,
            "epochs": float(cold.counters["epochs"] + warm.counters["epochs"]),
            "cells_simulated": float(
                cold.counters["cells_simulated"] + warm.counters["cells_simulated"]
            ),
            "cells_cached": float(
                cold.counters["cells_cached"] + warm.counters["cells_cached"]
            ),
        }
        return res


def _job_table(stream) -> list[tuple]:
    return [
        (r.name, r.status, r.start_s, r.finish_s, r.iterations, r.nodes)
        for r in stream.jobs
    ]


WORKLOADS: dict[str, GridWorkload | StreamWorkload] = {
    w.name: w
    for w in (
        GridWorkload(
            name="paper-grid-packet",
            preset="tiny", apps=("CR", "FB", "AMG"), ranks=8, msg_scale=0.05,
            backend="packet",
        ),
        StreamWorkload(name="ml-stream-cached"),
    )
}


def rel_err(a: float, b: float) -> float:
    """Relative difference of ``a`` from reference ``b``."""
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(b), 1e-300)
