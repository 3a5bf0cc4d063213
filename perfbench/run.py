"""Benchmark runner for the dragonfly trade-off simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid-packet --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` it times passes of the workload with tracing off and
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead. No pass starts that would end after ``--seconds``
(beyond the few passes every run makes). ``wall_s`` sums, over the
steps of a pass (one per settled cell, and the stream's import), each
step's fastest time in the run: on a shared host the program's own cost is a floor, and other
tenants' load swings the host's speed by up to 2x, in bursts from
seconds to over a minute long. Every pass's outputs are checked (see
``workloads.py``). The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report with units and provenance. The exit
code is 0 when no op failed, 1 when one did, and 2 when the benchmark
refuses to run.

``--write-reference`` stores the default seed's outputs under
``reference/``; ``--smoke`` shrinks every workload for quick tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
#: Scratch space for result caches, inside the checkout.
TMP_ROOT = ROOT / ".perfbench-tmp"

#: Knobs that swap in non-default program paths. The benchmark always
#: measures the default program, so it refuses to run when one is set.
FORBIDDEN_ENV = ("REPRO_FLOW_FABRIC", "REPRO_FLOW_SOLVER", "REPRO_FLOW_MODEL_CACHE")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "core.cells": "count", "core.cell_s": "s", "core.cell_setup_s": "s",
    "engine.loop_s": "s", "engine.events": "count", "engine.events_per_s": "1/s",
    "routing.route_calls": "count", "routing.route_s": "s",
    "routing.nonminimal_frac": "ratio",
    "network.packets": "count", "network.bytes": "B", "network.loop_self_s": "s",
    "flow.route_model_s": "s", "flow.route_calls": "count", "flow.inject_s": "s",
    "flow.injects": "count", "flow.loop_self_s": "s",
    "flow.object_fabrics": "count", "flow.array_fabrics": "count",
    "metrics.collect_s": "s",
    "placement.alloc_s": "s",
    "apps.build_s": "s", "apps.ops": "count",
    "mlcomms.import_s": "s", "mlcomms.records": "count",
    "mlcomms.records_per_s": "1/s",
    "exec.plan_s": "s", "exec.cache_get_s": "s", "exec.cache_put_s": "s",
    "exec.cache_hits": "count", "exec.cache_misses": "count",
    "exec.hit_rate": "ratio", "exec.cache_bytes": "B", "exec.self_s": "s",
    "cluster.stream_s": "s", "cluster.schedule_s": "s", "cluster.merge_s": "s",
    "cluster.epochs": "count", "cluster.cells_simulated": "count",
    "cluster.cells_cached": "count", "cluster.self_s": "s",
    "bench.self_s": "s", "bench.trace_overhead_frac": "ratio",
}

#: Fewest timed passes a run reports, however short ``--seconds`` is.
MIN_PASSES = 3
#: Fewest traced (and untraced) passes of a ``--trace 1`` run.
MIN_TRACED = 2
#: Set-up samples: imports (this process and fresh ones) and input
#: generations. Set-up time takes the fastest of each.
SETUP_SAMPLES = 5
#: Cold passes per run (see ``cold_pass``), besides the real first pass.
COLD_PASSES = 3
#: How far the layer self times may sum from the traced pass.
SELF_SUM_TOL = 0.03


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced-size inputs")
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def provenance(seed: int) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def timed_pass(wl, inputs, tmp: str):
    """One pass; returns (host s, raw outputs, host s of each step).

    A step ends as each simulated cell settles, and after the stream's
    import; the last step runs to the end of the pass.
    """
    gc.collect()
    marks = [time.perf_counter()]
    raw = wl.run_pass(inputs, tmp, lap=lambda: marks.append(time.perf_counter()))
    marks.append(time.perf_counter())
    return marks[-1] - marks[0], raw, [b - a for a, b in zip(marks, marks[1:])]


def fastest_steps(passes: list[list[float]]) -> float:
    """The sum, over the steps of a pass, of each step's fastest time.

    Other tenants of a shared host slow it down in bursts; a step's
    fastest time is its cost with none of them, and summing per step
    finds that cost in bursts shorter than a whole pass.
    """
    if len({len(p) for p in passes}) != 1:
        return min(sum(p) for p in passes)
    return sum(min(times) for times in zip(*passes))


def import_seconds() -> float:
    """``import repro`` (and the workload modules) in a fresh process."""
    code = (
        "import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "t = time.perf_counter(); import repro, workloads; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def cold_pass(wl, inputs, tmp: str):
    """A pass after dropping every topology-derived memo.

    Clearing the topology lru makes the next cells build a new
    :class:`~repro.topology.dragonfly.Dragonfly`, so the route tables
    and flow route models keyed by it start empty, as in a fresh
    process.
    """
    from repro.core.runner import build_topology

    build_topology.cache_clear()
    return timed_pass(wl, inputs, tmp)


def layer_metrics(tr, extra: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass (see ``tracer.TARGETS``)."""
    s, c, k = tr.self_time, tr.calls, tr.counts
    loop = tr.total["network.replay"] + tr.total["flow.replay"]
    decided = k["routing.minimal"] + k["routing.nonminimal"]
    imp = s["mlcomms.import"]
    return {
        "core.cells": c["core.cell"],
        "core.cell_s": tr.total["core.cell"],
        "core.cell_setup_s": s["core.cell"],
        "engine.loop_s": loop,
        "engine.events": k["engine.events"],
        "engine.events_per_s": k["engine.events"] / loop if loop else 0.0,
        "routing.route_calls": c["routing.route"],
        "routing.route_s": s["routing.route"],
        "routing.nonminimal_frac": k["routing.nonminimal"] / decided if decided else 0.0,
        "network.packets": k["network.packets"],
        "network.bytes": k["network.bytes"],
        "network.loop_self_s": s["network.replay"],
        "flow.route_model_s": s["flow.route_model"],
        "flow.route_calls": c["flow.route_model"],
        "flow.inject_s": s["flow.inject"],
        "flow.injects": c["flow.inject"],
        "flow.loop_self_s": s["flow.replay"],
        "flow.object_fabrics": k["fabric.FlowFabric"],
        "flow.array_fabrics": k["fabric.ArrayFlowFabric"],
        "metrics.collect_s": s["metrics.collect"],
        "placement.alloc_s": s["placement.alloc"],
        "apps.build_s": s["apps.build"],
        "apps.ops": k["apps.ops"],
        "mlcomms.import_s": imp,
        "mlcomms.records": k["mlcomms.records"],
        "mlcomms.records_per_s": k["mlcomms.records"] / imp if imp else 0.0,
        "exec.plan_s": s["exec.plan"],
        "exec.cache_get_s": s["exec.cache_get"],
        "exec.cache_put_s": s["exec.cache_put"],
        "exec.cache_hits": k["exec.cache_hits"],
        "exec.cache_misses": k["exec.cache_misses"],
        "exec.hit_rate": extra.get("hit_rate", 0.0),
        "exec.cache_bytes": k["exec.cache_bytes"],
        "exec.self_s": s["exec.execute"],
        "cluster.stream_s": tr.total["cluster.stream"],
        "cluster.schedule_s": s["cluster.schedule"],
        "cluster.merge_s": s["cluster.merge"],
        "cluster.epochs": extra.get("epochs", 0.0),
        "cluster.cells_simulated": extra.get("cells_simulated", 0.0),
        "cluster.cells_cached": extra.get("cells_cached", 0.0),
        "cluster.self_s": s["cluster.stream"] + s["cluster.epoch_cell"],
        "bench.self_s": s["bench.unit"] + s["bench.pass"],
    }


def traced_pass(wl, seed: int, smoke: bool, tmp: str):
    """Inputs plus one pass under the tracer; returns (tracer, pass s, raw, inputs)."""
    from tracer import ROOT as ROOT_SPAN, Tracer, instrument

    tr = Tracer()
    gc.collect()
    with instrument(tr):
        start = time.perf_counter()
        with tr.span(ROOT_SPAN):
            inputs = wl.make_inputs(seed, smoke)
            with tr.span("bench.pass"):
                raw = wl.run_pass(inputs, tmp)
        unit_s = time.perf_counter() - start
    attributed = sum(tr.layer_self().values())
    if abs(attributed - unit_s) > SELF_SUM_TOL * unit_s:
        raise RuntimeError(
            f"layer self times sum to {attributed:.4f} s, traced pass took {unit_s:.4f} s"
        )
    return tr, tr.total["bench.pass"], raw, inputs


class Oracle:
    """Counts ops and failures over every pass of one invocation."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.top1: tuple[int, int] | None = None
        self.reasons: list[str] = []

    def fail(self, op: str, reason: str, bad: set[str]) -> None:
        if op not in bad:
            bad.add(op)
            if len(self.reasons) < 20:
                self.reasons.append(f"{op}: {reason}")

    def _compare(self, res, ref_cells, ref_digests, exact: bool, bad: set[str]) -> None:
        from workloads import REF_TOL, rel_err

        label = "pass 1" if exact else "reference"
        for op in set(ref_cells) - set(res.cells):
            self.attempted += 1
            self.fail(op, f"missing (present in {label})", bad)
        for op, metrics in res.cells.items():
            ref = ref_cells.get(op)
            if ref is None:
                self.fail(op, f"not in {label}", bad)
                continue
            if set(ref) != set(metrics):
                self.fail(op, f"metric names differ from {label}", bad)
                continue
            for name, value in metrics.items():
                err = rel_err(value, ref[name])
                if not exact:
                    self.max_rel_err = max(self.max_rel_err, err)
                if (err != 0.0) if exact else (err > REF_TOL):
                    self.fail(op, f"{name} differs from {label} (rel err {err:.3g})", bad)
        for op, digest in res.digests.items():
            if ref_digests.get(op) != digest:
                self.fail(op, f"content digest differs from {label}", bad)

    def add_pass(self, res) -> None:
        bad: set[str] = set()
        self.attempted += len(res.ops)
        for op, reasons in res.violations.items():
            self.fail(op, "; ".join(reasons), bad)
        if self.first is None:
            self.first = res
        else:
            self._compare(res, self.first.cells, self.first.digests, True, bad)
        if self.reference is not None:
            ref = self.reference
            self._compare(res, ref["cells"], ref["digests"], False, bad)
            groups = ref["winners"]
            agree = sum(res.winners.get(g) == p for g, p in groups.items())
            if groups and (self.top1 is None or agree < self.top1[0]):
                self.top1 = (agree, len(groups))
        self.failed += len(bad)

    def add_crash(self, exc: BaseException) -> None:
        ops = len(self.first.ops) if self.first is not None else 1
        self.attempted += ops
        self.failed += ops
        self.reasons.append(f"pass raised {exc!r}")


def load_reference(name: str) -> dict | None:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def run(args, import_s: float, tmp: str) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == workloads.DEFAULT_SEED and not (args.smoke or args.write_reference):
        reference = load_reference(wl.name)
    oracle = Oracle(reference)

    def checked(inputs, raw):
        try:
            res = wl.check(inputs, raw)
        finally:
            if isinstance(raw, dict) and "cache_dir" in raw:
                shutil.rmtree(raw["cache_dir"], ignore_errors=True)
        oracle.add_pass(res)
        return res

    def attempt(fn):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            oracle.add_crash(exc)
            return None

    start = time.perf_counter()
    inputs = wl.make_inputs(args.seed, args.smoke)
    gen_s = time.perf_counter() - start
    first = attempt(lambda: timed_pass(wl, inputs, tmp))
    if first:
        attempt(lambda: checked(inputs, first[1]))
    if args.write_reference:
        return write_reference(wl.name, args.seed, oracle)

    imports, gens = [import_s], [gen_s]
    # Passes that rebuild what a first pass builds (this process's real
    # first pass, then the cold passes), and the warm pass after each.
    colds = [first[2]] if first else []
    warm_after: list[list[float]] = []
    # The other set-up samples and the cold passes are spread over the
    # run, so that their fastest ones see the host the timed passes see.
    setup_left = 0 if args.trace else SETUP_SAMPLES - 1
    cold_left = 0 if args.trace else COLD_PASSES
    walls: list[float] = []
    steps: list[list[float]] = []
    traced: list[tuple] = []
    crashes = 0
    want = MIN_TRACED if args.trace else MIN_PASSES
    step_s = 0.0
    begin = time.perf_counter()
    deadline = begin + args.seconds
    while True:
        done = min(len(walls), len(traced)) if args.trace else len(walls)
        # Stop before a step that would end past the deadline.
        step_start = time.perf_counter()
        if max(done, crashes) >= want and step_start + step_s > deadline:
            break
        ran = (step_start - begin) / args.seconds if args.seconds else 1.0
        if setup_left and ran >= 1 - setup_left / (SETUP_SAMPLES - 1):
            setup_left -= 1
            imports.append(import_seconds())
            gen_start = time.perf_counter()
            wl.make_inputs(args.seed, args.smoke)
            gens.append(time.perf_counter() - gen_start)
        if cold_left and walls and ran >= 1 - cold_left / (COLD_PASSES + 1):
            cold_left -= 1
            cold = attempt(lambda: cold_pass(wl, inputs, tmp))
            if cold is not None and attempt(lambda: checked(inputs, cold[1])) is not None:
                colds.append(cold[2])
        out = attempt(lambda: timed_pass(wl, inputs, tmp))
        if out is None or attempt(lambda: checked(inputs, out[1])) is None:
            crashes += 1
            continue
        walls.append(out[0])
        steps.append(out[2])
        if len(warm_after) < len(colds):
            warm_after.append(out[2])
        if args.trace:
            t = attempt(lambda: traced_pass(wl, args.seed, args.smoke, tmp))
            res = t and attempt(lambda: checked(t[3], t[2]))
            if res is None:
                crashes += 1
                continue
            traced.append((t[0], t[1], res.extra))
        step_s = time.perf_counter() - step_start

    metrics: dict[str, float] = {}
    notes: list[str] = []
    if walls:
        notes.append(f"untraced pass s: fastest {min(walls):.4f}, median "
                     f"{statistics.median(walls):.4f}")
    if walls and args.trace == 0:
        # How much longer a first pass takes than a steady one, from
        # as many warm passes as cold ones, run right after them; below
        # 0 is noise.
        paired = len(warm_after)
        excess = max(
            0.0, fastest_steps(colds[:paired]) - fastest_steps(warm_after)
        ) if paired else 0.0
        metrics = {
            "wall_s": fastest_steps(steps),
            "setup_s": min(imports) + min(gens) + excess,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes.append(
            f"setup: import {min(imports):.4f} s, inputs {min(gens):.4f} s, "
            f"first-pass excess {excess:.4f} s (first and cold passes: "
            + " ".join(f"{sum(c):.4f}" for c in colds) + " s, warm after them: "
            + " ".join(f"{sum(w):.4f}" for w in warm_after) + " s)"
        )
    elif walls and traced:
        per_pass = [layer_metrics(tr, extra) for tr, _, extra in traced]
        metrics = {
            name: statistics.median(float(m[name]) for m in per_pass)
            for name in per_pass[0]
        }
        metrics["bench.trace_overhead_frac"] = (
            min(p for _, p, _ in traced) / min(walls) - 1.0
        )
    units = PER_LAYER if args.trace else END_TO_END
    complete = set(metrics) == set(units)
    report(wl.name, provenance(args.seed), metrics, units, oracle, walls, len(traced), notes)
    correct = oracle.failed == 0 and complete
    print(json.dumps({
        "correct": correct,
        "attempted": max(oracle.attempted, 1),
        "failed": oracle.failed if complete else max(oracle.failed, 1),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def report(name, prov, metrics, units, oracle, walls, n_traced, notes) -> None:
    print(f"perfbench {name}: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"  passes: {len(walls)} untraced, {n_traced} traced; untraced s: "
          + " ".join(f"{w:.3f}" for w in walls))
    for note in notes:
        print(f"  {note}")
    for metric, value in metrics.items():
        print(f"  {metric:<28} {value:.6g} {units[metric]}")
    frac = oracle.failed / max(oracle.attempted, 1)
    print(f"  {'fail_frac':<28} {frac:.6g} ({oracle.failed} of {oracle.attempted} ops failed)")
    if oracle.reference is None:
        print("  max_rel_err, top1_agree: no stored reference for this seed; "
              "outputs were compared with pass 1 only")
    else:
        print(f"  {'max_rel_err':<28} {oracle.max_rel_err:.6g} vs stored reference")
    if oracle.top1 is not None:
        agree, groups = oracle.top1
        print(f"  {'top1_agree':<28} {agree / groups:.6g} ({agree} of {groups} groups)")
    for reason in oracle.reasons:
        print(f"  FAILED {reason}")


def write_reference(name: str, seed: int, oracle: Oracle) -> int:
    if oracle.failed or oracle.first is None:
        print("not writing a reference from a failing run", file=sys.stderr)
        return 1
    res = oracle.first
    REFERENCE_DIR.mkdir(exist_ok=True)
    doc = {
        "workload": name, "seed": seed, "cells": res.cells,
        "digests": res.digests, "winners": res.winners,
    }
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bad_env = [k for k in FORBIDDEN_ENV if os.environ.get(k)]
    if bad_env:
        print(f"refusing to run: {', '.join(bad_env)} set; the benchmark "
              "measures the default program only", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"refusing to run: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import repro  # noqa: F401
    import workloads

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        return run(args, import_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


if __name__ == "__main__":
    sys.exit(main())
