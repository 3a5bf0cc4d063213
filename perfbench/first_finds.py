"""One-off diagnostic: the first defects the benchmark makes visible.

Not a gated workload. Prints three findings (their numbers are kept in
``WORKLOADS.md``):

(a) the comms-trace import's share of an ``ml-stream-cached`` pass,
    and import records/s at two document sizes — a rate that halves
    when the document doubles means the importer is quadratic;
(b) how many epoch cells ran the object flow fabric in the stream,
    against none in a flow grid;
(c) a 2-worker pool against serial execution on the contention flow
    grid below (with and without ``flow_batch=5``) and on the cold
    stream.

Usage, from the repository root::

    python3 perfbench/first_finds.py [--seed 1] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.cluster import engine  # noqa: E402
from repro.exec import plan, pool  # noqa: E402
from repro.exec.cache import ResultCache  # noqa: E402
from repro.mlcomms import traceio  # noqa: E402

#: CR at 64 ranks on ``small``, one iteration, msg-scale 0.2, 10 flow
#: cells: thousands of small max-min solves. Not a gated workload (see
#: ``WORKLOADS.md``).
CONTENTION = workloads.GridWorkload(
    name="contention-grid-flow",
    preset="small", apps=("CR",), ranks=64, msg_scale=0.2,
    backend="flow", builder_kw=(("iterations", 1),),
)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_rates(seed: int, repeats: int) -> None:
    for iterations in (200, 400):
        doc = workloads.comms_trace_document(seed, 8, iterations)
        records = len(json.loads(doc)["trace"])
        secs = median_time(
            lambda: traceio.parse_comms_trace(json.loads(doc)), repeats
        )
        print(f"(a) import {records} records: {secs:.3f} s, "
              f"{records / secs:,.0f} records/s")


def traced(wl, seed: int, tmp: str) -> dict:
    tr, pass_s, raw, inputs = run.traced_pass(wl, seed, False, tmp)
    metrics = run.layer_metrics(tr, wl.check(inputs, raw).extra)
    if isinstance(raw, dict):
        shutil.rmtree(raw["cache_dir"], ignore_errors=True)
    metrics["pass_s"] = pass_s
    return metrics


def pool_vs_serial(seed: int, repeats: int, tmp: str) -> None:
    grid_wl = CONTENTION
    inputs = grid_wl.make_inputs(seed)
    grid = plan.plan_grid(
        inputs["config"], inputs["traces"], grid_wl.placements,
        grid_wl.routings, seed=inputs["study_seed"], backend="flow",
    )
    pool.execute_plan(grid)  # warm the route models in this process
    for workers, batch in ((1, 0), (2, 0), (2, 5)):
        secs = median_time(
            lambda: pool.execute_plan(grid, max_workers=workers, flow_batch=batch),
            repeats,
        )
        print(f"(c) contention-grid-flow, {workers} worker(s), "
              f"flow_batch={batch}: {secs:.2f} s")

    wl = workloads.WORKLOADS["ml-stream-cached"]
    s_inputs = wl.make_inputs(seed)
    imported = traceio.parse_comms_trace(json.loads(s_inputs["doc"]))
    jobs = wl.build_jobs(s_inputs, imported)
    for workers in (1, 2):
        def cold() -> None:
            cache = tempfile.mkdtemp(dir=tmp)
            engine.run_stream(
                s_inputs["config"], mix=s_inputs["mix"], duration_s=wl.duration_s,
                load=wl.load, seed=s_inputs["stream_seed"],
                cache=ResultCache(cache), jobs=jobs, max_workers=workers,
            )
            shutil.rmtree(cache)

        print(f"(c) ml-stream-cached cold stream, {workers} worker(s): "
              f"{median_time(cold, repeats):.2f} s")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    run.TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        stream = traced(workloads.WORKLOADS["ml-stream-cached"], args.seed, tmp)
        share = stream["mlcomms.import_s"] / stream["pass_s"]
        print(f"(a) import share of a traced ml-stream-cached pass: {share:.1%} "
              f"({stream['mlcomms.import_s']:.3f} s of {stream['pass_s']:.2f} s)")
        import_rates(args.seed, args.repeats)
        grid = traced(CONTENTION, args.seed, tmp)
        print(f"(b) contention-grid-flow: {grid['flow.object_fabrics']:.0f} object / "
              f"{grid['flow.array_fabrics']:.0f} array fabrics")
        print(f"(b) ml-stream-cached: {stream['flow.object_fabrics']:.0f} object / "
              f"{stream['flow.array_fabrics']:.0f} array fabrics")
        pool_vs_serial(args.seed, args.repeats, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.TMP_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
