"""DL-training workload generation/import throughput (the repro.mlcomms gate).

Times the two producer paths that every training study runs before any
simulation happens, interleaved A/B per repeat:

* ``generate``: build all four synthetic family members (DP ring
  all-reduce, PP 1F1B, TP layer exchange, MoE all-to-all) at the
  bench-standard size and report trace *operations per second* — the
  total per-rank op-list length over wall time. A training stream draws
  one of these per arriving job, so generation must stay a negligible
  slice of any study's wall time; ``--min-gen-rate`` (default 50k ops/s)
  is the acceptance floor.
* ``import``: parse and lower a synthesized param-style comms-trace
  document (records pre-serialised to JSON once at setup) and report
  *records per second* through :func:`repro.mlcomms.traceio.parse_comms_trace`
  including JSON decode — the commsTraceReplay ingestion path.
  ``--min-import-rate`` (default 400 records/s) is its floor: the
  importer once re-summed every rank's whole trace at each iteration
  marker, which held this document to ~160 records/s; the linear
  importer measures ~1,000 records/s.

Usage::

    python benchmarks/bench_mlcomms.py                   # full run
    python benchmarks/bench_mlcomms.py --quick           # CI smoke
    python benchmarks/bench_mlcomms.py --out BENCH.json
    python benchmarks/bench_mlcomms.py --quick \\
        --compare BENCH_mlcomms.json --max-regression 0.5

``--compare`` exits non-zero when any configuration's rate falls more
than ``--max-regression`` below the reference file, or the measured
generation or import rate drops under ``--min-gen-rate`` /
``--min-import-rate``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.mlcomms.generators import (
    dp_allreduce_trace,
    moe_alltoall_trace,
    pp_1f1b_trace,
    tp_layer_trace,
)
from repro.mlcomms.traceio import parse_comms_trace

#: Versioned result-file schema.
SCHEMA = "repro-bench-mlcomms/v1"

#: Scenario parameters. ``ranks``/``iterations`` size the generated
#: jobs well above the tiny-preset test instances so per-call overhead
#: does not dominate; ``import_records`` sizes the synthetic document
#: the import path parses per repeat.
SCENARIO = {
    "ranks": 32,
    "iterations": 4,
    "seed": 11,
    "import_ranks": 16,
    "import_records": 400,
}

CONFIGS = ("generate", "import")

GENERATORS = (
    dp_allreduce_trace,
    pp_1f1b_trace,
    tp_layer_trace,
    moe_alltoall_trace,
)


def _setup() -> dict:
    """Pre-serialise the import document so repeats time parse+lower only."""
    records = []
    for i in range(SCENARIO["import_records"] // 4):
        records.append({"comms": "all_reduce", "in_msg_size": 8192,
                        "dtype": "float32"})
        records.append({"comms": "all_gather", "in_msg_size": 2048})
        records.append({"comms": "all_to_all", "in_msg_size": 4096})
        records.append({"marker": f"iteration_{i}"})
    doc = {
        "name": "bench",
        "num_ranks": SCENARIO["import_ranks"],
        "trace": records,
    }
    return {"import_json": json.dumps(doc)}


def _generate_once(ctx: dict) -> tuple[float, int]:
    """Time one full-family generation pass; count emitted trace ops."""
    t0 = time.perf_counter()
    ops = 0
    for gen in GENERATORS:
        job = gen(
            num_ranks=SCENARIO["ranks"],
            iterations=SCENARIO["iterations"],
            seed=SCENARIO["seed"],
        )
        ops += sum(len(rt) for rt in job.ranks)
    return time.perf_counter() - t0, ops


def _import_once(ctx: dict) -> tuple[float, int]:
    """Time one decode+parse+lower pass over the synthetic document."""
    t0 = time.perf_counter()
    doc = json.loads(ctx["import_json"])
    job = parse_comms_trace(doc)
    assert job.num_ranks == SCENARIO["import_ranks"]
    return time.perf_counter() - t0, len(doc["trace"])


RUNNERS = {"generate": _generate_once, "import": _import_once}


def bench(repeats: int, warmup: int = 1) -> dict:
    """Time every configuration A/B-interleaved; return the result doc."""
    ctx = _setup()
    times: dict[str, list[float]] = {c: [] for c in CONFIGS}
    counts: dict[str, int] = {c: 0 for c in CONFIGS}
    for config in CONFIGS:
        for _ in range(warmup):
            RUNNERS[config](ctx)
    for rep in range(repeats):
        for config in CONFIGS:  # interleaved: generate, import, ...
            wall, n = RUNNERS[config](ctx)
            times[config].append(wall)
            counts[config] = n
            print(
                f"rep {rep + 1}/{repeats} {config:>9}: {wall:.4f}s "
                f"({n / wall:,.0f}/s)",
                file=sys.stderr,
            )
    configs = {}
    for config, walls in times.items():
        mean = statistics.mean(walls)
        configs[config] = {
            "mean_s": round(mean, 5),
            "stdev_s": round(
                statistics.stdev(walls) if len(walls) > 1 else 0.0, 5
            ),
            "min_s": round(min(walls), 5),
            "repeats": repeats,
            "items": counts[config],
            "rate_per_s": round(counts[config] / mean, 1),
        }
    gen_rate = configs["generate"]["rate_per_s"]
    import_rate = configs["import"]["rate_per_s"]
    print(f"generation rate: {gen_rate:,.0f} trace ops/s", file=sys.stderr)
    print(f"import rate: {import_rate:,.0f} records/s", file=sys.stderr)
    return {
        "schema": SCHEMA,
        "scenario": SCENARIO,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "configs": configs,
        "gen_rate": gen_rate,
        "import_rate": import_rate,
    }


def compare(
    doc: dict,
    ref_path: Path,
    max_regression: float,
    min_gen_rate: float,
    min_import_rate: float,
) -> int:
    """Gate ``doc`` against a reference file; returns the exit code."""
    ref = json.loads(ref_path.read_text())
    baseline = ref.get("after", ref)  # PR files keep before/after blocks
    if baseline.get("schema") != SCHEMA:
        print(f"schema mismatch in {ref_path}, skipping gate", file=sys.stderr)
        return 0
    failed = False
    for config, cfg in baseline["configs"].items():
        cur = doc["configs"].get(config)
        if cur is None:
            print(f"MISSING  {config}: not measured", file=sys.stderr)
            failed = True
            continue
        ratio = cur["rate_per_s"] / cfg["rate_per_s"]
        status = "OK" if ratio >= 1.0 - max_regression else "REGRESSED"
        print(
            f"{status:>9}  {config}: {cur['rate_per_s']:,}/s vs "
            f"reference {cfg['rate_per_s']:,}/s ({ratio:.2f}x)",
            file=sys.stderr,
        )
        if status != "OK":
            failed = True
    for label, rate, floor, unit in (
        ("generation", doc["gen_rate"], min_gen_rate, "ops"),
        ("import", doc["import_rate"], min_import_rate, "records"),
    ):
        status = "OK" if rate >= floor else "REGRESSED"
        print(
            f"{status:>9}  {label} rate: {rate:,.0f} {unit}/s "
            f"(floor {floor:,.0f}/s)",
            file=sys.stderr,
        )
        if status != "OK":
            failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed runs per configuration"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2 repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--out", default=None, metavar="JSON", help="write results to file"
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="JSON",
        help="reference BENCH_mlcomms.json to gate rates against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.5,
        help=(
            "tolerated fractional rate drop vs reference (default 0.5: "
            "both paths are sub-second pure-python walls, so shared-"
            "runner noise is proportionally large)"
        ),
    )
    parser.add_argument(
        "--min-gen-rate",
        type=float,
        default=50_000.0,
        help=(
            "minimum generated trace ops per second (default 50000, the "
            "DESIGN.md S21 acceptance floor)"
        ),
    )
    parser.add_argument(
        "--min-import-rate",
        type=float,
        default=400.0,
        help=(
            "minimum imported comms-trace records per second (default "
            "400: ~1,000/s measured, ~160/s when marker handling was "
            "quadratic)"
        ),
    )
    args = parser.parse_args(argv)

    repeats = 2 if args.quick else args.repeats
    doc = bench(repeats=repeats, warmup=1)

    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(json.dumps(doc, indent=2))

    if args.compare:
        return compare(
            doc,
            Path(args.compare),
            args.max_regression,
            args.min_gen_rate,
            args.min_import_rate,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
