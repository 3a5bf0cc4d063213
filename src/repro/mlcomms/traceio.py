"""param-style JSON comms-trace importer (DESIGN.md §S21).

Meta's `param <https://github.com/facebookresearch/param>`_ benchmark
suite records the collective sequence of a training job as JSON records
— a ``comms`` name, an ``in_msg_size`` (an element count when ``dtype``
is present, raw bytes otherwise), and ``marker`` records delimiting
training iterations — and its ``commsTraceReplay`` tool replays them
against a live fabric. This module accepts that record shape and lowers
it onto :class:`~repro.mpi.trace.RankTrace` operation lists via the
point-to-point collective expansions in :mod:`repro.mpi.collectives`,
so an imported trace drops into every driver in the repository
(``TradeoffStudy``, cluster streams, flow/packet backends, the advisor)
exactly like a generated mini-app job.

Document shapes accepted by :func:`parse_comms_trace`:

* an object — ``{"name": ..., "num_ranks": N, "trace": [records...]}``
  (``world_size`` is accepted as an alias for ``num_ranks``);
* a bare list of records, with ``num_ranks`` supplied by the caller
  (param's native per-rank trace files are bare lists).

Record shapes:

* collective — ``{"comms": <name>, "in_msg_size": <int>, ...}`` with
  optional ``dtype`` (sizes become ``in_msg_size * element_width``),
  ``root`` (broadcast only) and ``algo`` (``all_reduce`` only:
  ``"ring"``, the ML default, or ``"rd"`` recursive doubling);
* marker — ``{"marker": <label>}``: closes the current training
  iteration (lowered to a barrier; iteration loads land in
  ``meta["phase_profile"]``);
* compute — ``{"compute_ns": <float>}``: a compute gap on every rank.

Every malformed record — wrong type, missing/negative sizes, unknown
collective or dtype, out-of-range root — raises
:class:`TraceImportError` carrying the zero-based record index; a
truncated or non-JSON file raises it with ``index=None``. A bare
``KeyError``/``TypeError`` escaping the importer is a bug (the fuzz
suite enforces this).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from repro.mpi import collectives
from repro.mpi.trace import JobTrace, RankTrace, SentTally

__all__ = [
    "COMM_NAMES",
    "DTYPE_WIDTHS",
    "TraceImportError",
    "load_comms_trace",
    "parse_comms_trace",
]

#: Element widths for the ``dtype`` field (param records sizes in
#: elements; without a dtype, ``in_msg_size`` is taken as raw bytes).
DTYPE_WIDTHS = {
    "float64": 8,
    "double": 8,
    "int64": 8,
    "long": 8,
    "float32": 4,
    "float": 4,
    "int32": 4,
    "int": 4,
    "float16": 2,
    "half": 2,
    "bfloat16": 2,
    "int8": 1,
    "uint8": 1,
    "byte": 1,
    "bool": 1,
}

#: Canonical collective names (after :func:`_canon` normalisation).
COMM_NAMES = (
    "all_reduce",
    "all_to_all",
    "all_gather",
    "reduce_scatter",
    "broadcast",
    "barrier",
    "wait",
)

#: Aliases seen in param traces, mapped to canonical names. Keys are
#: pre-normalised (lower-case, separators stripped).
_ALIASES = {
    "allreduce": "all_reduce",
    "alltoall": "all_to_all",
    "alltoallv": "all_to_all",
    "alltoallbase": "all_to_all",
    "alltoallsingle": "all_to_all",
    "allgather": "all_gather",
    "allgatherbase": "all_gather",
    "allgatherv": "all_gather",
    "reducescatter": "reduce_scatter",
    "reducescatterbase": "reduce_scatter",
    "broadcast": "broadcast",
    "bcast": "broadcast",
    "barrier": "barrier",
    "wait": "wait",
    "waitall": "wait",
}

#: All-reduce algorithm choices (``algo`` field).
_ALLREDUCE_ALGOS = ("ring", "rd")


class TraceImportError(ValueError):
    """A comms-trace document or record failed validation.

    ``index`` is the zero-based index of the offending record, or
    ``None`` for document-level problems (bad JSON, missing headers).
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        prefix = f"record {index}: " if index is not None else ""
        super().__init__(prefix + message)
        self.index = index


def _canon(name: str) -> str:
    """Normalise a collective name the way param's resolver does."""
    return name.lower().replace("_", "").replace("-", "").replace(" ", "")


def _record_int(
    record: dict, key: str, index: int, minimum: int = 0
) -> int:
    """Fetch a validated integer field from a record."""
    if key not in record:
        raise TraceImportError(f"missing required field {key!r}", index)
    value = record[key]
    # bool is an int subclass; a JSON `true` size is malformed, not 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceImportError(
            f"field {key!r} must be an integer, got {value!r}", index
        )
    if value < minimum:
        raise TraceImportError(
            f"field {key!r} must be >= {minimum}, got {value}", index
        )
    return value


def _record_bytes(record: dict, index: int) -> int:
    """``in_msg_size`` scaled by the optional ``dtype`` width."""
    size = _record_int(record, "in_msg_size", index, minimum=1)
    dtype = record.get("dtype")
    if dtype is None:
        return size
    if not isinstance(dtype, str):
        raise TraceImportError(f"dtype must be a string, got {dtype!r}", index)
    try:
        width = DTYPE_WIDTHS[dtype.lower()]
    except KeyError:
        raise TraceImportError(
            f"unknown dtype {dtype!r} (known: {sorted(set(DTYPE_WIDTHS))})",
            index,
        ) from None
    return size * width


def parse_comms_trace(
    doc: Any,
    num_ranks: int | None = None,
    name: str | None = None,
) -> JobTrace:
    """Lower a parsed comms-trace document onto a :class:`JobTrace`.

    ``doc`` is either the object form (carrying ``num_ranks`` and
    ``trace``) or a bare record list (``num_ranks`` must then be passed
    explicitly). Caller arguments override document headers.
    """
    records, doc_ranks, doc_name = _split_document(doc)
    if num_ranks is None:
        num_ranks = doc_ranks
    if num_ranks is None:
        raise TraceImportError(
            "num_ranks missing: pass it explicitly or use the object "
            "form with a num_ranks/world_size header"
        )
    if isinstance(num_ranks, bool) or not isinstance(num_ranks, int):
        raise TraceImportError(f"num_ranks must be an integer, got {num_ranks!r}")
    if num_ranks < 2:
        raise TraceImportError(f"num_ranks must be >= 2, got {num_ranks}")
    if name is None:
        name = doc_name if doc_name is not None else "COMMS"

    ranks = [RankTrace(r) for r in range(num_ranks)]
    # Tag stride per record: alltoall consumes next_pow2(N) tags and the
    # ring all-reduce 2N-2, so 4x the pow2 ceiling never collides.
    stride = 4 * _next_pow2(num_ranks)
    profile: list[tuple[str, float]] = []
    iterations = 0
    collectives_count = 0
    prev_bytes = 0
    sent = SentTally(ranks)

    def _close_iteration() -> None:
        nonlocal iterations, prev_bytes
        total = sent.total()
        delta = total - prev_bytes
        if delta <= 0:
            return  # empty iteration: nothing for the load profile
        profile.append((f"iter{iterations}", delta / num_ranks))
        prev_bytes = total
        iterations += 1
        for rt in ranks:
            rt.barrier()

    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise TraceImportError(
                f"record must be an object, got {type(record).__name__}",
                index,
            )
        if "marker" in record:
            marker = record["marker"]
            if not isinstance(marker, str):
                raise TraceImportError(
                    f"marker must be a string label, got {marker!r}", index
                )
            _close_iteration()
            continue
        if "compute_ns" in record:
            gap = record["compute_ns"]
            if isinstance(gap, bool) or not isinstance(gap, (int, float)):
                raise TraceImportError(
                    f"compute_ns must be a number, got {gap!r}", index
                )
            if gap < 0:
                raise TraceImportError(
                    f"compute_ns must be >= 0, got {gap}", index
                )
            for rt in ranks:
                rt.compute(float(gap))
            continue
        comms = record.get("comms")
        if comms is None:
            raise TraceImportError(
                "record carries neither 'comms', 'marker' nor "
                f"'compute_ns' (keys: {sorted(record)})",
                index,
            )
        if not isinstance(comms, str):
            raise TraceImportError(
                f"'comms' must be a string, got {comms!r}", index
            )
        try:
            op = _ALIASES[_canon(comms)]
        except KeyError:
            raise TraceImportError(
                f"unknown collective {comms!r} "
                f"(known: {', '.join(COMM_NAMES)})",
                index,
            ) from None
        _expand(op, record, index, ranks, num_ranks, stride * (index + 1))
        if op not in ("wait", "barrier"):
            collectives_count += 1

    # A trailing un-markered span still counts as one iteration.
    _close_iteration()

    job = JobTrace(
        name,
        ranks,
        meta={
            "app": "comms-trace",
            "family": "mlcomms",
            "iterations": iterations,
            "records": len(records),
            "collectives": collectives_count,
            "phase_profile": profile,
        },
    )
    try:
        job.validate()
    except ValueError as exc:  # pragma: no cover - expansion invariant
        raise TraceImportError(f"imported trace is unbalanced: {exc}") from exc
    return job


def _expand(
    op: str,
    record: dict,
    index: int,
    ranks: list[RankTrace],
    num_ranks: int,
    tag: int,
) -> None:
    """Append one collective record's expansion to every rank."""
    if op == "wait":
        return  # replay matching is handled by the expansions themselves
    if op == "barrier":
        for rt in ranks:
            rt.barrier()
        return
    size = _record_bytes(record, index)
    fill: Callable[[RankTrace], None]
    if op == "all_reduce":
        algo = record.get("algo", "ring")
        if algo not in _ALLREDUCE_ALGOS:
            raise TraceImportError(
                f"unknown all_reduce algo {algo!r} "
                f"(choose from {_ALLREDUCE_ALGOS})",
                index,
            )
        if algo == "ring":
            def fill(rt: RankTrace) -> None:
                collectives.allreduce_ring(rt, num_ranks, size, tag)
        else:
            def fill(rt: RankTrace) -> None:
                collectives.allreduce(rt, num_ranks, size, tag)
    elif op == "all_to_all":
        # param records the total send-buffer size; each peer gets an
        # equal slice, mirroring all_to_all_single semantics.
        per_peer = max(1, size // num_ranks)

        def fill(rt: RankTrace) -> None:
            collectives.alltoall(rt, num_ranks, per_peer, tag)
    elif op == "all_gather":
        def fill(rt: RankTrace) -> None:
            collectives.allgather_ring(rt, num_ranks, size, tag)
    elif op == "reduce_scatter":
        def fill(rt: RankTrace) -> None:
            collectives.reduce_scatter_ring(rt, num_ranks, size, tag)
    else:  # broadcast
        root = 0
        if "root" in record:
            root = _record_int(record, "root", index)
            if root >= num_ranks:
                raise TraceImportError(
                    f"root {root} out of range for {num_ranks} ranks", index
                )

        def fill(rt: RankTrace) -> None:
            collectives.bcast_binomial(rt, num_ranks, size, tag, root=root)

    for rt in ranks:
        fill(rt)


def _split_document(doc: Any) -> tuple[list, int | None, str | None]:
    """Normalise the two accepted document shapes to (records, n, name)."""
    if isinstance(doc, list):
        return doc, None, None
    if isinstance(doc, dict):
        ranks = doc.get("num_ranks", doc.get("world_size"))
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise TraceImportError(f"name must be a string, got {name!r}")
        trace = doc.get("trace")
        if trace is None:
            raise TraceImportError(
                "object form needs a 'trace' list of records "
                f"(keys: {sorted(doc)})"
            )
        if not isinstance(trace, list):
            raise TraceImportError(
                f"'trace' must be a list, got {type(trace).__name__}"
            )
        return trace, ranks, name
    raise TraceImportError(
        "document must be a record list or an object with a 'trace' "
        f"list, got {type(doc).__name__}"
    )


def load_comms_trace(
    path: str | Path,
    num_ranks: int | None = None,
    name: str | None = None,
) -> JobTrace:
    """Read and lower a JSON comms-trace file.

    The job name defaults to the file stem; a truncated or non-JSON
    file raises :class:`TraceImportError` (``index=None``).
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise TraceImportError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceImportError(f"{p} is not valid JSON: {exc}") from exc
    if name is None and not isinstance(doc, dict):
        name = p.stem
    elif name is None and isinstance(doc, dict) and "name" not in doc:
        name = p.stem
    return parse_comms_trace(doc, num_ranks=num_ranks, name=name)


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p
