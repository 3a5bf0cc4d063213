"""Seeded synthetic DL-training communication generators (DESIGN.md §S21).

Each generator emits the per-iteration communication skeleton of one
distributed-training parallelism style as a balanced, replayable
:class:`~repro.mpi.trace.JobTrace` — the same contract as the mini-app
generators in :mod:`repro.apps` — so ML jobs drop into every driver
(``TradeoffStudy``, cluster streams, flow/packet backends, advisor)
unchanged:

* :func:`dp_allreduce_trace` — data parallel: per-iteration gradient
  all-reduce over buckets (ring by default, recursive doubling via
  ``algo="rd"``); bulk-synchronous, bandwidth-dominated.
* :func:`pp_1f1b_trace` — pipeline parallel: stage-to-stage activation
  and gradient point-to-points under the 1F1B schedule (warmup /
  steady one-forward-one-backward / cooldown); a pure chain pattern,
  maximally localisable.
* :func:`tp_layer_trace` — tensor parallel: per-layer allgather on the
  forward pass and reduce-scatter on the backward (Megatron-style
  sequence-parallel exchange); many small latency-bound collectives.
* :func:`moe_alltoall_trace` — MoE/DLRM: per-layer token dispatch and
  combine as skewed all-to-alls plus an iteration-end gradient
  all-reduce; the adversarial global-traffic member of the family.

Message sizes carry a mild deterministic :func:`pair_jitter` so
placements cannot exploit exact symmetry; all randomness is derived
from ``seed`` and structural keys, making every trace bit-identical
across runs, schedulers, and worker counts. Iteration loads land in
``meta["phase_profile"]`` with ``iter{k}/...`` labels so the advisor's
``characterize()`` sees the training periodicity.
"""

from __future__ import annotations

from repro.apps.patterns import pair_jitter
from repro.mpi import collectives
from repro.mpi.trace import JobTrace, RankTrace, SentTally

__all__ = [
    "dp_allreduce_trace",
    "pp_1f1b_trace",
    "tp_layer_trace",
    "moe_alltoall_trace",
]

# Tag block per (iteration, phase, slot): wide enough for any expansion
# used here (ring all-reduce needs 2N-2 tags plus per-peer offsets).
_TAG_BLOCK = 4096


def _tag(iteration: int, phase: int, slot: int = 0) -> int:
    """Disjoint tag base per (iteration, phase, slot) triple."""
    return ((iteration * 16 + phase) * 4096 + slot) * _TAG_BLOCK


def dp_allreduce_trace(
    num_ranks: int,
    iterations: int = 2,
    model_bytes: int = 4_194_304,
    buckets: int = 4,
    algo: str = "ring",
    compute_ns: float = 50_000.0,
    seed: int = 0,
) -> JobTrace:
    """Data-parallel training: per-iteration bucketed gradient all-reduce.

    The ``model_bytes`` gradient is split into ``buckets`` roughly equal
    buckets (DDP-style), each all-reduced as it "becomes ready" after a
    compute gap. ``algo`` picks the ring (bandwidth-optimal, the ML
    default) or recursive-doubling expansion.
    """
    if num_ranks < 2:
        raise ValueError("need at least 2 ranks")
    if iterations < 1 or buckets < 1:
        raise ValueError("need at least one iteration and one bucket")
    if algo not in ("ring", "rd"):
        raise ValueError(f"unknown all-reduce algo {algo!r}")
    if model_bytes < buckets:
        raise ValueError("model_bytes must be >= buckets")
    reduce = (
        collectives.allreduce_ring if algo == "ring" else collectives.allreduce
    )
    base = model_bytes // buckets
    ranks = [RankTrace(r) for r in range(num_ranks)]
    sent = SentTally(ranks)
    profile = []
    for it in range(iterations):
        start = sent.total()
        for b in range(buckets):
            size = round(base * pair_jitter(seed, "dp", it, b))
            for rt in ranks:
                rt.compute(compute_ns / buckets)
                reduce(rt, num_ranks, size, _tag(it, b))
        for rt in ranks:
            rt.barrier()
        total = sent.total() - start
        profile.append((f"iter{it}/allreduce", total / num_ranks))
    return JobTrace(
        "DP",
        ranks,
        meta={
            "app": "dp-allreduce",
            "family": "mlcomms",
            "algo": algo,
            "iterations": iterations,
            "phase_profile": profile,
            "seed": seed,
        },
    )


def pp_1f1b_trace(
    num_ranks: int,
    iterations: int = 2,
    microbatches: int | None = None,
    activation_bytes: int = 1_048_576,
    compute_ns: float = 20_000.0,
    seed: int = 0,
) -> JobTrace:
    """Pipeline-parallel training under the 1F1B schedule.

    Each rank is one pipeline stage; activations flow down the chain on
    forward passes and gradients back up on backward passes. Every stage
    runs the classic warmup (fill the pipeline), steady one-forward-one-
    backward, and cooldown (drain) sequence. ``microbatches`` defaults
    to ``2 * num_ranks`` (a full pipeline plus steady state).
    """
    if num_ranks < 2:
        raise ValueError("need at least 2 ranks (pipeline stages)")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if microbatches is None:
        microbatches = 2 * num_ranks
    if microbatches < num_ranks:
        raise ValueError("need at least one microbatch per stage")
    stages = num_ranks
    ranks = [RankTrace(r) for r in range(num_ranks)]

    def size(it: int, mb: int, kind: str) -> int:
        return round(activation_bytes * pair_jitter(seed, "pp", it, mb, kind))

    for it in range(iterations):
        for rt in ranks:
            s = rt.rank
            warmup = min(stages - 1 - s, microbatches)

            def forward(mb: int) -> None:
                if s > 0:
                    rt.recv(s - 1, size(it, mb, "act"), _tag(it, 0, 0) + mb)
                rt.compute(compute_ns)
                if s < stages - 1:
                    rt.isend(
                        s + 1, size(it, mb, "act"), _tag(it, 0, 0) + mb, req=mb
                    )

            def backward(mb: int) -> None:
                if s < stages - 1:
                    rt.recv(s + 1, size(it, mb, "grad"), _tag(it, 1, 0) + mb)
                rt.compute(compute_ns)
                if s > 0:
                    rt.isend(
                        s - 1, size(it, mb, "grad"), _tag(it, 1, 0) + mb, req=mb
                    )

            for mb in range(warmup):
                forward(mb)
            for k in range(microbatches - warmup):
                forward(warmup + k)
                backward(k)
            for mb in range(microbatches - warmup, microbatches):
                backward(mb)
            rt.waitall()
        for rt in ranks:
            rt.barrier()
    boundary = 2 * activation_bytes * microbatches * (stages - 1) / stages
    return JobTrace(
        "PP",
        ranks,
        meta={
            "app": "pp-1f1b",
            "family": "mlcomms",
            "iterations": iterations,
            "microbatches": microbatches,
            "phase_profile": [
                (f"iter{it}/1f1b", boundary) for it in range(iterations)
            ],
            "seed": seed,
        },
    )


def tp_layer_trace(
    num_ranks: int,
    iterations: int = 2,
    layers: int = 4,
    hidden_bytes: int = 2_097_152,
    compute_ns: float = 10_000.0,
    seed: int = 0,
) -> JobTrace:
    """Tensor-parallel training: per-layer allgather / reduce-scatter.

    The Megatron sequence-parallel exchange: each of ``layers`` layers
    allgathers a ``hidden_bytes`` activation shard on the forward pass
    and reduce-scatters the matching gradient on the backward pass (in
    reverse layer order). Many small, latency-sensitive collectives per
    iteration — the opposite end of the spectrum from DP's few large
    all-reduces.
    """
    if num_ranks < 2:
        raise ValueError("need at least 2 ranks")
    if iterations < 1 or layers < 1:
        raise ValueError("need at least one iteration and one layer")
    shard = max(1, hidden_bytes // num_ranks)
    ranks = [RankTrace(r) for r in range(num_ranks)]
    sent = SentTally(ranks)
    profile = []
    for it in range(iterations):
        start = sent.total()
        for layer in range(layers):
            size = round(shard * pair_jitter(seed, "tp", it, layer))
            for rt in ranks:
                rt.compute(compute_ns)
                collectives.allgather_ring(
                    rt, num_ranks, size, _tag(it, 0, layer)
                )
        for layer in reversed(range(layers)):
            size = round(
                shard * num_ranks * pair_jitter(seed, "tp", it, layer)
            )
            for rt in ranks:
                rt.compute(compute_ns)
                collectives.reduce_scatter_ring(
                    rt, num_ranks, size, _tag(it, 1, layer)
                )
        for rt in ranks:
            rt.barrier()
        total = sent.total() - start
        profile.append((f"iter{it}/layers", total / num_ranks))
    return JobTrace(
        "TP",
        ranks,
        meta={
            "app": "tp-layer",
            "family": "mlcomms",
            "iterations": iterations,
            "layers": layers,
            "phase_profile": profile,
            "seed": seed,
        },
    )


def moe_alltoall_trace(
    num_ranks: int,
    iterations: int = 2,
    layers: int = 2,
    token_bytes: int = 262_144,
    allreduce_bytes: int = 524_288,
    compute_ns: float = 30_000.0,
    seed: int = 0,
) -> JobTrace:
    """MoE/DLRM training: skewed token all-to-alls plus gradient sync.

    Each of ``layers`` expert layers dispatches tokens with a directional
    all-to-all (per-pair sizes jittered ±40% — expert routing is never
    uniform) and combines results with the exact reverse exchange.
    Iterations end with a dense-parameter ring all-reduce. The global,
    skewed traffic makes this the family's adversarial pattern for
    localising placements.
    """
    if num_ranks < 2:
        raise ValueError("need at least 2 ranks")
    if iterations < 1 or layers < 1:
        raise ValueError("need at least one iteration and one layer")

    def pair_size(it: int, layer: int, src: int, dst: int) -> int:
        # Directional: tokens i->j need not match j->i (expert skew).
        return round(
            token_bytes
            * pair_jitter(seed, "moe", it, layer, src, dst, lo=0.6, hi=1.4)
        )

    ranks = [RankTrace(r) for r in range(num_ranks)]
    sent = SentTally(ranks)
    profile = []
    for it in range(iterations):
        start = sent.total()
        for layer in range(layers):
            for phase, flip in (("dispatch", False), ("combine", True)):
                tag = _tag(it, 0 if not flip else 1, layer)
                for rt in ranks:
                    rt.compute(compute_ns)
                    me = rt.rank
                    req = 0
                    for peer in range(num_ranks):
                        if peer == me:
                            continue
                        # Combine reverses dispatch: j returns i's tokens.
                        out = (
                            pair_size(it, layer, peer, me)
                            if flip
                            else pair_size(it, layer, me, peer)
                        )
                        inc = (
                            pair_size(it, layer, me, peer)
                            if flip
                            else pair_size(it, layer, peer, me)
                        )
                        rt.irecv(peer, inc, tag + peer, req=req)
                        rt.isend(peer, out, tag + me, req=req + 1)
                        req += 2
                    rt.waitall()
        for rt in ranks:
            collectives.allreduce_ring(
                rt, num_ranks, allreduce_bytes, _tag(it, 2, 0)
            )
            rt.barrier()
        total = sent.total() - start
        profile.append((f"iter{it}/experts", total / num_ranks))
    return JobTrace(
        "MOE",
        ranks,
        meta={
            "app": "moe-alltoall",
            "family": "mlcomms",
            "iterations": iterations,
            "layers": layers,
            "phase_profile": profile,
            "seed": seed,
        },
    )
