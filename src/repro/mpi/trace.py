"""Trace containers and characterisation helpers.

A :class:`RankTrace` is the ordered operation list of one MPI rank; a
:class:`JobTrace` bundles the ranks of one job plus metadata. The
characterisation methods reproduce the paper's Figure 2 inputs: the
rank-to-rank communication matrix and the per-rank message-load profile.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.mpi.ops import (
    ANY_SOURCE,
    Barrier,
    Compute,
    Irecv,
    Isend,
    Op,
    Recv,
    Send,
    Wait,
    WaitAll,
)

__all__ = ["RankTrace", "JobTrace", "SentTally"]


class RankTrace:
    """Ordered list of operations executed by one rank.

    Provides builder-style convenience methods so generators read like
    the communication code they model::

        t = RankTrace(rank)
        t.isend(dst, size, tag=1, req=0)
        t.irecv(src, size, tag=1, req=1)
        t.waitall()
    """

    __slots__ = ("rank", "ops")

    def __init__(self, rank: int, ops: Iterable[Op] | None = None) -> None:
        self.rank = rank
        self.ops: list[Op] = list(ops) if ops is not None else []

    # builder helpers -------------------------------------------------
    def send(self, dst: int, size: int, tag: int = 0) -> None:
        self.ops.append(Send(dst, size, tag))

    def isend(self, dst: int, size: int, tag: int = 0, req: int = 0) -> None:
        self.ops.append(Isend(dst, size, tag, req))

    def recv(self, src: int, size: int, tag: int = 0) -> None:
        self.ops.append(Recv(src, size, tag))

    def irecv(self, src: int, size: int, tag: int = 0, req: int = 0) -> None:
        self.ops.append(Irecv(src, size, tag, req))

    def wait(self, req: int) -> None:
        self.ops.append(Wait(req))

    def waitall(self) -> None:
        self.ops.append(WaitAll())

    def barrier(self) -> None:
        self.ops.append(Barrier())

    def compute(self, duration_ns: float) -> None:
        self.ops.append(Compute(duration_ns))

    # queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def sends(self) -> Iterator[Send | Isend]:
        for op in self.ops:
            if isinstance(op, (Send, Isend)):
                yield op

    def recvs(self) -> Iterator[Recv | Irecv]:
        for op in self.ops:
            if isinstance(op, (Recv, Irecv)):
                yield op

    def bytes_sent(self) -> int:
        return sum(op.size for op in self.sends())

    def num_sends(self) -> int:
        return sum(1 for _ in self.sends())

    def scaled(self, factor: float) -> "RankTrace":
        """Copy with every message size multiplied by ``factor``.

        Non-zero sizes are kept at least 1 byte so the operation count —
        and hence the communication *frequency* the paper distinguishes
        apps by — is preserved at any scale.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")

        def _scale(size: int) -> int:
            return max(1, round(size * factor)) if size > 0 else 0

        out: list[Op] = []
        for op in self.ops:
            if isinstance(op, Send):
                out.append(Send(op.dst, _scale(op.size), op.tag))
            elif isinstance(op, Isend):
                out.append(Isend(op.dst, _scale(op.size), op.tag, op.req))
            elif isinstance(op, Recv):
                out.append(Recv(op.src, _scale(op.size), op.tag))
            elif isinstance(op, Irecv):
                out.append(Irecv(op.src, _scale(op.size), op.tag, op.req))
            else:
                out.append(op)
        return RankTrace(self.rank, out)


class SentTally:
    """Running total of the bytes a set of growing rank traces sends.

    Generators and importers record a per-iteration load by reading the
    total at every iteration boundary. Re-summing
    :meth:`RankTrace.bytes_sent` there rescans every rank's whole trace
    each time — quadratic in the iteration count. :meth:`total` scans
    only the ops appended since its previous call. Sizes are integers,
    so the running sum equals the full re-sum exactly. Traces must only
    grow by appending while a tally watches them.
    """

    __slots__ = ("_ranks", "_seen", "_total")

    def __init__(self, ranks: list[RankTrace]) -> None:
        self._ranks = ranks
        self._seen = [0] * len(ranks)
        self._total = 0

    def total(self) -> int:
        """Bytes sent by all watched ranks so far."""
        for i, rt in enumerate(self._ranks):
            ops = rt.ops
            self._total += sum(
                op.size
                for op in ops[self._seen[i]:]
                if isinstance(op, (Send, Isend))
            )
            self._seen[i] = len(ops)
        return self._total


class JobTrace:
    """All ranks of one job, plus free-form metadata.

    ``meta`` commonly carries ``phase_profile`` — a list of
    ``(phase_label, mean_bytes_per_rank)`` pairs emitted by the
    application generators and used to reproduce Figure 2(d-f).
    """

    def __init__(
        self,
        name: str,
        ranks: list[RankTrace],
        meta: dict | None = None,
    ) -> None:
        if not ranks:
            raise ValueError("a job needs at least one rank")
        for i, rt in enumerate(ranks):
            if rt.rank != i:
                raise ValueError(f"rank {i} trace carries rank id {rt.rank}")
        self.name = name
        self.ranks = ranks
        self.meta: dict = dict(meta) if meta else {}

    @property
    def num_ranks(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[RankTrace]:
        return iter(self.ranks)

    def total_bytes(self) -> int:
        """Total payload bytes sent across all ranks."""
        return sum(rt.bytes_sent() for rt in self.ranks)

    def num_messages(self) -> int:
        return sum(rt.num_sends() for rt in self.ranks)

    def avg_message_load_per_rank(self) -> float:
        """The paper's communication-intensity measure (bytes/rank)."""
        return self.total_bytes() / self.num_ranks

    def communication_matrix(self) -> np.ndarray:
        """Bytes sent from rank i to rank j (Figure 2 top row)."""
        n = self.num_ranks
        mat = np.zeros((n, n), dtype=np.int64)
        for rt in self.ranks:
            for op in rt.sends():
                mat[rt.rank, op.dst] += op.size
        return mat

    def scaled(self, factor: float) -> "JobTrace":
        """Job with every message size scaled (paper Section IV-B)."""
        meta = dict(self.meta)
        meta["message_scale"] = meta.get("message_scale", 1.0) * factor
        if "phase_profile" in meta:
            meta["phase_profile"] = [
                (label, load * factor) for label, load in meta["phase_profile"]
            ]
        return JobTrace(
            self.name, [rt.scaled(factor) for rt in self.ranks], meta
        )

    def validate(self) -> None:
        """Check structural soundness of the trace.

        * destination/source ranks are in range;
        * per-destination expected receive bytes equal sent bytes
          (wildcard receives are exempt from byte accounting but counted
          against message counts);
        * message counts balance: messages sent to each rank equal the
          receives that rank posts.

        Raises ``ValueError`` on the first violation.
        """
        n = self.num_ranks
        sent_count = np.zeros(n, dtype=np.int64)
        recv_count = np.zeros(n, dtype=np.int64)
        sent_bytes = np.zeros(n, dtype=np.int64)
        recv_bytes = np.zeros(n, dtype=np.int64)
        wildcard = np.zeros(n, dtype=bool)
        for rt in self.ranks:
            for op in rt.ops:
                if isinstance(op, (Send, Isend)):
                    if not 0 <= op.dst < n:
                        raise ValueError(
                            f"rank {rt.rank} sends to out-of-range rank {op.dst}"
                        )
                    sent_count[op.dst] += 1
                    sent_bytes[op.dst] += op.size
                elif isinstance(op, (Recv, Irecv)):
                    if op.src != ANY_SOURCE and not 0 <= op.src < n:
                        raise ValueError(
                            f"rank {rt.rank} receives from out-of-range "
                            f"rank {op.src}"
                        )
                    recv_count[rt.rank] += 1
                    recv_bytes[rt.rank] += op.size
                    if op.src == ANY_SOURCE:
                        wildcard[rt.rank] = True
        mismatch = np.nonzero(sent_count != recv_count)[0]
        if mismatch.size:
            r = int(mismatch[0])
            raise ValueError(
                f"rank {r} posts {recv_count[r]} receives but is sent "
                f"{sent_count[r]} messages"
            )
        byte_mismatch = np.nonzero((sent_bytes != recv_bytes) & ~wildcard)[0]
        if byte_mismatch.size:
            r = int(byte_mismatch[0])
            raise ValueError(
                f"rank {r} expects {recv_bytes[r]} bytes but is sent "
                f"{sent_bytes[r]}"
            )
