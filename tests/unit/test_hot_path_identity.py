"""Bit-identity of the stream hot path against brute-force references.

Four pieces of the cluster-stream path were rewritten for speed under
an exactness contract — same outputs, same cache keys, compared with
``==`` and never approximately:

* :func:`repro.flow.solver.solve_scalar` (list-indexed body) against
  the original dict-keyed loop, kept verbatim below as the oracle;
* the comms-trace importer's and the DL generators' per-iteration
  loads (running byte totals) against a brute-force re-sum;
* epoch trace digests built from per-job serialised ops against
  ``trace_fingerprint(merge_epoch_trace(...))``;
* the multi-job replay stop predicate against ``all(job.done)``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import APP_BUILDERS
from repro.apps.synthetic import UniformRandomTraffic
from repro.cluster.engine import merge_epoch_trace
from repro.config import tiny
from repro.core.runner import build_topology
from repro.engine.simulator import Simulator
from repro.exec.plan import fingerprint_ops, serialise_ops, trace_fingerprint
from repro.flow.solver import SAT_RTOL, _BOTTLENECK_RTOL, _W_EPS, solve_scalar
from repro.mlcomms import (
    dp_allreduce_trace,
    moe_alltoall_trace,
    parse_comms_trace,
    tp_layer_trace,
)
from repro.mpi.ops import Barrier, Isend, Send
from repro.mpi.replay import ReplayEngine
from repro.mpi.trace import JobTrace, RankTrace, SentTally
from repro.network.fabric import Fabric
from repro.routing import MinimalRouting

DATA = Path(__file__).parent.parent / "data"


# ----------------------------------------------------------------------
# max-min solver
# ----------------------------------------------------------------------
def reference_solve(flows, bw):
    """The original dict-keyed ``solve_scalar`` loop, verbatim."""
    saturated: list[int] = []
    if not flows:
        return saturated

    weight: dict[int, float] = {}
    count: dict[int, int] = {}
    crossings: dict[int, int] = {}
    last_flow: dict[int, int] = {}
    users: dict[int, list] = {}
    n_unfrozen = 0
    for fi, f in enumerate(flows):
        for unit in f.units:
            unit.rate = -1.0  # sentinel: not yet frozen
            n_unfrozen += 1
            for lid, w in unit.links:
                if lid in weight:
                    weight[lid] += w
                    count[lid] += 1
                    users[lid].append(unit)
                else:
                    weight[lid] = w
                    count[lid] = 1
                    users[lid] = [unit]
                if last_flow.get(lid) != fi:
                    last_flow[lid] = fi
                    crossings[lid] = crossings.get(lid, 0) + 1
    link_ids = list(weight)
    residual = {lid: bw[lid] for lid in link_ids}

    base = 0.0
    while n_unfrozen:
        step = math.inf
        for lid in link_ids:
            wsum = weight[lid]
            if wsum > _W_EPS:
                t = residual[lid] / wsum
                if t < step:
                    step = t
        if step is math.inf:
            break
        base += step
        bottleneck: list[int] = []
        for lid in link_ids:
            wsum = weight[lid]
            if wsum > _W_EPS:
                r = residual[lid] - wsum * step
                residual[lid] = r
                if r <= bw[lid] * _BOTTLENECK_RTOL:
                    bottleneck.append(lid)
        progressed = False
        for lid in bottleneck:
            for unit in users[lid]:
                if unit.rate < 0.0:
                    unit.rate = base
                    n_unfrozen -= 1
                    progressed = True
                    for l2, w2 in unit.links:
                        weight[l2] -= w2
                        count[l2] -= 1
                        if count[l2] == 0:
                            weight[l2] = 0.0
        if not progressed:
            break
    for f in flows:
        rate = 0.0
        for unit in f.units:
            if unit.rate < 0.0:
                unit.rate = base
            rate += unit.rate
        f.rate = rate

    for lid in sorted(residual):
        if crossings[lid] >= 2 and residual[lid] <= bw[lid] * SAT_RTOL:
            saturated.append(lid)
    return saturated


class U:
    __slots__ = ("links", "rate")

    def __init__(self, links):
        self.links = tuple(links)
        self.rate = 0.0


class F:
    __slots__ = ("units", "rate")

    def __init__(self, units):
        self.units = tuple(units)
        self.rate = 0.0


def assert_identical(caps, flow_specs):
    """Both bodies on fresh copies: every output compared with ``==``."""
    ref = [F([U(links) for links in units]) for units in flow_specs]
    new = [F([U(links) for links in units]) for units in flow_specs]
    assert solve_scalar(new, caps) == reference_solve(ref, caps)
    assert [u.rate for f in new for u in f.units] == [
        u.rate for f in ref for u in f.units
    ]
    assert [f.rate for f in new] == [f.rate for f in ref]


#: Few distinct capacities, so bottleneck ties are common.
CAPS = (1.0, 2.5, 12.5, 12.5, 100.0)

#: Ordinary split weights plus weights straddling ``_W_EPS``.
WEIGHTS = st.one_of(
    st.sampled_from((0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0 / 3.0, 1.0)),
    st.floats(0.01, 4.0),
    st.sampled_from((_W_EPS / 2, _W_EPS, _W_EPS * 1.5, _W_EPS * 4)),
)


@st.composite
def adaptive_instances(draw):
    """Multi-unit flows whose candidate units share terminal links.

    Mirrors the flow fabric's adaptive routing: each flow's units start
    on the source's terminal-in link and end on the destination's
    terminal-out link, with disjoint-ish middles, and a few terminal
    links are shared between flows.
    """
    n_links = draw(st.integers(2, 14))
    caps = draw(st.lists(st.sampled_from(CAPS), min_size=n_links,
                         max_size=n_links))
    terminals = st.integers(0, min(3, n_links - 1))
    middles = st.lists(st.integers(0, n_links - 1), max_size=4, unique=True)
    flow_specs = []
    for _ in range(draw(st.integers(0, 6))):
        src, dst = draw(terminals), draw(terminals)
        units = []
        for _ in range(draw(st.integers(0, 4))):
            w = draw(WEIGHTS)
            path = [src, *draw(middles), dst]
            units.append([(lid, w) for lid in path])
        flow_specs.append(units)
    return caps, flow_specs


class TestSolveScalarBitIdentity:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(adaptive_instances())
    def test_adaptive_instances(self, instance):
        assert_identical(*instance)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.lists(
                    st.tuples(st.integers(0, 5), WEIGHTS),
                    min_size=1, max_size=4,
                ),
                min_size=1, max_size=3,
            ),
            max_size=6,
        )
    )
    def test_equal_capacity_ties(self, flow_specs):
        assert_identical([10.0] * 6, flow_specs)

    def test_zero_units(self):
        assert_identical([1.0, 2.0], [])
        assert_identical([1.0, 2.0], [[]])
        assert_identical([1.0, 2.0], [[], [[(0, 1.0)]], []])

    @pytest.mark.parametrize("w", [_W_EPS / 2, _W_EPS, 2 * _W_EPS, 0.5, 1.0])
    def test_one_unit(self, w):
        assert_identical([3.0, 7.0, 5.0], [[[(0, w), (2, w), (1, 1.0)]]])

    def test_freeze_order_is_preserved(self):
        # Links 5 and 6 saturate in the same round. Their units shed
        # 0.3/0.7/0.1 from live link 4 in freeze order; shedding them in
        # the other order moves the first unit's rate by one ulp.
        caps = [12.5, 10.0, 12.5, 12.5, 12.5, 12.5, 10.0]
        specs = [
            [[(6, 0.2)]],
            [[(5, 0.1)]],
            [[(4, 0.3), (4, 0.3)], [(4, 0.7)], [(6, 0.1), (4, 0.1)]],
            [[(5, 0.5), (6, 0.5), (5, 0.5)], [(5, 0.1), (5, 0.1)], [(5, 0.1)]],
        ]
        assert_identical(caps, specs)

    def test_captured_stream_shape(self):
        # Two flows sharing one terminal link, each with two adaptive
        # units: the shape every epoch-cell solve has.
        caps = [12.5, 12.5, 25.0, 25.0, 12.5]
        specs = [
            [[(0, 0.5), (2, 0.5), (4, 0.5)], [(0, 0.5), (3, 0.5), (4, 0.5)]],
            [[(1, 1.0), (2, 1.0), (4, 1.0)], [(1, 1.0), (3, 0.25), (4, 1.0)]],
        ]
        assert_identical(caps, specs)


# ----------------------------------------------------------------------
# running byte totals (importer + generators)
# ----------------------------------------------------------------------
def brute_force_profile(records, num_ranks):
    """Per-iteration loads by re-parsing every marker-delimited prefix.

    The importer's tag stride depends only on record indexes, so the
    prefix ``records[:m]`` lowers to exactly the ops the full import has
    appended when it reaches record ``m``.
    """
    cuts = [i for i, r in enumerate(records) if "marker" in r]
    cuts.append(len(records))
    profile, prev = [], 0
    for m in cuts:
        total = parse_comms_trace(records[:m], num_ranks=num_ranks).total_bytes()
        if total - prev > 0:
            profile.append((f"iter{len(profile)}", (total - prev) / num_ranks))
            prev = total
    return profile


def resum(trace: JobTrace) -> int:
    return sum(
        op.size for rt in trace.ranks for op in rt.ops
        if isinstance(op, (Send, Isend))
    )


def param_document(records: int, num_ranks: int = 8) -> dict:
    """A 400-record-class document: collectives, gaps, empty iterations."""
    kinds = ("all_reduce", "all_to_all", "all_gather", "reduce_scatter")
    trace = []
    for i in range(records):
        if i % 5 == 4:
            trace.append({"marker": f"iteration_{i // 5}"})
        elif i % 37 == 0:
            trace.append({"marker": "empty"})  # closes an empty span
        elif i % 11 == 0:
            trace.append({"compute_ns": 1000.0 * i})
        else:
            trace.append({
                "comms": kinds[i % len(kinds)],
                "in_msg_size": 512 + 97 * i,
                "dtype": "float32",
            })
    return {"name": "param", "num_ranks": num_ranks, "trace": trace}


class TestRunningTotals:
    @pytest.mark.parametrize("source", ["fixture", "400-records"])
    def test_importer_matches_brute_force(self, source):
        if source == "fixture":
            doc = json.loads((DATA / "comms_trace_dp8.json").read_text())
        else:
            doc = param_document(400)
        job = parse_comms_trace(doc)
        assert job.meta["phase_profile"] == brute_force_profile(
            doc["trace"], doc["num_ranks"]
        )
        assert job.total_bytes() == resum(job)

    def test_sent_tally_tracks_appends(self):
        ranks = [RankTrace(0), RankTrace(1)]
        tally = SentTally(ranks)
        assert tally.total() == 0
        ranks[0].send(1, 7)
        ranks[1].isend(0, 5, req=0)
        ranks[1].recv(0, 7)
        assert tally.total() == 12
        assert tally.total() == 12  # no new ops, nothing re-counted
        ranks[0].barrier()
        ranks[0].isend(1, 3, req=1)
        assert tally.total() == 15 == sum(rt.bytes_sent() for rt in ranks)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dp_allreduce_trace(6, iterations=3, seed=2),
            lambda: dp_allreduce_trace(5, iterations=2, algo="rd", seed=1),
            lambda: tp_layer_trace(4, iterations=3, layers=2, seed=4),
            lambda: moe_alltoall_trace(5, iterations=3, layers=2, seed=5),
        ],
    )
    def test_generator_profiles_match_brute_force(self, build):
        # Every generator ends an iteration with one barrier per rank
        # and its collectives carry none, so the k-th barrier-delimited
        # segment of every rank is iteration k.
        job = build()
        loads: list[int] = []
        for rt in job.ranks:
            k, seg = 0, 0
            for op in rt.ops:
                if isinstance(op, (Send, Isend)):
                    seg += op.size
                elif isinstance(op, Barrier):
                    if k == len(loads):
                        loads.append(0)
                    loads[k] += seg
                    k, seg = k + 1, 0
        want = [load / job.num_ranks for load in loads]
        assert [v for _, v in job.meta["phase_profile"]] == want


# ----------------------------------------------------------------------
# epoch trace digests
# ----------------------------------------------------------------------
def _job(app: str, ranks: int, seed: int) -> JobTrace:
    return APP_BUILDERS[app](num_ranks=ranks, seed=seed).scaled(0.05)


@pytest.mark.parametrize(
    "jobs",
    [
        [("AMG", 4, 1)],
        [("DP", 8, 2), ("CR", 4, 3)],
        [("FB", 8, 4), ("MOE", 4, 5), ("AMG", 8, 6)],
        [("CR", 4, 7), ("CR", 4, 7)],  # same content twice
    ],
)
def test_epoch_digest_matches_merged_fingerprint(jobs):
    traces = [(f"{app}-{i}", _job(app, r, s)) for i, (app, r, s) in
              enumerate(jobs)]
    merged = merge_epoch_trace(traces, "epoch:0123456789abcdef")
    parts = [serialise_ops(t) for _, t in traces]
    got = fingerprint_ops(
        merged.name, sum(t.num_ranks for _, t in traces), parts
    )
    assert got == trace_fingerprint(merged)


# ----------------------------------------------------------------------
# multi-job replay stop predicate
# ----------------------------------------------------------------------
def _replay(drive):
    cfg = tiny()
    topo = build_topology(cfg.topology)
    sim = Simulator()
    fabric = Fabric(sim, topo, cfg.network, MinimalRouting(seed=0))
    engine = ReplayEngine(sim, fabric)
    engine.add_job(0, _job("CR", 4, 1), [0, 1, 2, 3])
    engine.add_job(1, _job("AMG", 4, 2), [8, 9, 10, 11], start_ns=20_000.0)
    engine.add_job(2, _job("FB", 8, 3), list(range(12, 20)),
                   start_ns=5_000.0)
    # Endless background traffic: only the stop predicate ends the run.
    engine.add_injector(
        UniformRandomTraffic([4, 5, 6, 7, 20, 21], 2048, 3_000.0, seed=9)
    )
    drive(engine)
    return sim.now, sim.events_run


def test_multi_job_replay_stops_where_all_done_does():
    def reference(engine):
        jobs = list(engine._jobs.values())
        engine.start()
        engine.sim.run(stop=lambda: all(j.done for j in jobs))
        engine.fabric.drain_saturation()

    assert _replay(lambda e: e.run()) == _replay(reference)
