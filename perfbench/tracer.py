"""Span tracer and the instrumentation points of the benchmark.

Spans are recorded only here, around calls into ``repro``'s public
functions and methods: :func:`instrument` swaps each call target for a
timing wrapper while a traced pass runs and restores the original
afterwards, so untraced passes execute the unmodified program.

A span's *self* time is its duration minus the durations of the spans
it directly encloses. Every span's duration is credited to exactly one
parent, so the self times of all spans plus the root span's own self
time add up to the root span's duration; :meth:`Tracer.layer_self`
groups them by layer (the span name's prefix up to the first dot).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

#: Root span name; its self time is benchmark glue outside any layer.
ROOT = "bench.unit"


class Tracer:
    """Accumulates per-span-name duration, self time and call counts."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Work counters recorded at the same boundaries as the spans.
        self.counts: Counter[str] = Counter()
        self._stack: list[float] = [0.0]

    def _close(self, name: str, start: float) -> None:
        dur = time.perf_counter() - start
        child = self._stack.pop()
        self._stack[-1] += dur
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple], str],
        post: Callable[["Tracer", Any, tuple, dict], None] | None = None,
    ) -> Callable:
        """``fn`` timed as a span; ``name`` may be chosen from the args.

        ``post(tracer, result, args, kwargs)`` records work counters
        after the span closes.
        """
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(label, start)
            if post is not None:
                post(self, out, args, kwargs)
            return out

        return traced

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (span-name prefix)."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, secs in self.self_time.items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)


# ----------------------------------------------------------------------
# post hooks: work counters read at the span boundary
# ----------------------------------------------------------------------
def _replay_name(args: tuple) -> str:
    from repro.network.fabric import Fabric

    return "network.replay" if isinstance(args[0].fabric, Fabric) else "flow.replay"


def _post_replay(tr: Tracer, _out, args, _kw) -> None:
    tr.counts["engine.events"] += args[0].sim.events_run


def _post_collect(tr: Tracer, _out, args, kwargs) -> None:
    """``RunMetrics.from_run(fabric, ...)`` sees every finished fabric."""
    from repro.network.fabric import Fabric
    from repro.routing.adaptive import AdaptiveRouting

    fabric = args[1] if len(args) > 1 else kwargs["fabric"]
    tr.counts[f"fabric.{type(fabric).__name__}"] += 1
    if isinstance(fabric, Fabric):
        tr.counts["network.packets"] += fabric.packets_injected
        tr.counts["network.bytes"] += fabric.bytes_injected
        if isinstance(fabric.routing, AdaptiveRouting):
            tr.counts["routing.minimal"] += fabric.routing.minimal_taken
            tr.counts["routing.nonminimal"] += fabric.routing.nonminimal_taken


def _post_build(tr: Tracer, out, _args, _kw) -> None:
    tr.counts["apps.ops"] += sum(len(rt) for rt in out.ranks)


def _post_import(tr: Tracer, out, _args, _kw) -> None:
    tr.counts["mlcomms.records"] += int(out.meta["records"])


def _post_get(tr: Tracer, out, _args, _kw) -> None:
    tr.counts["exec.cache_hits" if out is not None else "exec.cache_misses"] += 1


def _post_put(tr: Tracer, _out, args, _kw) -> None:
    cache, key = args[0], args[1]
    tr.counts["exec.cache_bytes"] += cache.path_for(key).stat().st_size


#: (module, attribute path, span name, post hook). A dotted attribute
#: is ``Class.member``; module-level functions are patched in the
#: namespace of the module that calls them.
TARGETS: tuple[tuple[str, str, Any, Any], ...] = (
    ("repro.exec.pool", "run_single", "core.cell", None),
    ("repro.exec.pool", "execute_plan", "exec.execute", None),
    ("repro.exec.plan", "plan_grid", "exec.plan", None),
    ("repro.exec.plan", "trace_fingerprint", "exec.plan", None),
    ("repro.exec.plan", "RunSpec.key", "exec.plan", None),
    ("repro.exec.cache", "ResultCache.get", "exec.cache_get", _post_get),
    ("repro.exec.cache", "ResultCache.put", "exec.cache_put", _post_put),
    ("repro.cluster.engine", "run_stream", "cluster.stream", None),
    ("repro.cluster.engine", "simulate_epoch", "cluster.epoch_cell", None),
    ("repro.cluster.engine", "merge_epoch_trace", "cluster.merge", None),
    ("repro.cluster.engine", "execute_plan", "exec.execute", None),
    ("repro.cluster.engine", "trace_fingerprint", "exec.plan", None),
    ("repro.cluster.scheduler", "ClusterScheduler.submit", "cluster.schedule", None),
    ("repro.cluster.scheduler", "ClusterScheduler.schedule", "cluster.schedule", None),
    ("repro.cluster.scheduler", "ClusterScheduler.finish", "cluster.schedule", None),
    ("repro.placement.machine", "Machine.allocate", "placement.alloc", None),
    ("repro.placement.machine", "Machine.claim_nodes", "placement.alloc", None),
    ("repro.mpi.replay", "ReplayEngine.run", _replay_name, _post_replay),
    ("repro.routing.minimal", "MinimalRouting.route", "routing.route", None),
    ("repro.routing.adaptive", "AdaptiveRouting.route", "routing.route", None),
    ("repro.flow.fabric", "FlowFabric.inject", "flow.inject", None),
    ("repro.flow.fabric_array", "ArrayFlowFabric.inject", "flow.inject", None),
    ("repro.flow.routes", "FlowRouteModel.__init__", "flow.route_model", None),
    ("repro.flow.routes", "FlowRouteModel.entry", "flow.route_model", None),
    ("repro.flow.routes", "FlowRouteModel.spill", "flow.route_model", None),
    ("repro.flow.routes", "FlowRouteModel.spill_fast", "flow.route_model", None),
    ("repro.metrics.collector", "RunMetrics.from_run", "metrics.collect", _post_collect),
    ("repro.mlcomms.traceio", "parse_comms_trace", "mlcomms.import", _post_import),
)


def _patch_member(tracer: Tracer, owner: Any, attr: str, name, post) -> Any:
    """Wrap one class member; returns the raw original for restoring."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        new: Any = classmethod(tracer.wrap(raw.__func__, name, post))
    elif isinstance(raw, property):
        new = property(tracer.wrap(raw.fget, name, post))
    else:
        new = tracer.wrap(raw, name, post)
    setattr(owner, attr, new)
    return raw


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every span in :data:`TARGETS` (and the app builders)."""
    from repro.apps import APP_BUILDERS

    undo: list[Callable[[], None]] = []
    try:
        for module_name, path, name, post in TARGETS:
            owner: Any = importlib.import_module(module_name)
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                raw = _patch_member(tracer, owner, attr, name, post)
            else:
                raw = getattr(owner, attr)
                setattr(owner, attr, tracer.wrap(raw, name, post))
            undo.append(functools.partial(setattr, owner, attr, raw))
        for app, builder in list(APP_BUILDERS.items()):
            APP_BUILDERS[app] = tracer.wrap(builder, "apps.build", _post_build)
            undo.append(functools.partial(APP_BUILDERS.__setitem__, app, builder))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
