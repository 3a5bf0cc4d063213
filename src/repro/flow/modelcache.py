"""Cross-process route-model reuse: a disk-backed prewarm cache.

A :class:`~repro.flow.routes.FlowRouteModel` is a pure function of
``(topology params, network params, routing, FlowParams)``, append-only
after construction, and expensive to warm: the entry/candidate/spill
memos are derived lazily per (src, dst) pair, so every *process* that
simulates the same configuration used to re-derive the exact same
structures (pool workers are the worst case — each worker pays the
full warm-up for every distinct model it touches).

This module persists those memos, keyed by a content digest of the
model's defining inputs. The cache stores *derived, deterministic*
state only — loading a warm model changes speed, never results — so it
sits outside the exec result-cache identity, like the solver and
fabric knobs.

Enablement is opt-in via the ``REPRO_FLOW_MODEL_CACHE`` environment
variable (a directory path): :func:`~repro.flow.routes.flow_route_model`
calls :func:`load_into` on every newly constructed model when the knob
is set, and :func:`repro.exec.pool.simulate_spec` calls
:func:`save_from` after each flow cell. Writes are atomic (temp file + ``os.replace``) so
concurrent workers can race on the same digest safely; corrupt or
unreadable files are treated as misses and counted in :func:`stats`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

__all__ = [
    "MODEL_CACHE_SCHEMA",
    "MODEL_CACHE_ENV",
    "cache_dir",
    "model_digest",
    "load_into",
    "save_from",
    "stats",
    "reset_stats",
]

#: Versioned payload schema, part of the digest: bump it whenever the
#: pickled memo layout changes and old files silently become misses.
MODEL_CACHE_SCHEMA = "repro-flow-model/v1"

#: Environment knob: a directory to persist warm route models under.
MODEL_CACHE_ENV = "REPRO_FLOW_MODEL_CACHE"

#: Memo dict attributes persisted per model. ``_entry_arrays`` is
#: deliberately absent — it is keyed by process-local ``id()``.
_MEMO_ATTRS = (
    "_cache",
    "_cand_cache",
    "_scoring",
    "_idle_spill",
    "_fast_scoring",
)

_stats = {"hits": 0, "misses": 0, "saves": 0, "errors": 0}


def stats() -> dict[str, int]:
    """A copy of this process's cache counters."""
    return dict(_stats)


def reset_stats() -> None:
    for k in _stats:
        _stats[k] = 0


def cache_dir() -> Path | None:
    """The configured cache directory, or ``None`` when disabled."""
    path = os.environ.get(MODEL_CACHE_ENV)
    return Path(path) if path else None


def model_digest(model: Any) -> str:
    """Content digest of the inputs that define a route model."""
    payload = {
        "schema": MODEL_CACHE_SCHEMA,
        "topology": dataclasses.asdict(model.topo.params),
        "net": dataclasses.asdict(model.net),
        "routing": model.routing,
        "params": dataclasses.asdict(model.params),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _path_for(base: Path, digest: str) -> Path:
    return base / f"model-{digest[:32]}.pkl"


def load_into(model: Any) -> bool:
    """Merge a persisted model's memos into ``model``; True on a hit.

    Merging (``dict.update``) rather than replacing keeps anything the
    model already derived; identical keys map to equal values by
    determinism of the derivation.
    """
    base = cache_dir()
    if base is None:
        return False
    path = _path_for(base, model_digest(model))
    try:
        with open(path, "rb") as fh:
            memos = pickle.load(fh)
        for attr in _MEMO_ATTRS:
            getattr(model, attr).update(memos[attr])
    except FileNotFoundError:
        _stats["misses"] += 1
        return False
    except Exception:
        # Corrupt/truncated/incompatible file: a miss, not a failure.
        _stats["errors"] += 1
        _stats["misses"] += 1
        return False
    _stats["hits"] += 1
    return True


def save_from(model: Any, force: bool = False) -> bool:
    """Persist ``model``'s memos; True when a file was written.

    Skips the write when the digest already exists (unless ``force``) —
    models are append-only, so the first writer's warm set is
    representative and later workloads only re-add what they touch.
    The write is atomic, so racing workers are safe.
    """
    base = cache_dir()
    if base is None:
        return False
    path = _path_for(base, model_digest(model))
    if path.exists() and not force:
        return False
    try:
        base.mkdir(parents=True, exist_ok=True)
        memos = {attr: getattr(model, attr) for attr in _MEMO_ATTRS}
        fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(memos, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception:
        _stats["errors"] += 1
        return False
    _stats["saves"] += 1
    return True
