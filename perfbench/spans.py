"""Benchmark-side tracing: spans recorded around each layer's entry points.

Nothing under ``src/`` changes.  :func:`install` replaces the public entry
points listed in :data:`HOOKS` with wrappers that record one span per call
(name, layer, start, end, parent, request id, thread) into a
:class:`Tracer`, and returns a function that puts the originals back.  A
span's parent is the innermost open span on the same thread, so every
thread's spans form properly nested trees.

The tracer keeps records in memory and writes them once, as JSON lines, at
the end of the run.  Each line is one object with a ``kind``:

* ``span``  -- ``id, parent, name, layer, start, end, request, thread,
  round, phase`` and optional ``attrs`` (counts taken from arguments or
  return values);
* ``phase`` -- a stretch of a round the harness timed (``name, start, end,
  round, thread``);
* ``gauge`` -- a value read from a public attribute at the end of a round
  (``name, value, round``).

Times are seconds from the tracer's creation.  Program-side spans can write
the same records and be read by :func:`load` unchanged.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional


class Tracer:
    """In-memory span store shared by every wrapped entry point."""

    def __init__(self):
        self.records: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()
        #: Round and phase stamped on new records; set by the harness.
        self.round = 0
        self.phase = "setup"

    def now(self) -> float:
        """Seconds since the tracer was created."""
        return time.perf_counter() - self._t0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.current_thread().name
        return stack

    def set_request(self, request: Optional[str]) -> None:
        """Request id inherited by root spans opened on this thread."""
        self._local.request = request

    def open(self, name: str, layer: str, request: Optional[str] = None) -> dict:
        """Start a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        inherited = (
            parent["request"] if parent is not None
            else getattr(self._local, "request", None)
        )
        # An inherited id wins; ``request`` names spans on threads the
        # harness never labelled (scheduler and transport workers), and is
        # lent to the still-unnamed parent that issued it.
        if inherited is not None or request is None:
            request = inherited
        elif parent is not None:
            parent["request"] = request
        rec = {
            "kind": "span",
            "id": next(self._ids),
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "request": request,
            "thread": self._local.thread,
            "round": self.round,
            "phase": self.phase,
        }
        stack.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        """End the span ``rec`` (the innermost open one on this thread)."""
        rec["end"] = time.perf_counter() - self._t0
        self._stack().pop()
        self.records.append(rec)

    def mark_phase(self, name: str, start: float, end: float) -> None:
        """Record a stretch of the round the harness timed."""
        self.records.append(
            {
                "kind": "phase",
                "name": name,
                "start": start,
                "end": end,
                "round": self.round,
                "thread": threading.current_thread().name,
            }
        )

    def gauge(self, name: str, value: float) -> None:
        """Record a value read at the end of a round."""
        self.records.append(
            {"kind": "gauge", "name": name, "value": value, "round": self.round}
        )

    def write(self, path: str) -> None:
        """Write every record as one JSON line."""
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec))
                fh.write("\n")


def load(path: str) -> List[dict]:
    """Read a JSON-lines trace back."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --- entry points ------------------------------------------------------------

def _len_out(args, out) -> dict:
    return {"n": len(out)}


def _fresh_attrs(args, out) -> dict:
    tuples, examined = out
    return {"examined": examined, "returned": len(tuples)}


def _decompose_attrs(args, out) -> dict:
    fresh, chunks = out
    return {"fresh": len(fresh), "chunks": len(chunks)}


def _subquery_attrs(args, out) -> dict:
    return {
        "tuples": len(out.tuples),
        "leaves_read": out.leaves_read,
        "leaves_skipped": out.leaves_skipped,
        "cache_hits": out.cache_hits,
        "cache_misses": out.cache_misses,
    }


def _query_request(args) -> Optional[str]:
    """Request id of a query seen below the facade (worker threads)."""
    query = args[1]
    return f"query:{query.query_id}" if query.query_id else None


#: (module, owner, attribute, span name, layer, attrs(args, out), request(args)).
#: ``owner`` None patches a module-level name -- the name through which the
#: caller looks the function up.
HOOKS = [
    ("repro.core.system", "Waterwheel", "insert_batch", "system.insert_batch", "system", None, None),
    ("repro.core.system", "Waterwheel", "query", "system.query", "system", None, None),
    ("repro.core.system", "Waterwheel", "submit", "system.submit", "system", None, None),
    ("repro.core.system", "Waterwheel", "flush_all", "system.flush_all", "system", None, None),
    ("repro.core.system", "Waterwheel", "kill_indexing_server", "system.kill_indexing_server", "system", None, None),
    ("repro.core.dispatcher", "Dispatcher", "route_batch", "dispatcher.route_batch", "dispatcher", None, None),
    ("repro.core.dispatcher", "Dispatcher", "observe_batch", "dispatcher.observe_batch", "dispatcher", None, None),
    ("repro.messaging.log", "DurableLog", "append_batch", "log.append_batch", "log", None, None),
    ("repro.messaging.log", "DurableLog", "replay", "log.replay", "log", _len_out, None),
    ("repro.core.indexing_server", "IndexingServer", "ingest_run", "indexing.ingest_run", "indexing", None, None),
    ("repro.core.indexing_server", "IndexingServer", "ingest", "indexing.ingest", "indexing", None, None),
    ("repro.core.indexing_server", "IndexingServer", "recover", "indexing.recover", "indexing", None, None),
    ("repro.core.indexing_server", "IndexingServer", "fresh_region", "indexing.fresh_region", "indexing", None, None),
    ("repro.core.indexing_server", "IndexingServer", "query_fresh", "indexing.query_fresh", "indexing", _fresh_attrs, None),
    ("repro.btree.template", "TemplateBTree", "insert_run", "btree.insert_run", "btree", None, None),
    ("repro.btree.template", "TemplateBTree", "update_template", "btree.update_template", "btree", None, None),
    ("repro.core.balancer", "PartitionBalancer", "maybe_rebalance", "balancer.maybe_rebalance", "balancer", None, None),
    ("repro.core.indexing_server", None, "serialize_chunk", "flush.serialize", "flush", _len_out, None),
    ("repro.storage.dfs", "SimulatedDFS", "put", "dfs.put", "dfs", None, None),
    ("repro.storage.dfs", "SimulatedDFS", "get_bytes", "dfs.get_bytes", "dfs", None, None),
    ("repro.storage.dfs", "SimulatedDFS", "get_prefix", "dfs.get_prefix", "dfs", None, None),
    ("repro.storage.dfs", "SimulatedDFS", "get_range", "dfs.get_range", "dfs", None, None),
    ("repro.storage.dfs", "SimulatedDFS", "get_ranges", "dfs.get_ranges", "dfs", None, None),
    ("repro.metastore.store", "MetadataStore", "put", "metastore.put", "metastore", None, None),
    ("repro.metastore.store", "MetadataStore", "multi_put", "metastore.multi_put", "metastore", None, None),
    ("repro.core.coordinator", "QueryCoordinator", "execute", "coordinator.execute", "coordinator", None, None),
    ("repro.core.coordinator", "QueryCoordinator", "decompose", "coordinator.decompose", "coordinator", _decompose_attrs, _query_request),
    ("repro.core.query_server", "QueryServer", "execute", "query_server.execute", "query_server", _subquery_attrs, _query_request),
    ("repro.core.query_server", "QueryServer", "prefetch_prefixes", "query_server.prefetch_prefixes", "query_server", None, None),
    ("repro.storage.chunk", "ChunkReader", "__init__", "chunk.prefix_parse", "chunk", None, None),
    ("repro.storage.chunk", "ChunkReader", "read_leaf", "chunk.read_leaf", "chunk", _len_out, None),
    ("repro.storage.chunk", "ChunkReader", "sketch_for", "chunk.sketch_for", "bloom", None, None),
    ("repro.rpc.endpoint", "Endpoint", "call", "rpc.call", "rpc", None, None),
    ("repro.rpc.endpoint", "Endpoint", "submit", "rpc.submit", "rpc", None, None),
    ("repro.rpc.endpoint", "Endpoint", "note_retry", "rpc.note_retry", "rpc", None, None),
    ("repro.rpc.endpoint", "Endpoint", "note_timeout", "rpc.note_timeout", "rpc", None, None),
    ("repro.supervision.supervisor", "Supervisor", "poll", "supervision.poll", "supervision", None, None),
    # The benchmark's own per-operation steps on the main thread, so the
    # ledger can tell its bookkeeping and oracle apart from time no span
    # covers.
    ("perfbench.workloads", "Workload", "_insert", "harness.insert", "harness", None, None),
    ("perfbench.workloads", "Workload", "_query", "harness.query", "harness", None, None),
    ("perfbench.workloads", "Workload", "_recover", "harness.recover", "harness", None, None),
    ("perfbench.workloads", "Workload", "_content_check", "harness.content_check", "harness", None, None),
    ("perfbench.oracle", "Oracle", "acknowledge", "harness.acknowledge", "harness", None, None),
    ("perfbench.oracle", "Oracle", "check", "harness.check", "harness", None, None),
]


def _wrap(tracer: Tracer, fn, name, layer, attrs_fn, request_fn):
    opener, closer = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = opener(name, layer, request_fn(args) if request_fn else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            closer(rec)
        if attrs_fn is not None:
            rec["attrs"] = attrs_fn(args, out)
        return out

    return traced


def install(tracer: Tracer, hooks: Iterable = HOOKS) -> Callable[[], None]:
    """Wrap every hook; returns a function restoring the originals.

    Install before building the deployment: endpoints cache the bound
    methods they resolve on first use.
    """
    undo = []
    for module, owner, attr, name, layer, attrs_fn, request_fn in hooks:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = target.__dict__[attr]
        setattr(target, attr, _wrap(tracer, original, name, layer, attrs_fn, request_fn))
        undo.append((target, attr, original))

    def restore() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


# --- analysis ----------------------------------------------------------------

def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> its duration minus the part its child spans cover.

    Children nest inside their parent on one thread and do not overlap
    each other, so the covered part is the sum of their durations.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}


def thread_ledger(spans: List[dict], phases: List[dict]) -> Dict[str, dict]:
    """Per thread: busy time (its root spans) and the remainder of the
    timed phase's wall time not inside any span on that thread."""
    wall = sum(p["end"] - p["start"] for p in phases)
    busy: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    for s in spans:
        count[s["thread"]] += 1
        if s["parent"] is None:
            busy[s["thread"]] += s["end"] - s["start"]
    return {
        thread: {
            "spans": count[thread],
            "busy_s": busy[thread],
            "remainder_s": wall - busy[thread],
        }
        for thread in sorted(count)
    }


def round_ledger(records: List[dict], round_no: int, main_thread: str) -> dict:
    """Per-layer numbers of one traced round's ``run`` phase.

    Returns ``{"wall_s", "spans", "by_name", "by_layer", "gauges",
    "self_sum_s", "unattributed_s", "detect_s", "threads"}``:
    ``by_name[name]`` holds ``calls``, ``busy_s``, ``self_s`` and summed
    ``attrs``; ``by_layer`` holds summed self time per layer on the
    main thread, and ``unattributed_s`` is the run phase's wall time
    that no main-thread span covers.
    """
    spans = [
        r for r in records
        if r["kind"] == "span" and r["round"] == round_no and r["phase"] == "run"
    ]
    phases = [
        r for r in records
        if r["kind"] == "phase" and r["round"] == round_no and r["name"] == "run"
    ]
    gauges = {
        r["name"]: r["value"]
        for r in records if r["kind"] == "gauge" and r["round"] == round_no
    }
    selfs = self_times(spans)
    by_name: Dict[str, dict] = {}
    by_layer: Dict[str, float] = defaultdict(float)
    for s in spans:
        entry = by_name.setdefault(
            s["name"],
            {"layer": s["layer"], "calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)},
        )
        entry["calls"] += 1
        entry["busy_s"] += s["end"] - s["start"]
        entry["self_s"] += selfs[s["id"]]
        for k, v in (s.get("attrs") or {}).items():
            entry["attrs"][k] += v
        if s["thread"] == main_thread:
            by_layer[s["layer"]] += selfs[s["id"]]
    wall = sum(p["end"] - p["start"] for p in phases)
    # Detection: from the kill returning to the replay starting.
    detect = 0.0
    kills = [s["end"] for s in spans if s["name"] == "system.kill_indexing_server"]
    if kills:
        replays = [
            s["start"] for s in spans
            if s["name"] == "indexing.recover" and s["start"] >= kills[0]
        ]
        if replays:
            detect = min(replays) - kills[0]
    self_sum = sum(by_layer.values())
    return {
        "wall_s": wall,
        "spans": len(spans),
        "by_name": by_name,
        "by_layer": dict(by_layer),
        "self_sum_s": self_sum,
        "unattributed_s": wall - self_sum,
        "detect_s": detect,
        "gauges": gauges,
        "threads": thread_ledger(spans, phases),
    }
