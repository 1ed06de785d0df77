"""Span wrappers around each layer's public entry points, for the traced run.

Nothing under ``src/`` changes: :func:`install` replaces the names a layer's
*caller* imported (``repro.service.session.rewrite`` is the rewriting layer
as the service layer sees it) with a wrapper that records one span.  Spans
live in memory — name, start, end, parent span, operation id — and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.

The wrappers are installed only in the traced run; the end-to-end figures
come from an untraced run, and the difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional

import common

Span = List[Any]  # [name, start, end, parent index, operation id]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Counts taken at the same boundaries as the spans.
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def set_op(self, op: Any) -> None:
        """Tag every span this thread opens from now on with ``op``."""
        self._local.op = op

    def wrap(
        self,
        name: str,
        fn: Callable,
        op_arg: Optional[int] = None,
        on_result: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            previous = getattr(local, "op", None)
            if op_arg is not None:
                local.op = args[op_arg]
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, getattr(local, "op", None)]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if op_arg is not None:
                    local.op = previous
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        # A class's own attribute, not one it inherits: restoring must not
        # shadow the base class's definition.
        if isinstance(owner, type):
            original = owner.__dict__.get(attribute)
        else:
            original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        setattr(owner, attribute, self.wrap(name, original, **options))
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write the spans out (one JSON document; names interned)."""
        names: Dict[str, int] = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, op])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"names": list(names), "spans": rows}, handle)


# -- boundary counts -------------------------------------------------------------

def _count_candidates(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["rewriting.candidates"] += getattr(result, "candidates_examined", 0)


def _count_maintenance(tracer: Tracer, args: tuple, log: Any) -> None:
    submitted = args[1].size()
    tracer.counts["materialize.deltas"] += 1
    tracer.counts["materialize.submitted"] += submitted
    tracer.counts["materialize.effective"] += log.delta.size()
    for change in log.view_changes:
        tracer.counts[f"materialize.strategy.{change.strategy}"] += 1


def _count_wal_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["storage.wal_records"] += 1
    tracer.counts["storage.wal_bytes"] += len(args[1].encode("utf-8"))


def _count_snapshot_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["storage.snapshots"] += 1
    tracer.counts["storage.snapshot_bytes_last"] = result[1]


def install(tracer: Tracer, server: bool = False) -> None:
    """Wrap each layer's entry points as its caller imported them."""
    import repro
    from repro.api import engine as api_engine
    from repro.materialize.store import MaterializedViewStore
    from repro.rewriting import contained, minicon, verify
    from repro.service import session as service_session
    from repro.storage import manager as storage_manager
    from repro.storage.wal import WriteAheadLog

    patch = tracer.patch
    patch(repro, "connect", "api.connect")
    patch(api_engine.Engine, "query", "api.query")
    patch(api_engine.PreparedQuery, "answers", "api.answers")
    patch(api_engine.Engine, "apply", "api.apply")
    patch(api_engine.Engine, "checkpoint", "storage.checkpoint")
    patch(api_engine, "parse_query", "datalog.parse_query")
    patch(api_engine, "parse_delta", "datalog.parse_delta")
    session_cls = service_session.RewritingSession
    patch(session_cls, "answer_with_plan", "service.answer")
    patch(session_cls, "_rewrite_with_fp", "service.rewrite_lookup")
    patch(session_cls, "apply_delta", "service.apply_delta")
    patch(service_session, "fingerprint", "service.fingerprint")
    patch(service_session, "rewrite", "rewriting.rewrite", on_result=_count_candidates)
    patch(service_session, "evaluate", "exec.evaluate")
    for module in (service_session, minicon, verify, contained):
        patch(module, "is_contained", "containment.search")
    patch(verify, "is_equivalent", "containment.search")
    patch(
        MaterializedViewStore, "apply_delta", "materialize.apply_delta",
        on_result=_count_maintenance,
    )
    patch(WriteAheadLog, "append", "storage.wal_append", on_result=_count_wal_bytes)
    patch(WriteAheadLog, "replay", "storage.wal_read")
    patch(os, "fsync", "storage.fsync")
    patch(
        storage_manager, "write_snapshot", "storage.snapshot_write",
        on_result=_count_snapshot_bytes,
    )
    patch(storage_manager, "read_snapshot", "storage.snapshot_read")
    if server:
        from repro.server.http import ReproServer

        patch(ReproServer, "_handle", "server.request")
        # The worker-pool side of a request; its trace id (the last
        # argument) becomes the operation id of every span below it.
        patch(ReproServer, "_work_query", "server.work", op_arg=2)
        patch(ReproServer, "_work_apply_delta", "server.work", op_arg=2)


def engine_counters(engine: Any) -> Dict[str, float]:
    """Program-side counters the boundary wrappers cannot see."""
    from repro.containment.memo import containment_memo_stats

    memo = containment_memo_stats()
    executor = engine.session.evaluation_executor.stats()
    return {
        "memo.hits": float(memo["hits"]),
        "memo.misses": float(memo["misses"]),
        "memo.guard_rejections": float(memo["guard_rejections"]),
        "exec.plan_hits": float(executor.get("plan_hits", 0)),
        "exec.plan_misses": float(executor.get("plan_misses", 0)),
        "exec.fallbacks": float(executor.get("fallbacks", 0)),
        "session.delta_evictions": float(engine.session.delta_evictions),
        "session.deltas_applied": float(engine.session.deltas_applied),
    }


def engine_registry(engine: Any) -> Dict[str, float]:
    """The figures ``GET /metrics`` shows, read from the engine's registry."""
    return common.registry_figures(common.parse_prometheus(engine.metrics()))


# -- analysis --------------------------------------------------------------------

class SpanTable:
    """Self times and parent/child structure over a list of spans."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.child_names: List[Optional[set]] = [None] * len(spans)
        self.by_name: Dict[str, List[int]] = {}
        for index, (name, start, end, parent, _op) in enumerate(spans):
            self.by_name.setdefault(name, []).append(index)
            if parent >= 0:
                self.child_time[parent] += end - start
                names = self.child_names[parent]
                if names is None:
                    names = self.child_names[parent] = set()
                names.add(name)

    def select(self, name: str, parent: Optional[Iterable[str]] = None) -> List[int]:
        """Indices of the spans called ``name`` (under a ``parent``-named span)."""
        indices = self.by_name.get(name, [])
        if parent is None:
            return list(indices)
        parents = set(parent)
        spans = self.spans
        return [i for i in indices if spans[i][3] >= 0 and spans[spans[i][3]][0] in parents]

    def self_seconds(self, indices: Iterable[int]) -> float:
        return sum(
            self.spans[i][2] - self.spans[i][1] - self.child_time[i] for i in indices
        )

    def total_seconds(self, indices: Iterable[int]) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices)

    def has_child(self, index: int, name: str) -> bool:
        names = self.child_names[index]
        return names is not None and name in names


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_layer_metrics(
    table: SpanTable, counts: Counter, ops: int, program: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer figures for one phase of ``ops`` operations.

    ``*.self_ms`` are milliseconds of the layer's self time per operation, so
    the layers of one workload add up to its mean operation time.  Counts
    that grow with run length are per thousand operations.  ``program``
    holds counter deltas read from the engine itself (memo, executor,
    session), for the figures no boundary wrapper can see.
    """
    def per_op(seconds: float) -> float:
        return _ratio(seconds * 1e3, ops)

    def per_kop(count: float) -> float:
        return _ratio(count * 1e3, ops)

    def self_ms(name: str) -> float:
        return per_op(table.self_seconds(table.select(name)))

    lookups = table.select("service.rewrite_lookup")
    hits = [i for i in lookups if not table.has_child(i, "rewriting.rewrite")]
    answers = table.select("service.answer")
    answer_hits = [i for i in answers if not table.has_child(i, "exec.evaluate")]
    colds = table.select("rewriting.rewrite")
    searches = table.select("containment.search")
    deltas = counts["materialize.deltas"]
    maintained = counts["materialize.strategy.incremental"]
    recomputed = counts["materialize.strategy.recompute"]
    api = [i for name in ("api.query", "api.answers", "api.apply") for i in table.select(name)]
    checkpoint_spans = table.select("storage.checkpoint") + table.select("storage.snapshot_write")
    checkpoint_fsyncs = table.select("storage.fsync", parent=("storage.snapshot_write",))
    append_spans = table.select("storage.wal_append")
    memo_lookups = program.get("memo.hits", 0.0) + program.get("memo.misses", 0.0)
    plans = program.get("exec.plan_hits", 0.0) + program.get("exec.plan_misses", 0.0)
    return {
        "datalog.parse_query.self_ms": self_ms("datalog.parse_query"),
        "datalog.parse_delta.self_ms": self_ms("datalog.parse_delta"),
        "service.fingerprint.self_ms": self_ms("service.fingerprint"),
        "service.rewrite_hit.self_ms": per_op(table.self_seconds(hits)),
        # The rest of the service layer: answer-cache lookups and the
        # bookkeeping around cold rewrites.
        "service.answer.self_ms": per_op(
            table.self_seconds(answers) + table.self_seconds(set(lookups) - set(hits))
        ),
        "service.rewrite_cache.hit_ratio": _ratio(len(hits), len(lookups)),
        "service.answer_cache.hit_ratio": _ratio(len(answer_hits), len(answers)),
        "service.answer_cache.evictions_per_delta": _ratio(
            program.get("session.delta_evictions", 0.0),
            program.get("session.deltas_applied", 0.0),
        ),
        "rewriting.rewrite_cold.self_ms": per_op(table.self_seconds(colds)),
        "rewriting.candidates_per_cold": _ratio(counts["rewriting.candidates"], len(colds)),
        "containment.search.self_ms": per_op(table.self_seconds(searches)),
        "containment.searches_per_cold": _ratio(len(searches), len(colds)),
        "containment.memo.hit_ratio": _ratio(program.get("memo.hits", 0.0), memo_lookups),
        "containment.guard_rejections": per_kop(program.get("memo.guard_rejections", 0.0)),
        "exec.execute.self_ms": self_ms("exec.evaluate"),
        "exec.plan_cache.hit_ratio": _ratio(program.get("exec.plan_hits", 0.0), plans),
        "exec.compiles": per_kop(program.get("exec.plan_misses", 0.0)),
        "exec.fallbacks": per_kop(program.get("exec.fallbacks", 0.0)),
        "materialize.apply.self_ms": self_ms("materialize.apply_delta"),
        "materialize.views_maintained_per_delta": _ratio(maintained, deltas),
        "materialize.views_recomputed": per_kop(recomputed),
        "materialize.effective_change_ratio": _ratio(
            counts["materialize.effective"], counts["materialize.submitted"]
        ),
        "storage.wal_append.self_ms": per_op(table.self_seconds(append_spans)),
        "storage.wal_bytes_per_delta": _ratio(
            counts["storage.wal_bytes"], counts["storage.wal_records"]
        ),
        "storage.fsyncs": per_kop(len(table.select("storage.fsync"))),
        "storage.snapshot_write.self_ms": per_op(
            table.self_seconds(checkpoint_spans) + table.self_seconds(checkpoint_fsyncs)
        ),
        "storage.snapshot_bytes": float(counts["storage.snapshot_bytes_last"]),
        "api.self_ms": per_op(table.self_seconds(api)),
    }


#: Figures only a recovery (``churn-durable``) or the server (``http-serve``)
#: produces; other workloads report them as 0.
RECOVERY_METRICS = (
    "storage.snapshot_read.self_ms",
    "storage.wal_read.self_ms",
    "storage.tail_records",
    "storage.replay_apply.self_ms",
    "datalog.parse_delta.recovery_ms",
    "api.connect.recovery_ms",
)
SERVER_METRICS = (
    "server.request.ms",
    "server.engine.ms",
    "server.wait.ms",
    "server.client_overhead.ms",
    "server.coalesced",
    "server.rejected",
)


def recovery_layer_metrics(table: SpanTable, counts: Counter) -> Dict[str, float]:
    """Figures of one recovery (milliseconds per recovery)."""

    def self_ms(name: str) -> float:
        return table.self_seconds(table.select(name)) * 1e3

    connects = table.select("api.connect")
    replay_applies = table.select("service.apply_delta", parent=("api.connect",))
    return {
        "storage.snapshot_read.self_ms": self_ms("storage.snapshot_read"),
        "storage.wal_read.self_ms": self_ms("storage.wal_read"),
        "storage.tail_records": float(len(replay_applies)),
        # Inclusive: the maintenance a replayed record triggers is part of
        # what replay costs.
        "storage.replay_apply.self_ms": table.total_seconds(replay_applies) * 1e3,
        "datalog.parse_delta.recovery_ms": table.self_seconds(
            table.select("datalog.parse_delta", parent=("api.connect",))
        ) * 1e3,
        "api.connect.recovery_ms": table.total_seconds(connects) * 1e3,
    }


def cross_check(
    table: SpanTable, registry: Dict[str, float]
) -> Dict[str, Dict[str, float]]:
    """Traced figures against the engine's own ``repro_stage_seconds`` and
    ``repro_cache_events_total`` series over the same phase."""
    lookups = table.select("service.rewrite_lookup")
    hits = sum(1 for i in lookups if not table.has_child(i, "rewriting.rewrite"))
    answers = table.select("service.answer")
    answer_hits = sum(1 for i in answers if not table.has_child(i, "exec.evaluate"))
    evaluates = table.select("exec.evaluate", parent=("service.answer",))
    colds = table.select("rewriting.rewrite")
    pairs = {
        "rewrite_cold.count": (len(colds), registry.get("stage.rewrite_cold.count", 0.0)),
        "rewrite_cold.seconds": (
            table.total_seconds(colds), registry.get("stage.rewrite_cold.sum", 0.0)
        ),
        "execute.count": (len(evaluates), registry.get("stage.execute.count", 0.0)),
        "execute.seconds": (table.total_seconds(evaluates), registry.get("stage.execute.sum", 0.0)),
        "delta_apply.count": (
            len(table.select("materialize.apply_delta")),
            registry.get("stage.delta_apply.count", 0.0),
        ),
        "rewrite_cache.hits": (hits, registry.get("cache.rewrite.hit", 0.0)),
        "answer_cache.hits": (answer_hits, registry.get("cache.answer.hit", 0.0)),
    }
    out = {}
    for key, (traced, recorded) in pairs.items():
        out[key] = {
            "traced": traced,
            "registry": recorded,
            # Relative to the registry; 1.0 when only the trace saw any.
            "disagreement": _ratio(traced - recorded, recorded) if recorded else float(bool(traced)),
        }
    return out
