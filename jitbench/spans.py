"""Span tracing from outside the program: shims around public functions.

A :class:`Tracer` records one span per call of a shimmed function:
name, start, end, the span that was open on the same thread when it
started (its parent), the process it ran in, and an optional work count
(rows scored, rows written, cells claimed).  Spans stay in memory; the
benchmark summarises them when its traced pass ends.  Inside
:meth:`Tracer.suspended` the calling thread records nothing, so the
benchmark's own work (input generation, expected renders) stays out of
the layer figures while the server thread keeps recording.

Worker processes of the refresh pool are forked from the traced
process, so they inherit the shims.  Each worker starts with an empty
span list whose root parent is the pool span that forked it, and writes
its spans to a file before it exits; the pool shim reads them back when
the pool returns.  ``time.perf_counter`` is the system-wide monotonic
clock on Linux, so worker spans share the parent's time axis.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path

from repro.core import orchestrator, worker
from repro.serve import pool

#: (owner, attribute, span name, how the work count is taken)
#: owner is "module:Class" or "module"; counts: None, "arg1_rows" (rows of
#: the first positional argument after self), "result" (an int result),
#: "result_len" (length of the result)
SHIMS = (
    ("repro.temporal.forecast:ModelsGenerator", "generate", "temporal.fit", None),
    ("repro.temporal.forecast", "model_fingerprint", "temporal.fingerprint", None),
    ("repro.ml.forest:RandomForestClassifier", "predict_proba", "ml.forest.predict",
     "arg1_rows"),
    ("repro.constraints.evaluate:ConstraintsFunction", "violation_counts_batch",
     "constraints.check", "arg1_rows"),
    ("repro.core.candidates:CandidateGenerator", "generate", "core.search", None),
    ("repro.core.system:JustInTime", "create_sessions", "core.system.create_sessions",
     None),
    ("repro.db.store:CandidateStore", "store_sessions", "db.store.store_sessions", None),
    ("repro.core.insights:InsightEngine", "ask", "core.insights.ask", None),
    ("repro.db.store:CandidateStore", "upsert_cells", "db.store.upsert", "result"),
    ("repro.db.store:CandidateStore", "ledger_snapshot", "db.store.ledger_snapshot",
     None),
    ("repro.db.store:CandidateStore", "claim_stale_cells", "db.store.claim",
     "result_len"),
    ("repro.db.store:CandidateStore", "renew_leases", "db.store.renew", None),
    ("repro.db.store:CandidateStore", "contents_digest", "db.store.digest", None),
    ("repro.db.store:CandidateStore", "record_accesses", "db.store.record_accesses",
     "result"),
    ("repro.core.orchestrator", "save_system", "core.persistence.save", None),
    ("repro.core.worker", "load_system", "core.persistence.load", None),
    ("repro.core.worker", "drain_stale_cells", "core.worker.drain", None),
    ("repro.data.feed:CsvFeed", "poll", "data.feed.poll", None),
    ("repro.core.scheduler:DriftGate", "assess", "core.scheduler.gate", None),
    ("repro.serve.server", "bundle_payload", "serve.protocol.serialize", None),
    ("repro.serve.server", "insight_payload", "serve.protocol.serialize", None),
    ("repro.serve.server", "dumps", "serve.protocol.serialize", None),
)


class Tracer:
    """In-memory span recorder (thread-safe appends, per-thread stacks)."""

    def __init__(self, spill_dir: Path):
        self.spans: list[tuple] = []
        self.spill_dir = Path(spill_dir)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._undo: list = []
        self._pool_span: str | None = None

    # ------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def suspended(self):
        """Record no spans on this thread inside the block."""
        before = getattr(self._local, "off", False)
        self._local.off = True
        try:
            yield
        finally:
            self._local.off = before

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [f"{self._pid}:{next(self._ids)}", stack[-1] if stack else None,
                name, self._pid, time.perf_counter(), None, None]
        stack.append(span[0])
        return span

    def end(self, span: list, count=None) -> None:
        span[5] = time.perf_counter()
        span[6] = count
        stack = self._stack()
        if stack and stack[-1] == span[0]:
            stack.pop()
        self.spans.append(tuple(span))

    # ------------------------------------------------------------- shims

    def _wrap(self, fn, name: str, count_mode):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if getattr(tracer._local, "off", False):
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count = None
                if count_mode == "arg1_rows" and len(args) > 1:
                    count = int(getattr(args[1], "shape", (len(args[1]),))[0])
                elif count_mode == "result" and result is not None:
                    count = int(result)
                elif count_mode == "result_len" and result is not None:
                    count = len(result)
                tracer.end(span, count)

        return shim

    def install(self) -> None:
        """Patch every shim target plus the worker-pool hooks."""
        for owner, attr, name, count_mode in SHIMS:
            module_name, _, cls = owner.partition(":")
            target = importlib.import_module(module_name)
            if cls:
                target = getattr(target, cls)
            original = getattr(target, attr)
            self._patch(target, attr, original, self._wrap(original, name, count_mode))
        self._patch(pool.ReplicaPool, "view", pool.ReplicaPool.view,
                    self._wrap_view(pool.ReplicaPool.view))
        self._patch(orchestrator, "run_worker_pool", orchestrator.run_worker_pool,
                    self._wrap_pool(orchestrator.run_worker_pool))
        self._patch(worker, "worker_main", worker.worker_main,
                    self._wrap_worker(worker.worker_main))

    def _patch(self, target, attr, original, replacement) -> None:
        setattr(target, attr, replacement)
        self._undo.append((target, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _wrap_view(self, view):
        """``ReplicaPool.view`` is a context manager: the span covers the
        whole checkout, so renders inside it are its children."""
        tracer = self

        class _Timed:
            def __init__(self, cm):
                self._cm = cm

            def __enter__(self):
                self._span = tracer.begin("serve.pool.view")
                return self._cm.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._cm.__exit__(*exc)
                finally:
                    tracer.end(self._span)

        @functools.wraps(view)
        def shim(*args, **kwargs):
            return _Timed(view(*args, **kwargs))

        return shim

    def _wrap_pool(self, run_pool):
        tracer = self

        @functools.wraps(run_pool)
        def shim(*args, **kwargs):
            span = tracer.begin("core.worker.pool")
            tracer._pool_span = span[0]
            try:
                return run_pool(*args, **kwargs)
            finally:
                tracer.end(span)
                tracer.collect_workers()

        return shim

    def _wrap_worker(self, worker_main):
        tracer = self

        @functools.wraps(worker_main)
        def shim(*args, **kwargs):
            # forked child: everything this worker records hangs under the
            # pool span that forked it
            tracer.spans = []
            tracer._pid = os.getpid()
            tracer._local.stack = [tracer._pool_span]
            try:
                return worker_main(*args, **kwargs)
            finally:
                tracer.spill()

        return shim

    # ------------------------------------------------- worker span files

    def spill(self) -> None:
        """Write this process's spans to the spill directory."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)

    def collect_workers(self) -> None:
        if not self.spill_dir.exists():
            return
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            self.spans.extend(tuple(span) for span in json.loads(path.read_text()))
            path.unlink()


# ------------------------------------------------------------- summaries


def union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarise(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``count`` (summed work counts),
    ``zero_counts`` (calls whose count was 0), ``wall_s`` (summed
    durations) and ``self_s`` (durations minus the union of child
    spans)."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span_id, parent, _name, _pid, start, end, _count in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for span_id, _parent, name, _pid, start, end, count in spans:
        entry = out.setdefault(
            name,
            {"calls": 0, "count": 0, "zero_counts": 0, "wall_s": 0.0, "self_s": 0.0},
        )
        kids = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span_id, ())
            if hi > start and lo < end
        ]
        entry["calls"] += 1
        entry["wall_s"] += end - start
        entry["self_s"] += (end - start) - union(kids)
        if count is not None:
            entry["count"] += count
            entry["zero_counts"] += count == 0
    return out
