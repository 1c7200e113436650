"""Spans around each layer's public entry points, from outside ``src/``.

:func:`install` wraps methods of the ``repro`` classes in place (and
:meth:`Tracer.uninstall` puts the originals back); nothing in the
package changes. Every wrapped call is a span: name, start, end, the
span that caused it and the request it belongs to. Hot, fine-grained
spans (a routing query, one move proposal) are folded into per-name
aggregates as they close; the coarse ones -- requests, algorithm runs,
searches, compiles, fleet events, checkpoints -- are also kept whole in
memory and written out by :meth:`Tracer.write_spans` at the end.

Self time is a span's duration minus the part its child spans cover.
The process is single-threaded, so the direct children of a span never
overlap and that part is simply the sum of their durations.

Router work counters (hits, misses, Dijkstra runs, pairs invalidated and
recomputed) are banked as the change each outermost recorded router call
makes to its router's counters: routers built before recording began
count, counters a fleet copies onto a replacement router do not, and
cache clears that zero them lose nothing.

A checkpoint restore replays the whole history through a fresh
controller. It is one opaque span: nothing inside it is recorded, so the
service, routing and compile figures describe the live events only.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: Cap on spans kept whole; aggregates are always complete.
MAX_KEPT_SPANS = 200_000


class _Aggregate:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] | None = [] if keep_durations else None


class Tracer:
    """Collects spans and counts for one traced phase."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child_s, span_id]
        self.aggregates: dict[str, _Aggregate] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.counts: dict[str, float] = {}
        self.request_id: int | None = None
        #: Spans are recorded only while enabled: the benchmark turns
        #: tracing on around the calls it times and off around its own
        #: input generation and output checks.
        self.enabled = False
        #: Fleet controllers of the traced replays (for their counters).
        self.controllers: list = []
        self._patched: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _aggregate(self, name: str, keep: bool) -> _Aggregate:
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = _Aggregate(keep)
        return agg

    def call(self, name, keep, fn, args, kwargs, opaque=False):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*.

        *opaque*: record nothing inside the span.
        """
        stack = self._stack
        if not self.enabled or (stack and stack[-1][0] == name):
            # re-entry into the same entry point: one span, outermost
            return fn(*args, **kwargs)
        span_id = None
        if keep:
            if len(self.spans) < MAX_KEPT_SPANS:
                span_id = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped_spans += 1
        frame = [name, time.perf_counter(), 0.0, span_id]
        stack.append(frame)
        self.enabled = not opaque
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.enabled = True
            stack.pop()
            duration = end - frame[1]
            agg = self._aggregate(name, keep)
            agg.calls += 1
            agg.total_s += duration
            agg.self_s += duration - frame[2]
            if agg.durations is not None:
                agg.durations.append(duration)
            if stack:
                stack[-1][2] += duration
            if span_id is not None:
                parent = next(
                    (f[3] for f in reversed(stack) if f[3] is not None), None
                )
                self.spans[span_id] = (
                    name, frame[1], end, parent, self.request_id
                )

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as JSON lines; return how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with path.open("w") as handle:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request = span
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
                written += 1
        return written

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(self, owner: type, attr: str, name, keep: bool = False,
             after=None, opaque: bool = False) -> None:
        """Wrap ``owner.attr`` in a span.

        *name* is a string or a callable ``(args) -> str`` (the span name
        may depend on the instance). *after* ``(result, args)`` runs
        after the call to record counts. *opaque* as in :meth:`call`.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = name if isinstance(name, str) else name(args)
            result = tracer.call(span, keep, original, args, kwargs, opaque)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


#: Router fields banked as ``routing.<field>`` counts.
ROUTER_COUNTERS = (
    "hits", "misses", "dijkstra_runs", "pairs_invalidated", "pairs_recomputed",
)


def _count_router_work(tracer: Tracer, router_class: type, methods) -> None:
    """Bank the change each outermost recorded call of *methods* makes
    to its router's counters (the public router methods are the only
    code that moves them)."""
    depth = [0]

    def counting(original):
        def wrapper(router, *args, **kwargs):
            if not tracer.enabled or depth[0]:
                return original(router, *args, **kwargs)
            before = [getattr(router, field) for field in ROUTER_COUNTERS]
            depth[0] += 1
            try:
                return original(router, *args, **kwargs)
            finally:
                depth[0] -= 1
                for field, old in zip(ROUTER_COUNTERS, before):
                    tracer.count(
                        f"routing.{field}", getattr(router, field) - old
                    )

        wrapper.__wrapped__ = original
        return wrapper

    for attr in methods:
        original = router_class.__dict__[attr]
        setattr(router_class, attr, counting(original))
        tracer._patched.append((router_class, attr, original))


def install(tracer: Tracer) -> None:
    """Wrap every measured layer's entry points (see spec.MOVES)."""
    from repro.algorithms.base import DeploymentAlgorithm
    from repro.algorithms.runtime import SearchRuntime
    from repro.core.batch import BatchEvaluator
    from repro.core.compiled import CompiledInstance
    from repro.core.cost import CostModel
    from repro.core.incremental import MoveEvaluator
    from repro.network.routing import Router
    from repro.service import checkpoint as checkpoint_module
    from repro.service.controller import FleetController

    for query in ("transmission_time", "transmission_times",
                  "pair_coefficients", "path"):
        tracer.wrap(Router, query, "routing.query")
    tracer.wrap(Router, "compile_all_pairs", "routing.compile_all_pairs",
                keep=True)
    tracer.wrap(Router, "invalidate", "routing.invalidate", keep=True)
    _count_router_work(tracer, Router, (
        "transmission_time", "transmission_times", "pair_coefficients",
        "path", "compile_all_pairs", "invalidate",
    ))

    tracer.wrap(CompiledInstance, "__init__", "compiled.build", keep=True)

    tracer.wrap(CostModel, "evaluate", "cost.evaluate")
    tracer.wrap(CostModel, "objective", "cost.evaluate")

    tracer.wrap(MoveEvaluator, "propose", "incremental.propose")
    tracer.wrap(MoveEvaluator, "propose_value", "incremental.propose")
    tracer.wrap(MoveEvaluator, "commit", "incremental.commit")
    tracer.wrap(MoveEvaluator, "resync", "incremental.resync")

    def scored(result, _args):
        tracer.count("batch.rows_scored", len(result))

    tracer.wrap(BatchEvaluator, "__init__", "batch.init", keep=True)
    tracer.wrap(BatchEvaluator, "evaluate", "batch.evaluate", after=scored)

    def searched(result, _args):
        report = result.report
        tracer.count("runtime.steps", report.steps)
        tracer.count("runtime.evaluations", report.evaluations)
        tracer.count("runtime.accepted", report.accepted)

    tracer.wrap(SearchRuntime, "run", "runtime.run", keep=True,
                after=searched)

    tracer.wrap(
        DeploymentAlgorithm, "deploy_with_report",
        lambda args: f"algorithms.{args[0].name}", keep=True,
    )

    tracer.wrap(
        FleetController, "handle", lambda args: f"service.{args[1].kind}",
        keep=True,
    )

    def restored(result, _args):
        controller, _pending = result
        tracer.count("checkpoint.restore_events", len(controller.history))

    def written(result, _args):
        tracer.count("checkpoint.bytes", Path(result).stat().st_size)

    tracer.wrap(checkpoint_module, "write_checkpoint", "checkpoint.write",
                keep=True, after=written)
    tracer.wrap(checkpoint_module, "restore_controller", "checkpoint.restore",
                keep=True, after=restored, opaque=True)
