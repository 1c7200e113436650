"""One search budget, shared by every worker of a parallel run.

The serial runtime enforces a :class:`~repro.algorithms.runtime.
SearchBudget` inside a single process. A parallel run must keep the
*global* semantics -- "at most N objective evaluations in total, stop
everyone at the deadline, stop everyone once a target value is reached"
-- while each worker still drives its own local
:class:`~repro.algorithms.runtime.SearchRuntime`. Two cooperating
pieces provide that:

:func:`~repro.algorithms.runtime.slice_budget` (re-exported here)
    Deterministic pre-partitioning of the countable limits. Worker *i*
    of *n* receives ``max_evals // n`` evaluations (the remainder goes
    to the lowest indices), and likewise for ``max_steps``; deadlines
    pass through unchanged. Because the slices are a pure function of
    ``(budget, workers, index)``, eval- and step-capped runs stay
    reproducible -- no worker's share depends on scheduling.
:class:`BudgetLedger`
    The shared accounting channel. Workers flush their evaluation
    deltas into it in batches (:class:`WorkerBridge`), the parent and
    any worker can request a cooperative stop (deadline fired, target
    value reached, external cancellation), and everyone polls
    :attr:`~BudgetLedger.stop_requested` between steps. Two
    implementations share the interface: :class:`InlineLedger` (plain
    attributes, for in-process execution and deterministic tests) and
    :class:`SharedLedger` (``multiprocessing.Manager`` proxies, for
    real worker processes; proxies are picklable under every start
    method).

Accounting granularity: a worker flushes after at most ``flush_every``
locally accumulated evaluations, and its local runtime stops within one
step of its slice. The global evaluation count therefore never
overshoots ``max_evals`` by more than one batch per worker -- the bound
the budget tests pin.
"""

from __future__ import annotations

from typing import Callable

from repro.algorithms.runtime import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_MAX_EVALS,
    CancelToken,
    SearchBudget,
    SearchProgress,
    slice_budget,
)

__all__ = [
    "STOP_TARGET",
    "slice_budget",
    "BudgetLedger",
    "InlineLedger",
    "SharedLedger",
    "WorkerBridge",
    "DEFAULT_FLUSH_EVERY",
]

#: Stop reason recorded when a worker reaches the caller's target value.
STOP_TARGET = "target"

#: Default evaluation-batch size between ledger flushes. Large enough
#: that cheap one-eval steps (simulated annealing) do not pay one IPC
#: round-trip per step, small enough that cancellation propagates
#: quickly relative to any realistic budget.
DEFAULT_FLUSH_EVERY = 256


class BudgetLedger:
    """Interface of the shared accounting channel (see module docs).

    ``record`` adds a worker's evaluation delta and trips the
    evaluation cap; ``request_stop`` records the first stop reason and
    makes :attr:`stop_requested` true for everyone. Implementations are
    sticky like :class:`~repro.algorithms.runtime.CancelToken`: create
    a fresh ledger per parallel run.
    """

    def record(self, evals: int) -> None:
        """Add a worker's evaluation delta; trips the global eval cap."""
        raise NotImplementedError

    @property
    def evaluations(self) -> int:
        """Total evaluations recorded across all workers."""
        raise NotImplementedError

    def request_stop(self, reason: str) -> None:
        """Record the first stop *reason*; later requests are ignored."""
        raise NotImplementedError

    @property
    def stop_requested(self) -> bool:
        """True once any stop reason was recorded."""
        raise NotImplementedError

    @property
    def stop_reason(self) -> str:
        """The first recorded stop reason (empty while running)."""
        raise NotImplementedError


class InlineLedger(BudgetLedger):
    """Single-process ledger: plain attributes, no synchronisation.

    Used by the inline execution mode (tasks run sequentially in the
    parent) and by the budget tests, where it makes accounting a pure
    function of the recorded deltas.
    """

    def __init__(self, max_evals: int | None = None):
        self.max_evals = max_evals
        self._evals = 0
        self._reason = ""

    def record(self, evals: int) -> None:
        """Add a worker's evaluation delta; trips the global eval cap."""
        if evals <= 0:
            return
        self._evals += evals
        if (
            self.max_evals is not None
            and self._evals >= self.max_evals
            and not self._reason
        ):
            self._reason = STOP_MAX_EVALS

    @property
    def evaluations(self) -> int:
        """Total evaluations recorded across all workers."""
        return self._evals

    def request_stop(self, reason: str) -> None:
        """Record the first stop *reason*; later requests are ignored."""
        if not self._reason:
            self._reason = reason

    @property
    def stop_requested(self) -> bool:
        """True once any stop reason was recorded."""
        return bool(self._reason)

    @property
    def stop_reason(self) -> str:
        """The first recorded stop reason (empty while running)."""
        return self._reason


class SharedLedger(BudgetLedger):
    """Cross-process ledger over ``multiprocessing.Manager`` proxies.

    Built from a live manager (``SharedLedger(manager, max_evals=...)``).
    The proxy handles pickle cleanly under fork *and* spawn start
    methods, which is what lets tasks carry the ledger through a
    ``ProcessPoolExecutor`` submit call; the counter update runs under
    the manager lock, so concurrent flushes never lose deltas.
    """

    def __init__(self, manager, max_evals: int | None = None):
        self.max_evals = max_evals
        self._state = manager.dict()
        self._state["evals"] = 0
        self._state["reason"] = ""
        self._lock = manager.Lock()

    def record(self, evals: int) -> None:
        """Add a worker's evaluation delta; trips the global eval cap."""
        if evals <= 0:
            return
        with self._lock:
            total = self._state["evals"] + evals
            self._state["evals"] = total
            if (
                self.max_evals is not None
                and total >= self.max_evals
                and not self._state["reason"]
            ):
                self._state["reason"] = STOP_MAX_EVALS

    @property
    def evaluations(self) -> int:
        """Total evaluations recorded across all workers."""
        return self._state["evals"]

    def request_stop(self, reason: str) -> None:
        """Record the first stop *reason*; later requests are ignored."""
        with self._lock:
            if not self._state["reason"]:
                self._state["reason"] = reason

    @property
    def stop_requested(self) -> bool:
        """True once any stop reason was recorded."""
        return bool(self._state["reason"])

    @property
    def stop_reason(self) -> str:
        """The first recorded stop reason (empty while running)."""
        return self._state["reason"]


class WorkerBridge:
    """Glue between one worker's local search and the shared ledger.

    Installed as the worker's ``on_progress`` callback. Per invocation
    it (a) accumulates the evaluation delta since the last flush and
    pushes it to the ledger once ``flush_every`` is reached, (b) trips
    the shared target stop when the worker's incumbent reaches
    ``target_value``, and (c) propagates any shared stop into the
    worker's local :class:`~repro.algorithms.runtime.CancelToken` --
    ledger reads are paid only at flush boundaries, so cheap steps stay
    cheap. Call :meth:`finish` -- in a ``try/finally`` around the
    search -- to flush the tail delta: on the success path pass the
    report's exact total, on an exception path call it with no
    arguments and the evaluations seen by the last progress callback
    are flushed instead, so a crashed worker never under-counts the
    shared ledger by more than the steps after its final callback.
    """

    def __init__(
        self,
        ledger: BudgetLedger,
        cancel: CancelToken,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        target_value: float | None = None,
        chain: Callable[[SearchProgress], None] | None = None,
    ):
        self.ledger = ledger
        self.cancel = cancel
        self.flush_every = SearchBudget.validate_count(
            "flush_every", flush_every
        )
        self.target_value = target_value
        self.chain = chain
        self._reported = 0
        self._seen = 0

    def __call__(self, progress: SearchProgress) -> None:
        self._seen = max(self._seen, progress.evaluations)
        if self.chain is not None:
            self.chain(progress)
        if (
            self.target_value is not None
            and progress.best_value is not None
            and progress.best_value <= self.target_value
        ):
            self.ledger.request_stop(STOP_TARGET)
            self.cancel.cancel(STOP_TARGET)
            return
        pending = progress.evaluations - self._reported
        if pending >= self.flush_every:
            self._reported = progress.evaluations
            self.ledger.record(pending)
            if self.ledger.stop_requested:
                self.cancel.cancel(self.ledger.stop_reason)

    def finish(self, total_evaluations: int | None = None) -> None:
        """Flush the evaluations accumulated since the last batch.

        With no argument (the exception path) the count the last
        progress callback reported is flushed; an explicit total (the
        report's exact figure, which may exceed the last callback's on
        generators that evaluate between yields) takes precedence when
        larger. Idempotent: a ``finally`` clause may call it after the
        success path already has.
        """
        total = (
            self._seen
            if total_evaluations is None
            else max(total_evaluations, self._seen)
        )
        pending = total - self._reported
        if pending > 0:
            self._reported = total
            self.ledger.record(pending)


#: Stop reasons a parallel run can surface beyond the serial set, in
#: merge priority order (first match wins when workers disagree; see
#: ``repro.parallel.runtime.merge_stop_reason``).
MERGE_PRIORITY = (
    STOP_CANCELLED,
    STOP_TARGET,
    STOP_DEADLINE,
)
