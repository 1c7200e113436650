"""Budget shares and the one stop signal of a parallel race.

The serial runtime enforces a :class:`~repro.algorithms.runtime.
SearchBudget` inside a single process. A race splits it in two:

:func:`~repro.algorithms.runtime.slice_budget` (re-exported here)
    Deterministic pre-partitioning of the countable limits. Racer *i*
    of *n* receives ``max_evals // n`` evaluations (the remainder goes
    to the lowest indices), and likewise for ``max_steps``; deadlines
    pass through unchanged. Each racer's own
    :class:`~repro.algorithms.runtime.SearchRuntime` enforces its
    share, so every racer runs exactly its share whatever the other
    racers or the scheduler do, and eval- and step-capped races are
    reproducible.
:class:`StopSignal`
    The stops that are *not* countable: a racer reaching the caller's
    target value, external cancellation and the shared deadline. The
    first reason wins. Workers read it through their
    :class:`WorkerBridge` at most once every :data:`POLL_EVERY`
    evaluations.
"""

from __future__ import annotations

from typing import Callable, MutableMapping

from repro.algorithms.runtime import CancelToken, SearchProgress, slice_budget

__all__ = [
    "STOP_TARGET",
    "POLL_EVERY",
    "slice_budget",
    "StopSignal",
    "WorkerBridge",
]

#: Stop reason recorded when a worker reaches the caller's target value.
STOP_TARGET = "target"

#: Evaluations between two reads of the shared stop signal. Large
#: enough that cheap one-eval steps (simulated annealing) pay no IPC
#: round-trip per step, small enough that cancellation propagates
#: quickly relative to any realistic budget.
POLL_EVERY = 256


class StopSignal:
    """The first target, cancellation or deadline stop of one race.

    Backed by *state*: a plain dict inline, a ``Manager().dict()``
    proxy in process mode (proxies pickle under every start method).
    ``setdefault`` is a single call on the manager, so the first
    reason wins without a lock. Sticky like
    :class:`~repro.algorithms.runtime.CancelToken`: create a fresh
    signal per race.
    """

    def __init__(self, state: MutableMapping[str, str] | None = None):
        self._state = {} if state is None else state

    def request(self, reason: str) -> None:
        """Record *reason* unless an earlier one was recorded."""
        self._state.setdefault("reason", reason)

    @property
    def reason(self) -> str:
        """The first recorded reason (empty while running)."""
        return self._state.get("reason", "")


class WorkerBridge:
    """Glue between one worker's local search and the stop signal.

    Installed as the worker's ``on_progress`` callback. Per invocation
    it trips the shared target stop when the worker's incumbent reaches
    ``target_value``, and at most once every :data:`POLL_EVERY`
    evaluations it propagates a shared stop into the worker's local
    :class:`~repro.algorithms.runtime.CancelToken`.
    """

    def __init__(
        self,
        stop: StopSignal,
        cancel: CancelToken,
        target_value: float | None = None,
        chain: Callable[[SearchProgress], None] | None = None,
    ):
        self.stop = stop
        self.cancel = cancel
        self.target_value = target_value
        self.chain = chain
        self._polled = 0

    def __call__(self, progress: SearchProgress) -> None:
        if self.chain is not None:
            self.chain(progress)
        if (
            self.target_value is not None
            and progress.best_value is not None
            and progress.best_value <= self.target_value
        ):
            self.stop.request(STOP_TARGET)
            self.cancel.cancel(STOP_TARGET)
            return
        if progress.evaluations - self._polled >= POLL_EVERY:
            self._polled = progress.evaluations
            reason = self.stop.reason
            if reason:
                self.cancel.cancel(reason)
