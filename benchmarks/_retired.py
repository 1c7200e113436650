"""A frozen copy of a retired production path, for benchmark baselines.

:class:`~repro.algorithms.local_search.HillClimbing` now has one sweep:
the whole single-move grid per round through the batch kernel. One of
the per-candidate sweeps it replaced is kept here verbatim as a
runtime-driven step generator, so the runtime bench can still time it:

* :class:`IncrementalHillClimbing` -- one
  ``MoveEvaluator.propose_value`` per candidate move.

The other retired paths the benches compare against (the
full-evaluation hill climber, the lazy router and its invalidation
policy, the per-candidate rebalance scan) are the parity oracles of
the test suite, imported from :mod:`tests.oracles`.
"""

from __future__ import annotations

from typing import Iterator

from repro.algorithms.base import ProblemContext
from repro.algorithms.local_search import HillClimbing
from repro.algorithms.runtime import SearchStep
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment


class IncrementalHillClimbing(HillClimbing):
    """Best-improvement climbing priced by the incremental MoveEvaluator."""

    def _deploy(self, context: ProblemContext) -> Deployment:
        current = self._starting_mapping(context)
        return context.search(self._steps_incremental(context, current)).best

    def _steps_incremental(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        evaluator = MoveEvaluator(context.cost_model, current)
        yield SearchStep(evaluator.objective, current.copy, evals=1)
        for _ in range(self.max_iterations):
            best_move: tuple[str, str] | None = None
            best_value = evaluator.objective
            evals = 0
            for operation in context.workflow.operation_names:
                original = current.server_of(operation)
                for server in context.network.server_names:
                    if server == original:
                        continue
                    value = evaluator.propose_value(operation, server)
                    evals += 1
                    if value < best_value:
                        best_value = value
                        best_move = (operation, server)
            if best_move is None:
                yield SearchStep(
                    best_value, current.copy, evals=evals, rejected=evals
                )
                break
            evaluator.propose(*best_move)
            evaluator.commit()
            yield SearchStep(
                best_value,
                current.copy,
                evals=evals,
                accepted=1,
                rejected=evals - 1,
            )
