"""Frozen copies of retired hill-climbing sweeps, for benchmark baselines.

:class:`~repro.algorithms.local_search.HillClimbing` now has one sweep:
the whole single-move grid per round through the batch kernel. The two
per-candidate sweeps it replaced are kept here verbatim as runtime-driven
step generators, so the benches can still time and check against them:

* :class:`FullEvaluationHillClimbing` -- one full
  ``CostModel.objective()`` per candidate move;
* :class:`IncrementalHillClimbing` -- one
  ``MoveEvaluator.propose_value`` per candidate move.
"""

from __future__ import annotations

from typing import Iterator

from repro.algorithms.base import ProblemContext
from repro.algorithms.local_search import HillClimbing
from repro.algorithms.runtime import SearchStep
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment


class FullEvaluationHillClimbing(HillClimbing):
    """Best-improvement climbing, one full evaluation per candidate."""

    def _deploy(self, context: ProblemContext) -> Deployment:
        current = self._starting_mapping(context)
        return context.search(self._steps_full(context, current)).best

    def _steps_full(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        cost_model = context.cost_model
        current_value = cost_model.objective(current)
        yield SearchStep(current_value, current.copy, evals=1)
        for _ in range(self.max_iterations):
            best_move: tuple[str, str] | None = None
            best_value = current_value
            evals = 0
            for operation in context.workflow.operation_names:
                original = current.server_of(operation)
                for server in context.network.server_names:
                    if server == original:
                        continue
                    current.assign(operation, server)
                    value = cost_model.objective(current)
                    evals += 1
                    if value < best_value:
                        best_value = value
                        best_move = (operation, server)
                current.assign(operation, original)
            if best_move is None:
                yield SearchStep(
                    best_value, current.copy, evals=evals, rejected=evals
                )
                break
            current.assign(*best_move)
            current_value = best_value
            yield SearchStep(
                best_value,
                current.copy,
                evals=evals,
                accepted=1,
                rejected=evals - 1,
            )


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
            evaluator.apply(*best_move)
            yield SearchStep(
                best_value,
                current.copy,
                evals=evals,
                accepted=1,
                rejected=evals - 1,
            )
