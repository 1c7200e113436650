"""Frozen oracles: pricing paths the production code no longer ships.

Each access pattern in ``repro`` has one production pricing path. The
alternatives it replaced live on here, verbatim, as the references the
parity suites compare the production code against:

* :class:`FullEvaluationHillClimbing` -- hill climbing that prices every
  candidate move with one full ``CostModel.objective()`` call. The
  batch-kernel sweep of
  :class:`~repro.algorithms.local_search.HillClimbing` computes the same
  floats in the same scan order, so seeded runs must agree exactly.
* :class:`FullEvaluationSimulatedAnnealing` -- annealing priced the same
  way, the reference for the production MoveEvaluator path.
* :func:`scalar_pricing` -- every batch-kernel consumer (GA generations,
  sampler blocks, hill-climbing sweeps, fleet candidate sets) scored one
  row at a time through ``CompiledInstance.components``: the per-genome
  scalar loop the kernel replaced.
* :func:`use_route_invalidation` -- the ``eager`` and ``lazy``
  route-invalidation policies of
  :class:`~repro.service.state.FleetState`, which production replaced
  with link-scoped invalidation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial
from typing import Iterator
from unittest import mock

import numpy as np

from repro.algorithms.base import ProblemContext
from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.algorithms.runtime import SearchStep
from repro.core.batch import BatchScores
from repro.core.compiled import CompiledInstance
from repro.core.mapping import Deployment

__all__ = [
    "FullEvaluationHillClimbing",
    "FullEvaluationSimulatedAnnealing",
    "ScalarBatchEvaluator",
    "scalar_pricing",
    "use_route_invalidation",
]


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


class FullEvaluationSimulatedAnnealing(SimulatedAnnealing):
    """Metropolis search, one full evaluation per proposal."""

    def _deploy(self, context: ProblemContext) -> Deployment:
        current = self._starting_mapping(context)
        return context.search(self._steps_full(context, current)).best

    def _steps_full(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        cost_model = context.cost_model
        rng = context.rng
        operations = context.workflow.operation_names
        servers = context.network.server_names
        current_value = cost_model.objective(current)
        snapshot = current.copy
        yield SearchStep(current_value, snapshot, 1)
        if len(servers) == 1:
            return  # no move neighbourhood exists
        temperature = self.initial_temperature * max(current_value, 1e-12)
        for _ in range(self.steps):
            operation = rng.choice(operations)
            original = current.server_of(operation)
            alternatives = [s for s in servers if s != original]
            server = rng.choice(alternatives)
            current.assign(operation, server)
            value = cost_model.objective(current)
            delta = value - current_value
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current_value = value
                yield SearchStep(value, snapshot, 1, 1, 0)
            else:
                current.assign(operation, original)
                yield SearchStep(current_value, snapshot, 1, 0, 1)
            temperature *= self.cooling


class ScalarBatchEvaluator:
    """The batch-evaluator interface, priced one row at a time.

    Each row is scored by the scalar
    :meth:`~repro.core.compiled.CompiledInstance.components` forward
    pass, exactly as the retired per-genome scorer did.
    """

    def __init__(self, compiled: CompiledInstance):
        self.compiled = compiled

    def index_batch(self, genomes) -> list[list[int]]:
        server_index = self.compiled.server_index
        return [[server_index[name] for name in genome] for genome in genomes]

    def neighborhood(self, servers) -> list[list[int]]:
        grid = []
        for op in range(self.compiled.num_ops):
            for server in range(self.compiled.num_servers):
                row = [int(s) for s in servers]
                row[op] = server
                grid.append(row)
        return grid

    def evaluate(self, rows) -> BatchScores:
        scored = [
            self.compiled.components([int(s) for s in row]) for row in rows
        ]
        columns = np.array(scored, dtype=np.float64).reshape(-1, 3).T
        return BatchScores(*columns)


@contextmanager
def scalar_pricing():
    """Route every ``CompiledInstance.batch_evaluator()`` to the scalar loop."""

    def batch_evaluator(compiled):
        return ScalarBatchEvaluator(compiled)

    with mock.patch.object(
        CompiledInstance, "batch_evaluator", batch_evaluator
    ):
        yield


def _invalidate_eager(
    state,
    changed_links=None,
    worsening=False,
    speed_changed=True,
    propagation_changed=True,
):
    """``FleetState._invalidate_routes`` in the retired ``eager`` mode."""
    state.epoch += 1
    affected = state._router.invalidate(
        changed_links=None,
        worsening=worsening,
        speed_changed=speed_changed,
        propagation_changed=propagation_changed,
    )
    for model in state._cost_models.values():
        model.compiled.refresh_routes(affected)


def _invalidate_lazy(state, *_args, **_kwargs):
    """``FleetState._invalidate_routes`` in the retired ``lazy`` mode."""
    state.epoch += 1
    state._router.clear_cache()
    for model in state._cost_models.values():
        model.compiled.reset_routes()


_INVALIDATION_ORACLES = {"eager": _invalidate_eager, "lazy": _invalidate_lazy}


def use_route_invalidation(controller, mode: str):
    """Switch *controller*'s fleet state to a retired invalidation mode.

    ``"scoped"`` leaves the production policy in place. Returns the
    controller.
    """
    if mode != "scoped":
        state = controller.state
        state._invalidate_routes = partial(
            _INVALIDATION_ORACLES[mode], state
        )
    return controller
