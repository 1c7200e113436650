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
  with link-scoped invalidation. The ``lazy`` policy carries the
  retired per-pair route fill with it: :func:`lazy_router` classifies
  one pair per cache miss with two targeted Dijkstra queries, and the
  compiled route tables resolve each slot on first read.
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
from repro.network import apsp

__all__ = [
    "FullEvaluationHillClimbing",
    "FullEvaluationSimulatedAnnealing",
    "ScalarBatchEvaluator",
    "lazy_router",
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


def _shortest_path(graph, source, target, weight):
    """The retired ``apsp.shortest_path``: one targeted Dijkstra query."""
    dist, parent = apsp._dijkstra(graph, source, weight, target=target)
    if dist[target] is None:
        raise apsp._no_route(graph, source, target)
    return apsp._reconstruct(parent, source, target)


def _build_route(router, source, target):
    """The retired ``Router._build_route``: classify one pair on its own.

    Two targeted runs from the pair's canonical (lower-index) endpoint,
    so the stored floats equal the whole-table compile's.
    """
    graph = router._compiled_graph()
    index = graph.index
    a, b = source, target
    if index[a] > index[b]:
        a, b = b, a
    path_zero = _shortest_path(
        graph, index[a], index[b], apsp.WEIGHT_PROPAGATION
    )
    path_large = _shortest_path(
        graph, index[a], index[b], apsp.WEIGHT_TRANSFER
    )
    router.dijkstra_runs += 2
    router._store(a, b, apsp.classify_pair(graph, path_zero, path_large))
    return router._route_cache[(source, target)]


def _lazy_route(router, source, target):
    """``Router._route`` with the retired per-pair miss path."""
    route = router._route_cache.get((source, target))
    if route is None:
        router._network.server(source)
        router._network.server(target)
        router.misses += 1
        route = _build_route(router, source, target)
    elif route.size_independent:
        router.hits += 1
    return route


def lazy_router(router):
    """Make *router* classify one pair per cache miss; returns it."""
    router._route = partial(_lazy_route, router)
    return router


class _LazyRouteRow(list):
    """One row of the retired lazy route table.

    Slots start as ``None`` and resolve through the router's
    ``pair_coefficients`` on first read, as the retired
    ``CompiledInstance._resolve_route`` did.
    """

    def __init__(self, compiled, source):
        super().__init__([None] * compiled.num_servers)
        self[source] = (0.0, 0.0)
        self.compiled = compiled
        self.source = source

    def __getitem__(self, target):
        coeff = list.__getitem__(self, target)
        if coeff is None:
            names = self.compiled.server_names
            coeff = self.compiled.router.pair_coefficients(
                names[self.source], names[target]
            )
            if coeff is None:
                coeff = ()  # size-dependent pair: router answers per size
            self[target] = coeff
        return coeff


def _reset_routes(compiled):
    """The retired ``CompiledInstance.reset_routes``: a lazy route table."""
    compiled.routes = [
        _LazyRouteRow(compiled, i) for i in range(compiled.num_servers)
    ]
    compiled._batch = None
    if compiled.transition_aware:
        compiled.migration_table = compiled._compile_migration_table()


def _invalidate_lazy(state, *_args, **_kwargs):
    """``FleetState._invalidate_routes`` in the retired ``lazy`` mode."""
    state.epoch += 1
    router = lazy_router(state._router)
    # the retired Router.clear_cache: drop every route, reset traffic
    router._drop_all_routes()
    router.hits = 0
    router.misses = 0
    for model in state._cost_models.values():
        _reset_routes(model.compiled)


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
