"""Frozen copies of retired production paths, for benchmark baselines.

:class:`~repro.algorithms.local_search.HillClimbing` now has one sweep:
the whole single-move grid per round through the batch kernel. The two
per-candidate sweeps it replaced are kept here verbatim as runtime-driven
step generators, so the benches can still time and check against them:

* :class:`FullEvaluationHillClimbing` -- one full
  ``CostModel.objective()`` per candidate move;
* :class:`IncrementalHillClimbing` -- one
  ``MoveEvaluator.propose_value`` per candidate move.

Route tables are now compiled whole. The per-pair fill they replaced is
kept for the routing bench:

* :func:`lazy_router` -- a router that classifies one pair per cache
  miss with two targeted Dijkstra queries;
* :func:`invalidate_lazy` -- the retired ``lazy`` fleet invalidation
  policy: drop every route, then refill per pair on first read.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.algorithms.base import ProblemContext
from repro.algorithms.local_search import HillClimbing
from repro.algorithms.runtime import SearchStep
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.network import apsp


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
            evaluator.propose(*best_move)
            evaluator.commit()
            yield SearchStep(
                best_value,
                current.copy,
                evals=evals,
                accepted=1,
                rejected=evals - 1,
            )


def _shortest_path(graph, source, target, weight):
    """The retired ``apsp.shortest_path``: one targeted Dijkstra query."""
    dist, parent = apsp._dijkstra(graph, source, weight, target=target)
    if dist[target] is None:
        raise apsp._no_route(graph, source, target)
    return apsp._reconstruct(parent, source, target)


def _build_route(router, source, target):
    """The retired ``Router._build_route``: classify one pair on its own."""
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
    """One row of the retired lazy route table: ``None`` slots resolve
    through the router's ``pair_coefficients`` on first read."""

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


def invalidate_lazy(state, *_args, **_kwargs):
    """``FleetState._invalidate_routes`` in the retired ``lazy`` mode."""
    state.epoch += 1
    router = lazy_router(state._router)
    # the retired Router.clear_cache: drop every route, reset traffic
    router._drop_all_routes()
    router.hits = 0
    router.misses = 0
    for model in state._cost_models.values():
        # the retired CompiledInstance.reset_routes
        compiled = model.compiled
        compiled.routes = [
            _LazyRouteRow(compiled, i) for i in range(compiled.num_servers)
        ]
        compiled._batch = None
        if compiled.transition_aware:
            compiled.migration_table = compiled._compile_migration_table()
