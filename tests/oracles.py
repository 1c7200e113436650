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
* :func:`use_route_invalidation` -- the retired ``lazy``
  route-invalidation policy of
  :class:`~repro.service.state.FleetState`, which production replaced
  with a whole-table recompile. It carries the retired per-pair route
  fill with it: :func:`lazy_router` classifies one pair per cache miss
  with two targeted Dijkstra queries, and the compiled route tables
  resolve each slot on first read.
* :func:`use_retired_rebalance` -- the fleet's greedy rebalance as it
  was before each round got one pricing and one scoring pass: every
  round re-prices every candidate through the full batch kernel and
  scores candidates one at a time. Production must make the same moves
  and leave the same counters.
"""

from __future__ import annotations

import math
import types
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Sequence
from unittest import mock

import numpy as np

from repro.algorithms.base import ProblemContext
from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.algorithms.runtime import CancelToken, SearchRuntime, SearchStep
from repro.core.batch import BatchScores
from repro.core.compiled import CompiledInstance, penalty_statistic
from repro.core.mapping import Deployment
from repro.network import apsp

__all__ = [
    "FullEvaluationHillClimbing",
    "FullEvaluationSimulatedAnnealing",
    "ScalarBatchEvaluator",
    "lazy_router",
    "scalar_pricing",
    "use_retired_rebalance",
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

    def execution(self, rows) -> np.ndarray:
        return np.array(
            [
                self.compiled.execution_from(
                    self.compiled.forward_pass([int(s) for s in row])
                )
                for row in rows
            ],
            dtype=np.float64,
        )

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


def _invalidate_lazy(state):
    """``FleetState._invalidate_routes`` in the retired ``lazy`` mode."""
    state.epoch += 1
    router = lazy_router(state._router)
    # the retired Router.clear_cache: drop every route, reset traffic
    router._drop_all_routes()
    router.hits = 0
    router.misses = 0
    for model in state._cost_models.values():
        _reset_routes(model.compiled)


def use_route_invalidation(controller):
    """Switch *controller*'s fleet state to the retired ``lazy`` mode.

    Returns the controller.
    """
    state = controller.state
    state._invalidate_routes = partial(_invalidate_lazy, state)
    return controller


def retired_greedy_moves(
    self,
    targets: Sequence[str] | None,
    candidates: Callable[[dict[str, float]], list[tuple[str, str]]],
    max_moves: int,
) -> tuple[list[tuple[str, str, str, str]], float, float, float]:
    """The retired per-candidate rebalance scan, verbatim.

    Every round re-prices every candidate pair through the full
    batch kernel, then scores one candidate at a time: two dict
    copies and one O(S) ``penalty_statistic`` call each.
    """
    state = self.state
    network = state.network
    exec_times = {
        tenant: state.cost_model(tenant).execution_time(
            state.tenant(tenant).deployment
        )
        for tenant in state.tenants
    }
    loads = state.combined_loads()

    def objective(execs: dict[str, float], load_map: dict[str, float]) -> float:
        self.evaluations += 1
        execution = max(execs.values(), default=0.0)
        penalty = penalty_statistic(
            list(load_map.values()), state.penalty_mode
        )
        # the one fleet-level combine, shared with FleetState.snapshot
        return state.objective_value(execution, penalty)

    migration_model = self.config.migration
    aware = self._transition_aware
    # min_gain == 0 keeps the historical strict-improvement epsilon
    threshold = (
        self.config.rebalance_min_gain
        if self.config.rebalance_min_gain > 0.0
        else 1e-12
    )

    def move_cost(
        tenant: str, operation: str, source: str, target: str
    ) -> float:
        """One-time cost of moving *operation*'s state to *target*.

        Checkpoint transfer over the fleet's current links (routed
        through the tenant's compiled instance) plus the model's
        fixed downtime. State size scales with the operation's raw
        cycle count -- probability never shrinks a checkpoint.
        """
        compiled = state.cost_model(tenant).compiled
        op = compiled.op_index[operation]
        return migration_model.downtime_s + compiled.delay(
            compiled.server_index[source],
            compiled.server_index[target],
            migration_model.state_bits(compiled.cycles[op]),
        )

    current = objective(exec_times, loads)
    before = current
    migration_total = 0.0
    moves: list[tuple[str, str, str, str]] = []

    def price_candidates(
        pairs: list[tuple[str, str]],
    ) -> dict[tuple[str, str, str], float]:
        """Batch-price tenant execution for every candidate move.

        One kernel call per tenant per round over that tenant's
        ``(operation, target)`` rows.
        """
        rows: dict[str, list[list[int]]] = {}
        keys: dict[str, list[tuple[str, str, str]]] = {}
        for tenant, operation in pairs:
            compiled = state.cost_model(tenant).compiled
            deployment = state.tenant(tenant).deployment
            source = deployment.server_of(operation)
            base = compiled.server_vector(deployment)
            op = compiled.op_index[operation]
            destinations = (
                targets if targets is not None else network.server_names
            )
            for target in destinations:
                if target == source:
                    continue
                row = list(base)
                row[op] = compiled.server_index[target]
                rows.setdefault(tenant, []).append(row)
                keys.setdefault(tenant, []).append(
                    (tenant, operation, target)
                )
        priced: dict[tuple[str, str, str], float] = {}
        for tenant, tenant_rows in rows.items():
            compiled = state.cost_model(tenant).compiled
            scores = compiled.batch_evaluator().evaluate(tenant_rows)
            for key, execution in zip(keys[tenant], scores.execution):
                priced[key] = float(execution)
        return priced

    def steps() -> Iterator[SearchStep]:
        nonlocal current, loads, migration_total
        yield SearchStep(current, lambda: tuple(moves), evals=1)
        for _ in range(max_moves):
            best: tuple | None = None
            scanned = 0
            pairs = candidates(loads)
            priced = price_candidates(pairs)
            for tenant, operation in pairs:
                record = state.tenant(tenant)
                compiled = state.cost_model(tenant).compiled
                source = record.deployment.server_of(operation)
                weighted = compiled.wcycles[compiled.op_index[operation]]
                destinations = (
                    targets
                    if targets is not None
                    else network.server_names
                )
                for target in destinations:
                    if target == source:
                        continue
                    tenant_exec = priced[(tenant, operation, target)]
                    trial_loads = dict(loads)
                    trial_loads[source] -= (
                        weighted / network.server(source).power_hz
                    )
                    trial_loads[target] += (
                        weighted / network.server(target).power_hz
                    )
                    trial_execs = dict(exec_times)
                    trial_execs[tenant] = tenant_exec
                    value = objective(trial_execs, trial_loads)
                    scanned += 1
                    if aware:
                        cost = move_cost(
                            tenant, operation, source, target
                        )
                        net = value + (
                            self.config.migration_weight * cost
                        )
                    else:
                        cost = 0.0
                        net = value
                    if net < current - threshold and (
                        best is None or net < best[0]
                    ):
                        best = (
                            net,
                            tenant,
                            operation,
                            source,
                            target,
                            tenant_exec,
                            trial_loads,
                            value,
                            cost,
                        )
            if best is None:
                yield SearchStep(
                    current,
                    lambda: tuple(moves),
                    evals=scanned,
                    rejected=scanned,
                )
                break
            (_net, tenant, operation, source, target,
             tenant_exec, new_loads, value, cost) = best
            if migration_model is not None and not aware:
                # weight 0: the move was chosen blind, but its cost
                # is still billed (benchmarks charge naive churn)
                cost = move_cost(tenant, operation, source, target)
            state.tenant(tenant).deployment.assign(operation, target)
            exec_times[tenant] = tenant_exec
            # the standing objective never carries the one-time
            # migration term -- hysteresis compares future nets
            # against the objective actually achieved
            current = value
            loads = new_loads
            if migration_model is not None:
                migration_total += cost
                self.migration_paid += cost
            moves.append((tenant, operation, source, target))
            yield SearchStep(
                current,
                lambda: tuple(moves),
                evals=scanned,
                accepted=1,
                rejected=scanned - 1,
            )

    cancel = CancelToken()
    self._active_rebalance_cancel = cancel
    runtime = SearchRuntime(
        budget=self.config.rebalance_budget,
        cancel=cancel,
        on_progress=self.on_search_step,
    )
    try:
        outcome = runtime.run(steps())
    finally:
        self._active_rebalance_cancel = None
    self.last_rebalance_report = outcome.report
    return moves, before, current, migration_total


def use_retired_rebalance(controller):
    """Switch *controller*'s greedy rebalance to the retired scan.

    Returns the controller.
    """
    controller._greedy_moves = types.MethodType(
        retired_greedy_moves, controller
    )
    return controller
