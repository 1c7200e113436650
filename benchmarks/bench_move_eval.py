"""Benchmark: move pricing vs full re-evaluation.

The hill climber scans ``M x (N - 1)`` candidate moves per round. With
full evaluation each candidate costs a complete cost-model sweep (the
retired sweep, frozen in ``tests/oracles.py``); the production
:class:`~repro.algorithms.local_search.HillClimbing` prices the whole
grid in one batch-kernel call. This bench times both climbs on the
reference 20-operation x 10-server instance, checks they return the
identical deployment, and records the speedup. A second bench times
single-move pricing: :class:`~repro.core.incremental.MoveEvaluator`
prices a move from the dirty region alone.

The asserted floor defaults to 2x -- conservative enough to pass on
modest shared CI hardware -- and is env-tunable via
``BENCH_FLOOR_MOVE_EVAL`` (set a higher bar on dedicated perf boxes, or
``0`` for measurement-only). The measured speedup is always recorded in
``output/move_eval_speedup.json``.

Set ``BENCH_SMOKE=1`` to shrink the instance and repeat count for CI
smoke runs; the speedup floor is only asserted on the full instance.
"""

import os
import random
import time

import pytest

from repro.algorithms.local_search import HillClimbing
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import FullEvaluationHillClimbing

from _common import emit, perf_floor, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Reference instance from the issue: 20 operations on 10 servers.
NUM_OPERATIONS = 6 if SMOKE else 20
NUM_SERVERS = 3 if SMOKE else 10
REPEATS = 1 if SMOKE else 5
PROPOSE_ROUNDS = 50 if SMOKE else 2_000
SPEEDUP_FLOOR = perf_floor("MOVE_EVAL", 2.0)


@pytest.fixture(scope="module")
def instance():
    workflow = random_graph_workflow(
        NUM_OPERATIONS, GraphStructure.HYBRID, seed=17
    )
    network = random_bus_network(NUM_SERVERS, seed=18)
    return workflow, network, CostModel(workflow, network)


def _run_hill_climbing(instance, algorithm_class):
    workflow, network, model = instance
    algorithm = algorithm_class()
    return algorithm.deploy(
        workflow, network, cost_model=model, rng=random.Random(23)
    )


def _best_time(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_hill_climbing_speedup(benchmark, instance):
    """Same seeded search, batch-kernel sweep vs full pricing."""
    t_full, full_result = _best_time(
        lambda: _run_hill_climbing(instance, FullEvaluationHillClimbing)
    )
    t_batch, batch_result = _best_time(
        lambda: _run_hill_climbing(instance, HillClimbing)
    )
    # the sweep is purely a pricing change: identical deployments out
    assert batch_result.as_dict() == full_result.as_dict()
    speedup = t_full / t_batch if t_batch > 0 else float("inf")
    emit(
        "move_eval_speedup",
        f"instance: {NUM_OPERATIONS} operations x {NUM_SERVERS} servers"
        + (" (smoke)" if SMOKE else ""),
        f"hill climbing, full evaluation:  {t_full * 1e3:10.3f} ms",
        f"hill climbing, batch sweep:      {t_batch * 1e3:10.3f} ms",
        f"speedup: {speedup:.1f}x (floor on the full instance: "
        f"{SPEEDUP_FLOOR}x)",
    )
    write_json(
        "move_eval_speedup",
        {
            "smoke": SMOKE,
            "operations": NUM_OPERATIONS,
            "servers": NUM_SERVERS,
            "full_s": t_full,
            "batch_s": t_batch,
            "speedup": speedup,
            "floor": SPEEDUP_FLOOR,
        },
    )
    if not SMOKE:
        assert speedup >= SPEEDUP_FLOOR
    benchmark(_run_hill_climbing, instance, HillClimbing)


def bench_propose_vs_full_evaluation(benchmark, instance):
    """Per-move cost: MoveEvaluator.propose vs copy + CostModel.evaluate."""
    workflow, network, model = instance
    deployment = Deployment.random(workflow, network, random.Random(29))
    evaluator = MoveEvaluator(model, deployment)
    rng = random.Random(31)
    moves = [
        (rng.choice(workflow.operation_names), rng.choice(network.server_names))
        for _ in range(PROPOSE_ROUNDS)
    ]

    def price_full():
        for operation, server in moves:
            trial = deployment.copy()
            trial.assign(operation, server)
            model.evaluate(trial)

    def price_incremental():
        for operation, server in moves:
            evaluator.propose(operation, server)

    t_full, _ = _best_time(price_full)
    t_incremental, _ = _best_time(price_incremental)
    per_move_full = t_full / len(moves) * 1e6
    per_move_incremental = t_incremental / len(moves) * 1e6
    speedup = t_full / t_incremental if t_incremental > 0 else float("inf")
    emit(
        "move_eval_per_move",
        f"{len(moves)} priced moves on {NUM_OPERATIONS} operations x "
        f"{NUM_SERVERS} servers" + (" (smoke)" if SMOKE else ""),
        f"full evaluation per move:  {per_move_full:10.2f} us",
        f"incremental per move:      {per_move_incremental:10.2f} us",
        f"speedup: {speedup:.1f}x",
    )
    benchmark(price_incremental)
