"""Benchmark: the multiprocess restart & portfolio runtime.

Two measurements on the 100-operation x 50-server reference instance
(the parallel layer's reference size):

* **Portfolio race** -- wall-clock and winner of the default portfolio
  under an evaluation budget split into per-racer shares, sequential
  (inline) vs the process pool; both must agree on the winner and on
  every racer's evaluations and stop reason.
* **workers=1 byte-identity** -- the ``deploy_parallel(workers=1)``
  escape hatch produces the same deployment and report as the direct
  serial ``deploy_with_report`` call, for every wrapped algorithm
  family (asserted here so the contract is re-checked on every bench
  run, smoke included).

Set ``BENCH_SMOKE=1`` for the CI smoke run: a small instance and 2
workers -- it exercises the process pool and the identity checks.
"""

import dataclasses
import os
import time

import pytest

from repro.algorithms.runtime import SearchBudget
from repro.core.cost import CostModel
from repro.core.rng import coerce_rng
from repro.parallel import deploy_parallel, race_portfolio
from repro.parallel.specs import AlgorithmSpec
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)

from _common import SMOKE, emit, write_json

#: Reference instance: 100 operations on 50 servers.
NUM_OPERATIONS = 12 if SMOKE else 100
NUM_SERVERS = 5 if SMOKE else 50
RACE_WORKERS = 2 if SMOKE else 4
PORTFOLIO_EVALS = 2_000 if SMOKE else 20_000

_RESULTS: dict = {
    "smoke": SMOKE,
    "operations": NUM_OPERATIONS,
    "servers": NUM_SERVERS,
    "cpu_count": os.cpu_count(),
    "race_workers": RACE_WORKERS,
}


@pytest.fixture(scope="module")
def instance():
    workflow = random_graph_workflow(
        NUM_OPERATIONS, GraphStructure.HYBRID, seed=101
    )
    network = random_bus_network(NUM_SERVERS, seed=102)
    return workflow, network, CostModel(workflow, network)


def _flush_results() -> None:
    write_json("BENCH_parallel", _RESULTS)


def bench_portfolio_race(benchmark, instance):
    """Default-portfolio race under a per-racer evaluation budget."""
    workflow, network, model = instance
    budget = SearchBudget(max_evals=PORTFOLIO_EVALS)

    def run(inline: bool):
        start = time.perf_counter()
        outcome = race_portfolio(
            workflow,
            network,
            cost_model=model,
            workers=RACE_WORKERS,
            seed=11,
            budget=budget,
            inline=inline,
        )
        return outcome, time.perf_counter() - start

    def per_run(outcome):
        return [
            (
                run.label,
                None if run.report is None else run.report.evaluations,
                None if run.report is None else run.report.stop_reason,
            )
            for run in outcome.parallel.runs
        ]

    serial_outcome, serial_s = run(inline=True)
    parallel_outcome, parallel_s = run(inline=False)
    # eval-capped racing is deterministic: every racer spends exactly
    # its budget share, so the pool and the sequential execution elect
    # the same winner from the same per-racer runs
    assert (
        parallel_outcome.best.as_dict() == serial_outcome.best.as_dict()
    )
    assert per_run(parallel_outcome) == per_run(serial_outcome)
    winner = serial_outcome.parallel.runs[serial_outcome.parallel.winner]
    _RESULTS["portfolio_evals"] = PORTFOLIO_EVALS
    _RESULTS["portfolio_serial_s"] = serial_s
    _RESULTS["portfolio_parallel_s"] = parallel_s
    _RESULTS["portfolio_winner"] = winner.label
    _RESULTS["portfolio_best_value"] = serial_outcome.best_value
    _flush_results()
    emit(
        "parallel_portfolio",
        f"portfolio of {len(serial_outcome.parallel.runs)} racers, "
        f"{PORTFOLIO_EVALS} evaluations in per-racer shares"
        + (" (smoke)" if SMOKE else ""),
        f"sequential (inline):  {serial_s * 1e3:10.1f} ms",
        f"{RACE_WORKERS}-worker pool:        {parallel_s * 1e3:10.1f} ms",
        f"winner: {winner.label} (objective {serial_outcome.best_value:.6g})",
    )
    benchmark(run, False)


def bench_workers1_identity(benchmark, instance):
    """deploy_parallel(workers=1) == the direct serial call, per family."""
    workflow, network, model = instance
    specs = (
        "HillClimbing@HeavyOps-LargeMsgs",
        "SimulatedAnnealing",
        "Genetic",
        "HeavyOps-LargeMsgs",
    )

    def check_all():
        for text in specs:
            spec = AlgorithmSpec.parse(text)
            outcome = deploy_parallel(
                spec, workflow, network, cost_model=model, workers=1, seed=3
            )
            deployment, report = spec.build().deploy_with_report(
                workflow, network, cost_model=model, rng=coerce_rng(3)
            )
            assert outcome.best.as_dict() == deployment.as_dict(), text
            if report is None:
                assert outcome.report is None, text
            else:
                assert dataclasses.replace(
                    outcome.report, elapsed_s=0.0
                ) == dataclasses.replace(report, elapsed_s=0.0), text

    check_all()
    _RESULTS["workers1_identity"] = list(specs)
    _flush_results()
    emit(
        "parallel_workers1_identity",
        "workers=1 byte-identity verified for: " + ", ".join(specs),
    )
    benchmark(check_all)
