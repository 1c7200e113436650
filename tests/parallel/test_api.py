"""End-to-end contracts of ``deploy_parallel`` / ``race_portfolio``.

Everything except the process-pool parity checks runs in *inline*
mode: the same task protocol, budget shares and stop signal, executed
sequentially in this process -- deterministic, fast, and exactly what
the pool executes (the parity tests pin that equivalence).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.algorithms.runtime import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_MAX_EVALS,
    CancelToken,
    SearchBudget,
)
from repro.core.clock import StepClock
from repro.core.cost import CostModel
from repro.core.rng import coerce_rng
from repro.exceptions import AlgorithmError
from repro.parallel import (
    STOP_TARGET,
    AlgorithmSpec,
    deploy_parallel,
    race_portfolio,
    slice_budget,
)
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)


@pytest.fixture
def model(line5, bus5):
    return CostModel(line5, bus5)


def _strip(report):
    """Reports minus wall-clock time (the only non-deterministic field)."""
    return (
        None
        if report is None
        else dataclasses.replace(report, elapsed_s=0.0)
    )


SPECS = (
    "HillClimbing@HeavyOps-LargeMsgs",
    "SimulatedAnnealing",
    "Genetic",
    "HeavyOps-LargeMsgs",  # constructive: deploy_with_report returns None
)


class TestWorkersOneIdentity:
    @pytest.mark.parametrize("text", SPECS)
    def test_byte_identical_to_serial_call(self, line5, bus5, model, text):
        spec = AlgorithmSpec.parse(text)
        outcome = deploy_parallel(
            spec, line5, bus5, cost_model=model, workers=1, seed=5
        )
        deployment, report = spec.build().deploy_with_report(
            line5, bus5, cost_model=model, rng=coerce_rng(5)
        )
        assert outcome.best.as_dict() == deployment.as_dict()
        assert _strip(outcome.report) == _strip(report)
        assert outcome.parallel.plan == "serial"
        assert outcome.parallel.workers == 1

    def test_accepts_live_rng_like_the_serial_api(self, line5, bus5, model):
        outcome = deploy_parallel(
            "HillClimbing",
            line5,
            bus5,
            cost_model=model,
            workers=1,
            seed=random.Random(5),
        )
        deployment = AlgorithmSpec.parse("HillClimbing").build().deploy(
            line5, bus5, cost_model=model, rng=random.Random(5)
        )
        assert outcome.best.as_dict() == deployment.as_dict()


class TestReproducibility:
    def test_sharded_run_is_a_pure_function_of_seed(
        self, line5, bus5, model
    ):
        def run():
            return deploy_parallel(
                "SimulatedAnnealing",
                line5,
                bus5,
                cost_model=model,
                workers=2,
                seed=9,
                budget=SearchBudget(max_evals=400),
                inline=True,
            )

        first, second = run(), run()
        assert first.best.as_dict() == second.best.as_dict()
        assert first.best_value == second.best_value
        assert _strip(first.report) == _strip(second.report)
        assert [r.label for r in first.parallel.runs] == [
            r.label for r in second.parallel.runs
        ]

    def test_live_rng_rejected_for_sharded_runs(self, line5, bus5, model):
        with pytest.raises(AlgorithmError):
            deploy_parallel(
                "SimulatedAnnealing",
                line5,
                bus5,
                cost_model=model,
                workers=2,
                seed=random.Random(5),
                inline=True,
            )


class TestBudgetEnforcement:
    def test_eval_cap_never_overshoots_by_more_than_a_batch_per_worker(
        self, line5, bus5, model
    ):
        # each racer's own runtime enforces its slice and checks it after
        # every step, so a racer stops within one search step of its
        # share; a simulated-annealing step costs one evaluation
        workers, step_evals = 2, 1
        budget = SearchBudget(max_evals=300)
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=workers,
            seed=1,
            budget=budget,
            inline=True,
        )
        assert outcome.report.stop_reason == STOP_MAX_EVALS
        for index, run in enumerate(outcome.parallel.runs):
            share = slice_budget(budget, workers, index).max_evals
            assert run.report.evaluations < share + step_evals
        assert (
            outcome.report.evaluations
            < budget.max_evals + workers * step_evals
        )

    def test_deadline_stops_workers_on_injected_clock(
        self, line5, bus5, model
    ):
        # every clock reading advances 10ms; a 50ms deadline fires after
        # a handful of steps regardless of machine speed
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=1,
            budget=SearchBudget(deadline_s=0.05),
            inline=True,
            clock=StepClock(step_s=0.01),
        )
        assert outcome.report.stop_reason == STOP_DEADLINE
        assert outcome.best is not None
        assert outcome.best_value > 0

    def test_precancelled_token_still_yields_a_deployment(
        self, line5, bus5, model
    ):
        cancel = CancelToken()
        cancel.cancel()
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=1,
            cancel=cancel,
            inline=True,
        )
        assert outcome.report.stop_reason == STOP_CANCELLED
        assert outcome.best is not None

    def test_target_value_stops_the_race(self, line5, bus5, model):
        # a target above any feasible objective is reached immediately
        outcome = deploy_parallel(
            "SimulatedAnnealing",
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=1,
            target_value=1e9,
            budget=SearchBudget(max_steps=10_000),
            inline=True,
        )
        assert outcome.report.stop_reason == STOP_TARGET


class TestPlanValidation:
    def test_genetic_races_seeded_restarts(self, line5, bus5, model):
        outcome = deploy_parallel(
            AlgorithmSpec.of("Genetic", generations=4, population_size=6),
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=1,
            inline=True,
        )
        assert outcome.parallel.plan == "restarts"
        assert [run.label for run in outcome.parallel.runs] == [
            "Genetic(generations=4,population_size=6)#0",
            "Genetic(generations=4,population_size=6)#1",
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partition_plan_is_retired(self, line5, bus5, model, workers):
        # every plan but seeded restarts is gone, and the option with them
        with pytest.raises(TypeError):
            deploy_parallel(
                "HillClimbing@HeavyOps-LargeMsgs",
                line5,
                bus5,
                cost_model=model,
                workers=workers,
                seed=1,
                plan="partition",
                inline=True,
            )


class TestPortfolio:
    def test_default_portfolio_race(self, line5, bus5, model):
        outcome = race_portfolio(
            line5,
            bus5,
            cost_model=model,
            workers=2,
            seed=4,
            budget=SearchBudget(max_evals=600),
            inline=True,
        )
        labels = [run.label for run in outcome.parallel.runs]
        assert len(labels) == len(set(labels))
        winner = outcome.parallel.runs[outcome.parallel.winner]
        assert winner.value == outcome.best_value
        assert outcome.best_value == min(r.value for r in outcome.parallel.runs)

    def test_explicit_portfolio_and_worker_padding(self, line5, bus5, model):
        # more workers than entries: the line-up wraps around with
        # distinct #index suffixes and per-racer seeds
        outcome = race_portfolio(
            line5,
            bus5,
            portfolio=["HillClimbing", "SimulatedAnnealing"],
            cost_model=model,
            workers=4,
            seed=4,
            budget=SearchBudget(max_evals=400),
            inline=True,
        )
        labels = [run.label for run in outcome.parallel.runs]
        assert len(labels) == 4
        assert len(set(labels)) == 4

    def test_portfolio_race_is_reproducible(self, line5, bus5, model):
        def run():
            return race_portfolio(
                line5,
                bus5,
                cost_model=model,
                workers=2,
                seed=4,
                budget=SearchBudget(max_evals=400),
                inline=True,
            )

        first, second = run(), run()
        assert first.best.as_dict() == second.best.as_dict()
        assert (
            first.parallel.runs[first.parallel.winner].label
            == second.parallel.runs[second.parallel.winner].label
        )


class TestProcessPoolParity:
    def test_pool_matches_inline_execution(self, line5, bus5, model):
        """Real worker processes produce the inline-mode result."""

        def run(inline):
            return deploy_parallel(
                "SimulatedAnnealing",
                line5,
                bus5,
                cost_model=model,
                workers=2,
                seed=2,
                budget=SearchBudget(max_evals=300),
                inline=inline,
            )

        inline_outcome = run(True)
        pool_outcome = run(False)
        assert pool_outcome.best.as_dict() == inline_outcome.best.as_dict()
        assert pool_outcome.best_value == inline_outcome.best_value
        assert _strip(pool_outcome.report) == _strip(inline_outcome.report)


def _per_run(outcome):
    """(label, evaluations, stop reason) of every racer, in line-up order."""
    return [
        (run.label, run.report.evaluations, run.report.stop_reason)
        for run in outcome.parallel.runs
    ]


class TestRacerShares:
    """Every racer of an eval-capped race spends exactly its own share.

    On this instance hill climbing's last 180-evaluation step overshoots
    its 600-evaluation share; that must not cut simulated annealing's
    share short, in the pool or inline.
    """

    @pytest.fixture(scope="class")
    def outcomes(self):
        workflow = random_graph_workflow(20, GraphStructure.HYBRID, seed=1)
        network = random_bus_network(10, seed=1)
        model = CostModel(workflow, network)

        def run(inline):
            return race_portfolio(
                workflow,
                network,
                portfolio=["HillClimbing", "SimulatedAnnealing"],
                cost_model=model,
                workers=2,
                seed=5,
                budget=SearchBudget(max_evals=1200),
                inline=inline,
            )

        return run(True), run(False)

    def test_annealing_runs_its_full_share(self, outcomes):
        for outcome in outcomes:
            runs = {run.label: run for run in outcome.parallel.runs}
            report = runs["SimulatedAnnealing"].report
            assert report.evaluations == 600
            assert report.stop_reason == STOP_MAX_EVALS

    def test_pool_matches_inline_per_run(self, outcomes):
        inline_outcome, pool_outcome = outcomes
        assert pool_outcome.parallel.winner == inline_outcome.parallel.winner
        assert pool_outcome.best.as_dict() == inline_outcome.best.as_dict()
        assert pool_outcome.best_value == inline_outcome.best_value
        assert _per_run(pool_outcome) == _per_run(inline_outcome)
        assert _strip(pool_outcome.report) == _strip(inline_outcome.report)
