"""Unit tests for the random baseline and the sampling quality protocol."""

import random

import pytest

from repro.algorithms.exhaustive import Exhaustive
from repro.algorithms.sampling import RandomMapping, SolutionSampler
from repro.core.cost import CostBreakdown
from repro.exceptions import AlgorithmError


class TestRandomMapping:
    def test_complete_and_valid(self, line5, bus3):
        deployment = RandomMapping().deploy(line5, bus3, rng=5)
        assert deployment.is_complete(line5)

    def test_deterministic_per_seed(self, line5, bus3):
        d1 = RandomMapping().deploy(line5, bus3, rng=5)
        d2 = RandomMapping().deploy(line5, bus3, rng=5)
        d3 = RandomMapping().deploy(line5, bus3, rng=6)
        assert d1 == d2
        # different seeds almost surely differ on 5 ops x 3 servers
        assert d1 != d3


class TestSolutionSampler:
    def test_rejects_zero_samples(self):
        with pytest.raises(AlgorithmError):
            SolutionSampler(0)

    def test_rejects_zero_block(self):
        with pytest.raises(AlgorithmError):
            SolutionSampler(10, block=0)

    def test_block_size_does_not_change_statistics(
        self, line3, bus3, cost_line3_bus3
    ):
        """Batched block scoring is a pure speed-up, not a semantic change."""
        results = [
            SolutionSampler(200, block=block).run(
                line3, bus3, cost_line3_bus3, random.Random(1)
            )
            for block in (1, 7, 64, 1024)
        ]
        reference = results[0]
        for stats in results[1:]:
            assert stats.samples == reference.samples
            assert stats.best_execution_time == reference.best_execution_time
            assert stats.best_time_penalty == reference.best_time_penalty
            assert stats.worst_objective_value == (
                reference.worst_objective_value
            )
            assert stats.best_objective[0].as_dict() == (
                reference.best_objective[0].as_dict()
            )

    def test_statistics_fields(self, line3, bus3, cost_line3_bus3):
        stats = SolutionSampler(100).run(
            line3, bus3, cost_line3_bus3, random.Random(1)
        )
        assert stats.samples == 100
        best_deployment, best_cost = stats.best_objective
        assert best_deployment.is_complete(line3)
        assert stats.best_execution_time <= best_cost.execution_time
        assert stats.best_time_penalty <= best_cost.time_penalty
        assert stats.worst_objective_value >= best_cost.objective

    def test_dimensions_tracked_independently(self, line3, bus3, cost_line3_bus3):
        """Best execution and best penalty may come from different samples."""
        stats = SolutionSampler(500).run(
            line3, bus3, cost_line3_bus3, random.Random(2)
        )
        # with 500 samples over 27 configs the independent minima are the
        # global ones: all-on-fastest-server for execution, balanced for
        # penalty -- no single mapping achieves both
        exhaustive = Exhaustive().enumerate(line3, bus3, cost_line3_bus3)
        costs = [em.cost for em in exhaustive]
        assert stats.best_execution_time == pytest.approx(
            min(c.execution_time for c in costs)
        )
        assert stats.best_time_penalty == pytest.approx(
            min(c.time_penalty for c in costs)
        )

    def test_exhaustive_never_worse_than_sampled(
        self, line3, bus3, cost_line3_bus3
    ):
        stats = SolutionSampler(200).run(
            line3, bus3, cost_line3_bus3, random.Random(3)
        )
        optimum = Exhaustive().best(line3, bus3, cost_line3_bus3)
        assert (
            optimum.cost.objective <= stats.best_objective[1].objective + 1e-15
        )


class TestDeviationMetrics:
    def _stats(self, best_execution, best_penalty):
        from repro.algorithms.sampling import SampleStatistics
        from repro.core.mapping import Deployment

        return SampleStatistics(
            samples=1,
            best_objective=(Deployment(), CostBreakdown(1.0, 1.0, 1.0)),
            best_execution_time=best_execution,
            best_time_penalty=best_penalty,
            worst_objective_value=10.0,
        )

    def _cost(self, execution, penalty, loads=None):
        return CostBreakdown(
            execution_time=execution,
            time_penalty=penalty,
            objective=execution + penalty,
            loads=loads or {"S1": 1.0, "S2": 1.0},
        )

    def test_execution_deviation(self):
        stats = self._stats(best_execution=1.0, best_penalty=1.0)
        assert stats.execution_deviation(self._cost(1.029, 1.0)) == (
            pytest.approx(0.029)
        )

    def test_deviation_clamped_at_zero_when_better(self):
        stats = self._stats(best_execution=1.0, best_penalty=1.0)
        assert stats.execution_deviation(self._cost(0.5, 1.0)) == 0.0
        assert stats.penalty_deviation(self._cost(1.0, 0.5)) == 0.0

    def test_penalty_deviation_relative(self):
        stats = self._stats(best_execution=1.0, best_penalty=0.1)
        assert stats.penalty_deviation(self._cost(1.0, 0.112)) == (
            pytest.approx(0.12)
        )

    def test_penalty_deviation_zero_best_zero_actual(self):
        stats = self._stats(best_execution=1.0, best_penalty=0.0)
        assert stats.penalty_deviation(self._cost(1.0, 0.0)) == 0.0

    def test_penalty_deviation_zero_best_nonzero_actual(self):
        """Normalised by the mean load instead of dividing by zero."""
        stats = self._stats(best_execution=1.0, best_penalty=0.0)
        deviation = stats.penalty_deviation(
            self._cost(1.0, 0.25, loads={"S1": 0.5, "S2": 0.5})
        )
        assert deviation == pytest.approx(0.5)  # 0.25 / mean load 0.5

    def test_zero_best_execution_defends_division(self):
        stats = self._stats(best_execution=0.0, best_penalty=1.0)
        assert stats.execution_deviation(self._cost(1.0, 1.0)) == 0.0

    def test_penalty_gap_vs_load(self):
        stats = self._stats(best_execution=1.0, best_penalty=0.01)
        cost = self._cost(1.0, 0.05, loads={"S1": 0.4, "S2": 0.4})
        # gap 0.04 over mean load 0.4 -> 10%
        assert stats.penalty_gap_vs_load(cost) == pytest.approx(0.10)

    def test_penalty_gap_clamped_when_better_than_best(self):
        stats = self._stats(best_execution=1.0, best_penalty=0.05)
        cost = self._cost(1.0, 0.01, loads={"S1": 0.4, "S2": 0.4})
        assert stats.penalty_gap_vs_load(cost) == 0.0

    def test_penalty_gap_stays_conditioned_when_best_is_tiny(self):
        """The motivating case: relative deviation explodes, the gap
        stays proportionate."""
        stats = self._stats(best_execution=1.0, best_penalty=1e-4)
        cost = self._cost(1.0, 0.02, loads={"S1": 0.04, "S2": 0.04})
        assert stats.penalty_deviation(cost) > 100  # ill-conditioned
        assert stats.penalty_gap_vs_load(cost) == pytest.approx(
            (0.02 - 1e-4) / 0.04
        )
