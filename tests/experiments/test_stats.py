"""Unit tests for the statistics helpers."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.experiments.stats import (
    comparison_table,
    summarize,
    t_ppf,
    win_matrix,
)


class TestSummarize:
    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            summarize([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ExperimentError):
            summarize([1.0], confidence=1.0)

    def test_single_sample(self):
        stats = summarize([5.0])
        assert stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == 5.0

    def test_known_values(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        stats = summarize(samples)
        assert stats.count == 5
        assert stats.mean == pytest.approx(3.0)
        assert stats.std == pytest.approx(1.5811388, rel=1e-6)
        # t(0.975, df=4) = 2.7764; half-width = t * std / sqrt(5)
        assert stats.half_width == pytest.approx(
            2.7764451 * 1.5811388 / 5**0.5, rel=1e-5
        )
        assert stats.ci_low < stats.mean < stats.ci_high

    def test_interval_symmetric_about_mean(self):
        stats = summarize([0.1, 0.2, 0.15, 0.17])
        assert stats.mean - stats.ci_low == pytest.approx(
            stats.ci_high - stats.mean
        )

    def test_wider_confidence_wider_interval(self):
        samples = [1.0, 2.0, 3.0]
        assert (
            summarize(samples, 0.99).half_width
            > summarize(samples, 0.90).half_width
        )

    def test_format(self):
        text = summarize([0.001, 0.002]).format()
        assert "+/-" in text and "ms" in text


class TestStudentT:
    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_matches_scipy(self, confidence):
        scipy_stats = pytest.importorskip("scipy.stats")
        probability = 0.5 + confidence / 2
        for df in range(1, 201):
            expected = float(scipy_stats.t.ppf(probability, df))
            assert t_ppf(probability, df) == pytest.approx(
                expected, rel=1e-10
            )

    def test_symmetric_about_the_median(self):
        assert t_ppf(0.5, 7) == 0.0
        assert t_ppf(0.1, 7) == -t_ppf(0.9, 7)

    def test_closed_forms(self):
        # df = 1 is the Cauchy distribution, df = 2 has a closed form too
        assert t_ppf(0.975, 1) == pytest.approx(12.706204736174704, rel=1e-12)
        assert t_ppf(0.975, 2) == pytest.approx(
            0.95 / (2 * 0.975 * 0.025) ** 0.5, rel=1e-12
        )

    def test_bad_arguments_rejected(self):
        with pytest.raises(ExperimentError):
            t_ppf(1.0, 3)
        with pytest.raises(ExperimentError):
            t_ppf(0.9, 0)


@pytest.fixture(scope="module")
def result():
    runner = ExperimentRunner(["FairLoad", "HeavyOps-LargeMsgs", "Random"])
    config = ExperimentConfig(
        num_operations=10,
        num_servers=3,
        bus_speed_bps=1e6,
        repetitions=6,
        seed=13,
    )
    return runner.run(config)


class TestWinMatrix:
    def test_unknown_metric_rejected(self, result):
        with pytest.raises(ExperimentError):
            win_matrix(result, metric="style")

    def test_counts_bounded_by_repetitions(self, result):
        matrix = win_matrix(result, metric="execution")
        assert all(0 <= count <= 6 for count in matrix.values())

    def test_antisymmetric_without_ties(self, result):
        matrix = win_matrix(result, metric="execution")
        for (a, b), wins in matrix.items():
            losses = matrix[(b, a)]
            assert wins + losses <= 6  # ties possible, never double counted

    def test_holm_beats_everything_on_slow_bus(self, result):
        matrix = win_matrix(result, metric="execution")
        assert matrix[("HeavyOps-LargeMsgs", "FairLoad")] == 6
        assert matrix[("HeavyOps-LargeMsgs", "Random")] == 6


class TestComparisonTable:
    def test_renders_all_algorithms(self, result):
        table = comparison_table(result, metric="execution")
        text = table.render()
        for name in ("FairLoad", "HeavyOps-LargeMsgs", "Random"):
            assert name in text
        assert "+/-" in text

    def test_unknown_metric_rejected(self, result):
        with pytest.raises(ExperimentError):
            comparison_table(result, metric="style")
