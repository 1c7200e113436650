"""Determinism contract: replaying a seeded scenario is byte-identical."""

import pytest

from repro.core.incremental import MoveEvaluator
from repro.service.scenarios import replay
from tests.oracles import scalar_pricing


@pytest.mark.parametrize("name", ["steady", "churn"])
class TestByteIdenticalReplay:
    def test_fleet_log_is_byte_identical(self, name):
        first = replay(name, seed=7).log.to_text()
        second = replay(name, seed=7).log.to_text()
        assert first == second

    def test_metrics_are_byte_identical(self, name):
        first = replay(name, seed=7).metrics().to_text()
        second = replay(name, seed=7).metrics().to_text()
        assert first == second

    def test_different_seeds_diverge(self, name):
        base = replay(name, seed=7).log.to_text()
        other = replay(name, seed=8).log.to_text()
        assert base != other

    def test_batch_pricing_does_not_change_decisions(self, name):
        """Batch vs scalar candidate pricing yields byte-identical logs.

        The scalar side is the frozen per-row oracle of
        :mod:`tests.oracles`. Metrics are deliberately *not* compared:
        the two paths touch the route / cost-model caches differently,
        so the cache hit/miss counters diverge while every decision
        stays the same.
        """
        batched = replay(name, seed=7).log.to_text()
        with scalar_pricing():
            scalar = replay(name, seed=7).log.to_text()
        assert batched == scalar


def test_rebalance_never_attaches_a_move_evaluator(monkeypatch):
    """Fleet rebalancing prices and applies moves without MoveEvaluator.

    Candidates are scored by the batch kernel and applied moves are
    plain deployment assignments, so a replay whose rebalances move
    operations must not need the incremental evaluator at all.
    """
    expected = replay("drift", seed=0)

    def refuse(self, *args, **kwargs):
        raise AssertionError("the fleet attached a MoveEvaluator")

    monkeypatch.setattr(MoveEvaluator, "__init__", refuse)
    controller = replay("drift", seed=0)
    metrics = controller.metrics()
    assert metrics.rebalance_moves > 0
    assert controller.log.to_text() == expected.log.to_text()
    assert metrics.to_text() == expected.metrics().to_text()
