"""The fleet rebalance decides exactly like its retired per-candidate scan.

Production prices each ``(tenant, operation)`` pair once per greedy
call and scores a whole round in one vectorised pass;
:func:`tests.oracles.use_retired_rebalance` restores the scan it
replaced (full re-pricing every round, one candidate scored at a time).
Both must make the same moves *and* leave the same counters, so the
comparison covers the decision log and every :class:`FleetMetrics`
field -- evaluations, cost-model hits and misses, router counters.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms.runtime import SearchBudget
from repro.core.clock import StepClock
from repro.core.migration import PENALTY_MODES, MigrationCostModel
from repro.service.controller import FleetController
from repro.service.scenarios import build_scenario, builtin_scenarios
from tests.oracles import use_retired_rebalance

#: Cheap enough that the hysteretic controller still moves, dear enough
#: that it declines some of the moves a blind controller takes.
MIGRATION = MigrationCostModel(
    state_bits_per_cycle=0.001, state_bits_base=1e5, downtime_s=0.001
)


def _replay(name, seed, retired=False, **overrides):
    scenario = build_scenario(name, seed=seed)
    config = dataclasses.replace(scenario.config, **overrides)
    with FleetController(
        scenario.network, config=config, clock=StepClock()
    ) as controller:
        if retired:
            use_retired_rebalance(controller)
        controller.run(scenario.events)
        return controller, controller.metrics()


def _assert_same(name, seed, **overrides):
    """Replay under both scans; return the production metrics."""
    controller, metrics = _replay(name, seed, **overrides)
    oracle, oracle_metrics = _replay(name, seed, retired=True, **overrides)
    assert controller.log.to_text() == oracle.log.to_text()
    assert metrics == oracle_metrics
    assert metrics.to_text() == oracle_metrics.to_text()
    return metrics


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("name", builtin_scenarios())
def test_builtin_replay_matches_retired_scan(name, seed):
    _assert_same(name, seed)


class TestConfigurations:
    @pytest.mark.parametrize("name,seed", [("drift", 0), ("geo", 3)])
    def test_transition_aware(self, name, seed):
        metrics = _assert_same(
            name, seed, migration=MIGRATION, migration_weight=0.5
        )
        blind, _ = _replay(name, seed, migration=MIGRATION)
        assert 0 < metrics.rebalance_moves < blind.metrics().rebalance_moves
        assert metrics.migration_paid > 0

    @pytest.mark.parametrize("mode", PENALTY_MODES)
    def test_penalty_modes(self, mode):
        metrics = _assert_same("diurnal", 3, penalty_mode=mode)
        assert metrics.rebalance_moves > 0

    def test_min_gain(self):
        metrics = _assert_same("surge", 3, rebalance_min_gain=1e-3)
        _, strict = _replay("surge", 3)
        assert 0 < metrics.rebalance_moves < strict.rebalance_moves

    def test_min_gain_with_migration(self):
        metrics = _assert_same(
            "drift",
            0,
            migration=MIGRATION,
            migration_weight=0.05,
            rebalance_min_gain=1e-4,
        )
        assert metrics.rebalance_moves > 0

    def test_parallel_pricing(self, monkeypatch):
        from repro.parallel.runtime import ParallelRuntime

        fanned = []
        original = ParallelRuntime.map_plain

        def counting(self, function, tasks):
            fanned.append(len(tasks))
            return original(self, function, tasks)

        monkeypatch.setattr(ParallelRuntime, "map_plain", counting)
        metrics = _assert_same("surge", 3, parallel_workers=2)
        assert fanned, "the multi-tenant pricing fan-out never engaged"
        assert metrics.rebalance_moves > 0

    @pytest.mark.parametrize("name,seed", [("surge", 3), ("geo", 3)])
    def test_eval_budget(self, name, seed):
        budget = SearchBudget(max_evals=100)
        _assert_same(name, seed, rebalance_budget=budget)
        controller, _ = _replay(name, seed, rebalance_budget=budget)
        assert "stopped=" in controller.log.to_text()


def test_cached_prices_cut_kernel_rows(monkeypatch):
    """Reusing prices across rounds sends fewer rows through the kernel."""
    from repro.core.batch import BatchEvaluator

    rows = {"count": 0}

    def counting(method):
        def wrapper(self, batch):
            rows["count"] += len(batch)
            return method(self, batch)

        return wrapper

    for name in ("evaluate", "execution"):
        monkeypatch.setattr(
            BatchEvaluator, name, counting(getattr(BatchEvaluator, name))
        )
    _replay("surge", 3)
    production = rows["count"]
    rows["count"] = 0
    _replay("surge", 3, retired=True)
    assert 0 < production < rows["count"]
