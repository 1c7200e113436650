"""Budget slicing, the race's stop signal and the worker bridge."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.algorithms.runtime import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    CancelToken,
    SearchBudget,
    SearchProgress,
)
from repro.parallel.budget import (
    POLL_EVERY,
    STOP_TARGET,
    StopSignal,
    WorkerBridge,
    slice_budget,
)


def _progress(evaluations, best_value=None):
    return SearchProgress(
        steps=evaluations,
        evaluations=evaluations,
        best_value=best_value,
        elapsed_s=0.0,
    )


class TestSliceBudget:
    def test_none_budget_passes_through(self):
        assert slice_budget(None, 4, 0) is None

    def test_even_division(self):
        budget = SearchBudget(max_evals=100)
        shares = [slice_budget(budget, 4, i).max_evals for i in range(4)]
        assert shares == [25, 25, 25, 25]

    def test_remainder_goes_to_lowest_indices(self):
        budget = SearchBudget(max_evals=10, max_steps=7)
        slices = [slice_budget(budget, 3, i) for i in range(3)]
        assert [s.max_evals for s in slices] == [4, 3, 3]
        assert [s.max_steps for s in slices] == [3, 2, 2]
        assert sum(s.max_evals for s in slices) == 10
        assert sum(s.max_steps for s in slices) == 7

    def test_floor_of_one_for_surplus_workers(self):
        budget = SearchBudget(max_evals=2)
        shares = [slice_budget(budget, 4, i).max_evals for i in range(4)]
        assert shares == [1, 1, 1, 1]

    def test_deadline_is_shared_not_divided(self):
        budget = SearchBudget(deadline_s=1.5, max_evals=8)
        share = slice_budget(budget, 4, 2)
        assert share.deadline_s == 1.5
        assert share.max_evals == 2

    def test_unlimited_dimensions_stay_unlimited(self):
        share = slice_budget(SearchBudget(max_evals=8), 2, 0)
        assert share.max_steps is None

    def test_index_out_of_range_rejected(self):
        budget = SearchBudget(max_evals=8)
        with pytest.raises(ValueError):
            slice_budget(budget, 2, 2)
        with pytest.raises(ValueError):
            slice_budget(budget, 2, -1)

    def test_pure_function_of_inputs(self):
        budget = SearchBudget(max_evals=1000, max_steps=99)
        assert slice_budget(budget, 8, 5) == slice_budget(budget, 8, 5)


class TestStopSignal:
    def test_first_stop_reason_sticks(self):
        stop = StopSignal()
        assert stop.reason == ""
        stop.request(STOP_CANCELLED)
        stop.request(STOP_TARGET)
        assert stop.reason == STOP_CANCELLED

    def test_first_reason_wins_through_a_manager_proxy(self):
        with multiprocessing.Manager() as manager:
            state = manager.dict()
            stop = StopSignal(state)
            assert stop.reason == ""
            stop.request(STOP_DEADLINE)
            StopSignal(state).request(STOP_TARGET)
            assert stop.reason == STOP_DEADLINE


class TestWorkerBridge:
    def test_target_stop_trips_signal_and_cancel(self):
        stop = StopSignal()
        cancel = CancelToken()
        bridge = WorkerBridge(stop, cancel, target_value=5.0)
        bridge(_progress(3, best_value=7.0))
        assert stop.reason == ""
        bridge(_progress(4, best_value=5.0))
        assert stop.reason == STOP_TARGET
        assert cancel.cancelled
        assert cancel.reason == STOP_TARGET

    def test_shared_stop_propagates_into_cancel_token(self):
        stop = StopSignal()
        cancel = CancelToken()
        bridge = WorkerBridge(stop, cancel)
        stop.request(STOP_CANCELLED)
        bridge(_progress(POLL_EVERY - 1))
        assert not cancel.cancelled  # read only once per POLL_EVERY
        bridge(_progress(POLL_EVERY))
        assert cancel.cancelled
        assert cancel.reason == STOP_CANCELLED

    def test_chain_callback_still_invoked(self):
        seen = []
        bridge = WorkerBridge(StopSignal(), CancelToken(), chain=seen.append)
        progress = _progress(1)
        bridge(progress)
        assert seen == [progress]
