"""Fault injection: a worker that crashes mid-search.

A racer's exception must reach the caller unchanged, and the race's
stop signal must be left as it was: a crash is not a stop reason.
"""

from __future__ import annotations

import pytest

from repro.algorithms.runtime import SearchProgress
from repro.core.cost import CostModel
from repro.network.topology import bus_network
from repro.parallel.budget import StopSignal
from repro.parallel.worker import (
    SearchTask,
    payload_from,
    run_search_task,
)

from ..service.conftest import make_line


@pytest.fixture
def payload():
    workflow = make_line("faulty", [10e6, 20e6, 30e6, 40e6])
    network = bus_network([1e9, 1e9, 2e9], 1e8)
    return payload_from(workflow, network, CostModel(workflow, network))


class _CrashingAlgorithm:
    """Reports progress a few times, then dies mid-search."""

    name = "Crasher"

    def __init__(self, evaluations_before_crash: int):
        self.evaluations_before_crash = evaluations_before_crash

    def deploy_with_report(self, workflow, network, **kwargs):
        on_progress = kwargs["on_progress"]
        for done in range(1, self.evaluations_before_crash + 1):
            on_progress(
                SearchProgress(
                    steps=done,
                    evaluations=done,
                    best_value=None,
                    elapsed_s=0.0,
                )
            )
        raise RuntimeError("worker crashed mid-search")


class TestSearchTaskCrash:
    @pytest.mark.parametrize("evaluations", [0, 300])
    def test_crash_propagates_to_the_caller(self, payload, evaluations):
        stop = StopSignal()
        task = SearchTask(
            index=0,
            label="crash",
            payload=payload,
            algorithm=_CrashingAlgorithm(evaluations),
            seed=0,
        )
        with pytest.raises(RuntimeError, match="crashed"):
            run_search_task(task, stop)
        assert stop.reason == ""
