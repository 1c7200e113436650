"""repro.parallel -- multiprocess shard & portfolio search runtime.

A fan-out layer over the serial anytime
:class:`~repro.algorithms.runtime.SearchRuntime`: race seeded restarts
of one algorithm across worker processes, or race a portfolio of
algorithms under one evaluation/deadline budget with cooperative
cancellation and a merged anytime report. Deterministic by construction
-- worker RNG streams are pure functions of the root seed and each
worker's structural position, and every racer runs exactly its
pre-partitioned budget share -- so a fixed ``(seed, workers)`` pair
reproduces the same winner and the same per-racer reports for eval-
and step-capped runs, in a process pool and inline alike. See DESIGN
§11 for the protocol.
"""

from repro.parallel.api import (
    default_workers,
    deploy_parallel,
    race_portfolio,
)
from repro.parallel.budget import (
    STOP_TARGET,
    StopSignal,
    WorkerBridge,
    slice_budget,
)
from repro.parallel.rng import require_spawnable_seed, spawn_rng, spawn_seed
from repro.parallel.runtime import (
    ParallelOutcome,
    ParallelReport,
    ParallelRuntime,
    WorkerRun,
    merge_curves,
)
from repro.parallel.specs import DEFAULT_PORTFOLIO, AlgorithmSpec
from repro.parallel.worker import InstancePayload, payload_from

__all__ = [
    "deploy_parallel",
    "race_portfolio",
    "default_workers",
    "ParallelRuntime",
    "ParallelOutcome",
    "ParallelReport",
    "WorkerRun",
    "merge_curves",
    "AlgorithmSpec",
    "DEFAULT_PORTFOLIO",
    "slice_budget",
    "StopSignal",
    "WorkerBridge",
    "STOP_TARGET",
    "spawn_seed",
    "spawn_rng",
    "require_spawnable_seed",
    "InstancePayload",
    "payload_from",
]
