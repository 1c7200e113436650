"""Public entry points of the parallel layer.

:func:`deploy_parallel`
    One algorithm, raced against itself as parallel seeded restarts.
:func:`race_portfolio`
    Many algorithms racing under one shared budget -- the portfolio
    pattern: constructive seeds fanned into polishers, first target hit
    or global budget exhaustion ends the race, best deployment wins.

Both return a :class:`~repro.parallel.runtime.ParallelOutcome` and obey
the determinism contract: a fixed ``(seed, workers)`` pair reproduces
the same winner for eval-/step-capped and unbudgeted runs (wall-clock
deadlines and target stops are inherently timing-dependent across
processes; with an *inline* runtime even those are exact).
``workers=1`` is the serial escape hatch -- :func:`deploy_parallel`
then makes the exact
:meth:`~repro.algorithms.base.DeploymentAlgorithm.deploy_with_report`
call a non-parallel caller would make, byte-identical report included.
"""

from __future__ import annotations

import os
from typing import Any, Sequence

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.runtime import CancelToken, SearchBudget
from repro.core.clock import Clock
from repro.core.cost import CostModel
from repro.core.rng import coerce_rng
from repro.core.workflow import Workflow
from repro.exceptions import AlgorithmError
from repro.network.topology import ServerNetwork
from repro.parallel.rng import require_spawnable_seed, spawn_seed
from repro.parallel.runtime import (
    ParallelOutcome,
    ParallelReport,
    ParallelRuntime,
    WorkerRun,
    race,
)
from repro.parallel.specs import DEFAULT_PORTFOLIO, AlgorithmSpec, spec_label
from repro.parallel.worker import payload_from

__all__ = ["deploy_parallel", "race_portfolio", "default_workers"]


def default_workers() -> int:
    """The worker count used when callers pass ``workers=None``."""
    return max(1, os.cpu_count() or 1)


def _serial_outcome(
    entry: "AlgorithmSpec | DeploymentAlgorithm",
    workflow: Workflow,
    network: ServerNetwork,
    cost_model: CostModel | None,
    rng: Any,
    budget: SearchBudget | None,
    cancel: CancelToken | None,
    clock: Clock | None,
) -> ParallelOutcome:
    """The ``workers=1`` path: the exact serial call, wrapped.

    No ledger, no bridge, no seed spawning -- byte-identity with
    :meth:`~repro.algorithms.base.DeploymentAlgorithm.deploy_with_report`
    holds by construction, not by argument.
    """
    if cost_model is None:
        cost_model = CostModel(workflow, network)
    algorithm = entry.build() if isinstance(entry, AlgorithmSpec) else entry
    deployment, report = algorithm.deploy_with_report(
        workflow,
        network,
        cost_model=cost_model,
        rng=rng,
        budget=budget,
        cancel=cancel,
        clock=clock,
    )
    value = cost_model.objective(deployment)
    run = WorkerRun(
        index=0,
        label=spec_label(entry),
        deployment=deployment,
        value=value,
        report=report,
    )
    return ParallelOutcome(
        best=deployment,
        best_value=value,
        report=report,
        parallel=ParallelReport(
            plan="serial",
            workers=1,
            winner=0,
            runs=(run,),
            evaluations=report.evaluations if report is not None else 1,
        ),
    )


def deploy_parallel(
    algorithm: "AlgorithmSpec | DeploymentAlgorithm | str",
    workflow: Workflow,
    network: ServerNetwork,
    cost_model: CostModel | None = None,
    workers: int | None = None,
    seed: Any = None,
    budget: SearchBudget | None = None,
    target_value: float | None = None,
    cancel: CancelToken | None = None,
    runtime: ParallelRuntime | None = None,
    inline: bool = False,
    clock: Clock | None = None,
) -> ParallelOutcome:
    """Race *workers* seeded restarts of one algorithm; the best wins.

    Parameters mirror :meth:`~repro.algorithms.base.DeploymentAlgorithm.
    deploy_with_report` where they overlap; the parallel-specific knobs:

    ``algorithm``
        Registry name (``"Genetic"``, ``"HillClimbing@FL-TieResolver2"``),
        an :class:`~repro.parallel.specs.AlgorithmSpec`, or a picklable
        configured instance.
    ``workers``
        Shard width; defaults to the machine's CPU count. ``1`` makes
        the exact serial call (see module docs).
    ``seed``
        Root of the deterministic per-worker RNG streams. Must be a
        *spawnable* seed (int/str/None) when ``workers > 1`` -- a live
        ``random.Random`` has one stream and cannot be split.
    ``target_value``
        Stop everyone once any worker's incumbent reaches this
        objective value (stop reason ``"target"``).
    ``runtime``
        Reuse a caller-owned :class:`~repro.parallel.runtime.
        ParallelRuntime` (pool + manager); otherwise one is created for
        the call and closed afterwards.
    """
    entry = AlgorithmSpec.coerce(algorithm)
    if workers is None:
        workers = runtime.workers if runtime is not None else default_workers()
    SearchBudget.validate_count("workers", workers)
    if workers == 1 and runtime is None:
        return _serial_outcome(
            entry,
            workflow,
            network,
            cost_model,
            coerce_rng(seed),
            budget,
            cancel,
            clock,
        )
    seed = require_spawnable_seed(seed)
    payload = payload_from(workflow, network, cost_model)
    owned = runtime is None
    if runtime is None:
        runtime = ParallelRuntime(workers, inline=inline, clock=clock)
    label = spec_label(entry)
    racers = [
        (f"{label}#{index}", entry, spawn_seed(seed, "worker", index))
        for index in range(runtime.workers)
    ]
    try:
        return race(
            runtime,
            payload,
            racers,
            budget=budget,
            target_value=target_value,
            cancel=cancel,
            plan_label="restarts",
        )
    finally:
        if owned:
            runtime.close()


def race_portfolio(
    workflow: Workflow,
    network: ServerNetwork,
    portfolio: Sequence["AlgorithmSpec | DeploymentAlgorithm | str"] | None = None,
    cost_model: CostModel | None = None,
    workers: int | None = None,
    seed: Any = None,
    budget: SearchBudget | None = None,
    target_value: float | None = None,
    cancel: CancelToken | None = None,
    runtime: ParallelRuntime | None = None,
    inline: bool = False,
    clock: Clock | None = None,
) -> ParallelOutcome:
    """Race a portfolio of algorithms under one shared budget.

    The line-up defaults to :data:`~repro.parallel.specs.
    DEFAULT_PORTFOLIO`. With more workers than entries the portfolio
    wraps around (extra racers are fresh-seeded restarts of the line-up
    from the top); with fewer workers every entry still races, sharing
    the smaller pool. ``workers=1`` races the portfolio sequentially --
    same entries, same seeds, same merged outcome, no processes.
    """
    entries = [
        AlgorithmSpec.coerce(entry)
        for entry in (portfolio if portfolio is not None else DEFAULT_PORTFOLIO)
    ]
    if not entries:
        raise AlgorithmError("portfolio must name at least one algorithm")
    if workers is None:
        workers = runtime.workers if runtime is not None else default_workers()
    SearchBudget.validate_count("workers", workers)
    seed = require_spawnable_seed(seed)
    num_racers = max(workers, len(entries))
    racers = []
    for index in range(num_racers):
        entry = entries[index % len(entries)]
        label = spec_label(entry)
        if index >= len(entries):
            label = f"{label}#{index}"
        racers.append((label, entry, spawn_seed(seed, "racer", index)))
    payload = payload_from(workflow, network, cost_model)
    owned = runtime is None
    if runtime is None:
        runtime = ParallelRuntime(workers, inline=inline, clock=clock)
    try:
        return race(
            runtime,
            payload,
            racers,
            budget=budget,
            target_value=target_value,
            cancel=cancel,
            plan_label="portfolio",
        )
    finally:
        if owned:
            runtime.close()
