"""Horizontal scale-out: hash tenants across controller shards.

One :class:`~repro.service.controller.FleetController` is a single
decision loop -- fine for one fleet, a bottleneck for many tenants. A
:class:`ShardRouter` runs *N* controllers side by side and routes every
tenant to exactly one of them by a **stable** hash of the tenant name
(:func:`shard_for` uses SHA-1, never Python's per-process-randomised
``hash``), so the same tenant lands on the same shard in every process
and every run -- routing is part of the determinism contract.

Events that concern a tenant (deploy/undeploy) go to that tenant's
shard only. Events that concern the fleet itself (server failures,
joins, ticks) broadcast to every shard: each shard sees the same
topology and recovers/rebalances its own tenants.

The global rebalance budget is divided, not copied: shard *i* receives
``slice_budget(budget, shards, i)`` (the same deterministic split the
parallel runtime uses for workers), so *N* shards together spend the
same optimisation budget one controller would have.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Callable

from repro.algorithms.runtime import slice_budget
from repro.exceptions import ServiceError
from repro.io.json_codec import network_from_dict, network_to_dict
from repro.network.topology import ServerNetwork
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    DeployRequest,
    FleetEvent,
    UndeployRequest,
)
from repro.service.log import LogRecord
from repro.service.state import FleetSnapshot

__all__ = ["shard_for", "ShardRouter"]


def shard_for(tenant: str, shards: int) -> int:
    """The shard index *tenant* hashes to -- stable across processes.

    SHA-1 of the UTF-8 name modulo *shards*; deliberately not Python's
    ``hash``, whose per-process randomisation would re-route every
    tenant on restart and break replay determinism.
    """
    if shards < 1:
        raise ServiceError(f"shard count must be >= 1, got {shards}")
    digest = hashlib.sha1(tenant.encode("utf-8")).hexdigest()
    return int(digest, 16) % shards


class ShardRouter:
    """*N* controllers behind one ``handle()`` -- tenants hashed across.

    Parameters
    ----------
    network:
        The initial fleet topology. Every shard starts from its own
        deep copy (controllers mutate their network on join/failure).
    config:
        The fleet configuration; each shard runs a copy whose
        ``rebalance_budget`` is that shard's
        :func:`~repro.algorithms.runtime.slice_budget` share of the global
        budget.
    shards:
        Number of controller instances (>= 1).
    clock_factory:
        Called once per shard to build its clock (``None`` keeps each
        controller's default). A factory -- not a shared clock -- so
        deterministic shards don't interleave their step counters.
    """

    def __init__(
        self,
        network: ServerNetwork,
        config: FleetConfig | None = None,
        shards: int = 2,
        clock_factory: Callable[[], Callable[[], float]] | None = None,
    ):
        if shards < 1:
            raise ServiceError(f"shard count must be >= 1, got {shards}")
        config = config or FleetConfig()
        network_doc = network_to_dict(network)
        self.shards = shards
        self.configs: tuple[FleetConfig, ...] = tuple(
            replace(
                config,
                rebalance_budget=slice_budget(
                    config.rebalance_budget, shards, index
                ),
            )
            for index in range(shards)
        )
        self.controllers: tuple[FleetController, ...] = tuple(
            FleetController(
                network_from_dict(network_doc),
                config=self.configs[index],
                clock=clock_factory() if clock_factory is not None else None,
            )
            for index in range(shards)
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, tenant: str) -> int:
        """The shard index serving *tenant*."""
        return shard_for(tenant, self.shards)

    def controller_for(self, tenant: str) -> FleetController:
        """The controller instance serving *tenant*."""
        return self.controllers[self.shard_of(tenant)]

    def targets(self, event: FleetEvent) -> tuple[int, ...]:
        """The shard indices an event goes to (all, for fleet events)."""
        if isinstance(event, (DeployRequest, UndeployRequest)):
            return (self.shard_of(event.tenant),)
        return tuple(range(self.shards))

    def handle(self, event: FleetEvent) -> tuple[tuple[int, LogRecord], ...]:
        """Route *event*; return ``(shard, record)`` per shard reached."""
        return tuple(
            (index, self.controllers[index].handle(event))
            for index in self.targets(event)
        )

    def run(
        self, events: "list[FleetEvent] | tuple[FleetEvent, ...]"
    ) -> tuple[tuple[int, LogRecord], ...]:
        """Route a whole event trace; return every ``(shard, record)``."""
        results: list[tuple[int, LogRecord]] = []
        for event in events:
            results.extend(self.handle(event))
        return tuple(results)

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    def snapshots(self) -> tuple[FleetSnapshot, ...]:
        """Each shard's current snapshot, in shard order."""
        return tuple(
            controller.state.snapshot() for controller in self.controllers
        )

    def tenants(self) -> dict[str, int]:
        """Every hosted tenant mapped to its shard index."""
        placement: dict[str, int] = {}
        for index, controller in enumerate(self.controllers):
            for tenant in controller.state.tenants:
                placement[tenant] = index
        return dict(sorted(placement.items()))

    def total_objective(self) -> float:
        """Sum of the shard objectives (the fleet-of-fleets cost)."""
        return sum(snapshot.objective for snapshot in self.snapshots())
