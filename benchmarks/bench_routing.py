"""Benchmark: batched route compilation and link-scoped invalidation.

Two experiments over the routing layer (see DESIGN.md §15):

* **compile** -- filling the full all-pairs route table of a 50-server
  geo fleet (complete, heterogeneous graph) two ways: the retired lazy
  path (every pair classified by its own targeted Dijkstra queries,
  frozen in ``tests/oracles.py``) versus
  :meth:`~repro.network.routing.Router.compile_all_pairs` (per-source
  sweeps plus the dense direct-dominance fast path). Both tables must
  be *byte-identical*; the compiled path must win on Dijkstra count
  (deterministic -- asserted even in smoke) and on wall clock
  (hardware-dependent -- asserted only in full runs, floor env-tunable
  via ``BENCH_FLOOR_ROUTING``).

* **invalidation** -- replaying the seeded ``abilene`` scenario under
  the production ``scoped`` route invalidation versus the retired
  ``lazy`` mode (drop every route cache and refill per pair on demand,
  frozen in ``tests/oracles.py``) and summing the router's Dijkstra runs
  across the link events (brownouts/failures). Scoped invalidation recomputes only the pairs
  whose classification paths crossed a changed link, so it must spend
  at least ``BENCH_FLOOR_ROUTING_EVENTS`` times fewer runs per link
  event -- a deterministic, seeded count asserted even in smoke. The
  two replays' decision logs must match byte for byte (route
  maintenance must never change a decision).

Results land in ``output/BENCH_routing.json``. ``BENCH_SMOKE=1`` runs
the compile arm on a smaller 20-server fleet and skips only the
wall-clock floor.
"""

import os
import time

from repro.core.clock import StepClock
from repro.network.routing import Router
from repro.scenarios import random_geo_network
from repro.service.controller import FleetController
from repro.service.scenarios import build_scenario
from tests.oracles import lazy_router, use_route_invalidation

from _common import emit, perf_floor, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Compile arm: regions x servers-per-region of the geo fleet.
REGIONS = 5
SERVERS_PER_REGION = 4 if SMOKE else 10
SCENARIO = "abilene"
SEED = 0

#: Wall-clock floor for full-table compile vs lazy per-pair fill
#: (hardware-dependent; skipped in smoke, env-tunable, 0 disables).
COMPILE_WALL_FLOOR = perf_floor("ROUTING", 3.0)
#: Dijkstra-count floor for the same comparison (deterministic).
COMPILE_RUNS_FLOOR = perf_floor("ROUTING_RUNS", 5.0)
#: Per-link-event Dijkstra-count floor, scoped vs full invalidation
#: (deterministic: seeded replay, counted work).
EVENTS_RUNS_FLOOR = perf_floor("ROUTING_EVENTS", 5.0)

_RESULTS: dict = {
    "smoke": SMOKE,
    "regions": REGIONS,
    "servers_per_region": SERVERS_PER_REGION,
    "scenario": SCENARIO,
    "seed": SEED,
    "compile_wall_floor": COMPILE_WALL_FLOOR,
    "compile_runs_floor": COMPILE_RUNS_FLOOR,
    "events_runs_floor": EVENTS_RUNS_FLOOR,
}


def _flush_results() -> None:
    write_json("BENCH_routing", _RESULTS)


def _geo_network():
    return random_geo_network(
        REGIONS,
        servers_per_region=SERVERS_PER_REGION,
        seed=SEED,
        name="bench-routing",
    )


def _route_table(router: Router) -> dict:
    """Every pair's ``(path, coefficients, classification)`` snapshot."""
    names = router.network.server_names
    table = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            route = router.cached_route(a, b)
            table[(a, b)] = (
                route.path,
                route.propagation_s,
                route.transfer_s_per_bit,
                route.size_independent,
            )
    return table


def _lazy_fill(network) -> tuple[Router, float]:
    """The per-pair path: classify every pair through its own queries."""
    router = lazy_router(Router(network))
    names = network.server_names
    start = time.perf_counter()
    for a in names:
        for b in names:
            if a != b:
                router.pair_coefficients(a, b)
    return router, time.perf_counter() - start


def _compiled_fill(network) -> tuple[Router, float]:
    router = Router(network)
    start = time.perf_counter()
    router.compile_all_pairs()
    return router, time.perf_counter() - start


def bench_routing_compile(benchmark):
    """Full-table compile vs lazy per-pair fill on a geo fleet."""
    network = _geo_network()
    servers = len(network.server_names)

    benchmark(lambda: _compiled_fill(_geo_network()))

    lazy_router, lazy_wall = _lazy_fill(_geo_network())
    compiled_router, compiled_wall = _compiled_fill(_geo_network())

    # exactness: both fills produce the identical route table
    assert _route_table(lazy_router) == _route_table(compiled_router), (
        "compile_all_pairs diverged from the per-pair lazy fill"
    )

    lazy_runs = lazy_router.dijkstra_runs
    compiled_runs = compiled_router.dijkstra_runs
    runs_ratio = (
        lazy_runs / compiled_runs if compiled_runs else float("inf")
    )
    wall_ratio = lazy_wall / compiled_wall if compiled_wall > 0 else float("inf")

    _RESULTS["compile_servers"] = servers
    _RESULTS["compile_lazy_runs"] = lazy_runs
    _RESULTS["compile_batched_runs"] = compiled_runs
    # None, not Infinity: the dense fast path can certify every row of
    # a complete graph, leaving zero runs -- keep the JSON standard
    _RESULTS["compile_runs_ratio"] = runs_ratio if compiled_runs else None
    _RESULTS["compile_lazy_wall_s"] = lazy_wall
    _RESULTS["compile_batched_wall_s"] = compiled_wall
    _RESULTS["compile_wall_ratio"] = wall_ratio
    _flush_results()

    emit(
        "routing_compile",
        f"{servers}-server geo fleet (seed {SEED})"
        + (" (smoke)" if SMOKE else ""),
        f"lazy per-pair fill:    {lazy_runs:6d} Dijkstra runs "
        f"{lazy_wall * 1e3:9.2f} ms",
        f"compile_all_pairs:     {compiled_runs:6d} Dijkstra runs "
        f"{compiled_wall * 1e3:9.2f} ms",
        f"Dijkstra-count ratio:  {runs_ratio:8.2f}x "
        f"(floor {COMPILE_RUNS_FLOOR:.2f})",
        f"wall-clock ratio:      {wall_ratio:8.2f}x "
        f"(floor {COMPILE_WALL_FLOOR:.2f}, "
        + ("not asserted in smoke)" if SMOKE else "asserted)"),
    )
    if COMPILE_RUNS_FLOOR > 0:
        assert runs_ratio >= COMPILE_RUNS_FLOOR, (
            f"batched compile saved too few Dijkstra runs: "
            f"{runs_ratio:.2f}x < floor {COMPILE_RUNS_FLOOR:.2f}x"
        )
    if not SMOKE and COMPILE_WALL_FLOOR > 0:
        assert wall_ratio >= COMPILE_WALL_FLOOR, (
            f"batched compile too slow: {wall_ratio:.2f}x < floor "
            f"{COMPILE_WALL_FLOOR:.2f}x"
        )


LINK_EVENTS = ("link-failed", "link-degraded")


def _replay_counting(mode: str):
    """Replay abilene under *mode*; per-link-event Dijkstra-run deltas."""
    scenario = build_scenario(SCENARIO, seed=SEED)
    controller = FleetController(
        scenario.network, config=scenario.config, clock=StepClock()
    )
    use_route_invalidation(controller, mode)
    link_runs = 0
    link_events = 0
    for event in scenario.events:
        before = controller.state.router_dijkstra_runs
        controller.handle(event)
        if event.kind in LINK_EVENTS:
            link_runs += controller.state.router_dijkstra_runs - before
            link_events += 1
    return controller, link_runs, link_events


def bench_routing_invalidation(benchmark):
    """Dijkstra runs per link event: scoped vs full invalidation."""

    def run_both():
        return _replay_counting("scoped"), _replay_counting("lazy")

    benchmark(run_both)

    (scoped, scoped_runs, events), (lazy, lazy_runs, _) = run_both()

    # route maintenance must never change a fleet decision
    assert scoped.log.to_text() == lazy.log.to_text(), (
        "scoped and full invalidation produced different decision logs"
    )

    ratio = lazy_runs / scoped_runs if scoped_runs else float("inf")
    scoped_metrics = scoped.metrics()

    _RESULTS["events_link_count"] = events
    _RESULTS["events_scoped_runs"] = scoped_runs
    _RESULTS["events_full_runs"] = lazy_runs
    _RESULTS["events_runs_ratio"] = ratio
    _RESULTS["events_scoped_total_runs"] = scoped_metrics.route_dijkstra_runs
    _RESULTS["events_pairs_invalidated"] = (
        scoped_metrics.route_pairs_invalidated
    )
    _RESULTS["events_pairs_recomputed"] = (
        scoped_metrics.route_pairs_recomputed
    )
    _flush_results()

    emit(
        "routing_invalidation",
        f"scenario {SCENARIO!r} (seed {SEED}), {events} link events"
        + (" (smoke)" if SMOKE else ""),
        f"full invalidation:     {lazy_runs:6d} Dijkstra runs on link events",
        f"scoped invalidation:   {scoped_runs:6d} Dijkstra runs on link "
        f"events ({scoped_metrics.route_pairs_invalidated} pairs "
        f"invalidated, {scoped_metrics.route_pairs_recomputed} recomputed)",
        f"per-event run ratio:   {ratio:8.2f}x "
        f"(floor {EVENTS_RUNS_FLOOR:.2f})",
    )
    if EVENTS_RUNS_FLOOR > 0:
        assert ratio >= EVENTS_RUNS_FLOOR, (
            f"scoped invalidation saved too few Dijkstra runs: "
            f"{ratio:.2f}x < floor {EVENTS_RUNS_FLOOR:.2f}x"
        )
