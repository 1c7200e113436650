"""Benchmark: the fleet's greedy rebalance, production vs retired scan.

Replays the seeded ``surge`` and ``geo`` scenarios twice through the
fleet controller: once with the production
``FleetController._greedy_moves`` (each candidate pair priced once per
call through ``BatchEvaluator.execution``, each round scored in one
vectorised pass) and once with the retired per-candidate scan frozen in
``tests/oracles.py`` (every round re-prices every candidate through the full
kernel, then scores one candidate at a time).

Asserted on every run, smoke included, because both are exact
functions of the seed:

* the two replays' decision logs and ``FleetMetrics`` are identical
  (the rewrite must never change a move or a counter);
* the production path sends at least ``BENCH_FLOOR_REBALANCE_ROWS``
  times fewer rows through the kernel than the retired scan.

The wall-clock ratio of the time spent inside ``_greedy_moves`` is
recorded always and asserted against ``BENCH_FLOOR_REBALANCE`` only in
full runs (hardware-dependent). Results land in
``output/BENCH_rebalance.json``. ``BENCH_SMOKE=1`` times one replay per
path instead of the best of three.
"""

import time

from repro.core.batch import BatchEvaluator
from repro.core.clock import StepClock
from repro.service.controller import FleetController
from repro.service.scenarios import build_scenario
from tests.oracles import use_retired_rebalance

from _common import SMOKE, emit, perf_floor, write_json

SCENARIOS = ("surge", "geo")
SEED = 3
REPEATS = 1 if SMOKE else 3

#: Kernel-row floor, retired / production (deterministic: seeded
#: replay, counted rows).
ROWS_FLOOR = perf_floor("REBALANCE_ROWS", 1.5)
#: Wall-clock floor on time inside ``_greedy_moves``, retired /
#: production (hardware-dependent; skipped in smoke, 0 disables).
WALL_FLOOR = perf_floor("REBALANCE", 1.2)

_RESULTS: dict = {
    "smoke": SMOKE,
    "seed": SEED,
    "repeats": REPEATS,
    "rows_floor": ROWS_FLOOR,
    "wall_floor": WALL_FLOOR,
}


def _replay(name: str, retired: bool):
    """One replay; ``(log text, metrics, kernel rows, greedy seconds)``."""
    scenario = build_scenario(name, seed=SEED)
    controller = FleetController(
        scenario.network, config=scenario.config, clock=StepClock()
    )
    if retired:
        use_retired_rebalance(controller)
    greedy = controller._greedy_moves
    spent = [0.0]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return greedy(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - start

    controller._greedy_moves = timed
    rows = [0]
    methods = {
        name: getattr(BatchEvaluator, name)
        for name in ("evaluate", "execution")
    }

    def counting(method):
        def wrapper(self, batch):
            rows[0] += len(batch)
            return method(self, batch)

        return wrapper

    try:
        for method_name, method in methods.items():
            setattr(BatchEvaluator, method_name, counting(method))
        controller.run(scenario.events)
    finally:
        for method_name, method in methods.items():
            setattr(BatchEvaluator, method_name, method)
    return controller.log.to_text(), controller.metrics(), rows[0], spent[0]


def bench_rebalance(benchmark):
    """Greedy rebalance: production vs retired per-candidate scan."""
    benchmark(lambda: _replay(SCENARIOS[0], retired=False))
    lines = []
    for name in SCENARIOS:
        runs = {}
        for retired in (False, True):
            results = [_replay(name, retired) for _ in range(REPEATS)]
            log, metrics, rows, _ = results[0]
            runs[retired] = (log, metrics, rows, min(r[3] for r in results))
        log, metrics, rows, wall = runs[False]
        old_log, old_metrics, old_rows, old_wall = runs[True]
        assert log == old_log, f"{name}: rebalance decisions diverged"
        assert metrics == old_metrics, f"{name}: fleet counters diverged"
        rows_ratio = old_rows / rows
        wall_ratio = old_wall / wall if wall > 0 else float("inf")
        _RESULTS[name] = {
            "rebalance_moves": metrics.rebalance_moves,
            "placement_evaluations": metrics.placement_evaluations,
            "kernel_rows": rows,
            "retired_kernel_rows": old_rows,
            "rows_ratio": rows_ratio,
            "greedy_wall_s": wall,
            "retired_greedy_wall_s": old_wall,
            "wall_ratio": wall_ratio,
        }
        lines.append(
            f"{name:6s} seed {SEED}: {metrics.rebalance_moves:3d} moves, "
            f"kernel rows {old_rows:7d} -> {rows:7d} ({rows_ratio:5.2f}x), "
            f"_greedy_moves {old_wall * 1e3:8.1f} -> {wall * 1e3:8.1f} ms "
            f"({wall_ratio:5.2f}x)"
        )
        write_json("BENCH_rebalance", _RESULTS)
        if ROWS_FLOOR > 0:
            assert rows_ratio >= ROWS_FLOOR, (
                f"{name}: price cache saved too few kernel rows: "
                f"{rows_ratio:.2f}x < floor {ROWS_FLOOR:.2f}x"
            )
        if not SMOKE and WALL_FLOOR > 0:
            assert wall_ratio >= WALL_FLOOR, (
                f"{name}: rebalance too slow: {wall_ratio:.2f}x < floor "
                f"{WALL_FLOOR:.2f}x"
            )
    emit(
        "rebalance",
        "retired per-candidate scan -> production (identical decisions)"
        + (" (smoke)" if SMOKE else ""),
        *lines,
        f"row floor {ROWS_FLOOR:.2f}x (asserted); wall floor "
        f"{WALL_FLOOR:.2f}x ("
        + ("not asserted in smoke)" if SMOKE else "asserted)"),
    )
