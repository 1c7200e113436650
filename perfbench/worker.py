"""One workload process: import, warm up, run the closed loop, check.

Started by ``run.py`` in a fresh interpreter with every BLAS/OpenMP
pool pinned to one thread, and ``src`` on ``PYTHONPATH``. Modes:

``setup``
    Import and serve one warm-up request, then report the set-up time
    (spawn to ready, input generation excluded) and stop.
``run``
    The same set-up, then the timed closed loop: one client, no think
    time, the next request issued when the previous one returns. With
    ``--trace 1`` the loop runs the workload's exact request prefix
    twice, untraced and then traced, and reports the per-layer table.
``fingerprint``
    Print the input fingerprint of each seed in ``spec.FINGERPRINT_SEEDS``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORK_DIR = HERE / "results" / "work"
#: Exact prefixes must finish even on a much slower program, but the
#: process must still end well inside its 180 s limit.
HARD_STOP_S = 140.0


def derive(*parts) -> int:
    """A stable 31-bit seed from *parts* (same parts, same seed)."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def percentile(ordered: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a sorted, non-empty list."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def canonical(document) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


@contextmanager
def recording(tracer):
    """Record spans inside the block (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


class Loop:
    """Book-keeping of one closed-loop phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.generate_s = 0.0

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(what)


# ----------------------------------------------------------------------
# deploy workloads
# ----------------------------------------------------------------------
class DeployWorkload:
    """Fresh seeded workflow + fresh seeded network per request."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.config = spec.WORKLOADS[name]
        from repro.core.cost import CostModel
        from repro.parallel import deploy_parallel
        from repro.scenarios import random_geo_network
        from repro.workloads.generator import (
            GraphStructure,
            random_bus_network,
            random_graph_workflow,
        )

        self._cost_model = CostModel
        self._deploy = deploy_parallel
        self._workflow = lambda s: random_graph_workflow(
            self.config["operations"], GraphStructure.HYBRID, seed=s
        )
        if name == "deploy-bus":
            self._network = lambda s: random_bus_network(10, seed=s)
        else:
            self._network = lambda s: random_geo_network(
                5, servers_per_region=10, seed=s
            )

    def make(self, index):
        algorithms = self.config["algorithms"]
        key = (self.name, self.seed, index)
        return (
            self._workflow(derive(*key, "workflow")),
            self._network(derive(*key, "network")),
            algorithms[index % len(algorithms)],
            derive(*key, "search"),
        )

    @staticmethod
    def document(request) -> dict:
        from repro.io.json_codec import network_to_dict, workflow_to_dict

        workflow, network, algorithm, search_seed = request
        return {
            "workflow": workflow_to_dict(workflow),
            "network": network_to_dict(network),
            "algorithm": algorithm,
            "seed": search_seed,
        }

    def serve(self, request):
        """The call ``repro deploy`` makes, serially."""
        workflow, network, algorithm, search_seed = request
        return self._deploy(
            algorithm,
            workflow,
            network,
            cost_model=self._cost_model(workflow, network),
            workers=1,
            seed=search_seed,
        )

    def check(self, request, outcome) -> float:
        """Validate the mapping; return its objective, freshly priced."""
        workflow, network, _, _ = request
        mapping = outcome.best.as_dict()
        missing = set(workflow.operation_names) - set(mapping)
        if missing:
            raise AssertionError(f"unmapped operations {sorted(missing)[:3]}")
        unknown = set(mapping.values()) - set(network.server_names)
        if unknown:
            raise AssertionError(f"unknown servers {sorted(unknown)[:3]}")
        value = self._cost_model(workflow, network).objective(outcome.best)
        if not math.isfinite(value):
            raise AssertionError(f"non-finite objective {value!r}")
        return value

    def warm_up(self) -> float:
        """Serve one request outside the timed set; return its generation time."""
        start = time.perf_counter()
        request = self.make(-1)
        generate_s = time.perf_counter() - start
        self.check(request, self.serve(request))
        return generate_s

    def loop(self, loop: Loop, count: int | None, deadline: float,
             tracer=None, fingerprint=None) -> dict:
        """Serve requests 0, 1, ... until *deadline* and at least *count*."""
        exact = self.config["exact_requests"]
        objectives: list[float] = []
        hard_stop = time.monotonic() + HARD_STOP_S
        index = 0
        while True:
            now = time.monotonic()
            if count is not None and index >= count:
                break
            if count is None and index >= exact and now >= deadline:
                break
            if now >= hard_stop:
                break
            start = time.perf_counter()
            request = self.make(index)
            loop.generate_s += time.perf_counter() - start
            if fingerprint is not None and index < exact:
                fingerprint.update(canonical(self.document(request)))
            loop.attempted += 1
            if tracer is not None:
                tracer.request_id = index
            try:
                with recording(tracer):
                    start = time.perf_counter()
                    if tracer is not None:
                        outcome = tracer.call(
                            "request", True, self.serve, (request,), {}
                        )
                    else:
                        outcome = self.serve(request)
                    elapsed = time.perf_counter() - start
                loop.latencies.append(elapsed)
                value = self.check(request, outcome)
            except Exception as exc:  # counted, never fatal
                loop.fail(f"request {index}: {type(exc).__name__}: {exc}")
                value = math.nan
            if index < exact:
                objectives.append(value)
            index += 1
        complete = len(objectives) == exact and all(map(math.isfinite, objectives))
        return {
            "objective": statistics.fmean(objectives) if complete else None,
        }

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for index in range(self.config["exact_requests"]):
            digest.update(canonical(self.document(self.make(index))))
        return digest.hexdigest()


# ----------------------------------------------------------------------
# fleet workload
# ----------------------------------------------------------------------
class FleetWorkload:
    """Rotations of the seven builtin scenarios, checkpoint and restore."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.config = spec.WORKLOADS[name]
        from repro.service import checkpoint
        from repro.service.controller import FleetController, StepClock
        from repro.service.events import DeployRequest
        from repro.service.scenarios import build_scenario

        self._checkpoint = checkpoint
        self._controller = FleetController
        self._clock = StepClock
        self._deploy_request = DeployRequest
        self._build = build_scenario
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self._path = WORK_DIR / f"checkpoint-{os.getpid()}.json"

    def make(self, rotation: int, scenario: str):
        built = self._build(
            scenario, seed=derive(self.name, self.seed, rotation, scenario)
        )
        if built.config.parallel_workers != 1:
            raise AssertionError(f"{scenario}: parallel_workers != 1")
        return built

    def document(self, scenario) -> dict:
        from repro.io.json_codec import network_to_dict

        checkpoint = self._checkpoint
        return {
            "name": scenario.name,
            "network": network_to_dict(scenario.network),
            "config": checkpoint.config_to_dict(scenario.config),
            "events": [checkpoint.event_to_dict(e) for e in scenario.events],
        }

    def replay(self, scenario, loop: Loop | None, tracer=None) -> dict:
        """Replay one scenario, checkpoint it and restore it verified."""
        controller = self._controller(
            scenario.network, config=scenario.config, clock=self._clock()
        )
        if tracer is not None:
            tracer.controllers.append(controller)
        events = scenario.events
        failed_before = loop.failed if loop is not None else 0
        try:
            for event in events:
                if loop is not None:
                    loop.attempted += 1
                try:
                    with recording(tracer):
                        start = time.perf_counter()
                        controller.handle(event)
                        elapsed = time.perf_counter() - start
                    if loop is not None:
                        loop.latencies.append(elapsed)
                except Exception as exc:  # counted, never fatal
                    if loop is None:
                        raise
                    loop.fail(f"{scenario.name} {event.kind}: {exc}")
            metrics = controller.metrics()
            deploys = sum(isinstance(e, self._deploy_request) for e in events)
            result = {
                "objective": metrics.final_objective,
                "admitted": metrics.admitted,
                "deploys": deploys,
            }
            if not math.isfinite(result["objective"]):
                raise AssertionError(f"{scenario.name}: non-finite objective")
            if metrics.admitted + metrics.rejected != deploys:
                raise AssertionError(
                    f"{scenario.name}: admitted {metrics.admitted} + rejected "
                    f"{metrics.rejected} != {deploys} deploy events"
                )
            with recording(tracer):
                self._checkpoint.write_checkpoint(controller, self._path)
                start = time.perf_counter()
                restored, _ = self._checkpoint.restore_controller(self._path)
                result["restore_s"] = time.perf_counter() - start
            restored.close()
            return result
        except Exception as exc:  # a failed check fails the whole replay
            if loop is None:
                raise
            # every event of a replay whose output check failed counts
            # as failed, once
            already = loop.failed - failed_before
            loop.fail(f"{scenario.name}: {type(exc).__name__}: {exc}",
                      len(events) - already)
            return {}
        finally:
            controller.close()
            self._path.unlink(missing_ok=True)

    def warm_up(self) -> float:
        """Replay one deploy request outside the timed set, checkpoint it
        and restore it; return the generation time."""
        start = time.perf_counter()
        scenario = self._build("steady", seed=derive(self.name, self.seed, "warm"))
        first = next(
            e for e in scenario.events if isinstance(e, self._deploy_request)
        )
        scenario = dataclasses.replace(scenario, events=(first,))
        generate_s = time.perf_counter() - start
        self.replay(scenario, None)
        return generate_s

    def loop(self, loop: Loop, count: int | None, deadline: float,
             tracer=None, fingerprint=None) -> dict:
        exact = self.config["exact_rotations"]
        scenarios = self.config["scenarios"]
        hard_stop = time.monotonic() + HARD_STOP_S
        exact_results: list[dict] = []
        restore_per_rotation: list[float] = []
        rotation = 0
        while True:
            now = time.monotonic()
            if count is not None and rotation >= count:
                break
            if count is None and rotation >= exact and now >= deadline:
                break
            if now >= hard_stop:
                break
            restore_s = 0.0
            complete = True
            for name in scenarios:
                start = time.perf_counter()
                scenario = self.make(rotation, name)
                loop.generate_s += time.perf_counter() - start
                if fingerprint is not None and rotation < exact:
                    fingerprint.update(canonical(self.document(scenario)))
                if tracer is not None:
                    tracer.request_id = f"{rotation}/{name}"
                result = self.replay(scenario, loop, tracer)
                if not result:
                    complete = False
                    continue
                restore_s += result["restore_s"]
                if rotation < exact:
                    exact_results.append(result)
            if complete:
                restore_per_rotation.append(restore_s)
            rotation += 1
        whole = len(exact_results) == exact * len(scenarios)
        deploys = sum(r["deploys"] for r in exact_results)
        return {
            "objective": (
                statistics.fmean(r["objective"] for r in exact_results)
                if whole else None
            ),
            "admitted_share": (
                sum(r["admitted"] for r in exact_results) / deploys
                if whole and deploys else None
            ),
            "restore_s": (
                statistics.median(restore_per_rotation)
                if restore_per_rotation else None
            ),
            "rotations": rotation,
        }

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for rotation in range(self.config["exact_rotations"]):
            for name in self.config["scenarios"]:
                digest.update(canonical(self.document(self.make(rotation, name))))
        return digest.hexdigest()


def workload(name: str, seed: int):
    if name == "fleet":
        return FleetWorkload(name, seed)
    return DeployWorkload(name, seed)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def timed_imports() -> dict:
    """Cold-import the entry modules; incremental seconds per step."""
    times = {}
    start = time.perf_counter()
    import repro  # noqa: F401

    times["import.repro_s"] = time.perf_counter() - start
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    times["import.cli_s"] = time.perf_counter() - start
    start = time.perf_counter()
    import repro.service.checkpoint  # noqa: F401
    import repro.service.scenarios  # noqa: F401

    times["import.service_s"] = time.perf_counter() - start
    return times


def set_up(args) -> tuple[object, dict]:
    """Import, build the workload, warm up; return it and the timings."""
    imports = timed_imports()
    start = time.perf_counter()
    subject = workload(args.workload, args.seed)
    entry_s = time.perf_counter() - start
    warm_generate_s = subject.warm_up()
    ready = time.monotonic()
    return subject, {
        "setup_s": ready - args.spawned_at - warm_generate_s,
        "entry_import_s": entry_s,
        "warmup_generate_s": warm_generate_s,
        **imports,
    }


def summarize(loop: Loop, tail_pct: float) -> dict:
    ordered = sorted(loop.latencies)
    if not ordered:
        return {}
    beyond = sum(1 for value in ordered if value > percentile(ordered, tail_pct))
    return {
        "requests": len(ordered),
        "throughput_rps": len(ordered) / math.fsum(ordered),
        "latency_p50_ms": 1e3 * percentile(ordered, 50.0),
        "latency_tail_ms": 1e3 * percentile(ordered, tail_pct),
        "latency_tail_pct": tail_pct,
        "latency_tail_beyond": beyond,
    }


def layer_table(tracer, loop: Loop) -> dict:
    """The per-layer metrics of spec.MOVES from a traced phase."""
    agg = tracer.aggregates
    counts = tracer.counts

    def calls(name):
        return agg[name].calls if name in agg else 0

    def total_ms(name):
        return 1e3 * agg[name].total_s if name in agg else 0.0

    def self_ms(name):
        return 1e3 * agg[name].self_s if name in agg else 0.0

    def p50_ms(name):
        durations = agg[name].durations if name in agg else None
        return 1e3 * statistics.median(durations) if durations else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    routes = tracer.counts
    table = {
        "workloads.generate_s": loop.generate_s,
        "compiled.build_calls": calls("compiled.build"),
        "compiled.build_ms": total_ms("compiled.build"),
        "routing.query_calls": calls("routing.query"),
        "routing.query_ms": total_ms("routing.query"),
        "routing.hit_ratio": ratio(
            routes.get("routing.hits", 0),
            routes.get("routing.hits", 0) + routes.get("routing.misses", 0),
        ),
        "routing.dijkstra_runs": routes.get("routing.dijkstra_runs", 0),
        "routing.compile_all_pairs_calls": calls("routing.compile_all_pairs"),
        "routing.compile_all_pairs_ms": total_ms("routing.compile_all_pairs"),
        "routing.invalidate_calls": calls("routing.invalidate"),
        "routing.invalidate_ms": total_ms("routing.invalidate"),
        "routing.pairs_invalidated": routes.get("routing.pairs_invalidated", 0),
        "routing.pairs_recomputed": routes.get("routing.pairs_recomputed", 0),
        "cost.evaluate_calls": calls("cost.evaluate"),
        "cost.evaluate_ms": total_ms("cost.evaluate"),
        "incremental.propose_calls": calls("incremental.propose"),
        "incremental.propose_ms": total_ms("incremental.propose"),
        "incremental.commit_calls": calls("incremental.commit"),
        "incremental.accept_ratio": ratio(
            calls("incremental.commit"), calls("incremental.propose")
        ),
        "incremental.resync_calls": calls("incremental.resync"),
        "batch.init_ms": total_ms("batch.init"),
        "batch.evaluate_calls": calls("batch.evaluate"),
        "batch.evaluate_ms": total_ms("batch.evaluate"),
        "batch.rows_scored": counts.get("batch.rows_scored", 0),
        "runtime.run_calls": calls("runtime.run"),
        "runtime.self_ms": self_ms("runtime.run"),
        "runtime.steps": counts.get("runtime.steps", 0),
        "runtime.evaluations": counts.get("runtime.evaluations", 0),
        "runtime.accept_ratio": ratio(
            counts.get("runtime.accepted", 0), counts.get("runtime.steps", 0)
        ),
    }
    for name in spec.TRACED_ALGORITHMS:
        span = f"algorithms.{name}"
        table[f"{span}.calls"] = calls(span)
        table[f"{span}.p50_ms"] = p50_ms(span)
        table[f"{span}.self_ms"] = self_ms(span)
    for kind in spec.SERVICE_KINDS:
        table[f"service.{kind}.count"] = calls(f"service.{kind}")
        table[f"service.{kind}.p50_ms"] = p50_ms(f"service.{kind}")
    table["checkpoint.write_ms"] = total_ms("checkpoint.write")
    table["checkpoint.bytes"] = counts.get("checkpoint.bytes", 0)
    table["checkpoint.restore_ms"] = total_ms("checkpoint.restore")
    table["checkpoint.restore_events"] = counts.get(
        "checkpoint.restore_events", 0
    )
    return table


def fleet_counters(tracer) -> dict:
    """Service-level counters the controllers keep themselves."""
    controllers = tracer.controllers
    hits = sum(c.state.cost_model_hits for c in controllers)
    misses = sum(c.state.cost_model_misses for c in controllers)
    return {
        "service.placement_evaluations": sum(c.evaluations for c in controllers),
        "service.rebalance_moves": sum(
            c.metrics().rebalance_moves for c in controllers
        ),
        "service.cost_model_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
    }


def run(args) -> dict:
    subject, setup = set_up(args)
    config = spec.WORKLOADS[args.workload]
    exact = config.get("exact_requests", config.get("exact_rotations"))
    fingerprint = hashlib.sha256()
    loop = Loop()
    deadline = time.monotonic() + args.seconds
    if args.trace:
        # the exact prefix, untraced then traced: same requests, so the
        # difference is the tracing overhead
        outcome = subject.loop(loop, exact, deadline, fingerprint=fingerprint)
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = Loop()
        try:
            subject.loop(traced, exact, deadline, tracer=tracer)
        finally:
            tracer.uninstall()
        layers = layer_table(tracer, traced)
        layers.update(fleet_counters(tracer))
        layers.update({k: v for k, v in setup.items() if k.startswith("import.")})
        untraced = summarize(loop, config["tail_pct"])
        with_trace = summarize(traced, config["tail_pct"])
        if untraced and with_trace:
            layers["trace.untraced_p50_ms"] = untraced["latency_p50_ms"]
            layers["trace.traced_p50_ms"] = with_trace["latency_p50_ms"]
            layers["trace.overhead_pct"] = 100.0 * (
                with_trace["latency_p50_ms"] / untraced["latency_p50_ms"] - 1
            )
            layers["trace.traced_throughput_rps"] = with_trace["throughput_rps"]
            layers["trace.untraced_throughput_rps"] = untraced["throughput_rps"]
        spans_path = HERE / "results" / "spans" / (
            f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        )
        layers["trace.spans_written"] = tracer.write_spans(spans_path)
        layers["trace.spans_dropped"] = tracer.dropped_spans
        result = {"per_layer": layers, "spans_path": str(spans_path)}
        loop.attempted += traced.attempted
        loop.failed += traced.failed
        loop.errors += traced.errors
    else:
        extra = subject.loop(loop, None, deadline, fingerprint=fingerprint)
        result = {**extra, **summarize(loop, config["tail_pct"])}
        result["generate_s"] = loop.generate_s
    result["fingerprint"] = fingerprint.hexdigest()
    if args.seed != spec.CANARY_SEED:
        result["canary_fingerprint"] = workload(
            args.workload, spec.CANARY_SEED
        ).fingerprint()
    else:
        result["canary_fingerprint"] = result["fingerprint"]
    result.update(
        setup=setup,
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=versions(),
    )
    return result


def versions() -> dict:
    import networkx
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "fingerprint"))
    parser.add_argument("--workload", required=True, choices=spec.ALL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    if args.mode == "setup":
        _, result = set_up(args)
    elif args.mode == "run":
        result = run(args)
    else:
        result = {
            str(seed): workload(args.workload, seed).fingerprint()
            for seed in spec.FINGERPRINT_SEEDS
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
