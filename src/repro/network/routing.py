"""Message routing over a server network.

``Path(s, s')`` in Table 1 is the route a message follows between two
servers, and ``Tcomm`` sums transmission plus propagation time along that
route. On the paper's topologies routes are trivial (a bus connects every
pair directly, a line has a unique path), but the router works on any
connected network by picking the route that minimises total delivery time
for the given message size -- which can depend on the size: a large
message may prefer a longer path of fast links over a short path with a
slow hop.

The delivery time of a fixed path is affine in the message size::

    time(path, size) = sum(propagation) + size * sum(1/speed)

so a path that simultaneously minimises both coefficients is optimal for
*every* message size. The router classifies every server pair and caches
the two coefficients per ``(source, target)`` -- after which any message
size is answered in O(1) without touching Dijkstra and without growing
the cache. Only genuinely size-dependent pairs (a short slow path versus
a long fast one, where neither dominates) fall back to a bounded
per-size cache.

The route table is *whole by construction*: the first query (every
:class:`~repro.core.compiled.CompiledInstance` built over the router
makes one) runs :meth:`Router.compile_all_pairs`, which classifies every
pair on the compiled kernel in :mod:`repro.network.apsp` --
integer-indexed adjacency with precomputed weights, networkx-faithful
tie-breaking -- in at most ``2 * (S - 1)`` single-source passes (fewer
when the dense fast path certifies rows of a complete graph). Each pair
is *built in canonical direction* (the endpoint that comes first in the
network's server order is the Dijkstra source), so both directions of a
pair hold bit-identical coefficients.

The router is the *single owner of path selection*: every route-delay
consumer -- :class:`~repro.core.compiled.CompiledInstance`'s route table
(and through it ``CostModel``/``MoveEvaluator``/``BatchEvaluator``),
the simulator, the fleet -- reads paths and affine coefficients from
here, over arbitrary weighted graphs with heterogeneous per-link speeds
and propagation delays. Nothing downstream assumes a uniform bus or a
line; those are just the easy special cases.

Cache effectiveness is observable through :attr:`Router.hits` /
:attr:`Router.misses` / :attr:`Router.hit_rate`; recompute effort
through :attr:`Router.dijkstra_runs`, :attr:`Router.pairs_invalidated`
and :attr:`Router.pairs_recomputed`. Link parameters may change at
runtime (the fleet's link failure/degradation events);
:meth:`Router.invalidate` then drops every route and recompiles the
whole table at once. Link events are rare next to pricing queries, so
one refresh path for every kind of change is the whole policy -- see
DESIGN.md §15.

Between mutations the network is treated as frozen.
"""

from __future__ import annotations

from repro.network import apsp
from repro.network.topology import ServerNetwork

__all__ = ["Router"]

#: Per-size fallback entries kept for size-*dependent* server pairs
#: before the oldest half is evicted (bounds memory on adversarial
#: workloads; size-independent pairs never consume these entries).
SIZED_CACHE_LIMIT = 4096


class Router:
    """Shortest-delivery-time routing with per-pair memoisation.

    Parameters
    ----------
    network:
        The server network to route over. The router snapshots the
        topology on first use (into a
        :class:`repro.network.apsp.CompiledGraph`) and assumes links do
        not change until :meth:`invalidate`.

    Attributes
    ----------
    hits, misses:
        Cache counters over non-co-located queries: a *hit* is answered
        from the per-pair (or per-size fallback) cache, a *miss* runs
        Dijkstra -- the first query's whole-table compile, or one
        per-size fallback pass.
    dijkstra_runs:
        Cumulative single-source Dijkstra passes executed (table
        compiles and per-size fallbacks alike) -- the unit of routing
        work the benchmarks compare.
    pairs_invalidated, pairs_recomputed:
        Cumulative counts over :meth:`invalidate` calls: how many cached
        pairs were dropped, and how many were eagerly recomputed.
    """

    def __init__(self, network: ServerNetwork):
        self._network = network
        self._graph: apsp.CompiledGraph | None = None
        self._route_cache: dict[tuple[str, str], apsp.PairRoute] = {}
        self._sized_path_cache: dict[tuple[str, str, float], tuple[str, ...]] = {}
        self._coefficient_rows = self._empty_rows()
        self._compiled_all = False
        self.hits = 0
        self.misses = 0
        self.dijkstra_runs = 0
        self.pairs_invalidated = 0
        self.pairs_recomputed = 0

    @property
    def network(self) -> ServerNetwork:
        """The network this router operates on."""
        return self._network

    @property
    def hit_rate(self) -> float:
        """Fraction of non-co-located queries served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # compiled-graph plumbing
    # ------------------------------------------------------------------
    def _compiled_graph(self) -> apsp.CompiledGraph:
        graph = self._graph
        if graph is None:
            graph = self._graph = apsp.compile_graph(self._network)
        return graph

    def _empty_rows(self) -> list[list[tuple[float, float] | tuple[()] | None]]:
        """Coefficient rows with only the co-located diagonal filled."""
        n = len(self._network.server_names)
        rows: list[list[tuple[float, float] | tuple[()] | None]] = [
            [None] * n for _ in range(n)
        ]
        for i in range(n):
            rows[i][i] = (0.0, 0.0)
        return rows

    def _store(
        self, a: str, b: str, record: apsp.PairRoute
    ) -> None:
        """Cache one classified canonical pair (both directions)."""
        index = self._compiled_graph().index
        coefficients = (
            (record.propagation_s, record.transfer_s_per_bit)
            if record.size_independent
            else ()
        )
        self._coefficient_rows[index[a]][index[b]] = coefficients
        self._coefficient_rows[index[b]][index[a]] = coefficients
        self._route_cache[(a, b)] = record
        # symmetric network: the reverse path is optimal in reverse,
        # with the *same* coefficient floats
        self._route_cache[(b, a)] = apsp.PairRoute(
            record.path[::-1],
            record.propagation_s,
            record.transfer_s_per_bit,
            record.size_independent,
        )

    def _route(self, source: str, target: str) -> apsp.PairRoute:
        """The classified route of a non-co-located pair (one query).

        A miss compiles the whole table: it only happens on a router
        that has not been compiled yet, so the first query pays for
        every pair and every later classified-pair query is a hit.
        """
        route = self._route_cache.get((source, target))
        if route is None:
            self._network.server(source)
            self._network.server(target)
            self.misses += 1
            self.compile_all_pairs()
            route = self._route_cache[(source, target)]
        elif route.size_independent:
            self.hits += 1
        return route

    def _sized_path(self, source: str, target: str, size_bits: float) -> tuple[str, ...]:
        """Per-size fallback for size-dependent pairs (bounded cache)."""
        key = (source, target, size_bits)
        cached = self._sized_path_cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        graph = self._compiled_graph()
        index = graph.index
        path = graph.to_names(
            apsp.shortest_sized_path(graph, index[source], index[target], size_bits)
        )
        self.dijkstra_runs += 1
        self._store_sized(key, path)
        return path

    def _store_sized(
        self, key: tuple[str, str, float], path: tuple[str, ...]
    ) -> None:
        """Cache one sized path (both directions, bounded)."""
        if len(self._sized_path_cache) >= SIZED_CACHE_LIMIT:
            # drop the oldest half; simple and O(1) amortised
            for stale in list(self._sized_path_cache)[: SIZED_CACHE_LIMIT // 2]:
                del self._sized_path_cache[stale]
        source, target, size_bits = key
        self._sized_path_cache[key] = path
        self._sized_path_cache[(target, source, size_bits)] = path[::-1]

    def _sized_time(self, path: tuple[str, ...], size_bits: float) -> float:
        graph = self._compiled_graph()
        index = graph.index
        propagation, transfer = graph.coefficients(
            tuple(index[name] for name in path)
        )
        return propagation + size_bits * transfer

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    def path(self, source: str, target: str, size_bits: float = 0.0) -> tuple[str, ...]:
        """``Path(s, s')``: server names along the fastest route.

        A message of zero size is routed by propagation delay alone (with
        hop count as the tie-breaker via Dijkstra's behaviour). Source and
        target equal yields the single-element path ``(source,)``.
        """
        self._network.server(source)
        self._network.server(target)
        if source == target:
            return (source,)
        route = self._route(source, target)
        if route.size_independent:
            return route.path
        return self._sized_path(source, target, size_bits)

    def transmission_time(
        self, source: str, target: str, size_bits: float
    ) -> float:
        """``Ttrans`` along the best path: sum of per-link size/speed + Trefl.

        Zero when source and target coincide (co-located operations talk
        through local memory, the paper's key lever for saving cost).
        Size-independent pairs are answered from the cached affine
        coefficients in O(1) regardless of how many distinct message
        sizes are queried.
        """
        if source == target:
            return 0.0
        route = self._route(source, target)
        if route.size_independent:
            return route.time(size_bits)
        path = self._sized_path(source, target, size_bits)
        return self._sized_time(path, size_bits)

    def transmission_times(
        self, pairs: list[tuple[str, str]], size_bits: float
    ) -> list[float]:
        """:meth:`transmission_time` for many pairs at one message size.

        Returns the delivery times in input order, byte-identical to
        per-pair calls made in the same order -- but the sized-Dijkstra
        fallbacks of size-dependent pairs are *grouped*: one full
        single-source sized pass per distinct source answers every
        queried target at once, instead of one targeted run per pair.
        (A full pass finalises exactly the paths the targeted runs
        would; the early break only stops sooner.) The hit/miss
        counters match the sequential calls too: a queued pair that an
        earlier queued pair's (reverse-direction) store would have
        answered is counted as the cache hit it would have been. This
        is the bulk entry point
        :class:`~repro.core.batch.BatchEvaluator` uses to fill and
        refresh its dense per-size delay matrices.
        """
        times: list[float] = [0.0] * len(pairs)
        queued: dict[str, list[tuple[int, str]]] = {}
        queued_keys: set[tuple[str, str]] = set()
        for slot, (source, target) in enumerate(pairs):
            if source == target:
                continue
            route = self._route(source, target)
            if route.size_independent:
                times[slot] = route.time(size_bits)
                continue
            cached = self._sized_path_cache.get((source, target, size_bits))
            if cached is not None:
                self.hits += 1
                times[slot] = self._sized_time(cached, size_bits)
            else:
                # counters are settled here, in query order: if this
                # pair (either direction) is already queued, a
                # sequential call at this position would be answered
                # from the earlier miss's store -- a hit
                if (source, target) in queued_keys:
                    self.hits += 1
                else:
                    self.misses += 1
                    queued_keys.add((source, target))
                    queued_keys.add((target, source))
                queued.setdefault(source, []).append((slot, target))
        if not queued:
            return times
        graph = self._compiled_graph()
        index = graph.index
        for source, wanted in queued.items():  # insertion (= query) order
            pending: list[tuple[int, str]] = []
            for slot, target in wanted:
                # an earlier group's reverse-direction store may already
                # have answered this pair, exactly as a sequential query
                # after it would have hit the cache (already counted as
                # a hit at queue time above)
                path = self._sized_path_cache.get((source, target, size_bits))
                if path is not None:
                    times[slot] = self._sized_time(path, size_bits)
                else:
                    pending.append((slot, target))
            if not pending:
                continue
            paths = apsp.sized_source_paths(
                graph,
                index[source],
                [index[target] for _slot, target in pending],
                size_bits,
            )
            self.dijkstra_runs += 1
            for slot, target in pending:
                path = graph.to_names(paths[index[target]])
                self._store_sized((source, target, size_bits), path)
                times[slot] = self._sized_time(path, size_bits)
        return times

    def pair_coefficients(
        self, source: str, target: str
    ) -> tuple[float, float] | None:
        """``(propagation_s, transfer_s_per_bit)`` for a size-independent pair.

        The per-server-pair transmission-time table entry shared with the
        incremental move evaluator: ``time = a + b * size`` for every
        message size. Returns ``None`` for size-dependent pairs (the
        caller must fall back to :meth:`transmission_time`). Co-located
        pairs are ``(0.0, 0.0)``.
        """
        if source == target:
            return (0.0, 0.0)
        route = self._route(source, target)
        if route.size_independent:
            return (route.propagation_s, route.transfer_s_per_bit)
        return None

    def cached_route(
        self, source: str, target: str
    ) -> apsp.PairRoute | None:
        """The cached entry for a pair, without counting a query.

        ``None`` until the table is compiled.
        """
        return self._route_cache.get((source, target))

    def coefficient_rows(
        self,
    ) -> list[list[tuple[float, float] | tuple[()] | None]]:
        """The route table as dense rows, without counting a query.

        ``rows[i][j]`` holds the ``(propagation_s, transfer_s_per_bit)``
        pair of the servers at positions *i* and *j* of the network's
        server order, ``()`` for a size-dependent pair (price it per
        size through :meth:`transmission_time`), and ``None`` until the
        table is compiled. Co-located entries are ``(0.0, 0.0)``. Both
        directions share one tuple: canonical-direction builds make the
        floats exact either way. The bulk-read form of the table for
        :class:`~repro.core.compiled.CompiledInstance`; read-only -- copy
        the rows, never mutate them.
        """
        return self._coefficient_rows

    def hop_count(self, source: str, target: str, size_bits: float = 0.0) -> int:
        """Number of links on the chosen route (0 when co-located)."""
        return len(self.path(source, target, size_bits)) - 1

    def cache_size(self) -> int:
        """Number of cached route entries (pairs plus sized fallbacks)."""
        return len(self._route_cache) + len(self._sized_path_cache)

    # ------------------------------------------------------------------
    # batched compilation and invalidation
    # ------------------------------------------------------------------
    def compile_all_pairs(self) -> int:
        """Classify every server pair; returns the pairs compiled.

        One batched sweep: at most two single-source Dijkstra passes per
        source server (the dense direct-dominance certificate skips
        whole passes on complete graphs), instead of two *targeted* runs
        per pair. A table that is already whole -- compiled, and kept
        whole by :meth:`invalidate` -- returns 0 at once. The table is
        stored only once every pair classified, so a disconnected
        network raises :class:`~repro.exceptions.DisconnectedNetworkError`
        and leaves nothing half-filled.
        """
        if self._compiled_all:
            return 0
        graph = self._compiled_graph()
        names = graph.names
        dense = apsp.dense_dominance(graph)
        compiled: list[tuple[str, str, apsp.PairRoute]] = []
        runs = 0
        for si in range(len(names) - 1):
            routes, source_runs = apsp.compile_source_routes(
                graph, si, range(si + 1, len(names)), dense
            )
            runs += source_runs
            for ti, record in routes.items():
                compiled.append((names[si], names[ti], record))
        self.dijkstra_runs += runs
        for a, b, record in compiled:
            self._store(a, b, record)
        self._compiled_all = True
        return len(compiled)

    def invalidate(self) -> None:
        """Eagerly refresh routes after a link change.

        Drops every cached route -- classified pairs and per-size
        fallbacks alike -- and recompiles the whole table via
        :meth:`compile_all_pairs` over a fresh snapshot of the links.
        Any link change (a failure, a degrade, an upgrade, a new link)
        can re-route any pair, and link events are rare next to
        pricing queries, so one whole-table refresh serves them all.
        Hit/miss counters are preserved (this is maintenance, not
        traffic); the work done lands in :attr:`dijkstra_runs`,
        :attr:`pairs_invalidated` and :attr:`pairs_recomputed`.
        """
        invalidated = len(self._route_cache) // 2
        self._drop_all_routes()
        recomputed = self.compile_all_pairs()
        self.pairs_invalidated += invalidated
        self.pairs_recomputed += recomputed

    def _drop_all_routes(self) -> None:
        self._route_cache.clear()
        self._sized_path_cache.clear()
        self._coefficient_rows = self._empty_rows()
        self._graph = None
        self._compiled_all = False

    def reset_counters(self) -> None:
        """Zero every telemetry counter (caches are left alone)."""
        self.hits = 0
        self.misses = 0
        self.dijkstra_runs = 0
        self.pairs_invalidated = 0
        self.pairs_recomputed = 0
