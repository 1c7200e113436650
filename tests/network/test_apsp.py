"""Unit tests for the batched all-pairs routing kernel."""

import pytest

from repro.exceptions import DisconnectedNetworkError
from repro.network import apsp
from repro.network.topology import Server, ServerNetwork


def _diamond():
    """S0-S1-S3 fast two-hop vs S0-S2-S3 low-latency two-hop."""
    network = ServerNetwork("diamond")
    network.add_servers([Server(f"S{i}", 1e9) for i in range(4)])
    network.connect("S0", "S1", 1e9, propagation_s=0.010)
    network.connect("S1", "S3", 1e9, propagation_s=0.010)
    network.connect("S0", "S2", 1e6, propagation_s=0.001)
    network.connect("S2", "S3", 1e6, propagation_s=0.001)
    return network


def _tied_diamond():
    """S0-S2-S3 slow vs S0-S1-S3 fast, equal propagation on both.

    The slow branch is linked first, so the propagation pass keeps it on
    the tie; the fast branch dominates on transfer at equal propagation.
    """
    network = ServerNetwork("tied-diamond")
    network.add_servers([Server(f"S{i}", 1e9) for i in range(4)])
    network.connect("S0", "S2", 1e6, propagation_s=0.001)
    network.connect("S0", "S1", 1e9, propagation_s=0.001)
    network.connect("S2", "S3", 1e6, propagation_s=0.001)
    network.connect("S1", "S3", 1e9, propagation_s=0.001)
    return network


def _complete(speeds=(100e6, 50e6, 25e6)):
    """A complete triangle with heterogeneous link speeds."""
    network = ServerNetwork("triangle")
    network.add_servers([Server(f"S{i}", 1e9) for i in range(3)])
    network.connect("S0", "S1", speeds[0], propagation_s=0.001)
    network.connect("S0", "S2", speeds[1], propagation_s=0.002)
    network.connect("S1", "S2", speeds[2], propagation_s=0.003)
    return network


class TestCompiledGraph:
    def test_snapshot_shape(self):
        graph = apsp.compile_graph(_diamond())
        assert graph.names == ("S0", "S1", "S2", "S3")
        assert len(graph) == 4
        assert not graph.is_complete()
        assert apsp.compile_graph(_complete()).is_complete()

    def test_coefficients_fold_matches_link_params(self):
        network = _diamond()
        graph = apsp.compile_graph(network)
        propagation, transfer = graph.coefficients((0, 1, 3))
        assert propagation == 0.010 + 0.010
        assert transfer == 1.0 / 1e9 + 1.0 / 1e9

    def test_edge_maps_mirror_adjacency(self):
        graph = apsp.compile_graph(_diamond())
        for row, edges in zip(graph.adjacency, graph.edges):
            assert list(edges) == [u for u, *_ in row]
            for u, propagation, inv, _speed in row:
                assert edges[u] == (propagation, inv)

    def test_to_names(self):
        graph = apsp.compile_graph(_diamond())
        assert graph.to_names((0, 2, 3)) == ("S0", "S2", "S3")


class TestDijkstra:
    def test_propagation_weight_prefers_low_latency(self):
        graph = apsp.compile_graph(_diamond())
        routes, _ = apsp.compile_source_routes(graph, 0, [3])
        assert routes[3].path == ("S0", "S2", "S3")
        assert not routes[3].size_independent

    def test_transfer_weight_prefers_fast_links(self):
        graph = apsp.compile_graph(_tied_diamond())
        routes, _ = apsp.compile_source_routes(graph, 0, [3])
        record = routes[3]
        assert record.path == ("S0", "S1", "S3")
        assert record.size_independent
        assert (record.propagation_s, record.transfer_s_per_bit) == (
            graph.coefficients((0, 1, 3))
        )

    def test_matches_networkx(self):
        import networkx as nx

        network = _diamond()
        graph = apsp.compile_graph(network)
        g = network.graph

        def prop(a, b, _):
            return network.link(a, b).propagation_s

        for source in range(4):
            targets = [t for t in range(4) if t != source]
            routes, _ = apsp.compile_source_routes(graph, source, targets)
            for target in targets:
                expected = tuple(
                    nx.dijkstra_path(
                        g,
                        graph.names[source],
                        graph.names[target],
                        weight=prop,
                    )
                )
                assert routes[target].path == expected

    def test_disconnected_raises(self):
        network = ServerNetwork("disc")
        network.add_servers([Server("A", 1e9), Server("B", 1e9)])
        graph = apsp.compile_graph(network)
        with pytest.raises(DisconnectedNetworkError):
            apsp.compile_source_routes(graph, 0, [1])

    def test_full_pass_equals_targeted_queries(self):
        graph = apsp.compile_graph(_diamond())
        size = 50_000.0
        paths = apsp.sized_source_paths(graph, 0, [1, 2, 3], size)
        for target in (1, 2, 3):
            assert paths[target] == apsp.shortest_sized_path(
                graph, 0, target, size
            )


class TestClassification:
    def test_dominant_pair_is_size_independent(self):
        graph = apsp.compile_graph(_complete())
        routes, runs = apsp.compile_source_routes(graph, 0, [1, 2])
        assert runs <= 2
        assert routes[1].size_independent
        assert routes[1].path == ("S0", "S1")

    def test_size_dependent_pair_keeps_both_paths(self):
        graph = apsp.compile_graph(_diamond())
        routes, _ = apsp.compile_source_routes(graph, 0, [3])
        record = routes[3]
        assert not record.size_independent
        # the size-0 optimum is the representative ...
        assert record.path == ("S0", "S2", "S3")
        assert (record.propagation_s, record.transfer_s_per_bit) == (
            graph.coefficients((0, 2, 3))
        )
        # ... and a large message still finds the fast branch per size
        assert apsp.shortest_sized_path(graph, 0, 3, 1e9) == (0, 1, 3)


class TestDenseFastPath:
    def test_dense_requires_complete_graph(self):
        assert apsp.dense_dominance(apsp.compile_graph(_diamond())) is None

    def test_dense_certificate_matches_dijkstra(self):
        pytest.importorskip("numpy")
        graph = apsp.compile_graph(_complete())
        dense = apsp.dense_dominance(graph)
        assert dense is not None
        with_dense, dense_runs = apsp.compile_source_routes(
            graph, 0, [1, 2], dense
        )
        without, full_runs = apsp.compile_source_routes(graph, 0, [1, 2])
        assert dense_runs <= full_runs
        assert with_dense == without

    def test_dense_skips_only_dominant_rows(self):
        pytest.importorskip("numpy")
        # S0-S2 relayed via S1 beats the slow direct link: row 0 must
        # NOT be certified for the transfer weight
        network = _complete(speeds=(1e9, 1e6, 1e9))
        graph = apsp.compile_graph(network)
        dense = apsp.dense_dominance(graph)
        assert dense is not None
        assert not dense.row_ok(0, apsp.WEIGHT_TRANSFER)
        routes, _ = apsp.compile_source_routes(graph, 0, [2], dense)
        plain, _ = apsp.compile_source_routes(graph, 0, [2])
        assert routes == plain
