"""Tests for graph construction, file ingestion, generators, and oracles."""

import gc
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from netdecomp.graphs import (
    Graph,
    GraphError,
    _bfs_idx,
    bfs_tree,
    edge_entries,
    generate_graph,
    induced_edges,
    induced_subgraph,
    largest_component,
    load_graph,
    paused_gc,
    quotient,
    random_weights,
    save_graph_json,
    voronoi_cells,
)
from references import all_pairs_distances, connected_components, log_star, power_graph


def path5():
    return generate_graph("path", {"n": 5}, seed=0)


class TestLoadGraph:
    def test_smallest_nonempty(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("2 1\n0 1\n")
        g = load_graph(str(p))
        assert g.n == 2
        assert g.edges_by_id() == [(0, 1)]

    def test_triangle(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("3 3\n0 1\n1 2\n0 2\n")
        g = load_graph(str(p))
        assert g.n == 3 and g.m == 3
        assert g.max_degree == 2

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("2 2\n0 1\n0 0\n")
        with pytest.raises(GraphError):
            load_graph(str(p))

    def test_duplicate_edge_rejected(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("3 2\n0 1\n1 0\n")
        with pytest.raises(GraphError):
            load_graph(str(p))

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("2 1\n0 x\n")
        with pytest.raises(GraphError, match="line 2"):
            load_graph(str(p))

    def test_weights_and_comments(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("# weighted\n3 2\n0 1 1/2\n1 2 3/4\n")
        g = load_graph(str(p))
        assert g.weights[(0, 1)] == Fraction(1, 2)

    def test_duplicate_weight_rejected(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("3 2\n0 1 1/2\n1 2 1/2\n")
        with pytest.raises(GraphError):
            load_graph(str(p))

    def test_json_roundtrip(self, tmp_path):
        g = random_weights(generate_graph("gnp", {"n": 20, "p": 0.2}, seed=3), seed=1)
        p = tmp_path / "g.json"
        save_graph_json(g, str(p))
        g2 = load_graph(str(p), fmt="json")
        assert g2 == g

    @pytest.mark.parametrize("case", ["weighted", "unweighted", "ids near 2^128"])
    def test_json_writer_bytes_unchanged(self, case, tmp_path):
        g = generate_graph("gnp", {"n": 60, "p": 0.1}, seed=2)
        if case == "weighted":
            g = random_weights(g, seed=2)
        elif case == "ids near 2^128":
            g = g.relabeled({v: 2**128 - 1 - 7919 * v for v in g.ids}, id_bits=130)
        p = tmp_path / "g.json"
        save_graph_json(g, str(p))
        # the writer as it was: edge_indices order, streamed by json.dump
        edges = []
        for a, b in g.edge_indices():
            e = [g.ids[a], g.ids[b]]
            if g.weights is not None:
                e.append(str(g.weights[(a, b)]))
            edges.append(e)
        want = io.StringIO()
        json.dump({"nodes": list(g.ids), "edges": edges, "id_bits": g.id_bits}, want)
        assert g.m > 0 and p.read_text() == want.getvalue()
        assert load_graph(str(p), fmt="json") == g

    def test_json_loader_restores_the_collector(self, tmp_path):
        p = tmp_path / "g.json"
        save_graph_json(path5(), str(p))
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [0, 1]}')
        assert gc.isenabled()
        load_graph(str(p), fmt="json")
        assert gc.isenabled()
        with pytest.raises(GraphError):
            load_graph(str(bad), fmt="json")
        assert gc.isenabled()
        gc.disable()
        try:
            load_graph(str(p), fmt="json")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_paused_gc_restores_the_setting(self):
        with paused_gc():
            assert not gc.isenabled()
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
        with pytest.raises(KeyError), paused_gc():
            raise KeyError("x")
        assert gc.isenabled()

    def test_json_arbitrary_ids(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"nodes": [7, 1000000, 3], "edges": [[7, 3], [3, 1000000]]}')
        g = load_graph(str(p), fmt="json")
        assert g.ids == (3, 7, 1000000)
        assert g.id_bits == 20


class TestGenerateGraph:
    def test_path(self):
        g = path5()
        assert g.edges_by_id() == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_clique(self):
        g = generate_graph("clique", {"n": 4}, seed=0)
        assert g.m == 6

    def test_gnp_deterministic(self):
        a = generate_graph("gnp", {"n": 100, "p": 0.05}, seed=7)
        b = generate_graph("gnp", {"n": 100, "p": 0.05}, seed=7)
        assert a == b

    def test_gnp_largest_component(self):
        g = generate_graph(
            "gnp", {"n": 80, "p": 0.02, "largest_component": True}, seed=5
        )
        assert len(connected_components(g)) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32),
    )
    def test_gnp_rows_equal_the_all_pairs_mask(self, n, p, seed):
        # the generator draws row by row; drawing every pair of
        # triu_indices at once must give the same graph
        rng = np.random.default_rng(seed)
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        expected = Graph(range(n), zip(iu[mask].tolist(), ju[mask].tolist()))
        g = generate_graph("gnp", {"n": n, "p": p}, seed)
        assert g.ids == expected.ids and g.neighbors == expected.neighbors

    def test_grid_and_tree(self):
        grid = generate_graph("grid", {"rows": 3, "cols": 4}, seed=0)
        assert grid.n == 12 and grid.m == 3 * 3 + 2 * 4
        tree = generate_graph("tree", {"n": 30}, seed=2)
        assert tree.m == 29 and len(connected_components(tree)) == 1

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            generate_graph("gnp", {"n": 10, "p": 1.5}, seed=0)
        with pytest.raises(GraphError):
            generate_graph("nope", {}, seed=0)


class TestDistances:
    def test_path_endpoint(self):
        assert _bfs_idx(path5(), [0])[4] == 4

    def test_clique_all_at_one(self):
        g = generate_graph("clique", {"n": 4}, seed=0)
        assert _bfs_idx(g, [0])[1:] == [1, 1, 1]

    def test_grid_corner_to_corner(self):
        # Oracle: unit-weight Dijkstra, computed independently.
        g = generate_graph("grid", {"rows": 5, "cols": 5}, seed=0)
        expect = _dijkstra_unit(g, 0)
        assert expect[24] == 8
        assert _bfs_idx(g, [0]) == expect

    def test_cap(self):
        d = _bfs_idx(path5(), [0], cap=2)
        assert d[2] == 2 and d[3] == -1

    def test_unknown_source(self):
        with pytest.raises(GraphError, match="unknown node 99"):
            path5().index_of(99)


def _dijkstra_unit(g: Graph, src_idx: int) -> list:
    import heapq

    dist = [math.inf] * g.n
    dist[src_idx] = 0
    pq = [(0, src_idx)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v in g.neighbors[u]:
            if d + 1 < dist[v]:
                dist[v] = d + 1
                heapq.heappush(pq, (dist[v], v))
    return dist


class TestPowerGraph:
    def test_k1_identity(self):
        g = generate_graph("gnp", {"n": 30, "p": 0.1}, seed=1)
        assert power_graph(g, 1) == g

    def test_p5_squared_middle_degree(self):
        g2 = power_graph(path5(), 2)
        assert len(g2.neighbors[2]) == 4

    def test_p5_fourth_power_complete(self):
        g4 = power_graph(path5(), 4)
        assert g4.m == 10

    def test_monotone_in_k(self):
        g = generate_graph("gnp", {"n": 40, "p": 0.08}, seed=9)
        prev: set = set()
        for k in (1, 2, 3, 5):
            cur = set(power_graph(g, k).edges_by_id())
            assert prev <= cur
            prev = cur

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
    def test_power_distance_formula(self, seed, k):
        g = largest_component(generate_graph("gnp", {"n": 60, "p": 0.06}, seed=seed))
        gk = power_graph(g, k)
        d1 = all_pairs_distances(g)
        dk = all_pairs_distances(gk)
        big = np.iinfo(np.int32).max // 8
        reach = d1 < big
        assert np.array_equal(dk[reach], -(-d1[reach] // k))


class TestOracleAgreement:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bfs_vs_floyd_warshall(self, seed):
        g = generate_graph("gnp", {"n": 50, "p": 0.07}, seed=seed)
        apd = all_pairs_distances(g)
        big = np.iinfo(np.int32).max // 8
        for i in range(g.n):
            d = _bfs_idx(g, [i])
            for j in range(g.n):
                assert d[j] == (int(apd[i, j]) if apd[i, j] < big else -1)


class TestBfsKernel:
    """``_bfs_idx`` options against two independent backends: Floyd-Warshall
    (``all_pairs_distances``) and scipy's compiled BFS."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        data=st.data(),
    )
    def test_options_against_independent_distances(self, seed, n, data):
        from scipy.sparse.csgraph import shortest_path

        g = generate_graph("gnp", {"n": n, "p": 0.12}, seed=seed)
        apd = all_pairs_distances(g).astype(float)
        apd[apd >= np.iinfo(np.int32).max // 8] = np.inf
        sp = shortest_path(g.adjacency_csr(), unweighted=True)
        assert np.array_equal(apd, sp)

        node = st.integers(0, n - 1)
        sources = data.draw(st.lists(node, min_size=1, max_size=4))
        cap = data.draw(st.none() | st.integers(0, 5))
        true = sp[sources].min(axis=0)  # multi-source distance
        within = np.isfinite(true) & (true <= (np.inf if cap is None else cap))
        want = [int(d) if ok else -1 for d, ok in zip(true, within)]
        assert _bfs_idx(g, sources, cap) == want

        parent: dict = {}
        reached: list = []
        dist = _bfs_idx(g, sources, cap, parent=parent, reached=reached)
        assert dist == want
        assert sorted(reached) == [v for v in range(n) if want[v] >= 0]
        assert [dist[v] for v in reached] == sorted(dist[v] for v in reached)
        assert set(parent) == set(reached)
        for v, u in parent.items():
            if dist[v] == 0:
                assert u == v
            else:
                assert v in g.neighbors[u] and dist[u] == dist[v] - 1

        targets = data.draw(st.lists(node, max_size=4))
        parent = [-1] * n
        reached = []
        dist = _bfs_idx(
            g, sources, cap, targets=targets, parent=parent, reached=reached
        )
        assert all(dist[t] == want[t] for t in targets)
        assert all(d in (-1, want[v]) for v, d in enumerate(dist))
        assert [v for v in range(n) if dist[v] >= 0] == sorted(reached)
        assert [v for v in range(n) if parent[v] >= 0] == sorted(reached)
        if all(want[t] >= 0 for t in targets):
            # early exit: stops inside the level of the farthest target
            last = max((want[t] for t in targets), default=0)
            assert all(dist[v] >= 0 for v in range(n) if 0 <= want[v] < last)
            assert all(dist[v] <= last for v in range(n))
        else:
            assert dist == want  # an unreachable target: the full search

        # within: distances in the subgraph induced by within + sources
        allowed = set(data.draw(st.lists(node, max_size=n)))
        keep = sorted(allowed | set(sources))
        pos = {v: i for i, v in enumerate(keep)}
        adj = g.adjacency_csr()[keep][:, keep]
        true = shortest_path(adj, unweighted=True)[[pos[s] for s in sources]]
        true = true.min(axis=0)
        want = [-1] * n
        for v, i in pos.items():
            if np.isfinite(true[i]) and (cap is None or true[i] <= cap):
                want[v] = int(true[i])
        assert _bfs_idx(g, sources, cap, within=allowed) == want

    def test_target_at_source_explores_nothing(self):
        g = generate_graph("grid", {"rows": 5, "cols": 5}, 0)
        reached: list = []
        dist = _bfs_idx(g, [12], targets=[12], reached=reached)
        assert reached == [12] and dist.count(-1) == g.n - 1
        assert len(dist) == g.n


class TestEdgeEntries:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(0, 25),
        p=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        gapped=st.booleans(),
    )
    def test_against_neighbor_lists(self, seed, n, p, gapped):
        # every ordered pair, a == b included, in a shuffled order
        rng = np.random.default_rng(seed)
        ids = [5 * v + 3 if gapped else v for v in range(n)]
        edges = [(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        g = Graph(ids, edges)
        pairs = rng.permutation([(a, b) for a in range(n) for b in range(n)])
        a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        got = edge_entries(g, a, b)
        indptr, dst = g._rows
        assert got.shape == a.shape
        for x, y, e in zip(a.tolist(), b.tolist(), got.tolist()):
            if y in g.neighbors[x]:
                assert indptr[x] <= e < indptr[x + 1] and dst[e] == y
            else:
                assert e == -1

    def test_empty_graph_and_no_pairs(self):
        none = np.empty(0, dtype=np.int64)
        assert edge_entries(Graph([], []), none, none).tolist() == []
        assert edge_entries(Graph([4, 9], []), [0, 1], [1, 0]).tolist() == [-1, -1]
        assert edge_entries(path5(), none, none).tolist() == []


class TestBfsTree:
    def test_spanning(self):
        g = generate_graph("grid", {"rows": 4, "cols": 5}, 0)
        within = set(range(g.n)) - {7, 12}
        nodes, tree = bfs_tree(g, 0, within)
        assert nodes == frozenset(within)
        assert len(tree) == len(nodes) - 1
        assert all(a < b and b in g.neighbors[a] for a, b in tree)
        # a BFS tree: every node hangs one hop below a node nearer the root
        dist = _bfs_idx(g, [0], within=within)
        assert all(abs(dist[a] - dist[b]) == 1 for a, b in tree)
        assert all(a in within and b in within for a, b in tree)

    def test_not_spanning(self):
        g = path5()
        nodes, tree = bfs_tree(g, 0, {0, 1, 3, 4})
        assert nodes == frozenset({0, 1}) and tree == frozenset({(0, 1)})
        # the root is entered even outside the set
        nodes, tree = bfs_tree(g, 2, {3})
        assert nodes == frozenset({2, 3}) and tree == frozenset({(2, 3)})


class TestVoronoiCells:
    """``voronoi_cells`` against a brute-force owner: the smallest
    (Floyd-Warshall distance, group position) over the seed groups."""

    @staticmethod
    def brute_owner(g, groups):
        apd = all_pairs_distances(g)
        inf = np.iinfo(np.int32).max // 8
        out = []
        for v in range(g.n):
            best = min(
                ((min(int(apd[s, v]) for s in grp), i)
                 for i, grp in enumerate(groups) if grp),
                default=(inf, -1),
            )
            out.append(best[1] if best[0] < inf else -1)
        return out

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        data=st.data(),
    )
    def test_owner_against_brute_force(self, seed, n, data):
        g = generate_graph("gnp", {"n": n, "p": 0.12}, seed=seed)
        groups = data.draw(
            st.lists(st.lists(st.integers(0, n - 1), max_size=3), max_size=5)
        )
        assert voronoi_cells(g, groups) == self.brute_owner(g, groups)

    def test_shared_seed_and_unreachable_nodes(self):
        # paths 0-1-2-3-4 and 5-6: the groups tie at node 2 and share node 4
        g = Graph(range(7), [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
        groups = [[0], [4], [4]]
        assert voronoi_cells(g, groups) == [0, 0, 0, 1, 1, -1, -1]
        assert voronoi_cells(g, groups[::-1]) == [2, 2, 0, 0, 0, -1, -1]


def _filtered_subgraph(g: Graph, indices) -> Graph:
    """G[indices] by filtering every edge of G (the reference)."""
    keep = set(indices)
    edges = [(a, b) for a, b in g.edge_indices() if a in keep and b in keep]
    weights = None
    if g.weights is not None:
        weights = {(g.ids[a], g.ids[b]): g.weights[(a, b)] for a, b in edges}
    return Graph(
        [g.ids[i] for i in keep],
        [(g.ids[a], g.ids[b]) for a, b in edges],
        weights,
        id_bits=g.id_bits,
    )


class TestSubgraphAndQuotient:
    """``induced_subgraph`` against a whole-graph edge filter, ``quotient``
    against a scan over all part pairs."""

    @staticmethod
    def draw_graph(data, seed, n):
        g = generate_graph("gnp", {"n": n, "p": 0.2}, seed=seed)
        if data.draw(st.booleans(), label="weighted") and g.m:
            g = random_weights(g, seed)
        if data.draw(st.booleans(), label="relabeled"):
            perm = data.draw(st.permutations(range(n)))
            g = g.relabeled({v: (1 << 100) + 7 * perm[v] for v in g.ids})
        return g

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 25), data=st.data())
    def test_induced_subgraph_against_edge_filter(self, seed, n, data):
        g = self.draw_graph(data, seed, n)
        subsets = [
            [],
            list(range(n)),
            data.draw(st.lists(st.integers(0, n - 1), max_size=n)),
        ]
        for keep in subsets:
            want = _filtered_subgraph(g, keep)
            assert induced_subgraph(g, keep) == want
            assert induced_edges(g, keep) == [
                (a, b) for a, b in g.edge_indices() if a in keep and b in keep
            ]
        best = max(connected_components(g), key=len)
        assert largest_component(g) == _filtered_subgraph(g, best)

    def test_largest_component_ties_to_the_smallest_index(self):
        # two triangles and an edge: the triangle holding index 0 wins,
        # whatever the ids and however the labelling numbers them
        edges = [(3, 4), (4, 5), (3, 5), (0, 6), (1, 2), (2, 7), (1, 7)]
        for ids in (list(range(8)), [9, 2, 7, 1, 3, 8, 0, 5]):
            g = Graph(ids, [(ids[a], ids[b]) for a, b in edges])
            best = max(connected_components(g), key=len)
            assert largest_component(g) == _filtered_subgraph(g, best)
            assert len(best) == 3 and min(best) == min(
                v for c in connected_components(g) if len(c) == 3 for v in c)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 25), data=st.data())
    def test_quotient_against_pair_scan(self, seed, n, data):
        g = self.draw_graph(data, seed, n)
        parts = data.draw(st.integers(1, n))
        owner = data.draw(
            st.lists(st.integers(0, parts - 1), min_size=n, max_size=n)
        )
        ids = sorted(data.draw(st.sets(st.integers(0, 1 << 80),
                                       min_size=parts, max_size=parts)))
        members = [[v for v in range(n) if owner[v] == i] for i in range(parts)]
        edges = [
            (ids[i], ids[j])
            for i in range(parts)
            for j in range(i + 1, parts)
            if any(b in g.neighbors[a] for a in members[i] for b in members[j])
        ]
        assert quotient(g, owner, ids) == Graph(ids, edges)
        assert quotient(g, dict(enumerate(owner)), ids) == Graph(ids, edges)

    def test_subgraph_reads_only_the_kept_neighbor_lists(self, monkeypatch):
        g = random_weights(generate_graph("grid", {"rows": 6, "cols": 6}, 0), 1)
        keep = [0, 1, 2, 7, 8, 35]
        want = _filtered_subgraph(g, keep)
        read: set = set()

        class Recording(tuple):
            def __getitem__(self, i):
                read.add(i)
                return tuple.__getitem__(self, i)

        def no_edge_scan(self):
            raise AssertionError("whole-graph edge scan")

        g.neighbors = Recording(g.neighbors)
        monkeypatch.setattr(Graph, "edge_indices", no_edge_scan)
        assert induced_subgraph(g, keep) == want
        assert read == set(keep)


class TestLogStar:
    @pytest.mark.parametrize("x,expect", [(0, 0), (1, 0), (2, 1), (16, 3), (65536, 4)])
    def test_values(self, x, expect):
        assert log_star(x) == expect


class TestGraphInvariants:
    def test_relabel_preserves_structure(self):
        g = generate_graph("gnp", {"n": 25, "p": 0.15}, seed=4)
        mapping = {v: 10 * v + 3 for v in g.ids}
        h = g.relabeled(mapping)
        assert h.n == g.n and h.m == g.m
        assert h.neighbors == g.neighbors  # monotone map keeps index order

    def test_id_bits_floor(self):
        g = Graph([0, 1, 1023], [(0, 1023)])
        assert g.id_bits == 10
        with pytest.raises(GraphError):
            Graph([0, 1023], [(0, 1023)], id_bits=5)

    def test_weights_must_cover_all_edges(self):
        with pytest.raises(GraphError):
            Graph([0, 1, 2], [(0, 1), (1, 2)], {(0, 1): Fraction(1)})


# distinct rationals with many shared numerators and shared denominators
SMALL_FRACTIONS = sorted({Fraction(a, b) for a in range(1, 17) for b in range(1, 17)})


class TestRank:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20), data=st.data())
    def test_orders_edges_as_their_fraction_weights(self, seed, n, data):
        g = generate_graph("gnp", {"n": n, "p": 0.3}, seed=seed)
        weights = data.draw(st.permutations(SMALL_FRACTIONS))
        wg = Graph(g.ids, g.edges_by_id(),
                   dict(zip(g.edges_by_id(), weights)))
        rank = wg.rank
        assert sorted(rank.values()) == list(range(wg.m))
        assert list(rank) == sorted(wg.weights, key=wg.weights.get)
        for e in wg.weights:
            for f in wg.weights:
                assert (rank[e] < rank[f]) == (wg.weights[e] < wg.weights[f])

    def test_shared_numerators_and_denominators(self):
        w = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 5),
             Fraction(2, 3), Fraction(3, 4)]
        g = Graph(range(7), [(i, i + 1) for i in range(6)],
                  {(i, i + 1): x for i, x in enumerate(w)})
        # 1/3 < 2/5 < 1/2 < 3/5 < 2/3 < 3/4
        assert [g.rank[(i, i + 1)] for i in range(6)] == [2, 0, 1, 3, 4, 5]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25), data=st.data())
    def test_survives_relabeling_to_huge_ids(self, seed, n, data):
        g = random_weights(generate_graph("gnp", {"n": n, "p": 0.25}, seed=seed), seed)
        perm = data.draw(st.permutations(range(n)))
        new_id = {v: (1 << 100) + 7 * perm[i] for i, v in enumerate(g.ids)}
        h = g.relabeled(new_id)
        for (a, b), r in g.rank.items():
            x, y = h.index_of(new_id[g.ids[a]]), h.index_of(new_id[g.ids[b]])
            assert h.rank[(min(x, y), max(x, y))] == r

    def test_not_part_of_equality(self):
        def make():
            return random_weights(generate_graph("gnp", {"n": 30, "p": 0.2}, seed=1), 1)

        g, h = make(), make()
        assert g.rank  # cached on g only
        assert g == h and h == g
        assert h._rank is None  # comparing does not build it


def _per_edge_construction(ids, edges):
    """Reference: the per-edge construction loop, checks in input order
    (per edge: self-loop, then unknown node, then duplicate); returns the
    sorted neighbor index lists."""
    ids = sorted(set(ids))
    index = {v: i for i, v in enumerate(ids)}
    adj = [set() for _ in ids]
    seen = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        if u not in index or v not in index:
            raise GraphError(f"edge ({u},{v}) references unknown node")
        a, b = index[u], index[v]
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
        adj[a].add(b)
        adj[b].add(a)
    return tuple(tuple(sorted(s)) for s in adj)


def _reference_message(ids, edges):
    with pytest.raises(GraphError) as exc:
        _per_edge_construction(ids, edges)
    return str(exc.value)


@st.composite
def id_edge_lists(draw, faults):
    """Sorted distinct ids (contiguous from 0, or gapped from a base that may
    sit near 2^63 or 2^128) and a shuffled edge list with random endpoint
    order; with ``faults``, self-loops, unknown endpoints and duplicates
    are mixed in."""
    n = draw(st.integers(0, 24), label="n")
    if draw(st.booleans(), label="contiguous"):
        ids = list(range(n))
    else:
        base = draw(st.sampled_from([1, 1000, 2**63 - 120, 2**63 - 30, 2**128 - 200]))
        gaps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        ids = [base + sum(gaps[:i]) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [
        (ids[j], ids[i]) if draw(st.booleans()) else (ids[i], ids[j])
        for i, j in chosen
    ]
    if faults:
        outside = [v for v in (0, 7, ids[-1] + 1 if ids else 3, 2**64 + 5)
                   if v not in ids]
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["loop", "unknown", "duplicate"]))
            if kind == "loop" or (kind == "duplicate" and not edges):
                v = draw(st.sampled_from(ids + outside))
                bad = (v, v)
            elif kind == "unknown":
                x = draw(st.sampled_from(outside))
                y = draw(st.sampled_from(ids + outside))
                bad = (x, y) if draw(st.booleans()) else (y, x)
            else:
                u, v = draw(st.sampled_from(edges))
                bad = (v, u) if draw(st.booleans()) else (u, v)
            edges.insert(draw(st.integers(0, len(edges))), bad)
    return ids, edges


def _given(ids, edges, as_array):
    """``edges`` as an (m, 2) int64 array if ``as_array`` and every value
    fits in int64, else as the list."""
    if as_array and all(v < 2**63 for v in ids + [v for e in edges for v in e]):
        return np.array(edges, dtype=np.int64).reshape(len(edges), 2)
    return edges


class TestBulkConstruction:
    """Graph construction against the per-edge reference, with edges given
    as a list and, where the ids fit in int64, as an (m, 2) array."""

    @settings(max_examples=150, deadline=None)
    @given(case=id_edge_lists(faults=False), as_array=st.booleans())
    def test_neighbors_and_csr_match_the_reference(self, case, as_array):
        ids, edges = case
        g = Graph(ids, _given(ids, edges, as_array))
        assert g.ids == tuple(ids)
        assert g.neighbors == _per_edge_construction(ids, edges)
        assert g._index == {v: i for i, v in enumerate(ids)}
        assert g.m == len(edges)
        assert g.id_bits == max([v.bit_length() for v in ids] + [1])
        n = len(ids)
        a = [ids.index(u) for u, _ in edges]
        b = [ids.index(v) for _, v in edges]
        want = sparse.coo_matrix(
            (np.ones(2 * len(edges), dtype=np.int8), (a + b, b + a)), shape=(n, n)
        ).tocsr()
        csr = g.adjacency_csr()
        assert csr.dtype == np.int8 and csr.shape == (n, n)
        assert csr.has_sorted_indices and csr.nnz == 2 * len(edges)
        assert (csr != want).nnz == 0

    @settings(max_examples=200, deadline=None)
    @given(case=id_edge_lists(faults=True), as_array=st.booleans())
    def test_first_fault_is_reported_as_before(self, case, as_array):
        ids, edges = case
        with pytest.raises(GraphError) as exc:
            Graph(ids, _given(ids, edges, as_array))
        assert str(exc.value) == _reference_message(ids, edges)

    @pytest.mark.parametrize("top,searched", [(1999, False), (2000, True),
                                              (2**40, True)])
    def test_gapped_ids_below_four_times_n_map_through_a_lookup(
        self, monkeypatch, top, searched
    ):
        # n = 500: the largest id decides between the lookup array and the
        # binary search, and both give the reference graph
        rng = np.random.default_rng(top % 97)
        ids = sorted(rng.choice(1500, 499, replace=False).tolist()) + [top]
        pairs = {tuple(sorted(p)) for p in rng.choice(500, (3000, 2)).tolist()
                 if p[0] != p[1]}
        edges = [(ids[a], ids[b]) if a % 2 else (ids[b], ids[a]) for a, b in pairs]
        calls = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *a, **kw: calls.append(1) or search(*a, **kw))
        for given in (edges, np.array(edges, dtype=np.int64)):
            assert Graph(ids, given).neighbors == _per_edge_construction(ids, edges)
        assert bool(calls) == searched
        bad = edges + [(ids[3], top + 1)]
        with pytest.raises(GraphError) as exc:
            Graph(ids, np.array(bad, dtype=np.int64))
        assert str(exc.value) == _reference_message(ids, bad)

    @pytest.mark.parametrize("ids,edges", [
        ([], []),
        ([5], []),
        ([0, 1, 2], np.empty((0, 2), dtype=np.int64)),
        ([0, 1, 2], [(0, 0), (0, 9), (0, 1), (1, 0)]),
        ([0, 1, 2], [(0, 9), (0, 0)]),
        ([0, 1, 2], [(0, 1), (1, 0), (2, 2)]),
        ([0, 2**100], [(2**100, 2**100)]),
        ([0, 2**100], [(0, 2**100), (2**100, 0)]),
        ([0, 1], [(0, 2**63)]),
        ([3, 9], [(True, 3)]),
        ([1, 3], [(True, 1)]),
        ([0, 1], [(0, 1.0), (1, 0)]),
        ([0, 1], [(0, 1.5)]),
    ])
    def test_edge_cases_match_the_reference(self, ids, edges):
        listed = [tuple(e) for e in edges] if isinstance(edges, np.ndarray) else edges
        try:
            want = _per_edge_construction(ids, listed)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                Graph(ids, edges)
            assert str(got.value) == str(exc)
        else:
            assert Graph(ids, edges).neighbors == want
