"""Validator tests: decomposition separation, cover clauses, MIS, ruling sets."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdecomp.clustering import (
    Cluster,
    Decomposition,
    NeighborhoodCover,
    RulingSetResult,
    decomposition_from_json,
    decomposition_to_json,
    validate_cover,
    validate_decomposition,
    validate_mis,
    validate_ruling_set,
    weak_diameter,
)
from netdecomp.graphs import Graph, all_pairs_distances, generate_graph


def star(k):
    return generate_graph("clique", {"n": 1}, 0) if k == 0 else _star(k)


def _star(k):
    from netdecomp.graphs import Graph

    return Graph(range(k + 1), [(0, i) for i in range(1, k + 1)])


def singleton_clusters(g, color=0):
    return [
        Cluster(id=g.ids[v], center=v, members=frozenset([v]), color=color)
        for v in range(g.n)
    ]


class TestValidateDecomposition:
    def test_single_node(self):
        g = generate_graph("path", {"n": 1}, 0)
        dec = Decomposition(k=1, clusters=singleton_clusters(g))
        rep = validate_decomposition(g, dec)
        assert rep.valid and rep.stats["max_weak_diameter"] == 0

    def test_p3_endpoints_same_color_invalid(self):
        g = generate_graph("path", {"n": 3}, 0)
        clusters = [
            Cluster(id=0, center=0, members=frozenset([0]), color=0),
            Cluster(id=1, center=1, members=frozenset([1]), color=1),
            Cluster(id=2, center=2, members=frozenset([2]), color=0),
        ]
        rep = validate_decomposition(g, Decomposition(k=2, clusters=clusters))
        assert not rep.valid
        assert any("distance 2" in f for f in rep.failures)

    def test_partition_violations(self):
        g = generate_graph("path", {"n": 3}, 0)
        clusters = [
            Cluster(id=0, center=0, members=frozenset([0, 1]), color=0),
            Cluster(id=1, center=1, members=frozenset([1, 2]), color=1),
        ]
        rep = validate_decomposition(g, Decomposition(k=1, clusters=clusters))
        assert not rep.valid

    def test_tree_checks(self):
        g = generate_graph("path", {"n": 4}, 0)
        # tree passing through a non-member is fine in weak mode
        c = Cluster(
            id=0,
            center=0,
            members=frozenset([0, 2]),
            tree_edges=frozenset([(0, 1), (1, 2)]),
            color=0,
        )
        rest = [Cluster(id=v, center=v, members=frozenset([v]), color=1 + v) for v in (1, 3)]
        rep = validate_decomposition(g, Decomposition(k=2, clusters=[c] + rest))
        assert rep.valid
        rep = validate_decomposition(
            g, Decomposition(k=2, clusters=[c] + rest), strong=True
        )
        assert not rep.valid  # tree leaves the member set

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 150),
        mean_degree=st.floats(0.5, 12.0),
        seed=st.integers(0, 10_000),
        size=st.integers(0, 150),
        member_seed=st.integers(0, 10_000),
    )
    # more than 64 members, connected in G and disconnected in G
    @example(n=150, mean_degree=12.0, seed=0, size=150, member_seed=0)
    @example(n=150, mean_degree=1.0, seed=0, size=100, member_seed=0)
    def test_weak_diameter_independent_backend(
        self, n, mean_degree, seed, size, member_seed
    ):
        g = generate_graph("gnp", {"n": n, "p": min(1.0, mean_degree / n)}, seed)
        members = np.random.default_rng(member_seed).permutation(n)[: min(size, n)]
        pair = all_pairs_distances(g)[np.ix_(members, members)]
        worst = int(pair.max(initial=0))
        expect = -1 if worst >= np.iinfo(np.int32).max // 8 else worst
        assert weak_diameter(g, members.tolist()) == expect

    def test_weak_diameter_long_path(self):
        g = generate_graph("path", {"n": 600}, 0)
        assert weak_diameter(g, range(g.n)) == 599

    def test_weak_diameter_across_source_blocks(self):
        # sources go in blocks of 4,096 members
        assert weak_diameter(_star(5000), range(5001)) == 2
        # farthest pair (4097, 4099): both in the second block
        edges = [(0, i) for i in range(1, 4096)]
        edges += [(0, 4096), (4096, 4097), (0, 4098), (4098, 4099)]
        assert weak_diameter(Graph(range(4100), edges), range(4100)) == 4
        # farthest pair (1, 4097): one in each block
        edges = [(0, i) for i in range(2, 4097)] + [(1, 2), (4096, 4097)]
        assert weak_diameter(Graph(range(4098), edges), range(4098)) == 4

    def test_json_roundtrip(self):
        g = generate_graph("grid", {"rows": 3, "cols": 3}, 0)
        clusters = singleton_clusters(g)
        for i, c in enumerate(clusters):
            clusters[i] = Cluster(c.id, c.center, c.members, c.tree_edges, color=i)
        dec = Decomposition(k=1, clusters=clusters)
        dec2 = decomposition_from_json(g, decomposition_to_json(g, dec))
        assert decomposition_to_json(g, dec2) == decomposition_to_json(g, dec)


def _pairwise_same_color(g, dec):
    """Reference for the separation clause: every same-color pair of
    clusters, G-distances from Floyd-Warshall."""
    apd = all_pairs_distances(g)
    lines, gaps = [], []
    for color, group in dec.color_classes().items():
        for i, c in enumerate(group):
            for c2 in group[i + 1 :]:
                gap = min(int(apd[u, v]) for u in c.members for v in c2.members)
                if gap <= dec.k:
                    gaps.append(gap)
                    lines.append(
                        f"color {color}: clusters {c.id},{c2.id} at distance "
                        f"{gap} <= k={dec.k}"
                    )
    return lines, min(gaps, default=None)


def _pairwise_weak_diameter(g, dec):
    apd = all_pairs_distances(g)
    big = np.iinfo(np.int32).max // 8
    out = 0
    for c in dec.clusters:
        worst = max(int(apd[u, v]) for u in c.members for v in c.members)
        out = max(out, -1 if worst >= big else worst)
    return out


def _same_color_lines(rep):
    return [f for f in rep.failures if " at distance " in f]


class TestSameColorScan:
    """The owner-map scan of ``validate_decomposition`` reports exactly what
    a pairwise scan reports, in the same order."""

    def test_p3_invalid_fixture(self):
        import json
        from importlib import resources

        from netdecomp.graphs import Graph

        data = json.loads(
            (resources.files("netdecomp") / "fixtures" / "p3_invalid.json").read_text()
        )
        gd = data["graph"]
        g = Graph(gd["nodes"], [tuple(e) for e in gd["edges"]], id_bits=gd["id_bits"])
        dec = decomposition_from_json(g, data["decomposition"])
        rep = validate_decomposition(g, dec)
        lines, gap = _pairwise_same_color(g, dec)
        assert lines == ["color 0: clusters 0,2 at distance 2 <= k=2"]
        assert _same_color_lines(rep) == lines
        assert rep.stats["min_same_color_gap"] == gap == 2

    def test_overlapping_clusters(self):
        g = generate_graph("path", {"n": 5}, 0)
        clusters = [
            Cluster(id=0, center=0, members=frozenset([0, 1]), color=0),
            Cluster(id=1, center=1, members=frozenset([1, 2]), color=0),
            Cluster(id=2, center=4, members=frozenset([2, 3, 4]), color=0),
        ]
        dec = Decomposition(k=1, clusters=clusters)
        rep = validate_decomposition(g, dec, check_trees=False)
        lines, gap = _pairwise_same_color(g, dec)
        assert _same_color_lines(rep) == lines and len(lines) == 3
        assert rep.stats["min_same_color_gap"] == gap == 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 3),
        palette=st.integers(1, 4),
    )
    def test_random_recolorings(self, seed, k, palette):
        from netdecomp.decompose import decompose

        g = generate_graph("gnp", {"n": 40, "p": 0.08}, seed)
        valid = decompose(g, k).decomposition
        rng = np.random.default_rng(seed)
        recolored = Decomposition(
            k=k,
            clusters=[
                Cluster(c.id, c.center, c.members, c.tree_edges,
                        color=int(rng.integers(palette)))
                for c in valid.clusters
            ],
        )
        for dec in (valid, recolored):
            rep = validate_decomposition(g, dec, check_trees=False)
            lines, gap = _pairwise_same_color(g, dec)
            assert _same_color_lines(rep) == lines
            assert rep.stats["min_same_color_gap"] == gap
            assert rep.stats["max_weak_diameter"] == _pairwise_weak_diameter(g, dec)


class TestValidateCover:
    def test_star_single_cluster(self):
        g = _star(5)
        c = Cluster(
            id=0,
            center=0,
            members=frozenset(range(6)),
            tree_edges=frozenset((0, i) for i in range(1, 6)),
        )
        rep = validate_cover(g, NeighborhoodCover(k=1, clusters=[c]))
        assert rep.valid and rep.stats["sparsity"] == 1

    def _p5_two_clusters(self):
        g = generate_graph("path", {"n": 5}, 0)
        c1 = Cluster(
            id=0, center=1, members=frozenset([0, 1, 2]),
            tree_edges=frozenset([(0, 1), (1, 2)]),
        )
        c2 = Cluster(
            id=1, center=3, members=frozenset([2, 3, 4]),
            tree_edges=frozenset([(2, 3), (3, 4)]),
        )
        return g, [c1, c2]

    def test_p5_k1_middle_ball_uncovered(self):
        # closed 1-ball of the middle node fits neither 3-node cluster
        g, cs = self._p5_two_clusters()
        rep = validate_cover(g, NeighborhoodCover(k=1, clusters=cs))
        assert not rep.valid and rep.stats["sparsity"] == 2

    def test_p5_k1_valid_with_4_node_clusters(self):
        g = generate_graph("path", {"n": 5}, 0)
        c1 = Cluster(
            id=0, center=1, members=frozenset([0, 1, 2, 3]),
            tree_edges=frozenset([(0, 1), (1, 2), (2, 3)]),
        )
        c2 = Cluster(
            id=1, center=3, members=frozenset([1, 2, 3, 4]),
            tree_edges=frozenset([(1, 2), (2, 3), (3, 4)]),
        )
        rep = validate_cover(g, NeighborhoodCover(k=1, clusters=[c1, c2]))
        assert rep.valid and rep.stats["sparsity"] == 2

    def test_p5_k2_uncovered_middle(self):
        g, cs = self._p5_two_clusters()
        rep = validate_cover(g, NeighborhoodCover(k=2, clusters=cs))
        assert not rep.valid and 2 in rep.stats["uncovered_balls"]


class TestValidateMis:
    def test_triangle(self):
        g = generate_graph("clique", {"n": 3}, 0)
        assert validate_mis(g, {0})[0]
        ok, why = validate_mis(g, set())
        assert not ok and "undominated" in why

    def test_p4_adjacent_pair(self):
        g = generate_graph("path", {"n": 4}, 0)
        ok, why = validate_mis(g, {0, 1})
        assert not ok and "adjacent" in why

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_greedy_mis_validates(self, seed):
        g = generate_graph("gnp", {"n": 60, "p": 0.08}, seed)
        s = set()
        for v in range(g.n):
            if not any(u in s for u in g.neighbors[v]):
                s.add(v)
        assert validate_mis(g, s)[0]


class TestValidateRulingSet:
    def test_p5_alternating(self):
        g = generate_graph("path", {"n": 5}, 0)
        r = RulingSetResult(
            base=frozenset(range(5)), chosen=frozenset([0, 2, 4]), alpha=2, beta=1
        )
        assert validate_ruling_set(g, r)[0]

    def test_p5_too_sparse(self):
        g = generate_graph("path", {"n": 5}, 0)
        r = RulingSetResult(
            base=frozenset(range(5)), chosen=frozenset([0]), alpha=2, beta=1
        )
        ok, why = validate_ruling_set(g, r)
        assert not ok and "beyond" in why

    def test_alpha_violation(self):
        g = generate_graph("path", {"n": 3}, 0)
        r = RulingSetResult(
            base=frozenset(range(3)), chosen=frozenset([0, 1]), alpha=2, beta=1
        )
        assert not validate_ruling_set(g, r)[0]
