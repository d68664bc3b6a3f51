"""Validator tests: decomposition separation, cover clauses, MIS, ruling sets."""

import dataclasses
import functools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netdecomp import clustering
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
    _LANES,
    _PullPlan,
    _separated,
    validate_ruling_set,
    weak_diameter,
)
from netdecomp.covers import cover_from_decomposition
from netdecomp.decompose import decompose
from netdecomp.graphs import (
    Graph,
    _bfs_idx,
    generate_graph,
    symmetric_csr,
    voronoi_cells,
)
from references import (
    all_pairs_distances,
    ball_interior_by_loop,
    connected_components,
    edge_overlap_by_loop,
    validate_mis_by_loop,
)


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


@functools.cache
def _lane_graph():
    """``gnp`` n=1200 with mean degree 3.5 (a giant component of 1,150
    nodes, small components and 38 isolated nodes), its all-pairs hop
    distances, and node pools to draw members from; computed once."""
    g = generate_graph("gnp", {"n": 1200, "p": 3.5 / 1200}, 5)
    comps = connected_components(g)
    pools = {
        "giant component": np.array(max(comps, key=len)),
        "all nodes": np.arange(g.n),
        "isolated nodes": np.array([c[0] for c in comps if len(c) == 1]),
    }
    return g, all_pairs_distances(g), pools


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

    @pytest.mark.parametrize("member", [-1, 4])
    def test_member_out_of_range_reported(self, member):
        # the other checks are judged without it: the partition is whole
        # and the weak diameter that of the path
        g = generate_graph("path", {"n": 4}, 0)
        c = Cluster(id=0, center=0, members=frozenset(range(4)),
                    tree_edges=frozenset([(0, 1), (1, 2), (2, 3)]), color=0)
        want = validate_decomposition(g, Decomposition(k=1, clusters=[c]))
        bad = dataclasses.replace(c, members=c.members | {member})
        rep = validate_decomposition(g, Decomposition(k=1, clusters=[bad]))
        assert rep.failures == ["1 cluster members outside 0..n-1",
                                f"cluster 0: members [{member}] not on tree"]
        assert rep.stats == want.stats and rep.stats["max_weak_diameter"] == 3

    @pytest.mark.parametrize("edge", [(4, 1), (-1, 2), (1, 4), (2, -1)])
    def test_tree_edge_out_of_range_reported(self, edge):
        g = generate_graph("path", {"n": 4}, 0)
        c = Cluster(id=0, center=0, members=frozenset(range(4)),
                    tree_edges=frozenset([(0, 1), (1, 2), (2, 3), edge]), color=0)
        line = f"cluster 0: tree edge ({edge[0]},{edge[1]}) not a G-edge"
        assert validate_decomposition(g, Decomposition(k=1, clusters=[c])).failures == [line]
        assert validate_cover(g, NeighborhoodCover(k=1, clusters=[c])).failures == [line]

    def test_same_color_gap_ignores_members_out_of_range(self):
        # a failing class is enumerated cluster by cluster without them
        g = generate_graph("path", {"n": 4}, 0)
        clusters = [
            Cluster(id=0, center=0, members=frozenset([0, 1, -1]),
                    tree_edges=frozenset([(0, 1)]), color=0),
            Cluster(id=1, center=2, members=frozenset([2, 3, 4]),
                    tree_edges=frozenset([(2, 3)]), color=0),
        ]
        rep = validate_decomposition(g, Decomposition(k=1, clusters=clusters))
        assert rep.failures[0] == "2 cluster members outside 0..n-1"
        assert "color 0: clusters 0,1 at distance 1 <= k=1" in rep.failures
        assert rep.stats["min_same_color_gap"] == 1

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
        # lanes go in blocks of 1,024 members, 64 to a word
        assert _LANES == 1024
        assert weak_diameter(_star(5000), range(5001)) == 2
        for b in (1024, 4096):
            # farthest pair (b + 1, b + 3): both in the block starting at b
            edges = [(0, i) for i in range(1, b)]
            edges += [(0, b), (b, b + 1), (0, b + 2), (b + 2, b + 3)]
            assert weak_diameter(Graph(range(b + 4), edges), range(b + 4)) == 4
            # farthest pair (1, b + 1): one in the first block, one in that one
            edges = [(0, i) for i in range(2, b + 1)] + [(1, 2), (b, b + 1)]
            assert weak_diameter(Graph(range(b + 2), edges), range(b + 2)) == 4

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from([0, 1, 2, 63, 64, 65, 1023, 1024, 1025, 1100])
        | st.integers(0, 1200),
        pool=st.sampled_from(["giant component", "all nodes", "isolated nodes"]),
        split=st.booleans(),
        form=st.sampled_from(["frozenset", "list with repeats", "generator"]),
        seed=st.integers(0, 10_000),
    )
    @example(size=2, pool="isolated nodes", split=False, form="frozenset", seed=0)
    @example(size=1025, pool="giant component", split=True, form="generator", seed=1)
    @example(size=1025, pool="giant component", split=False, form="frozenset", seed=1)
    def test_weak_diameter_against_all_pairs(self, size, pool, split, form, seed):
        g, dist, pools = _lane_graph()
        inf = np.iinfo(np.int32).max // 8
        rng = np.random.default_rng(seed)
        members = rng.choice(pools[pool], min(size, len(pools[pool])), replace=False)
        pair = dist[np.ix_(members, members)]
        worst = int(pair.max(initial=0))
        expect = -1 if worst >= inf else worst
        # relabel so that the farthest pair gets the lowest index and the
        # lowest or the highest: one lane block, or two once size > 1,024
        order = rng.permutation(g.n)
        if len(members) > 1:
            a, b = members[list(np.unravel_index(pair.argmax(), pair.shape))]
            rest = [v for v in order.tolist() if v not in (a, b)]
            order = np.array([a] + rest + [b] if split else [a, b] + rest)
        new = np.empty(g.n, dtype=np.int64)
        new[order] = np.arange(g.n)
        h = Graph(range(g.n), [(new[a], new[b]) for a, b in g.edge_indices()])
        ids = new[members].tolist()
        if form == "frozenset":
            given = frozenset(ids)
        elif form == "generator":
            given = (v for v in ids)
        else:
            given = ids + ids[: len(ids) // 2]
            rng.shuffle(given)
        assert weak_diameter(h, given) == expect

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


    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), parts=st.integers(1, 12))
    def test_disconnected_members_by_pairwise_distance(self, seed, parts):
        # random partitions of a graph with several components
        g = generate_graph("gnp", {"n": 40, "p": 0.04}, seed)
        owner = np.random.default_rng(seed).integers(parts, size=g.n)
        clusters = [
            Cluster(id=i, center=int(np.flatnonzero(owner == i)[0]),
                    members=frozenset(np.flatnonzero(owner == i).tolist()), color=i)
            for i in range(parts) if (owner == i).any()
        ]
        apd = all_pairs_distances(g)
        big = np.iinfo(np.int32).max // 8
        want = [
            f"cluster {c.id}: members disconnected in G" for c in clusters
            if max(int(apd[u, v]) for u in c.members for v in c.members) >= big
        ]
        rep = validate_decomposition(g, Decomposition(1, clusters), check_trees=False)
        assert [f for f in rep.failures if "disconnected" in f] == want
        dec = Decomposition(1, clusters)
        assert rep.stats["max_weak_diameter"] == max(0, _pairwise_weak_diameter(g, dec))


def _within(apd, c, c2, k):
    return min(int(apd[u, v]) for u in c.members for v in c2.members) <= k


class TestSeparationSearch:
    """One search per color class (``_separated``) against Floyd-Warshall:
    its verdict per class, and the failure lines and gap of the report,
    which only the classes it rejects get from the per-cluster BFS."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(["gnp", "grid"]),
        n=st.integers(40, 120),
        mean_degree=st.floats(0.8, 5.0),
        k=st.integers(1, 4),
        source=st.sampled_from(["decompose", "voronoi"]),
        palette=st.integers(1, 6),
        overlaps=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    def test_verdicts_and_lines_match_floyd_warshall(
        self, shape, n, mean_degree, k, source, palette, overlaps, seed
    ):
        # gnp below mean degree ~1 has many components
        if shape == "gnp":
            g = generate_graph("gnp", {"n": n, "p": mean_degree / n}, seed)
        else:
            g = generate_graph("grid", {"rows": n // 10, "cols": 10}, seed)
        rng = np.random.default_rng(seed)
        if source == "decompose":
            groups = [c.members for c in decompose(g, k).decomposition.clusters]
        else:
            owner = np.array(voronoi_cells(
                g, [[int(v)] for v in rng.choice(g.n, 1 + g.n // 8, replace=False)]))
            owner[owner < 0] = owner.max() + 1 + np.flatnonzero(owner < 0)
            groups = [frozenset(np.flatnonzero(owner == i).tolist())
                      for i in np.unique(owner).tolist()]
        groups = [set(m) for m in groups]
        for _ in range(overlaps):  # one more member, taken from anywhere
            groups[int(rng.integers(len(groups)))].add(int(rng.integers(g.n)))
        clusters = [
            Cluster(i, min(m), frozenset(m), color=int(rng.integers(palette)))
            for i, m in enumerate(groups)
        ]
        dec = Decomposition(k, clusters)
        rep = validate_decomposition(g, dec, check_trees=False)
        lines, gap = _pairwise_same_color(g, dec)
        assert _same_color_lines(rep) == lines
        assert rep.stats["min_same_color_gap"] == gap
        apd = all_pairs_distances(g)
        for group in dec.color_classes().values():
            members = np.array([v for c in group for v in c.members])
            labels = np.repeat(np.arange(len(group)), [len(c.members) for c in group])
            near = any(_within(apd, c, c2, k)
                       for i, c in enumerate(group) for c2 in group[i + 1 :])
            assert _separated(g, members, labels, k) == (not near)

    def test_pair_at_exactly_k_and_k_plus_one(self):
        # on a path, labels 0 and 1 at distance d: separated iff d > k
        g = generate_graph("path", {"n": 12}, 0)
        for d in range(1, 8):
            members, labels = np.array([2, 2 + d]), np.array([0, 1])
            for k in range(1, 8):
                assert _separated(g, members, labels, k) == (d > k)

    def test_node_with_two_labels_is_not_separated(self):
        g = generate_graph("path", {"n": 5}, 0)
        assert not _separated(g, np.array([1, 3, 1]), np.array([0, 1, 1]), 1)
        assert _separated(g, np.array([1, 4]), np.array([0, 1]), 2)

    def test_valid_grid_makes_no_per_cluster_bfs(self):
        g = generate_graph("grid", {"rows": 30, "cols": 30}, 0)
        dec = decompose(g, 2).decomposition
        with patch.object(clustering, "_bfs_idx", wraps=clustering._bfs_idx) as bfs:
            rep = validate_decomposition(g, dec)
        assert rep.valid and bfs.call_count == 0


class TestSharedLaneBlocks:
    """Weak diameters from lane blocks that clusters share.  ``_LANES`` is
    patched to 64, so small clusters straddle block edges and a big one
    spans three blocks or more."""

    def test_segments_of_two_paths(self):
        # a 400-node path and a 10-node path.  The clusters are segments of
        # the long path, of 30, 50, 140, 45, 100 and 35 nodes (lanes 30..79
        # straddle lane 64; lanes 80..219 span three blocks), the last one
        # joined with 5 nodes of the short path (disconnected in G), and
        # the other 5 nodes of the short path.
        edges = [(i, i + 1) for i in range(399)] + [(i, i + 1) for i in range(400, 409)]
        g = Graph(range(410), edges)
        cuts = np.cumsum([0, 30, 50, 140, 45, 100, 35]).tolist()
        groups = [set(range(a, b)) for a, b in zip(cuts, cuts[1:])]
        groups[-1] |= set(range(400, 405))
        groups.append(set(range(405, 410)))
        clusters = [Cluster(i, min(m), frozenset(m), color=i) for i, m in enumerate(groups)]
        dec = Decomposition(1, clusters)
        want = validate_decomposition(g, dec, check_trees=False)
        with patch.object(clustering, "_LANES", 64):
            rep = validate_decomposition(g, dec, check_trees=False)
        assert rep.stats["max_weak_diameter"] == want.stats["max_weak_diameter"] == 139
        assert rep.failures == want.failures == ["cluster 5: members disconnected in G"]
        assert _pairwise_weak_diameter(g, dec) == 139

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(200, 300),
        mean_degree=st.floats(2.5, 4.0),
        parts=st.integers(5, 40),
        big_at=st.integers(0, 40),
        seed=st.integers(0, 10_000),
    )
    def test_max_weak_diameter_matches_all_pairs(self, n, mean_degree, parts, big_at, seed):
        g = generate_graph("gnp", {"n": n, "p": mean_degree / n}, seed)
        rng = np.random.default_rng(seed)
        giant = max(connected_components(g), key=len)
        assume(len(giant) >= 140)
        # 140 members of the giant component span at least three blocks;
        # the other nodes go to random clusters, some of them disconnected
        big = frozenset(rng.choice(giant, 140, replace=False).tolist())
        rest = np.array([v for v in range(g.n) if v not in big])
        owner = rng.integers(parts, size=len(rest))
        groups = [frozenset(rest[owner == i].tolist()) for i in range(parts)]
        groups = [m for m in groups if m]
        groups.insert(min(big_at, len(groups)), big)
        clusters = [Cluster(i, min(m), m, color=i) for i, m in enumerate(groups)]
        dec = Decomposition(1, clusters)
        with patch.object(clustering, "_LANES", 64):
            rep = validate_decomposition(g, dec, check_trees=False)
        # the lane sets are the multi-member clusters connected in G, and
        # the big one spans three blocks or more
        _, flat, bounds = clustering._certify(g, dec, False, False)
        sets = [frozenset(flat[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
        split = [f"cluster {c.id}: members disconnected in G" in rep.failures
                 for c in clusters]
        assert sets == [c.members for c, cut in zip(clusters, split)
                        if len(c.members) > 1 and not cut]
        lo = int(bounds[sets.index(big)])
        assert (lo + 139) // 64 - lo // 64 >= 2
        assert rep.stats["max_weak_diameter"] == _pairwise_weak_diameter(g, dec)
        assert rep.stats == validate_decomposition(g, dec, check_trees=False).stats


class TestPullPlan:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 200),
        mean_degree=st.floats(0.0, 8.0),
        hub=st.floats(0.0, 1.0),
        words=st.integers(1, 3),
        piece=st.sampled_from([1, 5, 1 << 18]),
        keep=st.just(1.0) | st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_pull_ors_every_neighbour(self, n, mean_degree, hub, words, piece, keep, seed):
        # gnp plus a hub joined to a share of the nodes: high-degree rows in
        # the CSR tail, and isolated nodes with nothing to pull
        g = generate_graph("gnp", {"n": n, "p": min(1.0, mean_degree / n)}, seed)
        rng = np.random.default_rng(seed)
        spokes = [(n, v) for v in range(n) if rng.random() < hub]
        g = Graph(range(n + 1), g.edges_by_id() + spokes)
        # with keep < 1 the plan holds a share of the edges, as mst_radius's
        # plans hold those every lane of a block may cross: the pull must OR
        # that share's neighbours and no others
        pairs = np.array(g.edge_indices(), dtype=np.int64).reshape(-1, 2)
        kept = pairs[rng.random(len(pairs)) < keep]
        plan = _PullPlan(g.n, *symmetric_csr(kept[:, 0], kept[:, 1], g.n)[:2])
        frontier = rng.integers(0, 1 << 62, size=(g.n, words)).astype(np.uint64)
        want = np.zeros_like(frontier)
        for a, b in kept.tolist():
            want[plan.rank[a]] |= frontier[plan.rank[b]]
            want[plan.rank[b]] |= frontier[plan.rank[a]]
        out, scratch = np.full_like(frontier, 7), np.empty_like(frontier)
        with patch.object(clustering, "_PULL_WORDS", piece):
            plan.pull(frontier, out, scratch)
        assert np.array_equal(out, want)
        assert sorted(plan.rank.tolist()) == list(range(g.n))


def _uncovered_by_balls(g, clusters, k):
    """Reference: the nodes whose k-ball, found by one BFS per node, lies in
    no cluster."""
    uncovered = []
    for v in range(g.n):
        reached: list[int] = []
        _bfs_idx(g, [v], cap=k, reached=reached)
        ball = set(reached)
        if not any(ball <= c.members for c in clusters):
            uncovered.append(v)
    return uncovered


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

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        mean_degree=st.floats(0.5, 6.0),
        k=st.integers(0, 3),
        clusters=st.integers(0, 8),
        seed=st.integers(0, 10_000),
    )
    def test_uncovered_balls_match_the_per_node_definition(
        self, n, mean_degree, k, clusters, seed
    ):
        # clusters are balls of random radius around random centers, some
        # with a member removed: covers with holes inside and at the edge
        g = generate_graph("gnp", {"n": n, "p": min(1.0, mean_degree / n)}, seed)
        rng = np.random.default_rng(seed)
        cs = []
        for i in range(clusters):
            center = int(rng.integers(n))
            ball: list[int] = []
            _bfs_idx(g, [center], cap=int(rng.integers(0, 5)), reached=ball)
            if len(ball) > 1 and rng.random() < 0.5:
                ball.remove(ball[int(rng.integers(1, len(ball)))])
            cs.append(Cluster(id=i, center=center, members=frozenset(ball)))
        rep = validate_cover(g, NeighborhoodCover(k=k, clusters=cs))
        want = _uncovered_by_balls(g, cs, k)
        assert rep.stats["uncovered_balls"] == want
        line = f"{len(want)} nodes have an uncovered {k}-ball"
        assert rep.failures.count(line) == (1 if want else 0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        mean_degree=st.floats(0.5, 6.0),
        k=st.integers(0, 3),
        clusters=st.integers(0, 8),
        seed=st.integers(0, 10_000),
    )
    def test_interiors_and_sparsity_match_the_loops(
        self, n, mean_degree, k, clusters, seed
    ):
        # random member sets, connected or not
        g = generate_graph("gnp", {"n": n, "p": min(1.0, mean_degree / n)}, seed)
        rng = np.random.default_rng(seed)
        cs = [Cluster(id=i, center=0, members=frozenset(
            rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
            for i in range(clusters)]
        sizes, flat = clustering._member_arrays(cs)
        inside = clustering._ball_interiors(g, sizes, flat, k)
        want = set().union(*(ball_interior_by_loop(g, c.members, k) for c in cs))
        assert set(np.flatnonzero(inside).tolist()) == want
        rep = validate_cover(g, NeighborhoodCover(k=k, clusters=cs))
        load = [sum(v in c.members for c in cs) for v in range(n)]
        assert rep.stats["sparsity"] == max(load, default=0)

    @pytest.mark.parametrize("member", [-1, 5])
    def test_member_out_of_range_fails(self, member):
        g, cs = self._p5_two_clusters()
        want = validate_cover(g, NeighborhoodCover(k=1, clusters=cs)).stats
        cs[0] = dataclasses.replace(cs[0], members=cs[0].members | {member})
        rep = validate_cover(g, NeighborhoodCover(k=1, clusters=cs))
        assert not rep.valid
        assert "1 cover members outside 0..n-1" in rep.failures
        assert rep.stats["sparsity"] == want["sparsity"]
        assert rep.stats["uncovered_balls"] == want["uncovered_balls"]

    def test_dropped_cluster_of_a_cover(self):
        g = generate_graph("gnp", {"n": 300, "p": 0.01, "largest_component": 1}, 2)
        cover = cover_from_decomposition(g, 2, decompose(g, 4).decomposition)
        for drop in cover.clusters:
            rest = [c for c in cover.clusters if c is not drop]
            rep = validate_cover(g, NeighborhoodCover(k=2, clusters=rest))
            assert rep.stats["uncovered_balls"] == _uncovered_by_balls(g, rest, 2)


def _bfs_forest(g, roots, rng, palette):
    """Clusters of the multi-source BFS forest from ``roots`` (node
    indices), each tree with its edges in random directions, and a
    singleton for every node no root reaches; colors drawn from
    ``palette``."""
    parent: dict = {}
    if roots:
        _bfs_idx(g, roots, parent=parent)
    root_of = {r: r for r in roots}
    trees: dict = {r: ([r], set()) for r in roots}
    for v in parent:  # discovery order: a parent before its children
        if parent[v] != v:
            root_of[v] = root_of[parent[v]]
            trees[root_of[v]][0].append(v)
            e = (parent[v], v)
            trees[root_of[v]][1].add(e if rng.random() < 0.5 else e[::-1])
    out = [(r, frozenset(mem), frozenset(edges)) for r, (mem, edges) in trees.items()]
    out += [(v, frozenset([v]), frozenset()) for v in range(g.n) if v not in parent]
    return [Cluster(id=i, center=c, members=m, tree_edges=t,
                    color=int(rng.integers(palette)))
            for i, (c, m, t) in enumerate(out)]


TREE_FAULTS = ("none", "non-G edge", "non-G edge to a new node", "reversed duplicate",
               "chord", "inner edge swapped for a chord in one part",
               "edge swapped for a non-G edge", "tree grown to a non-member center",
               "cut edge", "leaf edge removed", "edge to a non-member",
               "center not a member", "edge shared in a color", "endpoint n",
               "endpoint -1", "first endpoint -1", "member -1", "members without edges")


def _inject(g, clusters, fault, rng):
    """``clusters`` with ``fault`` put into one drawn cluster that has tree
    edges (unchanged when no cluster can take it)."""
    grown = [i for i, c in enumerate(clusters) if c.tree_edges]
    if fault == "none" or not grown:
        return clusters
    i = grown[int(rng.integers(len(grown)))]
    c = clusters[i]
    nodes = sorted(c.tree_nodes())
    edges = sorted(c.tree_edges)
    pick = lambda xs: xs[int(rng.integers(len(xs)))] if xs else None  # noqa: E731
    tree = {tuple(sorted(e)) for e in edges}
    deg: dict = {}
    for e in edges:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    v = pick(nodes)
    add = drop = None
    fields: dict = {}
    if fault == "non-G edge":
        add = pick([(a, b) for a in nodes for b in range(g.n)
                    if a != b and b not in g.neighbors[a]])
    elif fault == "non-G edge to a new node":
        add = pick([(a, b) for a in nodes for b in range(g.n)
                    if b not in deg and b != a and b not in g.neighbors[a]])
    elif fault == "inner edge swapped for a chord in one part":
        # as many edges as before, but a cycle and two parts
        drop = pick([e for e in edges if min(deg[x] for x in e) >= 2])
        if drop is not None:
            part = _side(c.tree_edges - {drop}, drop[0])
            add = pick([(a, b) for a in sorted(part) for b in g.neighbors[a]
                        if a < b and b in part and (a, b) not in tree])
    elif fault == "tree grown to a non-member center":
        add = pick([(a, b) for a in nodes for b in g.neighbors[a] if b not in c.members])
        if add is not None:
            fields["center"] = add[1]
    elif fault == "edge swapped for a non-G edge":
        drop = pick(edges)
        add = pick([(a, b) for a in nodes for b in nodes
                    if a < b and b not in g.neighbors[a]])
    elif fault == "reversed duplicate":
        add = pick(edges)[::-1]
    elif fault == "chord":
        add = pick([(a, b) for a in nodes for b in g.neighbors[a]
                    if a < b and b in deg and (a, b) not in tree])
    elif fault == "cut edge":
        drop = pick(edges)
    elif fault == "leaf edge removed":
        drop = pick([e for e in edges if any(deg[x] == 1 and x != c.center for x in e)])
    elif fault == "edge to a non-member":
        add = pick([(a, b) for a in nodes for b in g.neighbors[a] if b not in c.members])
    elif fault == "center not a member":
        fields["center"] = pick([u for u in range(g.n) if u not in c.members])
    elif fault == "edge shared in a color":
        other = pick([j for j in grown if j != i])
        if other is not None:
            add = pick(sorted(clusters[other].tree_edges))
            fields["color"] = clusters[other].color
    elif fault == "endpoint n":
        add = (v, g.n)
    elif fault == "endpoint -1":
        add = (v, -1)
    elif fault == "first endpoint -1":
        add = (-1, v)
    elif fault == "member -1":
        fields["members"] = c.members | {-1}
    elif fault == "members without edges":
        fields["tree_edges"] = frozenset()
    if add is not None or drop is not None:
        fields["tree_edges"] = (c.tree_edges | {add}) - {drop, None}
    if fields.get("center", 0) is None:
        return clusters
    out = list(clusters)
    out[i] = dataclasses.replace(c, **fields)
    return out


def _side(edges, v):
    """The nodes that ``edges`` connect to ``v``."""
    seen, todo = {v}, [v]
    while todo:
        u = todo.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    todo.append(y)
    return seen


def _outcome(validator, *args, **kw):
    """A validator's (valid, failures, stats), or the name of the error it
    raised."""
    try:
        rep = validator(*args, **kw)
    except (IndexError, ValueError) as exc:
        return type(exc).__name__
    return rep.valid, rep.failures, rep.stats


def _by_loops(validator, *args, **kw):
    """``_outcome`` with every tree through ``_check_tree`` and the edge
    overlap counted by the dict loop."""
    def nothing_ok(g, clusters, *rest, depth=False, **kw):
        return (np.zeros(len(clusters), dtype=bool),
                np.zeros(len(clusters), dtype=np.int64) if depth else None)

    with patch.object(clustering, "_trees_ok", nothing_ok), \
            patch.object(clustering, "_edge_overlap", edge_overlap_by_loop):
        return _outcome(validator, *args, **kw)


class TestArrayTreeChecks:
    """The array tree checks (``_trees_ok``, ``_edge_overlap``) against
    the per-cluster loop: BFS forests of random graphs with at most one
    injected fault give identical reports or the same error."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 60),
        mean_degree=st.floats(0.5, 6.0),
        roots=st.integers(0, 8),
        palette=st.integers(1, 4),
        fault=st.sampled_from(TREE_FAULTS),
        strong=st.booleans(),
        k=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_reports_match_the_loop(self, n, mean_degree, roots, palette, fault,
                                    strong, k, seed):
        g = generate_graph("gnp", {"n": n, "p": min(1.0, mean_degree / n)}, seed)
        rng = np.random.default_rng(seed)
        starts = sorted(rng.choice(n, size=min(roots, n), replace=False).tolist())
        clusters = _inject(g, _bfs_forest(g, starts, rng, palette), fault, rng)
        dec = Decomposition(k=k, clusters=clusters)
        assert (_outcome(validate_decomposition, g, dec, strong=strong)
                == _by_loops(validate_decomposition, g, dec, strong=strong))
        cover = NeighborhoodCover(k=k, clusters=clusters)
        assert _outcome(validate_cover, g, cover) == _by_loops(validate_cover, g, cover)

    # trees that only the connectivity or the center test rejects: a
    # triangle beside a detached edge (as many edges as a tree), a tree
    # whose center is a non-member on it, and two members without tree
    # edges in a decomposition without any
    @pytest.mark.parametrize("edges, clusters", [
        ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)],
         [Cluster(0, 0, frozenset(range(5)),
                  frozenset([(0, 1), (1, 2), (2, 0), (3, 4)]), 0)]),
        ([(0, 1), (1, 2)],
         [Cluster(0, 1, frozenset([0, 2]), frozenset([(0, 1), (1, 2)]), 0),
          Cluster(1, 1, frozenset([1]), frozenset(), 1)]),
        ([(0, 1)], [Cluster(0, 0, frozenset([0, 1]), frozenset(), 0)]),
    ])
    def test_faults_an_edge_count_misses(self, edges, clusters):
        g = Graph(range(1 + max(max(e) for e in edges)), edges)
        for strong in (False, True):
            dec = Decomposition(k=1, clusters=clusters)
            got = _outcome(validate_decomposition, g, dec, strong=strong)
            assert not got[0]
            assert got == _by_loops(validate_decomposition, g, dec, strong=strong)
        cover = NeighborhoodCover(k=1, clusters=clusters)
        assert _outcome(validate_cover, g, cover) == _by_loops(validate_cover, g, cover)

    def test_valid_forest_takes_no_loop(self):
        g = generate_graph("gnp", {"n": 300, "p": 0.01}, 4)
        clusters = _bfs_forest(g, list(range(0, 300, 7)), np.random.default_rng(4), 300)
        with patch.object(clustering, "_check_tree") as loop:
            rep = validate_decomposition(g, Decomposition(k=1, clusters=clusters),
                                         strong=True)
            cover = validate_cover(g, NeighborhoodCover(k=1, clusters=clusters))
        assert loop.call_count == 0
        assert rep.stats["max_edge_overlap"] == 1
        assert cover.stats["tree_depth"] == max(
            _depth_in(c) for c in clusters
        )


def _depth_in(c):
    """Most hops from the center along the tree of ``c``."""
    adj: dict = {}
    for a, b in c.tree_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    dist = {c.center: 0}
    todo = [c.center]
    while todo:
        u = todo.pop()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                todo.append(v)
    return max(dist.values())


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

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 40),
        mean_degree=st.floats(0.0, 6.0),
        seed=st.integers(0, 10_000),
        drop=st.integers(0, 3),
        extra=st.lists(st.one_of(st.integers(-3, 45), st.sampled_from([True, 1.0, 2.5])),
                       max_size=3),
        as_list=st.booleans(),
    )
    def test_matches_the_loop(self, n, mean_degree, seed, drop, extra, as_list):
        # a greedy MIS with up to ``drop`` members removed and ``extra``
        # entries added: in-range nodes, indices out of range, bools, floats
        g = generate_graph("gnp", {"n": max(n, 1), "p": min(1.0, mean_degree / max(n, 1))},
                           seed) if n else Graph([], [])
        rng = np.random.default_rng(seed)
        s: set = set()
        for v in rng.permutation(g.n).tolist():
            if not any(u in s for u in g.neighbors[v]):
                s.add(v)
        for v in sorted(s)[:drop]:
            s.discard(v)
        s = list(s) + extra if as_list else s | set(extra)
        try:
            want = validate_mis_by_loop(g, s)
        except (IndexError, TypeError) as exc:
            with pytest.raises(type(exc)):
                validate_mis(g, s)
        else:
            assert validate_mis(g, s) == want


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
