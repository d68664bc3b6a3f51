import math
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from netdecomp import clustering, covers
from netdecomp.clustering import Cluster, Decomposition, validate_cover
from netdecomp.covers import (
    CoverError,
    MstError,
    cover_from_decomposition,
    cover_mst,
    kruskal_oracle,
    mst_radius,
    mst_radius_scipy,
    prim_oracle,
)
from netdecomp.decompose import decompose
from netdecomp.graphs import (
    Graph,
    GraphError,
    generate_graph,
    random_weights,
    weight_key,
)
from references import cycle_enumeration_mu


def path(n):
    return Graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def scipy_mu(g: Graph) -> int:
    """Reference for μ: per edge in ``Fraction`` order, one scipy BFS over
    the edges lighter than it.  An edge whose endpoints they join is a
    non-MST edge, and its shortest cycle is that distance + 1."""
    ordered = sorted(g.weights, key=g.weights.__getitem__)
    edges = np.array(ordered, dtype=np.intp).reshape(-1, 2)
    ones = np.ones(len(ordered))
    mu = 0
    for i, (a, b) in enumerate(ordered):
        lighter = csr_matrix(  # the first i edges are the lighter ones
            (ones[:i], (edges[:i, 0], edges[:i, 1])), shape=(g.n, g.n)
        )
        d = shortest_path(lighter, method="D", directed=False, unweighted=True,
                          indices=a)[b]
        if not np.isfinite(d):
            continue  # an MST edge
        mu = max(mu, int(d) + 1)
    return mu


def kruskal_within(g: Graph, members) -> frozenset:
    """Reference forest of G[members]: Kruskal over its edges in
    ``Fraction`` weight order, with a dict union-find."""
    root = {v: v for v in members}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest = set()
    for a, b in sorted((e for e in g.weights if set(e) <= members),
                       key=g.weights.__getitem__):
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            forest.add((a, b))
    return frozenset(forest)


def four_cycle():
    return Graph(
        [0, 1, 2, 3],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        {
            (0, 1): Fraction(1),
            (1, 2): Fraction(2),
            (2, 3): Fraction(3),
            (3, 0): Fraction(4),
        },
    )


class TestCoverFromDecomposition:
    def test_star_single_cluster(self):
        g = Graph(list(range(6)), [(0, i) for i in range(1, 6)])
        dec = Decomposition(
            k=2,
            clusters=[
                Cluster(
                    id=0,
                    center=0,
                    members=frozenset(range(6)),
                    tree_edges=frozenset((0, i) for i in range(1, 6)),
                    color=0,
                )
            ],
        )
        cov = cover_from_decomposition(g, 1, dec)
        assert len(cov.clusters) == 1
        assert cov.clusters[0].members == frozenset(range(6))
        rep = validate_cover(g, cov)
        assert rep.valid and rep.stats["sparsity"] == 1

    def test_p9_from_netdecomp(self):
        g = path(9)
        dec = decompose(g, 2).decomposition
        cov = cover_from_decomposition(g, 1, dec)
        rep = validate_cover(g, cov)
        assert rep.valid, rep.failures
        # per color at most one containing cluster per node
        for color in {c.color for c in cov.clusters}:
            for v in range(g.n):
                assert (
                    sum(
                        v in c.members
                        for c in cov.clusters
                        if c.color == color
                    )
                    <= 1
                )

    def test_expansions_at_distance_2k_plus_1_stay_disjoint(self):
        k = 2
        g = path(6)
        clusters = [
            Cluster(id=0, center=0, members=frozenset({0}), color=0),
            Cluster(id=1, center=5, members=frozenset({5}), color=0),
        ] + [
            Cluster(id=1 + v, center=v, members=frozenset({v}), color=v)
            for v in range(1, 5)
        ]
        dec = Decomposition(k=2 * k, clusters=clusters)
        cov = cover_from_decomposition(g, k, dec)
        a, b = (c.members for c in cov.clusters[:2])
        assert a == frozenset({0, 1, 2}) and b == frozenset({3, 4, 5})
        assert not (a & b)

    def test_rejects_invalid_decomposition(self):
        g = path(6)
        dec = Decomposition(k=2, clusters=[
            Cluster(id=0, center=0, members=frozenset(range(5)),
                    tree_edges=frozenset((i, i + 1) for i in range(4)), color=0)
        ])  # node 5 is in no cluster
        with pytest.raises(CoverError, match="partition covers 5 of 6 nodes"):
            cover_from_decomposition(g, 1, dec)

    def test_checks_the_input_without_weak_diameters(self, monkeypatch):
        # the cover reads only the verdicts, never the diameter stat
        def unread(*args):
            raise AssertionError("weak diameter computed for the cover")

        monkeypatch.setattr(clustering, "weak_diameter", unread)
        g = path(9)
        cov = cover_from_decomposition(g, 1, decompose(g, 2).decomposition)
        assert validate_cover(g, cov).valid
        dec = Decomposition(k=2, clusters=[
            Cluster(id=0, center=0, members=frozenset(range(5)),
                    tree_edges=frozenset((i, i + 1) for i in range(4)), color=0)
        ])
        with pytest.raises(CoverError, match="partition covers 5 of 9 nodes"):
            cover_from_decomposition(g, 1, dec)

    def test_rejects_insufficient_separation(self):
        g = path(9)
        dec = decompose(g, 2).decomposition
        with pytest.raises(CoverError):
            cover_from_decomposition(g, 2, dec)   # needs separation 4

    def test_sparsity_bounded_by_colors(self):
        for seed in range(3):
            g = generate_graph(
                "gnp", {"n": 150, "p": 0.04, "largest_component": True},
                seed=seed,
            )
            for k in (1, 2):
                dec = decompose(g, 2 * k).decomposition
                cov = cover_from_decomposition(g, k, dec)
                rep = validate_cover(g, cov)
                assert rep.valid, rep.failures
                assert rep.stats["sparsity"] <= len(
                    {c.color for c in dec.clusters}
                )


class TestMstRadius:
    def test_tree_convention(self):
        g = random_weights(path(6), seed=0)
        assert mst_radius(g) == 0

    def test_four_cycle(self):
        g = four_cycle()
        assert mst_radius(g) == 4
        assert cycle_enumeration_mu(g) == 4

    def test_k4_dual_oracle(self):
        g = Graph(
            list(range(4)),
            [(i, j) for i in range(4) for j in range(i + 1, 4)],
            {
                (0, 1): Fraction(1),
                (0, 2): Fraction(2),
                (0, 3): Fraction(3),
                (1, 2): Fraction(4),
                (1, 3): Fraction(5),
                (2, 3): Fraction(6),
            },
        )
        assert mst_radius(g) == cycle_enumeration_mu(g) == mst_radius_scipy(g)

    def test_scipy_oracle_agreement_random(self):
        for seed in range(5):
            g = random_weights(
                generate_graph(
                    "gnp", {"n": 80, "p": 0.06, "largest_component": True},
                    seed=seed,
                ),
                seed=seed,
            )
            assert mst_radius(g) == mst_radius_scipy(g)

    def test_four_cycle_mu(self):
        assert mst_radius(four_cycle()) == scipy_mu(four_cycle()) == 4

    def test_disconnected_rejected(self):
        two_edges = Graph([0, 1, 2, 3], [(0, 1), (2, 3)],
                          {(0, 1): Fraction(1), (2, 3): Fraction(2)})
        isolated_node = Graph(
            [0, 1, 2, 3], [(0, 1), (1, 2), (0, 2)],
            {(0, 1): Fraction(1), (1, 2): Fraction(2), (0, 2): Fraction(3)},
        )
        for g in (two_edges, isolated_node):
            for mu_of in (mst_radius, mst_radius_scipy):
                with pytest.raises(GraphError, match="needs a connected graph"):
                    mu_of(g)


# distinct rationals with many shared numerators and shared denominators
SMALL_FRACTIONS = sorted({Fraction(a, b) for a in range(1, 25) for b in range(1, 25)})


class TestRanksAgainstFractionOracles:
    """``mst_radius``, ``kruskal_oracle`` and ``cycle_enumeration_mu``
    compare weight ranks; ``mst_radius_scipy`` and ``prim_oracle`` compare
    the ``Fraction`` weights themselves."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 24),
        p=st.sampled_from([0.1, 0.2, 0.35]),
        data=st.data(),
    )
    def test_mu_and_forest_agree(self, seed, n, p, data):
        g = generate_graph("gnp", {"n": n, "p": p, "largest_component": 1}, seed)
        if data.draw(st.booleans(), label="small fractions"):
            weights = data.draw(st.permutations(SMALL_FRACTIONS))
            g = Graph(g.ids, g.edges_by_id(), dict(zip(g.edges_by_id(), weights)))
        else:
            g = random_weights(g, seed)
        assert kruskal_oracle(g) == prim_oracle(g)
        mu = mst_radius(g)
        assert mu == mst_radius_scipy(g) == scipy_mu(g)
        if g.n <= 8:
            assert mu == cycle_enumeration_mu(g)


# one float for the first six weights, and beyond the float range (inf)
# for the last three
TIED_WEIGHTS = ([Fraction(1, 3) + Fraction(j, 10**30) for j in range(6)]
                + [Fraction(10**400 + j) for j in range(3)])


class TestWeightOrder:
    """``Graph.rank``, ``prim_oracle`` and ``mst_radius_scipy`` sort by
    ``weight_key``: floats first, ``Fraction`` only where the floats tie."""

    def test_keys_tie_only_where_floats_do(self):
        assert len({float(w) for w in TIED_WEIGHTS[:6]}) == 1
        with pytest.raises(OverflowError):
            float(TIED_WEIGHTS[-1])
        assert {weight_key(w)[0] for w in TIED_WEIGHTS[6:]} == {math.inf}
        assert sorted(TIED_WEIGHTS[::-1], key=weight_key) == TIED_WEIGHTS

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_floats_order_as_fractions(self, seed):
        # a wheel: hub 0 and rim 1..9, every rim edge on a triangle
        edges = [(0, i) for i in range(1, 10)] + [(i, i % 9 + 1) for i in range(1, 10)]
        weights = [Fraction(j + 1, 7) for j in range(9)] + TIED_WEIGHTS
        np.random.default_rng(seed).shuffle(weights)
        g = Graph(range(10), edges, dict(zip(edges, weights)))
        assert list(g.rank) == sorted(g.weights, key=g.weights.__getitem__)
        assert kruskal_oracle(g) == prim_oracle(g)
        assert mst_radius(g) == mst_radius_scipy(g) == scipy_mu(g)


def _weighted_gnp(n, p, seed):
    return random_weights(
        generate_graph("gnp", {"n": n, "p": p, "largest_component": 1}, seed),
        seed,
    )


class TestBitParallelMuOracle:
    """The lane sweep both μ entry points share, against the per-query
    scipy reference ``scipy_mu``."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 30),
        p=st.sampled_from([0.1, 0.2, 0.35]),
    )
    def test_entry_points_match_scipy_mu(self, seed, n, p):
        g = _weighted_gnp(n, p, seed)
        assert mst_radius(g) == mst_radius_scipy(g) == scipy_mu(g)

    @pytest.mark.parametrize("g", [
        Graph([], [], {}),
        Graph([7], [], {}),
        Graph([3, 9], [(3, 9)], {(3, 9): Fraction(1, 3)}),
        random_weights(path(9), seed=2),
        random_weights(Graph(list(range(8)), [(0, i) for i in range(1, 8)]), seed=4),
    ], ids=["n0", "n1", "n2", "path", "star"])
    def test_trees_and_tiny_graphs(self, g):
        assert mst_radius(g) == mst_radius_scipy(g) == scipy_mu(g) == 0

    @pytest.mark.parametrize("block", [1, 7, 64, 65, 128])
    def test_lane_blocks_change_no_answer(self, block):
        # blocks of 65 and 128 lanes put masked floors on both sides of a
        # word edge
        for seed in range(3):
            g = _weighted_gnp(50, 0.15, seed)   # about 140 non-MST edges
            mu = scipy_mu(g)
            with patch.object(clustering, "_LANES", block):
                for mu_of in (mst_radius, mst_radius_scipy):
                    assert mu_of(g) == mu

    @pytest.mark.parametrize("seed", range(3))
    def test_criterion_10_scale(self, seed):
        g = _weighted_gnp(300, 6 / 300, seed)
        assert mst_radius(g) == scipy_mu(g)

    def test_ignores_weight_rank(self):
        # a wrong rank must not mislead the oracle along with mst_radius
        g = _weighted_gnp(40, 0.15, 1)
        mu = mst_radius_scipy(g)
        g._rank = {e: r for r, e in enumerate(reversed(list(g.rank)))}
        assert mst_radius_scipy(g) == mu == scipy_mu(g)

    def test_wrong_rank_misleads_mst_radius(self):
        # so comparing the two entry points catches a wrong g.rank
        g = _weighted_gnp(40, 0.15, 1)
        mu = mst_radius(g)
        g._rank = {e: r for r, e in enumerate(reversed(list(g.rank)))}
        assert mst_radius(g) != mu == mst_radius_scipy(g)


class TestMstOracles:
    def test_tree_keeps_all_edges(self):
        g = random_weights(path(8), seed=3)
        assert kruskal_oracle(g) == frozenset((i, i + 1) for i in range(7))

    def test_four_cycle_drops_heaviest(self):
        assert kruskal_oracle(four_cycle()) == frozenset(
            {(0, 1), (1, 2), (2, 3)}
        )

    def test_kruskal_prim_agree(self):
        for seed in range(5):
            g = random_weights(
                generate_graph("gnp", {"n": 200, "p": 0.03}, seed=seed),
                seed=seed,
            )
            assert kruskal_oracle(g) == prim_oracle(g)

    def test_prim_ignores_weight_rank(self):
        # a wrong rank must not mislead Prim along with Kruskal
        g = random_weights(
            generate_graph("gnp", {"n": 60, "p": 0.08}, seed=2), seed=2
        )
        tree = prim_oracle(g)
        g._rank = {e: r for r, e in enumerate(reversed(list(g.rank)))}
        assert prim_oracle(g) == tree != kruskal_oracle(g)


class TestForestOf:
    """The one spanning-forest routine against ``prim_oracle``, also on
    disconnected graphs, isolated nodes and graphs without edges."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        p=st.sampled_from([0.0, 0.03, 0.08, 0.2, 0.5]),
        isolated=st.integers(0, 3),
    )
    def test_against_prim(self, seed, n, p, isolated):
        g = generate_graph("gnp", {"n": n, "p": p}, seed)
        g = random_weights(Graph([*g.ids, *range(n, n + isolated)], g.edges_by_id()), seed)
        forest = covers._forest_of(g.n, list(g.rank))
        assert forest == prim_oracle(g)
        assert all(a < b for a, b in forest)

    def test_no_nodes(self):
        assert covers._forest_of(0, []) == frozenset()


class TestCoverMst:
    def test_tree_all_rule_b(self):
        g = random_weights(path(7), seed=1)
        res = cover_mst(g, mu=1)
        assert res.tree_edges == kruskal_oracle(g)
        assert all(r == "rule_B_included" for r in res.classification.values())

    def test_four_cycle_classification(self):
        res = cover_mst(four_cycle(), mu=4)
        assert res.classification[(0, 3)] == "rule_A_excluded"
        assert res.tree_edges == kruskal_oracle(four_cycle())

    def test_random_graphs_exact(self):
        for seed in range(8):
            g = random_weights(
                generate_graph(
                    "gnp", {"n": 150, "p": 0.035, "largest_component": True},
                    seed=seed,
                ),
                seed=seed,
            )
            res = cover_mst(g)
            assert res.tree_edges == kruskal_oracle(g)
            # rule soundness, edge by edge
            for e, rule in res.classification.items():
                in_true = e in res.tree_edges
                assert in_true == (rule == "rule_B_included")

    def test_cluster_forests_match_the_expanded_cover(self):
        # each cluster's forest is Kruskal on its cover cluster, also where
        # several clusters expand to the same node set and share one
        g = random_weights(generate_graph(
            "gnp", {"n": 300, "p": 0.0133, "largest_component": 1}, seed=1
        ), seed=1)
        res = cover_mst(g)
        k = max(1, res.mu)
        cover = cover_from_decomposition(g, k, decompose(g, 2 * k).decomposition)
        load = [0] * g.n
        want = {}
        for c in cover.clusters:
            for v in c.members:
                load[v] += 1
            lighter_first = sorted(
                (e for e in g.weights if set(e) <= c.members), key=g.rank.get
            )
            want[c.id] = covers._forest_of(g.n, lighter_first)
        assert len({c.members for c in cover.clusters}) < len(cover.clusters)
        assert res.cluster_msts == want
        assert res.cover_sparsity == max(load)
        assert res.tree_edges == kruskal_oracle(g)

    @pytest.mark.parametrize("tail,extra,sets", [
        (21, 0, [1, 1, 2, 3, 9]), (21, 3, [2, 3, 11]), (21, 6, [16]), (0, 0, [1] * 4)])
    def test_classification_equals_the_per_cluster_rules(self, tail, extra, sets):
        """Rules A/B edge by edge over every cover cluster, each with its own
        Kruskal forest, against ``cover_mst``, which classifies each
        distinct expanded set once.  A path of ``tail`` nodes hangs off a
        ``gnp`` graph, so its 16 clusters expand to sets shared by ``sets``
        clusters each; without a tail, a 2 x 100 ladder's 4 clusters
        expand to 4 sets, none of them all of V."""
        if tail:
            body = generate_graph(
                "gnp", {"n": 300, "p": 4 / 300, "largest_component": 1}, 1)
            path_ids = [10**6 + i for i in range(tail)]
            g = Graph([*body.ids, *path_ids], [
                *body.edges_by_id(), (body.ids[0], path_ids[0]),
                *zip(path_ids, path_ids[1:])])
        else:
            g = generate_graph("grid", {"rows": 2, "cols": 100}, 1)
        g = random_weights(g, 1)
        mu = mst_radius(g) + extra
        res = cover_mst(g, mu=mu)
        cover = cover_from_decomposition(g, mu, decompose(g, 2 * mu).decomposition)
        assert sorted(Counter(c.members for c in cover.clusters).values()) == sets
        forests = {c.id: kruskal_within(g, c.members) for c in cover.clusters}
        want = {}
        for e in g.weights:
            holding = [c.id for c in cover.clusters if set(e) <= c.members]
            assert holding
            in_all = all(e in forests[cid] for cid in holding)
            want[e] = "rule_B_included" if in_all else "rule_A_excluded"
        assert res.classification == want
        assert res.cluster_msts == forests
        assert res.cover_sparsity == max(Counter(
            v for c in cover.clusters for v in c.members).values())
        assert res.tree_edges == kruskal_oracle(g)

    @pytest.mark.parametrize("mu", [None, 5])
    def test_mu_radius_computed_once(self, monkeypatch, mu):
        from netdecomp import covers

        calls = []
        real = covers.mst_radius
        monkeypatch.setattr(
            covers, "mst_radius", lambda g: calls.append(g) or real(g)
        )
        res = cover_mst(four_cycle(), mu=mu)
        assert len(calls) == 1
        assert res.mu == (4 if mu is None else mu)
        assert res.true_mu == 4

    def test_mu_below_radius_rejected(self):
        g = four_cycle()
        with pytest.raises(MstError):
            cover_mst(g, mu=2)

    def test_unweighted_or_disconnected_rejected(self):
        disconnected = Graph([0, 1, 2, 3], [(0, 1), (2, 3)],
                             {(0, 1): Fraction(1), (2, 3): Fraction(2)})
        for g in (path(4), disconnected):
            with pytest.raises(GraphError):
                cover_mst(g)

    def test_json_shape(self):
        g = four_cycle()
        res = cover_mst(g, mu=4)
        j = res.to_json(g)
        assert set(j) == {"mst_edges", "excluded_edges", "mu", "cover_stats"}
        assert j["excluded_edges"] == [[0, 3]]
