from fractions import Fraction
from typing import Optional
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from netdecomp import covers
from netdecomp.clustering import Cluster, Decomposition, validate_cover
from netdecomp.covers import (
    CoverError,
    MstError,
    cover_from_decomposition,
    cover_mst,
    cycle_enumeration_mu,
    kruskal_oracle,
    mst_radius,
    mst_radius_scipy,
    prim_oracle,
)
from netdecomp.decompose import decompose
from netdecomp.graphs import Graph, GraphError, generate_graph, random_weights


def path(n):
    return Graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def scipy_mu(g: Graph, cycle_cap: int = 1 << 20) -> Optional[int]:
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
        if d + 1 > cycle_cap:
            return None
        mu = max(mu, int(d) + 1)
    return mu


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

    def test_cycle_cap(self):
        assert mst_radius(four_cycle(), cycle_cap=3) is None

    def test_disconnected_rejected(self):
        g = Graph([0, 1, 2, 3], [(0, 1), (2, 3)],
                  {(0, 1): Fraction(1), (2, 3): Fraction(2)})
        with pytest.raises(GraphError):
            mst_radius(g)


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


def _weighted_gnp(n, p, seed):
    return random_weights(
        generate_graph("gnp", {"n": n, "p": p, "largest_component": 1}, seed),
        seed,
    )


class TestBitParallelMuOracle:
    """``mst_radius_scipy`` against ``mst_radius`` and the per-query scipy
    reference ``scipy_mu``."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 30),
        p=st.sampled_from([0.1, 0.2, 0.35]),
    )
    def test_cycle_cap_parity(self, seed, n, p):
        g = _weighted_gnp(n, p, seed)
        mu = mst_radius(g)
        for cap in range(1, mu + 2):
            want = mu if cap >= mu else None
            assert mst_radius(g, cap) == want
            assert mst_radius_scipy(g, cap) == want
            assert scipy_mu(g, cap) == want

    @pytest.mark.parametrize("g", [
        Graph([], [], {}),
        Graph([7], [], {}),
        Graph([3, 9], [(3, 9)], {(3, 9): Fraction(1, 3)}),
        random_weights(path(9), seed=2),
        random_weights(Graph(list(range(8)), [(0, i) for i in range(1, 8)]), seed=4),
    ], ids=["n0", "n1", "n2", "path", "star"])
    def test_trees_and_tiny_graphs(self, g):
        assert mst_radius(g) == mst_radius_scipy(g) == scipy_mu(g) == 0
        assert mst_radius_scipy(g, cycle_cap=1) == 0

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_lane_blocks_change_no_answer(self, block):
        for seed in range(3):
            g = _weighted_gnp(50, 0.15, seed)   # about 140 non-MST edges
            mu = mst_radius(g)
            with patch.object(covers, "_LANE_BLOCK", block):
                assert mst_radius_scipy(g) == mu == scipy_mu(g)
                assert mst_radius_scipy(g, mu) == mu
                assert mst_radius_scipy(g, mu - 1) is None

    def test_ignores_weight_rank(self):
        # a wrong rank must not mislead the oracle along with mst_radius
        g = _weighted_gnp(40, 0.15, 1)
        mu = mst_radius_scipy(g)
        g._rank = {e: r for r, e in enumerate(reversed(list(g.rank)))}
        assert mst_radius_scipy(g) == mu == scipy_mu(g)


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
