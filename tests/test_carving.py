"""Tests for ball growing and exponential-shift ball carving."""

import math

import numpy as np
import pytest

from netdecomp.carving import (
    CarveError,
    MetaGraph,
    ball_grow_refine,
    carve_decompose,
    carve_params,
    carve_step,
    sample_exp,
)
from netdecomp.clustering import validate_decomposition
from netdecomp.decompose import decompose
from netdecomp.graphs import Graph, generate_graph
from references import back_map, gap_probability_check, meta_graph_of


class _Const:
    """Stream stub with a fixed uniform draw."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSampleExp:
    def test_u_equals_one_gives_zero(self):
        # random() returning 0 makes U = 1 - 0 = 1, the CDF endpoint
        assert sample_exp(0.25, _Const(0.0)) == 0.0

    def test_empirical_mean(self):
        rng = np.random.default_rng(42)
        draws = [sample_exp(0.25, rng) for _ in range(100_000)]
        assert abs(sum(draws) / len(draws) - 4.0) < 0.05

    def test_tail_bound(self):
        beta, d, trials = 0.125, 16, 100_000
        rng = np.random.default_rng(7)
        tail = sum(sample_exp(beta, rng) >= d + 1 for _ in range(trials)) / trials
        p = math.exp(-beta * (d + 1))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert tail <= p + 3 * sigma

    def test_rejects_bad_beta(self):
        with pytest.raises(CarveError):
            sample_exp(0.0, _Const(0.5))


class TestCarveParams:
    # 2^53 + 1 and up: float log2 rounds these down to a power of two
    @pytest.mark.parametrize(
        "n", [1, 2, 64, 256, 1000, 2**20, 2**40, 2**64, 2**53 + 1, 2**64 + 1, 2**100 + 1]
    )
    def test_s_and_beta_follow_the_paper(self, n):
        s, beta, _ = carve_params(n)
        lg = max(1, (n - 1).bit_length())   # ceil(log2 n), at least 1
        assert s == math.isqrt(lg - 1) + 1  # ceil(sqrt(lg))
        assert beta == 2.0 ** (-s - 2)

    def test_one_run_aborts_with_probability_at_most_half(self):
        sizes = (
            set(range(1, 2**20 + 1, 4099))
            | {2**e + d for e in range(21) for d in (-1, 0, 1) if 2**e + d >= 1}
            | {2**40, 2**64}
        )
        for n in sorted(sizes):
            s, beta, cap_d = carve_params(n)
            assert isinstance(cap_d, int)
            assert n * math.exp(-beta * cap_d) <= 0.5, n
            if 2 ** (s - 2) >= math.log(2 * n):
                assert cap_d == 2 ** (2 * s), n


class TestGapProbability:
    def test_single_source_probability_zero(self):
        assert gap_probability_check([0.0], 0.1, 10_000) == 0.0

    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.5])
    def test_bounded_by_beta(self, beta):
        trials = 20_000
        est = gap_probability_check([0.0] * 10, beta, trials, seed=3)
        sigma = math.sqrt(beta * (1 - beta) / trials)
        assert est <= beta + 3 * sigma

    def test_arbitrary_distances(self):
        trials = 20_000
        est = gap_probability_check(list(range(10)), 0.5, trials, seed=5)
        sigma = math.sqrt(0.5 * 0.5 / trials)
        assert est <= 0.5 + 3 * sigma


def _meta_path(n):
    return MetaGraph.from_graph(generate_graph("path", {"n": n}, 0))


class TestCarveStep:
    def test_isolated_singleton_clusters_itself(self):
        h = MetaGraph.from_graph(Graph([0], []))
        res = carve_step(h, {0}, {0}, 0.5, 8, shifts={0: 1.5})
        assert res.clusters == {0: {0}} and not res.failed

    def test_p3_middle_joins_center(self):
        # center source r=3.0 dominates; the weak endpoint source cannot
        # even broadcast past itself (floor(0.5) = 0), so the middle node's
        # only offer wins outright
        h = _meta_path(3)
        res = carve_step(
            h, {0, 1, 2}, {0, 1}, 0.5, 8, shifts={1: 3.0, 0: 0.5}
        )
        assert 1 in res.clusters and res.clusters[1] >= {1, 2}

    def test_exact_gap_of_one_deactivates(self):
        h = _meta_path(3)
        res = carve_step(
            h, {0, 1, 2}, {0, 2}, 0.5, 8, shifts={0: 2.0, 2: 1.0}
        )
        # middle: m1 = 2-1 = 1.0, m2 = 1-1 = 0.0 -> gap exactly 1, strict
        assert 1 in res.deactivated
        assert all(1 not in mem for mem in res.clusters.values())

    def test_shift_above_cap_flags_failed(self):
        h = _meta_path(3)
        res = carve_step(h, {0, 1, 2}, {1}, 0.5, 4, shifts={1: 4.5})
        assert res.failed and not res.clusters

    def test_step_clusters_pairwise_nonadjacent(self):
        h = MetaGraph.from_graph(
            generate_graph("gnp", {"n": 40, "p": 0.1, "largest_component": True}, 2)
        )
        rng = np.random.default_rng(0)
        centers = {0, 5, 11, 17}
        res = carve_step(h, set(range(h.n)), centers, 0.3, 64, stream=rng)
        owner = {}
        for c, mem in res.clusters.items():
            for v in mem:
                owner[v] = c
        for a, b in h.graph.edge_indices():
            if a in owner and b in owner:
                assert owner[a] == owner[b]

    def test_locality_of_adoption(self):
        # the outcome near a source set only depends on meta-nodes within
        # cap_d hops: surgery beyond that changes nothing locally
        g = generate_graph("path", {"n": 40}, 0)
        h = MetaGraph.from_graph(g)
        shifts = {2: 3.2}
        a = carve_step(h, set(range(40)), {2}, 0.5, 8, shifts=shifts)
        g2 = Graph(range(39), [(i, i + 1) for i in range(37)] + [(37, 38)])
        h2 = MetaGraph.from_graph(g2)
        b = carve_step(h2, set(range(39)), {2}, 0.5, 8, shifts=shifts)
        assert a.clusters == b.clusters


class TestCarveDecompose:
    def test_single_meta_node(self):
        h = MetaGraph.from_graph(Graph([3], []))
        dec, diags, phases = carve_decompose(h, decompose(h.graph, 1).decomposition)
        assert dec.colors_used == 1 and len(dec.clusters) == 1
        assert diags == [] and phases == 1

    def test_meta_path_64(self):
        g = generate_graph("path", {"n": 64}, 0)
        h = MetaGraph.from_graph(g)
        inter = decompose(g, 4).decomposition
        dec, diags, phases = carve_decompose(h, inter, seed=3)
        rep = validate_decomposition(g, dec)
        assert rep.valid, rep.failures
        assert dec.colors_used <= math.ceil(math.sqrt(6)) + 3

    def test_random_meta_graphs_valid_and_bounded_diameter(self):
        for seed in range(4):
            g = generate_graph(
                "gnp", {"n": 100, "p": 0.05, "largest_component": True}, seed
            )
            h = MetaGraph.from_graph(g)
            dec, diags, phases = carve_decompose(
                h, decompose(g, 1).decomposition, seed=seed
            )
            rep = validate_decomposition(g, dec)
            assert rep.valid, rep.failures
            _, _, cap_d = carve_params(g.n)
            assert rep.stats["max_weak_diameter"] <= 2 * cap_d
            assert dec.colors_used <= phases

    def test_deterministic_replay(self):
        g = generate_graph("gnp", {"n": 60, "p": 0.07, "largest_component": True}, 9)
        h = MetaGraph.from_graph(g)
        inter = decompose(g, 1).decomposition
        a = carve_decompose(h, inter, seed=5)
        b = carve_decompose(h, inter, seed=5)
        assert [(c.id, c.members, c.color) for c in a[0].clusters] == [
            (c.id, c.members, c.color) for c in b[0].clusters
        ]

    def test_diagnostics_shape(self):
        g = generate_graph("path", {"n": 16}, 0)
        h = MetaGraph.from_graph(g)
        dec, diags, _ = carve_decompose(h, decompose(g, 2).decomposition, seed=1)
        assert diags and all(
            set(d.to_json()) >= {"run", "max_shift", "reached", "clustered", "success"}
            for d in diags
        )


class TestBallGrow:
    def test_isolated_ball_emitted_immediately(self):
        h = MetaGraph.from_graph(Graph([0], []))
        dec, logs = ball_grow_refine(h, decompose(h.graph, 1).decomposition)
        assert len(dec.clusters) == 1 and logs[0].max_growth == 0

    def test_all_boundary_ball_grows(self):
        # a 2-node ball inside a path is all boundary, so it must grow
        g = generate_graph("path", {"n": 8}, 0)
        h = MetaGraph.from_graph(g)
        dec, logs = ball_grow_refine(h, decompose(g, 2).decomposition)
        assert validate_decomposition(g, dec).valid
        assert any(l.max_growth >= 1 for l in logs)

    def test_meta_grid_8x8(self):
        g = generate_graph("grid", {"rows": 8, "cols": 8}, 0)
        h = MetaGraph.from_graph(g)
        inter = decompose(g, max(1, math.ceil(math.log2(64)))).decomposition
        dec, logs = ball_grow_refine(h, inter)
        rep = validate_decomposition(g, dec)
        assert rep.valid, rep.failures
        assert dec.colors_used <= 7  # ceil(log2 64) + 1

    def test_remaining_halves_each_phase(self):
        g = generate_graph("gnp", {"n": 90, "p": 0.05, "largest_component": True}, 4)
        h = MetaGraph.from_graph(g)
        dec, logs = ball_grow_refine(h, decompose(g, 2).decomposition)
        assert validate_decomposition(g, dec).valid
        before = h.n
        for log in logs:
            assert 2 * log.clustered >= before
            before = log.remaining_after
        assert before == 0


class TestMetaGraph:
    def test_from_decomposition_edges_and_backmap(self):
        g = generate_graph("path", {"n": 6}, 0)
        dec = decompose(g, 2).decomposition
        h = meta_graph_of(g, dec)
        assert h.n == len(dec.clusters)
        back = back_map(h)
        assert sorted(back) == list(range(6))
        for a, b in h.graph.edge_indices():
            assert any(
                (u in h.members[a] and v in h.members[b])
                or (u in h.members[b] and v in h.members[a])
                for u, v in g.edge_indices()
            )
