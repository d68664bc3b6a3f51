"""Linial coloring: propriety, palette bound, iteration bound, reduction."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdecomp.coloring import greedy_reduce, linial_color, linial_stages, next_prime
from netdecomp.graphs import generate_graph
from references import log_star


class TestNextPrime:
    @pytest.mark.parametrize("x,p", [(1, 2), (2, 3), (3, 5), (10, 11), (20, 23), (100, 101)])
    def test_values(self, x, p):
        assert next_prime(x) == p

    def test_bertrand_window(self):
        # the final-stage prime lands in (2Δ, 4Δ] for every Δ we ever use
        for delta in range(1, 2000):
            q = next_prime(2 * delta)
            assert 2 * delta < q <= 4 * delta


class TestLinial:
    def test_edgeless(self):
        colors, _ = linial_color([[], [], []], [5, 9, 12])
        assert greedy_reduce([[], [], []], [0, 1, 2]) == [0, 0, 0]
        assert len(colors) == 3

    def test_k3(self):
        nb = [[1, 2], [0, 2], [0, 1]]
        colors, _ = linial_color(nb, [10, 20, 30])
        assert len(set(colors)) == 3
        assert max(colors) < 16 * 4

    def test_random_view_bounds(self):
        g = generate_graph("gnp", {"n": 200, "p": 0.05}, 13)
        delta = g.max_degree
        ids = [v * 977 + 13 for v in range(g.n)]
        colors, iters = linial_color(g.neighbors, ids, delta)
        s_bits = max(ids).bit_length()
        assert max(colors) < 16 * delta * delta
        assert iters <= log_star(s_bits) + 3
        for a, b in g.edge_indices():
            assert colors[a] != colors[b]

    def test_huge_ids(self):
        g = generate_graph("gnp", {"n": 60, "p": 0.08}, 3)
        ids = [(v + 1) * (2**120 + 7) for v in range(g.n)]
        colors, iters = linial_color(g.neighbors, ids)
        assert iters <= log_star(128) + 3
        for a, b in g.edge_indices():
            assert colors[a] != colors[b]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fuzz_propriety(self, seed):
        g = generate_graph("gnp", {"n": 50, "p": 0.1}, seed)
        rng = np.random.default_rng(seed)
        ids = sorted(int(x) for x in rng.choice(10**6, size=g.n, replace=False))
        colors, _ = linial_color(g.neighbors, ids)
        for a, b in g.edge_indices():
            assert colors[a] != colors[b]

    @settings(max_examples=40, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=40, unique=True),
        p=st.floats(0.0, 0.5),
        seed=st.integers(0, 10_000),
    )
    @example(ids=[2**128 - 1 - v for v in range(30)], p=0.2, seed=1)
    @example(ids=[0], p=0.0, seed=0)
    def test_stage_count_is_the_iteration_count(self, ids, p, seed):
        # decompose counts the stages instead of building the coloring
        g = generate_graph("gnp", {"n": len(ids), "p": p}, seed)
        _, iters = linial_color(g.neighbors, ids)
        assert sum(1 for _ in linial_stages(max(ids) + 1, g.max_degree)) == iters


class TestGreedyReduce:
    def test_palette_at_most_delta_plus_one(self):
        g = generate_graph("gnp", {"n": 100, "p": 0.08}, 5)
        colors = greedy_reduce(g.neighbors, range(g.n))
        assert max(colors) <= g.max_degree
        for a, b in g.edge_indices():
            assert colors[a] != colors[b]

    def test_depends_only_on_order(self):
        g = generate_graph("gnp", {"n": 40, "p": 0.1}, 8)
        assert greedy_reduce(g.neighbors, range(g.n)) == greedy_reduce(
            g.neighbors, list(range(g.n))
        )
