import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdecomp import mis as mis_module
from netdecomp.clustering import validate_mis, validate_ruling_set
from netdecomp.graphs import Graph, generate_graph, induced_subgraph
from netdecomp.mis import (
    _port_sums,
    IN_MIS,
    REMOVED,
    UNDECIDED,
    MisError,
    build_meta_graph,
    ghaffari_engine,
    mis_full,
    ruling_set,
    run_ghaffari,
    shatter_check,
)
from netdecomp.simulate import Message, SimConfig, node_draws, node_rng, philox_draws
from references import (
    MisState,
    all_pairs_distances,
    connected_components,
    ghaffari_round,
    next_desire,
)


def path(n):
    return Graph(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return Graph(list(range(n)), [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestDesireUpdate:
    def test_halves_under_crowding(self):
        assert next_desire(Fraction(1, 2), Fraction(5, 2)) == Fraction(1, 4)

    def test_doubles_when_uncrowded(self):
        assert next_desire(Fraction(1, 8), Fraction(1)) == Fraction(1, 4)

    def test_cap_at_half(self):
        assert next_desire(Fraction(1, 2), Fraction(0)) == Fraction(1, 2)

    def test_round_applies_update(self):
        # star center with 5 undecided neighbors, everyone at desire 1/2
        g = Graph(list(range(6)), [(0, i) for i in range(1, 6)])
        state = MisState.fresh(g)
        nxt = ghaffari_round(g, state, {v: 0.99 for v in range(6)})
        assert nxt.p[0] == Fraction(1, 4)       # sum over neighbors = 5/2
        assert all(nxt.p[v] == Fraction(1, 2) for v in range(1, 6))
        assert all(s == UNDECIDED for s in nxt.status.values())

    def test_desires_stay_dyadic(self):
        g = generate_graph("gnp", {"n": 40, "p": 0.15}, seed=4)
        state = MisState.fresh(g)
        rng = node_rng(11, 0, 0)
        for _ in range(20):
            state = ghaffari_round(
                g, state, {v: float(rng.random()) for v in range(g.n)}
            )
            for v, p in state.p.items():
                assert p.numerator == 1 and p <= Fraction(1, 2)
                assert p.denominator & (p.denominator - 1) == 0


class TestRunGhaffari:
    def test_isolated_node_expected_two_rounds(self):
        g = Graph([0], [])
        rng = node_rng(0, 0, 0)
        total = 0
        trials = 10_000
        for _ in range(trials):
            state = MisState.fresh(g)
            rounds = 0
            while state.status[0] == UNDECIDED:
                state = ghaffari_round(g, state, {0: float(rng.random())})
                rounds += 1
            total += rounds
        assert abs(total / trials - 2.0) < 0.1

    def test_midrun_independence_and_domination(self):
        g = generate_graph("gnp", {"n": 80, "p": 0.08}, seed=9)
        draws = np.vstack([node_rng(3, g.ids[v], 0).random(30) for v in range(g.n)])
        for r in range(1, 31, 3):
            mis, rem, und, _ = run_ghaffari(g, r, seed=3, _draws=draws)
            for v in mis:
                assert not any(u in mis for u in g.neighbors[v])
            for v in rem:
                assert any(u in mis for u in g.neighbors[v])
            assert mis | rem | und == set(range(g.n))

    def test_reference_and_vectorized_paths_agree(self):
        for seed in range(4):
            g = generate_graph("gnp", {"n": 30, "p": 0.15}, seed=seed)
            rounds = 15
            draws = np.vstack(
                [node_rng(seed, g.ids[v], 0).random(rounds) for v in range(g.n)]
            )
            mis, rem, und, _ = run_ghaffari(g, rounds, seed=seed, _draws=draws)
            state = MisState.fresh(g)
            for t in range(rounds):
                state = ghaffari_round(
                    g, state, {v: float(draws[v, t]) for v in range(g.n)}
                )
            assert mis == {v for v, s in state.status.items() if s == IN_MIS}
            assert rem == {v for v, s in state.status.items() if s == REMOVED}

    def test_terminates_to_full_mis_on_small_graph(self):
        g = generate_graph("gnp", {"n": 120, "p": 0.06}, seed=2)
        mis, rem, und, _ = run_ghaffari(g, 120, seed=5)
        assert not und
        ok, why = validate_mis(g, mis)
        assert ok, why

    def test_negative_rounds_rejected(self):
        with pytest.raises(MisError):
            run_ghaffari(path(3), -1)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        p=st.sampled_from([0.02, 0.1, 0.3]),
        rounds=st.sampled_from([0, 1, 3, 4, 5, 13, 64]),
        lane=st.integers(0, 3),
    )
    def test_blocks_drawn_as_reached_equal_the_full_draws(self, seed, n, p, rounds, lane):
        g = generate_graph("gnp", {"n": n, "p": p}, seed)
        drawn = []

        def logged(keys, blocks, offset):
            drawn.append((keys.shape[1], blocks, offset))
            return philox_draws(keys, blocks, offset)

        with patch.object(mis_module, "philox_draws", logged):
            lazy = run_ghaffari(g, rounds, seed=seed, lane=lane)
        full = run_ghaffari(
            g, rounds, seed=seed, lane=lane,
            _draws=node_draws(seed, g.ids, lane, rounds),
        )
        assert lazy[:3] == full[:3]
        assert lazy[3].tobytes() == full[3].tobytes()
        # one block per four rounds run, each for the nodes still undecided
        assert [(b, o) for _, b, o in drawn] == [(1, o) for o in range(len(drawn))]
        sizes = [r for r, _, _ in drawn]
        assert sizes == sorted(sizes, reverse=True)
        if drawn:
            assert sizes[0] == n
            assert len(drawn) <= -(-rounds // 4)


class TestEngineLanes:
    def test_single_bit_per_lane_and_clean_ledger(self):
        g = generate_graph("gnp", {"n": 16, "p": 0.25}, seed=1)
        lanes = 5
        outs, stats = ghaffari_engine(
            g, rounds=20, lanes=lanes, seed=4, cfg=SimConfig(strict=True)
        )
        assert stats.max_bits_per_edge_round == lanes
        assert not stats.budget_violations

    def test_engine_matches_vectorized_per_lane(self):
        g = generate_graph("gnp", {"n": 20, "p": 0.2}, seed=6)
        lanes = 4
        outs, _ = ghaffari_engine(g, rounds=30, lanes=lanes, seed=8)
        for ln in range(lanes):
            mis, rem, und, _ = run_ghaffari(g, 30, seed=8, lane=ln)
            got = [o[ln] for o in outs]
            want = [
                IN_MIS if v in mis else REMOVED if v in rem else UNDECIDED
                for v in range(g.n)
            ]
            assert got == want


class _LoggedLanes(mis_module._GhaffariLanes):
    """Logs (sub-round, node id, lanes undecided, payload) of every
    broadcast."""

    log: list = []

    def step(self, round_no, inbox):
        out = super().step(round_no, inbox)
        if isinstance(out, Message):
            self.log.append(
                (round_no, self.view.node_id, self.undecided, out.payload)
            )
        return out


class _SteppedLanes(_LoggedLanes):
    """Reference: every sub-round runs in full, also at a node decided in
    every lane."""

    def step(self, round_no, inbox):
        sub = self.sub
        self.sub = (sub + 1) % 4
        out = self._sub_round(sub, inbox)
        if sub == self.DIR:
            self.t += 1
            if self.t >= self.rounds:
                self.halted = True
                return {}
        self.log.append((round_no, self.view.node_id, self.undecided, out.payload))
        return out


class TestDecidedNodesSendZeros:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.floats(0.05, 0.5),
        graph_seed=st.integers(0, 1000),
        seed=st.integers(0, 2**32),
        lanes=st.sampled_from([0, 1, 3, 18, 70]),
        rounds=st.integers(0, 16),
    )
    @example(n=40, p=0.2, graph_seed=3, seed=7, lanes=3, rounds=16)
    def test_statuses_and_ledger_equal_the_full_steps(
        self, n, p, graph_seed, seed, lanes, rounds
    ):
        g = generate_graph("gnp", {"n": n, "p": p}, graph_seed)
        cfg = SimConfig(msg_bits=max(lanes, g.id_bits + 8), strict=True)
        runs = []
        for prog in (_LoggedLanes, _SteppedLanes):
            logged = type("Logged", (prog,), {"log": []})
            with patch.object(mis_module, "_GhaffariLanes", logged):
                outs, stats = ghaffari_engine(g, rounds, lanes, seed, cfg)
            runs.append((logged.log, outs, stats))
        (log, outs, stats), (ref_log, ref_outs, ref_stats) = runs
        assert outs == ref_outs and stats == ref_stats
        # the same sends, whose bits differ only in lanes the sender has
        # decided: no neighbor reads those
        assert [e[:3] for e in log] == [e[:3] for e in ref_log]
        for (_, _, undecided, bits), (*_, ref_bits) in zip(log, ref_log):
            assert (bits ^ ref_bits) & undecided == 0

    def test_the_zeros_replace_live_direction_bits(self):
        # n=40 p=0.2: some decided node would still announce desire halving
        g = generate_graph("gnp", {"n": 40, "p": 0.2}, 3)
        logs = []
        for prog in (_LoggedLanes, _SteppedLanes):
            logged = type("Logged", (prog,), {"log": []})
            with patch.object(mis_module, "_GhaffariLanes", logged):
                ghaffari_engine(g, 16, 3, 7)
            logs.append(logged.log)
        assert logs[0] != logs[1]


def _statuses(g, rounds, seed, lane):
    mis, rem, _, _ = run_ghaffari(g, rounds, seed=seed, lane=lane)
    return [
        IN_MIS if v in mis else REMOVED if v in rem else UNDECIDED
        for v in range(g.n)
    ]


class TestEngineLaneMasks:
    """Lane payloads are int masks (bit l is lane l), also past 64 lanes."""

    # rounds up to 40: desire levels can fall to 2^-41
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(1, 24),
        p=st.floats(0.05, 0.6),
        graph_seed=st.integers(0, 1000),
        seed=st.integers(0, 2**32),
        lanes=st.sampled_from([1, 63, 64, 65, 70]),
        rounds=st.integers(0, 40),
    )
    @example(n=24, p=0.6, graph_seed=1, seed=3, lanes=70, rounds=40)
    @example(n=24, p=0.3, graph_seed=2, seed=5, lanes=65, rounds=0)
    def test_every_lane_equals_run_ghaffari(
        self, n, p, graph_seed, seed, lanes, rounds
    ):
        g = generate_graph("gnp", {"n": n, "p": p}, graph_seed)
        outs, stats = ghaffari_engine(
            g, rounds, lanes, seed, SimConfig(msg_bits=max(lanes, g.id_bits + 8))
        )
        assert stats.max_bits_per_edge_round == (lanes if g.m and rounds else 0)
        for ln in range(lanes):
            assert [o[ln] for o in outs] == _statuses(g, rounds, seed, ln)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.lists(
                st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.5, 2.0**-41, 2.0**-1074, 1e16, 3.0]),
                min_size=3, max_size=3,
            ),
            max_size=12,
        ),
        masks=st.lists(st.integers(0, 7), min_size=12, max_size=12),
    )
    # 1 + 2^-53 rounds back to 1, so the order of these terms shows
    @example(values=[[1.0] * 3, [2.0**-53] * 3, [2.0**-53] * 3], masks=[7] * 12)
    @example(values=[[2.0**-53] * 3, [2.0**-53] * 3, [1.0] * 3], masks=[7] * 12)
    def test_effective_degrees_are_sequential_port_order_sums(self, values, masks):
        deg = len(values)
        arr = np.array(values, dtype=float).reshape(deg, 3)
        flags = np.array(
            [[(masks[q] >> ln) & 1 for ln in range(3)] for q in range(deg)],
            dtype=bool,
        ).reshape(deg, 3)
        got = _port_sums(arr, flags)
        for ln in range(3):
            want = sum(values[q][ln] for q in range(deg) if masks[q] >> ln & 1)
            assert got[ln] == want


def _p1_witness_by_loops(g, B):
    """The P1 witness one component of G[B] at a time: a greedy 5-hop
    separated set in id order, and the largest part of it that a stack loop
    over its 9-hop pairs connects (Floyd-Warshall distances)."""
    if not B:
        return 0
    sub = induced_subgraph(g, sorted(B))
    dist = all_pairs_distances(sub)
    best = 0
    for comp in connected_components(sub):
        chosen = []
        for v in sorted(comp, key=lambda i: sub.ids[i]):
            if not any(dist[v, u] <= 4 for u in chosen):
                chosen.append(v)
        seen = set()
        for v in chosen:
            if v in seen:
                continue
            part, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for w in chosen:
                    if w not in part and dist[u, w] <= 9:
                        part.add(w)
                        stack.append(w)
            seen |= part
            best = max(best, len(part))
    return best


class TestShatterCheck:
    def test_empty_remainder(self):
        r = shatter_check(path(5), set())
        assert r.max_component == 0 and r.component_sizes == []

    def test_exact_component_sizes(self):
        g = path(8)
        r = shatter_check(g, {0, 1, 2, 4, 5, 7})
        assert sorted(r.component_sizes) == [1, 2, 3]
        assert r.max_component == 3
        assert r.p1_witness <= r.max_component

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           share=st.floats(0.0, 1.0))
    def test_component_sizes_match_the_loop(self, seed, n, share):
        g = generate_graph("gnp", {"n": n, "p": min(1.0, 3.0 / n)}, seed)
        rng = np.random.default_rng(seed)
        B = {v for v in range(n) if rng.random() < share}
        r = shatter_check(g, B)
        comps = connected_components(induced_subgraph(g, sorted(B))) if B else []
        assert r.component_sizes == sorted(map(len, comps), reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           share=st.floats(0.0, 1.0))
    def test_p1_witness_matches_the_loop(self, seed, n, share):
        g = generate_graph("gnp", {"n": n, "p": min(1.0, 3.0 / n)}, seed)
        rng = np.random.default_rng(seed)
        B = {v for v in range(n) if rng.random() < share}
        assert shatter_check(g, B).p1_witness == _p1_witness_by_loops(g, B)

    def test_p1_witness_joins_a_pair_nine_hops_apart(self):
        # ids 0 and 1 end a path of ten nodes: both are chosen, 9 hops apart
        order = [0, *range(2, 10), 1]
        g = Graph(range(10), list(zip(order, order[1:])))
        assert shatter_check(g, set(range(10))).p1_witness == 2

    def test_bound_value_formula(self):
        g = generate_graph("gnp", {"n": 100, "p": 0.1}, seed=0)
        d = max(2, g.max_degree)
        r = shatter_check(g, set(range(g.n)))
        assert r.bound_value == pytest.approx(
            math.log(g.n) / math.log(d) * d**4
        )
        assert r.c_p2 == pytest.approx(r.max_component / r.bound_value)


class TestRulingSet:
    def test_singleton_base(self):
        g = path(6)
        r = ruling_set(g, {3}, 2)
        assert set(r.chosen) == {3}

    def test_p5_full_base(self):
        g = path(5)
        r = ruling_set(g, set(range(5)), 2)
        assert r.beta <= 2 * math.ceil(math.log2(max(g.ids) + 1))
        ok, why = validate_ruling_set(g, r)
        assert ok, why

    def test_clique_picks_one(self):
        g = clique(6)
        r = ruling_set(g, set(range(6)), 2)
        assert len(r.chosen) == 1

    def test_random_graphs_validate(self):
        for seed in range(5):
            g = generate_graph("gnp", {"n": 60, "p": 0.05}, seed=seed)
            B = set(range(0, g.n, 2)) | {1}
            for k in (1, 2, 3):
                r = ruling_set(g, B, k)
                sub = induced_subgraph(g, B)
                remapped = type(r)(
                    base=frozenset(sub.index_of(g.ids[v]) for v in r.base),
                    chosen=frozenset(sub.index_of(g.ids[v]) for v in r.chosen),
                    alpha=r.alpha,
                    beta=r.beta,
                )
                ok, why = validate_ruling_set(sub, remapped)
                assert ok, why

    def test_bad_inputs(self):
        with pytest.raises(MisError):
            ruling_set(path(3), set(), 2)
        with pytest.raises(MisError):
            ruling_set(path(3), {0}, 0)


class TestMetaGraph:
    def test_tie_goes_to_smaller_id(self):
        g = path(3)
        h = build_meta_graph(g, {0, 1, 2}, {0, 2})
        assert h.members == [frozenset({0, 1}), frozenset({2})]
        assert h.graph.edge_indices() == [(0, 1)]

    def test_members_partition_base(self):
        g = generate_graph("gnp", {"n": 70, "p": 0.06}, seed=3)
        B = set(range(g.n))
        r = ruling_set(g, B, 3)
        h = build_meta_graph(g, B, set(r.chosen))
        seen = set()
        for m in h.members:
            assert not (m & seen)
            seen |= m
        assert seen == B

    def test_meta_node_diameter_bounded(self):
        g = generate_graph("gnp", {"n": 70, "p": 0.06}, seed=3)
        B = set(range(g.n))
        r = ruling_set(g, B, 3)
        h = build_meta_graph(g, B, set(r.chosen))
        sub = induced_subgraph(g, B)
        for m in h.members:
            idx = sorted(sub.index_of(g.ids[v]) for v in m)
            for s in idx:
                from netdecomp.graphs import _bfs_idx

                dist = _bfs_idx(sub, [s])
                assert all(0 <= dist[t] <= 2 * r.beta for t in idx)


class TestMisFull:
    @pytest.mark.parametrize("variant", ["fast", "slow"])
    def test_pipeline_valid(self, variant):
        for seed in range(3):
            g = generate_graph("gnp", {"n": 300, "p": 0.04}, seed=seed)
            rep = mis_full(g, seed=seed, variant=variant, c1=1)
            assert rep.phases.get("rulingset", 0) >= 1  # meta path exercised
            ok, why = validate_mis(g, rep.mis)
            assert ok, why

    def test_preshatter_only_when_it_finishes(self):
        g = generate_graph("gnp", {"n": 150, "p": 0.05}, seed=1)
        rep = mis_full(g, seed=1, variant="fast")
        ok, why = validate_mis(g, rep.mis)
        assert ok, why

    def test_one_preshatter_round_carves_without_error(self):
        # One pre-shattering round leaves a large meta-graph to carve; a
        # carving cap under which most runs abort raises CarveError here.
        g = generate_graph("gnp", {"n": 8000, "p": 0.0025}, seed=1)
        rep = mis_full(g, seed=1, variant="fast", c1=1)
        ok, why = validate_mis(g, rep.mis)
        assert ok, why

    def test_deterministic_replay(self):
        g = generate_graph("gnp", {"n": 200, "p": 0.04}, seed=7)
        a = mis_full(g, seed=9, variant="fast", c1=1)
        b = mis_full(g, seed=9, variant="fast", c1=1)
        assert a.mis == b.mis and a.phases == b.phases

    def test_bad_variant(self):
        with pytest.raises(MisError):
            mis_full(path(4), variant="medium")
