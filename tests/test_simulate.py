"""Engine tests: handshake fixtures, budget accounting, determinism,
locality, flooding vs its central oracle, tree broadcast/convergecast."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdecomp import simulate
from netdecomp.clustering import Cluster
from netdecomp.graphs import Graph, generate_graph
from netdecomp.simulate import (
    TAG_BITS,
    BudgetError,
    Message,
    NodeProgram,
    RoundStats,
    SimConfig,
    SimError,
    _Flood,
    bounded_flood,
    bounded_flood_oracle,
    cluster_broadcast,
    cluster_convergecast,
    min_gossip,
    run,
)


class Handshake(NodeProgram):
    """Send own id once; halt after hearing back on every port."""

    def __init__(self):
        self.heard = set()

    def step(self, round_no, inbox):
        self.heard |= set(inbox)
        if round_no == 1:
            m = Message(self.view.node_id, TAG_BITS + self.view.id_bits)
            return {p: m for p in range(self.view.degree)}
        if len(self.heard) == self.view.degree:
            self.halted = True
        return {}

    def output(self):
        return len(self.heard)


class TestRun:
    def test_p2_handshake(self):
        g = generate_graph("path", {"n": 2}, 0)
        outputs, stats = run(g, Handshake, SimConfig())
        assert stats.rounds == 2
        assert stats.max_bits_per_edge_round == g.id_bits + TAG_BITS
        assert outputs == [1, 1]

    def test_k4_handshake_message_count(self):
        g = generate_graph("clique", {"n": 4}, 0)
        _, stats = run(g, Handshake, SimConfig())
        assert stats.total_messages == 12  # one per directed edge, round 1

    def test_budget_breach_strict(self):
        g = generate_graph("path", {"n": 2}, 0)

        class TwoIds(NodeProgram):
            def step(self, round_no, inbox):
                self.halted = True
                bits = TAG_BITS + 2 * self.view.id_bits
                return {p: Message((1, 2), bits) for p in range(self.view.degree)}

        cfg = SimConfig(msg_bits=g.id_bits + 8, strict=True)
        with pytest.raises(BudgetError):
            run(g, TwoIds, cfg)
        cfg = SimConfig(msg_bits=g.id_bits + 8, strict=False)
        _, stats = run(g, TwoIds, cfg)
        assert len(stats.budget_violations) == 2

    def test_budget_floor_enforced(self):
        g = Graph(range(2), [(0, 1)], id_bits=16)
        with pytest.raises(SimError):
            run(g, Handshake, SimConfig(msg_bits=10))

    def test_max_rounds(self):
        g = generate_graph("path", {"n": 2}, 0)

        class Forever(NodeProgram):
            def step(self, round_no, inbox):
                return {}

        with pytest.raises(SimError, match="max_rounds"):
            run(g, Forever, SimConfig(max_rounds=5))

    def test_determinism_20_seeds(self):
        g = generate_graph("gnp", {"n": 40, "p": 0.1}, 3)

        class Coin(NodeProgram):
            def step(self, round_no, inbox):
                self.flips = [int(self.view.rng.integers(0, 2)) for _ in range(8)]
                self.halted = True
                return {}

            def output(self):
                return self.flips

        for seed in range(20):
            cfg = SimConfig(seed=seed)
            out1, st1 = run(g, Coin, cfg)
            out2, st2 = run(g, Coin, cfg)
            assert out1 == out2 and st1 == st2

    def test_locality_surgery(self):
        # a node's output after r rounds is unchanged by edits outside its
        # r-hop ball
        class Gossip3(NodeProgram):
            def __init__(self):
                self.seen = set()

            def init(self, view):
                super().init(view)
                self.seen = {view.node_id}

            def step(self, round_no, inbox):
                for m in inbox.values():
                    self.seen |= set(m.payload)
                if round_no > 3:
                    self.halted = True
                    return {}
                pay = tuple(sorted(self.seen))
                return {
                    p: Message(pay, TAG_BITS + len(pay) * self.view.id_bits)
                    for p in range(self.view.degree)
                }

            def output(self):
                return frozenset(self.seen)

        for seed in range(5):
            g = generate_graph("gnp", {"n": 40, "p": 0.06}, seed)
            from netdecomp.graphs import _bfs_idx

            r = 3
            probe = 0
            ball = {
                u for u, d in enumerate(_bfs_idx(g, [probe], cap=r)) if d >= 0
            }
            outside = [v for v in range(g.n) if v not in ball]
            if len(outside) < 2:
                continue
            # surgery: delete every edge with both endpoints outside the ball
            kept = [
                (g.ids[a], g.ids[b])
                for a, b in g.edge_indices()
                if a in ball or b in ball
            ]
            g2 = Graph(g.ids, kept, id_bits=g.id_bits)
            cfg = SimConfig(msg_bits=64 * g.id_bits)
            out1, _ = run(g, Gossip3, cfg)
            out2, _ = run(g2, Gossip3, cfg)
            assert out1[probe] == out2[probe]

    def test_budget_soundness_recount(self):
        g = generate_graph("gnp", {"n": 30, "p": 0.15}, 1)
        bits_seen = []

        class Chatty(NodeProgram):
            def step(self, round_no, inbox):
                if round_no > 2:
                    self.halted = True
                    return {}
                out = {}
                for p in range(self.view.degree):
                    b = TAG_BITS + (round_no * (p + 1)) % 17 + 1
                    bits_seen.append(b)
                    out[p] = Message(p, b)
                return out

        _, stats = run(g, Chatty, SimConfig(strict=False))
        assert stats.max_bits_per_edge_round == max(bits_seen)
        assert stats.total_messages == len(bits_seen)


class TestBoundedFlood:
    def test_p3_both_endpoints(self):
        g = generate_graph("path", {"n": 3}, 0)
        out, _ = bounded_flood(g, {0: (0, "a"), 2: (2, "b")}, hops=2, fanin=2, cfg=SimConfig())
        assert out[1] == {(0, "a"), (2, "b")}

    def test_star_center_three_smallest(self):
        g = Graph(range(7), [(0, i) for i in range(1, 7)])
        sources = {i: (i, i * 10) for i in range(1, 7)}
        out, _ = bounded_flood(g, sources, hops=1, fanin=3, cfg=SimConfig())
        assert out[0] == {(1, 10), (2, 20), (3, 30)}

    def test_hops_zero(self):
        g = generate_graph("path", {"n": 3}, 0)
        out, stats = bounded_flood(g, {0: (0, "a")}, hops=0, fanin=2, cfg=SimConfig())
        assert out[0] == {(0, "a")} and out[1] == set() and stats.rounds == 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        hops=st.integers(1, 4),
        fanin=st.integers(1, 5),
    )
    def test_matches_oracle(self, seed, hops, fanin):
        g = generate_graph("gnp", {"n": 30, "p": 0.12}, seed)
        import numpy as np

        rng = np.random.default_rng(seed + 1)
        src = sorted(rng.choice(g.n, size=min(8, g.n), replace=False).tolist())
        sources = {int(i): (int(i), f"p{i}") for i in src}
        out, stats = bounded_flood(
            g, sources, hops, fanin, SimConfig(msg_bits=4 * g.id_bits + 8)
        )
        assert out == bounded_flood_oracle(g, sources, hops, fanin)
        # pipelining cost: fanin*hops plus slack for hop-count refinement
        assert stats.rounds <= (fanin + 2) * hops + 2


class _Recorded:
    """Mixin for flood programs: logs (round, node id, outbox) per step."""

    log: list = []

    def step(self, round_no, inbox):
        out = super().step(round_no, inbox)
        self.log.append((round_no, self.view.node_id, sorted(
            (port, m.payload, m.bits) for port, m in out.items()
        )))
        return out


class _SortedRescanFlood(_Flood):
    """Reference send rule: rescan every held origin in ascending order, for
    every port, every round."""

    def step(self, round_no, inbox):
        for msg in inbox.values():
            origin, h, payload = msg.payload
            cur = self.known.get(origin)
            if cur is None or h < cur[0]:
                self.known[origin] = (h, payload)
        out = {}
        for port in range(self.view.degree):
            for origin in sorted(self.known):
                h, payload = self.known[origin]
                if h >= self.hops:
                    continue
                prev = self.sent.get((port, origin))
                if prev is not None and prev <= h + 1:
                    continue
                self.sent[(port, origin)] = h + 1
                width = self.origin_bits or self.view.id_bits
                out[port] = Message(
                    (origin, h + 1, payload), TAG_BITS + width + self.hop_bits
                )
                break
        return out


class TestFloodSendQueue:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        hops=st.integers(1, 4),
        fanin=st.integers(1, 5),
        clusters=st.booleans(),
    )
    def test_outboxes_match_sorted_rescan(self, seed, hops, fanin, clusters):
        import numpy as np

        g = generate_graph("gnp", {"n": 40, "p": 0.1}, seed)
        rng = np.random.default_rng(seed)
        if clusters:  # members of one cluster share an origin id
            sources = {v: (int(rng.integers(8)) * 3 + 1, None) for v in range(g.n)}
        else:
            picked = rng.choice(g.n, size=12, replace=False).tolist()
            sources = {int(v): (g.ids[int(v)], f"p{v}") for v in picked}
        runs = []
        for base in (_Flood, _SortedRescanFlood):
            recorded = type("Recorded", (_Recorded, base), {"log": []})
            with patch.object(simulate, "_Flood", recorded):
                held, stats = bounded_flood(g, sources, hops, fanin, SimConfig())
            runs.append((recorded.log, held, stats))
        (log, held, stats), (ref_log, ref_held, ref_stats) = runs
        assert log == ref_log
        assert held == ref_held
        assert stats == ref_stats


class TestMinGossip:
    def test_exact_k_hop_min(self):
        g = generate_graph("path", {"n": 6}, 0)
        values = {0: 100, 5: 7}
        out, stats = min_gossip(g, values, hops=2, cfg=SimConfig())
        assert out == [100, 100, 100, 7, 7, 7]


def _path_cluster(g, cid, lo, hi, center):
    edges = frozenset((i, i + 1) for i in range(lo, hi))
    return Cluster(
        id=cid, center=center, members=frozenset(range(lo, hi + 1)),
        tree_edges=edges,
    )


class TestClusterPrimitives:
    def test_singleton_broadcast_zero_rounds(self):
        g = generate_graph("path", {"n": 1}, 0)
        c = Cluster(id=5, center=0, members=frozenset([0]))
        out, stats = cluster_broadcast(g, [c], {5: "x"}, SimConfig())
        assert stats.rounds == 0 and out[0] == {5: "x"}

    def test_disjoint_trees_rounds_equal_depth(self):
        g = generate_graph("path", {"n": 8}, 0)
        c1 = _path_cluster(g, 0, 0, 3, center=0)   # depth 3
        c2 = _path_cluster(g, 1, 5, 7, center=5)   # depth 2
        out, stats = cluster_broadcast(g, [c1, c2], {0: "a", 1: "b"}, SimConfig())
        assert stats.rounds == 3
        assert out[3] == {0: "a"} and out[7] == {1: "b"}

    def test_shared_edge_multiplexing(self):
        # two clusters whose trees share edge (2,3): rounds <= 2 * max depth
        g = generate_graph("path", {"n": 6}, 0)
        t1 = frozenset([(1, 2), (2, 3)])
        t2 = frozenset([(2, 3), (3, 4)])
        c1 = Cluster(id=0, center=1, members=frozenset([1, 3]), tree_edges=t1)
        c2 = Cluster(id=1, center=4, members=frozenset([2, 4]), tree_edges=t2)
        out, stats = cluster_broadcast(g, [c1, c2], {0: "a", 1: "b"}, SimConfig())
        assert out[3] == {0: "a"} and out[2] == {1: "b"}
        assert stats.rounds <= 2 * 2

    def test_convergecast_count(self):
        g = Graph(range(5), [(0, i) for i in range(1, 5)])
        c = Cluster(
            id=0, center=0, members=frozenset(range(5)),
            tree_edges=frozenset((0, i) for i in range(1, 5)),
        )
        values = {i: {0: [1]} for i in range(5)}
        agg, _ = cluster_convergecast(g, [c], values, SimConfig(), combine="count")
        assert agg == {0: 5}

    def test_convergecast_union_truncates_ascending(self):
        g = generate_graph("path", {"n": 4}, 0)
        c = _path_cluster(g, 0, 0, 3, center=0)
        values = {i: {0: [g.ids[i]]} for i in range(4)}
        agg, _ = cluster_convergecast(
            g, [c], values, SimConfig(), combine="union", item_cap=2
        )
        assert agg == {0: [0, 1]}

    def test_convergecast_union_counts_shared_items_once(self):
        # members holding the same id must not crowd out larger ones
        g = generate_graph("path", {"n": 4}, 0)
        c = _path_cluster(g, 0, 0, 3, center=0)
        values = {0: {0: [7]}, 1: {0: [5, 7]}, 2: {0: [5]}, 3: {0: [5, 9]}}
        agg, _ = cluster_convergecast(
            g, [c], values, SimConfig(), combine="union", item_cap=3
        )
        assert agg == {0: [5, 7, 9]}

    def test_singleton_convergecast(self):
        g = generate_graph("path", {"n": 1}, 0)
        c = Cluster(id=3, center=0, members=frozenset([0]))
        agg, stats = cluster_convergecast(
            g, [c], {0: {3: [42]}}, SimConfig(), combine="union", item_cap=4
        )
        assert agg == {3: [42]} and stats.rounds == 0
