"""Engine tests: handshake fixtures, budget accounting, determinism,
locality, flooding vs its central oracle, tree broadcast/convergecast."""

import hashlib
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdecomp import carving, decompose, mis, simulate
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
    node_draws,
    node_rng,
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


class TestEngineContract:
    def test_halted_programs_are_never_stepped_again(self):
        # node v halts in round v (node 0 already in init); every live node
        # keeps sending to all ports, so halted nodes keep receiving
        g = generate_graph("gnp", {"n": 30, "p": 0.2}, 4)
        assert list(g.ids) == list(range(g.n))
        steps = []

        class HaltAtOwnIndex(NodeProgram):
            def init(self, view):
                super().init(view)
                self.index = view.node_id
                self.halted = self.index == 0

            def step(self, round_no, inbox):
                assert not self.halted
                steps.append((round_no, self.index))
                if round_no >= self.index:
                    self.halted = True
                m = Message(round_no, TAG_BITS + 8)
                return dict.fromkeys(range(self.view.degree), m)

        _, stats = run(g, HaltAtOwnIndex, SimConfig())
        assert steps == [
            (r, v) for r in range(1, g.n) for v in range(g.n) if v >= r
        ]
        assert stats.rounds == g.n - 1
        assert stats.total_messages == sum(
            len(g.neighbors[v]) * v for v in range(g.n)
        )

    def test_non_strict_violations_keep_send_order(self):
        # outboxes list their ports in reverse and vary the bits: the ledger
        # follows rounds, then node order, then each outbox's own order
        g = generate_graph("gnp", {"n": 25, "p": 0.2}, 2)
        sends = []

        class Loud(NodeProgram):
            def step(self, round_no, inbox):
                if round_no == 3:
                    self.halted = True
                out = {}
                for port in reversed(range(self.view.degree)):
                    bits = 8 + (self.view.node_id * 7 + port * 3 + round_no) % 20
                    out[port] = Message(port, bits)
                    sends.append((round_no, self.view.node_id, port, bits))
                return out

        budget = g.id_bits + 8
        _, stats = run(g, Loud, SimConfig(msg_bits=budget, strict=False))
        index = {v: i for i, v in enumerate(g.ids)}
        want = []
        for round_no, v, port, bits in sorted(sends, key=lambda s: s[:2]):
            u = g.ids[g.neighbors[index[v]][port]]
            if bits > budget:
                want.append((round_no, (min(u, v), max(u, v)), bits))
        assert want and len(want) < len(sends)
        assert stats.budget_violations == want
        assert stats.total_messages == len(sends)
        assert stats.max_bits_per_edge_round == max(s[3] for s in sends)
        with pytest.raises(BudgetError) as err:
            run(g, Loud, SimConfig(msg_bits=budget, strict=True))
        assert (err.value.round_no, err.value.edge, err.value.bits) == want[0]

    def test_message_is_slotted_value(self):
        m = Message((1, 2), 9)
        assert m == Message((1, 2), 9) and m != Message((1, 2), 10)
        assert hash(m) == hash(Message((1, 2), 9))
        assert not hasattr(m, "__dict__")
        with pytest.raises(SimError):
            Message(None, 0)


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


def _philox_stream(seed, node_id, run_index):
    """The node's stream built from ``np.random.Philox`` directly."""
    digest = hashlib.blake2b(
        f"{seed}:{node_id}:{run_index}".encode(), digest_size=16
    ).digest()
    key = [int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")]
    return key, np.random.Generator(np.random.Philox(key=key))


# ids whose key words cover both branches of numpy's key conversion: both
# words on one side of 2^63 (read exactly) and exactly one word >= 2^63
# (read as float64)
_BOTH_BRANCHES = [0, 1, 2, 3, 2**63, 2**100 + 7, 2**128 - 1]


def _mixed(key):
    return (key[0] >= 2**63) != (key[1] >= 2**63)


class TestNodeDraws:
    def test_example_ids_cover_both_key_branches(self):
        mixed = {_mixed(_philox_stream(5, v, 3)[0]) for v in _BOTH_BRANCHES}
        assert mixed == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        ids=st.lists(st.integers(0, 2**128 - 1), max_size=12, unique=True),
        run_index=st.integers(0, 10**6),
        count=st.integers(0, 50),
    )
    @example(seed=5, ids=_BOTH_BRANCHES, run_index=3, count=13)
    @example(seed=5, ids=_BOTH_BRANCHES, run_index=3, count=0)
    @example(seed=0, ids=[], run_index=0, count=7)
    def test_rows_equal_per_node_philox_streams(self, seed, ids, run_index, count):
        out = node_draws(seed, ids, run_index, count)
        assert out.shape == (len(ids), count) and out.dtype == np.float64
        for row, v in zip(out, ids):
            expected = _philox_stream(seed, v, run_index)[1].random(count)
            assert row.tobytes() == expected.tobytes()

    # at 2^64 - 1 the float64 word rounds to 2^64, which numpy's cast
    # turns into 0 with a warning and _philox_keys sets to 0 itself
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.parametrize(
        "k0,k1", [(2**63 - 1, 2**63), (2**63, 2**53 + 1), (2**64 - 1, 5)]
    )
    def test_key_conversion_matches_numpy(self, k0, k1):
        expected = np.random.Philox(key=[k0, k1]).state["state"]["key"]
        words = np.array([[k0, k1]], dtype=np.uint64)
        assert simulate._philox_keys(words)[0].tolist() == expected.tolist()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_key_rows_match_numpy(self):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**64, size=(100, 2), dtype=np.uint64)
        words[rng.random(100) < 0.3, 0] |= np.uint64(0xFFFFFFFFFFFFF800)
        words[37] = (2**64 - 1, 5)
        keys = simulate._philox_keys(words)
        for row, (k0, k1) in zip(keys, words.tolist()):
            expected = np.random.Philox(key=[k0, k1]).state["state"]["key"]
            assert row.tolist() == expected.tolist()

    @settings(max_examples=20, deadline=None)
    @given(
        chunk=st.integers(1, 40),
        rows=st.integers(1, 30),
        count=st.integers(1, 50),
    )
    def test_row_chunks_change_no_draw(self, chunk, rows, count):
        ids = [2**127 + 977 * v for v in range(rows)]
        whole = node_draws(11, ids, 4, count)
        with patch.object(simulate, "_CHUNK_BLOCKS", chunk):
            chunked = node_draws(11, ids, 4, count)
        assert chunked.tobytes() == whole.tobytes()
        assert whole[-1].tobytes() == node_rng(11, ids[-1], 4).random(count).tobytes()

    def test_node_rng_is_one_row(self):
        for v in _BOTH_BRANCHES:
            row = node_draws(7, [v], 2, 9)[0]
            assert row.tobytes() == node_rng(7, v, 2).random(9).tobytes()


@contextmanager
def _node_rng_calls():
    """Counts calls of ``node_rng`` through every module that binds it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return node_rng(*args)

    with ExitStack() as stack:
        for mod in (simulate, mis, carving):
            stack.enter_context(patch.object(mod, "node_rng", counting))
        yield calls


class TestNoPerNodeGenerators:
    def test_hot_paths_build_no_node_rng(self):
        g = generate_graph("gnp", {"n": 80, "p": 0.06, "largest_component": 1}, 2)
        h = carving.MetaGraph.from_graph(g)
        inter = decompose.decompose(g, 1).decomposition
        with _node_rng_calls() as calls:
            mis.run_ghaffari(g, 13, 1, lane=4)
            mis.ghaffari_engine(g, 5, 3, 1)
            carving.carve_decompose(h, inter, seed=1)
        assert calls == []

    def test_node_view_rng_is_built_on_first_read(self):
        g = generate_graph("gnp", {"n": 30, "p": 0.1}, 3)

        class Silent(NodeProgram):
            def step(self, round_no, inbox):
                self.halted = True
                return {}

        class Draws(NodeProgram):
            def step(self, round_no, inbox):
                assert self.view.rng is self.view.rng  # cached
                self.draw = self.view.rng.random(3).tolist()
                self.halted = True
                return {}

            def output(self):
                return self.draw

        cfg = SimConfig(seed=4, run_index=6)
        with _node_rng_calls() as calls:
            run(g, Silent, cfg)
        assert calls == []
        with _node_rng_calls() as calls:
            out, _ = run(g, Draws, cfg)
        assert calls == [(4, v, 6) for v in g.ids]
        assert out == [node_rng(4, v, 6).random(3).tolist() for v in g.ids]
