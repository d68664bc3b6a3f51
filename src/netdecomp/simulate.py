"""Round-synchronous CONGEST engine with per-edge bit budgets, plus the
cluster-communication primitives (bounded flooding, min-gossip,
convergecast) the decomposition phases are built from.

Execution model: all nodes step in lockstep; a message sent in round r is
in the recipient's inbox in round r+1.  Every message declares its own bit
size (tag bits plus field widths) so the congestion ledger is auditable
rather than inferred.  A node's local view exposes only its id, its degree
and its ports — neighbor identities must be learned by messages.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .graphs import Graph, NetdecompError, edge_entries, paused_gc

TAG_BITS = 8


class SimError(NetdecompError):
    pass


class BudgetError(SimError):
    def __init__(self, round_no: int, edge: tuple[int, int], bits: int, budget: int):
        super().__init__(
            f"round {round_no}: message on edge {edge} uses {bits} bits "
            f"(budget {budget})"
        )
        self.round_no = round_no
        self.edge = edge
        self.bits = bits


class Message:
    """A payload and its declared size in bits.  Programs must not mutate a
    message once it is sent: one object may be mapped to many ports."""

    __slots__ = ("payload", "bits")

    def __init__(self, payload: Any, bits: int):
        if bits < 1:
            raise SimError("message must declare a positive bit size")
        self.payload = payload
        self.bits = bits

    def __eq__(self, other):
        if not isinstance(other, Message):
            return NotImplemented
        return self.payload == other.payload and self.bits == other.bits

    def __hash__(self):
        return hash((self.payload, self.bits))

    def __repr__(self):
        return f"Message(payload={self.payload!r}, bits={self.bits!r})"


@dataclass
class SimConfig:
    """Engine knobs.  ``msg_bits`` defaults to 4 * id_bits at run time."""

    msg_bits: Optional[int] = None
    max_rounds: int = 1_000_000
    seed: int = 0
    strict: bool = True
    run_index: int = 0

    def budget_for(self, g: Graph) -> int:
        b = max(4 * g.id_bits, g.id_bits + 8) if self.msg_bits is None else self.msg_bits
        if b < g.id_bits + 8:
            raise SimError(
                f"msg_bits={b} below id_bits + 8 = {g.id_bits + 8}"
            )
        return b

    def widened(self, g: Graph, needed_bits: int) -> "SimConfig":
        """A copy whose default budget accommodates ``needed_bits``; an
        explicitly configured msg_bits is left alone (and stays strict)."""
        from dataclasses import replace

        if self.msg_bits is not None:
            return self
        return replace(self, msg_bits=max(self.budget_for(g), needed_bits))


@dataclass
class RoundStats:
    rounds: int = 0
    max_bits_per_edge_round: int = 0
    total_messages: int = 0
    budget_violations: list[tuple[int, tuple[int, int], int]] = field(
        default_factory=list
    )

    def merge(self, other: "RoundStats") -> None:
        self.rounds += other.rounds
        self.max_bits_per_edge_round = max(
            self.max_bits_per_edge_round, other.max_bits_per_edge_round
        )
        self.total_messages += other.total_messages
        self.budget_violations.extend(other.budget_violations)

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "max_bits_per_edge_round": self.max_bits_per_edge_round,
            "total_messages": self.total_messages,
            "budget_violations": [
                [r, list(e), b] for r, e, b in self.budget_violations
            ],
        }


@dataclass(slots=True)
class NodeView:
    """What a node is allowed to see: itself and its ports, nothing else.

    ``rng`` is the node's private stream ``node_rng(seed, node_id,
    run_index)``; it is built on first read, so programs that draw nothing
    pay nothing for it.
    """

    node_id: int
    degree: int
    id_bits: int
    seed: int
    run_index: int
    _rng: Optional[np.random.Generator] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = node_rng(self.seed, self.node_id, self.run_index)
        return self._rng


class NodeProgram:
    """Per-node state machine.  Subclasses set ``halted`` when done.

    ``step`` returns an outbox in one of two forms: a dict {port: Message},
    in which the same ``Message`` object may be mapped to many ports, or a
    single ``Message``, which is a broadcast: that message on every port.
    Both are counted and delivered alike.  Once ``halted``
    is set — in ``init`` or in a ``step``, whose outbox is still delivered —
    the program is never stepped again, and messages sent to it are
    dropped.
    """

    halted: bool = False

    def init(self, view: NodeView) -> None:
        self.view = view

    def step(
        self, round_no: int, inbox: dict[int, Message]
    ) -> dict[int, Message] | Message:
        raise NotImplementedError

    def output(self) -> Any:
        return None


def _key_digests(seed: int, ids: Iterable[int], run_index: int) -> bytes:
    """The 128-bit blake2b hashes of (seed, id, run) for each id,
    concatenated.  Each hash continues a copy of a state that has absorbed
    the seed prefix, which gives the bytes of hashing the whole string."""
    prefix = hashlib.blake2b(f"{seed}:".encode(), digest_size=16)
    suffix = f":{run_index}"
    out = []
    for v in ids:
        h = prefix.copy()
        h.update(f"{v}{suffix}".encode())
        out.append(h.digest())
    return b"".join(out)


def _key_words(seed: int, node_id: int, run_index: int) -> tuple[int, int]:
    """The hash of (seed, node, run) as two little-endian 64-bit words."""
    digest = _key_digests(seed, [node_id], run_index)
    return int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """The uint64 words ``np.random.Philox(key=[k0, k1])`` keys with, for
    each (k0, k1) row of ``words``.

    numpy reads the list through ``np.asarray``: int64 when both words are
    below 2^63, uint64 when both are at least 2^63, and float64 when
    exactly one is, which rounds both words to 53 significant bits; a word
    that rounds up to 2^64 becomes 0.  The same call keeps the same
    rounding.
    """
    keys = np.array(words, dtype=np.uint64)
    top = keys >= np.uint64(1 << 63)
    mixed = top[:, 0] != top[:, 1]
    rounded = keys[mixed].astype(np.float64)
    rounded[rounded >= 2.0**64] = 0
    keys[mixed] = rounded.astype(np.uint64)
    return keys


def node_rng(seed: int, node_id: int, run_index: int = 0) -> np.random.Generator:
    """Private replayable stream per (seed, node, run).

    The key is a 128-bit blake2b hash of the triple as two 64-bit words, so
    any id gets its own stream.  When exactly one word is >= 2^63, numpy
    reads the key list as float64 and rounds both words to 53 significant
    bits (see ``_philox_keys``); this is deterministic, and every stream
    depends on it.  ``node_draws`` computes the same streams for many
    nodes at once, bit for bit.
    """
    key = list(_key_words(seed, node_id, run_index))
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon, Moraes, Dror, Shaw, SC 2011) as numpy runs it.  A
# block is (x0, x1, x2, x3); one round multiplies x0 by M0 and x2 by M1 and
# gives (hi(M1·x2) ^ x1 ^ k0, lo(M1·x2), hi(M0·x0) ^ x3 ^ k1, lo(M0·x0)).
# Below, the pairs (x0, x2), (x1, x3) and (k0, k1) are stacked on axis 0.
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_M_LO, _M_HI = _M & _LOW32, _M >> _32
_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]


# Philox blocks per pass of the rounds (a pass takes this many // blocks
# per row rows), so that each temporary takes about 256 kB however many ids
# are drawn for
_CHUNK_BLOCKS = 1 << 14


def node_keys(seed: int, ids: Sequence[int], run_index: int) -> np.ndarray:
    """The Philox keys of ``node_rng(seed, v, run_index)`` for each v in
    ``ids``, as the (k0, k1) pairs stacked on axis 0: shape (2, len(ids), 1),
    ready for ``philox_draws``."""
    words = np.frombuffer(_key_digests(seed, ids, run_index), "<u8")
    return _philox_keys(words.reshape(-1, 2)).T[:, :, None]


def philox_draws(keys: np.ndarray, blocks: int, offset: int) -> np.ndarray:
    """Draws 4 * offset .. 4 * (offset + blocks) - 1 of the stream of each
    key of ``keys`` (from ``node_keys``), one row per key: the uniform
    doubles ``Generator.random`` makes of Philox blocks offset + 1 ..
    offset + blocks."""
    words = _philox_words(keys, blocks, offset)
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def node_draws(seed: int, ids: Sequence[int], run_index: int, count: int) -> np.ndarray:
    """``count`` uniform draws on [0, 1) for each id, one row per id.

    Row i equals ``node_rng(seed, ids[i], run_index).random(count)`` bit
    for bit: the keys are the same words, rounded to 53 significant bits
    when exactly one is >= 2^63 (``_philox_keys``), and Philox4x64-10 runs
    for a chunk of rows at once in uint64 arithmetic.  Block b of a row is
    Philox applied to the counter (b + 1, 0, 0, 0), its four words are used
    in order, and a draw is (word >> 11) * 2^-53, as in numpy's
    ``Generator.random``.
    """
    rows = len(ids)
    out = np.empty((rows, count))
    if rows == 0 or count == 0:
        return out
    keys = node_keys(seed, ids, run_index)
    blocks = -(-count // 4)
    step = max(1, _CHUNK_BLOCKS // blocks)
    for lo in range(0, rows, step):
        out[lo : lo + step] = philox_draws(keys[:, lo : lo + step], blocks, 0)[:, :count]
    return out


def _philox_words(keys: np.ndarray, blocks: int, offset: int) -> np.ndarray:
    """The words of blocks offset + 1 .. offset + ``blocks`` under each key
    of ``keys`` (the (k0, k1) pairs stacked on axis 0), one row of
    4 * blocks per key."""
    rows = keys.shape[1]
    mul = np.zeros((2, rows, blocks), dtype=np.uint64)   # (x0, x2)
    mul[0] = np.arange(offset + 1, offset + blocks + 1, dtype=np.uint64)
    xor = np.zeros_like(mul)                             # (x1, x3)
    for r in range(10):
        if r:
            keys = keys + _W
        # high words of the 128-bit products M * mul, from 32-bit halves;
        # no partial sum exceeds 64 bits
        x_lo, x_hi = mul & _LOW32, mul >> _32
        u = _M_HI * x_lo + (_M_LO * x_lo >> _32)
        v = _M_LO * x_hi + (u & _LOW32)
        hi = _M_HI * x_hi + (u >> _32) + (v >> _32)
        mul, xor = hi[::-1] ^ xor ^ keys, (_M * mul)[::-1]
    words = np.stack([mul, xor], axis=-1).transpose(1, 2, 0, 3)
    return words.reshape(rows, 4 * blocks)


def run(
    g: Graph,
    program_factory: Callable[[], NodeProgram],
    cfg: SimConfig,
    stop_when_quiet: bool = False,
    count_active_only: bool = False,
) -> tuple[list[Any], RoundStats]:
    """Execute ``program_factory()`` instances on every node in lockstep.

    Pure function of (g, programs, cfg): identical inputs give bit-identical
    outputs and stats.  Raises on strict budget breach or round-cap overrun.
    Each round steps the programs not yet halted in node order; a program
    that has halted is never stepped again.  One ``Message`` object may be
    delivered on many ports, so programs must not mutate received
    messages.  Every message counts once in ``total_messages`` and in the
    bit ledger; a broadcast counts once per port, so at degree 0 it sends
    nothing.  Non-strict budget violations are logged as (round, edge,
    bits) in the order the messages are sent, a broadcast's in port order.
    The cyclic garbage collector is paused for the whole run.
    """
    # Nothing the engine builds forms a reference cycle, so reference
    # counting frees every inbox and message, and with the cyclic collector
    # paused no collection rescans the live programs.  ``_run`` returns
    # inside the guard, so only its results are left when the collector
    # resumes.  A cycle a program builds is collected after that.
    with paused_gc():
        return _run(g, program_factory, cfg, stop_when_quiet, count_active_only)


def _run(
    g: Graph,
    program_factory: Callable[[], NodeProgram],
    cfg: SimConfig,
    stop_when_quiet: bool,
    count_active_only: bool,
) -> tuple[list[Any], RoundStats]:
    budget = cfg.budget_for(g)
    n = g.n
    ids = g.ids
    indptr, dst = g._rows
    ptr = indptr.tolist()
    # port p of node i leads to (j, q): j = dst[ptr[i] + p], and i is port
    # q of j, the offset of the reverse entry (j, i) in row j
    src = np.repeat(np.arange(n), np.diff(indptr))
    back_ports = edge_entries(g, dst, src) - indptr[dst]
    pairs = list(zip(dst.tolist(), back_ports.tolist()))
    links = [pairs[ptr[i] : ptr[i + 1]] for i in range(n)]
    progs = [program_factory() for _ in range(n)]
    for i, p in enumerate(progs):
        p.init(NodeView(ids[i], len(links[i]), g.id_bits, cfg.seed, cfg.run_index))
    live = [i for i in range(n) if not progs[i].halted]
    inboxes: list[dict[int, Message]] = [{} for _ in range(n)]
    violations: list[tuple[int, tuple[int, int], int]] = []
    rounds = active_rounds = messages = max_bits = 0
    while live:
        if rounds >= cfg.max_rounds:
            raise SimError(f"max_rounds={cfg.max_rounds} exceeded with live nodes")
        rounds += 1
        sent_before = messages
        next_inboxes: list[dict[int, Message]] = [{} for _ in range(n)]
        still_live = []
        for i in live:
            p = progs[i]
            outbox = p.step(rounds, inboxes[i])
            if outbox:
                link = links[i]
                if isinstance(outbox, Message):
                    # a broadcast: its bits are checked once, and its
                    # violations logged edge by edge in port order
                    if link:
                        messages += len(link)
                        bits = outbox.bits
                        if bits > max_bits:
                            max_bits = bits
                        if bits > budget:
                            for j, _ in link:
                                edge = (ids[min(i, j)], ids[max(i, j)])
                                if cfg.strict:
                                    raise BudgetError(rounds, edge, bits, budget)
                                violations.append((rounds, edge, bits))
                        for j, back in link:
                            next_inboxes[j][back] = outbox
                else:
                    messages += len(outbox)
                    for port, msg in outbox.items():
                        j, back = link[port]
                        next_inboxes[j][back] = msg
                        bits = msg.bits
                        if bits > max_bits:
                            max_bits = bits
                        if bits > budget:
                            edge = (ids[min(i, j)], ids[max(i, j)])
                            if cfg.strict:
                                raise BudgetError(rounds, edge, bits, budget)
                            violations.append((rounds, edge, bits))
            if not p.halted:
                still_live.append(i)
        live = still_live
        inboxes = next_inboxes
        if messages > sent_before:
            active_rounds += 1
        elif stop_when_quiet:
            break
    stats = RoundStats(
        rounds=active_rounds if count_active_only else rounds,
        max_bits_per_edge_round=max_bits,
        total_messages=messages,
        budget_violations=violations,
    )
    return [p.output() for p in progs], stats


# -- min-gossip ----------------------------------------------------------


class _MinGossip(NodeProgram):
    """k rounds of min-flooding: output = exact min value within k hops."""

    def __init__(self, value: Optional[int], hops: int, value_bits: int):
        self.best = value
        self.hops = hops
        self.value_bits = value_bits

    def step(self, round_no, inbox):
        for msg in inbox.values():
            v = msg.payload
            if v is not None and (self.best is None or v < self.best):
                self.best = v
        if round_no > self.hops:
            self.halted = True
            return {}
        if self.best is None:
            return {}
        return Message(self.best, TAG_BITS + self.value_bits)

    def output(self):
        return self.best


def min_gossip(
    g: Graph,
    values: dict[int, int],
    hops: int,
    cfg: SimConfig,
) -> tuple[list[Optional[int]], RoundStats]:
    """Per node: the minimum of ``values`` (keyed by node index) held by any
    node within ``hops``; None if no valued node is that close."""
    value_bits = max(
        (int(v).bit_length() for v in values.values()), default=1
    ) or 1
    it = iter(range(g.n))

    def factory():
        i = next(it)
        return _MinGossip(values.get(i), hops, value_bits)

    return run(g, factory, cfg.widened(g, TAG_BITS + value_bits))


# -- bounded flood -------------------------------------------------------


class _Flood(NodeProgram):
    """Smallest-first, hop-annotated flooding with full memory.

    Each round, each edge carries the smallest-id origin whose best-known
    hop count improved since it was last sent there.  On quiescence every
    node knows the exact shortest hop count (up to ``hops``) of every
    in-range origin; holdings are truncated to the ``fanin`` smallest.

    The node keeps a min-heap of origins that may be due: an origin is
    pushed whenever its hop count improves below ``hops``, and a popped
    origin already sent at <= its hop count + 1 is dropped.  The first
    origin that survives is the smallest one due.  Every port would see the
    same pushes and apply this rule to the same state, so one heap and one
    ``sent`` map serve all ports, and each round one message goes out on
    every port.
    """

    def __init__(self, origin: Optional[tuple[int, Any]], hops: int, fanin: int,
                 origin_bits: int, hop_bits: int):
        self.known: dict[int, tuple[int, Any]] = {}  # origin -> (best_hops, payload)
        self.due: list[int] = []
        if origin is not None:
            self.known[origin[0]] = (0, origin[1])
            if hops > 0:
                self.due.append(origin[0])
        self.sent: dict[int, int] = {}  # origin -> hops sent on every port
        self.hops = hops
        self.fanin = fanin
        self.msg_bits = TAG_BITS + origin_bits + hop_bits

    def step(self, round_no, inbox):
        known, due, sent = self.known, self.due, self.sent
        for msg in inbox.values():
            origin, h, payload = msg.payload
            cur = known.get(origin)
            if cur is None or h < cur[0]:
                known[origin] = (h, payload)
                if h < self.hops:
                    heapq.heappush(due, origin)
        while due:
            origin = heapq.heappop(due)
            h, payload = known[origin]
            prev = sent.get(origin)
            if prev is not None and prev <= h + 1:
                continue
            sent[origin] = h + 1
            return Message((origin, h + 1, payload), self.msg_bits)
        return {}

    def output(self):
        best = sorted(self.known)[: self.fanin]
        return {(o, self.known[o][1]) for o in best}


def bounded_flood(
    g: Graph,
    sources: dict[int, tuple[int, Any]],
    hops: int,
    fanin: int,
    cfg: SimConfig,
) -> tuple[list[set[tuple[int, Any]]], RoundStats]:
    """Pipelined flood of (origin id, payload) pairs from ``sources`` (keyed
    by node index; source nodes sharing an origin id, e.g. members of one
    cluster, count once).  Each node ends holding the min(fanin, #in-range)
    smallest origins within ``hops``."""
    if fanin < 1 or hops < 0:
        raise SimError("bounded_flood needs fanin >= 1, hops >= 0")
    hop_bits = max(1, hops.bit_length())
    origin_bits = max(
        g.id_bits, max((int(o).bit_length() for o, _ in sources.values()), default=1)
    )
    it = iter(range(g.n))

    def factory():
        i = next(it)
        return _Flood(sources.get(i), hops, fanin, origin_bits, hop_bits)

    return run(
        g,
        factory,
        cfg.widened(g, TAG_BITS + origin_bits + hop_bits),
        stop_when_quiet=True,
        count_active_only=True,
    )


def bounded_flood_oracle(
    g: Graph, sources: dict[int, tuple[int, Any]], hops: int, fanin: int
) -> list[set[tuple[int, Any]]]:
    """Centralized reference: BFS ball of each origin (union over its source
    nodes), then per node the fanin smallest in-range origins
    (``_smallest_in_reach``)."""
    payload_of: dict[int, Any] = {}
    members: dict[int, list[int]] = {}
    for i, (origin, payload) in sources.items():
        payload_of[origin] = payload
        members.setdefault(origin, []).append(i)
    origins = sorted(members)
    items = np.empty(len(origins), dtype=object)
    items[:] = [(origin, payload_of[origin]) for origin in origins]
    rows, ptr = _smallest_in_reach(g, [members[o] for o in origins], hops, fanin)
    kept = items[rows]
    return [set(kept[a:b]) for a, b in zip(ptr, ptr[1:])]


def _smallest_in_reach(
    g: Graph, groups: list[list[int]], hops: int, fanin: int
) -> tuple[np.ndarray, list[int]]:
    """For each node, the positions of the first ``fanin`` groups within
    ``hops`` of it, in ascending order, concatenated over the nodes, and
    the offsets where each node's run starts.  Uses boolean sparse matrix
    powers and keeps each column's first ``fanin`` rows with one rank mask;
    the matrices are freed on return, before the caller builds its sets."""
    from scipy import sparse

    adj = g.adjacency_csr().astype(bool)
    rows = np.repeat(np.arange(len(groups)), [len(m) for m in groups])
    cols = [i for m in groups for i in m]
    reach = sparse.csr_matrix(
        (np.ones(len(rows), dtype=bool), (rows, cols)), shape=(len(groups), g.n)
    )
    acc = reach.copy()
    for _ in range(hops):
        reach = (reach @ adj).astype(bool)
        acc = (acc + reach).astype(bool)
    csc = acc.tocsc()  # row order == group order
    assert csc.has_sorted_indices  # so a column's first fanin rows are its first
    counts = np.diff(csc.indptr)
    rank = np.arange(csc.nnz, dtype=csc.indptr.dtype)
    rank -= np.repeat(csc.indptr[:-1], counts)
    ptr = np.concatenate(([0], np.cumsum(np.minimum(counts, fanin)))).tolist()
    return csc.indices[rank < fanin], ptr


# -- cluster trees -------------------------------------------------------


@dataclass
class TreeRole:
    """A node's role on one cluster tree: parent port (None at the root)
    and child ports, in the host node's port numbering."""

    cluster_id: int
    parent_port: Optional[int]
    child_ports: tuple[int, ...]


def tree_roles(g: Graph, clusters) -> list[list[TreeRole]]:
    """Root every cluster tree at its center and hand each node its roles,
    sorted by cluster id (the multiplexing priority order)."""
    roles: list[list[TreeRole]] = [[] for _ in range(g.n)]
    for c in sorted(clusters, key=lambda c: c.id):
        adj: dict[int, list[int]] = {}
        for a, b in c.tree_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if not adj:
            adj = {c.center: []}
        parent: dict[int, Optional[int]] = {c.center: None}
        order = [c.center]
        for u in order:
            for v in sorted(adj[u]):
                if v not in parent:
                    parent[v] = u
                    order.append(v)
        if len(parent) != len(adj):
            raise SimError(f"cluster {c.id}: tree not connected")
        children: dict[int, list[int]] = {u: [] for u in adj}
        for v, p in parent.items():
            if p is not None:
                children[p].append(v)
        for u in adj:
            pp = (
                None
                if parent[u] is None
                else g.neighbors[u].index(parent[u])
            )
            cp = tuple(sorted(g.neighbors[u].index(v) for v in children[u]))
            roles[u].append(TreeRole(c.id, pp, cp))
    return roles


class _Convergecast(NodeProgram):
    """Leaves-to-root aggregation.  ``union`` streams the item_cap smallest
    distinct items in ascending order once a subtree is complete; ``count``
    sends a single tally.  -1 payload marks end-of-stream."""

    def __init__(self, roles, own: dict[int, list[int]], mode: str,
                 item_cap: int, item_bits: int):
        self.roles = roles
        self.own = own
        self.mode = mode
        self.item_cap = item_cap
        self.item_bits = item_bits
        self.got: dict[int, dict[int, list[int]]] = {}
        self.children: dict[int, frozenset[int]] = {}
        self.done_children: dict[int, set[int]] = {}
        self.queue: dict[int, deque] = {}
        self.result: dict[int, Any] = {}

    def init(self, view):
        super().init(view)
        for r in self.roles:
            self.got[r.cluster_id] = {p: [] for p in r.child_ports}
            self.children[r.cluster_id] = frozenset(r.child_ports)
            self.done_children[r.cluster_id] = set()
            if not r.child_ports and r.parent_port is None:
                value = self._subtree_value(r)
                self.result[r.cluster_id] = (
                    value[0] if self.mode == "count" else value
                )
                self.queue[r.cluster_id] = deque()
        if not self.roles or all(
            not self.queue.get(r.cluster_id, [True]) for r in self.roles
        ):
            self.halted = True

    def _subtree_value(self, r: TreeRole):
        items = list(self.own.get(r.cluster_id, []))
        for vals in self.got[r.cluster_id].values():
            items.extend(vals)
        if self.mode == "count":
            return [sum(items)] if items else [0]
        return sorted(set(items))[: self.item_cap]

    def step(self, round_no, inbox):
        for port, msg in inbox.items():
            cid, value = msg.payload
            if value == -1:
                self.done_children[cid].add(port)
            else:
                self.got[cid][port].append(value)
        out = {}
        busy: set[int] = set()
        for r in self.roles:  # ascending cluster id priority
            cid = r.cluster_id
            if self.done_children[cid] != self.children[cid]:
                continue
            if cid not in self.queue:
                value = self._subtree_value(r)
                if r.parent_port is None:
                    self.result[cid] = (
                        value[0] if self.mode == "count" else value
                    )
                    self.queue[cid] = deque()
                else:
                    self.queue[cid] = deque(value + [-1])
            if r.parent_port is not None and self.queue[cid]:
                if r.parent_port not in busy:
                    item = self.queue[cid].popleft()
                    out[r.parent_port] = Message(
                        (cid, item), TAG_BITS + self.item_bits
                    )
                    busy.add(r.parent_port)
        if not out and all(
            not self.queue.get(r.cluster_id, [True]) for r in self.roles
        ):
            self.halted = True
        return out

    def output(self):
        return self.result


def cluster_convergecast(
    g: Graph,
    clusters,
    values: dict[int, dict[int, list[int]]],
    cfg: SimConfig,
    combine: str = "union",
    item_cap: int = 2**30,
) -> tuple[dict[int, Any], RoundStats]:
    """Aggregate per-member values to each cluster center.

    ``values`` maps node index -> {cluster id -> list of items}.  With
    combine='union' the center ends with the item_cap smallest distinct
    items of its members (ascending truncation); with 'count' the total
    tally.  Returns {cluster id -> aggregate} plus stats.
    """
    if combine not in ("union", "count"):
        raise SimError(f"unsupported combine {combine!r}")
    roles = tree_roles(g, clusters)
    item_bits = g.id_bits + 1
    for per in values.values():
        for items in per.values():
            for v in items:
                item_bits = max(item_bits, int(v).bit_length() + 1)
    it = iter(range(g.n))

    def factory():
        i = next(it)
        return _Convergecast(
            roles[i], values.get(i, {}), combine, item_cap, item_bits
        )

    outputs, stats = run(
        g, factory, cfg.widened(g, TAG_BITS + item_bits), count_active_only=True
    )
    merged: dict[int, Any] = {}
    for res in outputs:
        merged.update(res)
    return merged, stats
