"""Maximal independent set pipeline: Ghaffari's single-bit desire-level
algorithm, shattering diagnostics, ruling-set meta-clustering of the
undecided remainder, meta-graph decomposition, and per-color adoption of
parallel MIS runs.

Randomness is drawn from per-(seed, node id, lane) streams, so every result
is reproducible regardless of evaluation order or thread layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .carving import MetaGraph, ball_grow_refine, carve_decompose
from .clustering import RulingSetResult
from .decompose import decompose
from .graphs import (
    Graph,
    NetdecompError,
    _bfs_idx,
    component_labels,
    induced_subgraph,
    quotient,
    voronoi_cells,
)
from .simulate import (  # node_rng stays bound for the benchmark's tracer
    Message,
    NodeProgram,
    RoundStats,
    SimConfig,
    node_draws,
    node_keys,
    node_rng,
    philox_draws,
    run,
)

UNDECIDED, IN_MIS, REMOVED = 0, 1, 2


class MisError(NetdecompError):
    pass


def run_ghaffari(
    g: Graph,
    rounds: int,
    seed: int = 0,
    lane: int = 0,
    _draws: Optional[np.ndarray] = None,
) -> tuple[set[int], set[int], set[int], np.ndarray]:
    """Vectorized multi-round Ghaffari run.

    Returns (in_mis, removed, undecided, final desire levels), all as node
    index sets.  The in_mis set is independent and every removed node has
    an in_mis neighbor at every intermediate round by construction.

    Round t reads draw t of each node's ``node_rng(seed, id, lane)``
    stream (``_draws[:, t]`` when given).  The four draws of Philox block
    t // 4 are made when round t = 0 mod 4 is reached, and only for the
    nodes still undecided, since no other node reads them.
    """
    if rounds < 0:
        raise MisError("rounds must be >= 0")
    n = g.n
    A = g.adjacency_csr().astype(np.float64)
    keys = node_keys(seed, g.ids, lane) if _draws is None else None
    block = np.zeros((n, 4))  # rows of decided nodes go stale, unread
    p = np.full(n, 0.5)
    status = np.zeros(n, dtype=np.int8)
    for t in range(rounds):
        und = status == UNDECIDED
        if not und.any():
            break
        if _draws is not None:
            draw = _draws[:, t]
        else:
            if t % 4 == 0:
                rows = np.flatnonzero(und)
                block[rows] = philox_draws(keys[:, rows], 1, t // 4)
            draw = block[:, t % 4]
        pu = np.where(und, p, 0.0)
        eff = A @ pu
        marked = und & (draw < p)
        marked_nb = A @ marked.astype(np.float64)
        joined = marked & (marked_nb == 0)
        removed = und & ~joined & ((A @ joined.astype(np.float64)) > 0)
        status[joined] = IN_MIS
        status[removed] = REMOVED
        p = np.where(und & (eff >= 2.0), p / 2, np.minimum(2 * p, 0.5))
        p = np.where(und, p, 0.0)
    mis = {int(v) for v in np.flatnonzero(status == IN_MIS)}
    rem = {int(v) for v in np.flatnonzero(status == REMOVED)}
    undecided = {int(v) for v in np.flatnonzero(status == UNDECIDED)}
    return mis, rem, undecided, p


# -- engine-backed lanes (single-bit contract) ---------------------------


def _next_desire(p: np.ndarray, halve: np.ndarray) -> np.ndarray:
    """The desire-level update: p/2 where ``halve``, else min(2p, 1/2).
    Desire levels never exceed 1/2, so p/2 needs no cap, and p*0.5 is p/2
    exactly."""
    q = p * np.where(halve, 0.5, 2.0)
    return np.minimum(q, 0.5, out=q)


def _lane_flags(masks: list[int], lanes: int) -> np.ndarray:
    """The lane masks as a (len(masks), lanes) bool array: row i, column l
    is bit l of masks[i]."""
    width = (lanes + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=lanes, bitorder="little").view(bool)


def _lane_mask(flags: np.ndarray) -> int:
    """The bool vector of lanes as an int whose bit l is lane l."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _port_sums(values: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per lane, the sum of ``values[port, lane]`` over the ports whose
    ``flags[port, lane]`` is set, added one port at a time in port order
    (the order, and so every rounding, of a plain sequential sum)."""
    if not len(values):
        return np.zeros(values.shape[1])
    return np.add.accumulate(np.where(flags, values, 0.0), axis=0)[-1]


class _GhaffariLanes(NodeProgram):
    """Multi-lane Ghaffari over the CONGEST engine.

    Each algorithm round takes four sub-rounds — marked bits, joined bits,
    out bits, desire-direction bits — and every message carries exactly one
    bit per lane: its payload is an int whose bit l is lane l.  The node's
    lane flags are such masks too (undecided, in the MIS, marked, halving,
    and per port the lanes in which that neighbor is still undecided), so a
    sub-round costs a few int operations per port.  Desire levels are
    floats: one per lane, and one per (port, lane) for the neighbors.
    """

    MARKED, JOINED, OUT, DIR = 0, 1, 2, 3

    def __init__(self, rounds: int, lanes: int, draws: np.ndarray):
        self.rounds = rounds
        self.lanes = lanes
        self.draws = draws                       # (rounds, lanes)
        self.t = 0
        self.sub = 0
        self.undecided = (1 << lanes) - 1
        self.in_mis = 0
        self.marked = 0
        self.halve = np.zeros(lanes, dtype=bool)
        self.p = np.full(lanes, 0.5)
        self.silent = Message(0, max(1, lanes))

    def init(self, view):
        super().init(view)
        deg = view.degree
        self.nb_p = np.full((deg, self.lanes), 0.5)
        self.nb_und = [self.undecided] * deg
        if self.rounds == 0:
            self.halted = True

    def step(self, round_no, inbox):
        sub = self.sub
        self.sub = (sub + 1) % 4
        # A node decided in every lane sends zeros.  In lane l, a neighbor
        # still undecided has heard this node leave (its nb_und masks the
        # lane) or is itself removed by this node joining, so no one reads
        # these bits again, and the zeros keep the ledger and the statuses.
        out = self._sub_round(sub, inbox) if self.undecided else self.silent
        if sub == self.DIR:
            self.t += 1
            if self.t >= self.rounds:
                self.halted = True
                return {}
        return out

    def _sub_round(self, sub: int, inbox: dict[int, Message]) -> Message:
        """Sub-round ``sub`` at a node undecided in some lane: read the
        inbox, update the lane flags and return the broadcast."""
        bits = max(1, self.lanes)
        nb_und = self.nb_und
        if sub == self.MARKED:
            if inbox:
                # previous round's direction bits bring neighbor desires to
                # p_t; every neighbor sends one each round from the second
                # on, since all nodes run the same number of rounds
                masks = [inbox[q].payload for q in range(self.view.degree)]
                flags = _lane_flags(masks + nb_und, self.lanes)
                self.nb_p = _next_desire(self.nb_p, flags[: len(masks)])
                und_flags = flags[len(masks):]
            else:
                und_flags = _lane_flags(nb_und, self.lanes)
            # effective degree at round start, before this round's removals
            self.halve = _port_sums(self.nb_p, und_flags) >= 2.0
            self.marked = self.undecided & _lane_mask(self.draws[self.t] < self.p)
            return Message(self.marked, bits)
        if sub == self.JOINED:
            nb_marked = 0
            for port, msg in inbox.items():
                nb_marked |= msg.payload & nb_und[port]
            joined = self.marked & ~nb_marked
            self.undecided &= ~joined
            self.in_mis |= joined
            return Message(joined, bits)
        if sub == self.OUT:
            heard = 0
            for port, msg in inbox.items():
                heard |= msg.payload
            newly_out = self.undecided & heard
            self.undecided &= ~newly_out
            return Message(newly_out, bits)
        # DIR: learn removals, apply own desire update, announce direction
        for port, msg in inbox.items():
            nb_und[port] &= ~msg.payload  # neighbor removed
        self.p = _next_desire(self.p, self.halve)
        return Message(_lane_mask(self.halve), bits)

    def output(self):
        return [
            IN_MIS if self.in_mis >> ln & 1
            else UNDECIDED if self.undecided >> ln & 1
            else REMOVED
            for ln in range(self.lanes)
        ]


def ghaffari_engine(
    g: Graph, rounds: int, lanes: int, seed: int, cfg: Optional[SimConfig] = None
) -> tuple[list[list[int]], RoundStats]:
    """Run ``lanes`` independent Ghaffari executions through the simulator
    with single-bit-per-lane messages (an int payload whose bit l is lane
    l).  Returns per-node lane statuses and the engine ledger (max bits per
    edge-round == lanes)."""
    cfg = cfg or SimConfig()
    cfg = cfg.widened(g, max(1, lanes))
    draws = np.empty((g.n, max(1, rounds), lanes))  # draws[v]: rounds x lanes
    for ln in range(lanes):
        draws[:, :, ln] = node_draws(seed, g.ids, ln, max(1, rounds))
    it = iter(range(g.n))

    def factory():
        v = next(it)
        return _GhaffariLanes(rounds, lanes, draws[v])

    return run(g, factory, cfg)


# -- shattering diagnostics ----------------------------------------------


@dataclass
class ShatterReport:
    component_sizes: list[int]
    max_component: int
    bound_value: float              # log_delta(n) * delta^4
    c_p2: float                     # max_component / bound_value
    p1_witness: int                 # heuristic lower-bound witness size

    def to_json(self) -> dict:
        return self.__dict__.copy()


def shatter_check(g: Graph, B: set[int], delta: Optional[int] = None) -> ShatterReport:
    """Exact component sizes of G[B] plus the P2 bound instance and a P1
    witness heuristic: a greedy 5-hop-separated set of G[B] (nodes in id
    order), and the most of its nodes that one component of its 9-hop graph
    holds.  Two nodes within 9 hops share a component of G[B], so this is
    the largest such part within any component of G[B]."""
    if delta is None:
        delta = max(2, g.max_degree)
    delta = max(2, delta)
    bound = (math.log(max(2, g.n)) / math.log(delta)) * delta**4
    if not B:
        return ShatterReport([], 0, bound, 0.0, 0)
    sub = induced_subgraph(g, sorted(B))
    _, label = component_labels(sub)
    sizes = sorted(np.bincount(label).tolist(), reverse=True)
    chosen: list[int] = []
    taken = [False] * sub.n
    for v in range(sub.n):  # ids ascend with the indices
        near: list[int] = []
        _bfs_idx(sub, [v], cap=4, reached=near)
        if not any(map(taken.__getitem__, near)):
            taken[v] = True
            chosen.append(v)
    pairs = []  # chosen pairs (v, u), v < u, within 9 hops
    for v in chosen:
        near = []
        _bfs_idx(sub, [v], cap=9, reached=near)
        pairs.extend((v, u) for u in near if u > v and taken[u])
    _, label9 = component_labels(Graph(chosen, pairs))
    witness = int(np.bincount(label9).max())
    return ShatterReport(sizes, sizes[0], bound, sizes[0] / bound, witness)


# -- ruling set and meta-graph -------------------------------------------


def ruling_set(g: Graph, B: set[int], k: int) -> RulingSetResult:
    """Deterministic bit-splitting (k, k*ceil(log2 id-space)) ruling set of
    B, with distances measured inside G[B]."""
    if not B:
        raise MisError("ruling_set needs a nonempty B")
    if k < 1:
        raise MisError("k must be >= 1")
    sub = induced_subgraph(g, sorted(B))
    bits = sub.id_bits

    def rec(cands: list[int], bit: int) -> list[int]:
        if len(cands) <= 1 or bit < 0:
            return cands
        zeros = [v for v in cands if not (sub.ids[v] >> bit) & 1]
        ones = [v for v in cands if (sub.ids[v] >> bit) & 1]
        if not zeros or not ones:
            return rec(cands, bit - 1)
        r0 = rec(zeros, bit - 1)
        r1 = rec(ones, bit - 1)
        if k == 1:
            return sorted(r0 + r1)
        dist = _bfs_idx(sub, sorted(r0), cap=k - 1)
        return sorted(r0 + [v for v in r1 if dist[v] < 0])

    chosen_sub = rec(list(range(sub.n)), bits - 1)
    chosen = sorted(g.index_of(sub.ids[i]) for i in chosen_sub)
    return RulingSetResult(
        base=frozenset(g.index_of(i) for i in sub.ids),
        chosen=frozenset(chosen),
        alpha=k,
        beta=k * bits,
    )


def build_meta_graph(g: Graph, B: set[int], chosen: set[int]) -> MetaGraph:
    """Cluster every node of B to its closest ruling node inside G[B]
    (ties: first received = smaller distance, then smaller id), and connect
    meta-nodes that contain G-adjacent vertices."""
    order = sorted(B)
    sub = induced_subgraph(g, order)
    to_sub = {v: i for i, v in enumerate(order)}
    roots = sorted(to_sub[v] for v in chosen)
    owner = voronoi_cells(sub, [[r] for r in roots])
    if -1 in owner:
        raise MisError("ruling set does not dominate some component of B")
    members = [set() for _ in roots]
    for v in range(sub.n):
        members[owner[v]].add(order[v])
    return MetaGraph(
        graph=quotient(sub, owner, [sub.ids[r] for r in roots]),
        members=[frozenset(m) for m in members],
        underlying_n=g.n,
    )


# -- full pipeline -------------------------------------------------------


@dataclass
class MisReport:
    mis: set[int]                   # node indices
    rounds_preshatter: int
    shatter: Optional[ShatterReport]
    phases: dict = field(default_factory=dict)

    def to_json(self, g: Graph) -> dict:
        return {
            "mis": sorted(g.ids[v] for v in self.mis),
            "rounds": self.rounds_preshatter,
            "phases": self.phases,
        }


# batches of parallel Ghaffari lanes a region tries before the pipeline
# fails
RETRIES = 8


def mis_full(
    g: Graph, seed: int = 0, variant: str = "fast", c1: int = 20
) -> MisReport:
    """Full MIS pipeline: pre-shattering Ghaffari rounds, ruling-set
    meta-clustering of the undecided remainder, decomposition of the
    meta-graph (ball carving for 'fast', ball growing for 'slow'), then
    per color class adopt the first of ceil(2 log2 n) parallel Ghaffari
    runs that fully decides each super-cluster's region, retrying up to
    ``RETRIES`` times."""
    if variant not in ("fast", "slow"):
        raise MisError(f"unknown variant {variant!r}")
    delta = max(1, g.max_degree)
    pre_rounds = math.ceil(c1 * (math.log2(max(2, delta)) + 1))
    mis, removed, B, _ = run_ghaffari(g, pre_rounds, seed, lane=0)
    phases: dict = {"preshatter": pre_rounds, "percolor": []}
    shatter = shatter_check(g, B) if B else None
    if B:
        rs = ruling_set(g, B, k=5)
        h = build_meta_graph(g, B, set(rs.chosen))
        inter = decompose(h.graph, 1).decomposition
        if variant == "fast":
            dec, _, dphases = carve_decompose(h, inter, seed=seed)
        else:
            dec, logs = ball_grow_refine(h, inter)
            dphases = len(logs)
        phases["rulingset"] = len(rs.chosen)
        phases["decomposition"] = dphases
        lanes = math.ceil(2 * math.log2(max(2, g.n)))
        undecided = set(B)
        colors = sorted({c.color for c in dec.clusters})
        for color in colors:
            decided_this_color = 0
            for cl in sorted(
                (c for c in dec.clusters if c.color == color),
                key=lambda c: c.id,
            ):
                region = sorted(
                    v
                    for mi in cl.members
                    for v in h.members[mi]
                    if v in undecided
                )
                if not region:
                    continue
                sub = induced_subgraph(g, region)
                sub_rounds = math.ceil(
                    4 * (math.log2(max(2, sub.n)) + math.log2(max(2, delta)))
                ) + 8
                adopted = None
                for attempt in range(RETRIES):
                    for ln in range(lanes):
                        lane_tag = 1 + ((color * RETRIES + attempt) * lanes + ln)
                        m2, r2, b2, _ = run_ghaffari(
                            sub, sub_rounds, seed, lane=lane_tag
                        )
                        # a run is locally valid iff every region node is
                        # decided: in the MIS with no MIS neighbor, or
                        # dominated by an MIS neighbor
                        if not b2:
                            adopted = m2
                            break
                    if adopted is not None:
                        break
                if adopted is None:
                    raise MisError(
                        f"all {RETRIES}x{lanes} MIS runs left cluster "
                        f"{cl.id} (color {color}) undecided"
                    )
                new_mis = {region[i] for i in adopted}
                mis |= new_mis
                undecided -= set(region)
                decided_this_color += len(region)
                # remove MIS nodes' base-graph neighbors everywhere,
                # including regions of later colors
                for v in new_mis:
                    for u in g.neighbors[v]:
                        undecided.discard(u)
            phases["percolor"].append(decided_this_color)
        if undecided:
            raise MisError("pipeline left nodes undecided")
    return MisReport(
        mis=mis, rounds_preshatter=pre_rounds, shatter=shatter, phases=phases
    )
