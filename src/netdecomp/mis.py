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
from fractions import Fraction
from typing import Optional

import numpy as np

from .carving import MetaGraph, ball_grow_refine, carve_decompose
from .clustering import RulingSetResult
from .decompose import decompose
from .graphs import (
    Graph,
    NetdecompError,
    _bfs_idx,
    connected_components,
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
    node_rng,
    run,
)

UNDECIDED, IN_MIS, REMOVED = 0, 1, 2


class MisError(NetdecompError):
    pass


def next_desire(p: Fraction, d: Fraction) -> Fraction:
    """Desire-level update: halve under crowding, else double capped at 1/2."""
    if d >= 2:
        return p / 2
    return min(2 * p, Fraction(1, 2))


@dataclass
class MisState:
    """Reference (exact-arithmetic) per-node state."""

    p: dict[int, Fraction]                  # node index -> desire level
    status: dict[int, int]
    round: int = 0

    @classmethod
    def fresh(cls, g: Graph) -> "MisState":
        return cls(
            p={v: Fraction(1, 2) for v in range(g.n)},
            status={v: UNDECIDED for v in range(g.n)},
        )


def ghaffari_round(
    g: Graph, state: MisState, mark_draws: dict[int, float]
) -> MisState:
    """One exact-arithmetic round (the reference code path): mark with
    probability p_t, join if no marked neighbor, remove joined nodes'
    neighbors, then update desire levels from the round-t effective
    degrees."""
    und = {v for v, s in state.status.items() if s == UNDECIDED}
    marked = {v for v in und if Fraction(mark_draws[v]) < state.p[v]}
    joined = {
        v for v in marked
        if not any(u in marked for u in g.neighbors[v] if u in und)
    }
    eff = {
        v: sum((state.p[u] for u in g.neighbors[v] if u in und), Fraction(0))
        for v in und
    }
    status = dict(state.status)
    for v in joined:
        status[v] = IN_MIS
        for u in g.neighbors[v]:
            if status[u] == UNDECIDED:
                status[u] = REMOVED
    p = dict(state.p)
    for v in und:
        p[v] = next_desire(state.p[v], eff[v])
    return MisState(p=p, status=status, round=state.round + 1)


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
    """
    if rounds < 0:
        raise MisError("rounds must be >= 0")
    n = g.n
    A = g.adjacency_csr().astype(np.float64)
    draws = _draws if _draws is not None else node_draws(seed, g.ids, lane, rounds)
    p = np.full(n, 0.5)
    status = np.zeros(n, dtype=np.int8)
    for t in range(rounds):
        und = status == UNDECIDED
        if not und.any():
            break
        pu = np.where(und, p, 0.0)
        eff = A @ pu
        marked = und & (draws[:, t] < p)
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


class _GhaffariLanes(NodeProgram):
    """Multi-lane Ghaffari over the CONGEST engine.

    Each algorithm round takes four sub-rounds — marked bits, joined bits,
    out bits, desire-direction bits — and every message carries exactly one
    bit per lane.
    """

    MARKED, JOINED, OUT, DIR = 0, 1, 2, 3

    def __init__(self, rounds: int, lanes: int, draws: np.ndarray):
        self.rounds = rounds
        self.lanes = lanes
        self.draws = draws                       # (lanes, rounds)
        self.t = 0
        self.status = [UNDECIDED] * lanes
        self.p = [0.5] * lanes
        self.marked = [False] * lanes
        self.halve = [False] * lanes
        self.sub = 0

    def init(self, view):
        super().init(view)
        deg = view.degree
        self.nb_p = [[0.5] * self.lanes for _ in range(deg)]
        self.nb_und = [[True] * self.lanes for _ in range(deg)]
        if self.rounds == 0:
            self.halted = True

    def _bundle(self, bits: list[bool]) -> Message:
        return Message(tuple(bits), max(1, self.lanes))

    def _broadcast(self, bits: list[bool]) -> dict[int, Message]:
        msg = self._bundle(bits)
        return {port: msg for port in range(self.view.degree)}

    def step(self, round_no, inbox):
        sub = self.sub
        self.sub = (self.sub + 1) % 4
        if sub == self.MARKED:
            # previous round's direction bits bring neighbor desires to p_t
            for port, msg in inbox.items():
                for ln in range(self.lanes):
                    q = self.nb_p[port][ln]
                    self.nb_p[port][ln] = (
                        q / 2 if msg.payload[ln] else min(2 * q, 0.5)
                    )
            # effective degree at round start, before this round's removals
            for ln in range(self.lanes):
                eff = sum(
                    self.nb_p[port][ln]
                    for port in range(self.view.degree)
                    if self.nb_und[port][ln]
                )
                self.halve[ln] = eff >= 2.0
                self.marked[ln] = (
                    self.status[ln] == UNDECIDED
                    and self.draws[ln, self.t] < self.p[ln]
                )
            return self._broadcast(self.marked)
        if sub == self.JOINED:
            nb_marked = [False] * self.lanes
            for port, msg in inbox.items():
                for ln in range(self.lanes):
                    if msg.payload[ln] and self.nb_und[port][ln]:
                        nb_marked[ln] = True
            joined = [False] * self.lanes
            for ln in range(self.lanes):
                joined[ln] = (
                    self.status[ln] == UNDECIDED
                    and self.marked[ln]
                    and not nb_marked[ln]
                )
                if joined[ln]:
                    self.status[ln] = IN_MIS
            return self._broadcast(joined)
        if sub == self.OUT:
            newly_out = [False] * self.lanes
            for port, msg in inbox.items():
                for ln in range(self.lanes):
                    if msg.payload[ln]:
                        self.nb_und[port][ln] = False  # neighbor joined
                        if self.status[ln] == UNDECIDED:
                            self.status[ln] = REMOVED
                            newly_out[ln] = True
            return self._broadcast(newly_out)
        # DIR: learn removals, apply own desire update, announce direction
        for port, msg in inbox.items():
            for ln in range(self.lanes):
                if msg.payload[ln]:
                    self.nb_und[port][ln] = False  # neighbor removed
        for ln in range(self.lanes):
            if self.halve[ln]:
                self.p[ln] = self.p[ln] / 2
            else:
                self.p[ln] = min(2 * self.p[ln], 0.5)
        out = self._broadcast(list(self.halve))
        self.t += 1
        if self.t >= self.rounds:
            self.halted = True
            return {}
        return out

    def output(self):
        return list(self.status)


def ghaffari_engine(
    g: Graph, rounds: int, lanes: int, seed: int, cfg: Optional[SimConfig] = None
) -> tuple[list[list[int]], RoundStats]:
    """Run ``lanes`` independent Ghaffari executions through the simulator
    with single-bit-per-lane messages.  Returns per-node lane statuses and
    the engine ledger (max bits per edge-round == lanes)."""
    cfg = cfg or SimConfig()
    cfg = cfg.widened(g, max(1, lanes))
    draws = np.empty((g.n, lanes, max(1, rounds)))  # draws[v]: lanes x rounds
    for ln in range(lanes):
        draws[:, ln] = node_draws(seed, g.ids, ln, max(1, rounds))
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
    witness heuristic (greedy 5-hop-separated set, filtered to its largest
    9-hop-connected part)."""
    if delta is None:
        delta = max(2, g.max_degree)
    delta = max(2, delta)
    bound = (math.log(max(2, g.n)) / math.log(delta)) * delta**4
    if not B:
        return ShatterReport([], 0, bound, 0.0, 0)
    sub = induced_subgraph(g, sorted(B))
    comps = connected_components(sub)
    sizes = sorted((len(c) for c in comps), reverse=True)
    witness_best = 0
    for comp in comps:
        chosen: list[int] = []
        for v in sorted(comp, key=lambda i: sub.ids[i]):
            dist = _bfs_idx(sub, [v], cap=4)
            if not any(dist[u] >= 0 for u in chosen):
                chosen.append(v)
        if not chosen:
            continue
        # 9-hop connectivity filter over the chosen set
        adj9 = {v: set() for v in chosen}
        for v in chosen:
            dist = _bfs_idx(sub, [v], cap=9)
            for u in chosen:
                if u != v and dist[u] >= 0:
                    adj9[v].add(u)
        seen: set[int] = set()
        for v in chosen:
            if v in seen:
                continue
            stack, comp9 = [v], {v}
            while stack:
                u = stack.pop()
                for w in adj9[u]:
                    if w not in comp9:
                        comp9.add(w)
                        stack.append(w)
            seen |= comp9
            witness_best = max(witness_best, len(comp9))
    mx = sizes[0] if sizes else 0
    return ShatterReport(sizes, mx, bound, mx / bound, witness_best)


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


def mis_full(
    g: Graph,
    seed: int = 0,
    variant: str = "fast",
    c1: int = 20,
    c2: int = 2,
    retry_cap: int = 8,
) -> MisReport:
    """Full MIS pipeline: pre-shattering Ghaffari rounds, ruling-set
    meta-clustering of the undecided remainder, decomposition of the
    meta-graph (ball carving for 'fast', ball growing for 'slow'), then
    per color class adopt the first parallel Ghaffari run that fully
    decides each super-cluster's region."""
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
        lanes = math.ceil(c2 * math.log2(max(2, g.n)))
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
                for attempt in range(retry_cap):
                    for ln in range(lanes):
                        lane_tag = 1 + ((color * retry_cap + attempt) * lanes + ln)
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
                        f"all {retry_cap}x{lanes} MIS runs left cluster "
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
