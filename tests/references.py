"""Centralized references that only the tests run: Floyd-Warshall
distances, power graphs, log*, cycle-enumeration μ, the exact-arithmetic
Ghaffari round, a stack-loop component labelling, the meta-graph of a
decomposition and its back map, a Monte-Carlo check of the carving gap lemma, and the loops that validated MIS sets, counted
tree-edge overlaps and found cover ball interiors before those checks moved
to arrays.  They live outside the package so that the code they certify
cannot reuse them.  This is a plain helper module, not a test module; the
test modules import it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from netdecomp.carving import CarveError, MetaGraph
from netdecomp.covers import MstError, _require_weights, kruskal_oracle
from netdecomp.graphs import Graph, GraphError, _bfs_idx, quotient
from netdecomp.mis import IN_MIS, REMOVED, UNDECIDED


# -- log* and hop distances ----------------------------------------------


def log_star(x: float) -> int:
    """Iterated base-2 logarithm: number of log2 applications until <= 1."""
    if x < 0:
        raise ValueError("log_star undefined for negative values")
    count = 0
    v = float(x)
    while v > 1.0:
        v = math.log2(v)
        count += 1
    return count


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Floyd-Warshall all-pairs hop distances (independent oracle, n small)."""
    n = g.n
    inf = np.iinfo(np.int32).max // 4
    d = np.full((n, n), inf, dtype=np.int32)
    np.fill_diagonal(d, 0)
    for a, b in g.edge_indices():
        d[a, b] = d[b, a] = 1
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def power_graph(g: Graph, k: int) -> Graph:
    """G^k: edge {u,v} iff 1 <= d_G(u,v) <= k.  Oracle/validator use only."""
    if k < 1:
        raise GraphError(f"power parameter must be >= 1, got {k}")
    if k == 1:
        return g
    edges = []
    for i in range(g.n):
        reached: list[int] = []
        _bfs_idx(g, [i], cap=k, reached=reached)
        edges.extend((g.ids[i], g.ids[j]) for j in reached if i < j)
    return Graph(g.ids, edges, id_bits=g.id_bits)


# -- components and carving gaps -----------------------------------------


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as lists of indices."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def meta_graph_of(g: Graph, dec) -> MetaGraph:
    """The meta-graph whose meta-nodes are the clusters of the
    decomposition ``dec`` of G, in id order."""
    clusters = sorted(dec.clusters, key=lambda c: c.id)
    owner: dict[int, int] = {}
    for mi, c in enumerate(clusters):
        for v in c.members:
            if v in owner:
                raise CarveError("meta-nodes must be vertex-disjoint")
            owner[v] = mi
    if len(owner) != g.n:
        raise CarveError("meta-nodes must cover the underlying graph")
    return MetaGraph(
        graph=quotient(g, owner, [c.id for c in clusters]),
        members=[frozenset(c.members) for c in clusters],
        underlying_n=g.n,
    )


def back_map(h: MetaGraph) -> dict[int, int]:
    """Underlying vertex index -> meta index of the meta-graph ``h``."""
    return {v: mi for mi, mem in enumerate(h.members) for v in mem}


def gap_probability_check(
    ds, beta: float, trials: int, seed: int = 0
) -> float:
    """Monte-Carlo estimate of Pr[top two of delta_j - d_j are within 1]
    with delta_j ~ EXP(beta) i.i.d. and d_j the given distances."""
    if trials < 1:
        raise CarveError("trials must be positive")
    ds = list(ds)
    if len(ds) <= 1:
        return 0.0
    rng = np.random.default_rng(seed)
    d = np.asarray(ds, dtype=float)
    hits = 0
    chunk = 20_000
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        delta = rng.exponential(1.0 / beta, size=(t, len(ds)))
        vals = delta - d
        part = np.partition(vals, len(ds) - 2, axis=1)
        top2 = part[:, -2:]
        hits += int(((top2[:, 1] - top2[:, 0]) <= 1.0).sum())
        done += t
    return hits / trials


# -- MST radius ----------------------------------------------------------


def cycle_enumeration_mu(g: Graph, max_len: int = 12) -> int:
    """Brute-force second oracle for μ on small graphs: enumerate all
    simple cycles up to ``max_len`` through every non-MST edge (depth-first
    over simple paths of strictly lighter edges)."""
    _require_weights(g)
    mst = kruskal_oracle(g)
    rank = g.rank
    mu = 0
    for a, b in g.weights:
        if (a, b) in mst:
            continue
        r = rank[(a, b)]
        best = None
        stack = [(a, {a}, 0)]
        while stack:
            u, visited, length = stack.pop()
            if best is not None and length + 1 >= best:
                continue
            for v in g.neighbors[u]:
                if rank[(min(u, v), max(u, v))] >= r or v in visited:
                    continue
                if v == b:
                    cycle_len = length + 2  # path edges + the edge e itself
                    if best is None or cycle_len < best:
                        best = cycle_len
                elif length + 1 < max_len - 1:
                    stack.append((v, visited | {v}, length + 1))
        if best is None:
            raise MstError(f"no cycle of length <= {max_len} for edge ({a},{b})")
        mu = max(mu, best)
    return mu


# -- Ghaffari's MIS round ------------------------------------------------


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


# -- validator loops -----------------------------------------------------


def validate_mis_by_loop(g: Graph, s) -> tuple[bool, str | None]:
    """``validate_mis`` by loops: the first adjacent pair of ``set(s)`` in
    its iteration order, else the first node it does not dominate."""
    sset = set(s)
    for v in sset:
        for u in g.neighbors[v]:
            if u in sset:
                return False, f"adjacent pair ({v},{u}) both in set"
    for v in range(g.n):
        if v not in sset and not any(u in sset for u in g.neighbors[v]):
            return False, f"node {v} undominated"
    return True, None


def edge_overlap_by_loop(
    ends: np.ndarray, cls: np.ndarray, classes: int
) -> tuple[np.ndarray, int]:
    """``clustering._edge_overlap`` by one dict of edge uses per color
    class and one over all classes."""
    usage: list[dict] = [{} for _ in range(classes)]
    total: dict = {}
    for (a, b), c in zip(ends.tolist(), cls.tolist()):
        e = (min(a, b), max(a, b))
        usage[c][e] = usage[c].get(e, 0) + 1
        total[e] = total.get(e, 0) + 1
    over = [sum(1 for uses in u.values() if uses > 1) for u in usage]
    return np.array(over, dtype=np.int64), max(total.values(), default=0)


def ball_interior_by_loop(g: Graph, members, k: int) -> frozenset[int]:
    """The members of one cluster whose k-ball lies in it, by one BFS
    inside the members seeded at those with a non-member neighbour (the
    per-cluster loop ``validate_cover`` ran before it moved to arrays)."""
    reached: list[int] = []
    if k >= 1:
        edge = [v for v in members if any(u not in members for u in g.neighbors[v])]
        _bfs_idx(g, edge, cap=k - 1, within=members, reached=reached)
    return frozenset(members).difference(reached)
