"""Deterministic network decomposition of G^k: phase engine with the
virtual cluster graph H, marking, H² coloring, maximal 2-independent set,
merge rounds and residual coloring, instrumented with per-phase invariants.

Each phase works from one H-view: every live cluster's 2d smallest foreign
cluster ids within k hops, its high/low degree flag, the marks, and the
smallest marked cluster within k hops of each unmarked cluster.  Two
interchangeable communication backends build it:

* ``mode='sim'`` runs the data plane through the CONGEST engine and records
  real round/bit ledgers: a bounded flood of cluster ids, a convergecast of
  the members' holdings over each cluster tree, and a gossip of marked ids;
* ``mode='fast'`` reads the same view off one sparse boolean product, the
  k-hop balls of the clusters times their membership matrix, and is the
  oracle the simulated run must match exactly.

Each live cluster's communication tree (G-shortest paths from its center)
and radius are built once, when the cluster forms.

Cluster-graph control-plane steps (marking counts, Linial coloring of H²,
2-independent set selection, merge bookkeeping) are deterministic functions
of the shared H-view and are computed centrally in both modes; their round
costs are reported separately as ``modeled_rounds`` in the phase log.

All tie-breaking is by ascending cluster id, and every structural decision
depends only on the relative order of identifiers — never their magnitude —
so relabeling nodes monotonically into a larger id space changes nothing
but bit widths.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .clustering import Cluster, Decomposition
from .coloring import (  # linial_color stays bound for the benchmark's tracer
    greedy_reduce,
    linial_color,
    linial_stages,
)
from .graphs import (
    Graph,
    NetdecompError,
    _bfs_idx,
    path_union,
    symmetric_csr,
    voronoi_cells,
)
from .simulate import (
    RoundStats,
    SimConfig,
    bounded_flood,
    cluster_convergecast,
    min_gossip,
)


class DecomposeError(NetdecompError):
    """Internal invariant failure (phase dump in args)."""


@dataclass
class LiveCluster:
    id: int
    center: int                 # node index
    members: set[int]           # node indices
    tree_edges: frozenset[tuple[int, int]]  # G-shortest paths center -> member
    radius: int                 # largest G-distance center -> member


@dataclass
class PhaseLog:
    phase: int
    cluster_count: int          # live clusters at phase end
    max_radius_gk: int
    max_overlap: int
    marked: int
    cstar: int
    residual_colored: int
    rounds: int                 # engine rounds (sim mode), 0 in fast mode
    modeled_rounds: int         # modeled cost of centrally computed steps

    def to_json(self) -> dict:
        return self.__dict__.copy()


@dataclass
class DecompResult:
    decomposition: Decomposition
    phases: list[PhaseLog]
    stats: RoundStats
    d: int
    n_initial_clusters: int

    @property
    def invariants_log(self) -> list[dict]:
        return [p.to_json() for p in self.phases]


def growth_parameters(n_clusters: int) -> tuple[int, int]:
    """(P, d): phase budget P = ceil(sqrt(log2 N)) (min 1), d = 2^P."""
    lg = (n_clusters - 1).bit_length() if n_clusters > 1 else 1  # ceil(log2 N)
    p = max(1, math.ceil(math.sqrt(lg)))
    return p, 2**p


# -- H-view construction -------------------------------------------------


@dataclass
class HView:
    """What phase control decisions are made from: per-cluster perceived
    in-neighbor ids (capped at 2d), exact high/low degree flags, marks, the
    smallest marked cluster within k hops of each unmarked cluster, and the
    undirected unmarked adjacency."""

    order: list[int]                        # cluster ids ascending
    in_ids: dict[int, list[int]]            # cid -> perceived in-neighbor ids
    high_degree: dict[int, bool]
    marked: set[int]
    marked_nb: dict[int, int]               # unmarked cid -> marked cid
    adj: dict[int, set[int]]                # undirected view over unmarked


def _cluster_reach(g: Graph, live: list[LiveCluster], k: int) -> sparse.csr_matrix:
    """Boolean live-cluster x live-cluster matrix, both axes in ascending
    id order, with sorted rows: (c, x) is set iff a member of x lies
    within k hops of a member of c (so the diagonal is set).  Centralized
    equivalent of the bounded flood and the convergecast over it."""
    live = sorted(live, key=lambda c: c.id)
    rows = [r for r, c in enumerate(live) for _ in c.members]
    cols = [m for c in live for m in c.members]
    member = sparse.csr_matrix(
        (np.ones(len(rows), dtype=bool), (rows, cols)),
        shape=(len(live), g.n),
    )
    adj = g.adjacency_csr().astype(bool)
    ball = frontier = member  # ball: the radius-t balls; frontier: their last layer
    for _ in range(k):
        grown = (ball + frontier @ adj).astype(bool)
        if grown.nnz == ball.nnz:
            break  # a ball that stops growing never grows again
        frontier, ball = grown > ball, grown
    # a CSC -> CSR conversion sorts the rows in linear time (a product's
    # rows come out unsorted)
    return (member @ ball.T).T.tocsr()


def _holdings_sim(
    g: Graph, live: list[LiveCluster], k: int, fanin: int, cfg: SimConfig,
    stats: RoundStats,
) -> list[list[int]]:
    sources = {m: (c.id, None) for c in live for m in c.members}
    res, st = bounded_flood(g, sources, hops=k, fanin=fanin, cfg=cfg)
    stats.merge(st)
    return [sorted(o for o, _ in holding) for holding in res]


def _build_hview(
    g: Graph,
    live: list[LiveCluster],
    k: int,
    d: int,
    mode: str,
    cfg: SimConfig,
    stats: RoundStats,
) -> HView:
    cap = 2 * d
    order = sorted(c.id for c in live)
    in_ids: dict[int, list[int]] = {}
    high: dict[int, bool] = {}
    if mode == "sim":
        # each member holds the 2d+1 smallest ids within k hops; the union
        # over a cluster tree keeps the 2d smallest foreign ones
        holdings = _holdings_sim(g, live, k, cap + 1, cfg, stats)
        values = {
            m: {c.id: [o for o in holdings[m] if o != c.id]}
            for c in live
            for m in c.members
        }
        agg, st = cluster_convergecast(
            g, live, values, cfg, combine="union", item_cap=cap
        )
        stats.merge(st)
        for cid in order:
            in_ids[cid] = list(agg.get(cid, []))
            high[cid] = len(in_ids[cid]) >= cap
    else:
        reach = _cluster_reach(g, live, k)
        ptr = reach.indptr.tolist()
        for r, cid in enumerate(order):
            start, end = ptr[r], ptr[r + 1]
            head = reach.indices[start : min(end, start + cap + 1)].tolist()
            in_ids[cid] = [order[x] for x in head if x != r][:cap]
            high[cid] = end - start - 1 >= cap

    out_degree = Counter(o for ids in in_ids.values() for o in ids)
    marked = {cid for cid in order if out_degree[cid] > 4 * d * d}

    marked_nb: dict[int, int] = {}
    if marked and mode == "sim":
        values = {m: c.id for c in live if c.id in marked for m in c.members}
        per_node, st = min_gossip(g, values, hops=k, cfg=cfg)
        stats.merge(st)
        for c in live:
            hits = [per_node[m] for m in c.members if per_node[m] is not None]
            if hits and c.id not in marked:
                marked_nb[c.id] = min(hits)
    elif marked:
        # first marked entry of each unmarked row (rows are sorted)
        is_marked = np.array([cid in marked for cid in order])
        row_of = np.repeat(np.arange(len(order)), np.diff(reach.indptr))
        hit = is_marked[reach.indices] & ~is_marked[row_of]
        rows, first = np.unique(row_of[hit], return_index=True)
        for r, x in zip(rows.tolist(), reach.indices[hit][first].tolist()):
            marked_nb[order[r]] = order[x]

    adj: dict[int, set[int]] = {cid: set() for cid in order if cid not in marked}
    for cid in adj:
        for o in in_ids[cid]:
            if o in adj:
                adj[cid].add(o)
                adj[o].add(cid)
    return HView(order, in_ids, high, marked, marked_nb, adj)


# -- cluster trees -------------------------------------------------------


def _live_cluster(g: Graph, cid: int, center: int, members: set[int]) -> LiveCluster:
    """A live cluster with its communication tree, the union of G-shortest
    paths center -> member, and its radius, the largest G-distance from
    the center to a member."""
    if len(members) == 1:
        return LiveCluster(cid, center, members, frozenset(), 0)
    parent: dict[int, int] = {}
    dist = _bfs_idx(g, [center], targets=members, parent=parent)
    for m in members:
        if dist[m] < 0:
            raise DecomposeError(f"cluster {cid}: member {m} unreachable")
    return LiveCluster(
        cid, center, members, path_union(parent, members),
        max(dist[m] for m in members),
    )


def _color_class_trees(
    g: Graph, group: list[tuple[int, int, frozenset[int]]]
) -> dict[int, frozenset[tuple[int, int]]]:
    """Edge-disjoint trees for same-color clusters via lexicographic
    (distance, cluster id) Voronoi cells.

    Each cell is connected, contains all of its cluster's members, and the
    cells of distinct same-color clusters are vertex-disjoint — so the BFS
    trees built inside them, pruned to the center -> member paths, never
    share a G-edge.  A cluster whose only member is its center has the
    empty tree and needs no search, and a class made only of such clusters
    needs no cells either.  Every other class seeds its cells with all of its
    clusters, so its trees do not depend on which of them are single nodes.
    """
    ranked = sorted(group)
    trees: dict[int, frozenset[tuple[int, int]]] = {
        cid: frozenset() for cid, _, members in ranked if len(members) == 1
    }
    if len(trees) == len(ranked):
        return trees
    owner = voronoi_cells(g, [members for _, _, members in ranked])
    cells: list[set[int]] = [set() for _ in ranked]
    for v, r in enumerate(owner):
        if r >= 0:
            cells[r].add(v)
    for (cid, center, members), cell in zip(ranked, cells):
        if cid in trees:
            continue
        parent: dict[int, int] = {}
        dist = _bfs_idx(g, [center], targets=members, parent=parent, within=cell)
        missing = [m for m in members if dist[m] < 0]
        if missing:
            raise DecomposeError(
                f"voronoi cell of cluster at node {center} misses members {missing[:3]}"
            )
        trees[cid] = path_union(parent, members)
    return trees


# -- phase logic ---------------------------------------------------------


def _merge_leaders(adj: dict[int, set[int]], cstar: list[int]) -> dict[int, int]:
    """The C* cluster each cluster within 2 hops of C* in ``adj`` merges
    into: its nearest one, ties to the smaller id (C* maps to itself).

    One BFS from all of C* in ascending id order: the frontier stays
    grouped by ascending leader, so the first to reach a cluster carries
    the smallest of its nearest C* clusters."""
    leader = {cid: cid for cid in cstar}
    frontier = sorted(cstar)
    for _ in range(2):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in leader:
                    leader[v] = leader[u]
                    nxt.append(v)
        frontier = nxt
    return leader


def _proximity_pairs(
    g: Graph,
    by_id: dict[int, LiveCluster],
    residual: list[int],
    k: int,
) -> list[tuple[int, int]]:
    """Position pairs of residual clusters at G-distance <= max(k, 2*radius
    of either), which must get different colors so same-color cells stay
    connected."""
    res_index = {cid: i for i, cid in enumerate(residual)}
    owner = {m: cid for cid in residual for m in by_id[cid].members}
    radii = {cid: by_id[cid].radius for cid in residual}
    pairs = []
    for cid in residual:
        cap = max(k, 2 * radii[cid])
        reached: list[int] = []
        dist = _bfs_idx(g, sorted(by_id[cid].members), cap=cap, reached=reached)
        gap: dict[int, int] = {}    # other residual cluster -> G-distance
        for v in reached:
            ocid = owner.get(v)
            if ocid is not None and ocid != cid and ocid not in gap:
                gap[ocid] = dist[v]  # reached in distance order
        for ocid, dd in gap.items():
            thresh = max(k, 2 * radii[cid], 2 * radii[ocid])
            if thresh > cap:
                continue  # handled from the other side
            if dd <= thresh:
                pairs.append((res_index[cid], res_index[ocid]))
    return pairs


def _select_cstar(hv: HView) -> list[int]:
    """Maximal 2-independent set of high-degree unmarked clusters, scanning
    the first-fit coloring of H² in ascending id order class by class (ids
    ascending within a class): each high-degree cluster that no earlier
    choice blocks joins C* and blocks its H² row.

    H² is the boolean (A + I)² (the pattern of A + A²) of the unmarked
    clusters.  The coloring only fixes the scan order (its round cost is
    part of the modeled ledger).  Class c of that first-fit coloring is the
    lexicographically first maximal independent set of H² among the
    clusters in no class below c, so the classes are built one at a time
    over boolean masks, and the scan stops as soon as every high-degree
    cluster is chosen or blocked, at once if there is none.  The H² row of
    a scanned cluster is the union of the closed H rows N[u] = A_u + I_u
    of its closed neighbourhood, and only the closed rows it reads are
    built, so H² is never materialized.
    """
    unmarked = [cid for cid in hv.order if cid not in hv.marked]
    # high-degree clusters neither scanned nor blocked
    open_ = np.array([hv.high_degree[cid] for cid in unmarked], dtype=bool)
    if not open_.any():
        return []
    idx = {cid: i for i, cid in enumerate(unmarked)}
    rows: list[Optional[np.ndarray]] = [None] * len(unmarked)

    def closed(i: int) -> np.ndarray:
        row = rows[i]
        if row is None:
            row = rows[i] = np.array(
                [idx[u] for u in hv.adj[unmarked[i]]] + [i], dtype=np.int64
            )
        return row

    cstar: list[int] = []
    unscanned = np.ones(len(unmarked), dtype=bool)
    while open_.any():
        # the next class: unscanned clusters H²-adjacent to none of its members
        cand = unscanned.copy()
        v = int(cand.argmax())
        while cand[v]:
            h2_row = np.concatenate([closed(u) for u in closed(v).tolist()])
            cand[h2_row] = False
            unscanned[v] = False
            if open_[v]:
                cstar.append(unmarked[v])
                open_[h2_row] = False
                if not open_.any():
                    break
            v += int(cand[v:].argmax())
    return sorted(cstar)


def decompose(
    g: Graph,
    k: int,
    init: Optional[list[Cluster]] = None,
    cfg: Optional[SimConfig] = None,
    mode: str = "fast",
) -> DecompResult:
    """Deterministic (colors, diameter) network decomposition of G^k.

    Returns a Decomposition that partitions V, keeps same-color clusters at
    G-distance >= k+1, and uses per color class edge-disjoint trees; plus
    the per-phase invariants log and the communication ledger.

    With ``init`` given (vertex-disjoint clusters covering V), nodes sharing
    an initial cluster always share an output cluster.
    """
    if k < 1:
        raise DecomposeError("k must be >= 1")
    if mode not in ("fast", "sim"):
        raise DecomposeError(f"unknown mode {mode!r}")
    cfg = cfg or SimConfig()
    if init is not None:
        _check_init(g, init)
        live = [_live_cluster(g, c.id, c.center, set(c.members)) for c in init]
    else:
        live = [_live_cluster(g, g.ids[v], v, {v}) for v in range(g.n)]
    n_init = len(live)
    p_budget, d = growth_parameters(n_init)
    stats = RoundStats()
    phases: list[PhaseLog] = []
    out_clusters: list[tuple[int, int, frozenset[int], int]] = []  # id,center,members,color
    color_base = 0
    edge_usage: dict[tuple[int, int], int] = {}

    phase = 0
    while live:
        phase += 1
        if phase > p_budget + 1:
            raise DecomposeError(
                f"phase budget exceeded: {len(live)} live clusters after "
                f"{phase - 1} phases (d={d})"
            )
        rounds_before = stats.rounds
        hv = _build_hview(g, live, k, d, mode, cfg, stats)
        if len(hv.marked) * (4 * d * d + 1) > 2 * d * len(live):
            raise DecomposeError(
                f"marked-count bound violated in phase {phase}: "
                f"{len(hv.marked)} of {len(live)}"
            )
        cstar = _select_cstar(hv)

        # -- merge assignment (all ties by ascending cluster id) --
        by_id = {c.id: c for c in live}
        group_of = {cid: cid for cid in hv.marked}  # old cid -> group leader
        group_of.update(_merge_leaders(hv.adj, cstar))
        # case II: a C* group re-centers at its smallest marked neighbor
        redirect = {
            cid: hv.marked_nb[cid] for cid in cstar if cid in hv.marked_nb
        }
        for cid, leader in list(group_of.items()):
            if leader in redirect:
                group_of[cid] = redirect[leader]

        residual = [
            cid for cid in hv.order
            if cid not in group_of
        ]
        for cid in residual:
            if hv.high_degree[cid]:
                raise DecomposeError(
                    f"high-degree cluster {cid} left unassigned in phase {phase}"
                )

        # -- residual coloring --
        # Low-degree clusters perceive every neighbor, so the symmetrized
        # in-lists give the exact <=k adjacency.  On top of that, clusters
        # too close relative to their radii (d <= 2*max radius) must also
        # differ in color so each one's Voronoi cell (tree territory)
        # contains its center paths.
        res_index = {cid: i for i, cid in enumerate(residual)}
        pairs = [
            (i, res_index[o])
            for cid, i in res_index.items()
            for o in hv.in_ids[cid]
            if o in res_index
        ]
        modeled = 0
        if residual:
            if any(by_id[cid].radius > 0 for cid in residual):
                pairs += _proximity_pairs(g, by_id, residual, k)
            a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            indptr, indices, _ = symmetric_csr(a, b, len(residual))
            sym_nb = np.split(indices, indptr[1:-1])
            # Linial's round count; the coloring itself is not needed
            iters = sum(1 for _ in linial_stages(
                max(residual) + 1, int(np.diff(indptr).max())
            ))
            palette = greedy_reduce(sym_nb, range(len(residual)))
            modeled += (iters + 1) * max(1, k * d**3)
            for i, cid in enumerate(residual):
                c = by_id[cid]
                out_clusters.append(
                    (cid, c.center, frozenset(c.members), color_base + palette[i])
                )
            color_base += max(palette) + 1

        # -- form new live clusters --
        groups: dict[int, list[int]] = {}
        for cid, leader in group_of.items():
            groups.setdefault(leader, []).append(cid)
        live = [
            by_id[leader] if group == [leader] else _live_cluster(
                g, leader, by_id[leader].center,
                set().union(*(by_id[cid].members for cid in group)),
            )
            for leader, group in sorted(groups.items())
        ]

        # -- invariants --
        if len(live) * d**phase > n_init:
            raise DecomposeError(
                f"invariant A violated in phase {phase}: "
                f"{len(live)} > {n_init}/{d}^{phase}"
            )
        max_r = max((-(-c.radius // k) for c in live), default=0)  # in G^k hops
        for c in live:
            for e in c.tree_edges:
                edge_usage[e] = edge_usage.get(e, 0) + 1
        max_overlap = max(edge_usage.values(), default=0)
        if max_overlap > phase * 13 * d**3:
            raise DecomposeError(
                f"invariant C violated in phase {phase}: overlap {max_overlap}"
            )
        modeled += 2 * (2 * d + 1) * k + 4 * d * d  # flood + reversal estimate
        phases.append(
            PhaseLog(
                phase=phase,
                cluster_count=len(live),
                max_radius_gk=max_r,
                max_overlap=max_overlap,
                marked=len(hv.marked),
                cstar=len(cstar),
                residual_colored=len(residual),
                rounds=stats.rounds - rounds_before,
                modeled_rounds=modeled,
            )
        )

    # -- build per-color edge-disjoint trees and assemble output --
    by_color: dict[int, list[tuple[int, int, frozenset[int]]]] = {}
    for cid, center, members, color in out_clusters:
        by_color.setdefault(color, []).append((cid, center, members))
    clusters: list[Cluster] = []
    for color in sorted(by_color):
        trees = _color_class_trees(g, by_color[color])
        for cid, center, members in by_color[color]:
            clusters.append(
                Cluster(
                    id=cid, center=center, members=members,
                    tree_edges=trees[cid], color=color,
                )
            )
    dec = Decomposition(k=k, clusters=clusters)
    return DecompResult(
        decomposition=dec,
        phases=phases,
        stats=stats,
        d=d,
        n_initial_clusters=n_init,
    )


def _check_init(g: Graph, init: list[Cluster]) -> None:
    seen: set[int] = set()
    for c in init:
        if c.center not in c.members:
            raise DecomposeError(f"init cluster {c.id}: center not a member")
        if seen & c.members:
            raise DecomposeError("init clusters overlap")
        seen |= c.members
    if len(seen) != g.n:
        raise DecomposeError("init clusters do not cover V")
