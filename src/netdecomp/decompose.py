"""Deterministic network decomposition of G^k: phase engine with the
virtual cluster graph H, marking, H² coloring, maximal 2-independent set,
merge rounds and residual coloring, instrumented with per-phase invariants.

Two interchangeable communication backends drive each phase:

* ``mode='sim'`` runs the data-plane steps (identifier flooding, per-cluster
  convergecast, marked-cluster gossip) through the CONGEST engine and
  records real round/bit ledgers;
* ``mode='fast'`` recomputes the same deterministic rules centrally (sparse
  boolean matrix reachability) and is the oracle the simulated run must
  match exactly.

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
from .graphs import Graph, NetdecompError, _bfs_idx, path_union, voronoi_cells
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
    in-neighbor ids (capped at 2d), exact high/low degree flags, out-degree
    counts, marks, and the undirected unmarked adjacency."""

    order: list[int]                        # cluster ids ascending
    in_ids: dict[int, list[int]]            # cid -> perceived in-neighbor ids
    high_degree: dict[int, bool]
    out_degree: dict[int, int]
    marked: set[int]
    adj: dict[int, set[int]]                # undirected view over unmarked


def _holdings_fast(
    g: Graph, live: list[LiveCluster], k: int, fanin: int
) -> list[list[int]]:
    """Per node: the fanin smallest cluster ids whose members lie within k
    hops.  Centralized equivalent of the bounded flood."""
    live = sorted(live, key=lambda c: c.id)
    order = [c.id for c in live]
    rows = [r for r, c in enumerate(live) for _ in c.members]
    cols = [m for c in live for m in c.members]
    reach = sparse.csr_matrix(
        (np.ones(len(rows), dtype=bool), (rows, cols)),
        shape=(len(order), g.n),
    )
    adj = g.adjacency_csr().astype(bool)
    acc = frontier = reach  # acc: the radius-t ball; frontier: its last layer
    for _ in range(k):
        ball = (acc + frontier @ adj).astype(bool)
        if ball.nnz == acc.nnz:
            break  # a ball that stops growing never grows again
        frontier, acc = ball > acc, ball
    csc = acc.tocsc()
    csc.sort_indices()
    out: list[list[int]] = []
    for col in range(g.n):
        r = csc.indices[csc.indptr[col] : csc.indptr[col + 1]]
        out.append([order[x] for x in r[:fanin]])
    return out


def _holdings_sim(
    g: Graph, live: list[LiveCluster], k: int, fanin: int, cfg: SimConfig,
    stats: RoundStats,
) -> list[list[int]]:
    sources = {}
    for c in live:
        for m in c.members:
            sources[m] = (c.id, None)
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
    fanin = 2 * d + 1
    cap = 2 * d
    if mode == "sim":
        holdings = _holdings_sim(g, live, k, fanin, cfg, stats)
    else:
        holdings = _holdings_fast(g, live, k, fanin)

    order = sorted(c.id for c in live)
    by_id = {c.id: c for c in live}
    in_ids: dict[int, list[int]] = {}
    high: dict[int, bool] = {}
    if mode == "sim" and any(len(c.members) > 1 for c in live):
        # aggregate member holdings over the cluster trees for real
        trees = [_live_cluster_tree(g, by_id[cid])[0] for cid in order]
        values = {
            m: {c.id: [o for o in holdings[m] if o != c.id]}
            for c in live
            for m in c.members
        }
        agg, st = cluster_convergecast(
            g, trees, values, cfg, combine="union", item_cap=cap
        )
        stats.merge(st)
        for cid in order:
            in_ids[cid] = list(agg.get(cid, []))
            high[cid] = len(in_ids[cid]) >= cap
    else:
        for cid in order:
            foreign: set[int] = set()
            for m in by_id[cid].members:
                foreign.update(o for o in holdings[m] if o != cid)
            in_ids[cid] = sorted(foreign)[:cap]
            high[cid] = len(foreign) >= cap

    out_degree = {cid: 0 for cid in order}
    for cid in order:
        for o in in_ids[cid]:
            out_degree[o] += 1
    marked = {cid for cid in order if out_degree[cid] > 4 * d * d}

    adj: dict[int, set[int]] = {cid: set() for cid in order if cid not in marked}
    for cid in order:
        if cid in marked:
            continue
        for o in in_ids[cid]:
            if o not in marked:
                adj[cid].add(o)
                adj[o].add(cid)
    return HView(order, in_ids, high, out_degree, marked, adj)


# -- cluster trees -------------------------------------------------------


def _live_cluster_tree(g: Graph, c: LiveCluster) -> tuple[Cluster, int]:
    """Union of G-shortest paths center -> member (communication tree), and
    the largest G-distance from the center to a member."""
    parent: dict[int, int] = {}
    dist = _bfs_idx(g, [c.center], targets=c.members, parent=parent)
    for m in c.members:
        if dist[m] < 0:
            raise DecomposeError(f"cluster {c.id}: member {m} unreachable")
    tree = Cluster(
        id=c.id, center=c.center, members=frozenset(c.members),
        tree_edges=path_union(parent, c.members),
    )
    return tree, max(dist[m] for m in c.members)


def _color_class_trees(
    g: Graph, group: list[tuple[int, int, frozenset[int]]]
) -> dict[int, frozenset[tuple[int, int]]]:
    """Edge-disjoint trees for same-color clusters via lexicographic
    (distance, cluster id) Voronoi cells.

    Each cell is connected, contains all of its cluster's members, and the
    cells of distinct same-color clusters are vertex-disjoint — so the BFS
    trees built inside them, pruned to the center -> member paths, never
    share a G-edge.
    """
    ranked = sorted(group)
    owner = voronoi_cells(g, [members for _, _, members in ranked])
    cells: list[set[int]] = [set() for _ in ranked]
    for v, r in enumerate(owner):
        if r >= 0:
            cells[r].add(v)
    trees: dict[int, frozenset[tuple[int, int]]] = {}
    for (cid, center, members), cell in zip(ranked, cells):
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


def _marked_neighbor_map(
    g: Graph,
    live: list[LiveCluster],
    marked: set[int],
    k: int,
    mode: str,
    cfg: SimConfig,
    stats: RoundStats,
) -> dict[int, int]:
    """Smallest marked cluster id adjacent (exact, <= k hops) per cluster."""
    if not marked:
        return {}
    by_id = {c.id: c for c in live}
    if mode == "sim":
        values = {}
        for mid in marked:
            for m in by_id[mid].members:
                values[m] = mid
        res, st = min_gossip(g, values, hops=k, cfg=cfg)
        stats.merge(st)
        per_node = res
    else:
        per_node = [None] * g.n
        for mid in sorted(marked, reverse=True):
            reached: list[int] = []
            _bfs_idx(g, sorted(by_id[mid].members), cap=k, reached=reached)
            for v in reached:
                cur = per_node[v]
                if cur is None or mid < cur:
                    per_node[v] = mid
    out: dict[int, int] = {}
    for c in live:
        best = None
        for m in c.members:
            v = per_node[m]
            if v is not None and v != c.id and (best is None or v < best):
                best = v
        if best is not None:
            out[c.id] = best
    return out


def _h_distances(adj: dict[int, set[int]], sources: list[int], cap: int) -> dict[int, int]:
    dist = {s: 0 for s in sources}
    frontier = sorted(sources)
    d = 0
    while frontier and d < cap:
        d += 1
        nxt = []
        for u in frontier:
            for v in sorted(adj.get(u, ())):
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def _add_proximity_edges(
    g: Graph,
    by_id: dict[int, "LiveCluster"],
    residual: list[int],
    radii: dict[int, int],
    k: int,
    sym: list[set[int]],
) -> None:
    """Force color conflicts between residual clusters at G-distance
    <= max(k, 2*radius of either), so same-color cells stay connected."""
    res_index = {cid: i for i, cid in enumerate(residual)}
    owner = {m: cid for cid in residual for m in by_id[cid].members}
    for cid in residual:
        cap = max(k, 2 * radii[cid])
        reached: list[int] = []
        dist = _bfs_idx(g, sorted(by_id[cid].members), cap=cap, reached=reached)
        gap: dict[int, int] = {}    # other residual cluster -> G-distance
        for v in reached:
            ocid = owner.get(v)
            if ocid is not None and ocid != cid and ocid not in gap:
                gap[ocid] = dist[v]  # reached in distance order
        i = res_index[cid]
        for ocid, dd in gap.items():
            thresh = max(k, 2 * radii[cid], 2 * radii[ocid])
            if thresh > cap:
                continue  # handled from the other side
            if dd <= thresh:
                j = res_index[ocid]
                sym[i].add(j)
                sym[j].add(i)


def _select_cstar(hv: HView) -> list[int]:
    """Maximal 2-independent set of high-degree unmarked clusters, scanning
    a proper H² coloring class by class (ids ascending within class).

    The H² coloring here only fixes the scan order (its round cost is part
    of the modeled ledger), so the cheap first-fit reduction suffices.
    """
    unmarked = [cid for cid in hv.order if cid not in hv.marked]
    if not unmarked:
        return []
    idx = {cid: i for i, cid in enumerate(unmarked)}
    nb2: list[list[int]] = []
    for cid in unmarked:
        two = set()
        for u in hv.adj[cid]:
            two.add(u)
            two.update(hv.adj[u])
        two.discard(cid)
        nb2.append(sorted(idx[u] for u in two))
    colors = greedy_reduce(nb2, range(len(unmarked)))
    cstar: list[int] = []
    blocked: set[int] = set()
    scan = sorted(range(len(unmarked)), key=lambda i: (colors[i], i))
    for i in scan:
        cid = unmarked[i]
        if not hv.high_degree[cid] or cid in blocked:
            continue
        cstar.append(cid)
        blocked.update(_h_distances(hv.adj, [cid], cap=2))
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
        live = [
            LiveCluster(c.id, c.center, set(c.members)) for c in init
        ]
    else:
        live = [LiveCluster(g.ids[v], v, {v}) for v in range(g.n)]
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
        marked_nb = _marked_neighbor_map(
            g, live, hv.marked, k, mode, cfg, stats
        )
        cstar = _select_cstar(hv)

        # -- merge assignment (all ties by ascending cluster id) --
        by_id = {c.id: c for c in live}
        group_of: dict[int, int] = {}          # old cid -> group leader cid
        for cid in hv.marked:
            group_of[cid] = cid
        cstar_dist = {
            cid: _h_distances(hv.adj, [cid], cap=2) for cid in cstar
        }
        for cid in hv.order:
            if cid in hv.marked or cid in cstar:
                continue
            best = None
            for target in cstar:
                dd = cstar_dist[target].get(cid)
                if dd is not None and (best is None or (dd, target) < best):
                    best = (dd, target)
            if best is not None:
                group_of[cid] = best[1]
        for cid in cstar:
            group_of[cid] = cid
        # case II: a C* group re-centers at its smallest marked neighbor
        redirect = {
            cid: marked_nb[cid] for cid in cstar if cid in marked_nb
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
        sym: list[set[int]] = [set() for _ in residual]
        for cid in residual:
            i = res_index[cid]
            for o in hv.in_ids[cid]:
                j = res_index.get(o)
                if j is not None:
                    sym[i].add(j)
                    sym[j].add(i)
        modeled = 0
        if residual:
            radii = {}
            for cid in residual:
                c = by_id[cid]
                dist = _bfs_idx(g, [c.center], targets=c.members)
                radii[cid] = max(dist[m] for m in c.members)
            if any(r > 0 for r in radii.values()):
                _add_proximity_edges(g, by_id, residual, radii, k, sym)
            sym_nb = [sorted(s) for s in sym]
            # Linial's round count; the coloring itself is not needed
            iters = sum(1 for _ in linial_stages(
                max(residual) + 1, max(map(len, sym_nb))
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
        new_live: dict[int, LiveCluster] = {}
        for cid, leader in sorted(group_of.items()):
            tgt = by_id[leader]
            lc = new_live.get(leader)
            if lc is None:
                lc = LiveCluster(leader, tgt.center, set())
                new_live[leader] = lc
            lc.members.update(by_id[cid].members)
        live = [new_live[leader] for leader in sorted(new_live)]

        # -- invariants --
        if len(live) * d**phase > n_init:
            raise DecomposeError(
                f"invariant A violated in phase {phase}: "
                f"{len(live)} > {n_init}/{d}^{phase}"
            )
        max_r = 0
        for c in live:
            tree, radius = _live_cluster_tree(g, c)
            max_r = max(max_r, -(-radius // k))     # radius in G^k hops
            for e in tree.tree_edges:
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
