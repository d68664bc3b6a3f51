"""Sparse neighborhood covers from separated decompositions, and the
cover-based exact MST with edge-classification rules A/B.

Per-cluster MSTs run centrally per cluster; the distributed algorithm uses
them only as a black box, and the verifiable claim here is that the A/B
classification reproduces the unique minimum spanning forest exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .clustering import (
    Cluster,
    Decomposition,
    NeighborhoodCover,
    _check_decomposition,
    validate_decomposition,  # noqa: F401  stays bound for the benchmark's tracer
)
from .graphs import (
    Graph,
    GraphError,
    NetdecompError,
    _bfs_idx,
    induced_edges,
    path_union,
    weight_key,
)


class CoverError(NetdecompError):
    pass


class MstError(NetdecompError):
    pass


def cover_from_decomposition(
    g: Graph, k: int, dec: Decomposition
) -> NeighborhoodCover:
    """Expand each cluster C of a 2k-separated decomposition to
    C' = C ∪ {nodes within k of C}, with a fresh strong spanning tree per
    expanded cluster.  Same-color expansions stay disjoint because the
    input keeps same-color clusters more than 2k hops apart."""
    if k < 1:
        raise CoverError("k must be >= 1")
    if dec.k < 2 * k:
        raise CoverError(
            f"decomposition separation parameter {dec.k} < 2k = {2 * k}"
        )
    rep = _check_decomposition(g, dec)
    if not rep.valid:
        raise CoverError(f"input decomposition invalid: {rep.failures[0]}")
    return _expand(g, k, dec)


def _expand(g: Graph, k: int, dec: Decomposition) -> NeighborhoodCover:
    """The cover of ``cover_from_decomposition``, for a decomposition
    already known to be valid and 2k-separated."""
    out = []
    for c in dec.clusters:
        expanded = _ball(g, c.members, k)
        out.append(
            Cluster(
                id=c.id,
                center=c.center,
                members=expanded,
                tree_edges=_strong_tree(g, c.center, expanded),
                color=c.color,
            )
        )
    return NeighborhoodCover(k=k, clusters=out)


def _ball(g: Graph, members: Iterable[int], k: int) -> frozenset[int]:
    """The nodes within k hops of ``members``."""
    reached: list[int] = []
    _bfs_idx(g, sorted(members), cap=k, reached=reached)
    return frozenset(reached)


def _strong_tree(
    g: Graph, center: int, members: frozenset[int]
) -> frozenset[tuple[int, int]]:
    """BFS spanning tree of G[members] rooted at the center."""
    parent: dict[int, int] = {}
    _bfs_idx(g, [center], parent=parent, within=members)
    missing = members - parent.keys()
    if missing:
        raise CoverError(
            f"expanded cluster around {center} is not connected "
            f"({len(missing)} unreachable members)"
        )
    return path_union(parent, parent)


# -- MST oracles ---------------------------------------------------------


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _require_weights(g: Graph) -> None:
    if g.weights is None:
        raise GraphError("weighted graph required")


def kruskal_oracle(g: Graph) -> frozenset[tuple[int, int]]:
    """The unique minimum spanning forest (distinct weights) by Kruskal."""
    _require_weights(g)
    return _forest_of(g.n, g.rank)


def prim_oracle(g: Graph) -> frozenset[tuple[int, int]]:
    """Independent second oracle: Prim from each unvisited node.  The heap
    holds each edge's position in ``Fraction`` weight order (``weight_key``),
    sorted here and not read from ``g.rank``; weights are distinct, so
    positions order edges as the weights do."""
    _require_weights(g)
    w = g.weights
    order = sorted(w, key=lambda e: weight_key(w[e]))
    pos = {e: i for i, e in enumerate(order)}
    seen = [False] * g.n
    tree = set()
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        heap = [(pos[(s, v) if s < v else (v, s)], v) for v in g.neighbors[s]]
        heapq.heapify(heap)
        while heap:
            i, b = heapq.heappop(heap)
            if seen[b]:
                continue
            seen[b] = True
            tree.add(order[i])
            for c in g.neighbors[b]:
                if not seen[c]:
                    heapq.heappush(heap, (pos[(b, c) if b < c else (c, b)], c))
    return frozenset(tree)


def mst_radius(g: Graph, cycle_cap: int = 1 << 20) -> Optional[int]:
    """μ(G, ω): over non-MST edges e={u,v}, the length of the shortest
    cycle through e in which e is heaviest, maximized.  None if some edge
    exceeds ``cycle_cap``.  Trees have μ = 0 by convention.  Computed by
    ``_mu_lanes`` over the edges in cached ``g.rank`` order."""
    _require_weights(g)
    return _mu_lanes(g.n, g.rank, cycle_cap)


def mst_radius_scipy(g: Graph, cycle_cap: int = 1 << 20) -> Optional[int]:
    """μ as ``mst_radius`` computes it, over an edge order sorted here by
    ``Fraction`` weight (``weight_key``) instead of read from ``g.rank``; a
    wrong rank makes the two disagree.  The name is kept for its callers;
    the tests compare both with one scipy BFS per edge and with cycle
    enumeration."""
    _require_weights(g)
    w = g.weights
    return _mu_lanes(g.n, sorted(w, key=lambda e: weight_key(w[e])), cycle_cap)


# lanes per pass of ``_mu_lanes``: one 4,096-bit int per reached node
_LANE_BLOCK = 4096


def _mu_lanes(
    n: int, edges: Iterable[tuple[int, int]], cycle_cap: int
) -> Optional[int]:
    """μ over ``edges``, which come in increasing-weight order, as one
    bit-parallel multi-source BFS (Then et al., PVLDB 2014).

    The sweep in that order finds the non-MST edges: those whose endpoints
    a union-find has already joined.  Lane l is the l-th of them,
    (a_l, b_l); its bit starts at a_l.  Each edge keeps c, the number of
    non-MST edges no heavier than itself, and crossing it clears the low c
    bits, so a lane walks only edges lighter than its own.  A lane ends
    when its bit first reaches b_l, and μ is 1 + the round in which the
    last lane ends.  Lanes go in blocks of ``_LANE_BLOCK``, so memory is
    O(n x 512 bytes)."""
    dsu = _DSU(n)
    joins = 0
    lanes: list[tuple[int, int]] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in edges:
        if dsu.union(a, b):
            joins += 1
        else:
            lanes.append((a, b))
        adj[a].append((b, len(lanes)))
        adj[b].append((a, len(lanes)))
    if joins < n - 1:
        raise GraphError("mst_radius needs a connected graph")
    mu = 0
    for lo in range(0, len(lanes), _LANE_BLOCK):
        block = lanes[lo : lo + _LANE_BLOCK]
        # each edge with the shift it has in this block, if any lane of the
        # block may use it
        block_adj = [
            [(v, max(0, c - lo)) for v, c in nb if c - lo < len(block)]
            for nb in adj
        ]
        seen: dict[int, int] = {}
        target: dict[int, int] = {}
        for i, (a, b) in enumerate(block):
            seen[a] = seen.get(a, 0) | 1 << i
            target[b] = target.get(b, 0) | 1 << i
        open_ = (1 << len(block)) - 1
        frontier = dict(seen)
        r = 0
        while open_:
            if not frontier or r + 2 > cycle_cap:
                return None  # a lane's cycle is longer than the cap
            r += 1
            incoming: dict[int, int] = {}
            for u, bits in frontier.items():
                bits &= open_
                if not bits:
                    continue
                for v, shift in block_adj[u]:
                    t = bits >> shift << shift if shift else bits
                    if t:
                        incoming[v] = incoming.get(v, 0) | t
            frontier = {}
            for v, bits in incoming.items():
                s = seen.get(v, 0)
                fresh = bits & ~s
                if fresh:
                    frontier[v] = fresh
                    seen[v] = s | bits
                    open_ &= ~(fresh & target.get(v, 0))
        mu = max(mu, r + 1)
    return mu


# -- cover-based MST -----------------------------------------------------

RULE_A_EXCLUDED = "rule_A_excluded"
RULE_B_INCLUDED = "rule_B_included"


@dataclass
class MstResult:
    tree_edges: frozenset[tuple[int, int]]
    classification: dict[tuple[int, int], str]
    mu: int                     # the μ the cover was built for
    true_mu: int                # the MST-radius μ(G, ω) itself
    cover_sparsity: int
    cluster_msts: dict[int, frozenset[tuple[int, int]]] = field(
        default_factory=dict
    )

    def to_json(self, g: Graph) -> dict:
        return {
            "mst_edges": sorted(
                [g.ids[a], g.ids[b]] for a, b in self.tree_edges
            ),
            "excluded_edges": sorted(
                [g.ids[a], g.ids[b]]
                for (a, b), r in self.classification.items()
                if r == RULE_A_EXCLUDED
            ),
            "mu": self.mu,
            "cover_stats": {"sparsity": self.cover_sparsity},
        }


def cover_mst(g: Graph, mu: Optional[int] = None) -> MstResult:
    """Exact MST via a μ-neighborhood cover: every edge is classified by
    rule A (excluded: some containing cluster's MST omits it) or rule B
    (included: in the MST of every containing cluster)."""
    true_mu = mst_radius(g)
    if mu is None:
        mu = true_mu
    if true_mu is None or mu < true_mu:
        raise MstError(f"supplied mu={mu} below MST-radius {true_mu}")
    k = max(1, mu)
    from .decompose import decompose

    # decompose's own output is 2k-separated by construction (its tests
    # validate it), so it is expanded unvalidated.  Only the expanded member
    # sets are read; clusters that expand to the same set share its forest.
    clusters = decompose(g, 2 * k).decomposition.clusters
    cluster_msts: dict[int, frozenset[tuple[int, int]]] = {}
    containing: dict[tuple[int, int], list[int]] = {}
    load = [0] * g.n
    forests: dict[frozenset[int], tuple[list, frozenset]] = {}
    for c in clusters:
        members = _ball(g, c.members, k)
        for v in members:
            load[v] += 1
        if members not in forests:
            sub_edges = induced_edges(g, members)
            forests[members] = (
                sub_edges, _forest_of(g.n, sorted(sub_edges, key=g.rank.get))
            )
        sub_edges, cluster_msts[c.id] = forests[members]
        for e in sub_edges:
            containing.setdefault(e, []).append(c.id)
    classification: dict[tuple[int, int], str] = {}
    for a, b in g.weights:
        if (a, b) not in containing:
            raise MstError(f"edge ({a},{b}) contained in no cover cluster")
        in_all = all((a, b) in cluster_msts[cid] for cid in containing[(a, b)])
        classification[(a, b)] = RULE_B_INCLUDED if in_all else RULE_A_EXCLUDED
    tree = frozenset(
        e for e, r in classification.items() if r == RULE_B_INCLUDED
    )
    return MstResult(
        tree_edges=tree,
        classification=classification,
        mu=mu,
        true_mu=true_mu,
        cover_sparsity=max(load, default=0),
        cluster_msts=cluster_msts,
    )


def _forest_of(
    n: int, edges: Iterable[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """Kruskal over ``edges``, which come in increasing-weight order."""
    dsu = _DSU(n)
    tree = set()
    for a, b in edges:
        if dsu.union(a, b):
            tree.add((a, b))
    return frozenset(tree)
