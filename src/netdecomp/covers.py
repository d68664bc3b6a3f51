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
    validate_decomposition,
)
from .graphs import (
    Graph,
    GraphError,
    NetdecompError,
    _bfs_idx,
    induced_edges,
    path_union,
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
    rep = validate_decomposition(g, dec)
    if not rep.valid:
        raise CoverError(f"input decomposition invalid: {rep.failures[0]}")
    return _expand(g, k, dec)


def _expand(g: Graph, k: int, dec: Decomposition) -> NeighborhoodCover:
    """The cover of ``cover_from_decomposition``, for a decomposition
    already known to be valid and 2k-separated."""
    out = []
    for c in dec.clusters:
        reached: list[int] = []
        _bfs_idx(g, sorted(c.members), cap=k, reached=reached)
        expanded = frozenset(reached)
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
    """Independent second oracle: Prim from each unvisited node."""
    _require_weights(g)
    seen = [False] * g.n
    tree = set()
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        heap = [(g.weight_of(s, v), s, v) for v in g.neighbors[s]]
        heapq.heapify(heap)
        while heap:
            w, a, b = heapq.heappop(heap)
            if seen[b]:
                continue
            seen[b] = True
            tree.add((min(a, b), max(a, b)))
            for c in g.neighbors[b]:
                if not seen[c]:
                    heapq.heappush(heap, (g.weight_of(b, c), b, c))
    return frozenset(tree)


def mst_radius(g: Graph, cycle_cap: int = 1 << 20) -> Optional[int]:
    """μ(G, ω): over non-MST edges e={u,v}, the length of the shortest
    cycle through e in which e is heaviest, maximized.  None if some edge
    exceeds ``cycle_cap``.  Trees have μ = 0 by convention."""
    _require_weights(g)
    if not _connected(g):
        raise GraphError("mst_radius needs a connected graph")
    mst = kruskal_oracle(g)
    rank = g.rank
    by_rank = [sorted((rank[(min(u, v), max(u, v))], v) for v in nb)
               for u, nb in enumerate(g.neighbors)]
    mu = 0
    for (a, b), r in rank.items():
        if (a, b) in mst:
            continue
        d = _lighter_distance(by_rank, a, b, r)
        if d is None or d + 1 > cycle_cap:
            return None
        mu = max(mu, d + 1)
    return mu


def _lighter_distance(by_rank: list, a: int, b: int, r: int) -> Optional[int]:
    """Shortest a-b hop distance using only edges of rank below r;
    ``by_rank[u]`` lists u's (edge rank, neighbor) pairs in rank order."""
    dist = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for rv, v in by_rank[u]:
                if rv >= r:
                    break
                if v not in dist:
                    dist[v] = dist[u] + 1
                    if v == b:
                        return dist[v]
                    nxt.append(v)
        frontier = nxt
    return dist.get(b)


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return all(d >= 0 for d in _bfs_idx(g, [0]))


# lanes per pass of ``mst_radius_scipy``: 4,096-bit ints, as in
# ``clustering.weak_diameter``
_LANE_BLOCK = 4096


def mst_radius_scipy(g: Graph, cycle_cap: int = 1 << 20) -> Optional[int]:
    """Independent second oracle for μ, as one bit-parallel multi-source
    BFS (Then et al., PVLDB 2014) that compares ``Fraction`` weights and
    reads no weight rank.  The name is kept for its callers; the tests
    compare it with one scipy BFS per edge.

    A sweep in ``Fraction`` order finds the non-MST edges: those whose
    endpoints a union-find has already joined.  Lane l is the l-th of them,
    (a_l, b_l); its bit starts at a_l.  Each edge keeps c, the number of
    non-MST edges no heavier than itself, and crossing it clears the low c
    bits, so a lane walks only edges lighter than its own.  A lane ends
    when its bit first reaches b_l, and μ is 1 + the round in which the
    last lane ends.  Lanes go in blocks of ``_LANE_BLOCK``, so memory is
    O(n x 512 bytes)."""
    _require_weights(g)
    if not _connected(g):
        raise GraphError("mst_radius needs a connected graph")
    dsu = _DSU(g.n)
    lanes: list[tuple[int, int]] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for a, b in sorted(g.weights, key=g.weights.__getitem__):
        if not dsu.union(a, b):
            lanes.append((a, b))
        adj[a].append((b, len(lanes)))
        adj[b].append((a, len(lanes)))
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
    # validate it); only decompositions from outside are validated
    cover = _expand(g, k, decompose(g, 2 * k).decomposition)

    cluster_msts: dict[int, frozenset[tuple[int, int]]] = {}
    containing: dict[tuple[int, int], list[int]] = {}
    load = [0] * g.n
    for c in cover.clusters:
        for v in c.members:
            load[v] += 1
        sub_edges = induced_edges(g, c.members)
        for e in sub_edges:
            containing.setdefault(e, []).append(c.id)
        cluster_msts[c.id] = _forest_of(g.n, sorted(sub_edges, key=g.rank.get))
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
