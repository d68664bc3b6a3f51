"""Cluster / decomposition / cover data model and the centralized validators
that certify separation, diameter, sparsity, independence and ruling-set
properties.  Validators are pure and report rather than raise.

All distances here are measured in the base graph G by BFS; a second
independent all-pairs backend is used in tests to cross-check verdicts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .graphs import Graph, _bfs_idx, _malformed_json, connected_components


@dataclass
class Cluster:
    """A cluster: center, member set, and a communication tree.

    Members and tree edges are stored as node *indices* into the host graph.
    ``tree_edges`` is a set of G-edges forming a tree that contains every
    member; for weak-diameter decompositions the tree may pass through
    non-member vertices, for strong-diameter covers it must not.
    """

    id: int
    center: int
    members: frozenset[int]
    tree_edges: frozenset[tuple[int, int]] = frozenset()
    color: Optional[int] = None

    def tree_nodes(self) -> frozenset[int]:
        if not self.tree_edges:
            return self.members
        return frozenset(v for e in self.tree_edges for v in e)


@dataclass
class Decomposition:
    k: int
    clusters: list[Cluster]

    @property
    def colors_used(self) -> int:
        return len({c.color for c in self.clusters})

    def color_classes(self) -> dict[int, list[Cluster]]:
        out: dict[int, list[Cluster]] = {}
        for c in self.clusters:
            out.setdefault(c.color, []).append(c)
        return out


@dataclass
class NeighborhoodCover:
    k: int
    clusters: list[Cluster]


@dataclass
class RulingSetResult:
    base: frozenset[int]
    chosen: frozenset[int]
    alpha: int
    beta: int


@dataclass
class Report:
    valid: bool
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def fail(self, msg: str) -> None:
        self.valid = False
        self.failures.append(msg)


# -- helpers -------------------------------------------------------------


def _check_tree(g: Graph, cluster: Cluster, rep: Report, strong: bool) -> Optional[dict[int, int]]:
    """Verify tree shape; return hop distance from center along the tree
    (over tree nodes) or None if broken."""
    cid = cluster.id
    if cluster.center not in cluster.members:
        rep.fail(f"cluster {cid}: center not a member")
        return None
    edges = set()
    for a, b in cluster.tree_edges:
        if b not in g.neighbors[a]:
            rep.fail(f"cluster {cid}: tree edge ({a},{b}) not a G-edge")
            return None
        edges.add((min(a, b), max(a, b)))
    if len(edges) != len(cluster.tree_edges):
        rep.fail(f"cluster {cid}: duplicate tree edge")
        return None
    nodes = cluster.tree_nodes() | {cluster.center}
    if strong and not nodes <= cluster.members:
        rep.fail(f"cluster {cid}: tree leaves member set (strong mode)")
        return None
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # connectivity + acyclicity from the center
    dist = {cluster.center: 0}
    stack = [cluster.center]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                stack.append(v)
    if len(dist) != len(nodes):
        rep.fail(f"cluster {cid}: tree not connected")
        return None
    if len(edges) != len(nodes) - 1:
        rep.fail(f"cluster {cid}: tree has a cycle")
        return None
    missing = cluster.members - nodes
    if missing:
        rep.fail(f"cluster {cid}: members {sorted(missing)[:3]} not on tree")
        return None
    return dist


# members per lane block of ``weak_diameter``: 16 words of 64 lanes
_LANES = 1024
# frontier words that ``weak_diameter`` gathers at once (2 MB)
_PULL_WORDS = 1 << 18


def weak_diameter(g: Graph, members: Iterable[int]) -> int:
    """Max over member pairs of d_G; -1 if two members are disconnected in G.

    One bit-parallel multi-source BFS (Then et al., PVLDB 2014) in packed
    uint64 lanes.  Members go in blocks of ``_LANES`` = 1,024; member i of a
    block owns bit i % 64 of word i // 64, so a block keeps ``seen`` and
    ``frontier`` as (n, W) uint64 arrays, W = ceil(block / 64).  Bit i of
    ``seen[v]`` is set once member i is within r hops of v.  A round pulls
    the frontier over the CSR rows with ``bitwise_or.reduceat`` of
    ``frontier[dst]``, in pieces of at most ``_PULL_WORDS`` gathered words
    (rows without neighbours left out), and keeps the bits not yet seen.
    The answer is the first r at which every member has every lane bit, the
    maximum over blocks; -1 if the frontier empties first.  Memory is three
    (n, W) arrays, O(n x block / 8) bytes, plus a 2 MB piece; a round costs
    O((n + m) x W) word operations, so all members take
    O(r x (n + m) x members / 64).  A set of at most one member is 0
    without array work."""
    mem = members if isinstance(members, (set, frozenset)) else set(members)
    if len(mem) <= 1:
        return 0
    mem = np.sort(np.fromiter(mem, dtype=np.int64, count=len(mem)))
    indptr, dst = g._rows
    # reduceat gives an empty row the element at its start, not 0
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    starts = indptr[rows]
    ends = np.append(starts, len(dst))
    best = 0
    for lo in range(0, len(mem), _LANES):
        block = mem[lo : lo + _LANES]
        lanes = np.arange(len(block))
        words = (len(block) + 63) // 64
        cuts = np.searchsorted(starts, np.arange(0, len(dst), _PULL_WORDS // words))
        cuts = cuts.tolist() + [len(rows)]
        pieces = [
            (rows[a:b], dst[ends[a] : ends[b]], starts[a:b] - ends[a])
            for a, b in zip(cuts, cuts[1:]) if a < b
        ]
        seen = np.zeros((g.n, words), dtype=np.uint64)
        seen[block, lanes >> 6] = np.uint64(1) << (lanes & 63).astype(np.uint64)
        full = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
        full[-1] >>= np.uint64(64 * words - len(block))
        frontier, pulled = seen.copy(), np.zeros_like(seen)
        r = 0
        while not (seen[mem] == full).all():
            if not frontier.any():
                return -1  # disconnected in G: treated as invalid upstream
            r += 1
            for at, nbrs, first in pieces:
                pulled[at] = np.bitwise_or.reduceat(frontier[nbrs], first, axis=0)
            # rows without neighbours keep an older frontier, a subset of seen
            pulled |= seen
            pulled ^= seen
            frontier, pulled = pulled, frontier
            seen |= frontier
        best = max(best, r)
    return best


# -- validators ----------------------------------------------------------


def validate_decomposition(
    g: Graph, dec: Decomposition, strong: bool = False, check_trees: bool = True
) -> Report:
    """Certify the partition, the trees, connectivity in G, same-color
    separation (>= k+1 hops) and per-color tree edge-disjointness, and
    measure the weak diameter."""
    rep = _check_decomposition(g, dec, strong, check_trees)
    rep.stats["max_weak_diameter"] = max(
        [0] + [weak_diameter(g, c.members) for c in dec.clusters]
    )
    return rep


def _check_decomposition(
    g: Graph, dec: Decomposition, strong: bool = False, check_trees: bool = True
) -> Report:
    """The verdicts of ``validate_decomposition`` and every stat but the weak
    diameter.  Members are connected in G exactly when one connected
    component holds them all."""
    rep = Report(valid=True)
    owner: dict[int, int] = {}
    for c in dec.clusters:
        for v in c.members:
            if v in owner:
                rep.fail(f"node {v} in clusters {owner[v]} and {c.id}")
            owner[v] = c.id
    if len(owner) != g.n:
        rep.fail(f"partition covers {len(owner)} of {g.n} nodes")
    if check_trees:
        for c in dec.clusters:
            _check_tree(g, c, rep, strong=strong)

    component = [0] * g.n
    for i, comp in enumerate(connected_components(g)):
        for v in comp:
            component[v] = i
    for c in dec.clusters:
        if len({component[v] for v in c.members}) > 1:
            rep.fail(f"cluster {c.id}: members disconnected in G")

    min_gap = None
    total_usage: Counter[tuple[int, int]] = Counter()
    for color, group in dec.color_classes().items():
        # positions in ``group`` of the clusters holding each node (more
        # than one when clusters overlap)
        holders: dict[int, list[int]] = {}
        for j, c in enumerate(group):
            for v in c.members:
                holders.setdefault(v, []).append(j)
        for i, c in enumerate(group):
            reached: list[int] = []
            dist = _bfs_idx(g, sorted(c.members), cap=dec.k, reached=reached)
            gaps: dict[int, int] = {}
            for v in reached:  # distance order: the first hit is the gap
                for j in holders.get(v, ()):
                    if j > i and j not in gaps:
                        gaps[j] = dist[v]
            for j in sorted(gaps):
                gap = gaps[j]
                min_gap = gap if min_gap is None else min(min_gap, gap)
                rep.fail(
                    f"color {color}: clusters {c.id},{group[j].id} at distance "
                    f"{gap} <= k={dec.k}"
                )
        usage: dict[tuple[int, int], int] = {}
        for c in group:
            for a, b in c.tree_edges:
                e = (min(a, b), max(a, b))
                usage[e] = usage.get(e, 0) + 1
        over = {e: n for e, n in usage.items() if n > 1}
        if over:
            rep.fail(f"color {color}: {len(over)} G-edges used by multiple trees")
        total_usage.update(usage)

    rep.stats = {
        "colors": dec.colors_used,
        "min_same_color_gap": min_gap,
        "max_edge_overlap": max(total_usage.values(), default=0),
    }
    return rep


def validate_cover(g: Graph, cover: NeighborhoodCover) -> Report:
    """Definition-clause verdicts for a sparse neighborhood cover: strong
    spanning trees, k-ball containment, and per-node sparsity.  Containment
    takes one bounded BFS per cluster (``_ball_interior``), not one per
    node."""
    rep = Report(valid=True)
    max_depth = 0
    for c in cover.clusters:
        dist = _check_tree(g, c, rep, strong=True)
        if dist is not None:
            max_depth = max(max_depth, max(dist.values(), default=0))

    load = [0] * g.n
    for c in cover.clusters:
        for v in c.members:
            load[v] += 1
    sparsity = max(load, default=0)

    inside = [False] * g.n
    for c in cover.clusters:
        for v in _ball_interior(g, c.members, cover.k):
            inside[v] = True
    uncovered = [v for v in range(g.n) if not inside[v]]
    if uncovered:
        rep.fail(f"{len(uncovered)} nodes have an uncovered {cover.k}-ball")
    rep.stats = {
        "sparsity": sparsity,
        "diameter": 2 * max_depth,
        "tree_depth": max_depth,
        "uncovered_balls": uncovered,
    }
    return rep


def _ball_interior(g: Graph, members: frozenset[int], k: int) -> frozenset[int]:
    """The members whose k-ball lies in ``members``: those more than k hops
    from every non-member.  A shortest path to the nearest non-member leaves
    ``members`` only at its last step, so one BFS inside ``members``, seeded
    at distance 1 at the members with a non-member neighbour and stopped at
    k, reaches exactly the members whose ball does not lie in it."""
    reached: list[int] = []
    if k >= 1:
        edge = [v for v in members if any(u not in members for u in g.neighbors[v])]
        _bfs_idx(g, edge, cap=k - 1, within=members, reached=reached)
    return members.difference(reached)


def validate_mis(g: Graph, s: Iterable[int]) -> tuple[bool, Optional[str]]:
    """True iff ``s`` (node indices) is independent and dominating."""
    sset = set(s)
    for v in sset:
        for u in g.neighbors[v]:
            if u in sset:
                return False, f"adjacent pair ({v},{u}) both in set"
    for v in range(g.n):
        if v not in sset and not any(u in sset for u in g.neighbors[v]):
            return False, f"node {v} undominated"
    return True, None


def validate_ruling_set(g: Graph, r: RulingSetResult) -> tuple[bool, Optional[str]]:
    if not r.chosen <= r.base:
        return False, "chosen not a subset of base"
    chosen = sorted(r.chosen)
    for v in chosen:
        dist = _bfs_idx(g, [v], cap=r.alpha - 1)
        for u in chosen:
            if u != v and dist[u] >= 0:
                return False, f"chosen pair ({v},{u}) at distance {dist[u]} < {r.alpha}"
    if r.chosen:
        dist = _bfs_idx(g, chosen, cap=r.beta)
    else:
        dist = [-1] * g.n
    for b in r.base:
        if dist[b] < 0:
            return False, f"base node {b} beyond {r.beta} hops from chosen"
    return True, None


# -- JSON interchange ----------------------------------------------------


def decomposition_to_json(g: Graph, dec: Decomposition) -> dict:
    """Interchange form with node *ids* (not indices)."""
    return {
        "k": dec.k,
        "clusters": [
            {
                "id": c.id,
                "center": g.ids[c.center],
                **({"color": c.color} if c.color is not None else {}),
                "members": sorted(g.ids[v] for v in c.members),
                "tree_edges": sorted(
                    sorted((g.ids[a], g.ids[b])) for a, b in c.tree_edges
                ),
            }
            for c in sorted(dec.clusters, key=lambda c: c.id)
        ],
    }


def decomposition_from_json(g: Graph, data: dict) -> Decomposition:
    clusters = []
    with _malformed_json("decomposition JSON"):
        for c in data["clusters"]:
            clusters.append(
                Cluster(
                    id=c["id"],
                    center=g.index_of(c["center"]),
                    members=frozenset(g.index_of(v) for v in c["members"]),
                    tree_edges=frozenset(
                        (g.index_of(a), g.index_of(b)) for a, b in c["tree_edges"]
                    ),
                    color=c.get("color"),
                )
            )
        return Decomposition(k=data["k"], clusters=clusters)

