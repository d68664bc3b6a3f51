"""Cluster / decomposition / cover data model and the centralized validators
that certify separation, diameter, sparsity, independence and ruling-set
properties.  Validators are pure and report rather than raise.

All distances here are measured in the base graph G by BFS; a second
independent all-pairs backend is used in tests to cross-check verdicts.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
from scipy import sparse

from .graphs import (
    Graph,
    _bfs_idx,
    _json_int,
    _malformed_json,
    component_labels,
    edge_entries,
    row_entries,
)


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
    if not cluster.tree_edges and len(cluster.members) == 1:
        return {cluster.center: 0}
    edges = set()
    for a, b in cluster.tree_edges:
        if not 0 <= a < g.n or b not in g.neighbors[a]:
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


def _member_arrays(clusters: list[Cluster]) -> tuple[np.ndarray, np.ndarray]:
    """The number of members of each cluster, and all members concatenated
    in cluster order."""
    members = list(map(attrgetter("members"), clusters))
    sizes = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
    flat = np.fromiter(chain.from_iterable(members), dtype=np.int64,
                       count=int(sizes.sum()))
    return sizes, flat


def _tree_edge_arrays(clusters: list[Cluster]) -> tuple[np.ndarray, np.ndarray]:
    """All tree edges as one (T, 2) array in cluster order, and the number
    of tree edges of each cluster."""
    trees = list(map(attrgetter("tree_edges"), clusters))
    counts = np.fromiter(map(len, trees), dtype=np.int64, count=len(trees))
    total = int(counts.sum())
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(trees)),
                       dtype=np.int64, count=2 * total)
    return ends.reshape(total, 2), counts


def _trees_ok(
    g: Graph, clusters: list[Cluster], sizes: np.ndarray, flat: np.ndarray,
    ends: np.ndarray, counts: np.ndarray, strong: bool, depth: bool = False,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per cluster, True where ``_check_tree`` accepts its tree; and with
    ``depth``, the depth of each accepted tree (its most hops from the
    center; 0 elsewhere).  ``sizes`` and ``flat`` are
    ``_member_arrays(clusters)``, ``ends`` and ``counts``
    ``_tree_edge_arrays(clusters)``.  A cluster marked False is left to
    ``_check_tree``, which writes why it fails; so is every cluster with an
    index outside 0..n-1.

    All clusters are checked at once, on keys cluster * n + node.  A tree's
    nodes are its edges' ends and its center.  As ``_check_tree`` does, it
    is accepted when its center is a member, every edge is a G-edge
    (``edge_entries``), every member is a node, in
    strong mode every node is a member, it has one edge fewer than nodes,
    and its nodes are connected: one scipy labelling of the trees'
    (cluster, node) graph, or with ``depth`` one search from all centers.
    The last two make it a tree; an edge listed in both directions would
    close a cycle of two.  A cluster without tree edges is thus accepted
    when its center is its only member."""
    from scipy.sparse.csgraph import connected_components, dijkstra  # see component_labels

    n, k = g.n, len(clusters)
    centers = np.fromiter(map(attrgetter("center"), clusters), dtype=np.int64,
                          count=k)
    of_member = np.repeat(np.arange(k), sizes)
    of_edge = np.repeat(np.arange(k), counts)
    ok = np.zeros(k, dtype=bool)
    ok[of_member[flat == centers[of_member]]] = True
    ok &= (centers >= 0) & (centers < n)
    ok[of_member[(flat < 0) | (flat >= n)]] = False
    ok[of_edge[((ends < 0) | (ends >= n)).any(axis=1)]] = False
    # keys only of clusters whose indices all lie in range
    inside = np.flatnonzero(ok)
    mem, edg = ok[of_member], ok[of_edge]
    of_edge, a, b = of_edge[edg], ends[edg, 0], ends[edg, 1]
    if not len(a):  # a tree without edges is its center alone
        ok &= sizes == 1
        return ok, np.zeros(k, dtype=np.int64) if depth else None

    ok[of_edge[edge_entries(g, a, b) < 0]] = False

    # the distinct node keys, and where each end and center lies among them
    node_keys = np.concatenate((of_edge * n + a, of_edge * n + b,
                                inside * n + centers[inside]))
    order = np.argsort(node_keys)
    fresh = np.ones(len(order), dtype=bool)
    np.not_equal(node_keys[order[1:]], node_keys[order[:-1]], out=fresh[1:])
    nodes = node_keys[order[fresh]]
    at = np.empty_like(order)
    at[order] = np.cumsum(fresh) - 1
    of_node = nodes // n
    tree_size = np.bincount(of_node, minlength=k)
    ok &= counts == tree_size - 1
    # member keys and node keys are each distinct: a key found twice is both
    both = np.sort(np.concatenate((of_member[mem] * n + flat[mem], nodes)))
    common = np.bincount(both[1:][both[1:] == both[:-1]] // n, minlength=k)
    ok &= common == sizes
    if strong:
        ok &= common == tree_size

    t = len(a)
    trees = sparse.csr_matrix((np.ones(t), (at[:t], at[t : 2 * t])),
                              shape=(len(nodes), len(nodes)))
    roots = at[2 * t :]
    if not depth:
        _, label = connected_components(trees, directed=False)
        root_label = np.zeros(k, dtype=label.dtype)
        root_label[inside] = label[roots]
        ok[of_node[label != root_label[of_node]]] = False
        return ok, None
    dist = dijkstra(trees, directed=False, unweighted=True, min_only=True,
                    indices=roots)
    reached = np.isfinite(dist)
    ok[of_node[~reached]] = False
    dist[~reached] = 0
    most = np.zeros(k, dtype=np.int64)
    most[inside] = np.maximum.reduceat(dist, np.searchsorted(of_node, inside))
    return ok, most


def _edge_overlap(ends: np.ndarray, cls: np.ndarray, classes: int) -> tuple[np.ndarray, int]:
    """Per color class, the number of edges that more than one of its trees
    use, and the most trees of any colors that use one edge.  ``ends`` are
    the tree edges (``_tree_edge_arrays``) and ``cls`` the class of each; a
    tree that lists an edge in both directions counts as two."""
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    order = np.lexsort((cls, hi, lo))
    lo, hi, cls = lo[order], hi[order], cls[order]
    new_edge = np.ones(len(lo), dtype=bool)
    new_edge[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    new_use = new_edge.copy()
    new_use[1:] |= cls[1:] != cls[:-1]
    firsts = np.flatnonzero(new_edge)
    most = int(np.diff(np.append(firsts, len(lo))).max(initial=0))
    firsts = np.flatnonzero(new_use)
    uses = np.diff(np.append(firsts, len(lo)))
    return np.bincount(cls[firsts[uses > 1]], minlength=classes), most


# lanes per block of the lane kernel: 16 words of 64 lanes
_LANES = 1024
# frontier words that a pull of a CSR tail gathers at once (2 MB)
_PULL_WORDS = 1 << 18
# _PREFIX[b] has the low b bits set, b = 0..64
_PREFIX = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)


def weak_diameter(g: Graph, members: Iterable[int]) -> int:
    """Max over member pairs of d_G; -1 if two members are disconnected in G.
    A set of at most one member is 0 without array work; otherwise this is
    ``_lane_rounds`` on the one set."""
    mem = members if isinstance(members, (set, frozenset)) else set(members)
    if len(mem) <= 1:
        return 0
    mem = np.fromiter(mem, dtype=np.int64, count=len(mem))
    return _lane_rounds(g._rows, mem, np.array([0, len(mem)]), mem)


def _lane_rounds(rows: tuple[np.ndarray, np.ndarray], flat: np.ndarray,
                 bounds: np.ndarray, waits: np.ndarray,
                 floor: Optional[np.ndarray] = None) -> int:
    """Rounds until every row ``waits[q]`` has seen every lane of its set;
    -1 if a frontier empties first.  Lane p starts at row ``flat[p]``, set i
    is the lanes ``bounds[i] : bounds[i + 1]`` (none empty), ``waits`` is
    parallel to ``flat``, and ``rows`` = (indptr, dst) is a symmetric CSR
    graph.  With ``waits`` = ``flat`` this is the largest weak diameter of
    the sets, -1 if one is not connected.  ``floor``, parallel to dst, is
    the first lane that may cross each edge (``covers._mu_lanes``).

    One bit-parallel multi-source BFS (Then et al., PVLDB 2014) in packed
    uint64 lanes, in blocks of ``_LANES`` = 1,024: a block holds many small
    sets and a big set spans several.  Lane i of a block owns bit i % 64 of
    word i // 64 of the (n, W) arrays ``unseen`` and ``frontier``, over the
    rows in ``_PullPlan`` order.  A round pulls the frontier over the edges
    and keeps the bits still unseen.  In the block [lo, hi) an edge with
    floor <= lo is in the plan, one with lo < floor < hi is ORed in after
    the pull under the mask of the lanes from its floor on (these edges are
    sorted by row once per block, so that a round ORs them in with one
    gather and one ``bitwise_or.reduceat``), and one with floor >= hi is
    left out; without floors the plan is built once.  A
    block ends at the first round at which every wait row of a set with
    lanes in it holds them, and the answer is the maximum over blocks.
    Memory is four (n, W) arrays, the wait rows' masks and a piece of at
    most ``_PULL_WORDS`` words; a round costs O((n + m) x W) word
    operations."""
    indptr, dst = rows
    n = len(indptr) - 1
    if floor is None:
        plan = _PullPlan(n, indptr, dst)
    else:
        src = np.repeat(np.arange(n), np.diff(indptr))
    sizes = np.diff(bounds)
    best = 0
    for lo in range(0, len(flat), _LANES):
        hi = min(lo + _LANES, len(flat))
        lanes = np.arange(hi - lo)
        words = (hi - lo + 63) // 64
        word_lo = 64 * np.arange(words)
        if floor is not None:
            keep = floor <= lo
            plan = _PullPlan(n, np.concatenate(([0], np.cumsum(keep)))[indptr],
                             dst[keep])
            # the late edges grouped by the row they are ORed into
            late = np.flatnonzero(~keep & (floor < hi))
            late_src = plan.rank[src[late]]
            by_row = np.argsort(late_src)
            late, late_src = late[by_row], late_src[by_row]
            late_dst = plan.rank[dst[late]]
            late_mask = ~_PREFIX[np.clip(floor[late, None] - lo - word_lo, 0, 64)]
            late_first = np.flatnonzero(np.diff(late_src, prepend=-1))
            late_rows = late_src[late_first]
        # sets s0..s1-1 have lanes here; a wait row needs its set's lanes
        s0 = int(np.searchsorted(bounds, lo, side="right")) - 1
        s1 = int(np.searchsorted(bounds, hi, side="left"))
        begin = np.clip(bounds[s0:s1, None] - lo - word_lo, 0, 64)
        end = np.clip(bounds[s0 + 1 : s1 + 1, None] - lo - word_lo, 0, 64)
        need = np.repeat(_PREFIX[end] ^ _PREFIX[begin], sizes[s0:s1], axis=0)
        wait = plan.rank[waits[bounds[s0] : bounds[s1]]]
        frontier = np.zeros((n, words), dtype=np.uint64)
        # bitwise_or.at: overlapping sets may give one row two lanes
        np.bitwise_or.at(frontier, (plan.rank[flat[lo:hi]], lanes >> 6),
                         np.uint64(1) << (lanes & 63).astype(np.uint64))
        unseen = ~frontier
        pulled = np.empty_like(frontier)
        # overlapping sets may give more wait rows than nodes
        scratch = np.empty((max(n, len(wait)), words), dtype=np.uint64)
        r = 0
        while True:
            missing = np.take(unseen, wait, axis=0, out=scratch[: len(wait)], mode="clip")
            missing &= need
            if not missing.any():
                break
            if not frontier.any():
                return -1  # disconnected in G: treated as invalid upstream
            r += 1
            plan.pull(frontier, pulled, scratch[:n])
            if floor is not None and len(late):
                late_bits = np.take(frontier, late_dst, axis=0)
                late_bits &= late_mask
                pulled[late_rows] |= np.bitwise_or.reduceat(late_bits, late_first, axis=0)
            pulled &= unseen
            unseen ^= pulled
            frontier, pulled = pulled, frontier
        best = max(best, r)
    return best


class _PullPlan:
    """The CSR rows (indptr, dst) over n nodes laid out for pulling packed
    lanes.

    Nodes are renumbered by decreasing degree (node v becomes ``rank[v]``).
    Column j holds the j-th neighbour of each of the first c_j nodes, the
    ones with more than j neighbours, so one gather per column ORs it into
    a prefix of the rows.  Columns stop before c_j drops below 64; the
    further neighbours of the nodes still left stay a CSR tail, reduced with
    ``bitwise_or.reduceat`` in pieces of at most ``_PULL_WORDS`` gathered
    words."""

    def __init__(self, n: int, indptr: np.ndarray, dst: np.ndarray):
        deg = np.diff(indptr)
        order = np.argsort(-deg, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[order] = np.arange(n)
        # c_j for j = 0 .. max degree - 1
        counts = n - np.cumsum(np.bincount(deg, minlength=1))[:-1]
        cols = int(np.count_nonzero(counts >= 64))
        first = indptr[order]
        self.columns = [(c, self.rank[dst[first[:c] + j]])
                        for j, c in enumerate(counts[:cols].tolist())]
        self.tail = int(counts[cols]) if cols < len(counts) else 0
        more = deg[order[: self.tail]] - cols
        self.tail_first = np.cumsum(more) - more
        at = np.repeat(first[: self.tail] + cols - self.tail_first, more)
        self.tail_dst = self.rank[dst[at + np.arange(len(at))]]

    def pull(self, frontier: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """out[v] = OR of frontier[u] over the neighbours u of v (0 if none);
        ``scratch`` is an array like ``out`` that this overwrites."""
        out[:] = 0
        for c, col in self.columns:
            np.take(frontier, col, axis=0, out=scratch[:c], mode="clip")
            out[:c] |= scratch[:c]
        step = max(1, _PULL_WORDS // frontier.shape[1])
        cuts = np.searchsorted(self.tail_first, np.arange(0, len(self.tail_dst), step))
        cuts = cuts.tolist() + [self.tail]
        ends = np.append(self.tail_first, len(self.tail_dst))
        for a, b in zip(cuts, cuts[1:]):
            if a < b:
                out[a:b] |= np.bitwise_or.reduceat(
                    frontier[self.tail_dst[ends[a] : ends[b]]],
                    self.tail_first[a:b] - ends[a], axis=0,
                )


def _separated(g: Graph, members: np.ndarray, labels: np.ndarray, k: int) -> bool:
    """True iff no two members with different labels lie within k hops.

    A node listed with two labels is a pair at distance 0.  Otherwise one
    multi-source search from all members (scipy ``dijkstra``, unweighted,
    stopped at k) gives every node v its distance d(v) to the nearest member
    and the label lab(v) of that member, and some pair lies within k exactly
    when some G-edge (u, v) has lab(u) != lab(v) and d(u) + 1 + d(v) <= k.
    If such an edge exists, the members nearest to u and to v are at most
    d(u) + 1 + d(v) hops apart.  Conversely, take a closest pair (a, b) with
    different labels, at distance D <= k, and a shortest path x_0 = a, ...,
    x_D = b.  lab(x_0) = lab(a) and lab(x_D) = lab(b), since a member is its
    own nearest member, so the label changes across some edge (x_t, x_t+1),
    and d(x_t) <= t, d(x_t+1) <= D - t - 1: the edge meets the test.  The
    cost is one search and one pass over the CSR edges."""
    from scipy.sparse.csgraph import dijkstra  # see component_labels

    owner = np.full(g.n, -1, dtype=np.int64)
    owner[members] = labels
    if (owner[members] != labels).any():
        return False
    if k < 1 or len(members) == 0:
        return True
    k = min(k, g.n)  # no distance reaches n; a k past the float range would overflow
    dist, _, source = dijkstra(
        g.adjacency_csr(), indices=members, unweighted=True, limit=k,
        min_only=True, return_predecessors=True,
    )
    lab = owner[np.maximum(source, 0)]  # unreached nodes have dist inf
    indptr, dst = g._rows
    src = np.repeat(np.arange(g.n), np.diff(indptr))
    return not ((dist[src] + dist[dst] < k) & (lab[src] != lab[dst])).any()


# -- validators ----------------------------------------------------------


def validate_decomposition(
    g: Graph, dec: Decomposition, strong: bool = False, check_trees: bool = True
) -> Report:
    """Certify the partition, the trees, connectivity in G, same-color
    separation (>= k+1 hops) and per-color tree edge-disjointness, and
    measure the weak diameter: one ``_lane_rounds`` over the multi-member
    clusters that one component of G holds (the others are 0 or -1, below
    the floor of 0)."""
    rep, flat, bounds = _certify(g, dec, strong, check_trees)
    rep.stats["max_weak_diameter"] = _lane_rounds(g._rows, flat, bounds, flat)
    return rep


def _check_decomposition(g: Graph, dec: Decomposition) -> Report:
    """The verdicts of ``validate_decomposition`` and every stat but the weak
    diameter, in weak mode with the tree checks."""
    return _certify(g, dec, strong=False, check_trees=True)[0]


def _certify(
    g: Graph, dec: Decomposition, strong: bool, check_trees: bool
) -> tuple[Report, np.ndarray, np.ndarray]:
    """The report of ``validate_decomposition`` without the weak diameter,
    and the members of every multi-member cluster that one component of G
    holds, concatenated in cluster order, with the offsets where each starts
    (``_lane_rounds``'s input).  One member array serves every check.  Members are connected
    in G exactly when one component holds them all.  A color class with
    more than one cluster is checked by ``_separated``; only a class that
    fails it goes through ``_gap_failures``, which writes its lines, and only
    a cluster whose tree ``_trees_ok`` does not accept goes through
    ``_check_tree``.  Members outside 0..n-1 get one failure line, and
    every other check is judged without them."""
    rep = Report(valid=True)
    clusters = dec.clusters
    sizes, flat = _member_arrays(clusters)
    ends, counts = _tree_edge_arrays(clusters)
    if check_trees:
        ok, _ = _trees_ok(g, clusters, sizes, flat, ends, counts, strong)
    sizes, flat = _members_in_range(g, sizes, flat, "cluster", rep)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    covered = len(np.unique(flat))
    if covered < len(flat):
        owner: dict[int, int] = {}
        of_member = np.repeat(np.arange(len(clusters)), sizes)
        for v, i in zip(flat.tolist(), of_member.tolist()):
            if v in owner:
                rep.fail(f"node {v} in clusters {owner[v]} and {clusters[i].id}")
            owner[v] = clusters[i].id
    if covered != g.n:
        rep.fail(f"partition covers {covered} of {g.n} nodes")
    if check_trees:
        for i in np.flatnonzero(~ok).tolist():
            _check_tree(g, clusters[i], rep, strong=strong)

    whole = sizes >= 2
    if whole.any():
        _, comp = component_labels(g)
        at = comp[flat]
        nonempty = np.flatnonzero(sizes)
        cut = bounds[nonempty]
        split = np.zeros(len(clusters), dtype=bool)
        split[nonempty] = np.minimum.reduceat(at, cut) != np.maximum.reduceat(at, cut)
        for i in np.flatnonzero(split).tolist():
            rep.fail(f"cluster {clusters[i].id}: members disconnected in G")
        whole &= ~split

    classes = dec.color_classes()
    color_of = {color: i for i, color in enumerate(classes)}
    cls = np.fromiter((color_of[c.color] for c in clusters), dtype=np.int64,
                      count=len(clusters))
    entry_cls = np.repeat(cls, sizes)
    order = np.argsort(entry_cls, kind="stable")
    cls_bounds = np.searchsorted(entry_cls[order], np.arange(len(classes) + 1))
    by_class, pos = flat[order], np.repeat(np.arange(len(clusters)), sizes)[order]
    min_gap = None
    over, overlap = _edge_overlap(ends, np.repeat(cls, counts), len(classes))
    for i, (color, group) in enumerate(classes.items()):
        if len(group) > 1:
            lo, hi = cls_bounds[i], cls_bounds[i + 1]
            if not (isinstance(dec.k, int)
                    and _separated(g, by_class[lo:hi], pos[lo:hi], dec.k)):
                gap = _gap_failures(g, color, group, dec.k, rep)
                if gap is not None:
                    min_gap = gap if min_gap is None else min(min_gap, gap)
        if over[i]:
            rep.fail(f"color {color}: {over[i]} G-edges used by multiple trees")

    rep.stats = {
        "colors": dec.colors_used,
        "min_same_color_gap": min_gap,
        "max_edge_overlap": overlap,
    }
    keep = np.repeat(whole, sizes)
    return rep, flat[keep], np.concatenate(([0], np.cumsum(sizes[whole])))


def _members_in_range(
    g: Graph, sizes: np.ndarray, flat: np.ndarray, what: str, rep: Report
) -> tuple[np.ndarray, np.ndarray]:
    """``sizes`` and ``flat`` (``_member_arrays``) without the members
    outside 0..n-1; if there are any, one failure line counts them."""
    bad = (flat < 0) | (flat >= g.n)
    if not bad.any():
        return sizes, flat
    rep.fail(f"{int(bad.sum())} {what} members outside 0..n-1")
    of_member = np.repeat(np.arange(len(sizes)), sizes)
    return np.bincount(of_member[~bad], minlength=len(sizes)), flat[~bad]


def _gap_failures(
    g: Graph, color, group: list[Cluster], k: int, rep: Report
) -> Optional[int]:
    """One BFS per cluster of a color class: a failure line for every pair
    of its clusters within k hops, in cluster order; the smallest such gap,
    or None.  Members outside 0..n-1 are left out."""
    min_gap = None
    members = [sorted(v for v in c.members if 0 <= v < g.n) for c in group]
    # positions in ``group`` of the clusters holding each node (more than
    # one when clusters overlap)
    holders: dict[int, list[int]] = {}
    for j, mem in enumerate(members):
        for v in mem:
            holders.setdefault(v, []).append(j)
    for i, c in enumerate(group):
        reached: list[int] = []
        dist = _bfs_idx(g, members[i], cap=k, reached=reached)
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
                f"{gap} <= k={k}"
            )
    return min_gap


def validate_cover(g: Graph, cover: NeighborhoodCover) -> Report:
    """Definition-clause verdicts for a sparse neighborhood cover: strong
    spanning trees, k-ball containment, and per-node sparsity.  The trees
    are checked on arrays (``_trees_ok``), and containment takes one bounded
    BFS per cluster that has members next to non-members, and none for
    k = 1 (``_ball_interiors``).  Members outside 0..n-1 get a failure
    line, and sparsity and containment are judged without them."""
    rep = Report(valid=True)
    clusters = cover.clusters
    sizes, flat = _member_arrays(clusters)
    ends, counts = _tree_edge_arrays(clusters)
    ok, depth = _trees_ok(g, clusters, sizes, flat, ends, counts, strong=True,
                          depth=True)
    max_depth = int(depth[ok].max(initial=0))
    for i in np.flatnonzero(~ok).tolist():
        dist = _check_tree(g, clusters[i], rep, strong=True)
        if dist is not None:
            max_depth = max(max_depth, max(dist.values(), default=0))

    sizes, flat = _members_in_range(g, sizes, flat, "cover", rep)
    sparsity = int(np.bincount(flat, minlength=g.n).max(initial=0))
    uncovered = np.flatnonzero(~_ball_interiors(g, sizes, flat, cover.k)).tolist()
    if uncovered:
        rep.fail(f"{len(uncovered)} nodes have an uncovered {cover.k}-ball")
    rep.stats = {
        "sparsity": sparsity,
        "diameter": 2 * max_depth,
        "tree_depth": max_depth,
        "uncovered_balls": uncovered,
    }
    return rep


def _ball_interiors(
    g: Graph, sizes: np.ndarray, flat: np.ndarray, k: int
) -> np.ndarray:
    """Per node, whether its k-ball lies in the members of some cluster:
    whether it is a member more than k hops from every non-member.  The
    clusters' members are ``flat``, ``sizes`` of them each, all in range.

    The members with a non-member neighbour are found for all clusters at
    once: the neighbours of every (cluster, member) pair are looked up among
    the sorted keys cluster * n + member.  A shortest path to the nearest
    non-member leaves the members only at its last step, so one BFS inside
    a cluster, seeded at distance 1 at those members and stopped at k,
    reaches exactly the members whose ball does not lie in it."""
    n = g.n
    inside = np.zeros(n, dtype=bool)
    if k < 1 or not len(flat):
        inside[flat] = True
        return inside
    of_member = np.repeat(np.arange(len(sizes)), sizes)
    keys = np.sort(of_member * n + flat)
    indptr, _ = g._rows
    degree = indptr[flat + 1] - indptr[flat]
    near = np.repeat(of_member, degree) * n + row_entries(g._rows, flat)
    out = keys[np.minimum(np.searchsorted(keys, near), len(keys) - 1)] != near
    seen = np.concatenate(([0], np.cumsum(out)))
    ends = np.cumsum(degree)
    edge = seen[ends] > seen[ends - degree]  # a member with a non-member neighbour
    if k == 1:
        inside[flat[~edge]] = True
        return inside
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    for i in np.unique(of_member[edge]).tolist():
        members = flat[bounds[i] : bounds[i + 1]]
        reached: list[int] = []
        _bfs_idx(g, members[edge[bounds[i] : bounds[i + 1]]].tolist(), cap=k - 1,
                 within=set(members.tolist()), reached=reached)
        inside[np.setdiff1d(members, reached)] = True
    whole = np.ones(len(sizes), dtype=bool)  # clusters without such members
    whole[of_member[edge]] = False
    inside[flat[whole[of_member]]] = True
    return inside


def validate_mis(g: Graph, s: Iterable[int]) -> tuple[bool, Optional[str]]:
    """True iff ``s`` (node indices) is independent and dominating.

    Decided on the CSR rows: one gather of the in-set flags over the
    neighbour entries and a prefix sum give every node's number of
    neighbours in the set; the set is an MIS when no node of it has one and
    every other node has one.  The loop of ``_mis_failure`` runs only to
    say why a set fails, or for a set that holds anything but node
    indices."""
    sset = set(s)
    idx = np.array(list(sset))
    if idx.dtype.kind in "iu" and ((idx >= 0) & (idx < g.n)).all():
        indptr, dst = g._rows
        member = np.zeros(g.n, dtype=bool)
        member[idx] = True
        hits = np.concatenate(([0], np.cumsum(member[dst])))
        dominated = hits[indptr[1:]] > hits[indptr[:-1]]
        if not (member & dominated).any() and (member | dominated).all():
            return True, None
    return _mis_failure(g, sset)


def _mis_failure(g: Graph, sset: set) -> tuple[bool, Optional[str]]:
    """``validate_mis``'s verdict by a loop over the nodes: the first
    adjacent pair of ``sset`` in its iteration order, else the first node
    that it does not dominate."""
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
    what = "decomposition JSON"
    clusters = []
    with _malformed_json(what):
        for c in data["clusters"]:
            color = c.get("color")
            clusters.append(
                Cluster(
                    id=_json_int(c["id"], f"{what}: cluster id"),
                    center=g.index_of(c["center"]),
                    members=frozenset(g.index_of(v) for v in c["members"]),
                    tree_edges=frozenset(
                        (g.index_of(a), g.index_of(b)) for a, b in c["tree_edges"]
                    ),
                    color=None if color is None else _json_int(color, f"{what}: color"),
                )
            )
        return Decomposition(k=_json_int(data["k"], f"{what}: k", least=1),
                             clusters=clusters)

