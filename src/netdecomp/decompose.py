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
* ``mode='fast'`` computes the same view centrally, and is the oracle the
  simulated run must match exactly.  One search per call from the smallest
  node u of each connected component gives d(., u) and ecc(u); a cluster
  within one component whose nearest member lies at most k - ecc(u) from
  u reaches every cluster with a member in that component, and its row is
  read off that list.  The other rows come from one sparse boolean
  product, their k-hop balls times the clusters' membership matrix.

The live clusters of a phase are one table of arrays (``LiveTable``), in
ascending id order.  Each communication tree (G-shortest paths from the
center) and radius are built once, when a cluster of two or more nodes
forms; a colored cluster keeps that tree in the output.  ``Cluster``
records are built for the output and for sim mode's convergecast only.

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
from functools import reduce
from itertools import chain, repeat
from operator import attrgetter, or_
from typing import Iterable, Optional

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
    component_labels,
    edge_entries,
    grow_balls,
    path_union,
    row_entries,
    symmetric_csr,
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
class LiveTable:
    """The live clusters of a phase, row p the cluster at position p, in
    ascending id order.  Members are node indices; each cluster's members
    are the ascending run ``flat[starts[p] : starts[p] + sizes[p]]``."""

    ids: list[int]              # Python ints: ids may pass 2^63
    centers: np.ndarray         # node index
    radii: np.ndarray           # largest G-distance center -> member
    sizes: np.ndarray           # member count
    flat: np.ndarray            # all members, concatenated in row order
    trees: list[frozenset[tuple[int, int]]]  # single nodes share one empty set

    def __len__(self) -> int:
        return len(self.ids)

    def starts(self) -> np.ndarray:
        """The offset of each row's members in ``flat``."""
        return np.cumsum(self.sizes) - self.sizes

    def owners(self) -> np.ndarray:
        """The row of each entry of ``flat``."""
        return np.repeat(np.arange(len(self.ids)), self.sizes)

    def clusters(self, rows: Iterable[int], colors: Iterable) -> list[Cluster]:
        """The ``Cluster`` records of ``rows``, with ``colors``."""
        flat, bounds = self.flat.tolist(), [0, *np.cumsum(self.sizes).tolist()]
        return [Cluster(self.ids[p], int(self.centers[p]),
                        frozenset(flat[bounds[p] : bounds[p + 1]]), self.trees[p], c)
                for p, c in zip(rows, colors)]


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
    """What phase control decisions are made from, as arrays indexed by
    live-cluster position (the live clusters in ascending id order):

    * ``in_ptr``, ``in_pos``: CSR rows of each cluster's perceived
      in-neighbors, the positions of the 2d smallest foreign clusters within
      k hops, ascending;
    * ``high``: the exact high-degree flags (at least 2d foreign clusters
      within k hops);
    * ``marked``: the clusters that more than 4d² clusters perceive;
    * ``marked_nb``: the smallest marked position within k hops of each
      unmarked cluster, -1 where there is none and at marked clusters;
    * ``closed``: CSR rows (indptr, indices) of the closed neighbourhoods
      N[u] = A_u + I_u in H over the unmarked clusters, where A joins two
      unmarked clusters when either perceives the other; a marked
      cluster's row is empty.
    """

    in_ptr: np.ndarray
    in_pos: np.ndarray
    high: np.ndarray
    marked: np.ndarray
    marked_nb: np.ndarray
    closed: tuple[np.ndarray, np.ndarray]


def _reach_bound(g: Graph, k: int) -> Optional[tuple[np.ndarray, ...]]:
    """Per node, its component's label and its hop distance from the
    component's smallest node u; per component, the slack k - ecc(u), or
    -1 where ecc(u) > k.  None when every slack is -1.

    A cluster whose members lie in one component, the nearest of them at
    most the slack from u, reaches every cluster with a member there:
    d(c, x) <= d(c, u) + d(u, x) <= k.  One scipy search from all the u,
    cut off at k, capped at 2n (no d(m, u) + ecc(u) passes 2n - 2), so that
    any k fits a float."""
    from scipy.sparse.csgraph import dijkstra  # see component_labels

    k = min(k, 2 * g.n)
    n_comp, label = component_labels(g)
    label = label.astype(np.int64)
    _, roots = np.unique(label, return_index=True)
    dist = dijkstra(g.adjacency_csr(), unweighted=True, min_only=True,
                    indices=roots, limit=k)
    ecc = np.zeros(n_comp)
    np.maximum.at(ecc, label, dist)
    slack = np.where(ecc <= k, k - ecc, -1)
    if (slack < 0).all():
        return None
    return label, dist, slack


def _cluster_reach(
    g: Graph, live: LiveTable, rows: np.ndarray, k: int
) -> sparse.csr_matrix:
    """Boolean matrix of the live clusters at positions ``rows`` x all live
    clusters, with sorted rows: (i, x) is set iff a member of x lies within
    k hops of a member of cluster ``rows[i]`` (so the diagonal is set).
    Centralized equivalent of the bounded flood and the convergecast over
    it."""
    member = sparse.csr_matrix((np.ones(len(live.flat), dtype=bool),
                                (live.owners(), live.flat)), shape=(len(live), g.n))
    ball = grow_balls(g, member[rows], k)
    # a CSC -> CSR conversion sorts the rows in linear time (a product's
    # rows come out unsorted)
    return (member @ ball.T).T.tocsr()


def _reach_rows(
    g: Graph, live: LiveTable, k: int,
    bound: Optional[tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each live cluster's reach row, the positions of the live clusters
    within k hops ascending, as row ``at[r]`` of the CSR (ptr, idx).

    A cluster that ``bound`` (``_reach_bound``) shows to reach its whole
    component reads that component's list, the clusters with a member in
    it; one with members in two components never does.  The other rows
    come from ``_cluster_reach``."""
    n_live = len(live)
    full = np.zeros(n_live, dtype=bool)
    if bound is not None:
        label, dist, slack = bound
        starts = live.starts()
        comp = label[live.flat]
        lo = np.minimum.reduceat(comp, starts)
        full = (lo == np.maximum.reduceat(comp, starts)) & (
            np.minimum.reduceat(dist[live.flat], starts) <= slack[lo])
    if not full.any():
        reach = _cluster_reach(g, live, np.arange(n_live), k)
        return np.arange(n_live), reach.indptr, reach.indices
    rest = np.flatnonzero(~full)
    reach = (_cluster_reach(g, live, rest, k) if len(rest)
             else sparse.csr_matrix((0, n_live), dtype=bool))
    # the lists of the full clusters' components: keys component * n_live
    # + position, each (component, cluster) pair once, sorted
    wanted = np.zeros(len(slack), dtype=bool)
    wanted[lo[full]] = True
    pick = wanted[comp]
    keys = np.unique(comp[pick] * n_live + live.owners()[pick])
    comps, first = np.unique(keys // n_live, return_index=True)
    at = np.empty(n_live, dtype=np.int64)
    at[rest] = np.arange(len(rest))
    at[full] = len(rest) + np.searchsorted(comps, lo[full])
    ptr = np.concatenate((reach.indptr, reach.nnz + np.append(first[1:], len(keys))))
    return at, ptr, np.concatenate((reach.indices, keys % n_live))


def _in_lists_sim(
    g: Graph, live: LiveTable, k: int, cap: int, cfg: SimConfig,
    stats: RoundStats,
) -> tuple[np.ndarray, np.ndarray]:
    """The perceived in-neighbor rows as CSR (in_ptr, in_pos), through the
    engine: each member holds the 2d+1 smallest ids within k hops, and the
    union over a cluster tree keeps the 2d smallest foreign ones."""
    sources = {m: (live.ids[p], None)
               for m, p in zip(live.flat.tolist(), live.owners().tolist())}
    held, st = bounded_flood(g, sources, hops=k, fanin=cap + 1, cfg=cfg)
    stats.merge(st)
    values = {m: {cid: sorted(o for o, _ in held[m] if o != cid)}
              for m, (cid, _) in sources.items()}
    agg, st = cluster_convergecast(g, live.clusters(range(len(live)), repeat(None)),
                                   values, cfg, combine="union", item_cap=cap)
    stats.merge(st)
    pos = {cid: i for i, cid in enumerate(live.ids)}
    rows = [agg.get(cid, []) for cid in live.ids]
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    in_pos = np.fromiter(map(pos.__getitem__, chain.from_iterable(rows)),
                         dtype=np.int64, count=int(sizes.sum()))
    return np.concatenate(([0], np.cumsum(sizes))), in_pos


def _marked_nb_sim(
    g: Graph, live: LiveTable, k: int, marked: np.ndarray,
    cfg: SimConfig, stats: RoundStats,
) -> np.ndarray:
    """``HView.marked_nb`` through the engine: a gossip of the marked ids
    over k hops, then the least one any member heard of."""
    owner = live.owners()
    hit = marked[owner]
    values = dict(zip(live.flat[hit].tolist(),
                      map(live.ids.__getitem__, owner[hit].tolist())))
    per_node, st = min_gossip(g, values, hops=k, cfg=cfg)
    stats.merge(st)
    pos = {cid: i for i, cid in enumerate(live.ids)}
    none = len(live)
    heard = np.array([none if per_node[m] is None else pos[per_node[m]]
                      for m in live.flat.tolist()], dtype=np.int64)
    nb = np.minimum.reduceat(heard, live.starts())
    nb[(nb == none) | marked] = -1
    return nb


def _build_hview(
    g: Graph,
    live: LiveTable,
    k: int,
    d: int,
    mode: str,
    cfg: SimConfig,
    stats: RoundStats,
    bound: Optional[tuple[np.ndarray, ...]],
) -> HView:
    """The H-view of ``live`` (ascending ids).  Only the in-neighbor rows
    and the marked neighbors come from the backend; the rest is shared.
    ``bound`` is ``_reach_bound(g, k)`` in fast mode and None in sim
    mode."""
    cap = 2 * d
    n_live = len(live)
    if mode == "sim":
        in_ptr, in_pos = _in_lists_sim(g, live, k, cap, cfg, stats)
        high = np.diff(in_ptr) >= cap
    else:
        # the first 2d foreign entries of each sorted reach row, read off
        # its first 2d + 1 entries: an entry's rank among the foreign ones
        # is its rank in the row, less one past the diagonal
        at, ptr, idx = _reach_rows(g, live, k, bound)
        counts = ptr[at + 1] - ptr[at]
        head = np.minimum(counts, cap + 1)
        row_of = np.repeat(np.arange(n_live), head)
        rank = np.arange(len(row_of)) - np.repeat(np.cumsum(head) - head, head)
        entry = idx[np.repeat(ptr[at], head) + rank]
        rank -= entry > row_of
        keep = (entry != row_of) & (rank < cap)
        in_pos = entry[keep]
        in_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(row_of[keep], minlength=n_live)))
        )
        high = counts - 1 >= cap

    marked = np.bincount(in_pos, minlength=n_live) > 4 * d * d
    marked_nb = np.full(n_live, -1, dtype=np.int64)
    if marked.any() and mode == "sim":
        marked_nb = _marked_nb_sim(g, live, k, marked, cfg, stats)
    elif marked.any():
        # first marked entry of each reach row (rows are sorted), read at
        # the unmarked clusters
        hit = np.flatnonzero(marked[idx])
        rows, first = np.unique(np.searchsorted(ptr, hit, side="right") - 1,
                                return_index=True)
        first_marked = np.full(len(ptr) - 1, -1, dtype=np.int64)
        first_marked[rows] = idx[hit[first]]
        marked_nb = np.where(marked, -1, first_marked[at])

    src = np.repeat(np.arange(n_live), np.diff(in_ptr))
    both = ~marked[src] & ~marked[in_pos]
    diag = np.flatnonzero(~marked)
    indptr, indices, _ = symmetric_csr(
        np.concatenate((src[both], diag)), np.concatenate((in_pos[both], diag)),
        n_live,
    )
    return HView(in_ptr, in_pos, high, marked, marked_nb, (indptr, indices))


# -- cluster trees -------------------------------------------------------


def _live_cluster(
    g: Graph, cid: int, center: int, members: list[int]
) -> tuple[frozenset[tuple[int, int]], int]:
    """The communication tree of a cluster of two or more nodes, the union
    of G-shortest paths center -> member, and its radius, the largest
    G-distance from the center to a member."""
    parent: dict[int, int] = {}
    dist = _bfs_idx(g, [center], targets=members, parent=parent)
    for m in members:
        if dist[m] < 0:
            raise DecomposeError(f"cluster {cid}: member {m} unreachable")
    return path_union(parent, members), max(map(dist.__getitem__, members))


def _build_trees(g: Graph, live: LiveTable, rows: np.ndarray) -> LiveTable:
    """``live`` with the trees and radii of its ``rows``, clusters of two
    or more nodes, built."""
    b = [0, *np.cumsum(live.sizes).tolist()]
    for p in rows.tolist():
        live.trees[p], live.radii[p] = _live_cluster(
            g, live.ids[p], int(live.centers[p]), live.flat[b[p] : b[p + 1]].tolist())
    return live


# -- phase logic ---------------------------------------------------------


def _row_min(indptr: np.ndarray, values: np.ndarray, empty: int) -> np.ndarray:
    """Per CSR row, the least of ``values`` (one per entry); ``empty`` for
    a row without entries."""
    out = np.full(len(indptr) - 1, empty, dtype=np.int64)
    full = indptr[1:] > indptr[:-1]
    if full.any():
        out[full] = np.minimum.reduceat(values, indptr[:-1][full])
    return out


def _merge_leaders(
    closed: tuple[np.ndarray, np.ndarray], cstar: np.ndarray
) -> np.ndarray:
    """Per position, the C* position it merges into: its nearest one within
    2 hops over the ``closed`` rows, ties to the smaller position (C* maps
    to itself); -1 farther away.

    Two hops of a BFS from all of C*: a cluster first reached in a hop
    takes the least leader among its neighbours reached before."""
    indptr, indices = closed
    none = len(indptr) - 1
    leader = np.full(none, -1, dtype=np.int64)
    leader[cstar] = cstar
    for _ in range(2):
        heard = leader[indices]
        near = _row_min(indptr, np.where(heard < 0, none, heard), none)
        fresh = (leader < 0) & (near < none)
        leader[fresh] = near[fresh]
    return leader


def _proximity_pairs(
    g: Graph, live: LiveTable, residual: np.ndarray, k: int
) -> np.ndarray:
    """Index pairs (P, 2) into ``residual`` (live positions) of residual
    clusters at G-distance <= max(k, 2*radius of either), which must get
    different colors so that same-color trees share no G-edge; of the pairs
    within k, only those a search meets are listed, and a pair may be
    listed twice.

    Residual clusters are low-degree, so their in-lists already pair every
    two at distance <= k; a search is needed only from a cluster whose
    2*radius exceeds k, and it pairs the cluster with every residual one
    it reaches."""
    res_index = np.full(len(live), -1, dtype=np.int64)
    res_index[residual] = np.arange(len(residual))
    at = res_index[live.owners()]
    owner = np.full(g.n, -1, dtype=np.int64)  # node -> index into residual
    owner[live.flat[at >= 0]] = at[at >= 0]
    radii = live.radii[residual]
    starts, ends = live.starts()[residual], np.cumsum(live.sizes)[residual]
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for i in np.flatnonzero(2 * radii > k).tolist():
        reached: list[int] = []
        _bfs_idx(g, live.flat[starts[i] : ends[i]].tolist(), cap=2 * int(radii[i]),
                 reached=reached)
        near = np.unique(owner[reached])
        near = near[(near >= 0) & (near != i)]
        pairs.append(np.column_stack((np.full(len(near), i), near)))
    return np.concatenate(pairs)


def _select_cstar(hv: HView) -> np.ndarray:
    """Maximal 2-independent set of high-degree unmarked clusters, as
    ascending positions: the clusters are scanned by the first-fit coloring
    of H² in ascending position order, class by class (positions ascending
    within a class), and each high-degree cluster that no earlier choice
    blocks joins C* and blocks its H² row.

    H² is the boolean (A + I)² (the pattern of A + A²) of the unmarked
    clusters: two clusters are H²-adjacent iff their closed H rows meet.
    The coloring only fixes the scan order (its round cost is part of the
    modeled ledger), and H² is never materialized.  The members of a class
    are H²-independent, so none blocks another, and every high-degree
    member of class 0 joins.  Class 0 is the lexicographically first
    maximal independent set of H² (``_first_class``); it blocks every other
    cluster when all of them are high-degree.  The high-degree clusters it
    leaves open are ordered by the classes above it (``_later_classes``)
    and scanned one by one, each blocked when its closed row meets that of
    an earlier choice.
    """
    open_ = hv.high & ~hv.marked
    if not open_.any():
        return np.empty(0, dtype=np.int64)
    indptr, indices = hv.closed
    first = _first_class(hv.closed, ~hv.marked)
    cstar = first[open_[first]]
    near = np.zeros(len(open_), dtype=bool)  # in the closed row of a choice
    near[row_entries(hv.closed, cstar)] = True
    # the high-degree clusters that class 0 leaves open; a choice's own
    # closed row meets ``near``
    rest = np.flatnonzero(open_)
    sizes = indptr[rest + 1] - indptr[rest]
    rest = rest[~np.logical_or.reduceat(near[row_entries(hv.closed, rest)],
                                        np.cumsum(sizes) - sizes)]
    if not len(rest):
        return np.sort(cstar)
    later = ~hv.marked[: rest[-1] + 1]
    later[first[first <= rest[-1]]] = False
    color = _later_classes(hv.closed, np.flatnonzero(later))
    blocked = bytearray(near.tobytes())
    chosen = cstar.tolist()
    for u in sorted(rest.tolist(), key=color.__getitem__):  # stable: ids ascend
        row = indices[indptr[u] : indptr[u + 1]].tolist()
        if not any(map(blocked.__getitem__, row)):
            chosen.append(u)
            for w in row:
                blocked[w] = 1
    return np.array(sorted(chosen), dtype=np.int64)


def _first_class(
    closed: tuple[np.ndarray, np.ndarray], unscanned: np.ndarray
) -> np.ndarray:
    """The lexicographically first maximal independent set of H² among the
    ``unscanned`` positions, ascending.

    A cluster whose closed row holds only itself is H²-isolated: nothing
    blocks it and it blocks nothing, so all of them join in one step.  A
    scan in ascending order takes each other cluster still a candidate and
    drops its H² row, the closed rows of its closed row gathered in one
    step, from the candidates; so it visits only the members."""
    indptr, indices = closed
    alone = unscanned & (np.diff(indptr) == 1)
    alone[alone] = indices[indptr[:-1][alone]] == np.flatnonzero(alone)
    cand = unscanned & ~alone
    members: list[int] = []
    v = int(cand.argmax())
    while cand[v]:
        members.append(v)
        cand[row_entries(closed, row_entries(closed, np.array([v])))] = False
        v += int(cand[v:].argmax())
    return np.sort(np.concatenate((np.flatnonzero(alone),
                                   np.array(members, dtype=np.int64))))


def _later_classes(
    closed: tuple[np.ndarray, np.ndarray], todo: np.ndarray
) -> dict[int, int]:
    """The first-fit coloring of H² among the ``todo`` positions in
    ascending order, as position -> color.

    One pass in ascending order: each cluster takes the least color that
    no closed row through it holds yet, and adds it to those rows.  A
    cluster's colors are kept as a bit mask, so a step costs the length
    of one closed row, not of an H² row."""
    indptr, indices = closed
    last = int(todo[-1])
    ptr = indptr[: last + 2].tolist()
    # one int object per position, shared by every row that holds it
    nb = np.arange(len(indptr) - 1, dtype=object)[indices[: ptr[-1]]].tolist()
    held = [0] * (len(indptr) - 1)  # per cluster u, the colors in N[u]
    color = {}
    for v in todo.tolist():
        row = nb[ptr[v] : ptr[v + 1]]
        taken = reduce(or_, map(held.__getitem__, row))
        bit = ~taken & (taken + 1)  # the least color not taken
        color[v] = bit.bit_length() - 1
        for u in row:
            held[u] |= bit
    return color


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
        init = sorted(init, key=attrgetter("id"))
        sizes = np.array([len(c.members) for c in init], dtype=np.int64)
        live = _build_trees(g, LiveTable(
            [c.id for c in init], np.array([c.center for c in init], dtype=np.int64),
            np.zeros(len(init), dtype=np.int64), sizes,
            np.fromiter(chain.from_iterable(sorted(c.members) for c in init),
                        dtype=np.int64, count=g.n),
            [frozenset()] * len(init)), np.flatnonzero(sizes > 1))
    else:
        live = LiveTable(list(g.ids), np.arange(g.n), np.zeros(g.n, dtype=np.int64),
                         np.ones(g.n, dtype=np.int64), np.arange(g.n), [frozenset()] * g.n)
    n_init = len(live)
    p_budget, d = growth_parameters(n_init)
    stats = RoundStats()
    bound = _reach_bound(g, k) if mode == "fast" else None
    phases: list[PhaseLog] = []
    clusters: list[Cluster] = []  # the output, ordered by color
    color_base = 0
    # uses of each G-edge (a CSR entry a -> b, a < b) by the live trees,
    # summed over the phases so far
    edge_usage = np.zeros(len(g._rows[1]), dtype=np.int64)

    phase = 0
    while len(live):
        phase += 1
        if phase > p_budget + 1:
            raise DecomposeError(
                f"phase budget exceeded: {len(live)} live clusters after "
                f"{phase - 1} phases (d={d})"
            )
        rounds_before = stats.rounds
        n_live = len(live)
        hv = _build_hview(g, live, k, d, mode, cfg, stats, bound)
        n_marked = int(hv.marked.sum())
        if n_marked * (4 * d * d + 1) > 2 * d * n_live:
            raise DecomposeError(
                f"marked-count bound violated in phase {phase}: "
                f"{n_marked} of {n_live}"
            )
        cstar = _select_cstar(hv)

        # -- merge assignment (all ties by ascending cluster id) --
        group = _merge_leaders(hv.closed, cstar)  # position -> group leader
        group[hv.marked] = np.flatnonzero(hv.marked)
        # case II: a C* group re-centers at its smallest marked neighbor
        redirect = np.full(n_live, -1, dtype=np.int64)
        redirect[cstar] = hv.marked_nb[cstar]
        moved = (group >= 0) & (redirect[group] >= 0)
        group[moved] = redirect[group[moved]]

        residual = np.flatnonzero(group < 0)
        if hv.high[residual].any():
            raise DecomposeError(
                f"high-degree cluster {live.ids[residual[hv.high[residual]][0]]} "
                f"left unassigned in phase {phase}"
            )

        # -- residual coloring --
        # Low-degree clusters perceive every neighbor, so the symmetrized
        # in-lists give the exact <=k adjacency.  On top of that, clusters
        # too close relative to their radii (d <= 2*max radius) must also
        # differ in color so that same-color trees share no G-edge (see
        # the output below).  A phase's colors lie above the earlier ones.
        modeled = 0
        if len(residual):
            res_index = np.full(n_live, -1, dtype=np.int64)
            res_index[residual] = np.arange(len(residual))
            a = res_index[np.repeat(np.arange(n_live), np.diff(hv.in_ptr))]
            b = res_index[hv.in_pos]
            both = (a >= 0) & (b >= 0)
            a, b = a[both], b[both]
            if (2 * live.radii[residual] > k).any():
                near = _proximity_pairs(g, live, residual, k)
                a, b = np.concatenate((a, near[:, 0])), np.concatenate((b, near[:, 1]))
            res_ptr, res_nb, _ = symmetric_csr(a, b, len(residual))
            ptr, nb = res_ptr.tolist(), res_nb.tolist()
            # Linial's round count; the coloring itself is not needed
            iters = sum(1 for _ in linial_stages(
                live.ids[residual[-1]] + 1, int(np.diff(res_ptr).max())
            ))
            palette = np.array(greedy_reduce(
                [nb[s:e] for s, e in zip(ptr, ptr[1:])], range(len(residual))
            ), dtype=np.int64)
            modeled += (iters + 1) * max(1, k * d**3)
            order = np.argsort(palette, kind="stable")
            clusters += live.clusters(residual[order].tolist(),
                                      (color_base + palette[order]).tolist())
            color_base += int(palette.max()) + 1

        # -- form new live clusters, one per group, in ascending leader order --
        # one sort gathers each group's members, ascending; a group of one
        # cluster keeps its row
        owner = live.owners()
        take = np.flatnonzero(group[owner] >= 0)
        take = take[np.lexsort((live.flat[take], group[owner[take]]))]
        leaders, sizes = np.unique(group[owner[take]], return_counts=True)
        merged = np.bincount(group[group >= 0], minlength=n_live)[leaders] > 1
        at = leaders.tolist()
        live = _build_trees(g, LiveTable(
            [live.ids[p] for p in at], live.centers[leaders], live.radii[leaders],
            sizes, live.flat[take], [live.trees[p] for p in at]), np.flatnonzero(merged))

        # -- invariants --
        if len(live) * d**phase > n_init:
            raise DecomposeError(
                f"invariant A violated in phase {phase}: "
                f"{len(live)} > {n_init}/{d}^{phase}"
            )
        max_r = -(-int(live.radii.max(initial=0)) // k)  # in G^k hops
        ends = np.fromiter(chain.from_iterable(chain.from_iterable(live.trees)),
                           dtype=np.int64).reshape(-1, 2)
        edge_usage += np.bincount(edge_entries(g, ends[:, 0], ends[:, 1]),
                                  minlength=len(edge_usage))
        max_overlap = int(edge_usage.max(initial=0))
        if max_overlap > phase * 13 * d**3:
            raise DecomposeError(
                f"invariant C violated in phase {phase}: overlap {max_overlap}"
            )
        modeled += 2 * (2 * d + 1) * k + 4 * d * d  # flood + reversal estimate
        phases.append(PhaseLog(
            phase=phase, cluster_count=len(live), max_radius_gk=max_r,
            max_overlap=max_overlap, marked=n_marked, cstar=len(cstar),
            residual_colored=len(residual), rounds=stats.rounds - rounds_before,
            modeled_rounds=modeled,
        ))

    # A cluster keeps the tree it was built with: same-color clusters are
    # more than 2*radius apart (the residual coloring pairs every two
    # closer ones), so each one's radius ball, where its tree lies, is
    # strictly nearer to it than to the others.  Same-color trees thus lie
    # in disjoint Voronoi cells and share no G-edge, and the search that
    # built a tree visits only nodes of its ball, so confining it to the
    # cell would change nothing.
    return DecompResult(Decomposition(k=k, clusters=clusters), phases, stats, d, n_init)


def _check_init(g: Graph, init: list[Cluster]) -> None:
    seen: set[int] = set()
    for c in init:
        if c.center not in c.members:
            raise DecomposeError(f"init cluster {c.id}: center not a member")
        if seen & c.members:
            raise DecomposeError("init clusters overlap")
        seen |= c.members
    if seen != set(range(g.n)):  # a member outside 0..n-1 too
        raise DecomposeError("init clusters do not cover exactly V")
