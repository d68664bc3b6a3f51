"""Sparse neighborhood covers from separated decompositions, and the
cover-based exact MST with edge-classification rules A/B.

Per-cluster MSTs run centrally per cluster; the distributed algorithm uses
them only as a black box, and the verifiable claim here is that the A/B
classification reproduces the unique minimum spanning forest exactly.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional

import numpy as np
from scipy import sparse

from .clustering import (
    Cluster,
    Decomposition,
    NeighborhoodCover,
    _check_decomposition,
    _lane_rounds,
    validate_decomposition,  # noqa: F401  stays bound for the benchmark's tracer
)
from .graphs import (
    Graph,
    GraphError,
    NetdecompError,
    _bfs_idx,
    bfs_tree,
    edge_entries,
    induced_edges,
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
    reached, tree = bfs_tree(g, center, members)
    missing = members - reached
    if missing:
        raise CoverError(
            f"expanded cluster around {center} is not connected "
            f"({len(missing)} unreachable members)"
        )
    return tree


# -- MST oracles ---------------------------------------------------------


def _require_weights(g: Graph) -> None:
    if g.weights is None:
        raise GraphError("weighted graph required")


def kruskal_oracle(g: Graph) -> frozenset[tuple[int, int]]:
    """The unique minimum spanning forest (distinct weights) by Kruskal."""
    _require_weights(g)
    return _forest_of(g.n, list(g.rank))


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


def mst_radius(g: Graph) -> int:
    """μ(G, ω): over non-MST edges e={u,v}, the length of the shortest
    cycle through e in which e is heaviest, maximized.  Trees have μ = 0 by
    convention.  Computed by ``_mu_lanes`` over the edges in cached
    ``g.rank`` order."""
    _require_weights(g)
    return _mu_lanes(g, list(g.rank))


def mst_radius_scipy(g: Graph) -> int:
    """μ as ``mst_radius`` computes it, over an edge order sorted here by
    ``Fraction`` weight (``weight_key``) instead of read from ``g.rank``; a
    wrong rank makes the two disagree.  Both run the lane kernel
    ``clustering._lane_rounds``.  The name is kept for its callers; the
    tests compare both with one scipy BFS per edge and with cycle
    enumeration."""
    _require_weights(g)
    w = g.weights
    return _mu_lanes(g, sorted(w, key=lambda e: weight_key(w[e])))


def _mu_lanes(g: Graph, edges: list[tuple[int, int]]) -> int:
    """μ over G's ``edges``, pairs (a, b) with a < b in increasing-weight
    order.

    The non-MST edges are those that the minimum spanning forest
    (``_forest_of``) leaves out.  Lane l is the l-th of them, (a_l, b_l).
    Each edge's lane floor is c, the number of non-MST edges no heavier
    than itself, so lane l crosses only edges lighter than its own.
    ``_lane_rounds`` starts lane l at a_l and waits for it at b_l: its
    rounds are the longest such lighter path, and μ is one more."""
    forest = _forest_of(g.n, edges)
    if len(forest) < g.n - 1:
        raise GraphError("mst_radius needs a connected graph")
    cycle = np.array([e not in forest for e in edges], dtype=bool)
    if not cycle.any():
        return 0
    a, b = _ends(edges)
    c = np.cumsum(cycle)
    # each edge's floor at both of its CSR entries
    floor = np.empty(len(g._rows[1]), dtype=np.int64)
    floor[edge_entries(g, a, b)] = c
    floor[edge_entries(g, b, a)] = c
    bounds = np.arange(c[-1] + 1)  # one set per lane
    return _lane_rounds(g._rows, a[cycle], bounds, b[cycle], floor) + 1


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
    if mu < true_mu:
        raise MstError(f"supplied mu={mu} below MST-radius {true_mu}")
    k = max(1, mu)
    from .decompose import decompose

    # decompose's own output is 2k-separated by construction (its tests
    # validate it), so it is expanded unvalidated.  Only the expanded member
    # sets are read; clusters that expand to the same set share its forest
    # and its verdicts, so each distinct set is classified once.
    clusters = decompose(g, 2 * k).decomposition.clusters
    expanded = [_ball(g, c.members, k) for c in clusters]
    uses = Counter(expanded)  # distinct expanded set -> clusters expanding to it
    forests: dict[frozenset[int], frozenset[tuple[int, int]]] = {}
    covered: set[tuple[int, int]] = set()   # in some expanded set
    excluded: set[tuple[int, int]] = set()  # left out of some set's forest
    for members in uses:
        sub_edges = induced_edges(g, members)
        forest = forests[members] = _forest_of(g.n, sorted(sub_edges, key=g.rank.get))
        covered.update(sub_edges)
        excluded.update(set(sub_edges).difference(forest))
    load = np.zeros(g.n, dtype=np.int64)
    for members, count in uses.items():
        load[list(members)] += count
    classification: dict[tuple[int, int], str] = {}
    for e in g.weights:
        if e not in covered:
            raise MstError(f"edge ({e[0]},{e[1]}) contained in no cover cluster")
        classification[e] = RULE_A_EXCLUDED if e in excluded else RULE_B_INCLUDED
    tree = frozenset(
        e for e, r in classification.items() if r == RULE_B_INCLUDED
    )
    return MstResult(
        tree_edges=tree,
        classification=classification,
        mu=mu,
        true_mu=true_mu,
        cover_sparsity=int(load.max(initial=0)),
        cluster_msts={c.id: forests[m] for c, m in zip(clusters, expanded)},
    )


def _forest_of(
    n: int, edges: list[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """The minimum spanning forest over nodes 0..n-1 of ``edges``, which
    come in increasing-weight order, as pairs (a, b), a < b: one scipy
    ``minimum_spanning_tree`` in which an edge weighs its position + 1."""
    from scipy.sparse.csgraph import minimum_spanning_tree  # see component_labels

    a, b = _ends(edges)
    weight = np.arange(1, len(a) + 1, dtype=np.float64)
    forest = minimum_spanning_tree(sparse.coo_matrix((weight, (a, b)), shape=(n, n)))
    a = np.repeat(np.arange(n), np.diff(forest.indptr))  # a CSR result
    b = forest.indices
    return frozenset(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def _ends(edges: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second ends of the ``edges`` as two arrays (one
    pass, without ``np.array``'s per-tuple conversion)."""
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    return flat[0::2], flat[1::2]
