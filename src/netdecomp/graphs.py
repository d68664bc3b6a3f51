"""Immutable graph representation, generators, file ingestion and the
centralized distance oracles (BFS, all-pairs, power graphs) that every
validator in this package is built on.

Node identifiers are arbitrary non-negative integers; internally all
algorithms work on dense indices 0..n-1 in ascending-id order, so id
magnitude only ever influences ``id_bits`` (and through it round counts),
never structural results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Mapping, MutableMapping, Optional, Sequence

import numpy as np
from scipy import sparse


class GraphError(ValueError):
    """Malformed graph input (parse error, asymmetry, bad weights...)."""


class NetdecompError(RuntimeError):
    """An algorithm or the simulator failed on a well-formed input."""


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


@dataclass(frozen=True)
class DistanceMap:
    """Exact hop distances from ``source``; nodes beyond ``cap`` are absent."""

    source: int
    dist: dict[int, int]
    cap: Optional[int] = None

    def get(self, node: int) -> Optional[int]:
        return self.dist.get(node)


class Graph:
    """Undirected simple graph with optional distinct rational edge weights.

    Immutable after construction.  ``ids`` is the sorted identifier list;
    ``neighbors[i]`` holds the sorted neighbor *indices* of the i-th id.
    """

    __slots__ = ("ids", "neighbors", "weights", "id_bits", "_index", "_csr", "_rank")

    def __init__(
        self,
        ids: Sequence[int],
        edges: Iterable[tuple[int, int]],
        weights: Optional[dict[tuple[int, int], Fraction]] = None,
        id_bits: Optional[int] = None,
    ):
        ids = sorted(set(ids))
        if any(i < 0 for i in ids):
            raise GraphError("negative node identifier")
        index = {v: i for i, v in enumerate(ids)}
        n = len(ids)
        adj: list[set[int]] = [set() for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if u not in index or v not in index:
                raise GraphError(f"edge ({u},{v}) references unknown node")
            a, b = index[u], index[v]
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
            adj[a].add(b)
            adj[b].add(a)
        self.ids: tuple[int, ...] = tuple(ids)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        self._index = index
        w_idx: Optional[dict[tuple[int, int], Fraction]] = None
        if weights is not None:
            w_idx = {}
            for (u, v), w in weights.items():
                a, b = index[u], index[v]
                key = (min(a, b), max(a, b))
                if key not in seen:
                    raise GraphError(f"weight given for missing edge ({u},{v})")
                w = Fraction(w)
                if w <= 0:
                    raise GraphError(f"non-positive weight on edge ({u},{v})")
                w_idx[key] = w
            if len(w_idx) != len(seen):
                raise GraphError("weights must cover every edge")
            if len(set(w_idx.values())) != len(w_idx):
                raise GraphError("edge weights must be pairwise distinct")
        self.weights = w_idx
        min_bits = max(v.bit_length() for v in ids) if ids else 1
        min_bits = max(min_bits, 1)
        if id_bits is None:
            id_bits = min_bits
        if id_bits < min_bits:
            raise GraphError(f"id_bits={id_bits} too small for ids (need {min_bits})")
        self.id_bits: int = id_bits
        self._csr: Optional[sparse.csr_matrix] = None
        self._rank: Optional[dict[tuple[int, int], int]] = None

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.neighbors), default=0)

    def index_of(self, node_id: int) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def edge_indices(self) -> list[tuple[int, int]]:
        """All edges as sorted index pairs (a, b) with a < b."""
        return [
            (a, b) for a in range(self.n) for b in self.neighbors[a] if a < b
        ]

    def edges_by_id(self) -> list[tuple[int, int]]:
        return [(self.ids[a], self.ids[b]) for a, b in self.edge_indices()]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.neighbors) // 2

    def weight_of(self, a: int, b: int) -> Fraction:
        assert self.weights is not None
        return self.weights[(min(a, b), max(a, b))]

    @property
    def rank(self) -> dict[tuple[int, int], int]:
        """Edge -> position in increasing-weight order, iterated in that
        order; cached.  Weights are distinct, so ranks order edges as they do."""
        assert self.weights is not None
        if self._rank is None:
            order = sorted(self.weights, key=self.weights.__getitem__)
            self._rank = {e: r for r, e in enumerate(order)}
        return self._rank

    def adjacency_csr(self) -> sparse.csr_matrix:
        """Boolean adjacency as int8 CSR, cached."""
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            for i, nb in enumerate(self.neighbors):
                indptr[i + 1] = indptr[i] + len(nb)
            indices = np.fromiter(
                (b for nb in self.neighbors for b in nb),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            data = np.ones(len(indices), dtype=np.int8)
            self._csr = sparse.csr_matrix(
                (data, indices, indptr), shape=(self.n, self.n)
            )
        return self._csr

    def relabeled(self, mapping: dict[int, int], id_bits: Optional[int] = None) -> "Graph":
        """Graph with identifiers remapped through ``mapping``."""
        new_ids = [mapping[v] for v in self.ids]
        if len(set(new_ids)) != len(new_ids):
            raise GraphError("relabeling is not injective")
        edges = [(mapping[u], mapping[v]) for u, v in self.edges_by_id()]
        weights = None
        if self.weights is not None:
            weights = {
                (mapping[self.ids[a]], mapping[self.ids[b]]): w
                for (a, b), w in self.weights.items()
            }
        return Graph(new_ids, edges, weights, id_bits=id_bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.neighbors == other.neighbors
            and self.weights == other.weights
            and self.id_bits == other.id_bits
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, id_bits={self.id_bits})"


# -- ingestion -----------------------------------------------------------


def load_graph(path: str, fmt: str = "edge-list") -> Graph:
    """Load a graph from ``path`` in ``edge-list`` or ``json`` format."""
    if fmt == "json":
        return _load_json(path)
    if fmt != "edge-list":
        raise GraphError(f"unknown format {fmt!r}")
    return _load_edge_list(path)


def _load_edge_list(path: str) -> Graph:
    with open(path) as fh:
        lines = fh.readlines()
    header = None
    edges: list[tuple[int, int]] = []
    weights: dict[tuple[int, int], Fraction] = {}
    m_expected = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: expected header 'n m'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise GraphError(f"line {lineno}: bad header") from None
            m_expected = header[1]
            continue
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'u v' or 'u v num/den'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: bad endpoints") from None
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at node {u}")
        if len(parts) == 3:
            try:
                weights[(u, v)] = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise GraphError(f"line {lineno}: bad weight {parts[2]!r}") from None
        edges.append((u, v))
    if header is None:
        raise GraphError("empty file")
    n = header[0]
    if len(edges) != m_expected:
        raise GraphError(f"expected {m_expected} edges, found {len(edges)}")
    try:
        return Graph(range(n), edges, weights or None)
    except GraphError:
        raise


def _load_json(path: str) -> Graph:
    with open(path) as fh:
        data = json.load(fh)
    ids = data["nodes"]
    edges = []
    weights: dict[tuple[int, int], Fraction] = {}
    for e in data["edges"]:
        u, v = int(e[0]), int(e[1])
        edges.append((u, v))
        if len(e) > 2:
            weights[(u, v)] = Fraction(str(e[2]))
    g = Graph(ids, edges, weights or None, id_bits=data.get("id_bits"))
    return g


def save_graph_json(g: Graph, path: str) -> None:
    edges = []
    for a, b in g.edge_indices():
        e: list = [g.ids[a], g.ids[b]]
        if g.weights is not None:
            e.append(str(g.weight_of(a, b)))
        edges.append(e)
    with open(path, "w") as fh:
        json.dump({"nodes": list(g.ids), "edges": edges, "id_bits": g.id_bits}, fh)


# -- generators ----------------------------------------------------------


def generate_graph(model: str, params: dict, seed: int) -> Graph:
    """Deterministic graph generator; same (model, params, seed) => same graph."""
    if model == "path":
        n = _positive(params, "n")
        return Graph(range(n), [(i, i + 1) for i in range(n - 1)])
    if model == "clique":
        n = _positive(params, "n")
        return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])
    if model == "grid":
        rows = _positive(params, "rows")
        cols = _positive(params, "cols")
        def nid(r, c):
            return r * cols + c
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((nid(r, c), nid(r, c + 1)))
                if r + 1 < rows:
                    edges.append((nid(r, c), nid(r + 1, c)))
        return Graph(range(rows * cols), edges)
    if model == "tree":
        n = _positive(params, "n")
        rng = np.random.default_rng(seed)
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        return Graph(range(n), edges)
    if model == "gnp":
        n = _positive(params, "n")
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"gnp needs p in [0,1], got {p}")
        # pairs i < j in row-major order, one row of draws at a time, so
        # memory stays linear in n + m
        rng = np.random.default_rng(seed)
        edges = []
        for i in range(n - 1):
            hits = np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1)
            edges.extend((i, j) for j in hits.tolist())
        g = Graph(range(n), edges)
        if params.get("largest_component"):
            g = largest_component(g)
        return g
    raise GraphError(f"unknown model {model!r}")


def _positive(params: dict, key: str) -> int:
    v = int(params[key])
    if v < 1:
        raise GraphError(f"parameter {key} must be >= 1, got {v}")
    return v


def random_weights(g: Graph, seed: int) -> Graph:
    """Attach distinct random rational weights (a deterministic shuffle)."""
    rng = np.random.default_rng(seed)
    edges = g.edges_by_id()
    perm = rng.permutation(len(edges))
    weights = {
        e: Fraction(int(perm[i]) + 1, 1) + Fraction(1, g.ids[-1] + 2 + i)
        for i, e in enumerate(edges)
    }
    return Graph(g.ids, edges, weights, id_bits=g.id_bits)


# -- distance oracles ----------------------------------------------------


def bfs_distances(g: Graph, source: int, cap: Optional[int] = None) -> DistanceMap:
    """Exact hop distances from ``source`` (a node id), bounded by ``cap``."""
    s = g.index_of(source)
    dist = _bfs_idx(g, [s], cap)
    return DistanceMap(
        source=source,
        dist={g.ids[i]: d for i, d in enumerate(dist) if d >= 0},
        cap=cap,
    )


def _bfs_idx(
    g: Graph,
    sources: Sequence[int],
    cap: Optional[int] = None,
    targets: Optional[Iterable[int]] = None,
    parent: Optional[MutableMapping[int, int]] = None,
    reached: Optional[list[int]] = None,
    within: Optional[Container[int]] = None,
) -> list[int]:
    """Multi-source BFS over indices; -1 means unreached/beyond cap.

    The shared BFS kernel.  Frontiers are scanned in discovery order and
    neighbors in ascending order, so every output is deterministic: with
    several sources, a node is discovered from the earliest-listed of its
    nearest sources.

    * ``targets``: stop as soon as every target is reached.  Target
      distances are exact; nodes the search did not get to read -1.
    * ``parent``: filled with ``parent[v]`` = the node that discovered v
      (``parent[s] = s`` for sources); a list of length n or a dict.
    * ``reached``: extended with every reached node in discovery order.
    * ``within``: only nodes in this set are entered (sources always are),
      so distances are those of the subgraph induced by within + sources.
    """
    dist = [-1] * g.n
    frontier = []
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            frontier.append(s)
    if parent is not None:
        for s in frontier:
            parent[s] = s
    if reached is not None:
        reached.extend(frontier)
    want = None
    if targets is not None:
        want = {t for t in targets if dist[t] < 0}
        if not want:
            return dist
    nb = g.neighbors
    d = 0
    while frontier and (cap is None or d < cap):
        d += 1
        nxt = []
        for u in frontier:
            for v in nb[u]:
                if dist[v] < 0 and (within is None or v in within):
                    dist[v] = d
                    nxt.append(v)
                    if parent is not None:
                        parent[v] = u
                    if want is not None and v in want:
                        want.discard(v)
                        if not want:
                            if reached is not None:
                                reached.extend(nxt)
                            return dist
        if reached is not None:
            reached.extend(nxt)
        frontier = nxt
    return dist


def voronoi_cells(g: Graph, seed_groups: Sequence[Iterable[int]]) -> list[int]:
    """Owner per node: the position of the group nearest to it, ties to
    the earliest-listed group (a seed in several groups belongs to the
    first); -1 where no seed is reachable."""
    sources = [s for group in seed_groups for s in group]
    parent = [-1] * g.n
    reached: list[int] = []
    _bfs_idx(g, sources, parent=parent, reached=reached)
    owner = [-1] * g.n
    for i, group in enumerate(seed_groups):
        for s in group:
            if owner[s] < 0:
                owner[s] = i
    for v in reached:  # discovery order: a parent's owner is already set
        if owner[v] < 0:
            owner[v] = owner[parent[v]]
    return owner


def path_union(
    parent: Mapping[int, int], nodes: Iterable[int]
) -> frozenset[tuple[int, int]]:
    """Edges (a, b), a < b, on the ``parent`` paths from ``nodes`` up to
    their roots (the nodes with ``parent[r] == r``)."""
    edges: set[tuple[int, int]] = set()
    for v in nodes:
        p = parent[v]
        while p != v and (min(v, p), max(v, p)) not in edges:
            edges.add((min(v, p), max(v, p)))
            v, p = p, parent[p]
    return frozenset(edges)


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


def largest_component(g: Graph) -> Graph:
    return induced_subgraph(g, max(connected_components(g), key=len))


def induced_edges(g: Graph, nodes: Iterable[int]) -> list[tuple[int, int]]:
    """Edges (a, b), a < b, of G[nodes] in ``edge_indices`` order; reads
    only the kept nodes' neighbor lists."""
    keep = set(nodes)
    return [
        (a, b) for a in sorted(keep) for b in g.neighbors[a] if a < b and b in keep
    ]


def induced_subgraph(g: Graph, indices: Iterable[int]) -> Graph:
    keep = set(indices)
    ids = g.ids
    edges = induced_edges(g, keep)
    weights = None
    if g.weights is not None:
        weights = {(ids[a], ids[b]): g.weights[(a, b)] for a, b in edges}
    return Graph(
        [ids[i] for i in keep],
        [(ids[a], ids[b]) for a, b in edges],
        weights,
        id_bits=g.id_bits,
    )


def quotient(
    g: Graph, owner: Sequence[int] | Mapping[int, int], ids: Sequence[int]
) -> Graph:
    """Contract every node v into part ``owner[v]`` (a list, or a dict over
    all nodes): parts i != j are adjacent iff a G-edge joins them.  Part i
    gets id ``ids[i]``; ``ids`` ascend, so part i is node i of the result."""
    edges: set[tuple[int, int]] = set()
    for a, nb in enumerate(g.neighbors):
        oa = owner[a]
        for b in nb:
            if oa < owner[b]:
                edges.add((oa, owner[b]))
    return Graph(ids, [(ids[a], ids[b]) for a, b in sorted(edges)])
