"""Immutable graph representation, generators, file ingestion and the
BFS kernel, Voronoi cells and subgraph operations that the algorithms and
validators of this package are built on.

Node identifiers are arbitrary non-negative integers; internally all
algorithms work on dense indices 0..n-1 in ascending-id order, so id
magnitude only ever influences ``id_bits`` (and through it round counts),
never structural results.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Container, Iterable, Mapping, MutableMapping, Optional, Sequence

import numpy as np
from scipy import sparse


class GraphError(ValueError):
    """Malformed graph input (parse error, asymmetry, bad weights...)."""


class NetdecompError(RuntimeError):
    """An algorithm or the simulator failed on a well-formed input."""


class Graph:
    """Undirected simple graph with optional distinct rational edge weights.

    Immutable after construction.  ``ids`` is the sorted identifier list;
    ``neighbors[i]`` holds the sorted neighbor *indices* of the i-th id.
    """

    __slots__ = ("ids", "neighbors", "weights", "id_bits", "_index", "_rows",
                 "_csr", "_rank")

    def __init__(
        self,
        ids: Sequence[int],
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Optional[dict[tuple[int, int], Fraction]] = None,
        id_bits: Optional[int] = None,
    ):
        """``edges`` is an iterable of id pairs or an (m, 2) integer array.
        The first bad edge in input order is reported: per edge a self-loop,
        then an unknown endpoint, then a repeat."""
        ids = sorted(set(ids))
        if any(i < 0 for i in ids):
            raise GraphError("negative node identifier")
        index = {v: i for i, v in enumerate(ids)}
        n = len(ids)
        if not isinstance(edges, (list, np.ndarray)):
            edges = list(edges)
        lo, hi = _index_pairs(ids, index, edges)
        indptr, dst, repeated = symmetric_csr(lo, hi, n)
        if repeated:  # a self-loop or a repeated edge
            _checked_pairs(index, edges)  # raises for the first bad edge
        # one int object per node, shared by every list that holds it
        flat, ptr = np.arange(n, dtype=object)[dst].tolist(), indptr.tolist()
        self.ids: tuple[int, ...] = tuple(ids)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(flat[ptr[i]:ptr[i + 1]]) for i in range(n)
        )
        self._index = index
        self._rows = (indptr, dst)
        w_idx: Optional[dict[tuple[int, int], Fraction]] = None
        if weights is not None:
            seen = set(zip(lo.tolist(), hi.tolist()))
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
        return int(np.diff(self._rows[0]).max(initial=0))

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

    @property
    def rank(self) -> dict[tuple[int, int], int]:
        """Edge -> position in increasing-weight order, iterated in that
        order; cached.  Weights are distinct, so ranks order edges as they do."""
        assert self.weights is not None
        if self._rank is None:
            w = self.weights
            order = sorted(w, key=lambda e: weight_key(w[e]))
            self._rank = {e: r for r, e in enumerate(order)}
        return self._rank

    def adjacency_csr(self) -> sparse.csr_matrix:
        """Boolean adjacency as int8 CSR, cached."""
        if self._csr is None:
            indptr, indices = self._rows
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


def weight_key(w: Fraction) -> tuple[float, Fraction]:
    """Sort key that orders weights exactly as their ``Fraction`` values do,
    comparing floats first: rounding is monotone, so the float order never
    contradicts the exact one, and only weights whose floats tie compare as
    ``Fraction``.  A weight beyond the float range (about 1e308) keys as
    inf."""
    try:
        return float(w), w
    except OverflowError:
        return math.inf, w


def symmetric_csr(
    a: np.ndarray, b: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, bool]:
    """CSR rows (indptr, indices) over 0..n-1 holding both directions of
    every pair (a[i], b[i]): each row sorted, each entry once; and whether
    some entry came more than once, as a repeated pair's and a self-loop's
    do.  One sort of the keys source * n + target."""
    keys = np.concatenate((a * n + b, b * n + a))
    keys.sort()  # np.unique on these keys took about 25 times as long
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    repeated = not fresh.all()
    if repeated:
        keys = keys[fresh]
    src, indices = np.divmod(keys, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, indices, repeated


def edge_entries(g: Graph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The entry of each edge (a[i], b[i]) in the CSR rows ``g._rows``, -1
    where G has no such edge; a and b hold indices in 0..n-1.  The entry
    keys row * n + column increase along the rows, so one binary search
    finds each."""
    indptr, dst = g._rows
    n = g.n
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if not len(dst):
        return np.full(len(a), -1, dtype=np.int64)
    keys = np.repeat(np.arange(n) * n, np.diff(indptr)) + dst
    needle = a * n + b
    # sorted needles search 2 to 3 times as fast, their sort included
    order = np.argsort(needle)
    at = np.empty(len(needle), dtype=np.int64)
    at[order] = np.searchsorted(keys, needle[order])
    np.minimum(at, len(keys) - 1, out=at)
    return np.where(keys[at] == needle, at, -1)


def row_entries(
    rows: tuple[np.ndarray, np.ndarray], which: np.ndarray
) -> np.ndarray:
    """The entries of the CSR rows (indptr, indices) numbered ``which``,
    concatenated in that order: one gather of the concatenated index
    ranges."""
    indptr, indices = rows
    starts, ends = indptr[which], indptr[which + 1]
    sizes = ends - starts
    offsets = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    return indices[offsets + np.arange(int(sizes.sum()))]


# ``_index_pairs`` maps ids below this multiple of n through a lookup array
_DENSE_IDS = 4


def _index_pairs(
    ids: list, index: dict, edges: list | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint indices (lo, hi), lo <= hi, of every edge as int64 arrays.

    Ids and endpoints that are all ints in int64 range are mapped with array
    operations: through a dense id -> index array when the largest id is
    below ``_DENSE_IDS`` x n, else by binary search.  When an endpoint is
    unknown, or some value is of another kind (ids near 2^128, say), the
    per-edge loop maps them and raises for the first bad edge.  Self-loops
    and repeats are left to the caller."""
    n = len(ids)
    ends = _int64_pairs(edges)
    ida = np.array(ids)
    if n and ends is not None and ida.dtype.kind == "i":
        top = int(ida[-1])  # ids are sorted, distinct and >= 0
        if top < _DENSE_IDS * n:
            lookup = np.full(top + 1, -1, dtype=np.int64)
            lookup[ida] = np.arange(n)
            pos = lookup[np.clip(ends, 0, top)]
            known = (ends >= 0) & (ends <= top) & (pos >= 0)
        else:
            pos = np.minimum(np.searchsorted(ida, ends), n - 1)
            known = ida[pos] == ends
        if known.all():
            return np.minimum(pos[:, 0], pos[:, 1]), np.maximum(pos[:, 0], pos[:, 1])
    pairs = np.array(_checked_pairs(index, edges), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _int64_pairs(edges: list | np.ndarray) -> Optional[np.ndarray]:
    """``edges`` as an (m, 2) int64 array, or None unless every endpoint is
    an int that fits in int64 (an empty list gives None).  The JSON loader's
    per-edge ``int`` conversion would leave such endpoints unchanged."""
    try:
        arr = np.asarray(edges)
    except (TypeError, ValueError, OverflowError):  # ragged rows and the like
        return None
    if arr.dtype.kind != "i" or arr.ndim != 2 or arr.shape[1] != 2:
        return None
    return arr.astype(np.int64, copy=False)


def _checked_pairs(index: dict, edges: Iterable) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, of the edges, checked one by one in input
    order; raises GraphError for the first bad edge."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        if u not in index or v not in index:
            raise GraphError(f"edge ({u},{v}) references unknown node")
        a, b = index[u], index[v]
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
    return list(seen)


@contextmanager
def paused_gc():
    """Pause CPython's cyclic garbage collector for the block and restore
    the caller's setting afterwards, also when the block raises.

    For code that allocates many container objects but builds no reference
    cycle: reference counting still frees each object, and no collection
    pass rescans the live ones.  A cycle made inside the block is only
    collected later, once the collector runs again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
    return Graph(range(n), edges, weights or None)


@contextmanager
def _malformed_json(what: str):
    """Report a missing key or a value of the wrong type in parsed JSON
    input as a GraphError."""
    try:
        yield
    except KeyError as exc:
        raise GraphError(f"{what}: missing key {exc}") from None
    except (TypeError, IndexError, AttributeError, OverflowError) as exc:
        raise GraphError(f"{what}: wrong type ({exc})") from None


def _json_int(value, what: str, least: Optional[int] = None) -> int:
    """``value`` if it is an integer (not a bool) of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise GraphError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _load_json(path: str) -> Graph:
    with paused_gc():  # parsing and Graph construction build no cycle
        with open(path) as fh:
            data = json.load(fh)
        g = graph_from_json(data, f"graph JSON {path}")
        # freed while the collector is off: its first pass after the block
        # would otherwise scan every parsed edge list
        del data
    return g


def graph_from_json(data, what: str) -> Graph:
    """The graph of a parsed JSON document {"nodes", "edges", "id_bits"},
    as ``load_graph`` reads it; errors name the document as ``what``."""
    with _malformed_json(what):
        edges = _int64_pairs(data["edges"])  # None unless all are int pairs
        weights: dict[tuple[int, int], Fraction] = {}
        if edges is None:
            edges = []
            for e in data["edges"]:
                u, v = int(e[0]), int(e[1])
                edges.append((u, v))
                if len(e) > 2:
                    try:
                        weights[(u, v)] = Fraction(str(e[2]))
                    except (ValueError, ZeroDivisionError):
                        raise GraphError(
                            f"{what}: edge {e!r}: bad weight {e[2]!r}"
                        ) from None
        id_bits = data.get("id_bits")
        if id_bits is not None:
            _json_int(id_bits, f"{what}: id_bits")
        return Graph(data["nodes"], edges, weights or None, id_bits=id_bits)


def save_graph_json(g: Graph, path: str) -> None:
    """Write ``g`` in the JSON format ``load_graph`` reads: edges (a, b),
    a < b, in ``edge_indices`` order, each followed by its weight as a
    string when the graph is weighted."""
    indptr, dst = g._rows
    src = np.repeat(np.arange(g.n), np.diff(indptr))
    upper = src < dst
    a, b = src[upper], dst[upper]
    ids = np.array(g.ids, dtype=object)
    edges = np.column_stack((ids[a], ids[b])).tolist()
    if g.weights is not None:
        w = g.weights
        for e, x, y in zip(edges, a.tolist(), b.tolist()):
            e.append(str(w[(x, y)]))
    # json.dumps runs the C encoder; json.dump would stream through the
    # pure-Python one.  Both give the same text.
    text = json.dumps({"nodes": list(g.ids), "edges": edges, "id_bits": g.id_bits})
    with open(path, "w") as fh:
        fh.write(text)


# -- generators ----------------------------------------------------------


def generate_graph(model: str, params: dict, seed: int) -> Graph:
    """Deterministic graph generator; same (model, params, seed) => same graph."""
    if model == "path":
        n = _positive(params, model, "n")
        return Graph(range(n), [(i, i + 1) for i in range(n - 1)])
    if model == "clique":
        n = _positive(params, model, "n")
        return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])
    if model == "grid":
        rows = _positive(params, model, "rows")
        cols = _positive(params, model, "cols")
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
        n = _positive(params, model, "n")
        rng = np.random.default_rng(seed)
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        return Graph(range(n), edges)
    if model == "gnp":
        n = _positive(params, model, "n")
        raw = _required(params, model, "p")
        try:
            p = float(raw)
        except ValueError:  # a word from parse_gen
            raise GraphError(f"parameter p must be a number, got {raw!r}") from None
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"gnp needs p in [0,1], got {p}")
        # pairs i < j in row-major order, one row of draws at a time, so
        # memory stays linear in n + m
        rng = np.random.default_rng(seed)
        hits = [
            np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1) for i in range(n - 1)
        ]
        edges = np.column_stack((
            np.repeat(np.arange(n - 1), [len(h) for h in hits]),
            np.concatenate([np.empty(0, dtype=np.int64), *hits]),
        ))
        g = Graph(range(n), edges)
        if params.get("largest_component"):
            g = largest_component(g)
        return g
    raise GraphError(f"unknown model {model!r}")


def _required(params: dict, model: str, key: str):
    if key not in params:
        raise GraphError(f"model {model!r} needs parameter {key!r}")
    return params[key]


def _positive(params: dict, model: str, key: str) -> int:
    raw = _required(params, model, key)
    try:
        v = int(raw)
    except (ValueError, OverflowError):  # a word, or nan / inf from parse_gen
        raise GraphError(f"parameter {key} must be an integer, got {raw!r}") from None
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


# -- distances and subgraphs ---------------------------------------------


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


def grow_balls(g: Graph, seeds: sparse.csr_matrix, hops: int) -> sparse.csr_matrix:
    """Each row of the boolean (rows x n) matrix ``seeds``, without duplicate
    entries, grown to its ``hops``-ball: each hop multiplies only the last
    layer by the adjacency, and the loop stops once no ball grows."""
    adj = g.adjacency_csr().astype(bool)
    ball = frontier = seeds
    for hop in range(1, hops + 1):
        grown = (ball + frontier @ adj).astype(bool)
        if grown.nnz == ball.nnz:
            break  # a ball that stops growing never grows again
        if hop < hops:
            frontier = grown > ball
        ball = grown
    return ball


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


def bfs_tree(
    g: Graph, root: int, within: Container[int]
) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """A BFS from ``root`` that enters only nodes of ``within`` (the root
    always): the nodes it reaches, and the edges (a, b), a < b, of its
    tree."""
    parent: dict[int, int] = {}
    _bfs_idx(g, [root], parent=parent, within=within)
    return frozenset(parent), path_union(parent, parent)


def component_labels(g: Graph) -> tuple[int, np.ndarray]:
    """The number of connected components of G and each node's label, by
    one scipy labelling of the strong components of the symmetric CSR (no
    transposed copy)."""
    # imported on first use: scipy.sparse.csgraph loads scipy.sparse.linalg
    # (about 11 MB and 0.1 s), which a run that labels nothing should not
    # pay for
    from scipy.sparse.csgraph import connected_components

    return connected_components(g.adjacency_csr(), connection="strong")


def largest_component(g: Graph) -> Graph:
    """G induced on its largest connected component; of equal ones, on the
    one holding the smallest index."""
    _, label = component_labels(g)
    size = np.bincount(label)
    _, first = np.unique(label, return_index=True)  # each one's smallest index
    best = np.lexsort((first, -size))[0]
    return induced_subgraph(g, np.flatnonzero(label == best).tolist())


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
