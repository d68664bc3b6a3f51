"""Randomized decomposition refinements over a meta-node graph: sequential
ball growing and exponential-shift ball carving with parallel-run
amplification.

Both refinements consume an *intermediate* decomposition of a power of the
meta-graph (same-color clusters far apart in H) and emit a decomposition of
H itself with few colors.  The algorithms here are evaluated centrally on
the meta-graph; shifts are drawn from per-(seed, node, run) streams and all
comparisons happen in fixed point, so replays are bit-identical on any
platform and thread layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .clustering import Cluster, Decomposition
from .graphs import Graph, NetdecompError, _bfs_idx, path_union, quotient
from .simulate import (  # node_rng stays bound for the benchmark's tracer
    node_draws,
    node_rng,
)

FP_BITS = 16  # fractional bits for fixed-point shifts
_ONE = 1 << FP_BITS


class CarveError(NetdecompError):
    pass


@dataclass
class MetaGraph:
    """Meta-nodes (disjoint vertex sets of an underlying graph) with an edge
    wherever two meta-nodes contain adjacent vertices."""

    graph: Graph                        # meta-level adjacency; ids = meta ids
    members: list[frozenset[int]]       # per meta index: underlying vertices
    underlying_n: int

    @property
    def n(self) -> int:
        return self.graph.n

    def back_map(self) -> dict[int, int]:
        """Underlying vertex index -> meta index."""
        out: dict[int, int] = {}
        for mi, mem in enumerate(self.members):
            for v in mem:
                out[v] = mi
        return out

    @classmethod
    def from_graph(cls, g: Graph) -> "MetaGraph":
        """Each vertex becomes its own meta-node."""
        return cls(
            graph=g,
            members=[frozenset({v}) for v in range(g.n)],
            underlying_n=g.n,
        )

    @classmethod
    def from_decomposition(cls, g: Graph, dec: Decomposition) -> "MetaGraph":
        clusters = sorted(dec.clusters, key=lambda c: c.id)
        owner: dict[int, int] = {}
        for mi, c in enumerate(clusters):
            for v in c.members:
                if v in owner:
                    raise CarveError("meta-nodes must be vertex-disjoint")
                owner[v] = mi
        if len(owner) != g.n:
            raise CarveError("meta-nodes must cover the underlying graph")
        return cls(
            graph=quotient(g, owner, [c.id for c in clusters]),
            members=[frozenset(c.members) for c in clusters],
            underlying_n=g.n,
        )


def carve_params(n_meta: int) -> tuple[int, float, int]:
    """(s, beta, cap_d) with s = ceil(sqrt(log2 N)), beta = 2^(-s-2) and
    cap_d = max(2^(2s), ceil(ln(2N) / beta)).

    A run aborts when any of its at most N EXP(beta) shifts exceeds cap_d,
    so by the union bound it aborts with probability at most
    N * e^(-beta * cap_d), which this cap_d holds to <= 1/2: one run
    succeeds with constant probability, as the parallel-run amplification
    of ``carve_decompose`` needs.  cap_d equals the paper's 2^(2s) whenever
    2^(s-2) >= ln(2N), which holds for every N > 2^49; at smaller N
    2^(2s) alone would abort almost every run (at N = 64 one survives with
    probability (1 - e^-2)^64 ~ 1e-4).  The cap does not change the shifts
    drawn, only which runs are flagged failed.
    """
    lg = (n_meta - 1).bit_length() if n_meta > 1 else 1  # ceil(log2 N)
    s = max(1, math.ceil(math.sqrt(lg)))
    beta = 2.0 ** (-s - 2)
    union_cap = math.ceil(math.log(2 * max(1, n_meta)) / beta)
    return s, beta, max(2 ** (2 * s), union_cap)


def sample_exp(beta: float, stream) -> float:
    """One draw from EXP(beta): -ln(U)/beta with U uniform on (0, 1]."""
    if beta <= 0:
        raise CarveError("beta must be positive")
    u = 1.0 - stream.random()  # random() is [0,1), so this is (0,1]
    return -math.log(u) / beta


def gap_probability_check(
    ds, beta: float, trials: int, seed: int = 0
) -> float:
    """Monte-Carlo estimate of Pr[top two of delta_j - d_j are within 1]
    with delta_j ~ EXP(beta) i.i.d. and d_j the given distances."""
    if trials < 1:
        raise CarveError("trials must be positive")
    ds = list(ds)
    if len(ds) <= 1:
        return 0.0
    import numpy as np

    rng = np.random.default_rng(seed)
    d = np.asarray(ds, dtype=float)
    hits = 0
    chunk = 20_000
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        delta = rng.exponential(1.0 / beta, size=(t, len(ds)))
        vals = delta - d
        part = np.partition(vals, len(ds) - 2, axis=1)
        top2 = part[:, -2:]
        hits += int(((top2[:, 1] - top2[:, 0]) <= 1.0).sum())
        done += t
    return hits / trials


@dataclass
class CarveStepResult:
    clusters: dict[int, set[int]]       # center meta index -> member indices
    deactivated: set[int]
    reached: set[int]
    max_shift_fp: int
    failed: bool                        # some shift exceeded cap_d


def carve_step(
    h: MetaGraph,
    active: set[int],
    centers: set[int],
    beta: float,
    cap_d: int,
    stream=None,
    shifts: Optional[dict[int, float]] = None,
) -> CarveStepResult:
    """One step of exponential-shift ball carving restricted to ``active``.

    Every center draws a shift r_v; each active node u collects
    m_i = r_{v_i} - d(u, v_i) over centers whose floor(r_v)-ball reaches it
    through active nodes, and joins the best center iff m1 - m2 > 1 (strict,
    in fixed point; a missing m2 counts as -infinity).  Reached-but-
    unclustered nodes are deactivated.  A shift above cap_d flags the run
    as failed ("abort this execution").
    """
    if not centers <= active:
        raise CarveError("centers must be active")
    if shifts is None:
        if stream is None:
            raise CarveError("need a stream or explicit shifts")
        shifts = {v: sample_exp(beta, stream) for v in sorted(centers)}
    shift_fp = {v: int(shifts[v] * _ONE) for v in centers}
    max_fp = max(shift_fp.values(), default=0)
    failed = max_fp > cap_d << FP_BITS

    g = h.graph
    # best two (value, center) pairs per node, via BFS per center over the
    # active induced subgraph out to floor(r_v) hops
    best: dict[int, list[tuple[int, int]]] = {}
    for v in sorted(centers):
        ball: list[int] = []
        dist = _bfs_idx(g, [v], cap=shift_fp[v] >> FP_BITS, within=active,
                        reached=ball)
        for u in ball:
            m = shift_fp[v] - (dist[u] << FP_BITS)
            pairs = best.setdefault(u, [])
            pairs.append((m, -v))
            pairs.sort(reverse=True)
            del pairs[2:]

    clusters: dict[int, set[int]] = {}
    deactivated: set[int] = set()
    reached = set(best)
    if not failed:
        for u, pairs in best.items():
            m1, neg_v1 = pairs[0]
            m2 = pairs[1][0] if len(pairs) > 1 else None
            if m2 is None or m1 - m2 > _ONE:
                clusters.setdefault(-neg_v1, set()).add(u)
            else:
                deactivated.add(u)
    return CarveStepResult(clusters, deactivated, reached, max_fp, failed)


def default_runs_per_step(underlying_n: int) -> int:
    return max(32, math.ceil(math.log2(max(2, underlying_n))))


@dataclass
class CarveDiagnostics:
    phase: int
    color: int
    cluster_id: int
    run: int
    max_shift: float
    reached: int
    clustered: int
    success: bool

    def to_json(self) -> dict:
        return self.__dict__.copy()


def carve_decompose(
    h: MetaGraph,
    intermediate: Decomposition,
    runs_per_step: Optional[int] = None,
    seed: int = 0,
    retry_cap: int = 8,
) -> tuple[Decomposition, list[CarveDiagnostics], int]:
    """Ball-carving decomposition of H driven by an intermediate
    decomposition of a power of H (same-color clusters far apart).

    Phases carve from one intermediate color class at a time; each
    intermediate cluster adopts the first of ``runs_per_step`` parallel
    carve runs that succeeded for it (success: its shifts stayed <= cap_d
    and at least a 2^(-s) fraction of the meta-nodes it reached got
    clustered), retrying with fresh streams if all runs fail.  One output
    color per phase.  Returns (decomposition of H, per-adopted-run
    diagnostics, phases used).
    """
    g = h.graph
    n = g.n
    if runs_per_step is None:
        runs_per_step = default_runs_per_step(h.underlying_n)
    if n == 1:
        dec = Decomposition(
            k=1,
            clusters=[
                Cluster(id=g.ids[0], center=0, members=frozenset({0}),
                        tree_edges=frozenset(), color=0)
            ],
        )
        return dec, [], 1
    s, beta, cap_d = carve_params(n)
    frac_num, frac_den = 1, 2**s       # success fraction 2^(-s), exact
    inter = sorted(intermediate.clusters, key=lambda c: (c.color, c.id))
    colors = sorted({c.color for c in inter})
    color_pos = {color: ci for ci, color in enumerate(colors)}

    remaining: set[int] = set(range(n))
    out: list[Cluster] = []
    diags: list[CarveDiagnostics] = []
    phase = 0
    salt = 0
    while remaining:
        phase += 1
        if phase > 64 * s + 16:
            raise CarveError(f"carve did not exhaust H in {phase - 1} phases")
        active = set(remaining)
        for c in inter:
            ci = color_pos[c.color]
            sources = {v for v in c.members if v in active}
            if not sources:
                continue
            srcs = sorted(sources)
            src_ids = [g.ids[v] for v in srcs]
            adopted = None
            for attempt in range(retry_cap):
                for run in range(runs_per_step):
                    run_tag = ((phase * len(colors) + ci) * retry_cap
                               + attempt) * runs_per_step + run + salt
                    # sample_exp's -ln(1 - U)/beta, with every source's
                    # U drawn at once
                    us = node_draws(seed, src_ids, run_tag, 1)
                    shifts = {
                        v: -math.log(1.0 - u) / beta
                        for v, u in zip(srcs, us[:, 0].tolist())
                    }
                    step = carve_step(
                        h, active, sources, beta, cap_d, shifts=shifts
                    )
                    clustered = sum(len(m) for m in step.clusters.values())
                    ok = (
                        not step.failed
                        and step.reached
                        and clustered * frac_den >= len(step.reached) * frac_num
                    )
                    diags.append(
                        CarveDiagnostics(
                            phase=phase, color=c.color, cluster_id=c.id,
                            run=run,
                            max_shift=step.max_shift_fp / _ONE,
                            reached=len(step.reached),
                            clustered=clustered, success=ok,
                        )
                    )
                    if ok:
                        adopted = step
                        break
                if adopted is not None:
                    break
            if adopted is None:
                raise CarveError(
                    f"all {retry_cap}x{runs_per_step} carve runs failed for "
                    f"intermediate cluster {c.id} in phase {phase}"
                )
            for center, mem in sorted(adopted.clusters.items()):
                out.append(_strong_cluster(h, center, mem, phase - 1))
                remaining -= mem
                active -= mem
                # deactivate the boundary so later iterations of this
                # phase cannot form an adjacent same-color cluster
                for u in mem:
                    for w in g.neighbors[u]:
                        active.discard(w)
            active -= adopted.deactivated
        salt += len(colors) * retry_cap * runs_per_step * (phase + 1)
    dec = Decomposition(k=1, clusters=out)
    return dec, diags, phase


def _strong_cluster(h: MetaGraph, center: int, mem: set[int], color: int) -> Cluster:
    """BFS tree inside the cluster (strong diameter by construction)."""
    parent: dict[int, int] = {}
    _bfs_idx(h.graph, [center], parent=parent, within=mem)
    if set(parent) != set(mem):
        raise CarveError("carved cluster is not connected")
    return _tree_cluster(h.graph, center, parent, color)


def _tree_cluster(g: Graph, center: int, parent: dict[int, int], color: int) -> Cluster:
    """The cluster spanned by a BFS tree given as its parent map."""
    return Cluster(
        id=g.ids[center], center=center, members=frozenset(parent),
        tree_edges=path_union(parent, parent), color=color,
    )


@dataclass
class BallGrowLog:
    phase: int
    clustered: int
    deactivated: int
    remaining_after: int
    max_growth: int

    def to_json(self) -> dict:
        return self.__dict__.copy()


def ball_grow_refine(
    h: MetaGraph, intermediate: Decomposition
) -> tuple[Decomposition, list[BallGrowLog]]:
    """Sequential ball growing over H: per phase, one growing step per
    intermediate color; balls grow hop by hop until good (fewer boundary
    than non-boundary nodes), then the boundary is deactivated for the
    phase and the interior becomes one super-cluster with the phase's
    color.  At least half the remaining meta-nodes cluster each phase.
    """
    g = h.graph
    n = g.n
    grow_cap = max(1, math.ceil(math.log2(max(2, n))))
    inter = sorted(intermediate.clusters, key=lambda c: (c.color, c.id))

    remaining: set[int] = set(range(n))
    out: list[Cluster] = []
    logs: list[BallGrowLog] = []
    phase = 0
    while remaining:
        phase += 1
        if phase > grow_cap + 1:
            raise CarveError("ball growing exceeded its phase budget")
        active = set(remaining)
        clustered_now = 0
        deact_now = 0
        max_growth = 0
        for c in inter:
            ball = {v for v in c.members if v in active}
            if not ball:
                continue
            growth = 0
            while True:
                boundary = {
                    v for v in ball
                    if any(
                        w in active and w not in ball
                        for w in g.neighbors[v]
                    )
                }
                if len(boundary) < len(ball) - len(boundary):
                    break
                growth += 1
                if growth > grow_cap:
                    raise CarveError(
                        "ball grew past log2(N) steps — separation "
                        "precondition violated"
                    )
                ball |= {
                    w for v in boundary for w in g.neighbors[v]
                    if w in active
                }
            max_growth = max(max_growth, growth)
            interior = ball - boundary
            out.extend(_ball_components(h, interior, phase - 1))
            remaining -= interior
            active -= ball
            clustered_now += len(interior)
            deact_now += len(boundary)
        logs.append(
            BallGrowLog(
                phase=phase, clustered=clustered_now,
                deactivated=deact_now,
                remaining_after=len(remaining), max_growth=max_growth,
            )
        )
        if clustered_now == 0:
            raise CarveError("ball growing made no progress")
    return Decomposition(k=1, clusters=out), logs


def _ball_components(h: MetaGraph, interior: set[int], color: int) -> list[Cluster]:
    """Connected components of the interior, each as a strong cluster."""
    left = set(interior)
    out = []
    while left:
        root = min(left)
        parent: dict[int, int] = {}
        _bfs_idx(h.graph, [root], parent=parent, within=left)
        left -= parent.keys()
        out.append(_tree_cluster(h.graph, root, parent, color))
    return out
