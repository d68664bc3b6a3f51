"""Linial-style iterated color reduction via polynomials over GF(q), plus
the canonical greedy reduction used to make final palettes independent of
identifier magnitudes.

``linial_color`` is a strictly local rule: each node's next color depends
only on its own color and its neighbors' colors, so one iteration costs one
exchange of colors between neighbors wherever it is deployed.  Starting
from identifiers of S bits it stabilizes within log*(S) + O(1) iterations
on a palette of at most 16·Δ² colors (final prime q ∈ (2Δ, 4Δ]).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence


def next_prime(x: int) -> int:
    """Smallest prime > x (trial division; fine at the scales used here)."""
    p = max(2, x + 1)
    while True:
        if p == 2 or p % 2:
            d = 3
            is_p = p % 2 == 1 or p == 2
            while is_p and d * d <= p:
                if p % d == 0:
                    is_p = False
                d += 2
            if is_p:
                return p
        p += 1


def _poly_eval(coeffs: Sequence[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _digits(value: int, q: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        out.append(value % q)
        value //= q
    return out


def _stage_params(m: int, delta: int) -> tuple[int, int]:
    """Pick (t, q): polynomial degree and field size for palette size m.

    Needs q^(t+1) >= m (enough polynomials) and q > t*delta (a free
    evaluation point always exists).  Prefers t = 1 with q ∈ (2Δ, 4Δ],
    falling back to higher degrees for large palettes.
    """
    delta = max(delta, 1)
    q1 = next_prime(2 * delta)
    if q1 * q1 >= m:
        return 1, q1
    t = 2
    while True:
        q = next_prime(max(t * delta, 2 * delta))
        if q ** (t + 1) >= m:
            return t, q
        t += 1


def linial_stages(m: int, delta: int) -> Iterator[tuple[int, int]]:
    """(t, q) of each stage of ``linial_color`` on a palette of size m and
    maximum degree delta: stage i maps the palette onto q·q colors, and the
    stages run until the palette has at most next_prime(2Δ)² colors.  The
    number of stages (``linial_color``'s iteration count) therefore depends
    only on m and Δ, not on the graph."""
    delta = max(delta, 1)
    final_q = next_prime(2 * delta)
    while m > final_q * final_q:
        t, q = _stage_params(m, delta)
        yield t, q
        m = q * q


def linial_color(
    neighbors: Sequence[Sequence[int]],
    ids: Sequence[int],
    max_degree: Optional[int] = None,
) -> tuple[list[int], int]:
    """Proper coloring of the view graph from distinct ids.

    Returns (colors, iterations); colors ≤ 16·Δ², iterations ≤
    log*(id bits) + 3.  Deterministic.
    """
    n = len(ids)
    delta = max_degree
    if delta is None:
        delta = max((len(nb) for nb in neighbors), default=0)
    colors = list(ids)
    iterations = 0
    for t, q in linial_stages(max(colors, default=0) + 1, delta):
        polys = [_digits(c, q, t + 1) for c in colors]
        nxt = []
        for v in range(n):
            pv = polys[v]
            for x in range(q):
                fx = _poly_eval(pv, x, q)
                if all(
                    _poly_eval(polys[u], x, q) != fx for u in neighbors[v]
                ):
                    nxt.append(x * q + fx)
                    break
            else:  # cannot happen: q > t*delta rules out <= t*delta points
                raise AssertionError("no free evaluation point")
        colors = nxt
        iterations += 1
    _assert_proper(neighbors, colors)
    return colors, iterations


def greedy_reduce(
    neighbors: Sequence[Sequence[int]], order: Sequence[int]
) -> list[int]:
    """First-fit coloring scanning ``order``; ≤ Δ+1 colors, and dependent
    only on the scan order and adjacency — not on identifier values.

    ``neighbors[v]`` is any sequence of node indices; lists are read
    fastest.
    """
    colors = [-1] * len(neighbors)
    for v in order:
        used = set(map(colors.__getitem__, neighbors[v]))
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _assert_proper(neighbors, colors) -> None:
    for v, nb in enumerate(neighbors):
        for u in nb:
            if u != v and colors[u] == colors[v]:
                raise AssertionError(f"improper coloring on edge ({v},{u})")
