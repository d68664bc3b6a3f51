"""Tests for the deterministic decomposition phase engine."""

import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from netdecomp import decompose as decompose_module
from netdecomp.clustering import Cluster, _member_arrays, validate_decomposition
from netdecomp.coloring import greedy_reduce
from netdecomp.decompose import (
    DecomposeError,
    decompose,
    growth_parameters,
    _build_hview,
    _cluster_reach,
    _first_class,
    _later_classes,
    _live_cluster,
    _merge_leaders,
    _proximity_pairs,
    _reach_bound,
    _select_cstar,
    HView,
    LiveCluster,
)
from netdecomp.covers import mst_radius
from netdecomp.graphs import (
    Graph,
    _bfs_idx,
    generate_graph,
    path_union,
    random_weights,
    row_entries,
    symmetric_csr,
    voronoi_cells,
)
from netdecomp.simulate import RoundStats, SimConfig, bounded_flood_oracle
from references import all_pairs_distances


def _colors_ok(g, res, k):
    rep = validate_decomposition(g, res.decomposition)
    assert rep.valid, rep.failures
    return rep


def _dict_view(hv, order):
    """The H-view ``hv`` with cluster ids for positions (``order`` lists the
    ids ascending) and dicts and sets for arrays, as the references read it:
    ``adj`` is the open unmarked adjacency, without the diagonal."""
    indptr, indices = hv.closed
    rows = lambda ptr, entries, r: entries[ptr[r] : ptr[r + 1]].tolist()
    return SimpleNamespace(
        order=list(order),
        in_ids={cid: [order[x] for x in rows(hv.in_ptr, hv.in_pos, r)]
                for r, cid in enumerate(order)},
        high_degree={cid: bool(hv.high[r]) for r, cid in enumerate(order)},
        marked={order[r] for r in np.flatnonzero(hv.marked).tolist()},
        marked_nb={order[r]: order[x]
                   for r, x in enumerate(hv.marked_nb.tolist()) if x >= 0},
        adj={cid: {order[x] for x in rows(indptr, indices, r) if x != r}
             for r, cid in enumerate(order) if not hv.marked[r]},
    )


def _closed_rows(order, adj, marked):
    """CSR rows (indptr, indices) over the positions of ``order`` of the
    closed neighbourhoods in ``adj`` (by id) of the unmarked clusters."""
    pos = {cid: i for i, cid in enumerate(order)}
    unmarked = [cid for cid in order if cid not in marked]
    a = [pos[c] for c in unmarked for _ in adj[c]] + [pos[c] for c in unmarked]
    b = [pos[u] for c in unmarked for u in adj[c]] + [pos[c] for c in unmarked]
    indptr, indices, _ = symmetric_csr(
        np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), len(order))
    return indptr, indices


class TestGrowthParameters:
    def test_log2_is_exact_past_float_precision(self):
        # float log2 rounds 2^64 + 1 down to 64; ceil(log2 N) is 65
        assert growth_parameters(2**64 + 1) == (9, 2**9)
        sizes = {1, 2, 3} | {2**e + dd for e in range(1, 200, 7) for dd in (-1, 0, 1)}
        for n in sorted(sizes):
            lg = 1
            while 2**lg < n:  # max(1, ceil(log2 n)), by integer comparison
                lg += 1
            p = 1
            while p * p < lg:  # ceil(sqrt(lg))
                p += 1
            assert growth_parameters(n) == (p, 2**p), n


class TestSmallExamples:
    def test_single_node(self):
        g = Graph([5], [])
        res = decompose(g, 3)
        assert len(res.decomposition.clusters) == 1
        assert res.decomposition.colors_used == 1
        _colors_ok(g, res, 3)

    def test_k4_one_cluster_per_color(self):
        g = generate_graph("clique", {"n": 4}, 0)
        res = decompose(g, 1)
        _colors_ok(g, res, 1)
        # exhaustive same-color pair check: K4 forces singleton color classes
        by_color = {}
        for c in res.decomposition.clusters:
            by_color.setdefault(c.color, []).append(c)
        for cs in by_color.values():
            for a in cs:
                for b in cs:
                    if a.id < b.id:
                        dist = _bfs_idx(g, [next(iter(a.members))])
                        assert all(dist[v] > 1 for v in b.members)
        assert all(len(cs) == 1 for cs in by_color.values())

    def test_p8_k2_color_budget(self):
        g = generate_graph("path", {"n": 8}, 0)
        res = decompose(g, 2)
        _colors_ok(g, res, 2)
        p, d = growth_parameters(8)
        assert res.decomposition.colors_used <= (p + 1) * 16 * 4 * d * d

    def test_bad_k(self):
        g = generate_graph("path", {"n": 4}, 0)
        with pytest.raises(DecomposeError):
            decompose(g, 0)


class TestHView:
    def _singles(self, g):
        return [LiveCluster(g.ids[v], v, {v}, frozenset(), 0) for v in range(g.n)]

    def test_adjacent_within_k_mutual_edges(self):
        g = generate_graph("path", {"n": 2}, 0)
        hv = _build_hview(g, self._singles(g), 1, 2, "fast", SimConfig(), RoundStats(),
                          _reach_bound(g, 1))
        hv = _dict_view(hv, g.ids)
        assert hv.in_ids[0] == [1] and hv.in_ids[1] == [0]

    def test_beyond_k_no_edge(self):
        g = generate_graph("path", {"n": 3}, 0)  # endpoints at distance 2
        hv = _build_hview(
            g,
            [LiveCluster(0, 0, {0}, frozenset(), 0), LiveCluster(2, 2, {2}, frozenset(), 0)],
            1, 2, "fast", SimConfig(), RoundStats(), _reach_bound(g, 1),
        )
        hv = _dict_view(hv, [0, 2])
        assert hv.in_ids[0] == [] and hv.in_ids[2] == []

    def test_clique_in_lists_capped_at_2d_smallest(self):
        d = 2
        g = generate_graph("clique", {"n": 3 * d * 2}, 0)
        hv = _build_hview(g, self._singles(g), 1, d, "fast", SimConfig(), RoundStats(),
                          _reach_bound(g, 1))
        hv = _dict_view(hv, g.ids)
        # every cluster perceives exactly the 2d smallest foreign ids
        for cid in hv.order:
            expect = [i for i in range(2 * d + 1) if i != cid][: 2 * d]
            assert hv.in_ids[cid] == expect
            assert hv.high_degree[cid]

    def test_star_hub_marked(self):
        n = 300
        g = Graph(range(n), [(0, i) for i in range(1, n)])
        res = decompose(g, 1)
        assert res.phases[0].marked == 1
        assert res.phases[0].cluster_count == 1  # hub carried live
        _colors_ok(g, res, 1)


def _reach_by_distances(g, live, k):
    """Reference: (c, x) is set iff some members of c and x are at most k
    apart, both axes in ascending id order."""
    apd = all_pairs_distances(g)
    live = sorted(live, key=lambda c: c.id)
    return np.array([
        [apd[np.ix_(sorted(c.members), sorted(x.members))].min() <= k for x in live]
        for c in live
    ], dtype=bool).reshape(len(live), len(live))


def _hview_by_holdings(g, live, k, d):
    """Reference H-view: each node holds the 2d+1 smallest cluster ids
    within k hops (the centralized bounded flood), each cluster unions its
    members' holdings, and a marked neighbor is the smallest marked cluster
    within k hops by all-pairs distances."""
    cap = 2 * d
    sources = {m: (c.id, None) for c in live for m in c.members}
    held = bounded_flood_oracle(g, sources, k, cap + 1)
    in_ids, high = {}, {}
    for c in live:
        foreign = {o for m in c.members for o, _ in held[m] if o != c.id}
        in_ids[c.id] = sorted(foreign)[:cap]
        high[c.id] = len(foreign) >= cap
    out_degree = Counter(o for ids in in_ids.values() for o in ids)
    marked = {cid for cid in in_ids if out_degree[cid] > 4 * d * d}
    apd = all_pairs_distances(g)
    marked_nb = {}
    for c in live:
        near = [
            x.id for x in live
            if x.id in marked
            and apd[np.ix_(sorted(c.members), sorted(x.members))].min() <= k
        ]
        if near and c.id not in marked:
            marked_nb[c.id] = min(near)
    return in_ids, high, marked, marked_nb


def _random_live(data, n):
    """Live clusters over some of the n nodes, with distinct random ids;
    the fast H-view reads neither trees nor radii."""
    parts = data.draw(st.integers(1, n), label="parts")
    if data.draw(st.booleans(), label="singletons"):
        owner = data.draw(st.permutations(range(n)))[:parts]
        groups = [{v} for v in owner]
    else:
        # -1: the node is in no live cluster
        owner = data.draw(st.lists(
            st.integers(-1, parts - 1), min_size=n, max_size=n))
        groups = [{v for v in range(n) if owner[v] == i} for i in range(parts)]
        groups = [m for m in groups if m]
    ids = data.draw(st.lists(st.integers(0, 10**6), unique=True,
                             min_size=len(groups), max_size=len(groups)))
    return [LiveCluster(cid, min(m), m, frozenset(), 0) for cid, m in zip(ids, groups)]


class _CountingAdjacency:
    """Stands in for ``Graph.adjacency_csr()`` and counts ``X @ adj``."""

    def __init__(self, csr):
        self.csr = csr.astype(bool)
        self.products = 0

    def astype(self, _dtype):
        return self

    def __rmatmul__(self, other):
        self.products += 1
        return other @ self.csr


class TestClusterReach:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 24),
        p=st.sampled_from([0.03, 0.1, 0.25]),
        data=st.data(),
    )
    def test_equals_distances_and_stops_at_the_fixpoint(self, seed, n, p, data):
        g = generate_graph("gnp", {"n": n, "p": p}, seed)
        live = sorted(_random_live(data, n), key=lambda c: c.id)
        k = data.draw(st.integers(1, 3 * n), label="k")

        counter = _CountingAdjacency(g.adjacency_csr())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Graph, "adjacency_csr", lambda self: counter)
            reach = _cluster_reach(g, *_member_arrays(live), np.arange(len(live)), k)
        assert reach.has_sorted_indices
        assert np.array_equal(reach.toarray(), _reach_by_distances(g, live, k))
        # the balls stop growing once t reaches the farthest node any
        # cluster reaches; one more product finds that out
        apd = all_pairs_distances(g)
        far = max(
            int(d) for c in live for v in range(n)
            for d in [apd[sorted(c.members), v].min()] if d < n
        ) if live else 0
        assert counter.products == min(k, far + 1)


class TestFastHViewEqualsHoldingsUnion:
    @staticmethod
    def _check(g, live, k, d):
        hv = _build_hview(g, sorted(live, key=lambda c: c.id), k, d, "fast",
                          SimConfig(), RoundStats(), _reach_bound(g, k))
        hv = _dict_view(hv, sorted(c.id for c in live))
        in_ids, high, marked, marked_nb = _hview_by_holdings(g, live, k, d)
        assert hv.in_ids == in_ids
        assert hv.high_degree == high
        assert hv.marked == marked
        assert hv.marked_nb == marked_nb
        return hv

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 30),
        p=st.sampled_from([0.05, 0.15, 0.3]),
        d=st.sampled_from([1, 2]),
        data=st.data(),
    )
    def test_random_clusters(self, seed, n, p, d, data):
        g = generate_graph("gnp", {"n": n, "p": p}, seed)
        live = _random_live(data, n)
        k = data.draw(st.integers(1, 4), label="k")
        self._check(g, live, k, d)

    def test_star_of_leaf_pairs_marks_the_hub(self):
        n = 41
        g = Graph(range(n), [(0, i) for i in range(1, n)])
        live = [LiveCluster(0, 0, {0}, frozenset(), 0)] + [
            LiveCluster(i, i, {i, i + 1}, frozenset(), 0) for i in range(1, n, 2)
        ]
        hv = self._check(g, live, 1, 2)
        assert hv.marked == {0}
        assert set(hv.marked_nb.values()) == {0}


def _two_components(seed, n, p):
    """Two ``gnp`` graphs side by side, so at least two components."""
    a = generate_graph("gnp", {"n": n, "p": p}, seed)
    b = generate_graph("gnp", {"n": n, "p": p}, seed + 1)
    return Graph(range(2 * n), [*a.edges_by_id(),
                                *((x + n, y + n) for x, y in b.edges_by_id())])


def _cover_reach(g, live):
    """Per cluster, the least k at which ``_reach_bound`` shows its k-ball
    to cover its component: min over members of d(m, u) + ecc(u), u the
    component's smallest node; None for a cluster in two components."""
    apd = all_pairs_distances(g)
    out = {}
    for c in live:
        comps = {min(np.flatnonzero(apd[m] < g.n)) for m in c.members}
        if len(comps) == 1:
            u = comps.pop()
            out[c.id] = min(apd[m, u] for m in c.members) + apd[u][apd[u] < g.n].max()
    return out


class TestReachBound:
    """Rows whose k-ball covers their component skip the ball search and
    give the same H-view."""

    @staticmethod
    def _searched(g, live, k, d):
        """The ids of the clusters whose rows ``_cluster_reach`` computed,
        after checking the fast H-view against the holdings reference."""
        searched = []
        real = decompose_module._cluster_reach

        def record(g, sizes, flat, rows, k):
            searched.extend(live[r].id for r in rows.tolist())
            return real(g, sizes, flat, rows, k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose_module, "_cluster_reach", record)
            TestFastHViewEqualsHoldingsUnion._check(g, live, k, d)
        return set(searched)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 14),
        p=st.sampled_from([0.1, 0.25, 0.5]),
        d=st.sampled_from([1, 2]),
        data=st.data(),
    )
    def test_random_clusters_over_two_components(self, seed, n, p, d, data):
        """Clusters may span both components; k up to 3n, and at the least
        k that covers a drawn cluster and one below it."""
        g = _two_components(seed, n, p)
        live = sorted(_random_live(data, g.n), key=lambda c: c.id)
        least = _cover_reach(g, live)
        ks = {data.draw(st.integers(1, 3 * g.n), label="k")}
        if least:
            t = int(least[data.draw(st.sampled_from(sorted(least)), label="cluster")])
            ks |= {t, t - 1} & set(range(1, t + 1))
        for k in sorted(ks):
            searched = self._searched(g, live, k, d)
            assert searched == {c.id for c in live if least.get(c.id, k + 1) > k}

    def test_cluster_in_two_components_is_searched(self):
        g = _two_components(0, 4, 1.0)  # two 4-cliques
        live = [LiveCluster(0, 0, {0, 4}, frozenset(), 0),
                LiveCluster(1, 1, {1}, frozenset(), 0),
                LiveCluster(2, 5, {5, 6}, frozenset(), 0)]
        assert self._searched(g, live, 20, 1) == {0}

    def test_full_row_lists_clusters_first_met_elsewhere(self):
        # cluster 1 spans both cliques; cluster 2's full row lists it,
        # although its smallest member lies in the other clique
        g = _two_components(0, 4, 1.0)
        live = [LiveCluster(0, 0, {0}, frozenset(), 0),
                LiveCluster(1, 3, {3, 7}, frozenset(), 0),
                LiveCluster(2, 5, {5}, frozenset(), 0)]
        assert self._searched(g, live, 2, 1) == {1}

    @pytest.mark.parametrize("spec", [
        ("gnp", {"n": 40, "p": 0.08, "largest_component": 1}, 2),
        ("gnp", {"n": 40, "p": 0.05}, 5),  # isolated nodes and small parts
        ("grid", {"rows": 4, "cols": 5}, 0),
        ("path", {"n": 12}, 0),
    ])
    def test_k_past_twice_the_diameter_searches_no_ball(self, spec):
        g = generate_graph(*spec)
        apd = all_pairs_distances(g)
        k = 2 * int(apd[apd < g.n].max()) or 1
        calls = []
        real = decompose_module._cluster_reach
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose_module, "_cluster_reach",
                       lambda *args: calls.append(args) or real(*args))
            fast = decompose(g, k)
        assert not calls  # the one ball kernel never ran
        sim = decompose(g, k, mode="sim")
        key = lambda r: [(c.id, c.center, c.members, c.color, c.tree_edges)
                         for c in r.decomposition.clusters]
        assert key(fast) == key(sim)
        assert fast.invariants_log == [{**log, "rounds": 0} for log in sim.invariants_log]

    def test_peak_memory_at_twice_mu(self):
        """A sparse graph's ball at k = 2μ is its whole component; held for
        every live cluster it takes memory quadratic in n (80 MB traced
        here when every row was searched)."""
        g = generate_graph("gnp", {"n": 2000, "p": 5 / 2000, "largest_component": 1}, 0)
        k = 2 * mst_radius(random_weights(g, 0))
        tracemalloc.start()
        try:
            res = decompose(g, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.decomposition.clusters
        assert peak < 20 * 2**20, peak


def _leaders_by_bfs(adj, cstar):
    """Reference merge leaders: per cluster, the nearest C* cluster within
    two hops of ``adj`` (dict by id) by a BFS from the cluster, ties to the
    smaller id."""
    want = {}
    for c in adj:
        dist = {c: 0}
        frontier = [c]
        for hop in (1, 2):
            frontier = [v for u in frontier for v in adj[u] if v not in dist]
            dist.update((v, hop) for v in frontier)
        near = [(dist[t], t) for t in cstar if t in dist]
        if near:
            want[c] = min(near)[1]
    return want


def _leaders_by_id(order, closed, cstar):
    """``_merge_leaders`` over positions, read back as a dict by id."""
    pos = {cid: i for i, cid in enumerate(order)}
    leader = _merge_leaders(closed, np.array([pos[c] for c in cstar], dtype=np.int64))
    return {order[p]: order[x] for p, x in enumerate(leader.tolist()) if x >= 0}


class TestMergeLeaders:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_nearest_cstar_within_two_hops_ties_to_smaller_id(self, data):
        ids = data.draw(st.lists(st.integers(0, 50), unique=True, max_size=16))
        adj = {c: set() for c in ids}
        if len(ids) > 1:
            pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
            for a, b in data.draw(st.lists(pairs, max_size=30)):
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
        cstar = sorted(data.draw(st.sets(st.sampled_from(ids))) if ids else [])
        order = sorted(ids)
        closed = _closed_rows(order, adj, set())
        assert _leaders_by_id(order, closed, cstar) == _leaders_by_bfs(adj, cstar)


def _cstar_by_h2_coloring(hv):
    """Reference C*: materialize H² = (A + I)² of the unmarked clusters
    without its diagonal, color every row first-fit in ascending id order
    with ``greedy_reduce``, then scan by (color, id) and keep each
    high-degree cluster whose H² row holds no earlier choice."""
    unmarked = [cid for cid in hv.order if cid not in hv.marked]
    if not unmarked:
        return []
    m = len(unmarked)
    idx = {cid: i for i, cid in enumerate(unmarked)}
    rows = [idx[cid] for cid in unmarked for _ in hv.adj[cid]]
    cols = [idx[u] for cid in unmarked for u in hv.adj[cid]]
    closed = sparse.csr_matrix(
        (np.ones(len(rows), dtype=bool), (rows, cols)), shape=(m, m)
    ) + sparse.identity(m, dtype=bool, format="csr")
    h2 = closed @ closed
    h2.setdiag(False)
    h2.eliminate_zeros()
    nb2 = np.split(h2.indices, h2.indptr[1:-1])
    colors = greedy_reduce(nb2, range(m))
    cstar = []
    blocked = np.zeros(m, dtype=bool)
    for i in np.argsort(colors, kind="stable").tolist():
        cid = unmarked[i]
        if not hv.high_degree[cid] or blocked[i]:
            continue
        cstar.append(cid)
        blocked[i] = True
        blocked[nb2[i]] = True
    return sorted(cstar)


def _hview(order, adj, high, marked):
    """An H-view holding only what C* selection reads, from dicts by id over
    ``order`` (ascending ids); and the same view as the reference reads it."""
    n = len(order)
    hv = HView(
        np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
        np.array([high[cid] for cid in order], dtype=bool).reshape(n),
        np.array([cid in marked for cid in order], dtype=bool).reshape(n),
        np.full(n, -1, dtype=np.int64), _closed_rows(order, adj, marked),
    )
    view = SimpleNamespace(order=order, adj=adj, high_degree=high, marked=marked)
    return hv, view


def _cstar_ids(hv, order):
    return [order[p] for p in _select_cstar(hv).tolist()]


class TestSelectCstar:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.6, 0.95, 1.0]),
        high_share=st.sampled_from([0.0, 0.3, 1.0]),
        marked_share=st.sampled_from([0.0, 0.2, 1.0]),
    )
    def test_equals_the_h2_coloring_scan(self, data, density, high_share, marked_share):
        """Random views: sparse to complete H, with no, some or only
        high-degree clusters, and none, some or all of them marked."""
        ids = sorted(data.draw(st.lists(st.integers(0, 10**6), unique=True, max_size=40)))
        rnd = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        marked = {cid for cid in ids if rnd.random() < marked_share}
        unmarked = [cid for cid in ids if cid not in marked]
        adj = {cid: set() for cid in unmarked}
        for i, a in enumerate(unmarked):
            for b in unmarked[i + 1 :]:
                if rnd.random() < density:
                    adj[a].add(b)
                    adj[b].add(a)
        high = {cid: bool(rnd.random() < high_share) for cid in ids}
        hv, view = _hview(ids, adj, high, marked)
        assert _cstar_ids(hv, ids) == _cstar_by_h2_coloring(view)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
        isolated_share=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_first_class_equals_the_plain_scan(self, data, density, isolated_share):
        """``_first_class``, which takes the H-isolated clusters in one
        step, against the ascending scan over every candidate."""
        m = data.draw(st.integers(1, 40))
        rnd = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        order = list(range(m))
        marked = {c for c in order if rnd.random() < 0.2}
        lone = {c for c in order if rnd.random() < isolated_share}
        adj = {c: set() for c in order if c not in marked}
        for a in adj:
            for b in adj:
                if a < b and not {a, b} & lone and rnd.random() < density:
                    adj[a].add(b)
                    adj[b].add(a)
        closed = _closed_rows(order, adj, marked)
        unscanned = np.array([c in adj and rnd.random() < 0.8 for c in order])
        cand, want = unscanned.copy(), []
        for v in order:
            if cand[v]:
                want.append(v)
                cand[row_entries(closed, row_entries(closed, np.array([v])))] = False
        assert _first_class(closed, unscanned).tolist() == want

    def test_dense_view_allocates_less_than_its_h2(self):
        # H is a star: every cluster lists the hub, so H² is complete while
        # H has 2(m - 1) entries.  Only the largest id is high-degree, so
        # the scan walks all m one-cluster classes of H² before it settles.
        m = 2000
        order = list(range(m))
        adj = {cid: {0} for cid in order}
        adj[0] = set(range(1, m))
        high = {cid: cid == m - 1 for cid in order}
        hv, _ = _hview(order, adj, high, set())
        h2_entries = m * m
        tracemalloc.start()
        try:
            cstar = _select_cstar(hv).tolist()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cstar == [m - 1]
        # far below one byte per H² entry; a materialized H² takes five
        # (an int32 index and a bool) per entry
        assert peak < h2_entries // 4, peak


class TestArrayControlPlane:
    """The H-view, C* and the merge leaders on arrays against the dict
    references, on the views of random clusterings of random graphs."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        model=st.sampled_from([
            ("gnp", {"n": 24, "p": 0.15}),
            ("gnp", {"n": 40, "p": 0.06}),
            ("grid", {"rows": 5, "cols": 6}),
            ("tree", {"n": 30}),
        ]),
        k=st.integers(1, 3),
        d=st.sampled_from([1, 2]),
        data=st.data(),
    )
    def test_equals_the_references(self, seed, model, k, d, data):
        g = generate_graph(model[0], model[1], seed)
        live = sorted(_random_live(data, g.n), key=lambda c: c.id)
        order = [c.id for c in live]
        hv = _build_hview(g, live, k, d, "fast", SimConfig(), RoundStats(),
                          _reach_bound(g, k))
        view = _dict_view(hv, order)
        in_ids, high, marked, marked_nb = _hview_by_holdings(g, live, k, d)
        assert (view.in_ids, view.high_degree, view.marked, view.marked_nb) == (
            in_ids, high, marked, marked_nb)
        # an unmarked pair is adjacent iff either perceives the other
        assert view.adj == {
            c: {o for o in order if o not in marked and (o in in_ids[c] or c in in_ids[o])}
            for c in order if c not in marked
        }
        cstar = _cstar_ids(hv, order)
        assert cstar == _cstar_by_h2_coloring(view)
        assert _leaders_by_id(order, hv.closed, cstar) == _leaders_by_bfs(view.adj, cstar)


    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), density=st.sampled_from([0.05, 0.2, 0.6]))
    def test_later_classes_color_h2_first_fit(self, data, density):
        """``_later_classes`` against ``greedy_reduce`` over a materialized
        H² restricted to the positions it colors."""
        m = data.draw(st.integers(1, 40))
        rnd = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        order = list(range(m))
        adj = {c: set() for c in order}
        for a in order:
            for b in order[a + 1 :]:
                if rnd.random() < density:
                    adj[a].add(b)
                    adj[b].add(a)
        todo = np.flatnonzero(rnd.random(m) < 0.7)
        if not len(todo):
            return
        indptr, indices = _closed_rows(order, adj, set())
        closed = sparse.csr_matrix(
            (np.ones(len(indices), dtype=bool), indices, indptr), shape=(m, m))
        h2 = (closed @ closed)[todo][:, todo]
        want = greedy_reduce(np.split(h2.indices, h2.indptr[1:-1]), range(len(todo)))
        got = _later_classes((indptr, indices), todo)
        assert [got[v] for v in todo.tolist()] == want

    @pytest.mark.parametrize("spec,k,d", [
        (("gnp", {"n": 40, "p": 0.12}, 1), 1, 1),
        (("gnp", {"n": 60, "p": 0.06}, 2), 2, 2),
        (("grid", {"rows": 6, "cols": 7}, 0), 2, 1),
        (("tree", {"n": 50}, 3), 3, 2),
    ])
    def test_sim_view_equals_fast_view(self, spec, k, d):
        """The engine's H-view arrays equal the sparse product's, on
        singletons and on the clusters of a decomposition."""
        g = generate_graph(*spec)
        clusterings = [
            [LiveCluster(cid, v, frozenset((v,)), frozenset(), 0)
             for v, cid in enumerate(g.ids)],
            sorted((_live_cluster(g, c.id, c.center, c.members)
                    for c in decompose(g, 1).decomposition.clusters),
                   key=lambda c: c.id),
        ]
        marked = 0
        for live in clusterings:
            views = [_build_hview(g, live, k, d, mode, SimConfig(), RoundStats(),
                                  _reach_bound(g, k) if mode == "fast" else None)
                     for mode in ("fast", "sim")]
            for field in ("in_ptr", "in_pos", "high", "marked", "marked_nb"):
                assert np.array_equal(getattr(views[0], field), getattr(views[1], field))
            for a, b in zip(views[0].closed, views[1].closed):
                assert np.array_equal(a, b)
            marked += int(views[0].marked.sum())
        assert marked or spec[0] == "tree"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        model=st.sampled_from([
            ("gnp", {"n": 30, "p": 0.1}),
            ("grid", {"rows": 5, "cols": 6}),
            ("tree", {"n": 30}),
        ]),
        k=st.integers(1, 3),
        data=st.data(),
    )
    def test_proximity_pairs_with_the_in_lists_pair_every_close_cluster(
        self, seed, model, k, data
    ):
        """Residual clusters (here: every cluster, with drawn radii) must
        differ in color iff they lie within max(k, 2r, 2r') of each other;
        the in-lists give the pairs within k (the clusters being
        low-degree), ``_proximity_pairs`` the rest."""
        g = generate_graph(model[0], model[1], seed)
        live = sorted(_random_live(data, g.n), key=lambda c: c.id)
        live = [LiveCluster(c.id, c.center, c.members, frozenset(),
                            data.draw(st.integers(0, 3), label="radius"))
                for c in live]
        apd = all_pairs_distances(g)
        gap = lambda a, b: apd[np.ix_(sorted(a.members), sorted(b.members))].min()
        want = {
            (i, j) for i, a in enumerate(live) for j, b in enumerate(live)
            if i != j and gap(a, b) <= max(k, 2 * a.radius, 2 * b.radius)
        }
        got = {(i, j) for i, a in enumerate(live) for j, b in enumerate(live)
               if i != j and gap(a, b) <= k}
        residual = np.arange(len(live))
        for i, j in _proximity_pairs(g, live, residual, k):
            got |= {(i, j), (j, i)}
        assert got == want


def _trees_in_all_cells(g, group):
    """Reference trees: one Voronoi cell per cluster of the class and one
    BFS from each center inside its cell, pruned to the center -> member
    paths, single-node clusters included."""
    ranked = sorted(group)
    owner = voronoi_cells(g, [members for _, _, members in ranked])
    trees = {}
    for r, (cid, center, members) in enumerate(ranked):
        cell = {v for v in range(g.n) if owner[v] == r}
        parent = {}
        _bfs_idx(g, [center], targets=members, parent=parent, within=cell)
        trees[cid] = path_union(parent, members)
    return trees


class TestColorClassTrees:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        model=st.sampled_from([
            ("gnp", {"n": 60, "p": 0.06}),
            ("gnp", {"n": 60, "p": 0.06, "largest_component": 1}),
            ("grid", {"rows": 7, "cols": 9}),
            ("tree", {"n": 80}),
        ]),
        k=st.integers(1, 3),
        with_init=st.booleans(),
    )
    def test_single_node_trees_empty_and_others_unchanged(self, seed, model, k, with_init):
        """Every cluster keeps the tree it was built with; it must be the
        tree a BFS inside its Voronoi cell among the clusters of its color
        gives, and empty for a single node."""
        g = generate_graph(model[0], model[1], seed)
        init = decompose(g, 1).decomposition.clusters if with_init else None
        by_color = {}
        for c in decompose(g, k, init=init).decomposition.clusters:
            by_color.setdefault(c.color, []).append(c)
        for group in by_color.values():
            want = _trees_in_all_cells(g, [(c.id, c.center, c.members) for c in group])
            assert {c.id: c.tree_edges for c in group} == want
            for c in group:
                if len(c.members) == 1:
                    assert c.tree_edges == frozenset()

    def test_class_of_single_nodes_searches_nothing(self):
        g = generate_graph("path", {"n": 9}, 0)

        def refuse(*_args, **_kwargs):
            raise AssertionError("no search expected")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose_module, "_bfs_idx", refuse)
            clusters = decompose(g, 1).decomposition.clusters
        assert sorted((min(c.members), c.members, c.tree_edges) for c in clusters) == [
            (v, frozenset({v}), frozenset()) for v in range(9)]


# (model, params, seed) and k.  A convergecast that counts ids shared by
# several members twice makes sim mode disagree with fast mode, or raise,
# on 10 of the first 13 inputs.  None of those marks a cluster; the last
# two do (the star's hub; 16 marked and 278 in C* on the gnp graph).
MARKED_CASES = [
    (("star", {"n": 300}, 0), 1),
    (("gnp", {"n": 300, "p": 0.0133}, 12), 12),
]
SIM_FAST_CASES = [(("grid", {"rows": 20, "cols": 20}, 0), 4)] + [
    (("gnp", {"n": n, "p": 0.02}, seed), k)
    for n in (200, 500)
    for seed in range(3)
    for k in (1, 2)
] + MARKED_CASES


def _graph(spec):
    """``generate_graph(*spec)``, plus a star on n nodes around node 0."""
    model, params, seed = spec
    if model == "star":
        return Graph(range(params["n"]), [(0, i) for i in range(1, params["n"])])
    return generate_graph(model, params, seed)


def _also_on(cases):
    """Run a hypothesis test over ``spec`` and ``k`` on these cases too."""
    def deco(test):
        for spec, k in reversed(cases):
            test = example(spec=spec, k=k)(test)
        return test
    return deco


class TestModesAndDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(
        spec=st.builds(
            lambda seed: ("gnp", {"n": 22, "p": 0.16, "largest_component": True}, seed),
            st.integers(0, 500),
        ),
        k=st.integers(1, 3),
    )
    @_also_on(SIM_FAST_CASES)
    def test_sim_matches_fast(self, spec, k):
        g = _graph(spec)
        fast = decompose(g, k, mode="fast")
        sim = decompose(g, k, mode="sim")
        key = lambda r: [
            (c.id, c.center, c.members, c.color, c.tree_edges)
            for c in r.decomposition.clusters
        ]
        assert key(fast) == key(sim)
        assert fast.invariants_log == [
            {**log, "rounds": 0} for log in sim.invariants_log
        ]
        assert sim.stats.rounds > 0 and fast.stats.rounds == 0

    @pytest.mark.parametrize("spec,k", MARKED_CASES)
    def test_marked_cases_mark(self, spec, k):
        assert sum(log.marked for log in decompose(_graph(spec), k).phases) > 0

    def test_identical_inputs_identical_output(self):
        g = generate_graph("gnp", {"n": 80, "p": 0.06, "largest_component": True}, 11)
        a, b = decompose(g, 2), decompose(g, 2)
        assert [
            (c.id, c.members, c.color) for c in a.decomposition.clusters
        ] == [(c.id, c.members, c.color) for c in b.decomposition.clusters]

    def test_monotone_relabel_changes_nothing(self):
        g = generate_graph("gnp", {"n": 60, "p": 0.08, "largest_component": True}, 3)
        base = decompose(g, 2)
        shift = 2**120
        mapping = {i: i * 17 + shift for i in g.ids}
        g2 = g.relabeled(mapping)
        moved = decompose(g2, 2)
        a = sorted(
            (frozenset(g.ids[v] for v in c.members), c.color)
            for c in base.decomposition.clusters
        )
        b = sorted(
            (frozenset(g2.ids[v] for v in c.members), c.color)
            for c in moved.decomposition.clusters
        )
        assert [
            (frozenset(mapping[x] for x in mem), col) for mem, col in a
        ] == b


class TestInvariants:
    def test_phase_logs_satisfy_a_and_c(self):
        for seed in range(6):
            g = generate_graph(
                "gnp", {"n": 250, "p": 0.03, "largest_component": True}, seed
            )
            res = decompose(g, 2)
            d = res.d
            assert len(res.phases) <= growth_parameters(res.n_initial_clusters)[0] + 1
            for log in res.phases:
                assert log.cluster_count * d**log.phase <= res.n_initial_clusters
                assert log.max_overlap <= log.phase * 13 * d**3
            _colors_ok(g, res, 2)

    def test_phase_palettes_disjoint(self):
        g = generate_graph("gnp", {"n": 150, "p": 0.05, "largest_component": True}, 5)
        res = decompose(g, 2)
        if len(res.phases) < 2:
            pytest.skip("needs a multi-phase run")
        # colors strictly increase across phases by construction; the
        # validator already confirmed propriety, so distinct suffices
        assert res.decomposition.colors_used == len(
            {c.color for c in res.decomposition.clusters}
        )


class TestInitClusters:
    def _pair_init(self, g):
        init = []
        for v in range(0, g.n - 1, 2):
            init.append(
                Cluster(
                    id=g.ids[v], center=v,
                    members=frozenset({v, v + 1}),
                    tree_edges=frozenset({(v, v + 1)}),
                )
            )
        if g.n % 2:
            v = g.n - 1
            init.append(
                Cluster(id=g.ids[v], center=v, members=frozenset({v}),
                        tree_edges=frozenset())
            )
        return init

    def test_co_membership_preserved(self):
        g = generate_graph("path", {"n": 10}, 0)
        init = self._pair_init(g)
        res = decompose(g, 2, init=init)
        _colors_ok(g, res, 2)
        owner = {}
        for c in res.decomposition.clusters:
            for v in c.members:
                owner[v] = c.id
        for c in init:
            assert len({owner[v] for v in c.members}) == 1

    def test_init_must_cover(self):
        g = generate_graph("path", {"n": 4}, 0)
        init = [Cluster(id=0, center=0, members=frozenset({0}), tree_edges=frozenset())]
        with pytest.raises(DecomposeError):
            decompose(g, 1, init=init)

    def test_init_must_not_overlap(self):
        g = generate_graph("path", {"n": 2}, 0)
        init = [
            Cluster(id=0, center=0, members=frozenset({0, 1}), tree_edges=frozenset({(0, 1)})),
            Cluster(id=1, center=1, members=frozenset({1}), tree_edges=frozenset()),
        ]
        with pytest.raises(DecomposeError):
            decompose(g, 1, init=init)
