"""Timing wrappers around the public calls of every ``netdecomp`` module.

A module that does ``from .graphs import _bfs_idx`` holds its own binding,
so each wrapper is installed in every consumer namespace that calls the
function, not only in the defining module.  Spans (name, start, end,
parent, self time) stay in memory until the run ends.  Hot leaf calls
(``_bfs_idx``, ``node_rng``, ``Graph.adjacency_csr``) are aggregated per
name instead of stored one span per call; their time is still subtracted
from the enclosing span's self time and charged to their own layer.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# (layer, public name, consumer modules that call it, leaf)
WRAPPED = [
    ("graphs", "_bfs_idx",
     ("graphs", "clustering", "covers", "decompose", "mis", "carving"), True),
    ("graphs", "induced_subgraph", ("graphs", "mis"), False),
    ("graphs", "load_graph", ("graphs", "cli"), False),
    ("graphs", "generate_graph", ("graphs", "cli"), False),
    ("graphs", "random_weights", ("graphs", "cli"), False),
    ("coloring", "linial_color", ("coloring", "decompose"), False),
    ("coloring", "greedy_reduce", ("coloring", "decompose"), False),
    ("simulate", "run", ("simulate", "mis"), False),
    ("simulate", "node_rng", ("simulate", "mis", "carving"), True),
    ("simulate", "bounded_flood", ("simulate", "decompose"), False),
    ("simulate", "min_gossip", ("simulate", "decompose"), False),
    ("simulate", "cluster_convergecast",
     ("simulate", "decompose"), False),
    ("simulate", "ghaffari_engine", ("mis",), False),
    ("decompose", "decompose",
     ("decompose", "mis", "cli"), False),
    ("carving", "carve_decompose", ("carving", "mis", "cli"), False),
    ("carving", "ball_grow_refine", ("carving", "mis", "cli"), False),
    ("mis", "mis_full", ("mis", "cli"), False),
    ("mis", "run_ghaffari", ("mis",), False),
    ("mis", "ruling_set", ("mis",), False),
    ("mis", "build_meta_graph", ("mis",), False),
    ("mis", "shatter_check", ("mis",), False),
    ("covers", "cover_mst", ("covers", "cli"), False),
    ("covers", "mst_radius", ("covers", "cli"), False),
    ("covers", "cover_from_decomposition", ("covers", "cli"), False),
    ("covers", "kruskal_oracle", ("covers", "cli"), False),
    ("covers", "prim_oracle", ("covers",), False),
    ("covers", "mst_radius_scipy", ("covers",), False),
    ("clustering", "validate_decomposition",
     ("clustering", "covers", "cli"), False),
    ("clustering", "validate_cover", ("clustering", "cli"), False),
    ("clustering", "validate_mis", ("clustering", "cli"), False),
    ("clustering", "weak_diameter", ("clustering",), False),
    ("cli", "run_seed", ("cli",), False),
]
LAYER_OF = {name: layer for layer, name, *_ in WRAPPED}
LAYER_OF["adjacency_csr"] = "graphs"
ORACLES = frozenset({"kruskal_oracle", "prim_oracle", "mst_radius_scipy"})
LAYERS = ("graphs", "coloring", "simulate", "decompose", "carving", "mis",
          "covers", "clustering", "cli")


class Tracer:
    """Installs the wrappers, records spans and counters, and removes the
    wrappers again on ``uninstall``."""

    def __init__(self, modules: dict):
        self.modules = modules              # short name -> module object
        self.spans: list = []               # (name, start, end, parent, self_s)
        self.stack: list[list] = []         # open frames: [index, child_s, name]
        self.leaf_calls: dict = defaultdict(int)
        self.leaf_s: dict = defaultdict(float)
        self.leaf_s_by_caller: dict = defaultdict(float)  # (leaf, caller span)
        self.counts: dict = defaultdict(int)
        self.max_edge_bits = 0
        self._saved: list[tuple] = []

    def _span(self, name, fn):
        tracer = self
        hook = _COUNT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0, name]
            tracer.spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans[frame[0]] = (name, t0, t1, parent, t1 - t0 - frame[1])
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                hook(tracer, stack[-1][2] if stack else "", args, kwargs, out)
            return out

        return wrapper

    def _leaf(self, name, fn):
        tracer = self
        hook = _COUNT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            tracer.leaf_calls[name] += 1
            tracer.leaf_s[name] += dt
            caller = ""
            if tracer.stack:
                tracer.stack[-1][1] += dt
                caller = tracer.stack[-1][2]
            tracer.leaf_s_by_caller[(name, caller)] += dt
            if hook is not None:
                hook(tracer, "", args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for _layer, name, consumers, leaf in WRAPPED:
            make = self._leaf if leaf else self._span
            for mod_name in consumers:
                mod = self.modules[mod_name]
                current = getattr(mod, name)
                self._saved.append((mod, name, current))
                setattr(mod, name, make(name, current))
        graph_cls = self.modules["graphs"].Graph
        original_csr = graph_cls.adjacency_csr
        self._saved.append((graph_cls, "adjacency_csr", original_csr))
        graph_cls.adjacency_csr = self._leaf("adjacency_csr", original_csr)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def mark(self) -> tuple:
        """Start a window; pass the result to ``window`` when it ends."""
        self.max_edge_bits = 0
        return (len(self.spans), dict(self.leaf_calls), dict(self.leaf_s),
                dict(self.leaf_s_by_caller), dict(self.counts))

    def window(self, mark: tuple) -> "Window":
        start, calls0, secs0, by_caller0, counts0 = mark
        return Window(
            spans=self.spans,
            start=start,
            leaf_calls={k: v - calls0.get(k, 0) for k, v in self.leaf_calls.items()},
            leaf_s={k: v - secs0.get(k, 0.0) for k, v in self.leaf_s.items()},
            leaf_s_by_caller={k: v - by_caller0.get(k, 0.0)
                              for k, v in self.leaf_s_by_caller.items()},
            counts={k: v - counts0.get(k, 0) for k, v in self.counts.items()},
            max_edge_bits=self.max_edge_bits,
        )


class Window:
    """Spans and counter deltas recorded between two points of a run."""

    def __init__(self, spans, start, leaf_calls, leaf_s, leaf_s_by_caller, counts,
                 max_edge_bits):
        self.spans = spans[start:]
        self.leaf_calls = defaultdict(int, leaf_calls)
        self.leaf_s = defaultdict(float, leaf_s)
        self.leaf_s_by_caller = leaf_s_by_caller
        self.counts = defaultdict(int, counts)
        self.max_edge_bits = max_edge_bits
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.oracle_s = 0.0
        for name, t0, t1, parent, self_time in self.spans:
            self.total_s[name] += t1 - t0
            self.self_s[name] += self_time
            self.calls[name] += 1
            if name in ORACLES and (parent < 0 or spans[parent][0] not in ORACLES):
                self.oracle_s += t1 - t0

    def layer_self_s(self) -> dict:
        """Self seconds per layer: together they cover all time spent
        inside wrapped calls, with nothing counted twice."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.self_s.items():
            out[LAYER_OF[name]] += secs
        for name, secs in self.leaf_s.items():
            out[LAYER_OF[name]] += secs
        return out

    def metrics(self) -> dict:
        c, calls, tot, slf = self.counts, self.calls, self.total_s, self.self_s
        messages = c["sim_messages"]
        return {
            "graphs.bfs_calls": self.leaf_calls["_bfs_idx"],
            "graphs.bfs_s": self.leaf_s["_bfs_idx"],
            "graphs.bfs_visit_ratio": _ratio(c["bfs_reached"], c["bfs_nodes"]),
            "graphs.induced_subgraph_calls": calls["induced_subgraph"],
            "graphs.induced_subgraph_s": tot["induced_subgraph"],
            "graphs.csr_s": self.leaf_s["adjacency_csr"],
            "graphs.load_s": tot["load_graph"],
            "graphs.generate_s": tot["generate_graph"] + tot["random_weights"],
            "coloring.linial_calls": calls["linial_color"],
            "coloring.linial_s": tot["linial_color"],
            "coloring.greedy_s": tot["greedy_reduce"],
            "simulate.run_calls": calls["run"],
            "simulate.run_s": tot["run"],
            "simulate.flood_s": tot["bounded_flood"],
            "simulate.convergecast_s": tot["cluster_convergecast"],
            "simulate.lanes_s": tot["ghaffari_engine"],
            "simulate.us_per_message": _ratio(tot["run"] * 1e6, messages),
            "simulate.node_rng_calls": self.leaf_calls["node_rng"],
            "simulate.node_rng_s": self.leaf_s["node_rng"],
            "simulate.rounds": c["sim_rounds"],
            "simulate.messages": messages,
            "simulate.max_edge_bits": self.max_edge_bits,
            "simulate.budget_violations": c["sim_budget_violations"],
            "decompose.calls": calls["decompose"],
            "decompose.self_s": slf["decompose"],
            "decompose.phases": c["dec_phases"],
            "decompose.clusters": c["dec_clusters"],
            "decompose.colors": c["dec_colors"],
            "decompose.modeled_rounds": c["dec_modeled_rounds"],
            "carving.carve_s": tot["carve_decompose"],
            "carving.ballgrow_s": tot["ball_grow_refine"],
            "carving.carve_runs": c["carve_runs"],
            "carving.carve_adopt_ratio": _ratio(c["carve_adopted"], c["carve_runs"]),
            "carving.ballgrow_phases": c["ballgrow_phases"],
            "mis.full_self_s": slf["mis_full"],
            "mis.ghaffari_calls": calls["run_ghaffari"],
            "mis.ghaffari_s": tot["run_ghaffari"],
            "mis.lane_adopt_ratio": _ratio(c["lane_adopted"], c["lane_runs"]),
            "mis.ruling_set_s": tot["ruling_set"],
            "mis.meta_graph_s": tot["build_meta_graph"],
            "mis.shatter_s": tot["shatter_check"],
            "mis.undecided_after_preshatter": c["undecided_after_preshatter"],
            "covers.cover_mst_self_s": slf["cover_mst"],
            "covers.mst_radius_calls": calls["mst_radius"],
            "covers.mst_radius_s": tot["mst_radius"],
            "covers.cover_s": tot["cover_from_decomposition"],
            "covers.oracle_s": self.oracle_s,
            "covers.mu": c["mu"],
            "covers.sparsity": c["sparsity"],
            "clustering.validate_decomposition_s": tot["validate_decomposition"],
            "clustering.validate_cover_s": tot["validate_cover"],
            "clustering.validate_mis_s": tot["validate_mis"],
            "clustering.weak_diameter_calls": calls["weak_diameter"],
            "clustering.weak_diameter_s": tot["weak_diameter"],
            "cli.self_s": slf["run_seed"],
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
# -- counters taken from arguments and return values ----------------------


def _count_bfs(tr, _parent, _args, _kw, dist):
    tr.counts["bfs_nodes"] += len(dist)
    tr.counts["bfs_reached"] += len(dist) - dist.count(-1)


def _count_run(tr, _parent, _args, _kw, out):
    stats = out[1]
    tr.counts["sim_rounds"] += stats.rounds
    tr.counts["sim_messages"] += stats.total_messages
    tr.counts["sim_budget_violations"] += len(stats.budget_violations)
    tr.max_edge_bits = max(tr.max_edge_bits, stats.max_bits_per_edge_round)


def _count_decompose(tr, _parent, _args, _kw, res):
    tr.counts["dec_phases"] += len(res.phases)
    tr.counts["dec_clusters"] += len(res.decomposition.clusters)
    tr.counts["dec_colors"] += res.decomposition.colors_used
    tr.counts["dec_modeled_rounds"] += sum(p.modeled_rounds for p in res.phases)


def _count_carve(tr, _parent, _args, _kw, out):
    diags = out[1]
    tr.counts["carve_runs"] += len(diags)
    tr.counts["carve_adopted"] += sum(1 for d in diags if d.success)


def _count_ballgrow(tr, _parent, _args, _kw, out):
    tr.counts["ballgrow_phases"] += len(out[1])


def _count_ghaffari(tr, parent_name, args, kwargs, out):
    lane = kwargs.get("lane", args[3] if len(args) > 3 else 0)
    if lane > 0:
        tr.counts["lane_runs"] += 1
        tr.counts["lane_adopted"] += not out[2]
    elif parent_name == "mis_full":
        tr.counts["undecided_after_preshatter"] += len(out[2])


def _count_cover_mst(tr, _parent, _args, _kw, res):
    tr.counts["mu"] += res.mu
    tr.counts["sparsity"] += res.cover_sparsity


_COUNT_HOOKS = {
    "_bfs_idx": _count_bfs,
    "run": _count_run,
    "decompose": _count_decompose,
    "carve_decompose": _count_carve,
    "ball_grow_refine": _count_ballgrow,
    "run_ghaffari": _count_ghaffari,
    "cover_mst": _count_cover_mst,
}


# name -> (unit, better, exact, what it should move).  ``exact`` counts must
# repeat bit for bit across passes and runs of one seed.  BENCHMARK.json
# lists the same names, units and directions.
PER_LAYER = {
    "graphs.bfs_calls": ("count", "lower", False, "algo_s and verify_s on decomp"),
    "graphs.bfs_s": ("s", "lower", False, "algo_s and verify_s on decomp"),
    "graphs.bfs_visit_ratio": ("ratio", "higher", False, "algo_s and verify_s on decomp"),
    "graphs.induced_subgraph_calls": ("count", "lower", False, "algo_s on pipelines"),
    "graphs.induced_subgraph_s": ("s", "lower", False, "algo_s on pipelines"),
    "graphs.csr_s": ("s", "lower", False, "algo_s on pipelines"),
    "graphs.load_s": ("s", "lower", False, "algo_s on decomp"),
    "graphs.generate_s": ("s", "lower", False, "setup_s and peak_rss_mb on pipelines"),
    "coloring.linial_calls": ("count", "lower", False, "algo_s on decomp"),
    "coloring.linial_s": ("s", "lower", False, "algo_s on decomp"),
    "coloring.greedy_s": ("s", "lower", False, "algo_s on decomp"),
    "simulate.run_calls": ("count", "lower", False, "algo_s on decomp"),
    "simulate.run_s": ("s", "lower", False, "algo_s on decomp and pipelines"),
    "simulate.flood_s": ("s", "lower", False, "algo_s on decomp"),
    "simulate.convergecast_s": ("s", "lower", False, "algo_s on decomp"),
    "simulate.lanes_s": ("s", "lower", False, "algo_s on pipelines"),
    "simulate.us_per_message": ("us", "lower", False, "algo_s on decomp and pipelines"),
    "simulate.node_rng_calls": ("count", "lower", False, "algo_s on pipelines"),
    "simulate.node_rng_s": ("s", "lower", False, "algo_s on pipelines"),
    "simulate.rounds": ("count", "lower", True, "nothing: a simulator speed-up keeps it"),
    "simulate.messages": ("count", "lower", True, "nothing: a simulator speed-up keeps it"),
    "simulate.max_edge_bits": ("bits", "lower", True, "nothing: a simulator speed-up keeps it"),
    "simulate.budget_violations": ("count", "lower", True, "nothing: a simulator speed-up keeps it"),
    "decompose.calls": ("count", "lower", False, "algo_s on decomp and pipelines"),
    "decompose.self_s": ("s", "lower", False, "algo_s on decomp and pipelines"),
    "decompose.phases": ("count", "lower", True, "nothing: a speed-up keeps it"),
    "decompose.clusters": ("count", "lower", True, "nothing: a speed-up keeps it"),
    "decompose.colors": ("count", "lower", True, "nothing: a speed-up keeps it"),
    "decompose.modeled_rounds": ("count", "lower", True, "nothing: a speed-up keeps it"),
    "carving.carve_s": ("s", "lower", False, "algo_s on pipelines"),
    "carving.ballgrow_s": ("s", "lower", False, "algo_s on pipelines"),
    "carving.carve_runs": ("count", "lower", False, "algo_s on pipelines"),
    "carving.carve_adopt_ratio": ("ratio", "higher", False, "algo_s on pipelines"),
    "carving.ballgrow_phases": ("count", "lower", False, "algo_s on pipelines"),
    "mis.full_self_s": ("s", "lower", False, "algo_s on pipelines"),
    "mis.ghaffari_calls": ("count", "lower", False, "algo_s on pipelines"),
    "mis.ghaffari_s": ("s", "lower", False, "algo_s on pipelines"),
    "mis.lane_adopt_ratio": ("ratio", "higher", False, "algo_s on pipelines"),
    "mis.ruling_set_s": ("s", "lower", False, "algo_s on pipelines"),
    "mis.meta_graph_s": ("s", "lower", False, "algo_s on pipelines"),
    "mis.shatter_s": ("s", "lower", False, "algo_s on pipelines"),
    "mis.undecided_after_preshatter": ("count", "lower", False, "algo_s on pipelines"),
    "covers.cover_mst_self_s": ("s", "lower", False, "algo_s on pipelines"),
    "covers.mst_radius_calls": ("count", "lower", False, "algo_s on pipelines"),
    "covers.mst_radius_s": ("s", "lower", False, "algo_s on pipelines"),
    "covers.cover_s": ("s", "lower", False, "algo_s on pipelines"),
    "covers.oracle_s": ("s", "lower", False, "verify_s on pipelines"),
    "covers.mu": ("count", "lower", True, "nothing: a speed-up keeps it"),
    "covers.sparsity": ("count", "lower", True, "nothing: a speed-up keeps it"),
    "clustering.validate_decomposition_s": ("s", "lower", False, "verify_s on decomp"),
    "clustering.validate_cover_s": ("s", "lower", False, "verify_s on pipelines"),
    "clustering.validate_mis_s": ("s", "lower", False, "verify_s on pipelines"),
    "clustering.weak_diameter_calls": ("count", "lower", False, "verify_s on decomp"),
    "clustering.weak_diameter_s": ("s", "lower", False, "verify_s on decomp"),
    "cli.self_s": ("s", "lower", False, "certified_s on decomp and pipelines"),
}
