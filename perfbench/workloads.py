"""The benchmark workloads: inputs made from the workload seed, the
operations of one pass, and the independent check behind every operation.

Operations that the CLI can express go through ``netdecomp.cli.run_seed``
on graph files written during setup, so CLI-only work is measured too.  The
rest call the library.  Every call goes through a module attribute at call
time, so the timing wrappers of a traced run see it.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
from scipy.sparse.csgraph import connected_components

from netdecomp import (
    carving,
    cli,
    clustering,
    covers,
    decompose,
    graphs,
    mis,
    simulate,
)

# The CLI validates its own runs; these bindings are its verification step.
CLI_VERIFIERS = ("validate_decomposition", "validate_cover", "validate_mis",
                 "kruskal_oracle")


class Clock:
    """Splits the time of a pass into algorithm calls and verification.
    CLI runs are split only while a ``CliVerifyTimer`` points at the clock."""

    def __init__(self):
        self.algo_s = 0.0
        self.verify_s = 0.0

    def algo(self, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.algo_s += perf_counter() - t0

    def verify(self, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.verify_s += perf_counter() - t0

    def cli(self, argv: list[str], seed: int) -> dict:
        args = cli.build_parser().parse_args(argv)
        verify_before = self.verify_s
        t0 = perf_counter()
        try:
            return cli.run_seed(args, seed)
        finally:
            inner_verify = self.verify_s - verify_before
            self.algo_s += perf_counter() - t0 - inner_verify


class CliVerifyTimer:
    """Charges the CLI's own validator calls to the current pass's clock."""

    def __init__(self):
        self.clock: Clock | None = None
        self._saved = [(name, getattr(cli, name)) for name in CLI_VERIFIERS]
        for name, fn in self._saved:
            setattr(cli, name, self._timed(fn))

    def _timed(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.clock is not None:
                    self.clock.verify_s += perf_counter() - t0
        return wrapper

    def close(self) -> None:
        for name, fn in self._saved:
            setattr(cli, name, fn)


# -- checks ---------------------------------------------------------------
# Each returns a list of failure lines; an empty list means the output passed.


def check_cli(entry: dict) -> list[str]:
    if entry.get("valid") is True:
        return []
    return [f"CLI validator: {f}" for f in entry.get("failures") or ["verdict False"]]


def check_decomposition(clock: Clock, g, dec) -> list[str]:
    rep = clock.verify(clustering.validate_decomposition, g, dec)
    return [] if rep.valid else [f"validate_decomposition: {f}" for f in rep.failures]


def check_equal(what: str, got, want) -> list[str]:
    if got == want:
        return []
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        bad = sum(1 for a, b in zip(got, want) if a != b)
        return [f"{what}: {bad} of {len(want)} entries differ from the oracle"]
    return [f"{what}: differs from the oracle"]


def check_mst(clock: Clock, g, edge_ids) -> list[str]:
    """``edge_ids`` as (id, id) pairs, compared with Kruskal and Prim."""
    got = {tuple(sorted(e)) for e in edge_ids}
    out = []
    for oracle in (covers.kruskal_oracle, covers.prim_oracle):
        tree = clock.verify(oracle, g)
        want = {tuple(sorted((g.ids[a], g.ids[b]))) for a, b in tree}
        if got != want:
            out.append(f"MST differs from {oracle.__name__} on "
                       f"{len(got ^ want)} edges")
    return out


def check_mu(clock: Clock, g, mus: dict) -> list[str]:
    want = clock.verify(covers.mst_radius_scipy, g)
    return [f"{what}={mu} but mst_radius_scipy={want}"
            for what, mu in mus.items() if mu != want]


def check_mis(clock: Clock, g, mis_set) -> list[str]:
    ok, why = clock.verify(clustering.validate_mis, g, mis_set)
    return [] if ok else [f"validate_mis: {why}"]


# -- workloads ------------------------------------------------------------


@dataclass
class Op:
    name: str
    run: Callable[[Clock], tuple[object, list[str]]]  # (output, failures)


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], list[Op]]


def _write(g, workdir: Path, name: str) -> str:
    path = workdir / f"{name}.json"
    graphs.save_graph_json(g, str(path))
    return str(path)


def _cli_op(name: str, argv: list[str], seed: int, extra=None) -> Op:
    def run(clock: Clock):
        entry = clock.cli(argv + ["--seeds", str(seed)], seed)
        failures = check_cli(entry)
        if extra is not None:
            failures += extra(clock, entry)
        return entry, failures
    return Op(name, run)


def grid_ops(seed: int, workdir: Path) -> list[Op]:
    grid = graphs.generate_graph("grid", {"rows": 45, "cols": 45}, seed)
    tree = graphs.generate_graph("tree", {"n": 2000}, seed)
    return [
        _cli_op("netdecomp grid 45x45 k=1",
                ["--graph", _write(grid, workdir, "grid"), "--algo", "netdecomp",
                 "--k", "1"], seed),
        _cli_op("netdecomp tree n=2000 k=3",
                ["--graph", _write(tree, workdir, "tree"), "--algo", "netdecomp",
                 "--k", "3"], seed),
    ]


def _gossip_oracle(g, values: dict, hops: int) -> list:
    """Minimum value within ``hops`` of each node, by repeated relaxation."""
    best = [values.get(v) for v in range(g.n)]
    for _ in range(hops):
        nxt = list(best)
        for v in range(g.n):
            for u in g.neighbors[v]:
                if best[u] is not None and (nxt[v] is None or best[u] < nxt[v]):
                    nxt[v] = best[u]
        best = nxt
    return best


def _engine_steps(tag: str, g, k: int) -> list[Op]:
    """The engine steps one simulated decomposition phase is built from:
    bounded floods of single nodes and of clusters, min-gossip and a
    convergecast over the cluster trees, each against its centralized
    oracle.  The clusters come from the fast decomposition, which is
    certified first."""
    fanin = 2 * decompose.growth_parameters(g.n)[1] + 1
    state: dict = {}

    def decompose_fast(clock: Clock):
        res = clock.algo(decompose.decompose, g, k, mode="fast")
        state["dec"] = res.decomposition
        failures = check_decomposition(clock, g, res.decomposition)
        return clustering.decomposition_to_json(g, res.decomposition), failures

    def flood(sources):
        def run(clock: Clock):
            held, stats = clock.algo(
                simulate.bounded_flood, g, sources(), k, fanin, simulate.SimConfig()
            )
            want = clock.verify(simulate.bounded_flood_oracle, g, sources(), k, fanin)
            got = [sorted(h) for h in held]
            return ({"held": got, "stats": stats.to_json()},
                    check_equal("bounded_flood", got, [sorted(h) for h in want]))
        return run

    def singles():
        return {v: (g.ids[v], None) for v in range(g.n)}

    def cluster_sources():
        return {m: (c.id, None) for c in state["dec"].clusters for m in c.members}

    def gossip(clock: Clock):
        values = {m: c.id for c in state["dec"].clusters for m in c.members}
        got, stats = clock.algo(simulate.min_gossip, g, values, k, simulate.SimConfig())
        want = clock.verify(_gossip_oracle, g, values, k)
        return ({"min": got, "stats": stats.to_json()},
                check_equal("min_gossip", list(got), want))

    def convergecast(clock: Clock):
        clusters = state["dec"].clusters
        values = {m: {c.id: [1]} for c in clusters for m in c.members}
        got, stats = clock.algo(
            simulate.cluster_convergecast, g, clusters, values,
            simulate.SimConfig(), combine="count",
        )
        want = {c.id: len(c.members) for c in clusters}
        return ({"sizes": sorted(got.items()), "stats": stats.to_json()},
                check_equal("cluster_convergecast", got, want))

    return [
        Op(f"decompose fast {tag}", decompose_fast),
        Op(f"flood singletons {tag}", flood(singles)),
        Op(f"flood clusters {tag}", flood(cluster_sources)),
        Op(f"gossip clusters {tag}", gossip),
        Op(f"convergecast clusters {tag}", convergecast),
    ]


def engine_ops(seed: int) -> list[Op]:
    dense = graphs.generate_graph("gnp", {"n": 500, "p": 0.02}, seed)
    sparse = graphs.generate_graph(
        "gnp", {"n": 2000, "p": 0.002, "largest_component": 1}, seed
    )
    return (_engine_steps("gnp n=500 k=2", dense, 2)
            + _engine_steps("gnp n=2000 k=2", sparse, 2))


def mst_ops(seed: int, workdir: Path) -> list[Op]:
    # four small graphs rather than two larger ones: the cost of one graph
    # follows its mu, which varies with the seed, and the sum varies less
    ops = []
    for i in range(4):
        g = graphs.random_weights(
            graphs.generate_graph(
                "gnp", {"n": 300, "p": 0.0133, "largest_component": 1}, seed * 4 + i
            ),
            seed * 4 + i,
        )

        def extra(clock, entry, g=g):
            return (check_mst(clock, g, entry["mst"]["mst_edges"])
                    + check_mu(clock, g, {"mu": entry["mu"],
                                          "mst_radius": entry["mst_radius"]}))

        ops.append(_cli_op(f"mst gnp n=300 #{i}",
                           ["--graph", _write(g, workdir, f"mst{i}"), "--algo", "mst"],
                           seed, extra))
    cov = graphs.generate_graph(
        "gnp", {"n": 1000, "p": 0.004, "largest_component": 1}, seed
    )
    ops.append(_cli_op("cover gnp n=1000 k=2",
                       ["--graph", _write(cov, workdir, "cover"), "--algo", "cover",
                        "--k", "2"], seed))
    return ops


def _ghaffari_checks(g, in_mis: set, removed: set, undecided: set) -> list[str]:
    out = []
    if len(in_mis) + len(removed) + len(undecided) != g.n:
        out.append("run_ghaffari: statuses do not partition V")
    for v in in_mis:
        if any(u in in_mis for u in g.neighbors[v]):
            out.append(f"run_ghaffari: MIS nodes adjacent at {v}")
            break
    for v in removed | undecided:
        dominated = any(u in in_mis for u in g.neighbors[v])
        if dominated != (v in removed):
            out.append(f"run_ghaffari: node {v} status disagrees with its neighbors")
            break
    return out


def _component_sizes(g, nodes: set) -> list[int]:
    """Component sizes of G[nodes] by scipy, independent of netdecomp."""
    keep = sorted(nodes)
    sub = g.adjacency_csr()[keep][:, keep]
    _, labels = connected_components(sub, directed=False)
    return sorted(np.bincount(labels).tolist(), reverse=True)


# Pre-shattering rounds of mis_full are c1 * (log2(max degree) + 1).  With
# c1=1 the carving of the meta-graph fails (CarveError) on some seeds, the
# single-run success problem of carve_params; c1=2 still leaves a large
# shattered remainder for the ruling set, meta-graph and per-color lanes.
C1 = 2


def mis_ops(seed: int, workdir: Path) -> list[Op]:
    big = graphs.generate_graph("gnp", {"n": 8000, "p": 0.0025}, seed)
    lanes_g = graphs.generate_graph("gnp", {"n": 500, "p": 0.02}, seed)
    carve_g = graphs.generate_graph(
        "gnp", {"n": 1000, "p": 0.004, "largest_component": 1}, seed
    )
    big_path = _write(big, workdir, "mis")
    carve_path = _write(carve_g, workdir, "carve")
    lanes = math.ceil(2 * math.log2(lanes_g.n))
    rounds = 13

    def full(variant):
        def run(clock: Clock):
            rep = clock.algo(mis.mis_full, big, seed=seed, variant=variant, c1=C1)
            out = {"mis": sorted(big.ids[v] for v in rep.mis), "phases": rep.phases}
            return out, check_mis(clock, big, rep.mis)
        return run

    def ghaffari_shatter(clock: Clock):
        in_mis, removed, undecided, _ = clock.algo(mis.run_ghaffari, big, rounds, seed)
        rep = clock.algo(mis.shatter_check, big, undecided)
        failures = clock.verify(_ghaffari_checks, big, in_mis, removed, undecided)
        want = clock.verify(_component_sizes, big, undecided) if undecided else []
        failures += check_equal("shatter_check sizes", rep.component_sizes, want)
        return {"mis": sorted(in_mis), "shatter": rep.to_json()}, failures

    def engine_lanes(clock: Clock):
        cfg = simulate.SimConfig(msg_bits=lanes, strict=True)
        outs, stats = clock.algo(mis.ghaffari_engine, lanes_g, rounds, lanes, seed, cfg)
        failures = []
        if stats.max_bits_per_edge_round != lanes or stats.budget_violations:
            failures.append(f"engine used {stats.max_bits_per_edge_round} bits "
                            f"per edge-round for {lanes} lanes")
        for ln in range(lanes):
            m, r, _, _ = clock.verify(mis.run_ghaffari, lanes_g, rounds, seed, lane=ln)
            want = [mis.IN_MIS if v in m else mis.REMOVED if v in r else mis.UNDECIDED
                    for v in range(lanes_g.n)]
            failures += check_equal(f"ghaffari_engine lane {ln}",
                                    [o[ln] for o in outs], want)
        return {"lanes": outs, "stats": stats.to_json()}, failures

    return [
        _cli_op("mis-fast gnp n=8000", ["--graph", big_path, "--algo", "mis-fast"], seed),
        _cli_op("mis-slow gnp n=8000", ["--graph", big_path, "--algo", "mis-slow"], seed),
        Op(f"mis_full fast c1={C1}", full("fast")),
        Op(f"mis_full slow c1={C1}", full("slow")),
        Op(f"run_ghaffari {rounds} rounds + shatter_check", ghaffari_shatter),
        Op(f"ghaffari_engine {lanes} lanes", engine_lanes),
        _cli_op("carve gnp n=1000", ["--graph", carve_path, "--algo", "carve"], seed),
        _cli_op("ballgrow gnp n=1000", ["--graph", carve_path, "--algo", "ballgrow"], seed),
    ]


def setup_decomp(seed: int, workdir: Path) -> list[Op]:
    return grid_ops(seed, workdir) + engine_ops(seed)


def setup_pipelines(seed: int, workdir: Path) -> list[Op]:
    return mst_ops(seed, workdir) + mis_ops(seed, workdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decomp", "decomposition control plane and sparse engine floods: "
                 "residual singletons, per-cluster BFS, validators, Linial; "
                 "no weights, covers, MIS or carving", setup_decomp),
        Workload("pipelines", "the only weights, covers, MIS and carving: mu and "
                 "Fraction compares, Philox streams, induced subgraphs, dense "
                 "one-bit engine lanes, the quadratic-memory generator",
                 setup_pipelines),
    )
}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=sorted)


class Gate:
    """Runs operations and counts them.  An operation fails when it raises,
    when a check returns a failure line, or when its output differs from
    the one it gave in the first pass; each failure leaves report lines and
    never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.report: list[str] = []
        self._first: dict[str, str] = {}

    def run(self, op: Op, clock: Clock, pass_no: int) -> str:
        """The operation's canonical output."""
        self.attempted += 1
        try:
            output, failures = op.run(clock)
        except Exception as exc:  # counted and reported, never fatal
            output = None
            failures = [f"{type(exc).__name__}: {exc}"]
            self.report.append(traceback.format_exc().rstrip())
        text = canonical(output)
        if self._first.setdefault(op.name, text) != text:
            failures.append("output differs from the first pass")
        if failures:
            self.fail(f"pass {pass_no} [{op.name}]", failures)
        return text

    def fail(self, where: str, failures: list[str]) -> None:
        self.failed += 1
        self.report.extend(f"FAIL {where} {f}" for f in failures)
