"""Batch experiment driver.

Runs one algorithm over a seed sweep on a generated or loaded graph and
writes a single JSON report: per-seed output summary, validator verdict,
round statistics, and invariant logs.  Exit status is 1 if any validator
fails, 2 on bad arguments or input and 3 if an algorithm fails.  An
algorithm failure on one seed of a sweep is recorded as that seed's
``{"seed": s, "error": "..."}`` entry and the sweep goes on; bad arguments
or input abort it.  Reports contain no timestamps, so identical configs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Optional

from .carving import MetaGraph, ball_grow_refine, carve_decompose
from .clustering import (
    decomposition_from_json,
    validate_cover,
    validate_decomposition,
    validate_mis,
)
from .covers import cover_from_decomposition, cover_mst, kruskal_oracle
from .covers import mst_radius  # noqa: F401  (perfbench/layers.py wraps cli.mst_radius)
from .decompose import decompose
from .graphs import (
    Graph,
    GraphError,
    NetdecompError,
    generate_graph,
    graph_from_json,
    load_graph,
    random_weights,
)
from .mis import mis_full
from .simulate import SimConfig

SCHEMA_VERSION = 1
ALGOS = (
    "netdecomp", "carve", "ballgrow", "mis-fast", "mis-slow",
    "cover", "mst", "verify",
)


class ConfigError(ValueError):
    pass


def parse_gen(spec: str) -> tuple[str, dict]:
    """'gnp:n=500,p=0.02' -> ('gnp', {'n': 500, 'p': 0.02})."""
    model, _, rest = spec.partition(":")
    params: dict = {}
    for part in filter(None, rest.split(",")):
        key, _, val = part.partition("=")
        if not _ or not key:
            raise ConfigError(f"bad generator parameter {part!r}")
        try:
            params[key] = int(val)
        except ValueError:
            try:
                params[key] = float(val)
            except ValueError:
                params[key] = val
    return model, params


def parse_seeds(spec: str) -> list[int]:
    """'0,1,2' or '0-9' (inclusive), mixed with commas."""
    out = []
    for part in spec.split(","):
        cut = part.find("-", 1)  # a leading "-" is a sign
        try:
            out.extend(range(int(part[:cut]), int(part[cut + 1:]) + 1)
                       if cut > 0 else [int(part)])
        except ValueError:
            raise ConfigError(
                f"--seeds must list integers or ranges a-b, got {part!r}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="netdecomp",
        description="network decomposition experiment driver",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--graph", help="graph file (.json or edge list)")
    src.add_argument("--gen", help="generator spec, e.g. gnp:n=500,p=0.02")
    p.add_argument("--algo", choices=ALGOS)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seeds", default="0")
    p.add_argument("--msg-bits", type=int, default=None)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--mode", choices=("fast", "sim"), default="fast")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--dec", help="decomposition JSON for --algo verify")
    p.add_argument(
        "--fixture-suite", action="store_true",
        help="run all bundled valid/invalid fixtures",
    )
    return p


def _get_graph(args, seed: int) -> Graph:
    if args.graph:
        fmt = "json" if args.graph.endswith(".json") else "edge-list"
        return load_graph(args.graph, fmt=fmt)
    if args.gen:
        model, params = parse_gen(args.gen)
        return generate_graph(model, params, seed)
    raise ConfigError("one of --graph / --gen is required")


def _sim_cfg(args) -> Optional[SimConfig]:
    if args.msg_bits is None and not args.strict:
        return None
    return SimConfig(msg_bits=args.msg_bits, strict=args.strict)


def run_seed(args, seed: int) -> dict:
    g = _get_graph(args, seed)
    entry: dict = {"seed": seed, "n": g.n}
    algo = args.algo
    if algo == "netdecomp":
        res = decompose(g, args.k, cfg=_sim_cfg(args), mode=args.mode)
        rep = validate_decomposition(g, res.decomposition)
        entry.update(
            valid=rep.valid,
            failures=rep.failures,
            stats=rep.stats,
            colors=res.decomposition.colors_used,
            invariants_log=res.invariants_log,
        )
    elif algo in ("carve", "ballgrow"):
        h = MetaGraph.from_graph(g)
        inter = decompose(g, 1).decomposition
        if algo == "carve":
            dec, diags, phases = carve_decompose(h, inter, seed=seed)
            entry["phases"] = phases
        else:
            dec, logs = ball_grow_refine(h, inter)
            entry["phases"] = len(logs)
        # both refinements build each tree inside its cluster
        rep = validate_decomposition(g, dec, strong=True)
        entry.update(
            valid=rep.valid, failures=rep.failures, stats=rep.stats,
            colors=dec.colors_used,
        )
    elif algo in ("mis-fast", "mis-slow"):
        r = mis_full(g, seed=seed, variant=algo.split("-")[1])
        ok, why = validate_mis(g, r.mis)
        entry.update(
            valid=ok,
            failures=[] if ok else [why],
            mis_size=len(r.mis),
            phases=r.phases,
        )
    elif algo == "cover":
        dec = decompose(g, 2 * args.k, cfg=_sim_cfg(args), mode=args.mode)
        cov = cover_from_decomposition(g, args.k, dec.decomposition)
        rep = validate_cover(g, cov)
        entry.update(valid=rep.valid, failures=rep.failures, stats=rep.stats)
    elif algo == "mst":
        if g.weights is None:
            g = random_weights(g, seed)
        res = cover_mst(g, mu=args.mu)
        exact = res.tree_edges == kruskal_oracle(g)
        entry.update(
            valid=exact,
            failures=[] if exact else ["MST differs from oracle"],
            mu=res.mu,
            mst=res.to_json(g),
            mst_radius=res.true_mu,
        )
    elif algo == "verify":
        if not args.dec:
            raise ConfigError("--algo verify needs --dec")
        with open(args.dec) as fh:
            dec = decomposition_from_json(g, json.load(fh))
        rep = validate_decomposition(g, dec)
        entry.update(valid=rep.valid, failures=rep.failures, stats=rep.stats)
    else:
        raise ConfigError(f"unknown algorithm {algo!r}")
    return entry


def run_experiment(args) -> dict:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    seeds = parse_seeds(args.seeds)
    if not seeds:
        raise ConfigError(f"--seeds {args.seeds} selects no seed")
    runs = []
    for s in seeds:
        try:
            runs.append(run_seed(args, s))
        except NetdecompError as exc:  # exit 3: the other seeds still run
            print(f"error: seed {s}: {exc}", file=sys.stderr)
            runs.append({"seed": s, "error": f"{type(exc).__name__}: {exc}"})
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "algo": args.algo,
            "graph": args.graph,
            "gen": args.gen,
            "k": args.k,
            "seeds": seeds,
            "msg_bits": args.msg_bits,
            "mu": args.mu,
            "mode": args.mode,
            "strict": args.strict,
        },
        "runs": runs,
        "all_valid": all(r.get("valid", False) for r in runs),
    }


def run_fixture_suite() -> dict:
    """Validate every bundled fixture; a fixture passes when the verdict
    matches its recorded expectation."""
    runs = []
    root = resources.files("netdecomp") / "fixtures"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        data = json.loads(entry.read_text())
        g = graph_from_json(data["graph"], f"fixture {entry.name}")
        dec = decomposition_from_json(g, data["decomposition"])
        rep = validate_decomposition(g, dec)
        runs.append(
            {
                "fixture": entry.name,
                "expect_valid": data["expect_valid"],
                "got_valid": rep.valid,
                "failures": rep.failures,
                "valid": rep.valid == data["expect_valid"],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"fixture_suite": True},
        "runs": runs,
        "all_valid": all(r["valid"] for r in runs),
    }


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=sorted)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.fixture_suite:
            report = run_fixture_suite()
        else:
            if not args.algo:
                raise ConfigError("--algo is required")
            report = run_experiment(args)
    except (ConfigError, GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetdecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(report, args.out)
    if any("error" in r for r in report["runs"]):
        return 3
    return 0 if report["all_valid"] else 1


if __name__ == "__main__":
    sys.exit(main())
