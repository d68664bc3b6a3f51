"""Acceptance suite: twelve numbered criteria, one printed verdict line
each.  Criteria are independent except that the decomposition corpus built
for criterion 1 is re-used by criterion 2.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from netdecomp.carving import MetaGraph, carve_params, carve_step
from netdecomp.clustering import validate_cover, validate_decomposition, validate_mis, weak_diameter
from netdecomp.covers import (
    cover_from_decomposition,
    cover_mst,
    kruskal_oracle,
    mst_radius,
    mst_radius_scipy,
    prim_oracle,
)
from netdecomp.decompose import decompose
from netdecomp.graphs import Graph, generate_graph, random_weights
from netdecomp.mis import ghaffari_engine, mis_full, run_ghaffari, shatter_check
from netdecomp.simulate import SimConfig
from references import gap_probability_check


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {state} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def corpus_specs():
    specs = []
    ks = [1, 2, 4]
    for i in range(30):
        specs.append((f"gnp200/{i}", "gnp",
                      {"n": 200, "p": 0.04, "largest_component": True}, i, ks[i % 3]))
    for i in range(30):
        specs.append((f"gnp500/{i}", "gnp",
                      {"n": 500, "p": 0.015, "largest_component": True}, i, ks[i % 3]))
    for i in range(6):
        specs.append((f"gnp2000/{i}", "gnp",
                      {"n": 2000, "p": 0.004, "largest_component": True}, i, ks[i % 3]))
    grids = [(5, 8), (6, 10), (7, 9), (8, 8), (9, 12), (10, 10), (4, 30),
             (12, 12), (6, 25), (14, 9), (11, 17), (3, 50), (16, 11), (9, 21),
             (7, 20), (13, 13), (5, 36), (10, 19), (8, 24), (15, 12)]
    for i, (r, c) in enumerate(grids):
        specs.append((f"grid{r}x{c}", "grid", {"rows": r, "cols": c}, 0, ks[i % 3]))
    for i, n in enumerate([20, 35, 50, 75, 100, 140, 180, 230, 280, 330, 380,
                           430, 470, 500]):
        specs.append((f"path{n}", "path", {"n": n}, 0, ks[i % 3]))
    assert len(specs) == 100
    return specs


@pytest.fixture(scope="module")
def corpus_results():
    out = []
    t0 = time.time()
    for name, model, params, seed, k in corpus_specs():
        g = generate_graph(model, params, seed)
        res = decompose(g, k)
        rep = validate_decomposition(g, res.decomposition)
        out.append(
            {
                "name": name, "n": g.n, "k": k, "valid": rep.valid,
                "failures": rep.failures, "d": res.d,
                "n_init": res.n_initial_clusters,
                "log": res.invariants_log,
            }
        )
    return out, time.time() - t0


def test_criterion_01_decomposition_validity(corpus_results):
    results, elapsed = corpus_results
    bad = [r["name"] for r in results if not r["valid"]]
    verdict(
        1, "decomposition-validity",
        not bad and elapsed < 600,
        f"{len(results) - len(bad)}/{len(results)} valid, {elapsed:.0f}s"
        + (f", failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_02_invariant_ledger(corpus_results):
    results, _ = corpus_results
    violations = []
    checked = 0
    for r in results:
        d, n_init = r["d"], r["n_init"]
        for entry in r["log"]:
            i = entry["phase"]
            checked += 1
            if entry["cluster_count"] * d**i > n_init:
                violations.append(f"{r['name']} phase {i}: count")
            if entry["max_overlap"] > i * 13 * d**3:
                violations.append(f"{r['name']} phase {i}: overlap")
    verdict(
        2, "invariant-ledger",
        not violations,
        f"{checked} phase entries, A and C exact"
        + (f"; violated: {violations[:3]}" if violations else ""),
    )


def test_criterion_03_large_identifier_tolerance():
    cases = [
        (generate_graph("gnp", {"n": 150, "p": 0.05, "largest_component": True}, 3), 2),
        (generate_graph("grid", {"rows": 9, "cols": 13}, 0), 1),
        (generate_graph("path", {"n": 61}, 0), 4),
    ]
    diffs = []
    for g, k in cases:
        base = decompose(g, k).decomposition
        big = g.relabeled({v: v * 910109 + 2**120 for v in g.ids}, id_bits=128)
        remapped = decompose(big, k).decomposition
        a = sorted((c.color, tuple(sorted(c.members))) for c in base.clusters)
        b = sorted((c.color, tuple(sorted(c.members))) for c in remapped.clusters)
        da = max(weak_diameter(g, c.members) for c in base.clusters)
        db = max(weak_diameter(big, c.members) for c in remapped.clusters)
        if a != b or base.colors_used != remapped.colors_used or da != db:
            diffs.append(f"k={k}")
    verdict(
        3, "large-identifier-tolerance",
        not diffs,
        "colors, members and weak diameters unchanged under 2^128 id remap"
        if not diffs else f"changed on {diffs}",
    )


def test_criterion_04_carving_success_rate():
    # Faithful single-run protocol: every meta-node draws a shift; a run
    # succeeds when no shift exceeds cap_d and at least a 2^-s fraction of
    # reached nodes is clustered.  With N independent EXP(beta) shifts the
    # no-overflow probability is (1 - e^{-beta*cap_d})^N.
    rates = {}
    for N in (64, 256):
        s, beta, cap_d = carve_params(N)
        good = 0
        for seed in range(100):
            g = generate_graph("gnp", {"n": N, "p": 1.2 * math.log(N) / N}, seed)
            h = MetaGraph.from_graph(g)
            everyone = set(range(N))
            res = carve_step(
                h, everyone, everyone, beta, cap_d,
                stream=np.random.default_rng(seed),
            )
            clustered = sum(len(m) for m in res.clusters.values())
            if (not res.failed and res.reached
                    and clustered * 2**s >= len(res.reached)):
                good += 1
        rates[N] = good / 100
    ok = all(r >= 0.35 for r in rates.values())
    verdict(
        4, "carving-success-rate", ok,
        f"measured per-run success {rates} vs required >= 0.35 over 200 seeds",
    )


def test_criterion_05_exponential_gap_lemma():
    profiles = [
        [0, 0],
        [0, 1, 2, 3, 4],
        [3] * 10,
        list(range(20)),
        [0] + [5] * 9,
    ]
    trials = 100_000
    worst = []
    ok = True
    for beta in (0.05, 0.1, 0.5):
        sigma = math.sqrt(beta * (1 - beta) / trials)
        for i, ds in enumerate(profiles):
            est = gap_probability_check(ds, beta, trials, seed=i)
            worst.append(est - beta)
            if est > beta + 3 * sigma:
                ok = False
    verdict(
        5, "exponential-gap-lemma", ok,
        f"15 (beta, profile) cells, max excess over beta {max(worst):+.4f}",
    )


def test_criterion_06_mis_correctness():
    bad = []
    count = 0
    for variant in ("fast", "slow"):
        for i in range(50):
            model = ["gnp", "grid", "tree", "path"][i % 4]
            if model == "gnp":
                g = generate_graph(
                    "gnp", {"n": 100 + 4 * i, "p": 0.05}, seed=i)
            elif model == "grid":
                g = generate_graph("grid", {"rows": 5 + i % 7, "cols": 9}, i)
            else:
                g = generate_graph(model, {"n": 60 + 3 * i}, seed=i)
            c1 = 1 if i % 2 else 20   # half the runs exercise the meta path
            rep = mis_full(g, seed=i, variant=variant, c1=c1)
            ok, why = validate_mis(g, rep.mis)
            count += 1
            if not ok:
                bad.append(f"{variant}/{i}: {why}")
    # mid-run independence/domination spot checks
    for seed in range(5):
        g = generate_graph("gnp", {"n": 120, "p": 0.06}, seed=seed)
        for r in (1, 4, 9, 25):
            mis, rem, und, _ = run_ghaffari(g, r, seed=seed)
            for v in mis:
                if any(u in mis for u in g.neighbors[v]):
                    bad.append(f"midrun independence seed {seed} r {r}")
            for v in rem:
                if not any(u in mis for u in g.neighbors[v]):
                    bad.append(f"midrun domination seed {seed} r {r}")
    verdict(
        6, "mis-correctness", not bad,
        f"{count} full runs valid, mid-run invariants clean"
        if not bad else f"failed: {bad[:3]}",
    )


def test_criterion_07_decision_time_bound():
    c1 = 20
    fracs = []
    for seed in range(50):
        g = generate_graph("gnp", {"n": 2000, "p": 0.01}, seed=seed)
        delta = max(2, g.max_degree)
        rounds = math.ceil(c1 * (math.log2(delta) + math.log2(10)))
        _, _, und, _ = run_ghaffari(g, rounds, seed=seed)
        fracs.append(len(und) / g.n)
    mean = float(np.mean(fracs))
    sigma = float(np.std(fracs)) / math.sqrt(len(fracs))
    verdict(
        7, "decision-time-bound",
        mean <= 0.1 + 3 * sigma,
        f"c1={c1}, mean undecided fraction {mean:.4f} <= 0.1+3sigma "
        f"({0.1 + 3 * sigma:.4f}) over 50 seeds",
    )


def test_criterion_08_shattering_statistic():
    delta = 20                       # design degree of both instance families
    rounds = math.ceil(3 * math.log2(delta))
    cs = {}
    for n, p in ((2000, 0.01), (8000, 0.0025)):
        bound = math.log(n) / math.log(delta) * delta**4
        maxcomps = []
        for seed in range(50):
            g = generate_graph("gnp", {"n": n, "p": p}, seed=seed)
            _, _, B, _ = run_ghaffari(g, rounds, seed=seed)
            rep = shatter_check(g, B, delta)
            maxcomps.append(rep.max_component)
        cs[n] = float(np.mean(maxcomps)) / bound
    mean_c = (cs[2000] + cs[8000]) / 2
    spread = abs(cs[8000] - cs[2000]) / mean_c if mean_c else float("inf")
    verdict(
        8, "shattering-statistic",
        spread <= 0.20,
        f"fitted C: n=2000 -> {cs[2000]:.2e}, n=8000 -> {cs[8000]:.2e}, "
        f"relative spread {spread:.1%} (limit 20% around the mean)",
    )


def test_criterion_09_cover_validity():
    bad = []
    count = 0
    for i in range(17):
        if i % 3 == 0:
            g = generate_graph(
                "gnp", {"n": 120 + 10 * i, "p": 0.04, "largest_component": True},
                seed=i,
            )
        elif i % 3 == 1:
            g = generate_graph("grid", {"rows": 6 + i % 5, "cols": 12}, i)
        else:
            g = generate_graph("path", {"n": 80 + 9 * i}, seed=i)
        for k in (1, 2, 3):
            count += 1
            dec = decompose(g, 2 * k).decomposition
            d_in = max(weak_diameter(g, c.members) for c in dec.clusters)
            cov = cover_from_decomposition(g, k, dec)
            rep = validate_cover(g, cov)
            if not rep.valid:
                bad.append(f"{i}/k={k}: {rep.failures[0]}")
                continue
            if rep.stats["sparsity"] > len({c.color for c in dec.clusters}):
                bad.append(f"{i}/k={k}: sparsity")
            d_out = max(weak_diameter(g, c.members) for c in cov.clusters)
            if d_out > d_in + 2 * k:
                bad.append(f"{i}/k={k}: diameter {d_out} > {d_in}+{2 * k}")
    if count < 50:
        bad.append("fewer than 50 instances")
    verdict(
        9, "cover-validity", not bad,
        f"{count} instances, sparsity and d+2k diameter bounds hold"
        if not bad else f"failed: {bad[:3]}",
    )


def test_criterion_10_mst_exactness():
    from fractions import Fraction

    bad = []
    c4 = Graph(
        [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)],
        {(0, 1): Fraction(1), (1, 2): Fraction(2),
         (2, 3): Fraction(3), (3, 0): Fraction(4)},
    )
    if cover_mst(c4, mu=4).tree_edges != kruskal_oracle(c4):
        bad.append("4-cycle fixture")
    for seed in range(50):
        n = 60 + 5 * seed            # up to 305-ish, capped below
        n = min(n, 300)
        g = random_weights(
            generate_graph(
                "gnp", {"n": n, "p": 6.0 / n, "largest_component": True},
                seed=seed,
            ),
            seed=seed,
        )
        if mst_radius(g) != mst_radius_scipy(g):
            bad.append(f"{seed}: mu oracles disagree")
            continue
        res = cover_mst(g)
        truth = kruskal_oracle(g)
        if truth != prim_oracle(g):
            bad.append(f"{seed}: mst oracles disagree")
        if res.tree_edges != truth:
            bad.append(f"{seed}: classification differs from oracle")
    verdict(
        10, "mst-exactness", not bad,
        "50 random graphs + fixture exact, dual oracles agree"
        if not bad else f"failed: {bad[:3]}",
    )


def test_criterion_11_congestion_contract():
    bad = []
    for seed in range(3):
        g = generate_graph(
            "gnp", {"n": 60, "p": 0.07, "largest_component": True}, seed=seed)
        res = decompose(g, 2, cfg=SimConfig(strict=True), mode="sim")
        if res.stats.budget_violations:
            bad.append(f"decompose seed {seed}")
    g = generate_graph("gnp", {"n": 30, "p": 0.15}, seed=1)
    lanes = math.ceil(2 * math.log2(g.n))
    _, stats = ghaffari_engine(
        g, rounds=25, lanes=lanes, seed=2, cfg=SimConfig(strict=True))
    if stats.budget_violations:
        bad.append("mis lanes: violations")
    if stats.max_bits_per_edge_round != lanes:
        bad.append(
            f"mis lanes: {stats.max_bits_per_edge_round} bits for {lanes} lanes")
    verdict(
        11, "congestion-contract", not bad,
        f"strict engine runs clean; MIS inner loop {lanes} lanes = "
        f"{lanes} bits/edge-round" if not bad else f"failed: {bad}",
    )


def test_criterion_12_determinism(tmp_path):
    bad = []
    g = generate_graph("gnp", {"n": 150, "p": 0.04}, seed=5)
    a = decompose(g, 2)
    b = decompose(g, 2)
    if [(c.color, c.members, c.tree_edges) for c in a.decomposition.clusters] != [
        (c.color, c.members, c.tree_edges) for c in b.decomposition.clusters
    ]:
        bad.append("decompose replay")
    if mis_full(g, seed=3).mis != mis_full(g, seed=3).mis:
        bad.append("mis replay")
    # cross-process, different thread counts and hash seeds
    reports = []
    for threads, hashseed in (("1", "0"), ("8", "31337")):
        out = tmp_path / f"r{threads}.json"
        env = dict(
            os.environ, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hashseed,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "netdecomp.cli",
             "--gen", "gnp:n=120,p=0.05", "--algo", "netdecomp",
             "--k", "2", "--seeds", "0-2", "--out", str(out)],
            env=env, capture_output=True,
        )
        if proc.returncode != 0:
            bad.append(f"cli rc={proc.returncode}: {proc.stderr[:120]}")
        else:
            reports.append(out.read_bytes())
    if len(reports) == 2 and reports[0] != reports[1]:
        bad.append("cross-process reports differ")
    verdict(
        12, "determinism", not bad,
        "bit-identical replays in-process and across thread counts"
        if not bad else f"failed: {bad}",
    )
