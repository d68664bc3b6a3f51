"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The gate must count corrupted outputs, the cross-check of simulated against
fast decompositions must flag the known divergence, exact per-layer counts
must repeat across runs, ``BENCHMARK.json`` must describe what the code
reports, and the benchmark must refuse to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from netdecomp import clustering, covers, decompose, graphs, mis  # noqa: E402
from netdecomp.clustering import Cluster, Decomposition  # noqa: E402


def gate_verdict(output_and_failures) -> workloads.Gate:
    gate = workloads.Gate()
    gate.run(workloads.Op("op", lambda clock: output_and_failures(clock)),
             workloads.Clock(), 0)
    return gate


def assert_counted(gate: workloads.Gate, needle: str) -> None:
    assert (gate.attempted, gate.failed) == (1, 1)
    assert any(needle in line for line in gate.report), gate.report


def path_graph(n, weights=None):
    return graphs.Graph(range(n), [(i, i + 1) for i in range(n - 1)], weights)


# -- the gate counts corrupted outputs --------------------------------------


def two_clusters(color_a, color_b, drop=None):
    """Path 0-1-2-3 split into clusters {0,1} and {2,3}, k=1."""
    return Decomposition(k=1, clusters=[
        Cluster(0, 0, frozenset({0, 1} - {drop}), frozenset({(0, 1)}), color_a),
        Cluster(2, 2, frozenset({2, 3}), frozenset({(2, 3)}), color_b),
    ])


def test_gate_passes_a_correct_decomposition():
    g = path_graph(4)
    gate = gate_verdict(
        lambda clock: (None, workloads.check_decomposition(clock, g, two_clusters(0, 1))))
    assert (gate.attempted, gate.failed, gate.report) == (1, 0, [])


def test_gate_counts_a_dropped_cluster_member():
    g = path_graph(4)
    bad = two_clusters(0, 1, drop=1)
    gate = gate_verdict(lambda clock: (None, workloads.check_decomposition(clock, g, bad)))
    assert_counted(gate, "partition covers 3 of 4 nodes")


def test_gate_counts_same_color_clusters_within_k():
    g = path_graph(4)
    bad = two_clusters(0, 0)
    gate = gate_verdict(lambda clock: (None, workloads.check_decomposition(clock, g, bad)))
    assert_counted(gate, "at distance 1 <= k=1")


def test_gate_counts_a_swapped_mst_edge():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    g = graphs.Graph(range(4), edges,
                     {e: Fraction(i + 1) for i, e in enumerate(edges)})
    tree = {(g.ids[a], g.ids[b]) for a, b in covers.kruskal_oracle(g)}
    assert workloads.check_mst(workloads.Clock(), g, sorted(tree)) == []
    swapped = (tree - {(2, 3)}) | {(0, 3)}
    gate = gate_verdict(lambda clock: (None, workloads.check_mst(clock, g, sorted(swapped))))
    assert_counted(gate, "MST differs from kruskal_oracle")
    assert any("prim_oracle" in line for line in gate.report)


def test_gate_counts_an_adjacent_pair_in_the_mis():
    g = path_graph(4)
    assert workloads.check_mis(workloads.Clock(), g, {0, 2}) == []
    gate = gate_verdict(lambda clock: (None, workloads.check_mis(clock, g, {0, 1, 3})))
    assert_counted(gate, "adjacent pair")


def test_gate_counts_exceptions_and_changed_outputs():
    gate = workloads.Gate()
    answers = iter([[1, 2], [1, 3]])
    op = workloads.Op("flaky", lambda clock: (next(answers), []))
    gate.run(op, workloads.Clock(), 0)
    gate.run(op, workloads.Clock(), 1)
    gate.run(workloads.Op("boom", lambda clock: 1 / 0), workloads.Clock(), 1)
    assert (gate.attempted, gate.failed) == (3, 2)
    assert any("differs from the first pass" in line for line in gate.report)
    assert any("ZeroDivisionError" in line for line in gate.report)


# -- the known divergence of decompose(mode="sim") from mode="fast" --------
# _Convergecast keeps duplicate ids in "union" mode, which inflates the
# perceived in-degree of clusters in sim mode.  When that is fixed, these
# tests fail and the timed decomp workload can run decompose(mode="sim").


def sim_against_fast(g, k):
    def check(clock):
        sim = clock.algo(decompose.decompose, g, k, mode="sim").decomposition
        fast = clock.algo(decompose.decompose, g, k, mode="fast").decomposition
        got = clustering.decomposition_to_json(g, sim)
        return got, (workloads.check_decomposition(clock, g, sim)
                     + workloads.check_equal("sim against fast", got,
                                             clustering.decomposition_to_json(g, fast)))
    return check


def test_cross_check_flags_sim_fast_divergence_on_gnp():
    g = graphs.generate_graph("gnp", {"n": 300, "p": 0.02}, 0)
    gate = gate_verdict(sim_against_fast(g, 2))
    assert_counted(gate, "sim against fast: differs from the oracle")


def test_cross_check_flags_sim_failure_on_grid():
    g = graphs.generate_graph("grid", {"rows": 20, "cols": 20}, 0)
    gate = gate_verdict(sim_against_fast(g, 4))
    assert_counted(gate, "invariant A violated")


def test_gate_counts_carving_failure_of_mis_full_with_one_preshatter_round():
    # Why the pipelines workload runs mis_full with c1=workloads.C1 rather than c1=1.
    g = graphs.generate_graph("gnp", {"n": 8000, "p": 0.0025}, 1)

    def run_mis_full(clock):
        mis.mis_full(g, seed=1, variant="fast", c1=1)
        return None, []

    gate = gate_verdict(run_mis_full)
    assert_counted(gate, "CarveError: all 8x32 carve runs failed")


# -- whole runs -------------------------------------------------------------


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counts_repeat_across_runs(workload):
    exact = [name for name, (_u, _b, is_exact, _m) in layers.PER_LAYER.items() if is_exact]
    seen = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert set(result["metrics"]) == set(layers.PER_LAYER)
        seen.append({name: result["metrics"][name]["value"] for name in exact})
    assert seen[0] == seen[1]


def test_benchmark_json_describes_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [
        workloads.WORKLOADS[name].why for name in run.WORKLOAD_NAMES]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _e, _m) in layers.PER_LAYER.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "decomp", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
