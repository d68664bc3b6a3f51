import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from netdecomp import cli
from netdecomp.cli import ALGOS, ConfigError, main, parse_gen, parse_seeds
from netdecomp.clustering import Cluster, Decomposition
from netdecomp.graphs import load_graph


def read(path):
    with open(path) as fh:
        return json.load(fh)


class TestParsing:
    def test_gen_spec(self):
        model, params = parse_gen("gnp:n=500,p=0.02,largest_component=1")
        assert model == "gnp"
        assert params == {"n": 500, "p": 0.02, "largest_component": 1}

    def test_gen_spec_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_gen("gnp:n500")

    def test_seed_list_and_range(self):
        assert parse_seeds("0,1,2") == [0, 1, 2]
        assert parse_seeds("0-3") == [0, 1, 2, 3]
        assert parse_seeds("5,7-9") == [5, 7, 8, 9]


class TestVerifyMode:
    def test_valid_fixture_exits_zero(self, tmp_path):
        from importlib import resources

        data = json.loads(
            (resources.files("netdecomp") / "fixtures" / "p9_valid.json")
            .read_text()
        )
        gpath = tmp_path / "g.json"
        dpath = tmp_path / "d.json"
        gpath.write_text(json.dumps(data["graph"]))
        dpath.write_text(json.dumps(data["decomposition"]))
        rc = main(
            ["--graph", str(gpath), "--algo", "verify", "--dec", str(dpath)]
        )
        assert rc == 0

    def test_invalid_fixture_exits_one(self, tmp_path, capsys):
        from importlib import resources

        data = json.loads(
            (resources.files("netdecomp") / "fixtures" / "p3_invalid.json")
            .read_text()
        )
        gpath = tmp_path / "g.json"
        dpath = tmp_path / "d.json"
        gpath.write_text(json.dumps(data["graph"]))
        dpath.write_text(json.dumps(data["decomposition"]))
        out = tmp_path / "report.json"
        rc = main(
            [
                "--graph", str(gpath), "--algo", "verify",
                "--dec", str(dpath), "--out", str(out),
            ]
        )
        assert rc == 1
        rep = read(out)
        assert not rep["all_valid"]
        assert "distance" in rep["runs"][0]["failures"][0]

    def test_k_beyond_the_float_range(self, tmp_path):
        # the separation search stops at min(k, n): scipy reads its limit
        # as a float
        k = 10**400
        dpath = tmp_path / "d.json"
        dpath.write_text(_dec_text(k))
        out = tmp_path / "report.json"
        argv = ["--gen", "path:n=5", "--algo", "verify", "--dec", str(dpath),
                "--out", str(out)]
        assert main(argv) == 1
        (run,) = read(out)["runs"]
        assert run["failures"] == [f"color 0: clusters 0,1 at distance 4 <= k={k}"]

    def test_fixture_suite(self, tmp_path):
        out = tmp_path / "fx.json"
        assert main(["--fixture-suite", "--out", str(out)]) == 0
        rep = read(out)
        assert {r["fixture"] for r in rep["runs"]} >= {
            "p9_valid.json", "p3_invalid.json"
        }


class TestExperiments:
    def test_netdecomp_sweep_report(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(
            [
                "--gen", "gnp:n=120,p=0.05,largest_component=1",
                "--algo", "netdecomp", "--k", "2",
                "--seeds", "0-2", "--out", str(out),
            ]
        )
        assert rc == 0
        rep = read(out)
        assert rep["schema_version"] == 1
        assert len(rep["runs"]) == 3
        for run in rep["runs"]:
            assert run["valid"]
            assert run["invariants_log"]  # per-phase A/B/C series

    @pytest.mark.parametrize(
        "algo", ["carve", "ballgrow", "mis-fast", "cover", "mst"]
    )
    def test_other_algos_exit_zero(self, tmp_path, algo):
        out = tmp_path / f"{algo}.json"
        rc = main(
            [
                "--gen", "gnp:n=70,p=0.07,largest_component=1",
                "--algo", algo, "--k", "1", "--seeds", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert read(out)["all_valid"]

    @pytest.mark.parametrize("option,algo", [
        ("--k", "netdecomp"), ("--k", "cover"), ("--mu", "mst"),
    ])
    def test_k_past_the_float_range(self, tmp_path, option, algo):
        # a k no float holds: the component bound caps it at 2n
        out = tmp_path / "r.json"
        rc = main(["--gen", "path:n=5", "--algo", algo, option, str(10**400),
                   "--out", str(out)])
        assert rc == 0
        assert read(out)["all_valid"]

    def test_report_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "--gen", "gnp:n=90,p=0.06",
            "--algo", "netdecomp", "--k", "1", "--seeds", "0,1",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_algo_is_config_error(self, capsys):
        assert main(["--gen", "gnp:n=10,p=0.1"]) == 2

    def test_missing_graph_source(self, capsys):
        assert main(["--algo", "netdecomp"]) == 2

    def test_mst_on_disconnected_graph_is_graph_error(self, capsys):
        assert main(["--gen", "gnp:n=4,p=0", "--algo", "mst"]) == 2
        assert "connected" in capsys.readouterr().err

    def test_graph_error_aborts_a_sweep(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["--gen", "gnp:n=4,p=0", "--algo", "mst", "--seeds", "0-2",
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_algorithm_error_on_one_seed_keeps_the_sweep(self, tmp_path, capsys):
        # grid 3x3 has MST-radius 6 at seed 0 and 4 at seed 1 (MST_RUNS)
        out = tmp_path / "r.json"
        argv = ["--gen", "grid:rows=3,cols=3", "--algo", "mst", "--seeds", "0,1",
                "--mu", "5", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: seed 0: supplied mu=5 below MST-radius 6\n"
        )
        report = read(out)
        first, second = report["runs"]
        assert first == {"seed": 0, "error": "MstError: supplied mu=5 below MST-radius 6"}
        assert second["seed"] == 1 and second["valid"] and second["mst_radius"] == 4
        assert report["all_valid"] is False

    @pytest.mark.parametrize("algo", ["netdecomp", "cover"])
    def test_k_below_one_is_config_error(self, capsys, algo):
        assert main(["--gen", "path:n=5", "--algo", algo, "--k", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: --k must be >= 1")

    @pytest.mark.parametrize("seeds", ["3-1", "5-4"])
    def test_empty_seed_sweep_is_config_error(self, tmp_path, capsys, seeds):
        out = tmp_path / "r.json"
        argv = ["--gen", "path:n=5", "--algo", "netdecomp", "--seeds", seeds,
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --seeds {seeds} selects no seed\n"
        assert not out.exists()

    @pytest.mark.parametrize("graph,dec", [
        ({"edges": [[0, 1]]}, None),                       # no "nodes"
        ({"nodes": [0, 1], "edges": [5]}, None),           # edge not a list
        ({"nodes": ["a", 1], "edges": []}, None),          # string node id
        ([[0, 1]], None),                                  # top-level list
        ({"nodes": [0, 1], "edges": [[0, 1]]}, {"k": 1}),  # no "clusters"
    ])
    def test_malformed_json_is_graph_error(self, tmp_path, capsys, graph, dec):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph))
        argv = ["--graph", str(gpath), "--algo", "netdecomp"]
        if dec is not None:
            dpath = tmp_path / "d.json"
            dpath.write_text(json.dumps(dec))
            argv = ["--graph", str(gpath), "--algo", "verify", "--dec", str(dpath)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    # the whole error line, with {path} for the graph file
    @pytest.mark.parametrize("graph,line", [
        ({"nodes": [0, 1], "edges": [[0]]},                 # short edge
         "error: graph JSON {path}: wrong type (list index out of range)"),
        ({"nodes": [0, 1], "edges": [[0, 1], [1]]},
         "error: graph JSON {path}: wrong type (list index out of range)"),
        ({"nodes": [0, 1], "edges": [[0, 2**63]]},          # beyond int64
         "error: edge (0,9223372036854775808) references unknown node"),
        ({"nodes": [0, 1], "edges": [[0, math.nan]]},
         "error: cannot convert float NaN to integer"),
        ({"nodes": [0, 1], "edges": [[True, 1]]}, "error: self-loop at node 1"),
        ({"nodes": [0, 1, 2], "edges": [[0, 1], [2, 7], [1, 0]]},
         "error: edge (2,7) references unknown node"),
        ({"nodes": [0, 1, 2], "edges": [[0, 1], [1, 0], [2, 2]]},
         "error: duplicate edge (1,0)"),
        ({"nodes": [0, 1.0], "edges": [[0, 1]]},
         "error: graph JSON {path}: wrong type "
         "('float' object has no attribute 'bit_length')"),
    ])
    def test_malformed_json_error_line(self, tmp_path, capsys, graph, line):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph))
        assert main(["--graph", str(gpath), "--algo", "netdecomp"]) == 2
        assert capsys.readouterr().err == line.format(path=gpath) + "\n"

    @pytest.mark.parametrize("nodes,edge,neighbors,id_bits", [
        ([0, 1], [0, 1.0], ((1,), (0,)), 1),        # float endpoint
        ([0, 1], [0, 1.5], ((1,), (0,)), 1),        # truncated by int()
        ([0, 1], ["0", "1"], ((1,), (0,)), 1),      # string endpoints
        ([0, 2**63], [2**63, 0], ((1,), (0,)), 64),  # endpoint beyond int64
        ([0, 1, 2], [1, 2, 4], ((), (2,), (1,)), 2),  # numeric weight
    ])
    def test_json_endpoints_convert_as_int_does(
        self, tmp_path, nodes, edge, neighbors, id_bits
    ):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"nodes": nodes, "edges": [edge]}))
        g = load_graph(str(gpath), fmt="json")
        assert (g.ids, g.neighbors, g.id_bits) == (tuple(nodes), neighbors, id_bits)
        assert main(["--graph", str(gpath), "--algo", "netdecomp",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_algorithm_error_exits_three(self):
        # a 3-bit budget is below the id_bits + 8 = 13 bits sim mode needs
        proc = subprocess.run(
            [sys.executable, "-m", "netdecomp.cli",
             "--gen", "grid:rows=5,cols=5", "--algo", "netdecomp",
             "--mode", "sim", "--msg-bits", "3", "--strict"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1


# `--gen grid:rows=3,cols=3 --algo mst --seeds 0,1`: the report's runs as
# the CLI wrote them when it still called mst_radius a second time
MST_RUNS = [
    {"failures": [], "mst": {"cover_stats": {"sparsity": 1},
                             "excluded_edges": [[0, 1], [1, 2], [3, 4], [5, 8]],
                             "mst_edges": [[0, 3], [1, 4], [2, 5], [3, 6], [4, 5],
                                           [4, 7], [6, 7], [7, 8]],
                             "mu": 6},
     "mst_radius": 6, "mu": 6, "n": 9, "seed": 0, "valid": True},
    {"failures": [], "mst": {"cover_stats": {"sparsity": 1},
                             "excluded_edges": [[0, 3], [4, 5], [5, 8], [6, 7]],
                             "mst_edges": [[0, 1], [1, 2], [1, 4], [2, 5], [3, 4],
                                           [3, 6], [4, 7], [7, 8]],
                             "mu": 4},
     "mst_radius": 4, "mu": 4, "n": 9, "seed": 1, "valid": True},
]


class TestMstReport:
    ARGV = ["--gen", "grid:rows=3,cols=3", "--algo", "mst"]

    def run_counting(self, monkeypatch, capsys, argv):
        """Run the CLI, counting mst_radius calls through every binding."""
        from netdecomp import cli, covers

        calls = []
        real = covers.mst_radius

        def counted(g, *args, **kwargs):
            calls.append(g)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(covers, "mst_radius", counted)
        monkeypatch.setattr(cli, "mst_radius", counted)
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out), len(calls)

    def test_mu_computed_once_per_seed(self, monkeypatch, capsys):
        report, calls = self.run_counting(
            monkeypatch, capsys, self.ARGV + ["--seeds", "0,1"])
        assert calls == 2
        assert report["runs"] == MST_RUNS

    def test_supplied_mu_kept_beside_the_true_radius(self, monkeypatch, capsys):
        report, calls = self.run_counting(
            monkeypatch, capsys, self.ARGV + ["--seeds", "0", "--mu", "9"])
        assert calls == 1
        (run,) = report["runs"]
        assert run["mu"] == run["mst"]["mu"] == 9
        assert run["mst_radius"] == 6
        assert run["valid"] and run["mst"]["mst_edges"] == MST_RUNS[0]["mst"]["mst_edges"]


# a decomposition of path n=5: singletons 0 and 4 share color 0, 4 hops apart
PATH5_DEC = {"k": 2, "clusters": [
    {"id": 0, "center": 0, "members": [0], "tree_edges": [], "color": 0},
    {"id": 1, "center": 4, "members": [4], "tree_edges": [], "color": 0},
    {"id": 2, "center": 1, "members": [1, 2, 3],
     "tree_edges": [[1, 2], [2, 3]], "color": 1},
]}


def _dec_text(k):
    """``PATH5_DEC`` as JSON text, with ``k`` written as the JSON text ``k``."""
    return json.dumps(PATH5_DEC).replace('"k": 2', f'"k": {k}')


def _dec_with_cluster0(**fields):
    """``PATH5_DEC`` with ``fields`` of its first cluster replaced."""
    out = json.loads(json.dumps(PATH5_DEC))
    out["clusters"][0].update(fields)
    return out


class TestInputErrors:
    """Bad input exits 2 with one ``error:`` line that names what is wrong."""

    def run(self, capsys, argv):
        status = main(argv)
        return status, capsys.readouterr().err

    @pytest.mark.parametrize("spec,key", [
        ("path", "n"), ("clique", "n"), ("tree", "n"),
        ("grid:cols=3", "rows"), ("grid:rows=2", "cols"),
        ("gnp:p=0.5", "n"), ("gnp:n=10", "p"),
    ])
    def test_missing_generator_parameter(self, capsys, spec, key):
        model = spec.partition(":")[0]
        assert self.run(capsys, ["--gen", spec, "--algo", "netdecomp"]) == (
            2, f"error: model {model!r} needs parameter {key!r}\n")

    @pytest.mark.parametrize("value", ["inf", "nan", "x"])
    def test_non_integer_generator_parameter(self, capsys, value):
        argv = ["--gen", f"path:n={value}", "--algo", "netdecomp"]
        status, err = self.run(capsys, argv)
        assert status == 2 and err.startswith("error: parameter n must be an integer")

    @pytest.mark.parametrize("seeds,part", [("x", "x"), ("1-x", "1-x"), ("0,x-2", "x-2")])
    def test_non_integer_seed(self, capsys, seeds, part):
        argv = ["--gen", "path:n=5", "--algo", "netdecomp", "--seeds", seeds]
        assert self.run(capsys, argv) == (
            2, f"error: --seeds must list integers or ranges a-b, got {part!r}\n")

    def test_non_numeric_gnp_p(self, capsys):
        argv = ["--gen", "gnp:n=5,p=x", "--algo", "netdecomp"]
        assert self.run(capsys, argv) == (
            2, "error: parameter p must be a number, got 'x'\n")

    @pytest.mark.parametrize("graph,what", [
        ({"nodes": [0, 1], "edges": [[0, math.inf]]},
         "wrong type (cannot convert float infinity to integer)"),
        ({"nodes": [0, 1], "edges": [[0, 1]], "id_bits": math.inf},
         "id_bits must be an integer, got inf"),
        ({"nodes": [0, 1], "edges": [[0, 1]], "id_bits": "8"},
         "id_bits must be an integer, got '8'"),
    ])
    def test_non_integer_json_number(self, tmp_path, capsys, graph, what):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph))
        assert self.run(capsys, ["--graph", str(gpath), "--algo", "netdecomp"]) == (
            2, f"error: graph JSON {gpath}: {what}\n")

    @pytest.mark.parametrize("weight", ["1/0", "x"])
    def test_bad_json_weight_names_the_edge(self, tmp_path, capsys, weight):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"nodes": [0, 1, 2], "edges": [[0, 1, weight]]}))
        edge = f"edge [0, 1, {weight!r}]"
        line = f"error: graph JSON {gpath}: {edge}: bad weight {weight!r}"
        assert self.run(capsys, ["--graph", str(gpath), "--algo", "netdecomp"]) == (
            2, line + "\n")

    @pytest.mark.parametrize("text,what", [
        ('"x"', "k must be an integer >= 1, got 'x'"),
        ("-1", "k must be an integer >= 1, got -1"),
        ("0", "k must be an integer >= 1, got 0"),
        ("null", "k must be an integer >= 1, got None"),
        ("1e400", "k must be an integer >= 1, got inf"),
        ("2.0", "k must be an integer >= 1, got 2.0"),
        ("true", "k must be an integer >= 1, got True"),
    ])
    def test_decomposition_k_type(self, tmp_path, capsys, text, what):
        dpath = tmp_path / "d.json"
        dpath.write_text(_dec_text(text))
        argv = ["--gen", "path:n=5", "--algo", "verify", "--dec", str(dpath)]
        assert self.run(capsys, argv) == (2, f"error: decomposition JSON: {what}\n")

    @pytest.mark.parametrize("field,value,what", [
        ("color", [1], "color must be an integer, got [1]"),
        ("color", {"a": 1}, "color must be an integer, got {'a': 1}"),
        ("color", "0", "color must be an integer, got '0'"),
        ("color", False, "color must be an integer, got False"),
        ("id", "0", "cluster id must be an integer, got '0'"),
        ("id", 0.5, "cluster id must be an integer, got 0.5"),
        ("id", None, "cluster id must be an integer, got None"),
    ])
    def test_decomposition_cluster_field_types(
        self, tmp_path, capsys, field, value, what
    ):
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(_dec_with_cluster0(**{field: value})))
        argv = ["--gen", "path:n=5", "--algo", "verify", "--dec", str(dpath)]
        assert self.run(capsys, argv) == (2, f"error: decomposition JSON: {what}\n")

    def test_absent_or_null_color_is_accepted(self, tmp_path):
        dec = _dec_with_cluster0(color=None)
        del dec["clusters"][1]["color"]
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(dec))
        argv = ["--gen", "path:n=5", "--algo", "verify", "--dec", str(dpath),
                "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0


class TestRefinementsCertifiedStrong:
    @pytest.mark.parametrize("algo", ["carve", "ballgrow"])
    def test_tree_through_a_non_member_fails(self, monkeypatch, tmp_path, algo):
        # on path 0-1-2, cluster 0 = {0, 2} reaches 2 through node 1 of
        # cluster 1: a valid weak decomposition, not a strong one
        dec = Decomposition(k=1, clusters=[
            Cluster(0, 0, frozenset([0, 2]), frozenset([(0, 1), (1, 2)]), color=0),
            Cluster(1, 1, frozenset([1]), color=1),
        ])
        monkeypatch.setattr(cli, "carve_decompose", lambda *a, **kw: (dec, {}, 1))
        monkeypatch.setattr(cli, "ball_grow_refine", lambda *a, **kw: (dec, []))
        out = tmp_path / "r.json"
        assert main(["--gen", "path:n=3", "--algo", algo, "--out", str(out)]) == 1
        (run,) = read(out)["runs"]
        assert run["failures"] == ["cluster 0: tree leaves member set (strong mode)"]


# -- fuzzing the whole command line ---------------------------------------

_BIG = 2**128 - 1


def _rarely(usual, odd):
    """Mostly ``usual``, sometimes one of the values ``odd``."""
    return st.integers(1, 6).flatmap(lambda r: st.sampled_from(odd) if r == 6 else usual)


@st.composite
def _gen_spec(draw):
    """A generator spec, its node ids when it is well formed (else None)."""
    model = draw(st.sampled_from(["path", "clique", "grid", "tree", "gnp"]))
    if draw(st.integers(0, 3)) == 0:  # keys and values at random
        params = draw(st.dictionaries(
            st.sampled_from(["n", "rows", "cols", "p"]),
            st.sampled_from(["0", "1", "4", "0.3", "inf", "nan", "x"]), max_size=3))
        return f"{model}:" + ",".join(f"{k}={v}" for k, v in params.items()), None
    small = st.integers(1, 6)
    if model == "grid":
        rows, cols = draw(small), draw(small)
        return f"grid:rows={rows},cols={cols}", list(range(rows * cols))
    n = draw(small)
    if model == "gnp":
        p = draw(st.sampled_from([0.0, 0.3, 1.0]))
        return f"gnp:n={n},p={p}", list(range(n))
    return f"{model}:n={n}", list(range(n))


_GRAPH_FAULTS = ["weight 1/0", "weight x", "short edge", "unknown endpoint",
                 "infinite endpoint", "self-loop", "id_bits", "no nodes key",
                 "top-level list"]


@st.composite
def _graph_json(draw):
    """Graph JSON text with n in 0..7, isolated nodes and several components
    likely, ids small or just below 2^128, maybe weighted, maybe malformed;
    and its node ids."""
    n = draw(st.integers(0, 7))
    big = draw(st.booleans())
    ids = [_BIG - 7919 * i if big else i for i in range(n)][::-1]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [[ids[a], ids[b]] for a, b in chosen]
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(edges))))
        for e, r in zip(edges, order):
            e.append(f"{r + 1}/3")
    fault = draw(_rarely(st.none(), _GRAPH_FAULTS))
    data = {"nodes": ids, "edges": edges}
    if fault == "weight 1/0":
        data["edges"] = edges + [[_BIG + 1, _BIG + 2, "1/0"]]
        data["nodes"] = ids + [_BIG + 1, _BIG + 2]
    elif fault == "weight x":
        data["edges"] = [[0, 1, "x"]]
        data["nodes"] = [0, 1]
    elif fault == "short edge":
        data["edges"] = edges + [[0]]
    elif fault == "unknown endpoint":
        data["edges"] = edges + [[-1, -2]]
    elif fault == "infinite endpoint":
        data["edges"] = edges + [[0, math.inf]]
    elif fault == "self-loop":
        data["edges"] = edges + [[5, 5]]
    elif fault == "id_bits":
        data["id_bits"] = draw(st.sampled_from([math.inf, 2.5, "x", True, 0, 200]))
    elif fault == "no nodes key":
        del data["nodes"]
    elif fault == "top-level list":
        data = edges
    return json.dumps(data), ids


_DEC_FAULTS = ["k", "color", "id", "no clusters", "unknown member", "cluster list"]


@st.composite
def _dec_json(draw, ids):
    """Decomposition JSON text over ``ids``: each node in one of three
    clusters, trees empty (so a cluster of several members fails), maybe
    malformed."""
    owner = draw(st.lists(st.integers(0, 2), min_size=len(ids), max_size=len(ids)))
    clusters = []
    for c in range(3):
        members = [v for v, o in zip(ids, owner) if o == c]
        if members:
            clusters.append({"id": c, "center": members[0], "members": members,
                             "tree_edges": [], "color": draw(st.integers(0, 1))})
    data = {"k": draw(_rarely(st.integers(1, 3), [10**400])), "clusters": clusters}
    fault = draw(_rarely(st.none(), _DEC_FAULTS))
    if fault == "k":
        data["k"] = draw(st.sampled_from(["x", -1, 0, None, 1e400, True, 1.5]))
    elif fault in ("color", "id") and clusters:
        clusters[0][fault] = draw(st.sampled_from([[1], {"a": 1}, "x", 0.5, True]))
    elif fault == "no clusters":
        del data["clusters"]
    elif fault == "unknown member" and clusters:
        clusters[0]["members"].append(-3)
    elif fault == "cluster list" and clusters:
        clusters[0] = [0]
    return json.dumps(data)


@st.composite
def _cli_case(draw):
    """(argv, files): ``@name`` in argv stands for the file ``name`` whose
    text ``files`` holds."""
    algo = draw(st.sampled_from(ALGOS))
    files = {}
    if draw(st.booleans()):
        spec, ids = draw(_gen_spec())
        argv = ["--gen", spec]
    else:
        files["g.json"], ids = draw(_graph_json())
        argv = ["--graph", "@g.json"]
    mode = draw(st.sampled_from(["fast", "sim"]))
    # rarely a k or mu past the float range, in fast mode only: at such a
    # k, sim mode's min-gossip would step up to its round cap
    huge = [10**400] if mode == "fast" else []
    argv += ["--algo", algo, "--mode", mode,
             "--k", str(draw(_rarely(st.integers(1, 3), [0, -1, *huge]))),
             "--seeds", draw(_rarely(st.sampled_from(["0", "1", "0-2", "2,0"]),
                                     ["3-1", "x", ""]))]
    if algo == "verify" and draw(st.integers(0, 9)):
        files["d.json"] = draw(_dec_json(ids if ids is not None else [0, 1, 2]))
        argv += ["--dec", "@d.json"]
    mu = st.integers(1, 8)
    mu = draw(st.none() | (_rarely(mu, huge) if huge else mu))
    if mu is not None:
        argv += ["--mu", str(mu)]
    bits = draw(st.none() | st.integers(1, 140))
    if bits is not None:
        argv += ["--msg-bits", str(bits)]
    if draw(st.booleans()):
        argv.append("--strict")
    return argv, files


class TestCliFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_cli_case())
    @example(case=(["--gen", "path", "--algo", "netdecomp"], {}))
    @example(case=(["--graph", "@g.json", "--algo", "netdecomp"],
                   {"g.json": '{"nodes": [0, 1, 2], "edges": [[0, 1, "1/0"]]}'}))
    @example(case=(["--gen", "path:n=5", "--algo", "verify", "--dec", "@d.json"],
                   {"d.json": _dec_text('"x"')}))
    @example(case=(["--gen", "path:n=5", "--algo", "verify", "--dec", "@d.json"],
                   {"d.json": _dec_text("1e400")}))
    def test_main_returns_a_status_and_never_raises(self, case):
        argv, files = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in files.items():
                (root / name).write_text(text)
            out = root / "report.json"
            argv = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = main(argv + ["--out", str(out)])
            lines = err.getvalue().splitlines()
            assert status in (0, 1, 2, 3)
            assert all(line.startswith("error: ") for line in lines)
            if not out.exists():  # bad input (2) or a failure outside the sweep (3)
                assert status in (2, 3) and len(lines) == 1
                return
            assert status != 2
            report = read(out)
            errors = [r for r in report["runs"] if "error" in r]
            assert len(errors) == len(lines)
            assert (status == 3) == bool(errors)
            if status == 1:
                assert report["all_valid"] is False
            if status == 0:
                assert report["all_valid"] is True
