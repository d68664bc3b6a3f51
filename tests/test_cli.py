import json
import math
import subprocess
import sys

import pytest

from netdecomp.cli import ConfigError, main, parse_gen, parse_seeds
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
