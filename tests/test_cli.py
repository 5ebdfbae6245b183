import hashlib
import io
import json
import subprocess
import sys

import pytest

from hypercolor import complete_uniform, parse_hypergraph, serialize_hypergraph
from hypercolor.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestGen:
    def test_regular15(self, capsys):
        code, out, _ = run(capsys, ["gen", "regular15"])
        assert code == 0
        H = parse_hypergraph(out)
        assert (H.n, H.k, H.m) == (15, 3, 15)

    def test_theorem3(self, capsys):
        code, out, _ = run(capsys, ["gen", "theorem3", "--k", "3", "--r", "6"])
        assert code == 0
        assert parse_hypergraph(out).n == 18

    def test_complete_uniform_pretty(self, capsys):
        code, out, _ = run(capsys, ["gen", "complete-uniform",
                                    "--m", "4", "--k", "2", "--pretty"])
        assert code == 0
        assert out.count("\n") > 1
        assert parse_hypergraph(out).m == 6

    def test_split_lift_from_file(self, capsys, tmp_path):
        pat = {"base_m": 4, "split": [0], "lifts": [[0], [0], [0], []]}
        f = tmp_path / "pat.json"
        f.write_text(json.dumps(pat))
        code, out, _ = run(capsys, ["gen", "split-lift", "--pattern", str(f)])
        assert code == 0
        assert parse_hypergraph(out).n == 5

    def test_bad_params_exit_1(self, capsys):
        code, _, err = run(capsys, ["gen", "theorem3", "--k", "2", "--r", "6"])
        assert code == 1
        assert "error:" in err

    def test_deeply_nested_pattern_exit_1(self, capsys, tmp_path):
        f = tmp_path / "pat.json"
        f.write_text('{"base_m":4,"split":[0],"lifts":' + "[" * 100_000)
        code, out, err = run(capsys, ["gen", "split-lift", "--pattern", str(f)])
        assert code == 1 and out == ""
        assert err.startswith("error: not valid JSON") and err.count("\n") == 1

    def test_split_lift_of_a_huge_base_exit_1(self, capsys, tmp_path):
        f = tmp_path / "pat.json"
        f.write_text('{"base_m": 1000000, "split": [], "lifts": []}')
        code, out, err = run(capsys, ["gen", "split-lift", "--pattern", str(f)])
        assert code == 1 and out == ""
        assert err == "error: expected 166666166667000000 lift rows, got 0\n"

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "h.json"
        code, out, _ = run(capsys, ["gen", "regular15", "--out", str(dest)])
        assert code == 0 and out == ""
        assert parse_hypergraph(dest.read_text()).m == 15


class TestSolve:
    def test_chi_bare_number(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "h.json"
        f.write_text(serialize_hypergraph(complete_uniform(3, 3)))
        code, out, _ = run(capsys, ["solve", str(f), "--chi"])
        assert code == 0
        assert out == "3\n"

    def test_spectrum_from_stdin(self, capsys, monkeypatch):
        doc = serialize_hypergraph(complete_uniform(4, 2))
        code, out, _ = run(capsys, ["solve", "-", "--spectrum"],
                           stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["chi"] == 4 and rep["psi"] == 4

    def test_t_query_none(self, capsys, monkeypatch):
        doc = serialize_hypergraph(complete_uniform(4, 2))
        code, out, _ = run(capsys, ["solve", "-", "--t", "3"],
                           stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["status"] == "none"

    def test_budget_exhaustion_exit_2(self, capsys, monkeypatch):
        doc = serialize_hypergraph(complete_uniform(8, 2))
        code, out, _ = run(capsys, ["solve", "-", "--t", "8", "--budget", "2"],
                           stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out)["status"] == "budget_exhausted"

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERCOLOR_BUDGET", "2")
        doc = serialize_hypergraph(complete_uniform(8, 2))
        code, out, _ = run(capsys, ["solve", "-", "--spectrum"],
                           stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out)["unknown"] != []

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_budget_env_var_must_be_positive(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("HYPERCOLOR_BUDGET", raw)
        doc = serialize_hypergraph(complete_uniform(8, 2))
        code, out, err = run(capsys, ["solve", "-", "--spectrum"],
                             stdin=doc, monkeypatch=monkeypatch)
        assert code == 1
        assert out == ""
        assert "HYPERCOLOR_BUDGET" in err

    def test_spectrum_budget_bounds_chi(self, capsys, monkeypatch):
        # the chi search on K8 needs 8 nodes, more than the budget
        doc = serialize_hypergraph(complete_uniform(8, 2))
        code, out, _ = run(capsys, ["solve", "-", "--spectrum", "--budget", "1"],
                           stdin=doc, monkeypatch=monkeypatch)
        assert code == 2
        rep = json.loads(out)
        assert rep["chi"] is None and rep["unknown"] == [8]
        assert rep["psi"] is None
        assert '"psi":null' in out

    def test_bad_json_exit_1(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["solve", "-", "--chi"],
                           stdin="nope", monkeypatch=monkeypatch)
        assert code == 1 and "error:" in err

    def test_vertex_beyond_id_dtype_exit_1(self, capsys, monkeypatch):
        # 70000 does not fit the int16 ids of n=100: a range error, no traceback
        code, out, err = run(capsys, ["solve", "-", "--chi"],
                             stdin='{"k":2,"n":100,"edges":[[0,70000]]}',
                             monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert err == "error: vertex id 70000 out of range for n=100\n"

    @pytest.mark.parametrize("query", ["--chi", "--psi", "--spectrum", "--t=2"])
    def test_past_the_vertex_limit_exit_1(self, capsys, tmp_path, query):
        # the star K_{1,1499}: one line naming the limit, no traceback
        f = tmp_path / "star.json"
        f.write_text(json.dumps({"k": 2, "n": 1500,
                                 "edges": [[0, v] for v in range(1, 1500)]}))
        code, out, err = run(capsys, ["solve", str(f), query])
        assert code == 1 and out == ""
        assert err == ("error: the exact search takes at most 900 vertices, "
                       "the hypergraph has 1500\n")

    @pytest.mark.parametrize("doc, message", [
        ('{"k":2,"n":9223372036854775807,"edges":[[0,1]]}',
         "the exact search takes at most 900 vertices, "
         "the hypergraph has 9223372036854775807"),
        ('{"k":2,"n":18446744073709551616,"edges":[[0,1]]}',
         "vertex count must be a non-negative int below 2**63, "
         "got 18446744073709551616"),
        ('{"k":2,"n":3,"edges":' + "[" * 100_000 + "]" * 100_000 + "}",
         "not valid JSON: nested too deeply"),
        ('{"k":99999999999999999999999,"n":3,"edges":[]}',
         "edge size must be an int >= 2 and below 2**60, got 99999999999999999999999"),
        ('{"k":4611686018427387904,"n":3,"edges":[]}',
         "edge size must be an int >= 2 and below 2**60, got 4611686018427387904"),
    ], ids=["n=2**63-1", "n=2**64", "nested", "k=10**23", "k=2**62"])
    @pytest.mark.parametrize("query", ["--chi", "--spectrum"])
    def test_hostile_documents_exit_1(self, capsys, monkeypatch, doc, message, query):
        code, out, err = run(capsys, ["solve", "-", query],
                             stdin=doc, monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_edgeless_spectrum_of_a_huge_vertex_count(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["solve", "-", "--spectrum"],
                           stdin='{"k":2,"n":1000000000000,"edges":[]}',
                           monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["chi"] == 1 and json.loads(out)["psi"] == 0

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, ["solve", "/does/not/exist", "--chi"])
        assert code == 1

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-", "--chi", "--psi"])
        assert exc.value.code == 2


class TestSearch:
    def test_small_exhaustive_hits(self, capsys):
        code, out, _ = run(capsys, ["search", "split", "--base", "4",
                                    "--split", "0", "--require", "4",
                                    "--budget", "64"])
        assert code == 0
        doc = json.loads(out)
        assert doc["hits"]
        h = doc["hits"][0]
        assert h["hypergraph"]["n"] == 5
        assert 4 in h["report"]["feasible"]

    def test_no_hits_exit_2(self, capsys):
        code, out, _ = run(capsys, ["search", "split", "--base", "4",
                                    "--split", "0", "--require", "9",
                                    "--budget", "64"])
        assert code == 2
        assert json.loads(out)["hits"] == []

    @pytest.mark.parametrize("size", ["0", "1000000000"])
    def test_unreachable_required_size_exit_2(self, capsys, size):
        # no proper 0-coloring, no complete coloring past the 9 vertices:
        # no hits, as for test_no_hits_exit_2, in randomized mode
        code, out, _ = run(capsys, ["search", "split", "--base", "5",
                                    "--split", "0,1,2,3", "--require", size,
                                    "--budget", "200"])
        assert code == 2
        assert json.loads(out)["hits"] == []

    @pytest.mark.parametrize("args, message", [
        (["--require=-1"], "required and forbidden sizes must be non-negative, got -1"),
        (["--forbid=-1"], "required and forbidden sizes must be non-negative, got -1"),
        (["--k", "0"], "need k >= 2, got k=0"),
        (["--k", "1"], "need k >= 2, got k=1"),
    ], ids=["require=-1", "forbid=-1", "k=0", "k=1"])
    def test_degenerate_sizes_exit_1(self, capsys, args, message):
        code, out, err = run(capsys, ["search", "split", "--base", "5",
                                      "--split", "0,1,2,3"] + args)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_deterministic_bytes(self, capsys):
        argv = ["search", "split", "--base", "5", "--split", "0,1,2,3",
                "--require", "3,5", "--forbid", "4",
                "--budget", "300", "--seed", "1"]
        _, a, _ = run(capsys, argv)
        _, b, _ = run(capsys, argv)
        assert a == b

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, capsys, workers):
        code, out, err = run(capsys, ["search", "split", "--base", "5",
                                      "--split", "0,1,2,3", "--require", "3,5",
                                      "--forbid", "4", "--budget", "50",
                                      "--workers", workers])
        assert code == 1
        assert out == ""
        assert "workers" in err

    def test_out_directory(self, capsys, tmp_path):
        dest = tmp_path / "hits"
        code, out, _ = run(capsys, ["search", "split", "--base", "4",
                                    "--split", "0", "--require", "4",
                                    "--budget", "64", "--out", str(dest)])
        assert code == 0 and out == ""
        summary = json.loads((dest / "summary.json").read_text())
        first = summary["hits"][0]["file"]
        assert parse_hypergraph((dest / first).read_text()).n == 5


class TestTri:
    def test_enumerate_stdout(self, capsys):
        code, out, _ = run(capsys, ["tri", "enumerate", "--n", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["classes"][0]["embedding"].startswith("0:")

    def test_enumerate_eulerian_filter(self, capsys):
        code, out, _ = run(capsys, ["tri", "enumerate", "--n", "6",
                                    "--eulerian"])
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["classes"][0]["degrees"] == [4] * 6

    def test_enumerate_out_dir(self, capsys, tmp_path):
        dest = tmp_path / "tris"
        code, out, _ = run(capsys, ["tri", "enumerate", "--n", "5",
                                    "--out", str(dest)])
        assert code == 0
        index = json.loads((dest / "index.json").read_text())
        assert len(index) == 1
        body = (dest / index[0]["file"]).read_text()
        assert body.startswith("0:")

    def test_face_hypergraph_pipe(self, capsys, monkeypatch):
        emb = "0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n"
        code, out, _ = run(capsys, ["tri", "face-hypergraph", "-"],
                           stdin=emb, monkeypatch=monkeypatch)
        assert code == 0
        H = parse_hypergraph(out)
        assert (H.n, H.k, H.m) == (4, 3, 4)

    def test_find_gap_empty_small(self, capsys):
        code, out, _ = run(capsys, ["tri", "find-gap", "--n", "8"])
        assert code == 0
        assert json.loads(out)["hits"] == []

    def test_find_gap_budget_reports_undecided(self, capsys):
        # one node per search decides none of the 8 Eulerian classes, so
        # the empty hit list is not an answer
        code, out, _ = run(capsys, ["tri", "find-gap", "--n", "12",
                                    "--budget", "1"])
        assert code == 2
        assert json.loads(out) == {"n": 12, "hits": [], "undecided": 8}

    def test_scale_guard_exit_1(self, capsys):
        code, _, err = run(capsys, ["tri", "enumerate", "--n", "30"])
        assert code == 1


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["solve", "-", "--t", "8"],
    ["search", "split", "--base", "4", "--split", "0", "--require", "4"],
    ["tri", "find-gap", "--n", "6"],
], ids=["solve", "search split", "tri find-gap"])
def test_budget_flag_must_be_positive(capsys, monkeypatch, argv, budget):
    doc = serialize_hypergraph(complete_uniform(8, 2))
    code, out, err = run(capsys, argv + ["--budget", budget],
                         stdin=doc, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "--budget" in err


class TestExport:
    def test_dot(self, capsys, monkeypatch):
        doc = serialize_hypergraph(complete_uniform(3, 2))
        code, out, _ = run(capsys, ["export", "dot", "-"],
                           stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("graph incidence {")
        assert out.rstrip().endswith("}")

    def test_dot_caps_vertices(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["export", "dot", "-"],
                             stdin='{"k":2,"n":3000000,"edges":[]}',
                             monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert err == ("error: incidence graph capped at 100000 vertices and "
                       "edges, instance has n=3000000, m=0\n")


# sha256 of documents the CLI writes, compact and --pretty; a digest that
# moves means the output format changed
OUTPUT_DIGESTS = {
    ("gen regular15", False):
        "71e0927bd893a785d15aa68a399f41ea56b28dbe162abb85cc81a081c9437f7f",
    ("gen regular15", True):
        "30c51634c78d2b984fb7a4c55ab20479040e2df18a88fcc13036ff5613713810",
    ("solve K4_3 --spectrum", False):
        "de81862d876d0098487ed1c1bcbdc8a5d6e415424c03404db6ac770742bca90c",
    ("solve K4_3 --spectrum", True):
        "2de00aec6f52b80a10fdd81e698bc8bf93b5ef30a92e2bfda0025bccb0e56b27",
    ("tri enumerate --n 6", False):
        "25cff87b565bc1bbc15cf1a2b0ca226045933d2d5f3cb98445fe57e4705ab43e",
    ("tri enumerate --n 6", True):
        "cf71d74e043ff8fea23aacce460a2b89a38fa94890da67a9667b7dc560c0e46e",
    ("tri enumerate --n 5 --out: index.json", False):
        "34a6fde49a16662400de08c2c7182df9f631e226dc038b855bb2b13755051a6b",
    ("tri enumerate --n 5 --out: index.json", True):
        "767976aa860667ed32f8f3d730c50f760f0e84f8c8e337b7df0051e903f59bf8",
}


class TestOutputBytes:
    @pytest.mark.parametrize("command, pretty", sorted(OUTPUT_DIGESTS))
    def test_digest(self, capsys, tmp_path, command, pretty):
        k43 = tmp_path / "k43.json"
        k43.write_text(serialize_hypergraph(complete_uniform(4, 3)))
        outdir = tmp_path / "out"
        argv = {
            "gen regular15": ["gen", "regular15"],
            "solve K4_3 --spectrum": ["solve", str(k43), "--spectrum"],
            "tri enumerate --n 6": ["tri", "enumerate", "--n", "6"],
            "tri enumerate --n 5 --out: index.json":
                ["tri", "enumerate", "--n", "5", "--out", str(outdir)],
        }[command]
        code, out, _ = run(capsys, argv + (["--pretty"] if pretty else []))
        assert code == 0
        data = (outdir / "index.json").read_bytes() if "--out" in argv \
            else out.encode()
        assert hashlib.sha256(data).hexdigest() == OUTPUT_DIGESTS[command, pretty]


class TestRealPipes:
    """True subprocess checks of the documented shell pipelines."""

    def test_gen_solve_pipe(self):
        gen = subprocess.run([sys.executable, "-m", "hypercolor.cli",
                              "gen", "regular15"],
                             capture_output=True, text=True, check=True)
        solve = subprocess.run([sys.executable, "-m", "hypercolor.cli",
                                "solve", "-", "--spectrum"],
                               input=gen.stdout, capture_output=True,
                               text=True, check=True)
        rep = json.loads(solve.stdout)
        assert rep["chi"] == 3 and rep["psi"] == 5
        assert rep["feasible"] == [3, 5]

    def test_stdin_file_parity(self, tmp_path):
        gen = subprocess.run([sys.executable, "-m", "hypercolor.cli",
                              "gen", "complete-uniform", "--m", "5", "--k", "3"],
                             capture_output=True, text=True, check=True)
        f = tmp_path / "h.json"
        f.write_text(gen.stdout)
        via_file = subprocess.run([sys.executable, "-m", "hypercolor.cli",
                                   "solve", str(f), "--spectrum"],
                                  capture_output=True, text=True, check=True)
        via_pipe = subprocess.run([sys.executable, "-m", "hypercolor.cli",
                                   "solve", "-", "--spectrum"],
                                  input=gen.stdout, capture_output=True,
                                  text=True, check=True)
        assert via_file.stdout == via_pipe.stdout
