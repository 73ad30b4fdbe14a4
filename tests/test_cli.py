"""End-to-end runs of the command line harness through cli.main."""

import hashlib
import itertools
import json

import pytest

from treembed import cli
from treembed.cli import main
from treembed.families import caterpillar, cliques_with_apex
from treembed.formats import (
    graph_from_dimacs,
    graph_from_json,
    graph_to_json,
    witness_from_text,
)
from treembed.graphs import TreeGraph, build_graph
from treembed.embedding import EmbedVerdict, Verdict, validate_embedding


def write_graph(path, g, meta=None):
    path.write_text(graph_to_json(g, meta))
    return str(path)


def gen(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(["gen", *argv, "--out", str(out)])
    assert code == 0
    return out


class TestGen:
    def test_two_wing_host(self, tmp_path, capsys):
        out = gen(tmp_path, "h.json", "--family", "h", "--ell", "3", "--c", "1", "--k", "12")
        g, meta = graph_from_json(out.read_text())
        assert (g.n, g.m) == (23, 72)
        assert meta["parts"] == {"hub": 1, "A1": 6, "B1": 5, "A2": 6, "B2": 5}
        stdout = capsys.readouterr().out
        assert "parts: hub=1 A1=6 B1=5 A2=6 B2=5" in stdout
        assert "n=23 m=72 delta=6 Delta=12" in stdout

    def test_stdout_payload_and_stderr_info(self, capsys):
        code = main(["gen", "--family", "h", "--ell", "3", "--c", "1", "--k", "12"])
        assert code == 0
        captured = capsys.readouterr()
        g, _ = graph_from_json(captured.out)
        assert g.n == 23
        assert "delta=6" in captured.err

    @pytest.mark.parametrize("family, fmt, digest", [
        ("h", "json", "dabe15fd92fe522d2f5650d719e5852bfec50b50d7689e42ee683bc8b8b32247"),
        ("h", "dimacs", "1adf6c727a4bbd2fc64753aa219893a7680e9fa4c5d81d93911d9527ad17e160"),
        ("g", "json", "b9ea615198f57cdebc6146a1b28790d9af693e90759b5053508ea0e0e587a756"),
        ("g", "dimacs", "be1542f33a08942fcffd8f55e8d8549484dd5cfd0b794fa29e31673a8fe424e6"),
        ("hprime", "json", "9e8a3028b2263c007f1b64c802c39ff5f4268ff591b4287bacaf5392449d55a1"),
        ("hprime", "dimacs", "e676e72aeddcc01a79b88aa6f8d5c4fad4a46971676a67296df14bde70d6cc5d"),
    ])
    def test_output_frozen(self, capsys, family, fmt, digest):
        # the files written when hosts were built edge by edge; a change to
        # how hosts are stored must leave them byte for byte
        argv = ["gen", "--family", family, "--ell", "3", "--c", "1", "--k", "12"]
        assert main(argv + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_wing_clique_host(self, tmp_path):
        out = gen(tmp_path, "g.json", "--family", "g", "--ell", "3", "--c", "1", "--k", "12")
        g, _ = graph_from_json(out.read_text())
        assert g.n == 18

    def test_matched_wing_host(self, tmp_path):
        out = gen(tmp_path, "hp.json", "--family", "hprime", "--ell", "3", "--c", "1", "--k", "12")
        g, _ = graph_from_json(out.read_text())
        assert g.n == 19

    def test_broom(self, tmp_path):
        out = gen(tmp_path, "t.json", "--family", "broom", "--stars", "4,4,4")
        g, meta = graph_from_json(out.read_text())
        TreeGraph(g)  # must be a valid tree
        assert g.n == 13
        assert meta["ell"] == 3 and meta["k"] == 12

    def test_broom_requires_equal_stars(self, tmp_path, capsys):
        code = main(["gen", "--family", "broom", "--stars", "4,4,5"])
        assert code == 2
        assert "must all be equal" in capsys.readouterr().err

    def test_complete_bipartite(self, tmp_path):
        out = gen(tmp_path, "kb.json", "--family", "kbip", "--n1", "3", "--n2", "5")
        g, _ = graph_from_json(out.read_text())
        assert (g.n, g.m) == (8, 15)

    def test_dimacs_output(self, tmp_path):
        out = gen(
            tmp_path, "h.col",
            "--family", "h", "--ell", "3", "--c", "1", "--k", "12",
            "--format", "dimacs",
        )
        g = graph_from_dimacs(out.read_text())
        assert (g.n, g.m) == (23, 72)
        assert g.tags == {}

    def test_missing_parameter(self, capsys):
        code = main(["gen", "--family", "h", "--ell", "3", "--c", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_parameters(self, capsys):
        code = main(["gen", "--family", "h", "--ell", "4", "--c", "1", "--k", "12"])
        assert code == 2
        assert "odd" in capsys.readouterr().err

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "snake"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["check", "--tree", "t.json", "--host", "h.json", "--out", "f"],
    ["sweep", "--ell-list", "3", "--c-list", "1", "--timeout-ms", "5"],
])
def test_flag_the_subcommand_does_not_read_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--family", "broom", "--stars", "0,0"], "star orders must be positive"),
    (["sweep", "--ell-list", ",", "--c-list", "1"], "--ell-list must be nonempty"),
    (["stress", "--k", "0", "--n", "5"], "k must be positive"),
    # 2(1-alpha)k = 10 exceeds the n - 1 = 5 neighbors a vertex can have
    (["stress", "--k", "5", "--n", "6"], "maximum degree bound"),
], ids=["broom-empty-stars", "sweep-empty-list", "stress-k-0", "stress-degree-over-n"])
def test_rejected_input_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


class TestCheck:
    def test_embedded_with_witness(self, tmp_path, capsys):
        tree = gen(tmp_path, "t.json", "--family", "broom", "--stars", "12")
        host = gen(tmp_path, "h.json", "--family", "h", "--ell", "3", "--c", "1", "--k", "12")
        capsys.readouterr()
        # a single star of order 12 is a 12-edge star; use the path instead
        path_file = write_graph(tmp_path / "p12.json", caterpillar(12).graph)
        wit = tmp_path / "wit.txt"
        code = main(["check", "--tree", path_file, "--host", str(host), "--witness-out", str(wit)])
        assert code == 0
        assert capsys.readouterr().out.startswith("Embedded")
        mapping = witness_from_text(wit.read_text())
        host_graph, _ = graph_from_json(host.read_text())
        assert validate_embedding(TreeGraph(caterpillar(12).graph), host_graph, mapping)

    def test_not_embedded(self, tmp_path, capsys):
        tree = gen(tmp_path, "t.json", "--family", "broom", "--stars", "4,4,4")
        host = gen(tmp_path, "h.json", "--family", "h", "--ell", "3", "--c", "1", "--k", "12")
        capsys.readouterr()
        wit = tmp_path / "wit.txt"
        code = main(["check", "--tree", str(tree), "--host", str(host),
                     "--solver", "exact", "--witness-out", str(wit)])
        assert code == 1
        assert capsys.readouterr().out.startswith("NotEmbedded")
        assert not wit.exists()

    def hard_pair(self, tmp_path):
        # greedy stalls here and the exact search needs far more than the
        # budgets below to finish (10,099 nodes): a path numbered from its
        # middle into a path ten edges longer
        edges = [(i, i + 1) for i in range(100)] + [(0, 101)]
        edges += [(i, i + 1) for i in range(101, 200)]
        tree = write_graph(tmp_path / "path.json", build_graph(201, edges))
        host = write_graph(tmp_path / "longer.json", caterpillar(210).graph)
        return tree, host

    def test_node_budget_timeout(self, tmp_path, capsys):
        tree, host = self.hard_pair(tmp_path)
        code = main(["check", "--tree", tree, "--host", host,
                     "--solver", "exact", "--max-nodes", "1000"])
        assert code == 3
        out = capsys.readouterr().out
        assert out.startswith("Timeout")
        assert "detail:" in out

    def test_zero_node_budget_times_out(self, tmp_path, capsys):
        # greedy stalls here, so the exact stage runs and must stop at once
        tree = write_graph(tmp_path / "p12.json", caterpillar(12).graph)
        host = write_graph(tmp_path / "ca.json", cliques_with_apex(5, 3).graph)
        code = main(["check", "--tree", tree, "--host", host, "--max-nodes", "0"])
        assert code == 3
        assert capsys.readouterr().out.startswith("Timeout")

    def test_negative_node_budget_is_usage_error(self, tmp_path, capsys):
        tree = write_graph(tmp_path / "p12.json", caterpillar(12).graph)
        host = write_graph(tmp_path / "ca.json", cliques_with_apex(5, 3).graph)
        code = main(["check", "--tree", tree, "--host", host, "--max-nodes", "-1"])
        assert code == 2
        assert "--max-nodes" in capsys.readouterr().err

    def test_wall_clock_timeout(self, tmp_path, capsys):
        tree, host = self.hard_pair(tmp_path)
        code = main(["check", "--tree", tree, "--host", host,
                     "--solver", "exact", "--timeout-ms", "1"])
        assert code == 3

    def test_zero_timeout_times_out(self, tmp_path, capsys):
        tree, host = self.hard_pair(tmp_path)
        code = main(["check", "--tree", tree, "--host", host, "--timeout-ms", "0"])
        assert code == 3
        assert capsys.readouterr().out.startswith("Timeout")

    @pytest.mark.parametrize("value", ["-5", "nan"])
    def test_bad_timeout_is_usage_error(self, tmp_path, capsys, value):
        tree, host = self.hard_pair(tmp_path)
        code = main(["check", "--tree", tree, "--host", host,
                     "--solver", "exact", "--timeout-ms", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --timeout-ms")

    def test_strategy_solver(self, tmp_path, capsys):
        host = gen(tmp_path, "h.json", "--family", "h", "--ell", "3", "--c", "2", "--k", "24")
        capsys.readouterr()
        tree = write_graph(tmp_path / "p12.json", caterpillar(12).graph)
        wit = tmp_path / "wit.txt"
        code = main(["check", "--tree", tree, "--host", str(host),
                     "--solver", "strategy", "--witness-out", str(wit)])
        assert code == 0
        assert capsys.readouterr().out.startswith("Embedded")
        # the route strategy_embed takes on this pair, which auto_embed's greedy does not
        assert witness_from_text(wit.read_text()) == {
            0: 30, 1: 43, 2: 29, 3: 42, 4: 28, 5: 0, 6: 1, 7: 15, 8: 2, 9: 16,
            10: 3, 11: 17, 12: 4,
        }

    def test_greedy_solver(self, tmp_path, capsys):
        tree = gen(tmp_path, "t.json", "--family", "broom", "--stars", "4,4,4")
        capsys.readouterr()
        k13 = build_graph(13, list(itertools.combinations(range(13), 2)))
        host = write_graph(tmp_path / "k13.json", k13)
        code = main(["check", "--tree", str(tree), "--host", host, "--solver", "greedy"])
        assert code == 0

    def test_non_tree_input(self, tmp_path, capsys):
        host = gen(tmp_path, "h.json", "--family", "kbip", "--n1", "2", "--n2", "2")
        capsys.readouterr()
        code = main(["check", "--tree", str(host), "--host", str(host)])
        assert code == 2
        assert "is not a tree" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        code = main(["check", "--tree", str(tmp_path / "no.json"),
                     "--host", str(tmp_path / "no.json")])
        assert code == 2

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        tree = write_graph(tmp_path / "p3.json", caterpillar(3).graph)
        host = tmp_path / "h.json"
        host.write_bytes(b'{"format": "\xff\xfe"}')
        code = main(["check", "--tree", tree, "--host", str(host)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {host} is not UTF-8 text")

    def test_unhashable_tag_is_parse_error(self, tmp_path, capsys):
        tree = write_graph(tmp_path / "p3.json", caterpillar(3).graph)
        host = tmp_path / "h.json"
        text = graph_to_json(build_graph(2, [(0, 1)]))
        host.write_text(text.replace('"tags": {}', '"tags": {"0": ["hub"]}'))
        code = main(["check", "--tree", tree, "--host", str(host)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unknown vertex tag ['hub']")


class TestOutOfMemory:
    """A run that runs out of memory reached no verdict: it exits 3 with one
    error line, never 1, which reads as NotEmbedded or REFUTED."""

    @staticmethod
    def no_memory(*args, **kwargs):
        raise MemoryError

    def test_check(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "parse_graph_file", self.no_memory)
        code = main(["check", "--tree", "t.json", "--host", "h.json"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory; the run is inconclusive\n"

    def test_verify_example(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "exact_embed", self.no_memory)
        code = main(["verify-example", "--family", "h", "--ell", "3", "--c", "1"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory; the run is inconclusive\n"


class TestVerifyExample:
    def test_two_wing_confirmed(self, capsys):
        code = main(["verify-example", "--family", "h", "--ell", "3", "--c", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "certificate holds; oracle: NotEmbedded; CONFIRMED"

    def test_wing_clique_confirmed(self, capsys):
        code = main(["verify-example", "--family", "g", "--ell", "3", "--c", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "oracle: NotEmbedded; CONFIRMED"

    def test_matched_wing_confirmed(self, capsys):
        code = main(["verify-example", "--family", "hprime", "--ell", "3", "--c", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "oracle: NotEmbedded; CONFIRMED"

    @pytest.mark.parametrize("family, out", [
        ("h", "certificate holds; oracle: Timeout; INCONCLUSIVE (certificate-only confirmation)"),
        ("g", "oracle: Timeout; INCONCLUSIVE"),
    ])
    def test_zero_timeout_is_inconclusive(self, capsys, family, out):
        code = main(["verify-example", "--family", family, "--ell", "3", "--c", "1",
                     "--timeout-ms", "0"])
        assert code == 3
        assert capsys.readouterr().out.strip() == out

    def test_embedding_refutes(self, monkeypatch, capsys):
        def embeds(tree, host, budget=None):
            return EmbedVerdict(Verdict.EMBEDDED, {v: v for v in range(tree.n)})

        monkeypatch.setattr(cli, "exact_embed", embeds)
        code = main(["verify-example", "--family", "h", "--ell", "3", "--c", "1"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "certificate holds; oracle: Embedded; REFUTED"


class TestSweep:
    def test_nine_two_wing_cases(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--family", "h", "--ell-list", "3,5,7",
                     "--c-list", "1,2,3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        header = lines[0].split(",")
        assert header[0] == "family" and "delta_matches" in header
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["delta_matches"] == "True"
            assert row["Delta_matches"] == "True"
            assert row["certificate_holds"] == "True"
            assert row["delta_ge_half_k"] == "True"

    def test_matched_wing_flags_thin_min_degree(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--family", "hprime", "--ell-list", "3", "--c-list", "1",
              "--out", str(out)])
        header, row_line = out.read_text().splitlines()
        row = dict(zip(header.split(","), row_line.split(",")))
        assert row["delta_ge_half_k"] == "False"
        assert row["certificate_holds"] == "n/a"

    def test_wing_clique_reports_quoted_form_mismatch(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--family", "g", "--ell-list", "3", "--c-list", "1",
              "--out", str(out)])
        header, row_line = out.read_text().splitlines()
        row = dict(zip(header.split(","), row_line.split(",")))
        assert row["Delta_form"] == "8"
        assert row["Delta"] == "12"
        assert row["Delta_matches"] == "False"

    @pytest.mark.parametrize("family, digest", [
        ("h", "94320406291905f40bcbbf5dd389406e831a83a3bb4b513f18dc3fd2f044a2c9"),
        ("g", "65ff0d3cddbe415f74115fb05fb3d53b835cbb1799a3d1b118c0b57990529c96"),
        ("hprime", "b470af5e319bd62828303120f726af130d06b97922984894a88b6cd98a7e5659"),
    ])
    def test_output_frozen(self, capsys, family, digest):
        # the grid's report; the hosts' degree checks and the degree forms
        # it prints must keep every byte
        argv = ["sweep", "--family", family, "--ell-list", "3,5,7", "--c-list", "1,2,3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_non_integer_list(self, capsys):
        code = main(["sweep", "--ell-list", "3,x,5", "--c-list", "1"])
        assert code == 2
        assert "comma list" in capsys.readouterr().err

    def test_trailing_comma_tolerated(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--family", "h", "--ell-list", "3,",
                     "--c-list", "1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 2


class TestStress:
    def test_deterministic_and_counterexample_free(self, tmp_path):
        args = ["stress", "--k", "6", "--n", "16", "--trials", "5", "--seed", "7"]
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        rows = [json.loads(line) for line in f1.read_text().splitlines()]
        assert len(rows) == 5
        for row in rows:
            assert row["counterexample"] is False
            assert (row["witness"] is not None) == (row["verdict"] == "embedded")
            assert "elapsed_ms" not in row

    @pytest.mark.parametrize("argv, digest", [
        (["--k", "30", "--n", "70", "--alpha", "1/4", "--trials", "20", "--seed", "7"],
         "ca703b9467a032f30f8e948cec2753ee3c4ade46645c78a39c253c2e7c893455"),
        (["--k", "4", "--n", "9", "--alpha", "0", "--trials", "50", "--seed", "3"],
         "156cd1188195a03d352ca831694b0558f55b78d9d48d2096b16cdd44294e3e5f"),
    ])
    def test_output_frozen(self, capsys, argv, digest):
        # a change to how hosts or trees are drawn shows here as a new digest
        assert main(["stress"] + argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_timings_flag_adds_elapsed(self, tmp_path):
        out = tmp_path / "t.jsonl"
        main(["stress", "--k", "5", "--n", "14", "--trials", "2", "--seed", "1",
              "--timings", "--out", str(out)])
        row = json.loads(out.read_text().splitlines()[0])
        assert "elapsed_ms" in row

    def test_stdout_rows(self, capsys):
        code = main(["stress", "--k", "4", "--n", "12", "--trials", "3", "--seed", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["instance_id"] == "stress-2-0000"

    def test_tree_degree_cap_recorded(self, tmp_path):
        out = tmp_path / "t.jsonl"
        main(["stress", "--k", "6", "--n", "16", "--trials", "2", "--seed", "3",
              "--max-tree-degree", "3", "--out", str(out)])
        row = json.loads(out.read_text().splitlines()[0])
        assert row["params"]["max_tree_degree"] == 3

    def test_false_refutation_is_a_solver_bug(self, tmp_path, monkeypatch):
        def refute(tree, host, budget=None):
            return EmbedVerdict(Verdict.NOT_EMBEDDED, None)

        monkeypatch.setattr(cli, "auto_embed", refute)
        with pytest.raises(RuntimeError, match="solver bug"):
            main(["stress", "--k", "6", "--n", "16", "--trials", "1",
                  "--out", str(tmp_path / "s.jsonl")])

    def test_unconfirmed_refutation_is_no_counterexample(self, tmp_path, monkeypatch):
        # but the run is inconclusive: the refutation may still be one
        def refute(tree, host, budget=None):
            return EmbedVerdict(Verdict.NOT_EMBEDDED, None)

        def out_of_budget(tree, host, budget=None, symmetry=True):
            return EmbedVerdict(Verdict.TIMEOUT, None)

        monkeypatch.setattr(cli, "auto_embed", refute)
        monkeypatch.setattr(cli, "exact_embed", out_of_budget)
        out = tmp_path / "s.jsonl"
        assert main(["stress", "--k", "6", "--n", "16", "--trials", "1", "--seed", "3",
                     "--out", str(out)]) == 3
        assert json.loads(out.read_text())["counterexample"] is False

    @pytest.mark.parametrize("kind", [Verdict.TIMEOUT, Verdict.UNKNOWN])
    def test_undecided_trial_is_inconclusive(self, tmp_path, monkeypatch, kind):
        # a trial the budget or the solver left open may hide a
        # counterexample: exit 3, with the row written as for any trial
        def undecided(tree, host, budget=None):
            return EmbedVerdict(kind, None)

        monkeypatch.setattr(cli, "auto_embed", undecided)
        out = tmp_path / "s.jsonl"
        assert main(["stress", "--k", "6", "--n", "16", "--trials", "1", "--seed", "3",
                     "--out", str(out)]) == 3
        row = json.loads(out.read_text())
        assert (row["verdict"], row["counterexample"], row["witness"]) == (kind.value, False, None)

    @pytest.mark.parametrize("answers, code", [
        ([Verdict.EMBEDDED, Verdict.TIMEOUT], 3),
        ([Verdict.TIMEOUT, Verdict.NOT_EMBEDDED], 1),
    ])
    def test_counterexample_outranks_undecided_trial(self, tmp_path, monkeypatch, answers, code):
        # a witness does not close another trial left open; a confirmed
        # refutation outranks an open trial before it
        host_answers, real = iter(answers), cli.auto_embed

        def answer(tree, host, budget=None):
            kind = next(host_answers)
            if kind is Verdict.EMBEDDED:
                return real(tree, host, budget)
            return EmbedVerdict(kind, None)

        def recheck(tree, host, budget=None, symmetry=True):
            return EmbedVerdict(Verdict.NOT_EMBEDDED, None)

        monkeypatch.setattr(cli, "auto_embed", answer)
        monkeypatch.setattr(cli, "exact_embed", recheck)
        out = tmp_path / "s.jsonl"
        assert main(["stress", "--k", "6", "--n", "16", "--trials", "2", "--seed", "3",
                     "--out", str(out)]) == code
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["verdict"] for row in rows] == [kind.value for kind in answers]

    @pytest.mark.parametrize("rechecks, code", [
        ([Verdict.NOT_EMBEDDED], 1),
        ([Verdict.TIMEOUT, Verdict.NOT_EMBEDDED], 1),
        ([Verdict.NOT_EMBEDDED, Verdict.UNKNOWN], 1),
        ([Verdict.TIMEOUT, Verdict.UNKNOWN], 3),
    ])
    def test_confirmed_counterexample_outranks_unconfirmed(
            self, tmp_path, monkeypatch, rechecks, code):
        # one trial per recheck verdict, each refuted by auto_embed
        answers = iter(rechecks)

        def refute(tree, host, budget=None):
            return EmbedVerdict(Verdict.NOT_EMBEDDED, None)

        def recheck(tree, host, budget=None, symmetry=True):
            assert symmetry is False
            return EmbedVerdict(next(answers), None)

        monkeypatch.setattr(cli, "auto_embed", refute)
        monkeypatch.setattr(cli, "exact_embed", recheck)
        out = tmp_path / "s.jsonl"
        assert main(["stress", "--k", "6", "--n", "16", "--trials", str(len(rechecks)),
                     "--seed", "3", "--out", str(out)]) == code
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["counterexample"] for row in rows] == [
            kind is Verdict.NOT_EMBEDDED for kind in rechecks]

    def test_negative_trials_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        code = main(["stress", "--k", "6", "--n", "16", "--trials", "-3",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --trials")
        assert not out.exists()

    def test_negative_timeout_is_usage_error(self, capsys):
        code = main(["stress", "--k", "6", "--n", "16", "--timeout-ms", "-5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --timeout-ms")

    def test_host_too_small(self, capsys):
        code = main(["stress", "--k", "10", "--n", "5", "--trials", "1"])
        assert code == 2
        assert "cannot host" in capsys.readouterr().err

    def test_alpha_out_of_range(self, capsys):
        code = main(["stress", "--k", "6", "--n", "16", "--trials", "1",
                     "--alpha", "1/2"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["abc", "nan", "inf", "1/0"])
    def test_malformed_alpha_is_usage_error(self, tmp_path, capsys, alpha):
        out = tmp_path / "s.jsonl"
        code = main(["stress", "--k", "6", "--n", "16", "--trials", "1",
                     "--alpha", alpha, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --alpha")
        assert not out.exists()


class TestRepeatedCalls:
    """main keeps one parser per process; no call may leave state for the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_timings_flag_does_not_carry_over(self, tmp_path):
        args = ["stress", "--k", "5", "--n", "14", "--trials", "2", "--seed", "1"]
        timed, plain = tmp_path / "timed.jsonl", tmp_path / "plain.jsonl"
        assert main(args + ["--timings", "--out", str(timed)]) == 0
        assert main(args + ["--out", str(plain)]) == 0
        assert all("elapsed_ms" in json.loads(line) for line in timed.read_text().splitlines())
        assert all("elapsed_ms" not in json.loads(line) for line in plain.read_text().splitlines())

    def test_usage_error_then_valid_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stress", "--k", "6"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["stress", "--k", "4", "--n", "12", "--trials", "3", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3
        assert captured.err == ""

    def test_gen_to_stdout_twice_is_identical(self, capsys):
        argv = ["gen", "--family", "h", "--ell", "3", "--c", "1", "--k", "12"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == first

    def test_dispatch_reads_the_module_attribute(self, tmp_path, monkeypatch):
        argv = ["stress", "--k", "4", "--n", "12", "--trials", "1",
                "--out", str(tmp_path / "s.jsonl")]
        assert main(argv) == 0
        calls = []

        def stub(args):
            calls.append(args.k)
            return 7

        monkeypatch.setattr(cli, "run_stress", stub)
        assert main(argv) == 7
        assert calls == [4]
        monkeypatch.undo()
        assert main(argv) == 0
        assert calls == [4]
