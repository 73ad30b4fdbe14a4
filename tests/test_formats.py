"""Serialization round-trips and every parser rejection path."""

import json
import re

import pytest

from treembed.families import ExtremalParams, broom_tree, two_wing_host
from treembed.formats import (
    FORMAT_TAG,
    InstanceReport,
    ParseError,
    graph_from_dimacs,
    graph_from_json,
    graph_to_dimacs,
    graph_to_json,
    parse_graph_file,
    parse_graph_text,
    sniff_format,
    witness_from_text,
    witness_to_text,
)
from treembed.graphs import build_graph


def small_tagged_graph():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)], tags={0: "hub", 3: "A1"})


class TestJson:
    def test_round_trip_preserves_everything(self):
        g = small_tagged_graph()
        text = graph_to_json(g, meta={"family": "demo", "k": 4})
        back, meta = graph_from_json(text)
        assert back.n == g.n
        assert list(back.edges()) == list(g.edges())
        assert back.tags == g.tags
        assert meta == {"family": "demo", "k": 4}

    def test_round_trip_on_generator_output(self):
        inst = two_wing_host(ExtremalParams(3, 1, 12))
        text = graph_to_json(inst.graph, meta={"params": [3, 1, 12]})
        back, meta = graph_from_json(text)
        assert back.n == inst.graph.n
        assert back.m == inst.graph.m
        assert back.tags == inst.graph.tags
        assert meta["params"] == [3, 1, 12]

    def test_layout_is_one_key_per_line(self):
        lines = graph_to_json(small_tagged_graph()).splitlines()
        assert lines[0] == "{"
        assert lines[1].startswith('  "format":')
        assert lines[3].startswith('  "edges": [[0, 1], [1, 2], [2, 3]]')

    def test_writers_read_masks_not_rows(self):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        rows = build_graph(host.n, list(host.edges()), tags=host.tags)
        assert graph_to_json(host, {"k": 12}) == graph_to_json(rows, {"k": 12})
        assert graph_to_dimacs(host) == graph_to_dimacs(rows)
        assert json.loads(graph_to_json(host)) == {
            "format": FORMAT_TAG,
            "n": rows.n,
            "edges": [[u, v] for u, v in rows.edges()],
            "tags": {str(v): rows.tags[v] for v in sorted(rows.tags)},
            "meta": {},
        }
        assert "adj" not in host.__dict__

    def test_wrong_format_tag(self):
        payload = {"format": "treex-graph-v0", "n": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                   "tags": {"0": "hub", "3": "A1"}, "meta": {}}
        with pytest.raises(ParseError, match="unsupported format tag"):
            graph_from_json(json.dumps(payload))

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            graph_from_json("{not json")

    def test_non_object_payload(self):
        with pytest.raises(ParseError, match="JSON object"):
            graph_from_json("[1, 2]")

    def test_bad_n(self):
        with pytest.raises(ParseError, match="non-negative integer"):
            graph_from_json(json.dumps({"format": FORMAT_TAG, "n": -3}))

    def test_malformed_edge_entry(self):
        payload = {"format": FORMAT_TAG, "n": 3, "edges": [[0, 1, 2]]}
        with pytest.raises(ParseError, match="malformed edge entry"):
            graph_from_json(json.dumps(payload))

    def test_self_loop_rejected(self):
        payload = {"format": FORMAT_TAG, "n": 3, "edges": [[1, 1]]}
        with pytest.raises(ParseError, match="loop"):
            graph_from_json(json.dumps(payload))

    def test_endpoint_out_of_range(self):
        payload = {"format": FORMAT_TAG, "n": 3, "edges": [[0, 7]]}
        with pytest.raises(ParseError):
            graph_from_json(json.dumps(payload))

    def test_bool_endpoints_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"format": "%s", "n": 2, "edges": [[true, false]]}' % FORMAT_TAG)
        with pytest.raises(ParseError, match="non-integer edge"):
            parse_graph_file(path)

    def test_unknown_tag_role(self):
        payload = {"format": FORMAT_TAG, "n": 2, "edges": [[0, 1]], "tags": {"0": "nucleus"}}
        with pytest.raises(ParseError, match="unknown vertex tag"):
            graph_from_json(json.dumps(payload))

    def test_non_integer_tag_key(self):
        payload = {"format": FORMAT_TAG, "n": 2, "edges": [[0, 1]], "tags": {"first": "hub"}}
        with pytest.raises(ParseError, match="not a vertex id"):
            graph_from_json(json.dumps(payload))

    @pytest.mark.parametrize("key", ["1_0", " 1", "1 ", "+1", "01", "-0"])
    def test_tag_key_spelled_otherwise_than_written(self, key):
        payload = {"format": FORMAT_TAG, "n": 11, "edges": [], "tags": {key: "hub"}}
        with pytest.raises(ParseError, match=re.escape(f"tag key {key!r} is not a vertex id")):
            graph_from_json(json.dumps(payload))

    def test_two_spellings_of_one_vertex(self):
        # int() reads both as vertex 1, and the later role would win
        payload = {"format": FORMAT_TAG, "n": 2, "edges": [], "tags": {"1": "hub", "01": "leaf"}}
        with pytest.raises(ParseError, match="tag key '01' is not a vertex id"):
            graph_from_json(json.dumps(payload))


class TestDimacs:
    def test_edgeless_graph(self):
        assert graph_to_dimacs(build_graph(2, [])) == "p edge 2 0\n"

    def test_round_trip_drops_tags(self):
        g = small_tagged_graph()
        back = graph_from_dimacs(graph_to_dimacs(g))
        assert back.n == g.n
        assert list(back.edges()) == list(g.edges())
        assert back.tags == {}

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np edge 3 2\nc mid comment\ne 1 2\ne 2 3\n"
        g = graph_from_dimacs(text)
        assert g.n == 3 and g.m == 2

    def test_duplicate_edge_warns_and_folds(self):
        text = "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n"
        with pytest.warns(UserWarning, match="duplicate edge"):
            g = graph_from_dimacs(text)
        assert g.m == 2

    def test_declared_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 5 edges, found 1"):
            graph_from_dimacs("p edge 3 5\ne 1 2\n")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self loop"):
            graph_from_dimacs("p edge 3 1\ne 2 2\n")

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError, match="out of range"):
            graph_from_dimacs("p edge 3 1\ne 1 4\n")

    def test_edge_before_problem_line(self):
        with pytest.raises(ParseError, match="edge before problem line"):
            graph_from_dimacs("e 1 2\np edge 3 1\n")

    def test_second_problem_line(self):
        with pytest.raises(ParseError, match="second problem line"):
            graph_from_dimacs("p edge 3 0\np edge 4 0\n")

    def test_malformed_problem_line(self):
        with pytest.raises(ParseError, match="malformed problem line"):
            graph_from_dimacs("p vertex 3 1\ne 1 2\n")

    def test_unrecognized_line(self):
        with pytest.raises(ParseError, match="unrecognized line"):
            graph_from_dimacs("p edge 2 1\nq 1 2\n")

    def test_non_integer_endpoint(self):
        with pytest.raises(ParseError, match="non-integer endpoint"):
            graph_from_dimacs("p edge 2 1\ne one 2\n")

    def test_missing_problem_line(self):
        with pytest.raises(ParseError, match="missing problem line"):
            graph_from_dimacs("c only a comment\n")

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            graph_from_dimacs("c head\np edge 3 1\ne 2 2\n")


@pytest.mark.parametrize("parse, text, message", [
    (graph_from_json, json.dumps({"format": FORMAT_TAG, "n": 2, "edges": {}}),
     "edges must be a list of pairs"),
    (graph_from_json, json.dumps({"format": FORMAT_TAG, "n": 2, "edges": [], "tags": []}),
     "tags must be an object"),
    (graph_from_json, json.dumps({"format": FORMAT_TAG, "n": 2, "edges": [], "meta": []}),
     "meta must be an object"),
    (graph_from_dimacs, "p edge x 1\n", "non-integer problem line"),
    (graph_from_dimacs, "p edge 2 1\ne 1\n", "malformed edge line"),
    # build_graph's own check, reported as a parse error
    (graph_from_dimacs, "p edge -1 0\n", "vertex count must be nonnegative"),
], ids=["json-edges-object", "json-tags-list", "json-meta-list", "dimacs-count-not-int",
        "dimacs-edge-one-end", "dimacs-negative-count"])
def test_malformed_payload_is_parse_error(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


class TestSniffAndFiles:
    def test_sniff(self):
        assert sniff_format('  {"format": "x"}') == "json"
        assert sniff_format("p edge 3 2") == "dimacs"

    def test_parse_text_json(self):
        g, meta = parse_graph_text(graph_to_json(small_tagged_graph()))
        assert g.n == 4
        assert meta == {}

    def test_parse_text_dimacs_has_empty_meta(self):
        g, meta = parse_graph_text("p edge 2 1\ne 1 2\n")
        assert g.m == 1
        assert meta == {}

    def test_extension_beats_sniffing(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(graph_to_json(small_tagged_graph()))
        g, _ = parse_graph_file(path)
        assert g.n == 4

    def test_dimacs_extension(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("p edge 2 1\ne 1 2\n")
        g, _ = parse_graph_file(path)
        assert g.m == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_graph_file(tmp_path / "absent.json")

    def test_unknown_format_name(self):
        with pytest.raises(ParseError, match="unknown format"):
            parse_graph_text("p edge 1 0", fmt="graphml")


class TestWitness:
    def test_round_trip(self):
        mapping = {3: 9, 0: 4, 1: 7}
        assert witness_from_text(witness_to_text(mapping)) == mapping

    def test_sorted_output(self):
        assert witness_to_text({2: 5, 0: 1}) == "0 1\n2 5\n"

    def test_comments_skipped(self):
        assert witness_from_text("# header\n0 3\n\n1 4\n") == {0: 3, 1: 4}

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError, match="mapped twice"):
            witness_from_text("0 1\n0 2\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="two integers"):
            witness_from_text("0 1 2\n")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="non-integer"):
            witness_from_text("0 x\n")


class TestInstanceReport:
    def _report(self):
        return InstanceReport(
            instance_id="stress-7-0003",
            family="random",
            params={"alpha": "0"},
            n=24,
            m=100,
            min_degree=5,
            max_degree=20,
            k=10,
            verdict="Embedded",
            witness={1: 4, 0: 2},
            nodes_explored=42,
            seed=1234,
            elapsed_ms=1.5,
        )

    def test_timings_excluded_by_default(self):
        row = self._report().to_row()
        assert "elapsed_ms" not in row
        assert row["verdict"] == "Embedded"

    def test_timings_on_request(self):
        assert self._report().to_row(include_timings=True)["elapsed_ms"] == 1.5

    def test_witness_keys_are_sorted_strings(self):
        row = self._report().to_row()
        assert list(row["witness"]) == ["0", "1"]

    def test_jsonl_is_one_line(self):
        line = self._report().to_jsonl()
        assert "\n" not in line
        assert json.loads(line)["instance_id"] == "stress-7-0003"

    def test_broom_meta_survives_jsonl(self):
        t = broom_tree(3, 12)
        rep = InstanceReport(
            instance_id="x", family="broom", n=t.graph.n, m=t.graph.m, k=12,
            verdict="NotEmbedded",
        )
        row = json.loads(rep.to_jsonl())
        assert row["witness"] is None
        assert row["counterexample"] is False
