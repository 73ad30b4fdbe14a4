"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench -q"""

import pytest

import measure
import spans


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert measure.percentile(values, 50) == 50
        assert measure.percentile(values, 90) == 90
        assert measure.percentile([7.0], 90) == 7.0

    def test_p90_needs_ten_samples_beyond_it(self):
        assert measure.samples_beyond(100, 90) == 10
        assert measure.samples_beyond(99, 90) == 9
        assert measure.min_samples_for(90) == 100

    def test_summary_states_the_sample_count(self):
        summary = measure.timing_summary([float(v) for v in range(100, 0, -1)])
        assert summary == {"p50": 50.0, "p90": 90.0, "samples": 100}

    def test_summary_refuses_a_thin_tail(self):
        with pytest.raises(ValueError, match="needs 100 samples"):
            measure.timing_summary([1.0] * 99)


class TestSelfTime:
    @staticmethod
    def nested():
        """root [0, 10] holding a [1, 4] (which holds a1 [2, 3]) and b [5, 9]."""
        s = [
            spans.Span("root", -1, None, 0.0, 10.0, children=[1, 3]),
            spans.Span("a", 0, None, 1.0, 4.0, children=[2]),
            spans.Span("a1", 1, None, 2.0, 3.0),
            spans.Span("b", 0, None, 5.0, 9.0),
        ]
        return s

    def test_self_time_subtracts_direct_children_only(self):
        s = self.nested()
        assert spans.self_time(s, 0) == 10.0 - 3.0 - 4.0
        assert spans.self_time(s, 1) == 3.0 - 1.0
        assert spans.self_time(s, 2) == 1.0
        assert spans.self_time(s, 3) == 4.0

    def test_self_times_add_up_to_the_root(self):
        s = self.nested()
        assert sum(spans.self_time(s, i) for i in range(len(s))) == s[0].duration

    def test_tracer_links_children(self):
        tracer = spans.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        outer, first, second = tracer.spans
        assert outer.children == [1, 2]
        assert first.parent == second.parent == 0
        assert spans.self_time(tracer.spans, 0) == pytest.approx(
            outer.duration - first.duration - second.duration)
        assert 0 <= spans.self_time(tracer.spans, 0) <= outer.duration


class TestAutoProvenance:
    def test_stage_and_summed_nodes(self):
        s = [
            spans.Span("embedding.auto_embed", -1, "i0", 0, 1, "embedded", 7, 10,
                       children=[1, 2, 3]),
            spans.Span("embedding.greedy_min_degree_embed", 0, "i0", 0, 0.1, "unknown", 4),
            spans.Span("embedding.strategy_embed", 0, "i0", 0.1, 0.2, "unknown", 3),
            spans.Span("embedding.exact_embed", 0, "i0", 0.2, 1, "embedded", 7),
        ]
        (row,) = spans.auto_provenance(s, [0])
        assert row == {"instance": "i0", "stage": "exact", "nodes": 14, "over_budget": True}


class TestLayerMetrics:
    def test_counts_per_pass_and_callers(self):
        tracer = spans.Tracer()
        for _ in range(2):  # two passes
            with tracer.span("embedding.strategy_embed"):
                with tracer.span("structure.classify_apex_structure"):
                    with tracer.span("graphs.induced_subgraph"):
                        with tracer.span("graphs.build_graph"):
                            pass
                with tracer.span("embedding.greedy_min_degree_embed") as g:
                    g.kind = "embedded"
            with tracer.span("randgen.random_host"):
                with tracer.span("graphs.build_graph"):
                    pass
                with tracer.span("graphs.build_graph"):
                    pass
        m = spans.layer_metrics(tracer.spans, passes=2)
        assert m["embedding.strategy.calls"] == 1
        assert m["embedding.strategy.fallback_ratio"] == 1.0
        assert m["embedding.strategy.pipeline_ratio"] == 0.0
        assert m["embedding.greedy.hit_ratio"] == 1.0
        assert m["graphs.build_graph.calls"] == 3
        assert m["graphs.build_graph.structure_calls"] == 1
        assert m["graphs.build_graph.randgen_calls"] == 2
        assert m["randgen.random_host.attempts_per_host"] == 2.0

    def test_busy_counts_nested_calls_of_one_function_once(self):
        tracer = spans.Tracer()
        with tracer.span("graphs.components") as outer:
            with tracer.span("graphs.components"):
                pass
        m = spans.layer_metrics(tracer.spans, passes=1)
        assert m["graphs.components.busy_s"] == outer.duration


class TestWitnessChecker:
    # path 0-1-2 into the triangle 0,1,2 plus the pendant vertex 3 on 2
    TREE = (3, [(0, 1), (1, 2)])
    HOST = (4, [frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1, 3}), frozenset({2})])

    def problems(self, mapping):
        return measure.witness_problems(*self.TREE, *self.HOST, mapping)

    def test_accepts_an_embedding(self):
        assert self.problems({0: 0, 1: 1, 2: 2}) == []
        assert self.problems({0: 1, 1: 2, 2: 3}) == []

    def test_rejects_a_non_injective_map(self):
        assert self.problems({0: 0, 1: 1, 2: 0}) == ["two tree vertices share an image"]

    def test_rejects_an_edge_sent_to_a_non_edge(self):
        assert self.problems({0: 0, 1: 1, 2: 3}) == [
            "tree edge (1, 2) maps to non-edge (1, 3)"
        ]

    def test_rejects_partial_and_out_of_range_maps(self):
        assert self.problems({0: 0, 1: 1}) != []
        assert self.problems({0: 0, 1: 1, 2: 9}) != []
