"""Apex classification and the counting certificate."""

import hashlib
from fractions import Fraction

import pytest

from treembed.families import (
    ExtremalParams,
    cliques_with_apex,
    matched_wing_host,
    two_wing_host,
    wing_clique_host,
)
from treembed.graphs import GraphError, build_graph, degree_stats
from treembed.structure import (
    classify_apex_structure,
    verify_broom_obstruction,
)


def sweep_params():
    return [
        ExtremalParams(ell, c, c * ell * (ell + 1))
        for ell in (3, 5, 7)
        for c in (1, 2, 3)
    ]


class TestThetaSees:
    def test_exact_threshold_counts(self):
        # x sees 2 of the 4 vertices of the path 1-2-3-4: exactly 1/2
        g = build_graph(5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)])
        assert classify_apex_structure(g, 0, 4, Fraction(1, 2)).seen_indices == (0,)
        assert classify_apex_structure(g, 0, 4, Fraction(51, 100)).seen_indices == ()

    def test_float_threshold_is_exact(self):
        # 3 of 10 is exactly 0.3, so seeing holds at theta = 0.3
        g = build_graph(11, [(0, 1), (0, 2), (0, 3)] + [(v, v + 1) for v in range(1, 10)])
        report = classify_apex_structure(g, 0, 10, 0.3)
        assert report.theta == Fraction(3, 10)
        assert report.seen_indices == (0,)


class TestIsSmall:
    def test_non_bipartite_uses_order(self):
        # G - 0 is one triangle: 3 < 3.3, but not 3 < 2.2
        triangle = build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        assert classify_apex_structure(triangle, 0, 3, Fraction(1, 10)).facts[0].small_at_k
        assert not classify_apex_structure(triangle, 0, 2, Fraction(1, 10)).facts[0].small_at_k

    def test_bipartite_uses_larger_side(self):
        # G - 0 is the star K_{1,5}: order 6 but larger side 5, so smallness
        # is judged at 5
        star = build_graph(7, [(0, 1)] + [(1, v) for v in range(2, 7)])
        assert classify_apex_structure(star, 0, 4, Fraction(3, 10)).facts[0].small_at_k  # 5 < 5.2
        assert not classify_apex_structure(star, 0, 4, Fraction(1, 4)).facts[0].small_at_k  # 5 < 5
        # and (2k/3, theta)-smallness the same way: 5 < 1.1 * 14/3, not 5 < 1.1 * 4
        assert classify_apex_structure(star, 0, 7, Fraction(1, 10)).facts[0].small_at_two_thirds_k
        assert not classify_apex_structure(star, 0, 6, Fraction(1, 10)).facts[0].small_at_two_thirds_k


class TestClassifyApexStructure:
    def test_two_wing_shape(self):
        params = ExtremalParams(3, 1, 12)
        tagged = two_wing_host(params)
        report = classify_apex_structure(tagged.graph, 0, 12, Fraction(1, 10))
        assert len(report.facts) == 2
        assert report.seen_indices == (0, 1)
        assert report.all_components_small
        assert report.exactly_two_seen
        assert report.secondary_shape
        hub_neighbors = set(tagged.graph.adj[0])
        larger_union = set(report.facts[0].component.bipartition.larger()) | set(
            report.facts[1].component.bipartition.larger()
        )
        assert hub_neighbors == larger_union
        for fact in report.facts:
            assert fact.x_degree_smaller == 0

    def test_two_wing_shape_across_sweep(self):
        for params in sweep_params():
            tagged = two_wing_host(params)
            report = classify_apex_structure(
                tagged.graph, 0, params.k, Fraction(1, 10)
            )
            assert len(report.facts) == 2
            assert report.all_components_small
            assert report.exactly_two_seen
            assert report.secondary_shape
            for fact in report.facts:
                assert fact.component.bipartition is not None
                assert fact.x_degree == len(fact.component.bipartition.larger()) > 0
                assert fact.x_degree_smaller == 0

    def test_wing_not_two_thirds_large_at_smallest_case(self):
        # |A| = 6 < 1.1 * 8, so the primary-shape condition fails at (3,1,12)
        tagged = two_wing_host(ExtremalParams(3, 1, 12))
        report = classify_apex_structure(tagged.graph, 0, 12, Fraction(1, 10))
        assert not report.primary_shape
        assert not report.special_shaped

    def test_cliques_apex_sees_three(self):
        tagged = cliques_with_apex(5, 3)
        report = classify_apex_structure(tagged.graph, 0, 12, Fraction(1, 10))
        assert len(report.seen_indices) == 3
        assert not report.exactly_two_seen
        assert all(f.component.bipartition is None for f in report.facts)

    def test_primary_ranked_by_x_degree(self):
        # apex joined fully to one K_2 and partially to one K_3
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (3, 5)])
        report = classify_apex_structure(g, 0, 4, Fraction(1, 10))
        assert report.primary is not None
        assert report.facts[report.primary].x_degree == 2

    def test_seen_indices_ranked_by_x_degree(self):
        # apex joined to one vertex of a K_2 and to all of a K_3: the K_3
        # ranks first although its least vertex is larger
        g = build_graph(6, [(0, 1), (1, 2), (0, 3), (0, 4), (0, 5), (3, 4), (3, 5), (4, 5)])
        report = classify_apex_structure(g, 0, 4, Fraction(1, 10))
        assert report.seen_indices == (1, 0)
        assert (report.primary, report.secondary) == (1, 0)

    def test_apex_out_of_range(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            classify_apex_structure(g, 5, 3, Fraction(1, 10))

    @pytest.mark.parametrize("g, k, message", [
        (build_graph(1, []), 3, "at least one non-apex vertex"),
        (build_graph(2, [(0, 1)]), 0, "k must be positive"),
    ], ids=["apex-alone", "k-0"])
    def test_invalid_input_is_graph_error(self, g, k, message):
        with pytest.raises(GraphError, match=message):
            classify_apex_structure(g, 0, k, Fraction(1, 10))

    def test_grid_reports_pinned(self):
        # the report at each grid host's largest-degree vertex, the apex
        # strategy_embed classifies, hashed: the components of G - x, their
        # sides and every fact read from them, as the two-pass components
        # gave them
        digest = hashlib.sha256()
        for build in (two_wing_host, wing_clique_host, matched_wing_host):
            for params in sweep_params():
                g = build(params).graph
                report = classify_apex_structure(g, degree_stats(g).argmax, params.k, Fraction(1, 10))
                digest.update(repr(report).encode())
        assert digest.hexdigest() == (
            "f4c7a45bd13578a063dca080b58d497c3833cd88b2c614969f1ac1166d0768ab"
        )


class TestBroomObstruction:
    def test_frozen_example(self):
        cert = verify_broom_obstruction(3, 1, 12)
        assert cert.leaf_demand == 6
        assert cert.b_capacity == 5
        assert cert.center_demand == 7
        assert cert.a_capacity == 6
        assert cert.holds

    def test_holds_across_sweep(self):
        for params in sweep_params():
            cert = verify_broom_obstruction(params.ell, params.c, params.k)
            assert cert.holds
            assert cert.leaf_demand > cert.b_capacity
            assert cert.center_demand > cert.a_capacity

    def test_consistent_with_generated_sizes(self):
        for params in sweep_params():
            tagged = two_wing_host(params)
            cert = verify_broom_obstruction(params.ell, params.c, params.k)
            assert cert.b_capacity == len(tagged.parts["B1"])
            assert cert.a_capacity == len(tagged.parts["A1"])

    def test_invalid_params_propagate(self):
        with pytest.raises(GraphError):
            verify_broom_obstruction(4, 1, 20)
