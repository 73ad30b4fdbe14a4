"""Deterministic generators: frozen small cases and closed-form sweeps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treembed.families import (
    ExtremalParams,
    broom_tree,
    caterpillar,
    cliques_with_apex,
    complete_bipartite,
    matched_wing_host,
    sharpness_instance_for_alpha,
    sharpness_instance_for_gamma,
    two_wing_degree_forms,
    two_wing_host,
    wing_clique_degree_forms,
    wing_clique_host,
)
from treembed.formats import graph_to_json
from treembed.graphs import GraphError, degree_stats

from oracles import (
    cliques_with_apex_edge_list,
    complete_bipartite_edge_list,
    matched_wing_edge_list,
    two_wing_edge_list,
    wing_clique_edge_list,
)


def valid_params(max_k=200):
    """All (ell, c) with k = c*ell*(ell+1) <= max_k."""
    out = []
    for ell in (3, 5, 7, 9, 11):
        c = 1
        while c * ell * (ell + 1) <= max_k:
            out.append(ExtremalParams(ell, c, c * ell * (ell + 1)))
            c += 1
    return out


class TestExtremalParams:
    def test_even_ell_rejected(self):
        with pytest.raises(GraphError, match="odd"):
            ExtremalParams(4, 1, 12)

    def test_ell_must_divide_k(self):
        with pytest.raises(GraphError, match="multiple"):
            ExtremalParams(3, 1, 13)

    def test_odd_k_rejected(self):
        with pytest.raises(GraphError, match="even"):
            ExtremalParams(3, 1, 15)

    def test_c_too_large(self):
        with pytest.raises(GraphError, match="c"):
            ExtremalParams(3, 2, 12)

    def test_c_too_small(self):
        with pytest.raises(GraphError, match="c"):
            ExtremalParams(3, 0, 12)

    def test_derived_sizes(self):
        p = ExtremalParams(3, 1, 12)
        assert p.star_order == 4
        assert p.wing_a_order == 6
        assert p.wing_b_order == 5


class TestTwoWingHost:
    def test_frozen_example(self):
        tagged = two_wing_host(ExtremalParams(3, 1, 12))
        g = tagged.graph
        assert (g.n, g.m) == (23, 72)
        stats = degree_stats(g)
        assert (stats.min_degree, stats.max_degree, stats.argmax) == (6, 12, 0)
        sizes = {name: len(vs) for name, vs in tagged.parts.items()}
        assert sizes == {"hub": 1, "A1": 6, "B1": 5, "A2": 6, "B2": 5}

    def test_hub_sees_exactly_the_a_sides(self):
        tagged = two_wing_host(ExtremalParams(3, 1, 12))
        hub_neighbors = set(tagged.graph.adj[0])
        a_union = set(tagged.parts["A1"]) | set(tagged.parts["A2"])
        assert hub_neighbors == a_union

    def test_wings_are_complete_bipartite(self):
        tagged = two_wing_host(ExtremalParams(3, 1, 12))
        g = tagged.graph
        for wing in (1, 2):
            a, b = tagged.parts[f"A{wing}"], tagged.parts[f"B{wing}"]
            for u in a:
                for v in b:
                    assert g.has_edge(u, v)
            # no edges inside a side
            for side in (a, b):
                for i, u in enumerate(side):
                    for v in side[i + 1:]:
                        assert not g.has_edge(u, v)

    def test_degree_forms_across_sweep(self):
        for params in valid_params():
            stats = degree_stats(two_wing_host(params).graph)
            delta_form, big_form = two_wing_degree_forms(params)
            assert stats.min_degree == delta_form
            assert stats.max_degree == big_form
            assert stats.argmax == 0


class TestWingCliqueHost:
    def test_frozen_example(self):
        tagged = wing_clique_host(ExtremalParams(3, 1, 12))
        g = tagged.graph
        assert g.n == 18
        stats = degree_stats(g)
        assert (stats.min_degree, stats.max_degree) == (6, 12)

    def test_quoted_form_undercounts(self):
        # the quoted closed form misses the hub contribution at small c
        params = ExtremalParams(3, 1, 12)
        _delta, quoted, realized = wing_clique_degree_forms(params)
        assert quoted == 8
        assert realized == 12
        assert degree_stats(wing_clique_host(params).graph).max_degree == realized

    def test_clique_is_complete(self):
        tagged = wing_clique_host(ExtremalParams(3, 1, 12))
        g = tagged.graph
        clique = tagged.parts["clique"]
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                assert g.has_edge(u, v)

    def test_delta_matches_clique_order_across_sweep(self):
        for params in valid_params():
            stats = degree_stats(wing_clique_host(params).graph)
            delta_form, _quoted, realized = wing_clique_degree_forms(params)
            assert stats.min_degree == delta_form
            assert stats.max_degree == realized


class TestMatchedWingHost:
    def test_frozen_example(self):
        tagged = matched_wing_host(ExtremalParams(3, 1, 12))
        g = tagged.graph
        assert g.n == 19
        stats = degree_stats(g)
        assert (stats.min_degree, stats.max_degree) == (5, 8)

    def test_matching_links_b_sides(self):
        tagged = matched_wing_host(ExtremalParams(3, 1, 12))
        g = tagged.graph
        b1, b2 = tagged.parts["B1"], tagged.parts["B2"]
        for u, v in zip(b1, b2):
            assert g.has_edge(u, v)
        # only the matching crosses between the B parts
        cross = sum(1 for u in b1 for v in b2 if g.has_edge(u, v))
        assert cross == len(b1)

    def test_b_degrees_uniform(self):
        tagged = matched_wing_host(ExtremalParams(3, 2, 24))
        g = tagged.graph
        a_order = len(tagged.parts["A1"])
        for v in tagged.parts["B1"] + tagged.parts["B2"]:
            assert g.degree(v) == a_order + 1

    def test_every_valid_parameter_set_has_room(self):
        # k/ell >= c(ell+1) >= 4, so the thinner A side always exists
        for params in valid_params():
            assert params.star_order >= 4
            assert params.matched_wing_a_order >= 2 * (params.ell - 1)


class TestBroomTree:
    def test_frozen_example(self):
        t = broom_tree(3, 12)
        assert t.graph.n == 13
        assert t.graph.tags[0] == "hub"
        assert t.graph.degree(0) == 3
        # star centers carry their leaves plus the handle edge
        center_degrees = sorted(t.graph.degree(v) for v in t.graph.adj[0])
        assert center_degrees == [4, 4, 4]

    def test_single_star_is_a_star(self):
        t = broom_tree(1, 5)
        assert t.graph.degree(0) == 1
        center = t.graph.adj[0][0]
        assert t.graph.degree(center) == 5

    def test_ell_must_divide(self):
        with pytest.raises(GraphError):
            broom_tree(3, 13)

    @settings(max_examples=60)
    @given(st.integers(1, 7), st.integers(1, 6))
    def test_edge_count(self, ell, star):
        t = broom_tree(ell, ell * star)
        assert t.graph.m == ell * star


@pytest.mark.parametrize("call, message", [
    (lambda: broom_tree(0, 4), "at least one star"),
    (lambda: cliques_with_apex(0, 1), "positive clique order and count"),
    (lambda: caterpillar(-1), "path_edges must be nonnegative"),
    (lambda: caterpillar(2, [1]), "one count per spine vertex"),
    (lambda: caterpillar(1, [0, -1]), "leaf counts must be nonnegative"),
], ids=["broom-no-stars", "cliques-order-0", "caterpillar-negative-path",
        "caterpillar-short-counts", "caterpillar-negative-count"])
def test_invalid_parameters_are_graph_error(call, message):
    with pytest.raises(GraphError, match=message):
        call()


class TestSmallFamilies:
    def test_complete_bipartite(self):
        tagged = complete_bipartite(3, 5)
        g = tagged.graph
        assert (g.n, g.m) == (8, 15)
        assert degree_stats(g).max_degree == 5

    def test_complete_bipartite_rejects_empty_side(self):
        with pytest.raises(GraphError):
            complete_bipartite(0, 4)

    def test_cliques_with_apex(self):
        tagged = cliques_with_apex(5, 3)
        g = tagged.graph
        assert g.n == 16
        assert g.degree(0) == 15
        assert degree_stats(g).min_degree == 5

    def test_caterpillar_default_is_path(self):
        t = caterpillar(5)
        assert t.graph.n == 6
        assert sorted(t.graph.degrees) == [1, 1, 2, 2, 2, 2]

    def test_caterpillar_with_leaves(self):
        t = caterpillar(2, leaf_counts=[1, 0, 2])
        assert t.graph.n == 6
        assert t.graph.m == 5


class TestAgainstEdgeLists:
    """The generators fill adjacency masks from vertex ranges; each host
    must equal its edge-by-edge construction, tags and derived rows too.

    A generated host shares one mask object per block and an edge-list
    build does not, so the tables read off the masks, which count or key
    a shared object once, are compared before the host's rows exist."""

    @staticmethod
    def assert_same_host(g, ref):
        tables = []
        for h in (g, ref):
            q = h.twin_quotient
            tables.append((h.degrees, h.component_sizes, h.rank,
                           q.class_of, q.clique, q.adj, graph_to_json(h)))
        assert "adj" not in g.__dict__
        assert tables[0] == tables[1]
        assert g == ref
        assert g.adj == ref.adj

    GRID = [ExtremalParams(ell, c, c * ell * (ell + 1)) for ell in (3, 5, 7) for c in (1, 2, 3)]
    # points off the grid, where k is not c * ell * (ell + 1)
    SMALL = [ExtremalParams(3, 1, 18), ExtremalParams(5, 1, 40), ExtremalParams(3, 2, 30)]
    LARGER = [ExtremalParams(11, c, c * 11 * 12) for c in (1, 2, 3)]

    @pytest.mark.parametrize("params", GRID + SMALL + LARGER, ids=str)
    def test_extremal_hosts(self, params):
        for build, reference in (
            (two_wing_host, two_wing_edge_list),
            (wing_clique_host, wing_clique_edge_list),
            (matched_wing_host, matched_wing_edge_list),
        ):
            self.assert_same_host(build(params).graph, reference(params))

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 4), (3, 2), (5, 5)])
    def test_complete_bipartite(self, n1, n2):
        self.assert_same_host(complete_bipartite(n1, n2).graph, complete_bipartite_edge_list(n1, n2))

    @pytest.mark.parametrize("order, count", [(1, 1), (1, 3), (2, 2), (4, 3)])
    def test_cliques_with_apex(self, order, count):
        self.assert_same_host(cliques_with_apex(order, count).graph,
                              cliques_with_apex_edge_list(order, count))


class TestSharpnessInstances:
    def test_alpha_boundary(self):
        inst = sharpness_instance_for_alpha(0.5)
        assert (inst.params.ell, inst.params.k) == (3, 12)
        assert inst.min_degree == 6
        assert inst.min_degree_bound == Fraction(6)
        assert inst.max_degree == 12
        assert inst.max_degree_bound == Fraction(12)

    def test_alpha_small(self):
        inst = sharpness_instance_for_alpha(Fraction(1, 3))
        assert inst.params.ell == 5
        assert Fraction(inst.min_degree) == Fraction(inst.params.k, 2)
        assert Fraction(inst.max_degree) >= inst.max_degree_bound

    def test_alpha_out_of_range(self):
        for bad in (0, 0.75, -0.1):
            with pytest.raises(GraphError):
                sharpness_instance_for_alpha(bad)

    def test_gamma_example(self):
        inst = sharpness_instance_for_gamma(3, 0.1)
        assert (inst.params.c, inst.params.k) == (4, 48)
        assert inst.min_degree == 30
        assert inst.min_degree_bound == Fraction(148, 5)
        assert inst.max_degree == 60
        assert inst.max_degree_bound == Fraction(272, 5)

    def test_gamma_boundary_allowed(self):
        inst = sharpness_instance_for_gamma(3, Fraction(1, 3))
        assert inst.params.c == 1

    def test_gamma_out_of_range(self):
        with pytest.raises(GraphError):
            sharpness_instance_for_gamma(3, Fraction(1, 2))
        with pytest.raises(GraphError):
            sharpness_instance_for_gamma(4, Fraction(1, 8))
