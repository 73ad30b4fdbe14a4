"""Core graph primitives against brute-force references."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treembed import graphs
from treembed.families import (
    ExtremalParams,
    complete_bipartite,
    matched_wing_host,
    two_wing_host,
    wing_clique_host,
)
from treembed.graphs import (
    GraphError,
    SimpleGraph,
    TwinQuotient,
    bfs_layout,
    build_graph,
    build_tree,
    components,
    degree_stats,
    distance_bfs,
    vertex_connectivity,
)
from treembed.graphs import _bitmask, _members
from treembed.randgen import random_host

from oracles import (
    brute_bipartition_exists,
    brute_pair_families,
    brute_stabiliser_orbits,
    brute_vertex_connectivity,
    flood_fill_component_sizes,
    induced_by_edges,
    is_automorphism,
    pair_swap_keeps_edges,
    planted_pairs_host,
    rank_and_prefixes,
    two_pass_components,
    value_keyed_twins,
)


def small_graphs(max_n=8, min_n=1):
    @st.composite
    def strategy(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return build_graph(n, picks)

    return strategy()


class TestBuildGraph:
    def test_empty(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.m == 0

    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.degrees == (1, 2, 1)
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_adjacency_sorted(self):
        g = build_graph(4, [(2, 0), (3, 0), (0, 1)])
        assert g.adj[0] == (1, 2, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"\(1, 1\)"):
            build_graph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_duplicate_is_named(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(1, 2\)"):
            build_graph(3, [(0, 1), (1, 2), (2, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match=r"\(0, 5\)"):
            build_graph(3, [(0, 5)])

    def test_non_integer_rejected(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 1.5)])

    def test_bool_endpoints_rejected(self):
        # True == 1, but a row holding True would serialize as JSON `true`
        with pytest.raises(GraphError, match=r"non-integer edge \(True, False\)"):
            build_graph(2, [(True, False)])

    def test_bad_tag_rejected(self):
        with pytest.raises(GraphError, match="tag"):
            build_graph(2, [(0, 1)], tags={0: "nonsense"})

    def test_tag_vertex_out_of_range(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 1)], tags={5: "hub"})

    def test_adjacency_masks(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.adjacency_masks == (0b010, 0b101, 0b010)

    def test_has_edge(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(0, -1)
        assert not g.has_edge(0, g.n)

    def test_has_edge_out_of_range_u(self):
        # a negative u must not read a row from the end of adj
        g = build_graph(3, [(1, 2)])
        assert not g.has_edge(-1, 1)
        assert not g.has_edge(3, 1)


class TestMaskForm:
    """A graph built from masks derives its rows only when they are read,
    and behaves like the same graph built from edges."""

    def test_rows_derived_on_read(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 3)], tags={0: "hub"})
        h = SimpleGraph.from_masks(4, g.adjacency_masks, {0: "hub"})
        assert (h.degrees, h.m, h.degree(1)) == (g.degrees, g.m, g.degree(1))
        assert h == g
        assert "adj" not in h.__dict__
        assert h.adj == g.adj and list(h.edges()) == list(g.edges())

    def test_degrees_count_a_shared_mask_once(self):
        calls = 0

        class Counted(int):
            def bit_count(self):
                nonlocal calls
                calls += 1
                return super().bit_count()

        # the edgeless graph, every vertex sharing one mask object
        empty = Counted(0)
        g = SimpleGraph.from_masks(50, (empty,) * 50)
        assert g.degrees == (0,) * 50
        assert calls == 1
        # equal masks that are distinct objects are counted one by one
        h = SimpleGraph.from_masks(3, (Counted(0b110), Counted(0b001), Counted(0b001)))
        assert h.degrees == (2, 1, 1) and calls == 4

    def test_derived_rows_share_vertex_ids(self):
        # ids past 256 are separate int objects; one per vertex id serves
        # every row that holds it
        rows = complete_bipartite(300, 300).graph.adj
        assert rows[0][0] == 300 and rows[0][0] is rows[299][0]

    def test_equality_compares_content(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        masks = g.adjacency_masks
        assert SimpleGraph.from_masks(3, masks) == g
        assert SimpleGraph.from_masks(3, (0b110, 0b001, 0b001)) != g
        assert SimpleGraph.from_masks(3, masks, {1: "hub"}) != g
        assert SimpleGraph.from_masks(4, masks + (0,)) != g
        # two graphs held as rows are compared row by row
        a, b = build_graph(3, [(0, 1), (1, 2)]), build_graph(3, [(1, 2), (0, 1)])
        assert a == b and build_graph(3, [(0, 1), (0, 2)]) != a
        assert "adjacency_masks" not in a.__dict__ | b.__dict__
        assert g != "g"

    @pytest.mark.parametrize("g", [
        build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        two_wing_host(ExtremalParams(3, 1, 12)).graph,
    ])
    def test_neighbor_sets_decode_the_masks(self, g):
        held_rows = "adj" in g.__dict__
        sets = g.neighbor_sets
        # a graph stored as masks, as the generated host is, derives no rows
        assert ("adj" in g.__dict__) == held_rows
        assert sets == tuple(frozenset(row) for row in g.adj)

    def test_has_edge(self):
        # the cases of TestBuildGraph's has_edge tests, on the mask form
        g = SimpleGraph.from_masks(3, build_graph(3, [(0, 1), (1, 2)]).adjacency_masks)
        assert g.has_edge(0, 1) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(0, -1)
        assert not g.has_edge(0, g.n)
        # without its range check, v = -1 would reach a shift that raises
        with pytest.raises(ValueError):
            g.adjacency_masks[0] >> -1
        g = SimpleGraph.from_masks(3, build_graph(3, [(1, 2)]).adjacency_masks)
        assert not g.has_edge(-1, 1)
        assert not g.has_edge(3, 1)
        assert "adj" not in g.__dict__

    @settings(max_examples=150)
    @given(small_graphs())
    def test_edges_read_from_masks(self, g):
        h = SimpleGraph.from_masks(g.n, g.adjacency_masks)
        assert list(h.edges()) == list(g.edges())
        assert "adj" not in h.__dict__

    def test_immutable(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 3

    @settings(max_examples=150)
    @given(small_graphs())
    def test_component_sizes_match_components(self, g):
        expected = [0] * g.n
        for comp in components(g):
            for v in comp.vertices:
                expected[v] = comp.order
        h = SimpleGraph.from_masks(g.n, g.adjacency_masks)
        assert h.component_sizes == g.component_sizes == tuple(expected)
        assert "adj" not in h.__dict__

    @settings(max_examples=150)
    @given(small_graphs(max_n=9, min_n=0))
    def test_component_sizes_match_flood_fill(self, g):
        # masks below 257 are shared int objects, so equal rows share one
        h = SimpleGraph.from_masks(g.n, g.adjacency_masks)
        assert h.component_sizes == flood_fill_component_sizes(g)

    @pytest.mark.parametrize("build", [two_wing_host, wing_clique_host, matched_wing_host])
    def test_component_sizes_of_extremal_hosts(self, build):
        # each block of a generated host shares one mask object
        for ell, c in ((3, 1), (7, 3), (21, 2)):
            g = build(ExtremalParams(ell, c, c * ell * (ell + 1))).graph
            assert g.component_sizes == flood_fill_component_sizes(g)


class TestMaskHelpers:
    """_members and _bitmask against plain bit loops, on both sides of the
    64 elements where each switches from one bit at a time to one scan."""

    @staticmethod
    def bits(mask):
        return [v for v in range(mask.bit_length()) if mask >> v & 1]

    def test_members_against_bit_loop(self):
        rng = random.Random(5)
        masks = [0, 1, 1 << 700, (1 << 63) - 1, (1 << 64) - 1, (1 << 65) - 1]
        masks += [sum(1 << v for v in rng.sample(range(900), count))
                  for count in (63, 64, 65, 400)]
        for mask in masks:
            assert list(_members(mask)) == self.bits(mask)
        # masks longer than any decoded before in this process, peeled and
        # scanned
        for count in (40, 200):
            mask = rng.getrandbits(count) << len(graphs._IDS) + 50 | 1
            assert list(_members(mask)) == self.bits(mask)

    def test_members_decode_one_object_per_id(self):
        sparse, dense = 1 << 300 | 1 << 301, (1 << 400) - 1
        assert all(a is b for a, b in zip(_members(dense), _members(dense)))
        assert all(a is b for a, b in zip(_members(sparse), _members(sparse)))
        assert list(_members(sparse))[0] is list(_members(dense))[300]

    def test_bitmask_against_or(self):
        rng = random.Random(6)
        for count in (0, 1, 63, 64, 65, 300):
            # drawn from fewer ids than the count, so most lists repeat some
            vs = [rng.randrange(2 * count + 1) for _ in range(count)]
            want = 0
            for v in vs:
                want |= 1 << v
            by_index = dict(enumerate(vs))
            assert _bitmask(vs) == _bitmask(tuple(vs)) == _bitmask(v for v in vs) == want
            assert _bitmask(by_index.values()) == _bitmask(dict.fromkeys(vs).keys()) == want
        assert _bitmask([5] * 70) == 1 << 5


class TestRankTables:
    """The rank order a host keeps for the exact search, against the table
    each search once built for itself."""

    @staticmethod
    def check(g):
        rank, _prefix = rank_and_prefixes(g, ())
        assert g.rank == tuple(rank)

    @settings(max_examples=200)
    @given(small_graphs(max_n=9, min_n=0))
    @example(build_graph(0, []))
    @example(build_graph(1, []))
    # ties at every degree, and an isolated vertex
    @example(build_graph(6, [(0, 1), (2, 3), (3, 4), (4, 2)]))
    def test_match_per_search_tables(self, g):
        self.check(g)

    def test_random_hosts(self):
        rng = random.Random(15)
        for n, k, alpha in ((70, 30, 0), (140, 60, 0), (140, 60, "1/4")):
            self.check(random_host(n, k, Fraction(alpha), rng))


class TestBuildTree:
    def test_single_vertex(self):
        t = build_tree(1, [])
        assert t.graph.n == 1

    def test_path_tree(self):
        t = build_tree(4, [(0, 1), (1, 2), (2, 3)])
        assert t.edge_count == 3

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(GraphError, match="n-1 edges"):
            build_tree(4, [(0, 1), (2, 3)])

    def test_disconnected_rejected(self):
        # right edge count, but a triangle plus an isolated vertex
        with pytest.raises(GraphError, match="connected"):
            build_tree(4, [(0, 1), (1, 2), (0, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(GraphError):
            build_tree(3, [(0, 1), (1, 2), (0, 2)])

    def test_no_vertices_rejected(self):
        with pytest.raises(GraphError):
            build_tree(0, [])


class TestDegreeStats:
    def test_argmax_smallest_id(self):
        g = build_graph(4, [(0, 1), (0, 2), (3, 1), (3, 2)])
        stats = degree_stats(g)
        assert (stats.min_degree, stats.max_degree, stats.argmax) == (2, 2, 0)

    def test_star(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        stats = degree_stats(g)
        assert (stats.min_degree, stats.max_degree, stats.argmax) == (1, 3, 0)


class TestComponents:
    def test_two_pieces_ordered(self):
        g = build_graph(5, [(3, 4), (0, 1)])
        comps = components(g)
        assert [c.vertices for c in comps] == [(0, 1), (2,), (3, 4)]

    def test_bipartition_sides(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        comp = components(g)[0]
        assert comp.bipartition.side0 == (0, 2)
        assert comp.bipartition.side1 == (1, 3)

    def test_odd_cycle_not_bipartite(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert components(g)[0].bipartition is None

    @settings(max_examples=150)
    @given(small_graphs())
    def test_partition_and_bipartiteness(self, g):
        comps = components(g)
        seen = [v for c in comps for v in c.vertices]
        assert sorted(seen) == list(range(g.n))
        for comp in comps:
            # induced graph edge count must match the original restriction
            inside = set(comp.vertices)
            original = sum(
                1 for u, v in g.edges() if u in inside and v in inside
            )
            sub = induced_by_edges(g, comp.vertices)[0]
            assert sub.m == original
            if comp.bipartition is not None:
                s0, s1 = set(comp.bipartition.side0), set(comp.bipartition.side1)
                assert s0 | s1 == inside and not (s0 & s1)
                for u, v in g.edges():
                    if u in inside:
                        assert (u in s0) != (v in s0)
            assert (comp.bipartition is not None) == brute_bipartition_exists(sub)


    @settings(max_examples=150)
    @given(small_graphs(), st.integers(min_value=0, max_value=7))
    def test_exclude_matches_relabelled_induced(self, g, pick):
        assert_exclude_matches_induced(g, pick % g.n)

    def test_exclude_out_of_range(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        for bad in (-1, 3):
            with pytest.raises(GraphError, match="out of range"):
                components(g, exclude=bad)

    @pytest.mark.parametrize("build", [two_wing_host, wing_clique_host, matched_wing_host])
    def test_exclude_apex_of_extremal_hosts(self, build):
        g = build(ExtremalParams(3, 2, 24)).graph
        assert_exclude_matches_induced(g, degree_stats(g).argmax)

    @settings(max_examples=200)
    @given(small_graphs(max_n=9, min_n=0), st.integers(min_value=-1, max_value=8))
    def test_matches_two_pass(self, g, pick):
        exclude = None if pick < 0 or g.n == 0 else pick % g.n
        h = SimpleGraph.from_masks(g.n, g.adjacency_masks)
        want = two_pass_components(g, exclude)
        assert components(g, exclude) == components(h, exclude) == want

    @pytest.mark.parametrize("build", [two_wing_host, wing_clique_host, matched_wing_host])
    def test_matches_two_pass_on_grid_hosts(self, build):
        for ell in (3, 5, 7):
            for c in (1, 2, 3):
                g = build(ExtremalParams(ell, c, c * ell * (ell + 1))).graph
                x = degree_stats(g).argmax
                assert components(g, exclude=x) == two_pass_components(g, x)

    def test_each_row_walked_once(self):
        walks = Counter()

        class Row(tuple):
            def __iter__(self):
                walks[self.vertex] += 1
                return super().__iter__()

        # a triangle, a 4-cycle, a path and an isolated vertex, the first
        # three joined through vertex 0, so that excluding it splits them
        g = build_graph(12, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7),
                             (8, 9), (9, 10), (0, 1), (0, 4), (0, 8)])
        rows = []
        for u, row in enumerate(g.adj):
            rows.append(Row(row))
            rows[-1].vertex = u
        counted = SimpleGraph(g.n, tuple(rows))
        for exclude in (None, 9, 0):
            walks.clear()
            got = components(counted, exclude)
            assert walks == Counter(v for v in range(g.n) if v != exclude)
            assert got == two_pass_components(g, exclude)
        assert [c.bipartition is None for c in got] == [True, False, False, False]


def assert_exclude_matches_induced(g, x):
    """components(g, exclude=x) is components of G - x in original ids."""
    rest, old_to_new = induced_by_edges(g, [v for v in range(g.n) if v != x])
    new_to_old = {i: v for v, i in old_to_new.items()}
    got = components(g, exclude=x)
    want = components(rest)
    assert len(got) == len(want)
    for comp, ref in zip(got, want):
        assert comp.vertices == tuple(new_to_old[v] for v in ref.vertices)
        if ref.bipartition is None:
            assert comp.bipartition is None
        else:
            assert comp.bipartition.side0 == tuple(new_to_old[v] for v in ref.bipartition.side0)
            assert comp.bipartition.side1 == tuple(new_to_old[v] for v in ref.bipartition.side1)


class TestBfsLayout:
    def test_each_root_finishes_before_the_next(self):
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (0, 5)])
        layout = bfs_layout(g, (3, 1, 0))
        # root 0 was reached from root 1, so it starts no search
        assert layout.order == [3, 4, 1, 0, 2, 5]
        assert layout.parent == [1, -1, 1, -1, 3, 0]
        assert layout.depth == [1, 0, 1, 0, 1, 2]
        assert layout.trees() == [[3, 4], [1, 0, 2, 5]]

    def test_blocked_and_unreached(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        layout = bfs_layout(g, (0,), blocked=(2,))
        assert layout.order == [0, 1]
        assert layout.parent == [-1, 0, -1, -1, -1, -1]
        assert layout.depth == [0, 1, -1, -1, -1, -1]
        assert bfs_layout(g, (2, 3), blocked=(2,)).order == [3]

    def test_odd_cycle_flag_per_search(self):
        # a triangle on 0..2 with a tail to 3, a 4-cycle on 4..7, vertex 8 alone
        g = build_graph(9, [(0, 1), (1, 2), (0, 2), (2, 3),
                            (4, 5), (5, 6), (6, 7), (4, 7)])
        layout = bfs_layout(g, range(g.n))
        assert layout.trees() == [[0, 1, 2, 3], [4, 5, 7, 6], [8]]
        assert layout.odd_cycle == [True, False, False]
        # blocking a triangle vertex leaves a path, which has no odd cycle
        layout = bfs_layout(g, (3, 0, 5), blocked=(1,))
        assert layout.trees() == [[3, 2, 0], [5, 4, 6, 7]]
        assert layout.odd_cycle == [False, False]
        assert bfs_layout(g, (2,)).odd_cycle == [True]


class TestDistanceBfs:
    def test_path_distances(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert distance_bfs(g, 0) == (0, 1, 2, 3)

    def test_unreachable(self):
        g = build_graph(3, [(0, 1)])
        assert distance_bfs(g, 0) == (0, 1, -1)

    @settings(max_examples=100)
    @given(small_graphs())
    def test_symmetry(self, g):
        tables = [distance_bfs(g, s) for s in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                assert tables[u][v] == tables[v][u]


class TestVertexConnectivity:
    def test_complete(self):
        g = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert vertex_connectivity(g) == 4

    def test_path(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert vertex_connectivity(g) == 1

    def test_cycle(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert vertex_connectivity(g) == 2

    def test_complete_bipartite(self):
        edges = [(u, v) for u in range(3) for v in range(3, 6)]
        g = build_graph(6, edges)
        assert vertex_connectivity(g) == 3

    def test_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert vertex_connectivity(g) == 0

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError):
            vertex_connectivity(build_graph(1, []))

    def test_petersen(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        g = build_graph(10, outer + spokes + inner)
        assert vertex_connectivity(g) == 3

    def test_against_brute_force(self):
        rng = random.Random(4242)
        for _ in range(120):
            n = rng.randrange(2, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice((0.2, 0.5, 0.8))
            ]
            g = build_graph(n, edges)
            assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    def test_augmenting_path_leaves_a_vertex_by_its_in_side(self):
        # the first path from 0 to 9 is 0-1-3-6-9; the second search
        # reaches 6 by 0-2-5, steps back along that path to 3, and gets on
        # only by undoing 1-3 as well, to 1 and then 4-7-8-9
        g = build_graph(10, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6),
                             (5, 6), (6, 9), (4, 7), (7, 8), (8, 9)])
        assert vertex_connectivity(g) == brute_vertex_connectivity(g) == 2

    @pytest.mark.parametrize("c, delta", [(1, 5), (2, 13), (3, 21)])
    def test_grid_hosts_at_ell_3(self, c, delta):
        # the hub is a cut vertex of h and g, which gives the G - x split
        # the apex classifier reads; hprime is as connected as its minimum
        # degree allows
        params = ExtremalParams(3, c, 12 * c)
        for build, kappa in ((two_wing_host, 1), (wing_clique_host, 1), (matched_wing_host, delta)):
            host = build(params).graph
            assert vertex_connectivity(host) == kappa
            assert "adj" not in host.__dict__
        assert degree_stats(host).min_degree == delta


class TestTwinQuotient:
    def test_classes_of_the_extremal_hosts(self):
        # hub, A1 and A2 (open twins), and every B vertex alone
        host = matched_wing_host(ExtremalParams(3, 1, 12)).graph
        q = host.twin_quotient
        assert len(q.members) == 3 + 2 * 5
        assert q.members[q.class_of[1]] == list(range(1, 5))
        assert not q.clique[q.class_of[1]]
        # the clique of the wing-clique host is one closed-twin class
        params = ExtremalParams(3, 1, 12)
        host = wing_clique_host(params).graph
        q = host.twin_quotient
        clique = q.class_of[host.n - 1]
        assert q.clique[clique] and len(q.members[clique]) == params.clique_order

    def test_pair_swaps_are_one_orbit(self):
        # in hprime the swaps (B1[j] B1[j'])(B2[j] B2[j']), and those times
        # the wing swap, are involutions from B1[0] onto every B vertex, so
        # the B vertices are one orbit
        host = matched_wing_host(ExtremalParams(5, 2, 60)).graph
        q = host.twin_quotient
        b_classes = sorted({q.class_of[v] for v, tag in host.tags.items() if tag in ("B1", "B2")})
        assert len(b_classes) == 64
        for c in b_classes[1:]:
            perm = q.involution(b_classes[0], c)
            assert perm is not None and is_automorphism(q, perm)

    def test_wing_swap_found_on_any_labelling(self):
        # the wing swap pairs each B vertex of one wing with its partner
        # across the matching, which ids in random order do not give
        params = ExtremalParams(7, 3, 168)
        tagged = matched_wing_host(params)
        rng = random.Random(2525)
        for _ in range(5):
            perm = list(range(tagged.graph.n))
            rng.shuffle(perm)
            g = build_graph(tagged.graph.n, [(perm[u], perm[v]) for u, v in tagged.graph.edges()])
            q = g.twin_quotient
            a1, a2 = (q.class_of[perm[tagged.parts[side][0]]] for side in ("A1", "A2"))
            swap = q.involution(a1, a2)
            assert swap is not None and is_automorphism(q, swap)
            assert all(swap[q.class_of[perm[u]]] == q.class_of[perm[v]]
                       for u, v in zip(tagged.parts["B1"], tagged.parts["B2"]))

    @staticmethod
    def families(g):
        masks, partner = g.twin_quotient.pair_families
        return sorted(sorted(tuple(sorted((x, partner[x]))) for x in _members(xs))
                      for xs, _ in masks)

    def test_pair_families_against_brute_force(self):
        # every swap of two pairs of a family is an automorphism, read on
        # the edge set, and the x-ends of a family see one set of vertices
        # besides their partners, the y-ends another
        rng = random.Random(23)
        hosts = [planted_pairs_host(rng) for _ in range(300)]
        hosts += [
            matched_wing_host(ExtremalParams(ell, c, c * ell * (ell + 1))).graph
            for ell in (3, 5, 7)
            for c in (1, 2, 3)
        ]
        found = 0
        for g in hosts:
            families = self.families(g)
            assert families == brute_pair_families(g)
            masks, partner = g.twin_quotient.pair_families
            assert len(partner) == 2 * sum(map(len, families))
            edges = set(g.edges())
            for xs, ys in masks:
                assert ys == _bitmask(partner[x] for x in _members(xs))
                for ends in (xs, ys):
                    rests = {frozenset(g.adj[v]) - {partner[v]} for v in _members(ends)}
                    assert len(rests) == 1
                pairs = [(x, partner[x]) for x in _members(xs)]
                for i, one in enumerate(pairs):
                    for other in pairs[i + 1 :]:
                        assert pair_swap_keeps_edges(g, edges, one, other)
            found += bool(families)
        assert found >= 100
        # hprime's B1[j] B2[j] are one family
        host = matched_wing_host(ExtremalParams(5, 2, 60))
        b1, b2 = host.parts["B1"], host.parts["B2"]
        assert self.families(host.graph) == [list(zip(b1, b2))]

    def test_pair_families_on_hprime_minus_an_edge(self):
        # without the edge A1[0] B1[0], A1[0] is a class of its own next to
        # every other B1 vertex; each B2 vertex still has one singleton
        # neighbour, and the pairs but B1[0]'s keep one rest on each side
        tagged = matched_wing_host(ExtremalParams(7, 3, 168))
        a1, b1, b2 = tagged.parts["A1"], tagged.parts["B1"], tagged.parts["B2"]
        g = build_graph(tagged.graph.n, [e for e in tagged.graph.edges() if e != (a1[0], b1[0])])
        families = self.families(g)
        assert families == brute_pair_families(g) == [list(zip(b1[1:], b2[1:]))]
        # relabelled, the family is the same up to the labels
        rng = random.Random(7)
        perm = list(range(g.n))
        rng.shuffle(perm)
        moved = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        want = sorted(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pairs)
                      for pairs in families)
        assert self.families(moved) == brute_pair_families(moved) == want

    def test_pair_families_ignore_offsets(self):
        # a block 0 1 and three pairs on it: partners at offsets 3, 3 and 4,
        # with 7 a vertex seeing the block only
        pairs = [(2, 5), (3, 6), (4, 8)]
        edges = pairs + [(v, x) for v, _ in pairs for x in (0, 1)] + [(0, 7), (1, 7)]
        g = build_graph(9, edges)
        assert self.families(g) == brute_pair_families(g) == [pairs]

    def test_pair_ends_seeing_the_same_blocks_are_twins(self):
        # each pair is a class of closed twins, so there is no singleton
        pairs = [(2, 4), (3, 5)]
        edges = pairs + [(v, x) for pair in pairs for v in pair for x in (0, 1)]
        g = build_graph(6, edges)
        q = g.twin_quotient
        assert [q.members[q.class_of[v]] for v in (2, 3)] == [[2, 4], [3, 5]]
        assert self.families(g) == brute_pair_families(g) == []

    def test_end_with_a_second_singleton_neighbour_is_in_no_pair(self):
        # pairs 2-5, 3-6 and 4-7 on the blocks 0 1 and 8 9; 10 sees 4 and
        # the block 8 9, so 4 is an end of the pairs 4-7 and 4-10, and of
        # neither
        pairs = [(2, 5), (3, 6), (4, 7)]
        edges = pairs + [(v, x) for v, _ in pairs for x in (0, 1)]
        edges += [(u, x) for _, u in pairs for x in (8, 9)] + [(4, 10), (8, 10), (9, 10)]
        g = build_graph(11, edges)
        assert self.families(g) == brute_pair_families(g) == [pairs[:2]]

    def test_symmetry_found_or_absent(self):
        assert matched_wing_host(ExtremalParams(3, 1, 12)).graph.twin_quotient.involutions
        # the Frucht graph is cubic with no automorphism but the identity,
        # so colour refinement alone cannot split it and no test may verify
        lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
        edges = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
        edges |= {tuple(sorted((i, (i + lcf[i]) % 12))) for i in range(12)}
        frucht = build_graph(12, sorted(edges))
        assert set(frucht.degrees) == {3}
        assert frucht.twin_quotient.involutions == []

    def test_orbits_are_sound_and_found(self):
        # an involution between two classes of one colour is verified only
        # when they share an orbit.  Pairing neighbours in order finds 106 of
        # the 155 pairs that share one: a reflection of a circulant that
        # moves the common neighbours of the two classes is not found, as
        # the map fixes them
        rng = random.Random(5)
        tested = found = 0
        for trial in range(60):
            n = rng.randrange(3, 8)
            if trial % 2:
                steps = rng.sample(range(1, n // 2 + 1), rng.randrange(1, n // 2 + 1))
                edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
            else:
                edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
            g = build_graph(n, sorted(edges))
            q = g.twin_quotient
            truth = brute_stabiliser_orbits(g, set())
            col = q.partition[0]
            for c in range(len(q.adj)):
                for d in range(c + 1, len(q.adj)):
                    if col[c] != col[d]:
                        continue
                    perm = q.involution(c, d)
                    shared = q.members[d][0] in truth[q.members[c][0]]
                    if perm is not None:
                        assert shared and is_automorphism(q, perm)
                        assert perm[c] == d and all(perm[perm[x]] == x for x in perm)
                    tested += shared
                    found += perm is not None
        assert (tested, found) == (155, 106)

    def test_classes_keyed_by_object_match_keyed_by_value(self):
        # generated hosts share one mask object per block; random hosts
        # have a mask of their own per vertex; a generated host rebuilt
        # edge by edge has equal masks in distinct objects
        generated = [
            build(ExtremalParams(ell, c, c * ell * (ell + 1))).graph
            for build in (two_wing_host, wing_clique_host, matched_wing_host)
            for ell in (3, 5, 7)
            for c in (1, 3)
        ]
        rng = random.Random(14)
        drawn = [random_host(n, k, Fraction(alpha), rng)
                 for n, k, alpha in ((70, 30, 0), (140, 60, 0), (140, 60, "1/4"))]
        rebuilt = [build_graph(g.n, list(g.edges())) for g in generated]

        def objects(g):
            return len({id(m) for m in g.adjacency_masks})

        assert all(objects(g) < g.n for g in generated)
        assert all(objects(g) > len(set(g.adjacency_masks)) for g in rebuilt)
        for g in generated + drawn + rebuilt:
            q = TwinQuotient.of_graph(g)
            assert (q.class_of, q.clique, q.adj) == value_keyed_twins(g)
        # hprime(7,3)'s A representatives see the hub and 91 B classes,
        # past _members' peel of fewer than 64
        hprime = generated[-1]
        assert max(map(len, hprime.twin_quotient.adj)) == 1 + 91

    def test_masks_sharing_their_int_hash(self):
        # a clique of 200 and an apex: each vertex's mask is the block's
        # minus its own bit, and Python's int hash, the value mod 2**61 - 1,
        # gives these 201 masks only 61 values
        n = 201
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        block = (1 << n) - 1
        assert g.adjacency_masks == tuple(block ^ 1 << w for w in range(n))
        assert len({hash(m) for m in g.adjacency_masks}) <= 61
        q = TwinQuotient.of_graph(g)
        assert (q.class_of, q.clique, q.adj) == value_keyed_twins(g)
        assert q.clique == [True]

    @pytest.mark.parametrize("build", [two_wing_host, wing_clique_host, matched_wing_host])
    def test_every_key_colliding(self, monkeypatch, build):
        # with one hash for every key, each hit is told apart only by
        # building the stored vertex's key again
        monkeypatch.setattr(graphs, "hash", lambda key: 0, raising=False)
        g = build(ExtremalParams(5, 2, 60)).graph
        q = TwinQuotient.of_graph(g)
        assert (q.class_of, q.clique, q.adj) == value_keyed_twins(g)
