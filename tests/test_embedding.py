"""Solver behavior: soundness, completeness, budgets, and the strategy
pipeline's routing."""

import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treembed.decompose import _centroid_layout, centroid, find_separator
from treembed.embedding import (
    Budget,
    Verdict,
    auto_embed,
    embedding_violations,
    exact_embed,
    greedy_min_degree_embed,
    strategy_embed,
    validate_embedding,
)
from treembed.embedding import (
    _Backtracker, _complete_holding, _one_per_class, _swap_lowers, _top_bits,
)
from treembed.families import (
    ExtremalParams,
    broom_tree,
    caterpillar,
    cliques_with_apex,
    complete_bipartite,
    matched_wing_host,
    two_wing_host,
    wing_clique_host,
)
from treembed import decompose, embedding, graphs
from treembed.graphs import TwinQuotient, build_graph, build_tree
from treembed.randgen import random_tree

import oracles
from oracles import (
    bitwise_top_bits,
    rank_and_prefixes,
    brute_hall_holds,
    flow_hall_holds,
    has_edge_violations,
    keyed_chain_prev,
    multi_pass_search_tables,
    naive_embed_exists,
    planted_pairs_host,
)


def rand_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def planted_apex_host(rng):
    """Apex 0 over a random bipartite component, sides A and B, and a
    random near-clique C; the apex sees part of A and part of C."""
    a, c = rng.randint(1, 6), rng.randint(1, 6)
    b = rng.randint(1, a)
    n = 1 + a + b + c
    side_a, side_b, clique = range(1, 1 + a), range(1 + a, 1 + a + b), range(1 + a + b, n)
    p_ab, p_cc, p_xa, p_xc = (rng.choice((0.5, 1.0)) for _ in range(4))
    edges = [(u, v) for u in side_a for v in side_b if rng.random() < p_ab]
    edges += [(u, v) for u in clique for v in clique if u < v and rng.random() < p_cc]
    edges += [(0, v) for v in side_a if rng.random() < p_xa]
    edges += [(0, v) for v in clique if rng.random() < p_xc]
    return build_graph(n, edges)


def complete_graph(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


class TestValidateEmbedding:
    def test_valid(self):
        t = build_tree(3, [(0, 1), (1, 2)])
        host = complete_graph(4)
        assert validate_embedding(t, host, {0: 3, 1: 0, 2: 2})

    def test_missing_vertex(self):
        t = build_tree(3, [(0, 1), (1, 2)])
        issues = embedding_violations(t, complete_graph(4), {0: 0, 1: 1})
        assert any("no image" in msg for msg in issues)

    def test_not_injective(self):
        t = build_tree(2, [(0, 1)])
        issues = embedding_violations(t, complete_graph(3), {0: 1, 1: 1})
        assert any("share" in msg for msg in issues)

    def test_non_edge(self):
        t = build_tree(2, [(0, 1)])
        host = build_graph(3, [(0, 1)])
        issues = embedding_violations(t, host, {0: 0, 1: 2})
        assert any("non-edge" in msg for msg in issues)

    def test_image_out_of_range(self):
        t = build_tree(2, [(0, 1)])
        issues = embedding_violations(t, complete_graph(3), {0: 0, 1: 9})
        assert any("not a host vertex" in msg for msg in issues)

    def test_mapped_vertex_out_of_range(self):
        t = build_tree(2, [(0, 1)])
        issues = embedding_violations(t, complete_graph(3), {0: 0, 1: 1, 5: 2})
        assert issues == ["mapped vertex 5 is not a tree vertex"]

    @settings(max_examples=200)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["valid", "missing", "tree vertex", "image", "shared", "non-edge"]),
    )
    def test_matches_has_edge_checker(self, seed, damage):
        # a valid mapping into a random supergraph of its images, then one
        # kind of damage: the same messages in the same order as a check
        # of every edge through has_edge
        rng = random.Random(seed)
        tree = random_tree(rng.randrange(0, 12), rng)
        g = tree.graph
        n_h = g.n + rng.randrange(0, 4)
        mapping = dict(zip(range(g.n), rng.sample(range(n_h), g.n)))
        edges = {tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges()}
        cut = rng.choice(sorted(edges)) if damage == "non-edge" and edges else None
        edges |= {e for e in itertools.combinations(range(n_h), 2) if rng.random() < 0.3}
        edges.discard(cut)
        host = build_graph(n_h, sorted(edges))
        v = rng.randrange(g.n)
        if damage == "missing":
            del mapping[v]
        elif damage == "tree vertex":
            mapping[rng.choice((-1, g.n))] = rng.randrange(n_h)
        elif damage == "image":
            mapping[v] = rng.choice((-1, n_h))
        elif damage == "shared":
            mapping[v] = mapping[rng.randrange(g.n)]
        issues = embedding_violations(tree, host, mapping)
        assert issues == has_edge_violations(tree, host, mapping)
        if damage == "valid":
            assert issues == []
        elif damage != "shared" and (damage != "non-edge" or cut):
            assert issues

    def test_no_routine_builds_neighbor_sets(self):
        # frozenset rows cost far more memory than the bitmask rows the
        # solvers read; only callers outside the library may build them.
        # A generated host holds masks only, and exact, auto and the
        # witness check read nothing else, so they derive no rows either
        host = two_wing_host(ExtremalParams(3, 2, 24)).graph
        verdict = exact_embed(broom_tree(3, 12), host)
        assert verdict.kind is Verdict.EMBEDDED
        assert validate_embedding(broom_tree(3, 12), host, verdict.embedding)
        verdict = auto_embed(broom_tree(3, 12), host)
        assert verdict.kind is Verdict.EMBEDDED
        assert validate_embedding(broom_tree(3, 12), host, verdict.embedding)
        assert "adj" not in host.__dict__
        verdict = strategy_embed(caterpillar(12), host)
        assert validate_embedding(caterpillar(12), host, verdict.embedding)
        assert "neighbor_sets" not in host.__dict__


# the README's ladder past the grid: the search nodes of the broom at each
# ell, the same for c = 1, 2 and 3
LADDER_ELLS = (9, 11, 15, 21, 31, 41)
LADDER_NODES = {
    two_wing_host: (40, 51, 76, 121, 216, 336),
    wing_clique_host: (67, 86, 130, 211, 386, 611),
    matched_wing_host: (45, 57, 84, 132, 232, 357),
}


# the broom's search nodes on the ladder hosts at c = 3 with their
# vertices shuffled (random.Random(2525) per host), and on the grid hosts at
# c = 3 with one edge removed (three draws from random.Random(7) per host)
RELABELLED_LADDER_ELLS = (9, 13, 17, 21)
RELABELLED_LADDER_NODES = {
    two_wing_host: (39, 62, 89, 120),
    wing_clique_host: (65, 105, 153, 209),
    matched_wing_host: (44, 69, 117, 131),
}
NEAR_EXTREMAL_NODES = {
    two_wing_host: {7: [110, 110, 110], 11: [192, 192, 192], 15: [290, 290, 290]},
    wing_clique_host: {7: [101, 101, 102], 11: [177, 177, 177], 15: [269, 269, 269]},
    matched_wing_host: {7: [148, 148, 149], 11: [251, 250, 251], 15: [368, 368, 368]},
}


def near_extremal_proofs(build, ell):
    """The broom's verdict, nodes and seconds on three draws of the c = 3
    host with one edge removed."""
    k = 3 * ell * (ell + 1)
    host = build(ExtremalParams(ell, 3, k)).graph
    rng = random.Random(7)
    out = []
    for _ in range(3):
        edges = list(host.edges())
        edges.pop(rng.randrange(len(edges)))
        moved = build_graph(host.n, edges)
        start = time.perf_counter()
        verdict = exact_embed(broom_tree(ell, k), moved, Budget(max_nodes=20_000))
        out.append((verdict.kind, verdict.nodes_explored, time.perf_counter() - start))
    return out


class TestExactEmbed:
    def test_broom_blocked_by_two_wing(self):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        verdict = exact_embed(broom_tree(3, 12), host)
        assert verdict.kind is Verdict.NOT_EMBEDDED
        assert verdict.nodes_explored > 0
        assert verdict.embedding is None

    def test_path_embeds_in_two_wing(self):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        verdict = exact_embed(caterpillar(12), host)
        assert verdict.kind is Verdict.EMBEDDED
        assert validate_embedding(caterpillar(12), host, verdict.embedding)

    def test_too_many_vertices_is_a_proof(self):
        verdict = exact_embed(caterpillar(8), complete_bipartite(3, 5).graph)
        assert verdict.kind is Verdict.NOT_EMBEDDED
        assert verdict.nodes_explored == 0

    def test_single_vertex_tree(self):
        t = build_tree(1, [])
        host = build_graph(3, [(1, 2)])
        verdict = exact_embed(t, host)
        assert verdict.kind is Verdict.EMBEDDED
        # highest degree host vertex, ties to the smaller id
        assert verdict.embedding == {0: 1}

    def test_constrained_edge_into_edgeless_host(self):
        verdict = exact_embed(build_tree(2, [(0, 1)]), build_graph(2, []))
        assert verdict.kind is Verdict.NOT_EMBEDDED

    def test_agrees_with_naive_reference(self):
        rng = random.Random(31337)
        for _ in range(400):
            k = rng.randrange(1, 7)
            tree = random_tree(k, rng)
            host = rand_graph(rng, rng.randrange(1, 8), rng.random())
            want = naive_embed_exists(tree.graph, host)
            got = exact_embed(tree, host)
            assert (got.kind is Verdict.EMBEDDED) == want
            if want:
                assert validate_embedding(tree, host, got.embedding)

    def test_symmetry_modes_agree(self):
        rng = random.Random(90210)
        for _ in range(300):
            k = rng.randrange(1, 9)
            tree = random_tree(k, rng)
            host = rand_graph(rng, rng.randrange(2, 11), rng.random())
            on = exact_embed(tree, host, symmetry=True)
            off = exact_embed(tree, host, symmetry=False)
            assert on.kind == off.kind
            if on.kind is Verdict.NOT_EMBEDDED:
                # pruning may only shrink an exhaustive search
                assert on.nodes_explored <= off.nodes_explored

    def test_symmetry_modes_agree_on_structured_host(self):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        tree = broom_tree(3, 6)
        on = exact_embed(tree, host, symmetry=True)
        off = exact_embed(tree, host, symmetry=False)
        assert on.kind == off.kind == Verdict.EMBEDDED

    def test_node_budget_times_out(self):
        verdict = exact_embed(
            middle_numbered_path(200), caterpillar(210).graph, budget=Budget(max_nodes=50)
        )
        assert verdict.kind is Verdict.TIMEOUT
        assert verdict.nodes_explored == 50

    def test_zero_node_budget_tries_nothing(self):
        verdict = exact_embed(
            middle_numbered_path(200), caterpillar(210).graph, budget=Budget(max_nodes=0)
        )
        assert verdict.kind is Verdict.TIMEOUT
        assert verdict.nodes_explored == 0

    def test_node_budget_of_exactly_the_search(self):
        # a budget of N nodes tries N candidates: a budget of exactly the
        # nodes a search needs leaves its verdict alone, one fewer cuts it
        tree, host = broom_tree(3, 12), two_wing_host(ExtremalParams(3, 1, 12)).graph
        full = exact_embed(tree, host)
        assert full.kind is Verdict.NOT_EMBEDDED
        n = full.nodes_explored
        exact = exact_embed(tree, host, budget=Budget(max_nodes=n))
        assert (exact.kind, exact.nodes_explored) == (Verdict.NOT_EMBEDDED, n)
        short = exact_embed(tree, host, budget=Budget(max_nodes=n - 1))
        assert (short.kind, short.nodes_explored) == (Verdict.TIMEOUT, n - 1)

    def test_wall_clock_budget_times_out(self):
        verdict = exact_embed(
            middle_numbered_path(200), caterpillar(210).graph, budget=Budget(time_ms=1)
        )
        assert verdict.kind is Verdict.TIMEOUT

    def test_timeout_pair_needs_the_full_search(self):
        # the pair behind the budget tests: greedy stalls at once, and the
        # search tries root images from the path's end inwards, each failing
        # only after both arms have grown, whatever the reductions
        tree, host = middle_numbered_path(200), caterpillar(210).graph
        assert greedy_min_degree_embed(tree, host).kind is Verdict.UNKNOWN
        verdict = exact_embed(tree, host)
        assert verdict.kind is Verdict.EMBEDDED
        assert verdict.nodes_explored == 10_099

    def test_unreduced_search_is_the_plain_search(self):
        # symmetry=False places every vertex, leaves included, with no
        # reduction, so this count must not move when a reduction changes
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        verdict = exact_embed(caterpillar(12), host, symmetry=False)
        assert verdict.kind is Verdict.EMBEDDED
        assert verdict.nodes_explored == 55_743
        assert validate_embedding(caterpillar(12), host, verdict.embedding)

    def test_quick_search_beats_generous_budget(self):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        verdict = exact_embed(
            broom_tree(3, 12), host, budget=Budget(max_nodes=10_000_000)
        )
        assert verdict.kind is Verdict.NOT_EMBEDDED

    @pytest.mark.parametrize(
        "build, ell, c, nodes",
        [
            # nodes place the handle and the ell star centers only; the
            # leaves go by matching
            (two_wing_host, 3, 1, 13),
            (two_wing_host, 7, 3, 30),
            (wing_clique_host, 3, 1, 22),
            (wing_clique_host, 3, 2, 22),
            # the matched pairs B1[j] B2[j] are one orbit, which no twin
            # relation sees
            (matched_wing_host, 3, 1, 15),
            (matched_wing_host, 5, 2, 24),
            (matched_wing_host, 7, 3, 34),
        ],
    )
    def test_pinned_broom_proofs(self, build, ell, c, nodes):
        k = c * ell * (ell + 1)
        verdict = exact_embed(broom_tree(ell, k), build(ExtremalParams(ell, c, k)).graph)
        assert verdict.kind is Verdict.NOT_EMBEDDED
        assert verdict.nodes_explored == nodes

    @pytest.mark.parametrize("c", (1, 2, 3))
    @pytest.mark.parametrize("ell", LADDER_ELLS)
    @pytest.mark.parametrize("build", list(LADDER_NODES), ids=lambda b: b.__name__)
    def test_ladder_proofs(self, build, ell, c):
        k = c * ell * (ell + 1)
        verdict = exact_embed(broom_tree(ell, k), build(ExtremalParams(ell, c, k)).graph)
        assert verdict.kind is Verdict.NOT_EMBEDDED
        assert verdict.nodes_explored == LADDER_NODES[build][LADDER_ELLS.index(ell)]

    def test_relabelled_grid_proofs(self):
        # every reduction reads a table that does not depend on the labels,
        # and chains are ordered by class, so relabelled hosts take about
        # the nodes of the grid in order (192, 321 and 219): h and g take
        # fewer, as their classes come in another order
        rng = random.Random(2525)
        totals = dict.fromkeys(("h", "g", "hprime"), 0)
        for (tree, host), family in zip(grid_brooms(), [f for f in totals for _ in range(9)]):
            host = relabelled(host.n, host.edges(), rng)
            verdict = exact_embed(tree, host, Budget(max_nodes=20_000))
            assert verdict.kind is Verdict.NOT_EMBEDDED
            totals[family] += verdict.nodes_explored
        assert totals == {"h": 184, "g": 303, "hprime": 248}

    @pytest.mark.parametrize("ell", (7, 11))
    @pytest.mark.parametrize("build", list(NEAR_EXTREMAL_NODES), ids=lambda b: b.__name__)
    def test_near_extremal_proofs(self, build, ell):
        # one edge away from the generator, the pair families of hprime
        # still hold all pairs but at most one: a search per node for
        # involutions took 530-551 nodes and 1.7 s at hprime(11,3)
        proofs = near_extremal_proofs(build, ell)
        assert all(kind is Verdict.NOT_EMBEDDED for kind, _, _ in proofs)
        assert [nodes for _, nodes, _ in proofs] == NEAR_EXTREMAL_NODES[build][ell]

    @pytest.mark.stretch
    def test_near_extremal_hprime_at_ell_15(self):
        # 977 nodes and 19-26 s each under a search per node for involutions
        proofs = near_extremal_proofs(matched_wing_host, 15)
        assert all(kind is Verdict.NOT_EMBEDDED for kind, _, _ in proofs)
        assert [nodes for _, nodes, _ in proofs] == NEAR_EXTREMAL_NODES[matched_wing_host][15]
        assert all(seconds < 1 for _, _, seconds in proofs)

    @pytest.mark.stretch
    @pytest.mark.parametrize("ell", RELABELLED_LADDER_ELLS)
    @pytest.mark.parametrize("build", list(RELABELLED_LADDER_NODES), ids=lambda b: b.__name__)
    def test_relabelled_ladder_proofs(self, build, ell):
        # reductions that read vertex ids took up to 7,155 nodes at ell 13
        # and ran past 200,000 at ell 21
        k = 3 * ell * (ell + 1)
        host = build(ExtremalParams(ell, 3, k)).graph
        host = relabelled(host.n, host.edges(), random.Random(2525))
        verdict = exact_embed(broom_tree(ell, k), host, Budget(max_nodes=20_000))
        assert verdict.kind is Verdict.NOT_EMBEDDED
        assert verdict.nodes_explored == RELABELLED_LADDER_NODES[build][
            RELABELLED_LADDER_ELLS.index(ell)]

    @pytest.mark.stretch
    @pytest.mark.parametrize("build, nodes", [(two_wing_host, 1581), (matched_wing_host, 1632)],
                             ids=lambda x: getattr(x, "__name__", str(x)))
    def test_broom_proofs_at_ell_101(self, build, nodes):
        # the star centres that split between the wings are counted against
        # the wing swap; cutting only the first centre's second wing took
        # 2,856 and 2,907 nodes
        k = 3 * 101 * 102
        verdict = exact_embed(broom_tree(101, k), build(ExtremalParams(101, 3, k)).graph)
        assert verdict.kind is Verdict.NOT_EMBEDDED
        assert verdict.nodes_explored == nodes

    def test_search_keeps_one_leaf_holding(self):
        # h(61,3) tries 651 candidates over 183 leaf groups; at 1,116 nodes,
        # with a copy of the holding per depth the search alone peaked at
        # 5.9 MiB, with one holding trimmed on backtrack at 2.2 MiB
        k = 3 * 61 * 62
        host = two_wing_host(ExtremalParams(61, 3, k)).graph
        tree = broom_tree(61, k)
        # the host tables are built once per host and are not the search's
        host.rank, host.component_sizes, host.twin_quotient, host.degrees
        tracemalloc.start()
        try:
            verdict = exact_embed(tree, host)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.kind is Verdict.NOT_EMBEDDED
        assert verdict.nodes_explored == 651
        assert peak < 4 * 2**20

    def test_deep_tree_does_not_recurse(self):
        tree = caterpillar(1500)
        host = caterpillar(1600).graph
        verdict = exact_embed(tree, host)
        assert verdict.kind is Verdict.EMBEDDED
        assert validate_embedding(tree, host, verdict.embedding)

    def test_deterministic_witness(self):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        a = exact_embed(caterpillar(12), host)
        b = exact_embed(caterpillar(12), host)
        assert a.embedding == b.embedding
        assert a.nodes_explored == b.nodes_explored

    def test_embedded_survives_host_densification(self):
        rng = random.Random(1212)
        checked = 0
        while checked < 100:
            k = rng.randrange(1, 7)
            tree = random_tree(k, rng)
            n_h = rng.randrange(k + 1, 9)
            host = rand_graph(rng, n_h, rng.random())
            if exact_embed(tree, host).kind is not Verdict.EMBEDDED:
                continue
            extra = [
                (u, v)
                for u in range(n_h)
                for v in range(u + 1, n_h)
                if not host.has_edge(u, v) and rng.random() < 0.5
            ]
            denser = build_graph(n_h, list(host.edges()) + extra)
            assert exact_embed(tree, denser).kind is Verdict.EMBEDDED
            checked += 1


def middle_numbered_path(path_edges):
    """The path on path_edges edges numbered from its middle vertex 0 out
    along both arms, so that greedy, which starts at vertex 0, stalls in a
    longer host path."""
    half = path_edges // 2
    edges = [(i, i + 1) for i in range(half)] + [(0, half + 1)]
    edges += [(i, i + 1) for i in range(half + 1, path_edges)]
    return build_tree(path_edges + 1, edges)


def clique_union(rng, n):
    """Consecutive blocks made cliques, plus random noise edges."""
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, min(4, n - 1) + 1)))
    blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [n])]
    edges = {e for blk in blocks for e in itertools.combinations(blk, 2)}
    p = rng.random() * 0.3
    edges |= {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
    return build_graph(n, sorted(edges))


def has_closed_twins(host):
    closed = [mask | 1 << w for w, mask in enumerate(host.adjacency_masks)]
    return len(set(closed)) < host.n


class TestClosedTwins:
    def test_verdicts_match_unreduced_search(self):
        rng = random.Random(20261018)
        hosts = [
            cliques_with_apex(3, 3).graph,
            cliques_with_apex(4, 2).graph,
            wing_clique_host(ExtremalParams(3, 1, 12)).graph,
        ]
        hosts += [clique_union(rng, rng.randrange(3, 11)) for _ in range(120)]
        assert sum(map(has_closed_twins, hosts)) >= 90
        refuted = 0
        for host in hosts:
            for _ in range(6):
                tree = random_tree(rng.randrange(1, min(host.n, 10)), rng)
                on = exact_embed(tree, host)
                off = exact_embed(tree, host, symmetry=False, budget=Budget(max_nodes=100_000))
                if off.kind is not Verdict.TIMEOUT:
                    assert on.kind == off.kind
                if on.kind is Verdict.EMBEDDED:
                    assert validate_embedding(tree, host, on.embedding)
                refuted += on.kind is Verdict.NOT_EMBEDDED
        assert refuted >= 100


class TestGreedyMinDegree:
    def test_tree_into_complete_host(self):
        rng = random.Random(5150)
        for _ in range(60):
            k = rng.randrange(1, 12)
            tree = random_tree(k, rng)
            verdict = greedy_min_degree_embed(tree, complete_graph(k + 1))
            assert verdict.kind is Verdict.EMBEDDED
            assert validate_embedding(tree, complete_graph(k + 1), verdict.embedding)

    def test_guaranteed_when_min_degree_reaches_k(self):
        rng = random.Random(8080)
        done = 0
        while done < 40:
            k = rng.randrange(2, 9)
            n = k + 1 + rng.randrange(0, 6)
            host = rand_graph(rng, n, 0.9)
            if min(host.degrees) < k:
                continue
            tree = random_tree(k, rng)
            verdict = greedy_min_degree_embed(tree, host)
            assert verdict.kind is Verdict.EMBEDDED
            done += 1

    def test_stall_reports_unknown(self):
        star = build_tree(4, [(0, 1), (0, 2), (0, 3)])
        path_host = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        verdict = greedy_min_degree_embed(star, path_host)
        assert verdict.kind is Verdict.UNKNOWN
        assert "stalled" in verdict.detail

    def test_host_too_small(self):
        verdict = greedy_min_degree_embed(caterpillar(5), complete_graph(3))
        assert verdict.kind is Verdict.UNKNOWN

    def test_pinned_witnesses(self):
        host = two_wing_host(ExtremalParams(3, 2, 24)).graph
        broom = greedy_min_degree_embed(broom_tree(3, 12), host)
        assert broom.embedding == {
            0: 0, 1: 1, 5: 2, 9: 3, 2: 15, 3: 16, 4: 17, 6: 18, 7: 19, 8: 20,
            10: 21, 11: 22, 12: 23,
        }
        path = greedy_min_degree_embed(caterpillar(12), host)
        assert path.embedding == {
            0: 0, 1: 1, 2: 15, 3: 2, 4: 16, 5: 3, 6: 17, 7: 4, 8: 18, 9: 5,
            10: 19, 11: 6, 12: 20,
        }
        assert broom.nodes_explored == path.nodes_explored == 13


class TestStrategyEmbed:
    def test_infeasible_interval_reported(self):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        verdict = strategy_embed(broom_tree(3, 12), host)
        assert verdict.kind is Verdict.UNKNOWN
        assert "[1/2, 0]" in verdict.detail

    def test_greedy_fallback_on_unstructured_host(self):
        verdict = strategy_embed(broom_tree(3, 12), complete_graph(13))
        assert verdict.kind is Verdict.EMBEDDED
        assert "greedy fallback" in verdict.detail

    def test_two_component_route(self):
        host = two_wing_host(ExtremalParams(3, 2, 24)).graph
        tree = broom_tree(3, 12)
        verdict = strategy_embed(tree, host)
        assert verdict.kind is Verdict.EMBEDDED
        assert validate_embedding(tree, host, verdict.embedding)
        # nodes count the tree vertices that have an image
        assert verdict.nodes_explored == 13
        assert verdict.embedding == {
            0: 1, 1: 0, 2: 28, 3: 29, 4: 30, 5: 15, 6: 2, 7: 3, 8: 4, 9: 16,
            10: 5, 11: 6, 12: 7,
        }

    def test_path_through_pipeline(self):
        host = two_wing_host(ExtremalParams(3, 2, 24)).graph
        tree = caterpillar(12)
        verdict = strategy_embed(tree, host)
        assert verdict.kind is Verdict.EMBEDDED
        assert validate_embedding(tree, host, verdict.embedding)
        assert verdict.nodes_explored == 13
        assert verdict.embedding == {
            0: 30, 1: 43, 2: 29, 3: 42, 4: 28, 5: 0, 6: 1, 7: 15, 8: 2, 9: 16,
            10: 3, 11: 17, 12: 4,
        }

    def test_single_edge_tree(self):
        verdict = strategy_embed(build_tree(2, [(0, 1)]), complete_graph(3))
        assert verdict.kind is Verdict.EMBEDDED

    def test_single_vertex_tree(self):
        verdict = strategy_embed(build_tree(1, []), complete_graph(3))
        assert verdict.kind is Verdict.EMBEDDED

    def test_never_claims_non_embedding(self):
        rng = random.Random(5551212)
        for _ in range(150):
            k = rng.randrange(1, 8)
            tree = random_tree(k, rng)
            host = rand_graph(rng, rng.randrange(1, 12), rng.random())
            verdict = strategy_embed(tree, host)
            assert verdict.kind in (Verdict.EMBEDDED, Verdict.UNKNOWN)
            if verdict.kind is Verdict.EMBEDDED:
                assert validate_embedding(tree, host, verdict.embedding)

    def test_capacity_certificate(self):
        # G - 0 is K_{4,3} on 1..7 and K_4 on 8..11; the two pieces of the
        # tree at its centroid go into the K_{4,3} with four vertices at odd
        # depth, one more than its smaller side holds
        edges = [(u, v) for u in range(1, 5) for v in range(5, 8)]
        edges += list(itertools.combinations(range(8, 12), 2))
        edges += [(0, v) for v in (1, 2, 3, 4, 8, 9, 10, 11)]
        tree = build_tree(7, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 4), (2, 6)])
        verdict = strategy_embed(tree, build_graph(12, edges))
        assert verdict.kind is Verdict.UNKNOWN
        # the check runs before the hub is placed
        assert verdict.nodes_explored == 0
        assert verdict.detail == (
            "primary component: capacity certificate: color class 1 has 4 "
            "vertices, its side only 3"
        )

    def test_primary_stall(self):
        # the centroid 2 lands on the apex 0 and two of its leaves go into
        # the 4-cycle 1-3-2-4 of G - 0, whose side next to 0 holds only one
        # neighbor of 0: the first leaf takes it and the second, 3, stalls
        host = build_graph(8, [
            (0, 2), (0, 5), (0, 6), (0, 7), (1, 3), (1, 4), (2, 3), (2, 4),
            (5, 6), (5, 7), (6, 7),
        ])
        verdict = strategy_embed(build_tree(4, [(0, 2), (1, 2), (2, 3)]), host)
        assert verdict.kind is Verdict.UNKNOWN
        # the centroid and the first leaf have images
        assert verdict.nodes_explored == 2
        assert verdict.detail == "primary component: greedy stalled at tree vertex 3"

    def test_secondary_stall(self):
        host = build_graph(11, [
            (0, 3), (0, 7), (0, 9), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5),
            (2, 6), (3, 4), (3, 5), (3, 6), (7, 8), (7, 9), (7, 10), (8, 9),
            (8, 10), (9, 10),
        ])
        tree = build_tree(5, [(0, 1), (0, 4), (1, 2), (1, 3)])
        verdict = strategy_embed(tree, host)
        assert verdict.kind is Verdict.UNKNOWN
        # every tree vertex but the stalled one has an image
        assert verdict.nodes_explored == 4
        assert verdict.detail == "secondary component stalled at tree vertex 3"

    def test_planted_apex_sweep_reaches_every_branch(self):
        # hosts of the shape the pipeline expects; trees as large as the
        # feasible degree interval allows, 4 delta + Delta >= 4k
        rng = random.Random(2)
        reached = set()
        for _ in range(3000):
            host = planted_apex_host(rng)
            degs = host.degrees
            k_max = min(host.n - 1, min(degs) + max(degs) // 4)
            if k_max < 2:
                continue
            tree = random_tree(rng.randint(2, k_max), rng)
            verdict = strategy_embed(tree, host)
            assert verdict.kind is not Verdict.NOT_EMBEDDED
            if verdict.kind is Verdict.EMBEDDED:
                assert validate_embedding(tree, host, verdict.embedding)
                if "fallback" not in verdict.detail:
                    reached.add("pipeline")
            elif "capacity certificate" in verdict.detail:
                reached.add("capacity")
            elif verdict.detail.startswith("primary component: greedy stalled"):
                reached.add("primary stall")
            elif "stalled at tree vertex" in verdict.detail:
                reached.add("secondary stall")
        assert reached == {"pipeline", "capacity", "primary stall", "secondary stall"}

    def test_grid_outputs_pinned(self):
        # every verdict on the 27 extremal grid hosts, for trees of
        # round(0.6k), k//2 and 2 edges, hashed: a refactor of the strategy
        # or the classifier must leave each of them unchanged
        rng = random.Random(20181)
        digest = hashlib.sha256()
        for build in (two_wing_host, wing_clique_host, matched_wing_host):
            for ell in (3, 5, 7):
                for c in (1, 2, 3):
                    k = c * ell * (ell + 1)
                    host = build(ExtremalParams(ell, c, k)).graph
                    for edges in (round(0.6 * k), k // 2, 2):
                        v = strategy_embed(random_tree(edges, rng), host)
                        witness = sorted(v.embedding.items()) if v.embedding else None
                        row = (v.kind.value, v.nodes_explored, v.detail, witness)
                        digest.update(repr(row).encode())
        assert digest.hexdigest() == (
            "fe6082b26bcfe2e1727dd6935342b1c6df7fb382152f8c32ca813f9842075555"
        )

    @pytest.mark.parametrize("seed, want", [
        (1, "41dbc1c81f5a7b4ba85d30e0a23fc3eb1d63e7380ed58e494ca9c837170165ed"),
        (31, "b14dea0b3a7bfde32346d13a16d068a90e676bb49c1bf6f2d34bdf80ea195fc3"),
    ], ids=("seed-1", "seed-31"))
    def test_routing_workload_outcomes_pinned(self, seed, want):
        # the benchmark's strategy-routing pass at this seed: 16 trees of
        # round(0.6k) edges per grid host, each outcome (kind, nodes,
        # witness) hashed; what the two-pass components gave
        rng = random.Random(seed)
        digest = hashlib.sha256()
        for broom, host in grid_brooms():
            for _ in range(16):
                tree = random_tree(round(0.6 * broom.edge_count), rng)
                v = strategy_embed(tree, host, Budget(max_nodes=20_000))
                witness = sorted(v.embedding.items()) if v.embedding else None
                digest.update(repr((v.kind.value, v.nodes_explored, witness)).encode())
        assert digest.hexdigest() == want

    def test_misses_a_tree_auto_embed_places(self):
        # a known gap, the benchmark's hprime(3,1,12)#2 at seed 31: G - x
        # has no bipartite component that x sees only on its larger side,
        # and greedy stalls, while the exact search embeds the tree
        host = matched_wing_host(ExtremalParams(3, 1, 12)).graph
        tree = build_tree(8, [(0, 1), (0, 4), (0, 5), (0, 7), (2, 6), (3, 6), (5, 6)])
        verdict = strategy_embed(tree, host)
        assert (verdict.kind, verdict.nodes_explored) == (Verdict.UNKNOWN, 7)
        assert verdict.detail == "no two-component structure; greedy fallback failed"
        verdict = auto_embed(tree, host)
        assert (verdict.kind, verdict.nodes_explored) == (Verdict.EMBEDDED, 3)
        assert validate_embedding(tree, host, verdict.embedding)


class TestAutoEmbed:
    def test_grid_outputs_pinned(self):
        # on the 27 extremal grid hosts: the broom proofs of exact_embed,
        # and auto_embed on five random k-edge trees each (34 of the 135
        # answered by the exact search), hashed; a change to the set-up of
        # the search, the witness check or the separator must leave them
        proofs, witnesses = hashlib.sha256(), hashlib.sha256()
        rng = random.Random(20241)
        for build in (two_wing_host, wing_clique_host, matched_wing_host):
            for ell in (3, 5, 7):
                for c in (1, 2, 3):
                    k = c * ell * (ell + 1)
                    host = build(ExtremalParams(ell, c, k)).graph
                    v = exact_embed(broom_tree(ell, k), host)
                    proofs.update(repr((v.kind.value, v.nodes_explored)).encode())
                    for _ in range(5):
                        v = auto_embed(random_tree(k, rng), host, Budget(max_nodes=20_000))
                        witness = sorted(v.embedding.items()) if v.embedding else None
                        row = (v.kind.value, v.nodes_explored, witness)
                        witnesses.update(repr(row).encode())
        assert proofs.hexdigest() == (
            "dd0d0f7066b30082fcee9a756ed0208d1d682e2f993c75425866cff96b304713"
        )
        assert witnesses.hexdigest() == (
            "d6720df23d72938ccf762f214a495a10126c5b879d26447dde457b856d75eb64"
        )

    def test_greedy_short_circuit(self):
        verdict = auto_embed(broom_tree(3, 12), complete_graph(13))
        assert verdict.kind is Verdict.EMBEDDED
        assert verdict.nodes_explored == 13

    def test_oracle_resolves_hard_negatives(self):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        verdict = auto_embed(broom_tree(3, 12), host)
        assert verdict.kind is Verdict.NOT_EMBEDDED

    def test_budget_exhaustion_is_timeout(self):
        verdict = auto_embed(
            middle_numbered_path(200), caterpillar(210).graph, budget=Budget(max_nodes=100)
        )
        assert verdict.kind is Verdict.TIMEOUT

    def test_greedy_stall_hands_over_to_exact(self):
        rng = random.Random(0)
        stalls = 0
        for build in (two_wing_host, wing_clique_host, matched_wing_host):
            host = build(ExtremalParams(3, 1, 12)).graph
            for _ in range(20):
                tree = random_tree(12, rng)
                if greedy_min_degree_embed(tree, host).kind is Verdict.EMBEDDED:
                    continue
                stalls += 1
                budget = Budget(max_nodes=20_000)
                auto = auto_embed(tree, host, budget=budget)
                want = exact_embed(tree, host, budget=budget)
                assert (auto.kind, auto.nodes_explored) == (want.kind, want.nodes_explored)
        assert stalls >= 20

    def test_matches_exact_on_random_pairs(self):
        rng = random.Random(777000)
        for _ in range(150):
            k = rng.randrange(1, 7)
            tree = random_tree(k, rng)
            host = rand_graph(rng, rng.randrange(1, 9), rng.random())
            auto = auto_embed(tree, host)
            want = exact_embed(tree, host)
            assert (auto.kind is Verdict.EMBEDDED) == (want.kind is Verdict.EMBEDDED)


class TestBacktrackerSetup:
    @pytest.mark.parametrize("build", [two_wing_host, wing_clique_host])
    def test_one_mask_per_twin_class(self, build):
        # one n-bit int per class of two or more members, none for the
        # classes of one vertex and none per host vertex
        host = build(ExtremalParams(7, 3, 168)).graph
        solver = _Backtracker(broom_tree(7, 168).graph, 0, host)
        quotient = host.twin_quotient
        shared = [m for m in quotient.members if len(m) > 1]
        assert solver.twin_masks is quotient.twin_masks
        assert solver.twin_masks == [sum(1 << v for v in m) for m in shared]
        assert len(quotient.members) < host.n
        # classes of 64 or more members have their masks parsed from flags
        assert max(map(len, quotient.members)) >= 64

    def test_host_tables_built_once_per_host(self, monkeypatch):
        solvers = []
        real_init = _Backtracker.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            solvers.append(self)

        monkeypatch.setattr(_Backtracker, "__init__", init)
        host = matched_wing_host(ExtremalParams(5, 2, 60)).graph
        tree = broom_tree(5, 60)
        assert exact_embed(tree, host).kind is Verdict.NOT_EMBEDDED
        assert exact_embed(caterpillar(12), host).kind is Verdict.EMBEDDED
        a, b = solvers
        assert a.rank is b.rank is host.rank
        assert a.twin_masks is b.twin_masks is host.twin_quotient.twin_masks
        assert a.involutions is b.involutions is host.twin_quotient.involutions
        assert a.partner is b.partner is host.twin_quotient.pair_families[1]

    def test_degree_masks(self):
        # each tree degree's mask holds the host vertices of at least that
        # degree, the prefix of the rank order once kept on the host
        rng = random.Random(16)
        hosts = [two_wing_host(ExtremalParams(3, 1, 12)).graph]
        hosts += [rand_graph(rng, rng.randrange(2, 40), rng.random()) for _ in range(40)]
        filtered = 0
        for host in hosts:
            tree = random_tree(rng.randrange(0, host.n), rng).graph
            solver = _Backtracker(tree, 0, host)
            _rank, prefix = rank_and_prefixes(host, set(tree.degrees))
            assert solver.deg_mask == prefix
            filtered += any(mask != (1 << host.n) - 1 for mask in prefix.values())
        # degrees above the host's minimum, which drop vertices, occur
        assert filtered >= 5

    @staticmethod
    def shapes(rng):
        """Random trees, brooms and caterpillars, each with the centroid and
        a random root."""
        trees = [random_tree(rng.randrange(0, 60), rng) for _ in range(300)]
        trees += [broom_tree(ell, c * ell * (ell + 1)) for ell in (3, 5, 7, 9) for c in (1, 2, 3)]
        trees += [caterpillar(rng.randrange(0, 20)) for _ in range(10)]
        for _ in range(60):
            spine = rng.randrange(0, 15)
            trees.append(caterpillar(spine, [rng.randrange(0, 4) for _ in range(spine + 1)]))
        for tree in trees:
            g = tree.graph
            for root in {centroid(tree) if g.n > 1 else 0, rng.randrange(g.n)}:
                yield g, root

    def test_chain_prev_matches_keyed_oracle(self):
        # leaves keep the code of the empty key and build none; the chains
        # are those of keying every vertex, from the centroid and from a
        # random root
        host = complete_graph(3)
        chained = 0
        for g, root in self.shapes(random.Random(2424)):
            solver = _Backtracker(g, root, host)
            assert solver.chain_prev == keyed_chain_prev(g, root)
            chained += any(p is not None for p in solver.chain_prev)
        assert chained >= 100

    @pytest.mark.parametrize("symmetry", [True, False], ids=["reduced", "plain"])
    def test_tables_match_multi_pass_oracle(self, symmetry):
        # the one walk builds what one pass per table built; from vertex 0
        # also with the layout the centroid walk hands over
        host = complete_graph(3)
        grouped = 0
        for g, root in self.shapes(random.Random(3030)):
            want = multi_pass_search_tables(g, root, symmetry)
            layouts = [None]
            if root == 0 and g.n > 1:
                layouts.append(_centroid_layout(g)[1])
            for layout in layouts:
                solver = _Backtracker(g, root, host, symmetry, layout)
                got = {
                    "order": solver.order,
                    "parent": {v: solver.parent[v] for v in solver.order},
                    "child_count": solver.child_count,
                    "sib_rest": {v: solver.sib_rest[v] for v in solver.order},
                    "ranges": {v: (solver.group_start[v], solver.group_end[v]) for v in solver.order},
                    "demand": solver.demand,
                    "group_leaves": solver.group_leaves,
                }
                assert got == want
            grouped += len(want["demand"]) >= 2
        assert grouped >= (100 if symmetry else 0)


class TestSeparatorRootChoice:
    @staticmethod
    def count_layouts(monkeypatch, tree, host):
        calls = []
        real = graphs.bfs_layout

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        for module in (embedding, decompose):
            monkeypatch.setattr(module, "bfs_layout", counted)
        verdict = exact_embed(tree, host)
        return verdict, calls

    def test_one_layout_when_the_centroid_is_vertex_0(self, monkeypatch):
        # the search takes the layout the centroid walk built from vertex 0
        tree, host = broom_tree(7, 168), two_wing_host(ExtremalParams(7, 3, 168)).graph
        verdict, calls = self.count_layouts(monkeypatch, tree, host)
        assert (verdict.kind, verdict.nodes_explored) == (Verdict.NOT_EMBEDDED, 30)
        assert calls == [(0,)]

    def test_other_centroids_lay_out_again(self, monkeypatch):
        rng = random.Random(6969)
        host = complete_graph(40)
        relaid = 0
        for _ in range(30):
            tree = random_tree(rng.randrange(2, 40), rng)
            root = centroid(tree)
            verdict, calls = self.count_layouts(monkeypatch, tree, host)
            assert verdict.kind is Verdict.EMBEDDED
            assert calls == ([(0,)] if root == 0 else [(0,), (root,)])
            relaid += root != 0
        assert relaid >= 10

    def test_search_starts_at_centroid(self):
        # the centroid bound keeps the root subtree capacity prune honest
        tree = broom_tree(3, 12)
        sep = find_separator(tree)
        assert sep.separator == 0
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        verdict = exact_embed(tree, host)
        assert verdict.kind is Verdict.NOT_EMBEDDED


def relabelled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, sorted({tuple(sorted((perm[u], perm[v]))) for u, v in edges}))


def prism(rng):
    """B x K2 for a random base graph B."""
    b = rng.randrange(2, 6)
    base = list(rand_graph(rng, b, rng.random()).edges())
    edges = base + [(u + b, v + b) for u, v in base] + [(i, i + b) for i in range(b)]
    return relabelled(2 * b, edges, rng)


def twin_blowup(rng):
    """A random base graph with each vertex blown up into a clique or an
    independent set of one to three twins."""
    b = rng.randrange(2, 5)
    base = rand_graph(rng, b, rng.random())
    sizes = [rng.randrange(1, 4) for _ in range(b)]
    start = [sum(sizes[:i]) for i in range(b)]
    blocks = [range(start[i], start[i] + sizes[i]) for i in range(b)]
    edges = set()
    for blk in blocks:
        if rng.random() < 0.5:
            edges |= set(itertools.combinations(blk, 2))
    for u, v in base.edges():
        edges |= {(x, y) for x in blocks[u] for y in blocks[v]}
    return relabelled(sum(sizes), edges, rng)


def apex_over_three_copies(rng):
    b = rng.randrange(2, 4)
    base = list(rand_graph(rng, b, rng.random()).edges())
    edges = [(u + c * b, v + c * b) for c in range(3) for u, v in base]
    edges += [(3 * b, x) for x in range(3 * b) if x % b != b - 1 or b == 1]
    return relabelled(3 * b + 1, edges, rng)


def circulant(rng):
    n = rng.randrange(5, 12)
    steps = rng.sample(range(1, n // 2 + 1), rng.randrange(1, 3))
    edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return relabelled(n, edges, rng)


SYMMETRIC_HOSTS = (prism, twin_blowup, apex_over_three_copies, circulant)


def random_cubic(n, rng):
    """A simple 3-regular graph on n vertices, by pairing three stubs per
    vertex at random until no loop or double edge is drawn."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return build_graph(n, sorted(edges))


# the host tables switched off: a property outranks the value a host's
# quotient may have cached
NO_INVOLUTIONS = property(lambda q: [])
NO_PAIRS = property(lambda q: ([], {}))


class TestReductionsAgainstUnreducedSearch:
    """Every reduction of the search against symmetry=False, the plain
    search: Hall-matched leaves, chain order, twins and pairs always, the
    involution table on and, switched off, off."""

    def differential(self, hosts, rng, edges=9):
        refuted = 0
        for host in hosts:
            tree = random_tree(rng.randrange(1, min(host.n, edges + 1)), rng)
            on = exact_embed(tree, host)
            off = exact_embed(tree, host, symmetry=False, budget=Budget(max_nodes=200_000))
            assert off.kind is not Verdict.TIMEOUT
            assert on.kind == off.kind
            if on.kind is Verdict.EMBEDDED:
                assert validate_embedding(tree, host, on.embedding)
            refuted += on.kind is Verdict.NOT_EMBEDDED
        return refuted

    # the ids are the names these tests are tracked by across versions
    @pytest.mark.parametrize("orbits", [True, False], ids=["False-True", "False-False"])
    def test_random_hosts(self, monkeypatch, orbits):
        if not orbits:
            monkeypatch.setattr(TwinQuotient, "involutions", NO_INVOLUTIONS)
        rng = random.Random(4242)
        hosts = [rand_graph(rng, rng.randrange(2, 12), rng.random()) for _ in range(250)]
        assert self.differential(hosts, rng) >= 40

    @pytest.mark.parametrize("orbits", [True, False], ids=["False-True", "False-False"])
    @pytest.mark.parametrize("family", SYMMETRIC_HOSTS, ids=lambda f: f.__name__)
    def test_symmetric_hosts(self, monkeypatch, family, orbits):
        if not orbits:
            monkeypatch.setattr(TwinQuotient, "involutions", NO_INVOLUTIONS)
        rng = random.Random(777)
        hosts = [family(rng) for _ in range(100)]
        assert self.differential(hosts, rng) >= 10

    @pytest.mark.parametrize("orbits", [True, False], ids=["orbits", "no-orbits"])
    def test_planted_pair_hosts(self, monkeypatch, orbits):
        if not orbits:
            monkeypatch.setattr(TwinQuotient, "involutions", NO_INVOLUTIONS)
        rng = random.Random(2323)
        hosts = [planted_pairs_host(rng) for _ in range(500)]
        assert self.differential(hosts, rng, edges=10) >= 60

    @pytest.mark.parametrize("orbits", [True, False], ids=["orbits", "no-orbits"])
    def test_pinned_pair_host(self, monkeypatch, orbits):
        # the twins 0-1 see the x-ends 5-8, the twins 2-4 the y-ends 9-12,
        # and the pairs 5-11, 6-10, 7-12 and 8-9 make one family.  The tree
        # spans the host, so it needs every end: a cut that drops a family's
        # lowest free end, or its free x-ends, or that counts a used end's
        # partner as free, refutes it
        if not orbits:
            monkeypatch.setattr(TwinQuotient, "involutions", NO_INVOLUTIONS)
        host = build_graph(13, [(v, x) for v in (0, 1) for x in range(5, 9)]
                           + [(v, y) for v in (2, 3, 4) for y in range(9, 13)]
                           + [(5, 11), (6, 10), (7, 12), (8, 9)])
        tree = build_tree(13, [(0, 1), (0, 12), (2, 6), (3, 12), (4, 9), (4, 12), (5, 7),
                               (5, 12), (6, 7), (8, 9), (9, 11), (10, 11)])
        assert host.twin_quotient.pair_families == (
            [(0b1111 << 5, 0b1111 << 9)], {5: 11, 11: 5, 6: 10, 10: 6, 7: 12, 12: 7, 8: 9, 9: 8})
        on = exact_embed(tree, host)
        assert on.kind is exact_embed(tree, host, symmetry=False).kind is Verdict.EMBEDDED
        assert validate_embedding(tree, host, on.embedding)

    def test_perturbed_relabelled_grid_hosts(self):
        # the smallest grid hosts with three to nine vertices removed, one
        # or two vertex pairs' edges flipped and the ids shuffled, against
        # trees of 7 to 10 edges (fewer in the smallest hosts): the
        # reductions must hold whatever the labels, and off the generators'
        # exact structure
        rng = random.Random(2626)
        hosts = []
        for build in (two_wing_host, wing_clique_host, matched_wing_host):
            g = build(ExtremalParams(3, 1, 12)).graph
            for _ in range(200):
                keep = sorted(rng.sample(range(g.n), g.n - rng.randrange(3, 10)))
                index = {v: i for i, v in enumerate(keep)}
                edges = {(index[u], index[v]) for u, v in g.edges() if u in index and v in index}
                for _ in range(rng.randrange(1, 3)):
                    u, v = sorted(rng.sample(range(len(keep)), 2))
                    edges ^= {(u, v)}
                hosts.append(relabelled(len(keep), edges, rng))
        refuted = 0
        for host in hosts:
            k = rng.randrange(min(host.n - 4, 7), min(host.n, 11))
            spine = rng.randrange(1, 4)
            counts = [0] * (spine + 1)
            for _ in range(k - spine):
                counts[rng.randrange(spine + 1)] += 1
            tree = random_tree(k, rng) if rng.random() < 0.5 else caterpillar(spine, counts)
            on = exact_embed(tree, host)
            off = exact_embed(tree, host, symmetry=False, budget=Budget(max_nodes=200_000))
            assert off.kind is not Verdict.TIMEOUT
            assert on.kind == off.kind
            if on.kind is Verdict.EMBEDDED:
                assert validate_embedding(tree, host, on.embedding)
            refuted += on.kind is Verdict.NOT_EMBEDDED
        assert refuted == 87
        # not vacuous: the tables are not empty on many of these hosts
        assert sum(bool(h.twin_quotient.involutions) for h in hosts) >= 100
        assert sum(bool(h.twin_quotient.pair_families[0]) for h in hosts) >= 30

    def test_pairs_cut_the_search_on_planted_hosts(self, monkeypatch):
        # with the involution table off the pair prune is all that merges
        # singletons
        monkeypatch.setattr(TwinQuotient, "involutions", NO_INVOLUTIONS)
        rng = random.Random(2323)
        pairs = [(random_tree(rng.randrange(1, min(h.n, 11)), rng), h)
                 for h in (planted_pairs_host(rng) for _ in range(500))]
        with monkeypatch.context() as m:
            m.setattr(TwinQuotient, "pair_families", NO_PAIRS)
            without = [exact_embed(t, h) for t, h in pairs]
        with_pairs = [exact_embed(t, h) for t, h in pairs]
        assert [v.kind for v in with_pairs] == [v.kind for v in without]
        cut = [a.nodes_explored < b.nodes_explored for a, b in zip(with_pairs, without)]
        assert sum(cut) >= 20
        assert sum(cut[i] for i, v in enumerate(without) if v.kind is Verdict.NOT_EMBEDDED) >= 10
        assert sum(v.nodes_explored for v in with_pairs) < sum(v.nodes_explored for v in without)

    def test_orbits_cut_the_search_on_symmetric_hosts(self, monkeypatch):
        # the tables merge only what one involution per refined cell and
        # the pair families give: circulants and prisms keep symmetries
        # that a search per node found once placed images split the cells
        rng = random.Random(99)
        pairs = [(random_tree(rng.randrange(3, 9), rng), family(rng))
                 for family in SYMMETRIC_HOSTS for _ in range(40)]
        pairs = [(t, h) for t, h in pairs if t.n <= h.n]
        with_tables = [exact_embed(t, h).nodes_explored for t, h in pairs]
        monkeypatch.setattr(TwinQuotient, "involutions", NO_INVOLUTIONS)
        monkeypatch.setattr(TwinQuotient, "pair_families", NO_PAIRS)
        without = [exact_embed(t, h).nodes_explored for t, h in pairs]
        assert all(a <= b for a, b in zip(with_tables, without))
        # a search per node for an involution fixing the placed classes
        # took 213
        assert (sum(with_tables), sum(without)) == (249, 345)


def spider(legs):
    """A centre with a path of each given length hanging from it."""
    edges, n = [], 1
    for length in legs:
        for v in range(n, n + length):
            edges.append((0 if v == n else v - 1, v))
        n += length
    return build_tree(n, edges)


def star_of_stars(sizes):
    """A centre whose children have the given numbers of leaves."""
    edges, n = [], 1
    for size in sizes:
        edges += [(0, n)] + [(n, leaf) for leaf in range(n + 1, n + 1 + size)]
        n += size + 1
    return build_tree(n, edges)


def long_chain_trees(rng):
    """Trees of at most 9 edges whose centroid has a chain of two to five
    children: spiders with equal legs and with legs of length 1 or 2,
    stars of stars, and ten random trees."""
    trees = []
    for count in range(2, 6):
        trees += [spider([length] * count) for length in range(1, 4) if count * length <= 9]
        trees.append(spider(sorted(rng.randrange(1, 3) for _ in range(count))))
        trees += [star_of_stars([size] * count) for size in range(1, 4)
                  if count * (size + 1) <= 9]
    return trees + [random_tree(rng.randrange(3, 10), rng) for _ in range(10)]


class TestChainCountsUnderInvolutions:
    """The involution cut once earlier siblings of the placed vertex's
    chain are moved: each involution counts the chain's siblings per class
    and cuts a candidate whose class makes the swapped multiset smaller."""

    def test_swap_lowers_matches_first_unequal_pair(self):
        # against the rule as counts: among the swapped pairs (c, swap[c])
        # with c < swap[c], the first in order of c whose sibling counts,
        # the candidate's class counted, differ has more in swap[c]
        rng = random.Random(5151)
        seen = set()
        for _ in range(3000):
            classes = list(range(8))
            rng.shuffle(classes)
            swap = {}
            for a, b in zip(classes[: rng.randrange(0, 4) * 2 : 2], classes[1::2]):
                swap[a], swap[b] = b, a
            placed = sorted(rng.randrange(8) for _ in range(rng.randrange(0, 6)))
            d = rng.randrange(8)
            both = placed + [d]
            unequal = [c for c in sorted(swap) if c < swap[c]
                       and both.count(c) != both.count(swap[c])]
            want = bool(unequal) and both.count(swap[unequal[0]]) > both.count(unequal[0])
            assert _swap_lowers(tuple(placed), swap, d) == want
            seen.add(want)
        assert seen == {True, False}

    def test_long_chains(self, monkeypatch):
        # the symmetric hosts and the two-wing hosts h and hprime at ell 3
        # and 5, as generated and relabelled, against trees whose chains
        # have up to five siblings; the plain search decides every pair
        cuts = []
        monkeypatch.setattr(embedding, "_swap_lowers",
                            lambda *args: cuts.append(_swap_lowers(*args)) or cuts[-1])
        rng = random.Random(3030)
        hosts = [family(rng) for family in SYMMETRIC_HOSTS for _ in range(20)]
        for build in (two_wing_host, matched_wing_host):
            for ell in (3, 5):
                host = build(ExtremalParams(ell, 1, ell * (ell + 1))).graph
                hosts += [host, relabelled(host.n, host.edges(), rng)]
        trees = long_chain_trees(random.Random(5))
        decided = refuted = 0
        for host in hosts:
            for tree in trees:
                if tree.n > host.n:
                    continue
                on = exact_embed(tree, host)
                off = exact_embed(tree, host, symmetry=False, budget=Budget(max_nodes=200_000))
                assert off.kind is not Verdict.TIMEOUT
                assert on.kind == off.kind
                if on.kind is Verdict.EMBEDDED:
                    assert validate_embedding(tree, host, on.embedding)
                decided += 1
                refuted += on.kind is Verdict.NOT_EMBEDDED
        # the count cut fires: 431 candidates of a dropped class met an
        # involution that moves earlier siblings only, and 52 were cut
        assert (decided, refuted, len(cuts), sum(cuts)) == (1781, 710, 431, 52)

    @pytest.mark.parametrize("host_edges, tree_edges", [
        # K4,4, two twin classes that the involution swaps, and the path on
        # four edges from its middle: the root's image is moved, so the
        # second sibling may not be counted against the first
        ([(u, v) for u in (0, 1, 4, 7) for v in (2, 3, 5, 6)],
         [(0, 1), (0, 3), (1, 2), (3, 4)]),
        # a spider with three legs of length two into itself: the legs that
        # the involution swaps hold one sibling each, and equal counts must
        # not cut the second
        ([(0, 6), (1, 3), (2, 3), (2, 4), (2, 6), (4, 5)],
         [(0, 1), (0, 3), (0, 5), (1, 2), (3, 4), (5, 6)]),
    ], ids=["other-used-vertex-moved", "equal-counts"])
    def test_pinned_unsound_variants(self, host_edges, tree_edges):
        # each embeds, and each was refuted by a variant of the cut: one
        # that ignores a moved used vertex other than an earlier sibling,
        # and one that cuts when the swapped counts are equal
        host = build_graph(1 + max(max(e) for e in host_edges), host_edges)
        tree = build_tree(len(tree_edges) + 1, tree_edges)
        on = exact_embed(tree, host)
        assert on.kind is exact_embed(tree, host, symmetry=False).kind is Verdict.EMBEDDED
        assert validate_embedding(tree, host, on.embedding)
        assert host.twin_quotient.involutions


def watch_involutions(monkeypatch, hosts):
    """Build the involution table of each host's quotient with every
    involution test watched, and return the tests made and the entries
    kept.

    Each entry must come from the one test of its cell that verified: its
    involution must pass oracles.is_automorphism and be an involution, its
    swapped pairs must be exactly those of the involution, its moved mask
    must hold exactly the members of the classes it moves, and its drop
    mask exactly those of the classes it maps to a smaller class.
    A cell of two or more classes is tested once, its smallest class
    against its next smallest, exactly when no entry kept before it moves
    that class; no other test is made."""
    real = TwinQuotient.involution
    tests = []

    def involution(q, a, b):
        perm = real(q, a, b)
        tests.append((a, b, perm))
        return perm

    monkeypatch.setattr(TwinQuotient, "involution", involution)
    made = kept = 0
    for host in hosts:
        q = host.twin_quotient
        tests.clear()
        table = q.involutions
        verified = [perm for _, _, perm in tests if perm is not None]
        assert len(verified) == len(table)
        for (moves, drop, swap), perm in zip(table, verified):
            assert oracles.is_automorphism(q, perm)
            assert all(perm[perm[c]] == c for c in range(len(perm)))
            assert swap == {c: d for c, d in enumerate(perm) if d != c}
            assert moves == graphs._bitmask(
                [w for c, d in enumerate(perm) if d != c for w in q.members[c]])
            assert drop == graphs._bitmask(
                [w for c, d in enumerate(perm) if d < c for w in q.members[c]])
        against, moved, cells = {a: b for a, b, _ in tests}, set(), 0
        for cell in q.partition[1]:
            first, *rest = sorted(cell)
            if rest and first not in moved:
                assert against.get(first) == rest[0]
                cells += 1
            else:
                assert first not in against
            # the entries kept up to this cell
            moved.update(c for a, _, perm in tests if a == first and perm is not None
                         for c, d in enumerate(perm) if d != c)
        assert len(tests) == cells
        made += len(tests)
        kept += len(table)
    return made, kept


def grid_brooms():
    """The broom and its host at the 27 points of the paper's grid."""
    return [
        (broom_tree(ell, k), build(ExtremalParams(ell, c, k)).graph)
        for build in (two_wing_host, wing_clique_host, matched_wing_host)
        for ell in (3, 5, 7)
        for c in (1, 2, 3)
        for k in (c * ell * (ell + 1),)
    ]


class TestStabiliserOrbitsAgainstFirstVersion:
    """The involution table, which is what is left of the orbit prune,
    against the hosts' structure and brute-force orbits (the name is the
    one these tests are tracked by; the first version of stabiliser_orbits
    is gone)."""

    def test_grid_searches(self, monkeypatch):
        # h keeps the wing swap, hprime the wing swap and one swap of two
        # matched pairs, g nothing; the wing swap drops the second wing
        # wherever no wing vertex is used, at the root and after the hub,
        # and swaps each vertex's class with that of its place in the other
        # wing, for the star centres' counts per wing
        assert wing_clique_host(ExtremalParams(5, 2, 60)).graph.twin_quotient.involutions == []
        for build, entries in ((two_wing_host, 1), (matched_wing_host, 2)):
            tagged = build(ExtremalParams(5, 2, 60))
            q = tagged.graph.twin_quotient
            wing1, wing2 = (graphs._bitmask(tagged.parts[a] + tagged.parts[b])
                            for a, b in (("A1", "B1"), ("A2", "B2")))
            swap = {}
            for a, b in (("A1", "A2"), ("B1", "B2")):
                for v, w in zip(tagged.parts[a], tagged.parts[b]):
                    swap[q.class_of[v]], swap[q.class_of[w]] = q.class_of[w], q.class_of[v]
            assert len(q.involutions) == entries and (wing1 | wing2, wing2, swap) in q.involutions
        assert watch_involutions(monkeypatch, [h for _, h in grid_brooms()]) == (27, 27)

    def test_symmetric_hosts(self, monkeypatch):
        # each class an entry drops shares an orbit with a smaller class
        rng = random.Random(777)
        hosts = [family(rng) for family in SYMMETRIC_HOSTS for _ in range(100)]
        dropped = 0
        for host in hosts:
            q = host.twin_quotient
            orbit = oracles.brute_stabiliser_orbits(host, set())
            for _, drop, _ in q.involutions:
                for w in graphs._members(drop):
                    assert any(q.class_of[v] < q.class_of[w] for v in orbit[w])
                    dropped += 1
        assert dropped >= 500


class TestOrbitTestSkip:
    """The involution tests the table makes: one walk over the refined
    cells per host, one test per cell of two or more classes, skipping the
    cells whose smallest class a kept entry already moves, and none in a
    search."""

    def test_grid_brooms(self, monkeypatch):
        # once built, the table costs a search no test: a pass over the
        # grid with the tables built makes none and refines nothing
        pairs = grid_brooms()
        assert watch_involutions(monkeypatch, [h for _, h in pairs]) == (27, 27)
        monkeypatch.undo()
        counts = {"involution": 0, "refine": 0}

        def counting(name, real):
            def wrapped(*args):
                counts[name] += 1
                return real(*args)
            return wrapped

        monkeypatch.setattr(TwinQuotient, "involution",
                            counting("involution", TwinQuotient.involution))
        monkeypatch.setattr(graphs, "_refine", counting("refine", graphs._refine))
        assert sum(exact_embed(tree, host).nodes_explored for tree, host in pairs) == 732
        assert counts == {"involution": 0, "refine": 0}

    def test_symmetric_hosts(self, monkeypatch):
        rng = random.Random(777)
        hosts = [family(rng) for family in SYMMETRIC_HOSTS for _ in range(100)]
        # testing each cell's smallest class against every other class of
        # the cell until one verified made 469 tests and kept 294 entries;
        # the searches of test_orbits_cut_the_search_on_symmetric_hosts
        # kept their 249 nodes either way
        assert watch_involutions(monkeypatch, hosts) == (311, 261)

    def test_planted_pair_hosts(self, monkeypatch):
        rng = random.Random(2323)
        hosts = [planted_pairs_host(rng) for _ in range(1000)]
        # a pair swap verifies at the first test of each cell of ends
        assert watch_involutions(monkeypatch, hosts) == (1492, 1492)

    def test_involution_tests_on_hard_cases(self, monkeypatch):
        # counts, so that a lost skip shows here and not as a slow test: a
        # path's quotient is a path, whose reversal the first test finds,
        # and every other cell's smallest class it moves (without the skip
        # caterpillar(1600) kept 800 copies of it); a random cubic graph
        # refines to one cell, tested once in vain (testing its smallest
        # class against every other made 1,999 tests at 2,000 vertices and
        # 5,999 at 6,000)
        assert watch_involutions(monkeypatch, [caterpillar(1600).graph]) == (1, 1)
        for n in (2000, 6000):
            host = random_cubic(n, random.Random(41))
            assert len(host.twin_quotient.partition[1]) == 1
            assert watch_involutions(monkeypatch, [host]) == (1, 0)

    def test_grid_counts_per_pass(self, monkeypatch):
        # the tables switched off one at a time, as h, g and hprime totals:
        # the wing swap merges the wings of h and hprime, and the pair
        # family hprime's matched pairs, which it needs past ell = 3
        pairs = grid_brooms()

        def totals(budget=None):
            counts = [exact_embed(t, h, budget).nodes_explored for t, h in pairs]
            return [sum(counts[i : i + 9]) for i in (0, 9, 18)], counts[18:]

        assert totals()[0] == [192, 321, 219]
        with monkeypatch.context() as m:
            m.setattr(TwinQuotient, "involutions", NO_INVOLUTIONS)
            assert totals()[0] == [375, 321, 438]
        with monkeypatch.context() as m:
            m.setattr(TwinQuotient, "pair_families", NO_PAIRS)
            sums, hprime = totals(Budget(max_nodes=3000))
            assert sums[:2] == [192, 321]
            assert hprime == [48, 224, 528, 2442, 3000, 3000, 3000, 3000, 3000]


def small_random_host(rng):
    return rand_graph(rng, rng.randrange(1, 10), rng.random())


# hosts for the properties: a seed for one of these builders
quotient_hosts = st.builds(
    lambda build, seed: build(random.Random(seed)),
    st.sampled_from((small_random_host,) + SYMMETRIC_HOSTS),
    st.integers(0, 2**32 - 1),
)


def automorphism_cases(host, rng):
    """(quotient, permutation, expected or None, kind) to check against
    oracles.is_automorphism, of these kinds: true automorphisms, the images on the classes
    of host automorphisms that oracles.brute_automorphism finds from the
    smallest class of each cell to each other; each of them after a swap
    of two classes of one colour; each of them against the quotient with
    one edge more or less; the swaps of two classes of distinct colours;
    random shuffles."""
    q = host.twin_quotient
    size = len(q.adj)
    found = [list(range(size))]
    for cell in oracles.base_partition(q)[1]:
        first = min(cell)
        for c in sorted(cell - {first}):
            perm = oracles.brute_automorphism(host, {q.members[first][0]: q.members[c][0]})
            if perm is not None:
                found.append([q.class_of[perm[m[0]]] for m in q.members])
    pairs = [(c, d) for c in range(size) for d in range(c + 1, size)]
    alike = [(c, d) for c, d in pairs if q.colour_key[c] == q.colour_key[d]]
    for perm in found:
        yield q, perm, True, "found"
        if alike:
            c, d = rng.choice(alike)
            swapped = perm.copy()
            swapped[c], swapped[d] = perm[d], perm[c]
            yield q, swapped, None, "swap"
        if pairs:
            c, d = rng.choice(pairs)
            adj = [set(nbrs) for nbrs in q.adj]
            adj[c] ^= {d}
            adj[d] ^= {c}
            yield TwinQuotient(q.class_of, q.clique, [sorted(x) for x in adj]), perm, None, "edge"
    for c, d in pairs:
        if q.colour_key[c] != q.colour_key[d]:
            swap = list(range(size))
            swap[c], swap[d] = d, c
            yield q, swap, False, "colours"
    for _ in range(3):
        shuffled = list(range(size))
        rng.shuffle(shuffled)
        yield q, shuffled, None, "shuffle"


class TestOrbitPartsAgainstFirstVersion:
    """The quotient's refinement, its automorphism check and the search's
    one candidate per class against their first versions in oracles."""

    @settings(max_examples=60, deadline=None)
    @given(quotient_hosts)
    def test_refinements(self, host):
        q = host.twin_quotient
        assert q.partition == oracles.base_partition(q)

    @settings(max_examples=60, deadline=None)
    @given(quotient_hosts, st.randoms(use_true_random=False))
    def test_automorphism_checks(self, host, rng):
        for quotient, perm, expected, _ in automorphism_cases(host, rng):
            want = oracles.is_automorphism(quotient, perm)
            assert expected is None or want == expected
            assert quotient._is_automorphism(perm) == want

    def test_automorphism_cases_cover_both_answers(self):
        # the cases above are not vacuous: over the symmetric hosts the
        # edge changes, swaps and shuffles each give both answers
        rng = random.Random(31)
        seen = set()
        for build in SYMMETRIC_HOSTS:
            for _ in range(10):
                for quotient, perm, _, kind in automorphism_cases(build(rng), rng):
                    seen.add((kind, quotient._is_automorphism(perm)))
        assert {("edge", True), ("edge", False), ("swap", True), ("swap", False),
                ("found", True), ("colours", False), ("shuffle", False)} <= seen

    def test_colour_swap_keeping_every_edge(self):
        # 0 sees the closed twins 1, 2 and the vertex 3: swapping the twin
        # class with 3's keeps the quotient's one-edge star but not colours
        q = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]).twin_quotient
        assert q.adj == [[1, 2], [0], [0]]
        assert q.colour_key[1] != q.colour_key[2]
        assert not q._is_automorphism([0, 2, 1])
        assert q._is_automorphism([0, 1, 2])

    @settings(max_examples=60, deadline=None)
    @given(quotient_hosts, st.randoms(use_true_random=False))
    def test_one_candidate_per_class(self, host, rng):
        q, rank = host.twin_quotient, host.rank
        for _ in range(5):
            cand = rng.getrandbits(host.n)
            want = sorted(oracles.peel_one_per_class(cand, q), key=rank.__getitem__)
            assert sorted(_one_per_class(cand, q.twin_masks), key=rank.__getitem__) == want
            # the plain search keeps every vertex
            assert sorted(_one_per_class(cand, [])) == [v for v in range(host.n) if cand >> v & 1]

    @pytest.mark.parametrize("build", [two_wing_host, wing_clique_host, matched_wing_host])
    def test_one_candidate_per_class_at_scale(self, build):
        # classes of 64 or more members, and 64 or more singletons left
        host = build(ExtremalParams(7, 3, 168)).graph
        q, rank = host.twin_quotient, host.rank
        rng = random.Random(3)
        masks = [(1 << host.n) - 1, rng.getrandbits(host.n)]
        masks += [rng.getrandbits(host.n) & rng.getrandbits(host.n) & rng.getrandbits(host.n)
                  for _ in range(4)]
        for cand in masks:
            want = sorted(oracles.peel_one_per_class(cand, q), key=rank.__getitem__)
            assert sorted(_one_per_class(cand, q.twin_masks), key=rank.__getitem__) == want


class TestLeafHolding:
    """The one leaf holding the search keeps, checked on every _hall call
    going in and coming out: each group holds vertices of its free
    neighborhood, no vertex is held twice, the groups of the placed parents
    hold their whole demand and the others nothing, and taken is the union
    of the holdings."""

    @staticmethod
    def check(solver, end, used, hold, taken):
        nbrs, demand = solver.group_nbrs, solver.demand
        for g, mask in enumerate(hold):
            if g < end:
                assert mask & ~nbrs[g] == 0 and mask & used == 0
                assert mask.bit_count() == demand[g]
            else:
                assert mask == 0
        assert taken == _or(hold)
        assert sum(mask.bit_count() for mask in hold) == taken.bit_count()

    def run_checked(self, monkeypatch, pairs):
        real = _Backtracker._hall
        calls = displaced = 0

        def checked(solver, u, w, used, hold, taken):
            nonlocal calls, displaced
            calls += 1
            displaced += taken >> w & 1
            # used has w in it already; the holding passed in may hold w
            self.check(solver, solver.group_start[u], used ^ 1 << w, hold, taken)
            out = real(solver, u, w, used, hold, taken)
            if out is not None:
                self.check(solver, solver.group_end[u], used, *out)
            return out

        monkeypatch.setattr(_Backtracker, "_hall", checked)
        for tree, host in pairs:
            verdict = exact_embed(tree, host)
            if verdict.kind is Verdict.EMBEDDED:
                assert validate_embedding(tree, host, verdict.embedding)
        return calls, displaced

    def test_grid_brooms(self, monkeypatch):
        pairs = [
            (broom_tree(ell, k), build(ExtremalParams(ell, c, k)).graph)
            for build in (two_wing_host, wing_clique_host, matched_wing_host)
            for ell in (3, 5, 7)
            for c in (1, 2, 3)
            for k in (c * ell * (ell + 1),)
        ]
        calls, displaced = self.run_checked(monkeypatch, pairs)
        assert calls >= 600 and displaced >= 5

    def test_one_group_takes_the_general_routines_holding(self, monkeypatch):
        # a placement of one group's parent at a vertex nobody holds, with
        # enough spare free neighbors, skips _complete_holding and builds
        # the holding it would build, so witnesses do not change
        real, general = _Backtracker._hall, embedding._complete_holding
        calls = routed = 0

        def compared(solver, u, w, used, hold, taken):
            nonlocal calls
            calls += 1
            start, end = solver.group_start[u], solver.group_end[u]
            nbrs = list(solver.group_nbrs)
            nbrs[start:end] = [solver.host_masks[w]] * (end - start)
            short = [*(g for g in range(start) if hold[g] >> w & 1), *range(start, end)]
            want = general(nbrs, ~used, solver.demand, hold, taken, short, end)
            out = real(solver, u, w, used, hold, taken)
            assert out == want and solver.group_nbrs[:end] == nbrs[:end]
            return out

        def counted(*args):
            nonlocal routed
            routed += 1
            return general(*args)

        monkeypatch.setattr(_Backtracker, "_hall", compared)
        monkeypatch.setattr(embedding, "_complete_holding", counted)
        pairs = [(broom_tree(ell, c * ell * (ell + 1)),
                  build(ExtremalParams(ell, c, c * ell * (ell + 1))).graph)
                 for build in (two_wing_host, wing_clique_host, matched_wing_host)
                 for ell in (3, 5, 7) for c in (1, 2, 3)]
        rng = random.Random(616)
        pairs += [(random_tree(rng.randrange(1, h.n + 1), rng), h)
                  for h in (small_random_host(rng) for _ in range(300))]
        for tree, host in pairs:
            verdict = exact_embed(tree, host)
            if verdict.kind is Verdict.EMBEDDED:
                assert validate_embedding(tree, host, verdict.embedding)
        # both ways are taken, the shortcut mostly
        assert calls - routed >= 500 and routed >= 100

    def test_symmetric_and_random_hosts(self, monkeypatch):
        rng = random.Random(515)
        hosts = [family(rng) for family in SYMMETRIC_HOSTS for _ in range(100)]
        hosts += [small_random_host(rng) for _ in range(400)]
        pairs = [(random_tree(rng.randrange(1, h.n + 1), rng), h) for h in hosts]
        calls, displaced = self.run_checked(monkeypatch, pairs)
        assert calls >= 800 and displaced >= 100


class TestHallCheck:
    @settings(max_examples=300)
    @given(
        st.one_of(
            st.integers(0, 2**200),
            st.sets(st.integers(0, 600), max_size=40).map(
                lambda bits: sum(1 << b for b in bits)
            ),
        ),
        st.integers(0, 45),
    )
    def test_top_bits_matches_bitwise(self, mask, count):
        assert _top_bits(mask, count) == bitwise_top_bits(mask, count)

    def test_top_bits_matches_sorted_members(self):
        # random masks, blocks with holes below their top run, and the
        # edges: count 0, count at or above the popcount, mask 0
        rng = random.Random(4545)
        masks = [rng.getrandbits(rng.randrange(1, 300)) for _ in range(200)]
        for _ in range(200):
            low, run = rng.randrange(0, 200), rng.randrange(1, 80)
            block = ((1 << run) - 1) << low
            holes = sum(1 << rng.randrange(0, low + 1) for _ in range(rng.randrange(0, 4)))
            masks.append(block & ~holes)
            masks.append(block & ~holes | rng.getrandbits(low) if low else block)
        masks.append(0)
        for mask in masks:
            members = sorted((b for b in range(mask.bit_length()) if mask >> b & 1), reverse=True)
            for count in {0, 1, rng.randrange(0, 90), len(members), len(members) + 1}:
                assert _top_bits(mask, count) == sum(1 << b for b in members[:count])

    def test_complete_holding_decides_hall(self):
        rng = random.Random(8)
        for _ in range(400):
            groups = rng.randrange(1, 6)
            nbrs = [rng.getrandbits(8) for _ in range(groups)]
            demand = [rng.randrange(1, 4) for _ in range(groups)]
            # a random partial holding: each group keeps a few of its neighbors
            hold, taken = [], 0
            for m, d in zip(nbrs, demand):
                h = 0
                for w in range(8):
                    if m >> w & 1 and not taken >> w & 1 and h.bit_count() < d - 1:
                        h |= 1 << w
                hold.append(h)
                taken |= h
            got = complete_all(nbrs, demand, hold, taken)
            assert (got is not None) == brute_hall_holds(nbrs, demand)
            if got is not None:
                assert all(h.bit_count() == d and h & ~m == 0
                           for h, d, m in zip(got, demand, nbrs))
                # no vertex held twice
                assert sum(h.bit_count() for h in got) == _or(got).bit_count()

    def test_complete_holding_after_one_vertex_is_used(self):
        # a complete holding, then one held vertex used: only its group is
        # short, and Hall's condition is the one on the free neighborhoods
        rng = random.Random(21)
        decided = [0, 0]
        for _ in range(600):
            groups = rng.randrange(1, 7)
            nbrs = [rng.getrandbits(10) & rng.getrandbits(10) for _ in range(groups)]
            demand = [rng.randrange(1, 4) for _ in range(groups)]
            full = complete_all(nbrs, demand, [0] * groups, 0)
            if full is None:
                continue
            taken = _or(full)
            w = rng.choice([v for v in range(10) if taken >> v & 1])
            g = next(g for g, mask in enumerate(full) if mask >> w & 1)
            free = ~(1 << w)
            before = full.copy()
            got = _complete_holding(nbrs, free, demand, full, taken, [g], groups)
            assert full == before
            assert (got is not None) == brute_hall_holds([m & free for m in nbrs], demand)
            decided[got is not None] += 1
            if got is not None:
                hold, union = got
                assert all(h.bit_count() == d and h & ~(m & free) == 0
                           for h, d, m in zip(hold, demand, nbrs))
                assert union == _or(hold) and sum(h.bit_count() for h in hold) == union.bit_count()
                assert not hold[g] >> w & 1
        assert min(decided) >= 50

    @pytest.mark.parametrize("start", ["empty", "partial", "full"])
    def test_complete_holding_matches_flow(self, start):
        rng = random.Random(13)
        decided = [0, 0]
        for _ in range(300):
            groups = rng.randrange(1, 13)
            # 48-bit neighborhoods of about 24, 6 or 3 vertices, so that
            # Hall's condition both holds and fails
            ands = rng.choice([0, 2, 3])
            nbrs = []
            for _ in range(groups):
                m = rng.getrandbits(48)
                for _ in range(ands):
                    m &= rng.getrandbits(48)
                nbrs.append(m)
            demand = [rng.randrange(1, 7) for _ in range(groups)]
            # greedy holdings from the top: as much as each group can get
            # ("full"), at most half of it ("partial") or nothing ("empty")
            hold, taken = [], 0
            for m, d in zip(nbrs, demand):
                cap = {"empty": 0, "partial": d // 2, "full": d}[start]
                h, spare = 0, m & ~taken
                while spare and h.bit_count() < cap:
                    top = 1 << (spare.bit_length() - 1)
                    h |= top
                    spare ^= top
                hold.append(h)
                taken |= h
            before = hold.copy()
            got = complete_all(nbrs, demand, hold, taken)
            assert hold == before
            assert (got is not None) == flow_hall_holds(nbrs, demand)
            decided[got is not None] += 1
            if got is not None:
                assert all(h.bit_count() == d and h & ~m == 0
                           for h, d, m in zip(got, demand, nbrs))
                assert sum(h.bit_count() for h in got) == _or(got).bit_count()
        assert min(decided) >= 50


def complete_all(nbrs, demand, hold, taken):
    """_complete_holding with every vertex free and every group short: the
    holding alone, once the union returned with it is checked."""
    got = _complete_holding(nbrs, -1, demand, hold, taken, range(len(nbrs)), len(nbrs))
    if got is None:
        return None
    assert got[1] == _or(got[0])
    return got[0]


def _or(masks):
    out = 0
    for m in masks:
        out |= m
    return out
