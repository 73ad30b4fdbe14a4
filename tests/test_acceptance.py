"""The eleven blocking checks.

One test per criterion.  Each prints a single line

    ACCEPTANCE nn PASS <label>

(or FAIL) so a log scrape can confirm the whole gate at a glance; run with
-s to watch them live.  Stated runtime budgets are asserted, not implied.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import ceil

import pytest

from treembed.cli import main
from treembed.decompose import (
    find_separator,
    partition_three,
    partition_two,
)
from treembed.embedding import Verdict, exact_embed, validate_embedding
from treembed.families import (
    ExtremalParams,
    broom_tree,
    caterpillar,
    cliques_with_apex,
    complete_bipartite,
    matched_wing_host,
    sharpness_instance_for_alpha,
    sharpness_instance_for_gamma,
    two_wing_host,
    wing_clique_host,
)
from treembed.graphs import build_graph, degree_stats, vertex_connectivity
from treembed.randgen import random_tree
from treembed.structure import classify_apex_structure, verify_broom_obstruction

from oracles import (
    brute_max_component_orders,
    capped_sequences,
    naive_embed_exists,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL {label}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS {label}")


@contextmanager
def clock(limit_s):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"took {elapsed:.1f}s, budget {limit_s}s"


def test_01_two_wing_degree_formulas():
    with criterion(1, "two-wing degree formulas, 9/9 exact"), clock(1):
        for ell in (3, 5, 7):
            for c in (1, 2, 3):
                k = c * ell * (ell + 1)
                stats = degree_stats(two_wing_host(ExtremalParams(ell, c, k)).graph)
                delta_form = Fraction(k, 2) + Fraction((c - 1) * (ell + 1), 2)
                big_delta_form = 2 * (ell - 1) * (k // ell - 1)
                assert delta_form.denominator == 1
                assert stats.min_degree == delta_form
                assert stats.max_degree == big_delta_form


def test_02_broom_blocked_by_two_wing_host():
    with criterion(2, "broom blocked by two-wing host, certificate agrees"), clock(60):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        verdict = exact_embed(broom_tree(3, 12), host)
        assert verdict.kind is Verdict.NOT_EMBEDDED
        cert = verify_broom_obstruction(3, 1, 12)
        assert cert.holds
        assert cert.leaf_demand > cert.b_capacity
        assert cert.center_demand > cert.a_capacity


def test_02s_broom_blocked_at_doubled_scale():
    with criterion(2, "stretch: broom blocked at doubled scale"), clock(600):
        host = two_wing_host(ExtremalParams(3, 2, 24)).graph
        verdict = exact_embed(broom_tree(3, 24), host)
        assert verdict.kind is Verdict.NOT_EMBEDDED


def test_03_companion_hosts_block_the_broom():
    tree = broom_tree(3, 12)
    with criterion(3, "wing-clique and matched-wing hosts block the broom"):
        with clock(60):
            g_host = wing_clique_host(ExtremalParams(3, 1, 12)).graph
            assert g_host.n == 18
            assert exact_embed(tree, g_host).kind is Verdict.NOT_EMBEDDED
        with clock(60):
            m_host = matched_wing_host(ExtremalParams(3, 1, 12)).graph
            assert m_host.n == 19
            assert exact_embed(tree, m_host).kind is Verdict.NOT_EMBEDDED


def test_04_path_embeds_as_positive_control():
    with criterion(4, "12-edge path embeds in the two-wing host"), clock(10):
        host = two_wing_host(ExtremalParams(3, 1, 12)).graph
        tree = caterpillar(12)
        verdict = exact_embed(tree, host)
        assert verdict.kind is Verdict.EMBEDDED
        assert validate_embedding(tree, host, verdict.embedding)


def test_05_bipartite_and_clique_obstructions():
    with criterion(5, "path obstructions: thin bipartite sides and small cliques"):
        p8 = caterpillar(8)
        for n2 in (5, 20):
            with clock(5):
                host = complete_bipartite(3, n2).graph
                assert exact_embed(p8, host).kind is Verdict.NOT_EMBEDDED
        p12 = caterpillar(12)
        sep = find_separator(p12)
        assert sep.max_component_order == 6
        assert sep.max_component_order > 5
        with clock(60):
            host = cliques_with_apex(5, 3).graph
            assert exact_embed(p12, host).kind is Verdict.NOT_EMBEDDED


def test_06_sharpness_witnesses_exact():
    with criterion(6, "sharpness witnesses with exact rational bounds"):
        inst = sharpness_instance_for_alpha(Fraction(1, 2))
        assert (inst.params.ell, inst.params.k) == (3, 12)
        assert inst.min_degree == inst.params.k // 2 == 6
        assert inst.min_degree_bound == Fraction(6)
        assert inst.max_degree_bound == Fraction(12)
        assert inst.max_degree >= inst.max_degree_bound

        inst = sharpness_instance_for_gamma(3, 0.1)
        assert (inst.params.c, inst.params.k) == (4, 48)
        assert inst.min_degree == 30
        assert inst.max_degree == 60
        assert inst.min_degree_bound == Fraction(148, 5)
        assert inst.max_degree_bound == Fraction(272, 5)
        assert inst.min_degree >= inst.min_degree_bound
        assert inst.max_degree >= inst.max_degree_bound


def test_07_separator_and_partition_bounds():
    with criterion(7, "separator bound on 1000 trees, exhaustive partitions"), clock(30):
        rng = random.Random(2026)
        for _ in range(1000):
            t = rng.randrange(1, 201)
            tree = random_tree(t, rng)
            sep = find_separator(tree)
            assert sep.max_component_order <= ceil(t / 2)
            if t <= 50:
                worst = brute_max_component_orders(tree)
                assert sep.max_component_order == min(worst)
                assert worst[sep.separator] == sep.max_component_order
        for t in range(1, 13):
            for sizes in capped_sequences(8, t):
                three = partition_three(sizes, t)
                assert all(s <= ceil(t / 2) for s in three.sums)
                assert sorted(
                    three.groups[0] + three.groups[1] + three.groups[2]
                ) == list(range(len(sizes)))
                if t >= 2:
                    two = partition_two(sizes, t)
                    assert 3 * two.heavy_sum <= 2 * t
                    assert two.heavy_sum >= two.light_sum
                    assert sorted(two.heavy + two.light) == list(range(len(sizes)))


def test_08_oracle_matches_naive_reference():
    with criterion(8, "exact solver vs naive reference, 10000 pairs"), clock(120):
        rng = random.Random(1789)
        embedded = 0
        for _ in range(10_000):
            k = rng.randrange(0, 7)
            tree = random_tree(k, rng)
            n_h = rng.randrange(1, 8)
            p = rng.random()
            host = build_graph(
                n_h,
                [
                    (u, v)
                    for u in range(n_h)
                    for v in range(u + 1, n_h)
                    if rng.random() < p
                ],
            )
            want = naive_embed_exists(tree.graph, host)
            got = exact_embed(tree, host)
            assert (got.kind is Verdict.EMBEDDED) == want
            embedded += want
        # both outcomes must actually occur for the agreement to mean much
        assert 0 < embedded < 10_000


def test_09_classifier_shape_on_extremal_hosts():
    with criterion(9, "apex structure classifier on extremal hosts"):
        for ell in (3, 5, 7):
            for c in (1, 2, 3):
                k = c * ell * (ell + 1)
                host = two_wing_host(ExtremalParams(ell, c, k)).graph
                report = classify_apex_structure(host, 0, k, Fraction(1, 10))
                assert len(report.facts) == 2
                assert report.exactly_two_seen
                assert report.all_components_small
                assert report.secondary_shape
                assert all(f.x_degree_smaller == 0 for f in report.facts)
        clique_report = classify_apex_structure(
            cliques_with_apex(5, 3).graph, 0, 12, Fraction(1, 10)
        )
        assert not clique_report.exactly_two_seen


def test_10_matched_wing_connectivity():
    with criterion(10, "matched-wing host is half-k connected"), clock(60):
        g = matched_wing_host(ExtremalParams(3, 2, 24)).graph
        assert g.n == 51
        assert vertex_connectivity(g) >= 12


def test_11_stress_harness_determinism(tmp_path):
    with criterion(11, "stress run deterministic with no counterexamples"), clock(600):
        args = ["stress", "--k", "10", "--n", "24", "--alpha", "0",
                "--trials", "200", "--seed", "7"]
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        rows = [json.loads(line) for line in first.read_text().splitlines()]
        assert len(rows) == 200
        for row in rows:
            assert row["counterexample"] is False
            assert (row["witness"] is not None) == (row["verdict"] == "embedded")
