"""Tree decomposition lemmas: separator, partitions, capped splits."""

import hashlib
import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treembed.decompose import (
    centroid,
    find_separator,
    partition_three,
    partition_two,
    split_family_by_cap,
)
from treembed.families import broom_tree, caterpillar
from treembed.graphs import GraphError, build_tree, distance_bfs
from treembed.randgen import random_tree

from oracles import brute_max_component_orders, capped_sequences


def random_trees(max_edges=40):
    return st.integers(1, max_edges).flatmap(
        lambda k: st.integers(0, 2**32).map(
            lambda s: random_tree(k, random.Random(s))
        )
    )


class TestFindSeparator:
    def test_path_center(self):
        result = find_separator(caterpillar(12))
        assert result.separator == 6
        assert result.max_component_order == 6

    def test_even_path_tie_goes_low(self):
        result = find_separator(caterpillar(3))
        # vertices 1 and 2 both leave a worst part of 2
        assert result.separator == 1
        assert result.max_component_order == 2

    def test_broom_handle_is_centroid(self):
        result = find_separator(broom_tree(3, 12))
        assert result.separator == 0
        assert result.max_component_order == 4

    def test_star_center(self):
        t = build_tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        result = find_separator(t)
        assert result.separator == 0
        assert result.max_component_order == 1

    def test_single_edge(self):
        result = find_separator(build_tree(2, [(0, 1)]))
        assert result.separator == 0
        assert result.max_component_order == 1

    def test_single_vertex_rejected(self):
        with pytest.raises(GraphError):
            find_separator(build_tree(1, []))

    def test_components_partition(self):
        t = broom_tree(3, 12)
        result = find_separator(t)
        spread = sorted(v for comp in result.components for v in comp)
        assert spread == [v for v in range(13) if v != result.separator]

    @settings(max_examples=120)
    @given(random_trees())
    def test_bound_and_optimality(self, tree):
        brute = brute_max_component_orders(tree)
        result = find_separator(tree)
        t = tree.graph.n - 1
        assert result.max_component_order <= ceil(t / 2)
        assert result.max_component_order == min(brute)
        # ties resolve to the smallest vertex id
        assert result.separator == min(
            v for v in range(tree.graph.n) if brute[v] == min(brute)
        )

    @settings(max_examples=120)
    @given(random_trees())
    def test_centroid_is_the_separator(self, tree):
        assert centroid(tree) == find_separator(tree).separator

    @settings(max_examples=60)
    @given(random_trees())
    def test_roots_and_distances(self, tree):
        result = find_separator(tree)
        z, g = result.separator, tree.graph
        assert result.distance == distance_bfs(g, z)
        assert len(result.roots) == len(result.components)
        for root, comp in zip(result.roots, result.components):
            assert root in comp and g.has_edge(z, root)


def smallest_argmin(tree):
    worst = brute_max_component_orders(tree)
    return worst.index(min(worst))


class TestCentroid:
    """centroid walks from vertex 0 to a centroid and takes the smaller id
    of two; the oracle evaluates every vertex by brute force."""

    def test_random_trees(self):
        rng = random.Random(8080)
        for _ in range(2000):
            tree = random_tree(rng.randrange(1, 40), rng)
            assert centroid(tree) == smallest_argmin(tree)

    def test_paths_in_both_labellings(self):
        # ids along the path, and ids folded in from both ends alternately
        # (0, 2, 4, ..., 5, 3, 1), so that vertex 0 sits at either end of
        # the walk and the two centroids of an even path come in either order
        for n in range(2, 41):
            folded = list(range(0, n, 2)) + list(range(n - 1 - n % 2, 0, -2))
            for ids in (list(range(n)), folded):
                tree = build_tree(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])
                assert centroid(tree) == smallest_argmin(tree)
                middle = sorted({ids[(n - 1) // 2], ids[n // 2]})
                assert centroid(tree) == middle[0]

    def test_double_stars_take_the_smaller_centre(self):
        # two adjacent centres with m leaves each: both leave n/2 behind
        rng = random.Random(4141)
        for m in range(0, 16):
            n = 2 * m + 2
            for _ in range(10):
                ids = list(range(n))
                rng.shuffle(ids)
                edges = [(ids[0], ids[1])]
                edges += [(ids[i % 2], ids[i]) for i in range(2, n)]
                tree = build_tree(n, edges)
                assert centroid(tree) == min(ids[0], ids[1]) == smallest_argmin(tree)


class TestPartitionTwo:
    def test_exhaustive_bound(self):
        for t in range(2, 13):
            for sizes in capped_sequences(8, t):
                if sum(sizes) > t:
                    continue
                split = partition_two(list(sizes), t)
                assert sorted(split.heavy + split.light) == list(range(len(sizes)))
                assert split.heavy_sum == sum(sizes[i] for i in split.heavy)
                assert split.heavy_sum >= split.light_sum
                assert Fraction(split.heavy_sum) <= Fraction(2 * t, 3)

    def test_t_below_two_rejected(self):
        # (1,) with t=1 genuinely violates the 2t/3 bound, so it is excluded
        with pytest.raises(GraphError):
            partition_two([1], 1)

    def test_oversized_entry_rejected(self):
        with pytest.raises(GraphError):
            partition_two([5], 8)

    def test_overfull_rejected(self):
        with pytest.raises(GraphError):
            partition_two([4, 4, 4], 8)

    def test_deterministic(self):
        a = partition_two([3, 3, 2, 2], 12)
        b = partition_two([3, 3, 2, 2], 12)
        assert a == b


class TestPartitionThree:
    def test_exhaustive_bound(self):
        for t in range(1, 13):
            cap = ceil(t / 2)
            for sizes in capped_sequences(8, t):
                if sum(sizes) > t:
                    continue
                split = partition_three(list(sizes), t)
                spread = sorted(i for group in split.groups for i in group)
                assert spread == list(range(len(sizes)))
                for group, total in zip(split.groups, split.sums):
                    assert total == sum(sizes[i] for i in group)
                    assert total <= cap
                assert list(split.sums) == sorted(split.sums, reverse=True)

    def test_empty_input(self):
        split = partition_three([], 6)
        assert split.groups == ((), (), ())


class TestPartitionOutputs:
    def test_pinned(self):
        # both splits over every admissible input up to t = 12, as computed
        # when each had a greedy of its own
        digest = hashlib.sha256()
        for t in range(1, 13):
            for sizes in capped_sequences(8, t):
                if sum(sizes) > t:
                    continue
                three = partition_three(list(sizes), t)
                two = partition_two(list(sizes), t) if t >= 2 else None
                digest.update(repr((sizes, t, three, two)).encode())
        assert digest.hexdigest() == (
            "f429daab1841e6bd6db8c1063da9e4719c2c55feffc382961db9daec7ace05b7"
        )


class TestSplitFamilyByCap:
    def test_scans_past_oversized_pieces(self):
        # cap is 7.8: 3 + 3 fits, the third 3 would overflow, scan ends
        taken, rest = split_family_by_cap([3, 3, 3], 12, Fraction(3, 10))
        assert taken == (0, 1)
        assert rest == (2,)

    def test_resumes_after_skip(self):
        # 5 overflows the cap of 8.5 after 4 is taken, but 2 still fits
        taken, rest = split_family_by_cap([4, 5, 2], 12, Fraction(5, 12))
        assert taken == (0, 2)
        assert rest == (1,)

    def test_heavy_piece_rejected(self):
        with pytest.raises(GraphError, match="single-heavy-piece"):
            split_family_by_cap([7, 1], 12, Fraction(1, 4))

    def test_consequence_bound(self):
        rng = random.Random(99)
        for _ in range(300):
            k = rng.randrange(2, 40)
            alpha = Fraction(rng.randrange(0, 34), 100)
            cap_each = alpha * k
            weights = []
            while sum(weights) < k and len(weights) < 12:
                top = int(cap_each)
                if top < 1:
                    break
                weights.append(rng.randrange(1, top + 1))
            if not weights:
                continue
            taken, rest = split_family_by_cap(weights, k, alpha)
            assert sorted(taken + rest) == list(range(len(weights)))
            total = sum(weights[i] for i in taken)
            assert Fraction(total) <= (1 + alpha) * Fraction(k, 2)
            if sum(weights) >= (1 + alpha) * Fraction(k, 2):
                assert Fraction(total) >= (1 - alpha) * Fraction(k, 2)
