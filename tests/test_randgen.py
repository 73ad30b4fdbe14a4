"""Seeded generators: reference vectors, determinism, and bound checks."""

import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treembed.graphs import GraphError, build_graph, degree_stats
from treembed import randgen
from treembed.randgen import random_host, random_tree, splitmix64, trial_seed

from oracles import per_draw_random_host, per_draw_random_tree


class TestSplitmix64:
    def test_reference_vectors(self):
        # first two outputs of the seed-0 stream and the first of seed 1,
        # from the widely circulated C reference implementation
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_stays_in_64_bits(self):
        rng = random.Random(1)
        for _ in range(200):
            out = splitmix64(rng.randrange(1 << 64))
            assert 0 <= out < 1 << 64


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)

    def test_distinct_across_indices(self):
        seeds = [trial_seed(7, i) for i in range(1000)]
        assert len(set(seeds)) == 1000

    def test_distinct_across_masters(self):
        assert trial_seed(7, 0) != trial_seed(8, 0)

    def test_frozen_values(self):
        assert trial_seed(7, 0) == 13309476754707697221
        assert trial_seed(7, 1) == 11984929618412882174


class TestRandomTree:
    def test_edge_count_and_validity(self):
        rng = random.Random(42)
        for _ in range(100):
            k = rng.randrange(0, 40)
            tree = random_tree(k, rng)
            assert tree.graph.n == k + 1
            assert tree.graph.m == k

    def test_tiny_cases(self):
        rng = random.Random(0)
        assert random_tree(0, rng).graph.n == 1
        t = random_tree(1, rng)
        assert t.graph.n == 2 and t.graph.has_edge(0, 1)

    def test_negative_rejected(self):
        with pytest.raises(GraphError, match="non-negative"):
            random_tree(-1, random.Random(0))

    def test_degree_cap_respected(self):
        rng = random.Random(99)
        for _ in range(50):
            tree = random_tree(12, rng, max_degree=3)
            assert degree_stats(tree.graph).max_degree <= 3

    def test_impossible_cap_rejected(self):
        with pytest.raises(GraphError, match="max degree"):
            random_tree(5, random.Random(0), max_degree=1)

    def test_deterministic_for_fixed_seed(self):
        a = random_tree(15, random.Random(314))
        b = random_tree(15, random.Random(314))
        assert list(a.graph.edges()) == list(b.graph.edges())

    def test_path_cap_eventually_sampled(self):
        # max_degree=2 forces a path; decode must still terminate
        tree = random_tree(6, random.Random(5), max_degree=2, attempts=5000)
        degs = sorted(tree.graph.degrees)
        assert degs == [1, 1, 2, 2, 2, 2, 2]


class TestRandomHost:
    def test_bounds_met(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_host(24, 10, Fraction(0), rng)
            stats = degree_stats(g)
            assert stats.min_degree >= 5
            assert stats.max_degree >= 20

    def test_fractional_alpha(self):
        g = random_host(30, 10, Fraction(1, 5), random.Random(11))
        stats = degree_stats(g)
        assert stats.min_degree >= 6   # ceil(1.2 * 10 / 2)
        assert stats.max_degree >= 16  # ceil(2 * 0.8 * 10)

    def test_hub_planted_at_zero(self):
        g = random_host(30, 10, Fraction(0), random.Random(3))
        assert g.degrees[0] >= 20

    def test_unsatisfiable_rejected(self):
        with pytest.raises(GraphError, match="neighbors"):
            random_host(12, 10, Fraction(0), random.Random(0))

    def test_alpha_above_one_rejected_before_any_draw(self):
        # 2(1 - alpha)k planted neighbors would be negative
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(GraphError, match="alpha must be at most 1, got 3/2"):
            random_host(10, 2, Fraction(3, 2), rng)
        assert rng.getstate() == state

    def test_deterministic_for_fixed_seed(self):
        a = random_host(24, 10, Fraction(0), random.Random(21))
        b = random_host(24, 10, Fraction(0), random.Random(21))
        assert list(a.edges()) == list(b.edges())

    def test_single_vertex_host_for_zero_edges(self):
        # both bounds are 0 at k = 0, and one vertex has no pair to draw
        g = random_host(1, 0, Fraction(0), random.Random(0))
        assert g.n == 1 and g.m == 0

    # the ids are the names these tests are tracked by across versions
    @pytest.mark.parametrize("k, n, alpha", [
        (4, 9, Fraction(0)),
        (4, 9, Fraction(1, 4)),
        (10, 24, Fraction(0)),
    ], ids=["4-9-alpha0-True", "4-9-alpha1-True", "10-24-alpha4-True"])
    def test_rows_match_build_graph(self, k, n, alpha):
        # on (4, 9, 0) with the hub, 21 of these seeds need more than one attempt
        for seed in range(300):
            g = random_host(n, k, alpha, random.Random(seed))
            assert g == build_graph(n, list(g.edges()))

    @pytest.mark.parametrize("n, k, alpha, seed, attempts, after", [
        (9, 4, Fraction(0), 6, 2, 0.7463130354756679),
        (9, 4, Fraction(0), 115, 4, 0.011396819172710515),
        (70, 30, Fraction(1, 4), 7, 1, 0.7619223161734349),
    ], ids=[
        "9-4-alpha0-True-6-2-0.7463130354756679",
        "9-4-alpha1-True-115-4-0.011396819172710515",
        "70-30-alpha2-True-7-1-0.7619223161734349",
    ])
    def test_rng_calls_frozen(self, monkeypatch, n, k, alpha, seed, attempts, after):
        # the draw after the call pins how many draws each attempt made, so a
        # host built another way cannot change the hosts that follow it
        checks = []

        def counting_stats(g):
            checks.append(g)
            return degree_stats(g)

        monkeypatch.setattr(randgen, "degree_stats", counting_stats)
        rng = random.Random(seed)
        random_host(n, k, alpha, rng)
        assert len(checks) == attempts
        assert rng.random() == after

    def test_capped_tree_decoded_once(self, monkeypatch):
        # a code over the degree cap is redrawn from its counts, undecoded
        decoded = []

        def counting_decode(n, code, degree):
            decoded.append(code)
            return decode(n, code, degree)

        decode = randgen._decode_rows
        monkeypatch.setattr(randgen, "_decode_rows", counting_decode)
        tree = random_tree(6, random.Random(5), max_degree=2, attempts=5000)
        assert len(decoded) == 1
        assert max(tree.graph.degrees) == 2


def _outcome(call, seed):
    """What call(rng) leaves behind for a fresh rng seeded with seed: its
    result or its GraphError's message, and the rng state after it."""
    rng = random.Random(seed)
    try:
        result = call(rng)
    except GraphError as err:
        result = str(err)
    return result, rng.getstate()


@st.composite
def host_args(draw):
    n = draw(st.integers(1, 60))
    k = draw(st.integers(0, n - 1))
    alpha = Fraction(draw(st.integers(0, 12)), 12)
    return n, k, alpha, draw(st.integers(1, 4)), draw(st.integers(0, 2**32))


class TestDrawForDraw:
    """The bulk draws against the per-draw oracles: the same graph or the
    same error, and the rng left in the same state."""

    @settings(max_examples=300, deadline=None)
    @given(host_args())
    # one vertex; p at the 0.95 cap; the hub takes every vertex, so row 0
    # draws nothing; the attempts run out
    @example((1, 0, Fraction(0), 1, 0))
    @example((60, 40, Fraction(1, 2), 1, 3))
    @example((60, 59, Fraction(1, 2), 1, 4))
    @example((9, 4, Fraction(0), 1, 6))
    def test_random_host(self, args):
        n, k, alpha, attempts, seed = args
        bulk = _outcome(lambda rng: random_host(n, k, alpha, rng, attempts).adjacency_masks, seed)
        assert bulk == _outcome(
            lambda rng: per_draw_random_host(n, k, alpha, rng, attempts).adjacency_masks, seed
        )

    @staticmethod
    def record_coins(monkeypatch) -> list[tuple[int, int]]:
        """The (count, cut) of each _coins call from here on."""
        calls = []

        def recording_coins(rng, count, cut, table):
            calls.append((count, cut))
            return coins(rng, count, cut, table)

        coins = randgen._coins
        monkeypatch.setattr(randgen, "_coins", recording_coins)
        return calls

    def test_host_examples_reach_their_cases(self, monkeypatch):
        calls = self.record_coins(monkeypatch)
        capped = ceil(0.95 * 2**53)
        # rows 1 to 59 draw 59 * 58 / 2 coins, fewer than _CHUNK: one chunk
        rows = 59 * 58 // 2
        random_host(60, 40, Fraction(1, 2), random.Random(3), 1)
        # p at the cap, and row 0's 19 coins open the chunk
        assert calls == [(19 + rows, capped)]
        calls.clear()
        random_host(60, 59, Fraction(1, 2), random.Random(4), 1)
        # the hub is every other vertex: row 0 draws nothing
        assert calls == [(rows, capped)]
        calls.clear()
        with pytest.raises(GraphError, match="attempts"):
            random_host(9, 4, Fraction(0), random.Random(6), attempts=1)
        assert calls == [(8 * 7 // 2, ceil(0.5 * 2**53))]

    def test_chunks_are_whole_rows(self, monkeypatch):
        # every call but an attempt's last draws at least _CHUNK coins and
        # stops at the first row boundary that reaches it
        calls = self.record_coins(monkeypatch)
        n, k = 1000, 300
        random_host(n, k, Fraction(0), random.Random(5))
        # the row u > 0 that completes each count of an attempt's coins,
        # the first n - 1 - 2k of which are row 0's; drawn ends as all
        drawn, done = n - 1 - 2 * k, {}
        for u in range(1, n):
            drawn += n - 1 - u
            done[drawn] = u
        total, attempts = 0, 0
        for count, _ in calls:
            total += count
            if total == drawn:
                total, attempts = 0, attempts + 1
                continue
            u = done.get(total)
            assert u is not None and count >= randgen._CHUNK
            assert count - (n - 1 - u) < randgen._CHUNK
        assert total == 0 and attempts >= 1
        assert len(calls) > 100 * attempts

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 60),
        st.sampled_from([None, 1, 2, 3, 4, 5]),
        st.integers(1, 5),
        st.integers(0, 2**32),
    )
    # a path cap, drawn again until it holds; a cap that runs out
    @example(6, 2, 5000, 5)
    @example(60, 3, 1, 0)
    def test_random_tree(self, k, max_degree, attempts, seed):
        bulk = _outcome(lambda rng: random_tree(k, rng, max_degree, attempts).graph.adj, seed)
        assert bulk == _outcome(
            lambda rng: per_draw_random_tree(k, rng, max_degree, attempts).graph.adj, seed
        )


def _untemper(y: int) -> int:
    """The Mersenne Twister state word whose tempered output is y."""
    y ^= y >> 18
    y ^= y << 15 & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ (x << 7 & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(2):
        x = y ^ x >> 11
    return x


def _word_stream(words: list[int]) -> random.Random:
    """A random.Random whose next 32-bit outputs are words (at most 624):
    its state holds them untempered, read from index 0 before any twist."""
    state = [_untemper(w) for w in words] + [0] * (624 - len(words))
    rng = random.Random()
    rng.setstate((3, (*state, 0), None))
    return rng


def _draw_words(x: int, low: int) -> list[int]:
    """The two words random() turns into x / 2**53; low fills the bits it
    drops, 5 of the first word and 6 of the second."""
    return [x >> 26 << 5 | low & 31, (x & (1 << 26) - 1) << 6 | low & 63]


# p whose cut has 45 low bits zero, so a top byte equal to cut's is a 0;
# p below 2**-8, so every draw with top byte 0 ties and p * 2**53 is no
# integer; and the cap
COIN_PS = pytest.mark.parametrize(
    "p", [0.75, 0.001, 0.95], ids=["low-bits-zero", "top-byte-zero", "cap"]
)


class TestCoins:
    @COIN_PS
    def test_matches_random(self, p):
        cut = ceil(p * 2**53)
        table = randgen._coin_table(cut)
        bulk, single = random.Random(17), random.Random(17)
        coins = b"".join(randgen._coins(bulk, count, cut, table)
                         for count in (1, 7, 256) + (1000,) * 100)
        assert coins == bytes(49 if single.random() < p else 48 for _ in range(len(coins)))
        assert bulk.getstate() == single.getstate()

    def test_cases_are_the_named_ones(self):
        assert ceil(0.75 * 2**53) & (1 << 45) - 1 == 0
        assert ceil(0.001 * 2**53) >> 45 == 0 and 0.001 * 2**53 % 1
        assert randgen._coin_table(ceil(0.75 * 2**53)).count(b"?") == 0
        assert randgen._coin_table(ceil(0.95 * 2**53)).count(b"?") == 1

    def test_word_stream(self):
        source = random.Random(3)
        words = [0, 1, 0xFFFFFFFF, 0x80000000] + [source.getrandbits(32) for _ in range(300)]
        rng = _word_stream(words)
        assert [rng.getrandbits(32) for _ in words] == words

    @COIN_PS
    def test_draws_next_to_cut(self, p):
        # X one below, at and one above cut, and just across its top byte,
        # with the dropped bits empty and full: the draws on the boundary
        # that random ones all but never hit
        cut = ceil(p * 2**53)
        xs = sorted({cut + d * step for d in (-1, 0, 1) for step in (1, 1 << 26, 1 << 45)})
        xs = [x for x in xs if 0 <= x < 2**53]
        words = [w for x in xs for low in (0, 63) for w in _draw_words(x, low)]
        single = _word_stream(words)
        expected = bytes(49 if single.random() < p else 48 for _ in range(len(words) // 2))
        coins = randgen._coins(_word_stream(words), len(words) // 2, cut, randgen._coin_table(cut))
        assert coins == expected
        assert b"0" in expected and b"1" in expected
