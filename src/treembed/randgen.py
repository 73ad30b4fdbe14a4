"""Seeded random instances.

Stress runs need byte-identical output across repeats, so every trial
derives its own seed from the master seed through splitmix64 and feeds a
private random.Random.  Nothing here touches the global RNG state.
"""

from __future__ import annotations

import heapq
import random
import struct
from bisect import insort
from math import ceil

from .graphs import GraphError, SimpleGraph, TreeGraph, build_tree, degree_stats
from .rational import as_fraction

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LOW45 = (1 << 45) - 1
# the two 32-bit words of one random() draw, first word first
_TWO_WORDS = struct.Struct("<II")
# the fewest coins random_host draws in one _coins call, but an attempt's
# last: 4096 draws are 32 KB of words
_CHUNK = 4096


def splitmix64(x: int) -> int:
    """One splitmix64 step; the standard finalizer constants."""
    z = (x + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def trial_seed(master: int, index: int) -> int:
    """Decorrelated per-trial seed; stable across platforms and runs."""
    return splitmix64((splitmix64(master & _M64) + index * _GOLDEN) & _M64)


def random_tree(
    k: int,
    rng: random.Random,
    max_degree: int | None = None,
    attempts: int = 1000,
) -> TreeGraph:
    """Uniform random tree with k edges via a random sequence decode.

    The decode repeatedly attaches the smallest remaining leaf, which makes
    the vertex order deterministic given the drawn sequence.  A max_degree
    cap is enforced by resampling: a vertex's degree is one more than its
    count in the sequence, so a sequence over the cap is redrawn before it
    is decoded.  Trees that cannot satisfy the cap raise GraphError after
    the attempt budget.
    """
    if k < 0:
        raise GraphError(f"edge count must be non-negative, got {k}")
    n = k + 1
    if max_degree is not None and max_degree < 2 and n > max_degree + 1:
        raise GraphError(f"no tree on {n} vertices has max degree {max_degree}")
    if n == 1:
        return build_tree(1, [])
    if n == 2:
        return build_tree(2, [(0, 1)])
    # rng.randrange(n) as random.Random draws it: getrandbits of n's bit
    # length, drawn again until below n; the same words, without the calls
    getrandbits, bits = rng.getrandbits, n.bit_length()
    for _ in range(attempts):
        code = [0] * (n - 2)
        for i in range(n - 2):
            v = getrandbits(bits)
            while v >= n:
                v = getrandbits(bits)
            code[i] = v
        degree = [1] * n
        for v in code:
            degree[v] += 1
        if max_degree is None or max(degree) <= max_degree:
            return TreeGraph(SimpleGraph(n, _decode_rows(n, code, degree)))
    raise GraphError(
        f"no tree with {k} edges and max degree {max_degree} in {attempts} attempts"
    )


def _decode_rows(n: int, code: list[int], degree: list[int]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor rows of the tree that code decodes to; degree holds
    each vertex's degree in it and is used up.  Every vertex but n - 1 is
    the smallest leaf once and is joined to its parent then.  A wrong
    decode cannot slip through: a self-loop or a repeated edge leaves n - 1
    entries to the edge count but too few edges to connect, which TreeGraph
    rejects."""
    parent = [n - 1] * n
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in code:
        parent[heapq.heappop(leaves)] = v
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    # the last two leaves; n - 1 is never the smallest, so it is the other
    parent[heapq.heappop(leaves)] = n - 1
    # children in ascending order, then each vertex's parent in its place
    rows: list[list[int]] = [[] for _ in range(n)]
    for y in range(n - 1):
        rows[parent[y]].append(y)
    for y in range(n - 1):
        insort(rows[y], parent[y])
    return tuple(map(tuple, rows))


def _coin_table(cut: int) -> bytes:
    """The coin of each top byte of a draw's first word, for _coins: "1"
    below cut's top byte, "0" above it, and "?" (a tie) at it unless cut's
    45 low bits are zero, where every draw with that top byte is >= cut.
    Ties are settled exactly, so the stray tie a cut below 0 puts at byte
    0 changes no coin."""
    tie = b"?" if cut & _LOW45 else b"0"
    return (b"1" * (cut >> 45) + tie + b"0" * 255)[:256]


def _coins(rng: random.Random, count: int, cut: int, table: bytes) -> bytes | bytearray:
    """count coins as b"1" and b"0": [rng.random() < p for _ in range(count)]
    for a random.Random rng, with cut = ceil(p * 2**53), and the same words
    drawn.

    random() reads two 32-bit words w0, w1 and returns X / 2**53 with
    X = (w0 >> 5) << 26 | w1 >> 6, so random() < p exactly when X < cut.
    One getrandbits call hands out all 2 * count words in order, the first
    in the lowest bits, and getrandbits(0) draws nothing.  The top byte of
    w0 is X >> 45: table settles every draw from it but the one top byte
    in 256 that ties with cut's, and those draws are settled from both
    words.
    """
    words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    coins = words[3::8].translate(table)
    tie = coins.find(b"?")
    if tie < 0:
        return coins
    coins = bytearray(coins)
    while tie >= 0:
        w0, w1 = _TWO_WORDS.unpack_from(words, 8 * tie)
        coins[tie] = 49 if (w0 >> 5 << 26 | w1 >> 6) < cut else 48
        tie = coins.find(b"?", tie + 1)
    return coins


def random_host(
    n: int,
    k: int,
    alpha,
    rng: random.Random,
    attempts: int = 200,
) -> SimpleGraph:
    """Random host meeting both degree bounds for the given k and alpha.

    Edges appear independently with probability tuned so the expected
    degree is about twice the minimum bound; vertex 0 first gets
    ceil(2(1-alpha)k) neighbors so the maximum degree bound holds by
    construction.  Hosts are resampled until degree_stats clears both
    bounds; exhausting the attempts raises GraphError, and so, before any
    draw, do alpha above 1 and a bound no host on n vertices can meet.

    Each pair u < v but the planted ones takes the coin rng.random() < p in
    lexicographic order.  An attempt draws its coins in chunks of whole
    rows, row 0's opening the first: each chunk takes rows until it holds
    _CHUNK coins or the rows run out, and one _coins call decides it.
    getrandbits hands out the same words in the same order however the
    draws are split, so the hosts and the rng state after them are those
    of the draw-by-draw loop; a chunk holds at most _CHUNK + n coins, so
    the words in flight stay a few tens of KB whatever n is.
    """
    a = as_fraction(alpha)
    if a > 1:
        raise GraphError(f"alpha must be at most 1, got {a}")
    d_min = ceil((1 + a) * k / 2)
    d_plant = ceil(2 * (1 - a) * k)
    if max(d_min, d_plant) > n - 1:
        raise GraphError(
            f"degree bounds need {max(d_min, d_plant)} neighbors, only {n - 1} available"
        )
    p = min(0.95, float(1 + a) * k / max(n - 1, 1))
    cut = ceil(p * 2**53)
    table = _coin_table(cut)
    for _ in range(attempts):
        hub = set(rng.sample(range(1, n), d_plant))
        # the adjacency matrix as "0"/"1" bytes, row by row: row 0 draws for
        # the vertices not in hub, row u > 0 for the vertices after u, and
        # copies column u of the rows above for the vertices before u
        matrix = bytearray(b"0") * (n * n)
        rest = [v for v in range(1, n) if v not in hub]
        for v in hub:
            matrix[v] = 49
        # one _coins call per chunk of rows start..end - 1, row 0's coins
        # (head of them) opening the first; each row's coins are a slice
        start, head = 1, len(rest)
        while start < n:
            end, count = start, head
            while end < n and count < _CHUNK:
                count += n - 1 - end
                end += 1
            coins = _coins(rng, count, cut, table)
            for v, coin in zip(rest[:head], coins):
                matrix[v] = coin
            at = head
            for u in range(start, end):
                row = u * n
                matrix[row + u + 1 : row + n] = coins[at : at + n - 1 - u]
                at += n - 1 - u
                matrix[row : row + u] = matrix[u:row:n]
            start, head = end, 0
        # reversed, row u is u's mask as a base-2 numeral, in row n - 1 - u
        matrix.reverse()
        masks = tuple(int(matrix[i : i + n], 2) for i in range(n * n - n, -1, -n))
        g = SimpleGraph.from_masks(n, masks)
        stats = degree_stats(g)
        if stats.min_degree >= d_min and stats.max_degree >= d_plant:
            return g
    raise GraphError(f"no host met the degree bounds in {attempts} attempts")
