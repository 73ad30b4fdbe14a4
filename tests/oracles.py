"""Independent reference implementations the fast code is judged against.

Everything here is deliberately naive: permutation scans, subset
enumeration, per-vertex BFS.  Keep these slow and obvious.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from math import ceil

from treembed.families import ExtremalParams
from treembed.graphs import (
    GraphError, SimpleGraph, TreeGraph, build_graph, build_tree, degree_stats,
)
from treembed.rational import as_fraction


def naive_embed_exists(tree_graph: SimpleGraph, host: SimpleGraph) -> bool:
    """Try every injective map tree -> host."""
    if tree_graph.n > host.n:
        return False
    edges = list(tree_graph.edges())
    for perm in itertools.permutations(range(host.n), tree_graph.n):
        if all(host.has_edge(perm[u], perm[v]) for u, v in edges):
            return True
    return False


def brute_bipartition_exists(g: SimpleGraph) -> bool:
    """Try every 2-coloring; feasible only for small n."""
    for bits in range(1 << g.n):
        if all((bits >> u & 1) != (bits >> v & 1) for u, v in g.edges()):
            return True
    return False


def _connected_after_removal(g: SimpleGraph, removed: set[int]) -> bool:
    remaining = [v for v in range(g.n) if v not in removed]
    if len(remaining) <= 1:
        return True
    seen = {remaining[0]}
    queue = deque([remaining[0]])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(remaining)


def brute_vertex_connectivity(g: SimpleGraph) -> int:
    """Smallest separator by subset enumeration; complete graphs get n-1."""
    for size in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), size):
            if not _connected_after_removal(g, set(cut)):
                return size
    return g.n - 1


def induced_by_edges(g: SimpleGraph, vertices) -> tuple[SimpleGraph, dict[int, int]]:
    """The subgraph of g on vertices, relabeled in ascending order, and the
    old-to-new id map; built by build_graph over the kept edges and tags."""
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return build_graph(len(vs), edges, {index[v]: g.tags[v] for v in vs if v in g.tags}), index


def brute_max_component_orders(tree: TreeGraph) -> list[int]:
    """Per vertex v: the largest component order of T - v, one BFS per vertex."""
    g = tree.graph
    result = []
    for z in range(g.n):
        seen = {z}
        worst = 0
        for s in range(g.n):
            if s in seen:
                continue
            seen.add(s)
            queue = deque([s])
            size = 1
            while queue:
                u = queue.popleft()
                for w in g.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        size += 1
                        queue.append(w)
            worst = max(worst, size)
        result.append(worst)
    return result


def keyed_chain_prev(g: SimpleGraph, root: int) -> list:
    """_Backtracker.chain_prev as first built, with the leaves matched: a
    BFS from root over ascending neighbors, every vertex, leaves too, coded
    by the sorted codes of its children, and each searched child (one with
    children of its own) chained to the previous searched child of its
    parent with the same code, or None."""
    parent = [-1] * g.n
    order, seen = [root], {root}
    for u in order:  # grows while it runs
        for w in sorted(g.adj[u]):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
    children = [[] for _ in range(g.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    codes = [0] * g.n
    table = {}
    for v in reversed(order):
        codes[v] = table.setdefault(tuple(sorted(codes[c] for c in children[v])), len(table))
    searched = [v == root or bool(children[v]) for v in range(g.n)]
    prev = [None] * g.n
    for v in order:
        last = {}
        for c in children[v]:
            if searched[c]:
                prev[c] = last.get(codes[c])
                last[codes[c]] = c
    return prev


def multi_pass_search_tables(g: SimpleGraph, root: int, symmetry: bool) -> dict:
    """_Backtracker's tree tables, one pass each as first built: a BFS from
    root over ascending neighbors, the children from it, the leaves (with
    symmetry, the childless vertices but the root), the search order of
    the others, then per searched vertex the children of its parent still
    unplaced after it, leaves included, and per searched vertex its leaves
    as one group, numbered in search order."""
    parent = [-1] * g.n
    order, seen = [root], {root}
    for u in order:  # grows while it runs
        for w in sorted(g.adj[u]):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
    children = [[] for _ in range(g.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    leaf = [symmetry and v != root and not children[v] for v in range(g.n)]
    search = [v for v in order if not leaf[v]]
    sib_rest = {}
    for u in search:
        searched = [c for c in children[u] if not leaf[c]]
        for i, c in enumerate(searched):
            sib_rest[c] = len(children[u]) - i - 1
    group_leaves, ranges = [], {}
    for u in search:
        leaves = [c for c in children[u] if leaf[c]]
        start = len(group_leaves)
        if leaves:
            group_leaves.append(leaves)
        ranges[u] = (start, len(group_leaves))
    return {
        "order": search,
        "parent": {v: parent[v] for v in search},
        "child_count": [len(c) for c in children],
        "sib_rest": {v: sib_rest.get(v, 0) for v in search},
        "ranges": ranges,
        "demand": [len(leaves) for leaves in group_leaves],
        "group_leaves": group_leaves,
    }


def capped_sequences(max_len: int, total: int):
    """All tuples of positive integers, length <= max_len, sum <= total,
    every entry <= ceil(total/2).  The partition lemma input space."""
    cap = (total + 1) // 2
    def extend(prefix: tuple[int, ...], remaining: int):
        yield prefix
        if len(prefix) == max_len:
            return
        for nxt in range(1, min(cap, remaining) + 1):
            yield from extend(prefix + (nxt,), remaining - nxt)
    for first in range(1, min(cap, total) + 1):
        yield from extend((first,), total - first)


def brute_automorphism(g: SimpleGraph, pinned: dict[int, int], profile=None) -> list[int] | None:
    """An automorphism of g that maps each vertex in pinned to its value,
    and every vertex to one of the same profile (by default its degree),
    or None when there is none.  The map is extended vertex by vertex, the
    pinned ones first and then in BFS order from them, in every way that
    keeps the profile and the edges to the vertices mapped so far.
    Feasible only for small n."""
    if profile is None:
        profile = [len(row) for row in g.adj]
    nbrs = [set(row) for row in g.adj]
    order = list(pinned)
    head = 0
    while len(order) < g.n:
        if head == len(order):
            order.append(min(set(range(g.n)).difference(order)))
        order += [w for w in g.adj[order[head]] if w not in order]
        head += 1
    perm = [-1] * g.n
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        for w in [pinned[v]] if v in pinned else range(g.n):
            if w in used or profile[w] != profile[v]:
                continue
            if any((x in nbrs[v]) != (perm[x] in nbrs[w]) for x in order[:i]):
                continue
            perm[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            used.remove(w)
        return False

    return perm if extend(0) else None


def brute_stabiliser_orbits(g: SimpleGraph, fixed: set[int]) -> list[set[int]]:
    """Orbits of the automorphisms fixing every vertex in fixed.  Such an
    automorphism keeps each vertex's profile: its distances to the fixed
    vertices and the sorted (distance, degree) of every vertex from it.
    Two vertices of one profile not yet in one orbit are asked of
    brute_automorphism, and an automorphism found joins every vertex with
    its image.  Feasible only for small n."""
    dist = []
    for v in range(g.n):
        dist.append([-1] * g.n)
        dist[v][v] = 0
        queue = [v]
        for u in queue:  # grows while it runs
            for w in g.adj[u]:
                if dist[v][w] < 0:
                    dist[v][w] = dist[v][u] + 1
                    queue.append(w)
    degs = [len(row) for row in g.adj]
    profile = [(tuple(dist[v][f] for f in sorted(fixed)), tuple(sorted(zip(dist[v], degs))))
               for v in range(g.n)]
    orbit = [{v} for v in range(g.n)]
    for v in range(g.n):
        for w in range(v + 1, g.n):
            if w in orbit[v] or v in fixed or profile[v] != profile[w]:
                continue
            perm = brute_automorphism(g, {**{x: x for x in fixed}, v: w}, profile)
            for x, y in enumerate(perm or ()):
                joined = orbit[x] | orbit[y]
                for z in joined:
                    orbit[z] = joined
    return orbit


def brute_pair_families(g: SimpleGraph) -> list[list[tuple[int, int]]]:
    """TwinQuotient.pair_families from their definition over vertices, as
    the pairs (v, u), v < u, of each family, sorted: edges between two
    vertices of singleton twin classes, at least one of which has no other
    singleton neighbour, and whose ends are in no other such edge, grouped
    by the two sets of vertices other than each other that their ends
    see."""
    class_of = value_keyed_twins(g)[0]
    single = {v for v in range(g.n) if class_of.count(class_of[v]) == 1}
    nbrs = [set(row) for row in g.adj]
    pairs = {(v, u) for v in single for u in nbrs[v] & single
             if v < u and (nbrs[v] & single == {u} or nbrs[u] & single == {v})}
    ends = [v for pair in pairs for v in pair]
    families: dict[frozenset, list[tuple[int, int]]] = {}
    for v, u in sorted(pairs):
        if ends.count(v) == ends.count(u) == 1:
            key = frozenset((frozenset(nbrs[v] - {u}), frozenset(nbrs[u] - {v})))
            families.setdefault(key, []).append((v, u))
    return sorted(pairs for pairs in families.values() if len(pairs) > 1)


def pair_swap_keeps_edges(g: SimpleGraph, edges: set, one: tuple, other: tuple) -> bool:
    """Whether swapping the pair one with the pair other, end for end,
    maps the edge set onto itself: every edge at the four moved vertices
    must map onto an edge, and the other edges stay put."""
    perm = {one[0]: other[0], other[0]: one[0], one[1]: other[1], other[1]: one[1]}
    return all(
        tuple(sorted((perm.get(x, x), perm.get(y, y)))) in edges
        for x in perm
        for y in g.adj[x]
    )


def planted_pairs_host(rng: random.Random) -> SimpleGraph:
    """Blocks of twins with families of matched pairs planted on them.  A
    family's first ends take one run of ids and their partners the next,
    in order (one offset) or shuffled (mixed offsets, which must not split
    it).  The partners may see the same blocks as the first ends, which
    makes each pair a class of closed twins, and one extra vertex may give
    an end a second singleton neighbour, with which it forms a second pair,
    so that it is in none."""
    n = 0

    def run(count: int) -> list[int]:
        nonlocal n
        n += count
        return list(range(n - count, n))

    edges: set[tuple[int, int]] = set()

    def join(v: int, blocks: list[list[int]]) -> None:
        edges.update(tuple(sorted((v, w))) for blk in blocks for w in blk)

    blocks = [run(rng.randrange(2, 4)) for _ in range(rng.randrange(1, 4))]
    for blk in blocks:
        if rng.random() < 0.5:
            edges.update(itertools.combinations(blk, 2))
    for x, y in itertools.combinations(blocks, 2):
        if rng.random() < 0.3:
            edges.update((u, v) for u in x for v in y)
    ends = []
    for _ in range(rng.randrange(1, 3)):
        firsts = run(rng.randrange(2, 7))
        partners = run(len(firsts))
        if rng.random() < 0.5:
            rng.shuffle(partners)
        near = rng.sample(blocks, rng.randrange(len(blocks) + 1))
        far = near if rng.random() < 0.2 else rng.sample(blocks, rng.randrange(len(blocks) + 1))
        for v, u in zip(firsts, partners):
            edges.add((v, u))
            join(v, near)
            join(u, far)
        ends += firsts + partners
    if rng.random() < 0.5:
        (z,) = run(1)
        edges.add((rng.choice(ends), z))
        join(z, rng.sample(blocks, 1))
    return build_graph(n, sorted(edges))


def brute_hall_holds(nbrs: list[int], demand: list[int]) -> bool:
    """Hall's condition for groups with neighborhood bitmasks nbrs and
    demands, over every nonempty subset."""
    for size in range(1, len(nbrs) + 1):
        for subset in itertools.combinations(range(len(nbrs)), size):
            union = 0
            for g in subset:
                union |= nbrs[g]
            if bin(union).count("1") < sum(demand[g] for g in subset):
                return False
    return True


def flow_hall_holds(nbrs: list[int], demand: list[int]) -> bool:
    """Whether the groups with neighborhood bitmasks nbrs have a complete
    b-matching, from scratch: group g appears as demand[g] copies, and
    each copy in turn is matched by a depth-first augmenting path."""
    width = max(nbrs, default=0).bit_length()
    rows = [[w for w in range(width) if mask >> w & 1] for mask in nbrs]
    copies = [g for g, d in enumerate(demand) for _ in range(d)]
    owner: dict[int, int] = {}

    def augment(c: int, visited: set[int]) -> bool:
        for w in rows[copies[c]]:
            if w not in visited:
                visited.add(w)
                if w not in owner or augment(owner[w], visited):
                    owner[w] = c
                    return True
        return False

    return all(augment(c, set()) for c in range(len(copies)))


def bitwise_top_bits(mask: int, count: int) -> int:
    """The count highest set bits of mask, peeled off one at a time."""
    got = 0
    for _ in range(count):
        if not mask:
            break
        top = 1 << (mask.bit_length() - 1)
        got |= top
        mask ^= top
    return got


def has_edge_violations(tree: TreeGraph, host: SimpleGraph, mapping) -> list[str]:
    """embedding_violations' checks and messages in the same order, with
    every tree edge tested through host.has_edge."""
    g = tree.graph
    issues = []
    for v in range(g.n):
        if v not in mapping:
            issues.append(f"vertex {v} has no image")
    images = {}
    for v, w in mapping.items():
        if not (0 <= v < g.n):
            issues.append(f"mapped vertex {v} is not a tree vertex")
            continue
        if not (0 <= w < host.n):
            issues.append(f"image {w} of vertex {v} is not a host vertex")
            continue
        if w in images:
            issues.append(f"vertices {images[w]} and {v} share the image {w}")
        images[w] = v
    if issues:
        return issues
    for u, v in g.edges():
        if not host.has_edge(mapping[u], mapping[v]):
            issues.append(
                f"tree edge ({u}, {v}) maps to non-edge ({mapping[u]}, {mapping[v]})"
            )
    return issues


def value_keyed_twins(g: SimpleGraph) -> tuple[list[int], list[bool], list[list[int]]]:
    """TwinQuotient.of_graph's class_of, clique and adj, with every
    vertex's mask counted and keyed by value."""
    masks = g.adjacency_masks
    counts: dict[int, int] = {}
    for m in masks:
        counts[m] = counts.get(m, 0) + 1
    table: dict[int, int] = {}
    class_of = []
    reps: list[int] = []
    clique: list[bool] = []
    for w, m in enumerate(masks):
        key = m if counts[m] > 1 else m | 1 << w
        c = table.setdefault(key, len(table))
        if c == len(reps):
            reps.append(w)
            clique.append(False)
        elif key != m:
            clique[c] = True
        class_of.append(c)
    adj = [
        sorted({class_of[w] for w in reps if masks[r] >> w & 1} - {c})
        for c, r in enumerate(reps)
    ]
    return class_of, clique, adj


def _blocks(*sizes: tuple[str, int]) -> dict[str, tuple[int, ...]]:
    """Consecutive vertex blocks after a hub at 0, the generators' layout."""
    blocks: dict[str, tuple[int, ...]] = {"hub": (0,)}
    nxt = 1
    for name, size in sizes:
        blocks[name] = tuple(range(nxt, nxt + size))
        nxt += size
    return blocks


def _edge_list_graph(blocks: dict[str, tuple[int, ...]], edges: list) -> SimpleGraph:
    tags = {v: name for name, vs in blocks.items() for v in vs}
    return build_graph(sum(map(len, blocks.values())), edges, tags)


def _hub_and_wing_edges(blocks: dict[str, tuple[int, ...]], *wings: tuple[str, str]) -> list:
    edges = []
    for a_name, b_name in wings:
        for u in blocks[a_name]:
            edges.append((0, u))
            for v in blocks[b_name]:
                edges.append((u, v))
    return edges


def two_wing_edge_list(params: ExtremalParams) -> SimpleGraph:
    """families.two_wing_host's graph, built edge by edge."""
    a, b = params.wing_a_order, params.wing_b_order
    blocks = _blocks(("A1", a), ("B1", b), ("A2", a), ("B2", b))
    return _edge_list_graph(blocks, _hub_and_wing_edges(blocks, ("A1", "B1"), ("A2", "B2")))


def wing_clique_edge_list(params: ExtremalParams) -> SimpleGraph:
    """families.wing_clique_host's graph, built edge by edge."""
    a, b, cq = params.wing_a_order, params.wing_b_order, params.clique_order
    blocks = _blocks(("A1", a), ("B1", b), ("clique", cq))
    edges = _hub_and_wing_edges(blocks, ("A1", "B1"))
    clique = blocks["clique"]
    edges.extend((0, v) for v in clique)
    for i, u in enumerate(clique):
        for v in clique[i + 1 :]:
            edges.append((u, v))
    return _edge_list_graph(blocks, edges)


def matched_wing_edge_list(params: ExtremalParams) -> SimpleGraph:
    """families.matched_wing_host's graph, built edge by edge."""
    a, b = params.matched_wing_a_order, params.wing_b_order
    blocks = _blocks(("A1", a), ("B1", b), ("A2", a), ("B2", b))
    edges = _hub_and_wing_edges(blocks, ("A1", "B1"), ("A2", "B2"))
    edges.extend(zip(blocks["B1"], blocks["B2"]))
    return _edge_list_graph(blocks, edges)


def complete_bipartite_edge_list(n1: int, n2: int) -> SimpleGraph:
    """families.complete_bipartite's graph, built edge by edge."""
    side_a = tuple(range(n1))
    side_b = tuple(range(n1, n1 + n2))
    edges = [(u, v) for u in side_a for v in side_b]
    return _edge_list_graph({"A1": side_a, "B1": side_b}, edges)


def cliques_with_apex_edge_list(order: int, count: int) -> SimpleGraph:
    """families.cliques_with_apex's graph, built edge by edge."""
    edges = []
    for i in range(count):
        block = tuple(range(1 + i * order, 1 + (i + 1) * order))
        for v in block:
            edges.append((0, v))
        for a_idx, u in enumerate(block):
            for v in block[a_idx + 1 :]:
                edges.append((u, v))
    blocks = {"hub": (0,), "clique": tuple(range(1, 1 + order * count))}
    return _edge_list_graph(blocks, edges)


def rank_and_prefixes(g: SimpleGraph, degrees) -> tuple[list[int], dict[int, int]]:
    """The exact search's rank of each host vertex (by descending degree,
    ties to the smaller id) and the mask of the vertices of degree at least
    d for each d in degrees, built in one pass along the rank order."""
    host_degs = g.degrees
    by_rank = sorted(range(g.n), key=host_degs.__getitem__, reverse=True)
    rank = [0] * g.n
    for idx, w in enumerate(by_rank):
        rank[w] = idx
    prefix: dict[int, int] = {}
    wanted = sorted(set(degrees), reverse=True)
    mask = 0
    for w in by_rank:
        while wanted and host_degs[w] < wanted[0]:
            prefix[wanted.pop(0)] = mask
        mask |= 1 << w
    for d in wanted:
        prefix[d] = mask
    return rank, prefix


def refine(adj, col, cells, queue) -> None:
    """graphs._refine as first written: every queued cell's neighbor
    counts summed member by member, and every cell hit considered for a
    split, one member or not."""
    head = 0
    while head < len(queue):
        counts: dict[int, int] = {}
        for x in cells[queue[head]]:
            for y in adj[x]:
                counts[y] = counts.get(y, 0) + 1
        head += 1
        hit: dict[int, dict[int, set[int]]] = {}
        for y, k in counts.items():
            hit.setdefault(col[y], {}).setdefault(k, set()).add(y)
        for colour in sorted(hit):
            by_count = hit[colour]
            parts = [by_count[k] for k in sorted(by_count)]
            cell = cells[colour]
            if sum(map(len, parts)) < len(cell):
                parts.insert(0, cell.difference(*parts))
            if len(parts) == 1:
                continue
            keep = max(range(len(parts)), key=lambda i: (len(parts[i]), -i))
            cells[colour] = parts.pop(keep)
            for part in parts:
                for x in part:
                    col[x] = len(cells)
                queue.append(len(cells))
                cells.append(part)


def base_partition(q):
    """TwinQuotient.partition through refine."""
    ids = {key: i for i, key in enumerate(sorted(set(q.colour_key)))}
    col = [ids[key] for key in q.colour_key]
    cells = [set() for _ in ids]
    for c, x in enumerate(col):
        cells[x].add(c)
    refine(q.adj, col, cells, list(range(len(cells))))
    return col, cells


def is_automorphism(q, perm) -> bool:
    """TwinQuotient._is_automorphism as first written: per class, the
    colour of its image and the mask of its neighbors' images against the
    image's neighbor mask."""
    key = q.colour_key
    masks = [sum(1 << d for d in nbrs) for nbrs in q.adj]
    for c, nbrs in enumerate(q.adj):
        image = perm[c]
        if key[image] != key[c]:
            return False
        mask = 0
        for d in nbrs:
            mask |= 1 << perm[d]
        if mask != masks[image]:
            return False
    return True


def peel_one_per_class(cand: int, q) -> list[int]:
    """The smallest member of each class meeting cand, in ascending order,
    as the exact search first found them: peel the lowest bit off and
    clear its whole class with the class's complement mask."""
    others = [~sum(1 << v for v in q.members[c]) for c in q.class_of]
    chosen = []
    while cand:
        w = (cand & -cand).bit_length() - 1
        chosen.append(w)
        cand &= others[w]
    return chosen


def per_draw_random_tree(
    k: int,
    rng: random.Random,
    max_degree: int | None = None,
    attempts: int = 1000,
) -> TreeGraph:
    """randgen.random_tree one draw at a time: rng.randrange(n) per code
    entry, a heap decode to an edge list, build_tree, and the degree cap
    read from the built tree."""
    if k < 0:
        raise GraphError(f"edge count must be non-negative, got {k}")
    n = k + 1
    if max_degree is not None and max_degree < 2 and n > max_degree + 1:
        raise GraphError(f"no tree on {n} vertices has max degree {max_degree}")
    if n == 1:
        return build_tree(1, [])
    if n == 2:
        return build_tree(2, [(0, 1)])
    for _ in range(attempts):
        code = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in code:
            degree[v] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        edges = []
        for v in code:
            edges.append((heapq.heappop(leaves), v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
        tree = build_tree(n, edges)
        if max_degree is None or degree_stats(tree.graph).max_degree <= max_degree:
            return tree
    raise GraphError(
        f"no tree with {k} edges and max degree {max_degree} in {attempts} attempts"
    )


def per_draw_random_host(
    n: int,
    k: int,
    alpha,
    rng: random.Random,
    attempts: int = 200,
) -> SimpleGraph:
    """randgen.random_host one draw at a time: rng.random() < p for each
    pair u < v in lexicographic order, the pairs (0, v) with v in the hub
    taking no draw, and each mask read from its row and its column."""
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
    for _ in range(attempts):
        hub = set(rng.sample(range(1, n), d_plant))
        rows = []
        for u in range(n):
            row, planted = bytearray(b"0" * n), hub if u == 0 else ()
            for v in range(u + 1, n):
                if v in planted or rng.random() < p:
                    row[v] = 49
            rows.append(row)
        stacked = b"".join(rows)
        masks = tuple(
            int(rows[u][::-1], 2) | int(stacked[u::n][::-1], 2) for u in range(n)
        )
        g = SimpleGraph.from_masks(n, masks)
        stats = degree_stats(g)
        if stats.min_degree >= d_min and stats.max_degree >= d_plant:
            return g
    raise GraphError(f"no host met the degree bounds in {attempts} attempts")
