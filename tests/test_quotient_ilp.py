"""A second oracle from another algorithm: the embedding problem as an
integer program over the host's twin quotient, solved by HiGHS.

Every twin class is a module, so a tree embeds in the host exactly when
its vertices can be sent to classes so that each class C receives at
most |C| of them and every tree edge lands on a quotient edge or inside a
clique class; the members of each class are then handed out in any order.
The program has one binary y[v][C] per tree vertex v and class C:

* sum over C of y[v][C] = 1 for each v;
* sum over v of y[v][C] <= |C| for each C;
* y[u][C] <= sum of y[v][D] over the classes D next to C, and C itself
  when C is a clique, for each tree edge uv and class C.

The classes come from oracles.value_keyed_twins, not from the library, and
nothing here calls the exact search except to compare verdicts with it.
"""

import random

import pytest

from treembed.embedding import Verdict, exact_embed
from treembed.families import (
    ExtremalParams,
    broom_tree,
    caterpillar,
    matched_wing_host,
    two_wing_host,
    wing_clique_host,
)
from treembed.randgen import random_tree

from oracles import value_keyed_twins

pytest.importorskip("scipy")
import numpy as np  # noqa: E402  (scipy brings numpy)
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402

# scipy.optimize.milp's status for a program with no feasible point
INFEASIBLE = 2
BUILDERS = {"h": two_wing_host, "g": wing_clique_host, "hprime": matched_wing_host}


def quotient_ilp_status(tree, host) -> int:
    """HiGHS's status on the quotient program of tree into host: 0 when a
    class map exists, INFEASIBLE when none does."""
    class_of, clique, adj = value_keyed_twins(host)
    size = [0] * len(clique)
    for c in class_of:
        size[c] += 1
    q, t = len(clique), tree.graph
    rows, cols, vals, lb, ub = [], [], [], [], []

    def row(entries, low, high):
        for col, val in entries:
            rows.append(len(lb))
            cols.append(col)
            vals.append(val)
        lb.append(low)
        ub.append(high)

    for v in range(t.n):
        row([(v * q + c, 1) for c in range(q)], 1, 1)
    for c in range(q):
        row([(v * q + c, 1) for v in range(t.n)], 0, size[c])
    for u, v in t.edges():
        for c in range(q):
            allowed = adj[c] + [c] if clique[c] else adj[c]
            row([(u * q + c, 1)] + [(v * q + d, -1) for d in allowed], -np.inf, 0)
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(lb), t.n * q))
    result = milp(
        np.zeros(t.n * q),
        constraints=LinearConstraint(matrix, lb, ub),
        integrality=np.ones(t.n * q),
        bounds=Bounds(0, 1),
    )
    return result.status


def grid_point(family, ell, c):
    k = c * ell * (ell + 1)
    return k, BUILDERS[family](ExtremalParams(ell, c, k)).graph


TIER1 = [(family, 3, c) for family in ("h", "g") for c in (1, 2, 3)] + [("hprime", 3, 1)]
STRETCH = [(family, ell, c) for family in ("h", "g") for ell in (5, 7) for c in (1, 2, 3)]
STRETCH += [("hprime", 3, 2), ("hprime", 3, 3), ("hprime", 5, 1)]


@pytest.mark.parametrize("family, ell, c", TIER1, ids=str)
def test_broom_refuted(family, ell, c):
    k, host = grid_point(family, ell, c)
    assert quotient_ilp_status(broom_tree(ell, k), host) == INFEASIBLE


@pytest.mark.stretch
@pytest.mark.parametrize("family, ell, c", STRETCH, ids=str)
def test_broom_refuted_stretch(family, ell, c):
    k, host = grid_point(family, ell, c)
    assert quotient_ilp_status(broom_tree(ell, k), host) == INFEASIBLE


def test_path_feasible():
    _, host = grid_point("h", 3, 1)
    assert quotient_ilp_status(caterpillar(12), host) == 0


def test_random_trees_agree_with_exact_search():
    # one random k-edge tree into each host at ell = 3
    rng = random.Random(22)
    for family in BUILDERS:
        for c in (1, 2, 3):
            k, host = grid_point(family, 3, c)
            tree = random_tree(k, rng)
            embedded = exact_embed(tree, host).kind is Verdict.EMBEDDED
            assert (quotient_ilp_status(tree, host) == 0) == embedded


@pytest.mark.stretch
def test_random_caterpillars_agree_with_exact_search():
    # short spines with many leaves, near the broom: both verdicts occur
    rng = random.Random(22)
    seen = set()
    for family in BUILDERS:
        for c in (1, 2, 3):
            k, host = grid_point(family, 3, c)
            for _ in range(6):
                spine = rng.randrange(1, 5)
                counts = [0] * (spine + 1)
                for _ in range(k - spine):
                    counts[rng.randrange(spine + 1)] += 1
                tree = caterpillar(spine, counts)
                embedded = exact_embed(tree, host).kind is Verdict.EMBEDDED
                assert (quotient_ilp_status(tree, host) == 0) == embedded
                seen.add(embedded)
    assert seen == {True, False}
