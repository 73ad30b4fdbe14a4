"""The four benchmark workloads.

Each workload builds one pass of instances from the seed (`setup`), runs
one instance through the public treembed call a user would make (`run`),
and says which verdicts are wrong for it.  All calls go through module
attributes (tb.embedding.exact_embed, tb.cli.main, ...) so the tracer's
rebinding sees them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

# Per-instance node budget of every solver call the benchmark makes.  The
# stress command keeps its own built-in budget (200,000), which never binds
# there because greedy answers every trial.
NODE_BUDGET = 20_000

# The paper's extremal grid: families h, g, hprime; ell odd; k = c*ell*(ell+1).
FAMILIES = ("h", "g", "hprime")
ELLS = (3, 5, 7)
CS = (1, 2, 3)


@dataclass
class Instance:
    id: str
    tree: Any = None
    host: Any = None
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    kind: str                 # Verdict value: embedded, not_embedded, timeout, unknown
    nodes: int
    witness: Optional[dict] = None


def extremal_hosts(tb) -> list[tuple[str, Any, int, int]]:
    """(label, host graph, ell, k) for the 27 grid points, in grid order."""
    fam = tb.families
    builders = {"h": fam.two_wing_host, "g": fam.wing_clique_host,
                "hprime": fam.matched_wing_host}
    out = []
    for family in FAMILIES:
        for ell in ELLS:
            for c in CS:
                k = c * ell * (ell + 1)
                host = builders[family](fam.ExtremalParams(ell, c, k)).graph
                out.append((f"{family}({ell},{c},{k})", host, ell, k))
    return out


def _outcome(verdict) -> Outcome:
    return Outcome(verdict.kind.value, verdict.nodes_explored, verdict.embedding)


class Workload:
    name = ""
    why = ""
    # verdicts that are wrong by construction on this workload
    wrong_kinds: tuple[str, ...] = ()

    def setup(self, tb, seed: int, tmp: Path) -> list[Instance]:
        raise NotImplementedError

    def run(self, tb, inst: Instance) -> Outcome:
        raise NotImplementedError

    def graphs(self, tb, inst: Instance) -> tuple[Any, Any]:
        """The tree and host an instance was run on, for checking."""
        return inst.tree, inst.host


class ExtremalProofs(Workload):
    name = "extremal-proofs"
    why = ("brooms into the 27 h/g/hprime grid hosts through exact_embed: all "
           "unsatisfiable, all work in the exact search; pruning moves decided_share")
    wrong_kinds = ("embedded",)

    def setup(self, tb, seed, tmp):
        out = [
            Instance(label, tb.families.broom_tree(ell, k), host)
            for label, host, ell, k in extremal_hosts(tb)
        ]
        random.Random(seed).shuffle(out)
        return out

    def run(self, tb, inst):
        budget = tb.embedding.Budget(max_nodes=NODE_BUDGET)
        return _outcome(tb.embedding.exact_embed(inst.tree, inst.host, budget=budget))


class ExtremalWitnesses(Workload):
    name = "extremal-witnesses"
    why = ("random k-edge trees into the same 27 hosts through auto_embed: satisfiable, "
           "many small calls; shows the per-call cost of greedy and the exact set-up")
    trees_per_host = 40
    # About one tree in a thousand defeats greedy and then exhausts the node
    # budget in the exact search, costing as much as the rest of the pass.
    # Drawn per seed, such trees would swing search_nodes and instances_per_s
    # by half between seeds, so the trees come from one fixed corpus seed and
    # --seed only orders them.
    corpus_seed = 0

    def setup(self, tb, seed, tmp):
        rng = random.Random(self.corpus_seed)
        out = [
            Instance(f"{label}#{j}", tb.randgen.random_tree(k, rng), host)
            for label, host, _ell, k in extremal_hosts(tb)
            for j in range(self.trees_per_host)
        ]
        random.Random(seed).shuffle(out)
        return out

    def run(self, tb, inst):
        budget = tb.embedding.Budget(max_nodes=NODE_BUDGET)
        return _outcome(tb.embedding.auto_embed(inst.tree, inst.host, budget=budget))


class StrategyRouting(Workload):
    name = "strategy-routing"
    why = ("trees of 0.6k edges into the 27 hosts through strategy_embed: the only "
           "traffic through the apex classifier, decompose partitions and the forest embedder")
    wrong_kinds = ("not_embedded",)  # the strategy never refutes
    trees_per_host = 16

    def setup(self, tb, seed, tmp):
        rng = random.Random(seed)
        out = [
            Instance(f"{label}#{j}", tb.randgen.random_tree(round(0.6 * k), rng), host)
            for label, host, _ell, k in extremal_hosts(tb)
            for j in range(self.trees_per_host)
        ]
        rng.shuffle(out)
        return out

    def run(self, tb, inst):
        budget = tb.embedding.Budget(max_nodes=NODE_BUDGET)
        return _outcome(tb.embedding.strategy_embed(inst.tree, inst.host, budget=budget))


class RandomStress(Workload):
    name = "random-stress"
    why = ("the stress command, one trial per call through cli.main: random_host "
           "dominates and greedy answers, so only randgen and build_graph changes show")
    # (k, n, alpha) points of the stress command
    points = ((30, 70, "0"), (60, 140, "0"), (60, 140, "1/4"))
    trials_per_point = 50

    def setup(self, tb, seed, tmp):
        rng = random.Random(seed)
        out = []
        for k, n, alpha in self.points:
            for j in range(self.trials_per_point):
                master = rng.getrandbits(32)
                out.append(Instance(
                    f"stress(k={k},n={n},alpha={alpha})#{j}",
                    params={"k": k, "n": n, "alpha": alpha, "seed": master,
                            "out": str(tmp / "stress.jsonl")},
                ))
        rng.shuffle(out)
        return out

    def run(self, tb, inst):
        p = inst.params
        argv = ["stress", "--k", str(p["k"]), "--n", str(p["n"]), "--alpha", p["alpha"],
                "--trials", "1", "--seed", str(p["seed"]), "--out", p["out"]]
        code = tb.cli.main(argv)
        if code not in (0, 1):
            raise RuntimeError(f"stress exited with code {code}")
        row = json.loads(Path(p["out"]).read_text())
        witness = row["witness"]
        if witness is not None:
            witness = {int(v): w for v, w in witness.items()}
        return Outcome(row["verdict"], row["nodes_explored"], witness)

    def graphs(self, tb, inst):
        # the stress command's trial 0 for this master seed, generated again
        p = inst.params
        rng = random.Random(tb.randgen.trial_seed(p["seed"], 0))
        tree = tb.randgen.random_tree(p["k"], rng)
        host = tb.randgen.random_host(p["n"], p["k"], tb.rational.as_fraction(p["alpha"]), rng)
        return tree, host


WORKLOADS = {w.name: w for w in (ExtremalProofs(), ExtremalWitnesses(),
                                 RandomStress(), StrategyRouting())}
