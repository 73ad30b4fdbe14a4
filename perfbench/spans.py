"""In-memory span tracing of treembed's public functions.

The library has no tracing of its own, so the benchmark wraps every public
function of each treembed module and rebinds the wrapper wherever a module
holds the original (treembed.embedding.exact_embed, treembed.cli.exact_embed,
treembed.exact_embed, ...).  Calls that look the name up at call time then
record a span: name, start, end, parent span and instance id.  Nothing
under src/ changes; `Tracer.uninstall` restores every binding.

`layer_metrics` turns the spans of one or more traced passes into the
per-layer figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

# Modules whose public functions are traced, in layer order.
LAYERS = (
    "graphs", "families", "randgen", "decompose", "structure",
    "embedding", "formats", "cli",
)

# embedding entry points and the stage name each one stands for
STAGES = {
    "embedding.greedy_min_degree_embed": "greedy",
    "embedding.strategy_embed": "strategy",
    "embedding.forest_embed_component": "forest",
    "embedding.exact_embed": "exact",
    "embedding.auto_embed": "auto",
}

HOST_BUILDERS = ("families.two_wing_host", "families.wing_clique_host",
                 "families.matched_wing_host")
TREE_BUILDERS = ("families.broom_tree", "families.caterpillar")
PARTITIONS = ("decompose.partition_two", "decompose.partition_three",
              "decompose.split_family_by_cap")
BUILD_GRAPH_CALLERS = ("families", "randgen", "structure")


@dataclass
class Span:
    name: str
    parent: int
    instance: Any
    start: float = 0.0
    end: float = 0.0
    kind: Optional[str] = None     # verdict kind, for embedding results
    nodes: int = 0                 # nodes_explored, for embedding results
    max_nodes: Optional[int] = None  # node budget passed in, if any
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls made through the rebound module attributes.

    Single threaded: one stack of open spans.  `instance` is stamped on
    every span opened while it is set.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: Any = None
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a span for the duration of the block."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.instance)
        idx = len(self.spans)
        if parent >= 0:
            self.spans[parent].children.append(idx)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, budget_type=None):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            kind = getattr(result, "kind", None)
            if kind is not None and hasattr(result, "nodes_explored"):
                span.kind = kind.value
                span.nodes = result.nodes_explored
                if budget_type is not None:
                    for arg in (*args, *kwargs.values()):
                        if isinstance(arg, budget_type):
                            span.max_nodes = arg.max_nodes
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, tb) -> None:
        """Rebind every public treembed function to a tracing wrapper."""
        names: dict[int, tuple[str, Any]] = {}
        for layer in LAYERS:
            mod = getattr(tb, layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {
            key: self.wrap(name, obj, tb.Budget if name.startswith("embedding.") else None)
            for key, (name, obj) in names.items()
        }
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == tb.__name__ or n.startswith(tb.__name__ + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and names[id(obj)][1] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        report = tb.formats.InstanceReport
        self._restore.append((report, "to_jsonl", report.to_jsonl))
        report.to_jsonl = self.wrap("formats.to_jsonl", report.to_jsonl)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_time(spans: list[Span], idx: int) -> float:
    """Duration of a span minus the time its direct children cover.

    Children of one span run one after another on a single thread, so the
    part they cover is the sum of their durations.
    """
    span = spans[idx]
    return span.duration - sum(spans[c].duration for c in span.children)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _ratio(num: float, den: float) -> float:
    """num/den, and 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer figures from the spans of `passes` traced passes.

    Counts and times are per pass.  busy_s of a function sums its
    outermost spans only, so a recursive or re-entrant call is not counted
    twice.
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def busy(*names: str) -> float:
        return sum(spans[i].duration for n in names for i in by_name.get(n, ())
                   if not _has_ancestor(spans, i, n))

    def self_s(name: str) -> float:
        return sum(self_time(spans, i) for i in by_name.get(name, ()))

    def child_names(i: int) -> set[str]:
        return {spans[c].name for c in spans[i].children}

    def caller(i: int) -> str:
        """Layer of the nearest enclosing span outside the graphs layer."""
        p = spans[i].parent
        while p >= 0 and _layer(spans[p].name) == "graphs":
            p = spans[p].parent
        return _layer(spans[p].name) if p >= 0 else "benchmark"

    m: dict[str, float] = {}
    exact = "embedding.exact_embed"
    ex = by_name.get(exact, [])
    ex_nodes = sum(spans[i].nodes for i in ex)
    ex_busy = busy(exact)
    m["embedding.exact.calls"] = len(ex)
    m["embedding.exact.nodes"] = ex_nodes
    m["embedding.exact.decided_ratio"] = _ratio(
        sum(spans[i].kind in ("embedded", "not_embedded") for i in ex), len(ex))
    m["embedding.exact.timeouts"] = sum(spans[i].kind == "timeout" for i in ex)
    m["embedding.exact.busy_s"] = ex_busy
    m["embedding.exact.self_s"] = self_s(exact)
    m["embedding.exact.ms_per_call"] = _ratio(1000.0 * ex_busy, len(ex))
    m["embedding.exact.nodes_per_s"] = _ratio(ex_nodes, ex_busy)

    greedy = "embedding.greedy_min_degree_embed"
    gr = by_name.get(greedy, [])
    m["embedding.greedy.calls"] = len(gr)
    m["embedding.greedy.busy_s"] = busy(greedy)
    m["embedding.greedy.hit_ratio"] = _ratio(
        sum(spans[i].kind == "embedded" for i in gr), len(gr))

    strategy = "embedding.strategy_embed"
    st = by_name.get(strategy, [])
    fallback = [i for i in st if greedy in child_names(i)]
    pipeline = [i for i in st if greedy not in child_names(i)
                and "structure.classify_apex_structure" in child_names(i)]
    m["embedding.strategy.calls"] = len(st)
    m["embedding.strategy.busy_s"] = busy(strategy)
    m["embedding.strategy.self_s"] = self_s(strategy)
    m["embedding.strategy.pipeline_ratio"] = _ratio(len(pipeline), len(st))
    m["embedding.strategy.fallback_ratio"] = _ratio(len(fallback), len(st))

    forest = "embedding.forest_embed_component"
    fo = by_name.get(forest, [])
    m["embedding.forest.calls"] = len(fo)
    m["embedding.forest.busy_s"] = busy(forest)
    m["embedding.forest.nodes"] = sum(spans[i].nodes for i in fo)

    auto = auto_provenance(spans, by_name.get("embedding.auto_embed", []))
    m["embedding.auto.calls"] = len(auto)
    m["embedding.auto.nodes"] = sum(a["nodes"] for a in auto)
    m["embedding.auto.over_budget"] = sum(a["over_budget"] for a in auto)
    for stage in ("greedy", "strategy", "exact"):
        m[f"embedding.auto.answered_by_{stage}"] = sum(a["stage"] == stage for a in auto)

    classify = "structure.classify_apex_structure"
    m["structure.classify_apex_structure.busy_s"] = busy(classify)
    m["structure.classify_apex_structure.self_s"] = self_s(classify)
    m["graphs.induced_subgraph.busy_s"] = busy("graphs.induced_subgraph")
    m["graphs.components.busy_s"] = busy("graphs.components")
    m["decompose.find_separator.busy_s"] = busy("decompose.find_separator")
    m["decompose.partition.busy_s"] = busy(*PARTITIONS)

    hosts = by_name.get("randgen.random_host", [])
    attempts = sum(
        1 for i in by_name.get("graphs.build_graph", ())
        if _has_ancestor(spans, i, "randgen.random_host")
    )
    m["randgen.random_host.busy_s"] = busy("randgen.random_host")
    m["randgen.random_host.attempts_per_host"] = _ratio(attempts, len(hosts))
    m["randgen.random_tree.busy_s"] = busy("randgen.random_tree")

    bg = by_name.get("graphs.build_graph", [])
    m["graphs.build_graph.calls"] = len(bg)
    m["graphs.build_graph.busy_s"] = busy("graphs.build_graph")
    for layer in BUILD_GRAPH_CALLERS:
        mine = [i for i in bg if caller(i) == layer]
        m[f"graphs.build_graph.{layer}_calls"] = len(mine)
        m[f"graphs.build_graph.{layer}_busy_s"] = sum(spans[i].duration for i in mine)

    m["families.hosts.busy_s"] = busy(*HOST_BUILDERS)
    m["families.trees.busy_s"] = busy(*TREE_BUILDERS)
    m["formats.to_jsonl.busy_s"] = busy("formats.to_jsonl")
    m["cli.stress.self_s"] = self_s("cli.run_stress")
    m["trace.spans"] = len(spans)

    ratios = {k for k in m if k.endswith(("_ratio", "per_s", "per_call", "per_host"))}
    return {k: (v if k in ratios else v / passes) for k, v in m.items()}


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def auto_provenance(spans: list[Span], autos: list[int]) -> list[dict]:
    """For each auto_embed span: the stage that answered, the nodes summed
    over all its stages, and whether that sum passed the call's node budget."""
    out = []
    for i in autos:
        stages = [spans[c] for c in spans[i].children if spans[c].name in STAGES]
        nodes = sum(s.nodes for s in stages)
        answered = next(
            (STAGES[s.name] for s in stages if s.kind == "embedded"),
            STAGES[stages[-1].name] if stages else "none",
        )
        budget = spans[i].max_nodes
        out.append({
            "instance": spans[i].instance,
            "stage": answered,
            "nodes": nodes,
            "over_budget": budget is not None and nodes > budget,
        })
    return out
