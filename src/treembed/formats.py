"""Reading and writing graphs, witnesses, and run reports.

The JSON layout is the full fidelity format and carries vertex tags and
generator metadata.  DIMACS edge lists are supported for interchange with
standard tooling but drop tags and metadata by design.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Optional, Union

from .graphs import VERTEX_TAGS, GraphError, SimpleGraph, build_graph

FORMAT_TAG = "treex-graph-v1"


class ParseError(ValueError):
    """A file or payload that does not parse as a graph."""


def _edge_text(g: SimpleGraph, template: str, sep: str, base: int = 0) -> str:
    """Every edge (u + base, v + base) filled into template, joined by sep.
    Each row of edges is joined on its own, so the strings of at most one
    row are alive at a time rather than one per edge of the graph."""
    rows = groupby(g.edges(), key=itemgetter(0))
    return sep.join(
        sep.join(template.format(u + base, v + base) for u, v in row) for _, row in rows
    )


def graph_to_json(g: SimpleGraph, meta: Optional[Mapping] = None) -> str:
    """The document of format, n, edges ([u, v] with u < v, ascending),
    tags (keyed by str(v)) and meta; one top-level key per line, edge
    pairs kept compact, written without building an edge list."""
    tags = {str(v): g.tags[v] for v in sorted(g.tags)}
    return (
        "{\n"
        f'  "format": {json.dumps(FORMAT_TAG)},\n'
        f'  "n": {g.n},\n'
        f'  "edges": [{_edge_text(g, "[{}, {}]", ", ")}],\n'
        f'  "tags": {json.dumps(tags)},\n'
        f'  "meta": {json.dumps(dict(meta) if meta else {})}\n'
        "}\n"
    )


def graph_from_payload(payload: Mapping) -> tuple[SimpleGraph, dict]:
    """Graph plus the meta dict; raises ParseError on any malformation."""
    if not isinstance(payload, Mapping):
        raise ParseError("payload must be a JSON object")
    tag = payload.get("format")
    if tag != FORMAT_TAG:
        raise ParseError(f"unsupported format tag {tag!r}, expected {FORMAT_TAG!r}")
    n = payload.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError(f"n must be a non-negative integer, got {n!r}")
    edges = payload.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError("edges must be a list of pairs")
    pairs = []
    for item in edges:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ParseError(f"malformed edge entry {item!r}")
        pairs.append((item[0], item[1]))
    tags = {}
    raw_tags = payload.get("tags", {})
    if not isinstance(raw_tags, Mapping):
        raise ParseError("tags must be an object")
    for key, role in raw_tags.items():
        # only the writer's spelling: int() also reads "1_0", " 1", "+1" and
        # "01", and two spellings of one vertex would overwrite each other
        try:
            v = int(key)
        except (TypeError, ValueError):
            v = None
        if v is None or key != str(v):
            raise ParseError(f"tag key {key!r} is not a vertex id")
        # a list or object role is unhashable, so test its type first
        if not isinstance(role, str) or role not in VERTEX_TAGS:
            raise ParseError(f"unknown vertex tag {role!r} on vertex {v}")
        tags[v] = role
    meta = payload.get("meta", {})
    if not isinstance(meta, Mapping):
        raise ParseError("meta must be an object")
    try:
        g = build_graph(n, pairs, tags=tags)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
    return g, dict(meta)


def graph_from_json(text: str) -> tuple[SimpleGraph, dict]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return graph_from_payload(payload)


def graph_to_dimacs(g: SimpleGraph) -> str:
    """DIMACS edge format, 1-indexed.  Tags and metadata are not carried."""
    # each edge line brings its own newline, so no edges leave the header alone
    edges = _edge_text(g, "\ne {} {}", "", base=1)
    return f"p edge {g.n} {g.m}{edges}\n"


def graph_from_dimacs(text: str) -> SimpleGraph:
    """Tolerant DIMACS reader.

    Comment lines pass, duplicate edge lines count toward the declared
    size but are folded into one edge with a warning; self loops and out
    of range endpoints are rejected.
    """
    n = None
    declared_m = None
    raw_edges = 0
    edges = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        fields = stripped.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: second problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(f"line {lineno}: malformed problem line {stripped!r}")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer problem line") from None
        elif fields[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: malformed edge line {stripped!r}")
            try:
                u, v = int(fields[1]) - 1, int(fields[2]) - 1
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint") from None
            if u == v:
                raise ParseError(f"line {lineno}: self loop on vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: endpoint out of range")
            raw_edges += 1
            key = (min(u, v), max(u, v))
            if key in edges:
                warnings.warn(f"duplicate edge {u + 1} {v + 1} folded", stacklevel=2)
            edges.add(key)
        else:
            raise ParseError(f"line {lineno}: unrecognized line {stripped!r}")
    if n is None:
        raise ParseError("missing problem line")
    if declared_m != raw_edges:
        raise ParseError(f"problem line declares {declared_m} edges, found {raw_edges}")
    try:
        return build_graph(n, sorted(edges))
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def sniff_format(text: str) -> str:
    head = text.lstrip()
    return "json" if head.startswith("{") else "dimacs"


def parse_graph_text(text: str, fmt: Optional[str] = None) -> tuple[SimpleGraph, dict]:
    fmt = fmt or sniff_format(text)
    if fmt == "json":
        return graph_from_json(text)
    if fmt == "dimacs":
        return graph_from_dimacs(text), {}
    raise ParseError(f"unknown format {fmt!r}")


def parse_graph_file(path: Union[str, Path]) -> tuple[SimpleGraph, dict]:
    """Format chosen by extension (.json or .col/.dimacs), else by content."""
    p = Path(path)
    fmt = None
    suffix = p.suffix.lower()
    if suffix == ".json":
        fmt = "json"
    elif suffix in (".col", ".dimacs"):
        fmt = "dimacs"
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p} is not UTF-8 text: {exc}") from exc
    return parse_graph_text(text, fmt)


def witness_to_text(mapping: Mapping[int, int]) -> str:
    """One 'tree_vertex host_vertex' pair per line, sorted by tree vertex."""
    return "".join(f"{v} {w}\n" for v, w in sorted(mapping.items()))


def witness_from_text(text: str) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected two integers")
        try:
            v, w = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer entry") from None
        if v in mapping:
            raise ParseError(f"line {lineno}: vertex {v} mapped twice")
        mapping[v] = w
    return mapping


@dataclass
class InstanceReport:
    """One stress trial or check, as a JSONL row.

    elapsed_ms is only emitted when timings are requested, so default runs
    with one seed produce byte-identical output.
    """

    instance_id: str
    family: str
    params: dict = field(default_factory=dict)
    n: int = 0
    m: int = 0
    min_degree: int = 0
    max_degree: int = 0
    k: int = 0
    verdict: str = ""
    counterexample: bool = False
    witness: Optional[dict[int, int]] = None
    nodes_explored: int = 0
    seed: Optional[int] = None
    elapsed_ms: Optional[float] = None

    def to_row(self, include_timings: bool = False) -> dict:
        """The fields in declaration order, witness keys as strings."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.witness is not None:
            row["witness"] = {str(v): w for v, w in sorted(self.witness.items())}
        if not include_timings:
            del row["elapsed_ms"]
        return row

    def to_jsonl(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_row(include_timings), separators=(",", ": "))
