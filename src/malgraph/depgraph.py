"""Weighted instruction-dependency graphs.

Nodes are trace instructions; a data edge producer → consumer is inserted when
a consumer's source register resolves, under the most-recent-definition rule,
to an earlier instruction's destination.  Edge weight is the byte size of the
producer's result type.  Optional extras: memory edges (most recent store to a
matching ``addr`` annotation → later load, weight = stored size) and control
edges (branch/ret → next instruction in trace order, weight 1).

The JSON interchange format written here is canonical: node order is id order,
edges are sorted by (src, dst, kind), and serialization is key-order and
whitespace stable, so equal graphs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyGraph, GraphFormatError, IoError, MalformedFile, VersionMismatch
from .ir import TraceUnit, ValueType, format_type, parse_type_token, sizeof_type

EDGE_KINDS = ("data", "control", "memory")


@dataclass(frozen=True)
class DepNode:
    id: int
    opcode: str
    result_type: ValueType


@dataclass(frozen=True)
class DepEdge:
    src: int
    dst: int
    weight: int
    kind: str


@dataclass(frozen=True)
class DepGraph:
    """Immutable dependency graph; `edges` is always sorted by (src, dst, kind)."""

    nodes: tuple[DepNode, ...]
    edges: tuple[DepEdge, ...]
    label: int | None = None
    family: str | None = None
    origin: str = ""

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _sort_edges(edges) -> tuple[DepEdge, ...]:
    return tuple(sorted(edges, key=lambda e: (e.src, e.dst, e.kind)))


def build_graph(unit: TraceUnit, *, control_edges: bool = False,
                memory_edges: bool = False) -> DepGraph:
    """Construct the dependency graph of a parsed unit.

    Sources are resolved before the instruction's own destination is recorded,
    so a redefinition like `%a = add i32 %a, %b` depends on the previous `%a`
    and data edges always point strictly forward in trace order.
    """
    insts = unit.instructions
    nodes = tuple(DepNode(i.index, i.opcode, i.result_type) for i in insts)

    keys: set[tuple[int, int, str]] = set()
    last_def = {}
    last_store = {}
    for inst in insts:
        for src in inst.sources:
            p = last_def.get(src)
            if p is not None:
                keys.add((p, inst.index, "data"))
        if memory_edges and inst.opcode == "load" and inst.mem_addr is not None:
            p = last_store.get(inst.mem_addr)
            if p is not None:
                keys.add((p, inst.index, "memory"))
        if control_edges and inst.opcode in ("br", "ret") and inst.index + 1 < len(insts):
            keys.add((inst.index, inst.index + 1, "control"))
        if inst.dest is not None:
            last_def[inst.dest] = inst.index
        if memory_edges and inst.opcode == "store" and inst.mem_addr is not None:
            last_store[inst.mem_addr] = inst.index

    # weights once per distinct edge: the producer's result size, 1 for control
    edges = tuple(DepEdge(s, d, 1 if k == "control" else sizeof_type(insts[s].result_type), k)
                  for s, d, k in sorted(keys))
    return DepGraph(nodes=nodes, edges=edges, origin=unit.origin)


# --- interchange format -----------------------------------------------------

def to_json(g: DepGraph) -> bytes:
    """Canonical serialization; equal graphs give identical bytes."""
    obj = {
        "version": 1,
        "origin": g.origin,
        "label": g.label,
        "family": g.family,
        "nodes": [{"id": n.id, "op": n.opcode, "type": format_type(n.result_type)}
                  for n in g.nodes],
        "edges": [{"src": e.src, "dst": e.dst, "w": e.weight, "kind": e.kind}
                  for e in g.edges],
    }
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _require(cond: bool, detail: str):
    if not cond:
        raise GraphFormatError(detail)


def from_json(data) -> DepGraph:
    """Parse and validate a graph document (bytes or str)."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as e:  # ValueError covers decode and int-size errors
        raise GraphFormatError(f"not valid JSON: {e}") from None
    _require(isinstance(obj, dict), "top level must be an object")
    if obj.get("version") != 1:
        raise VersionMismatch(f"unsupported graph version {obj.get('version')!r}")
    for key in ("origin", "label", "family", "nodes", "edges"):
        _require(key in obj, f"missing field {key!r}")

    origin = obj["origin"]
    _require(isinstance(origin, str), "origin must be a string")
    label = obj["label"]
    _require(label is None or (type(label) is int and label in (0, 1)),
             "label must be 0, 1 or null")
    family = obj["family"]
    _require(family is None or isinstance(family, str), "family must be a string or null")
    _require(isinstance(obj["nodes"], list), "nodes must be an array")
    _require(isinstance(obj["edges"], list), "edges must be an array")
    if not obj["nodes"]:
        raise EmptyGraph(f"graph {origin!r} has no nodes")

    # messages naming an item are formatted only when its check fails
    nodes = []
    for item in obj["nodes"]:
        if not (isinstance(item, dict) and type(item.get("id")) is int
                and isinstance(item.get("op"), str) and isinstance(item.get("type"), str)):
            raise GraphFormatError(f"bad node entry: {item!r}")
        nodes.append(DepNode(item["id"], item["op"], parse_type_token(item["type"])))
    nodes.sort(key=lambda n: n.id)
    _require([n.id for n in nodes] == list(range(len(nodes))),
             "node ids must be dense 0..n-1")

    n = len(nodes)
    edges = []
    seen = set()
    for item in obj["edges"]:
        if not (isinstance(item, dict) and type(item.get("src")) is int
                and type(item.get("dst")) is int and type(item.get("w")) is int
                and item.get("kind") in EDGE_KINDS):
            raise GraphFormatError(f"bad edge entry: {item!r}")
        src, dst, w = item["src"], item["dst"], item["w"]
        if not (0 <= src < n and 0 <= dst < n):
            raise GraphFormatError(f"edge endpoint out of range: {item!r}")
        if w < 1:
            raise GraphFormatError(f"edge weight must be >= 1: {item!r}")
        key = (src, dst, item["kind"])
        if key in seen:
            raise GraphFormatError(f"duplicate edge {key!r}")
        seen.add(key)
        edges.append(DepEdge(src, dst, w, item["kind"]))

    return DepGraph(nodes=tuple(nodes), edges=_sort_edges(edges),
                    label=label, family=family, origin=origin)


def save_graph(g: DepGraph, path):
    path = Path(path)
    try:
        path.write_bytes(to_json(g))
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None


def load_graph(path) -> DepGraph:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from None
    try:
        return from_json(data)
    except (GraphFormatError, VersionMismatch, EmptyGraph) as e:
        raise MalformedFile(str(path), str(e)) from None
