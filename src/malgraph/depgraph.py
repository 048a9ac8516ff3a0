"""Weighted instruction-dependency graphs, held as columns.

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

import numpy as np

from .errors import EmptyGraph, GraphFormatError, VersionMismatch, read_file, write_file
from .ir import TraceUnit, ValueType, format_type, parse_type_token, sizeof_type

# In name order, so sorting by kind index sorts by kind name.
EDGE_KINDS = ("control", "data", "memory")
CONTROL, DATA, MEMORY = range(3)


@dataclass(frozen=True, eq=False)
class DepGraph:
    """Immutable graph in the COO layout of PyTorch Geometric (Fey & Lenssen 2019).

    `edge_index` (2×E int64) holds each edge's (src, dst), sorted by (src, dst, kind);
    `edge_kind` indexes `EDGE_KINDS`; `edge_weight` holds Python ints, which can pass int64.
    """

    ops: tuple[str, ...]
    types: tuple[ValueType, ...]
    edge_index: np.ndarray
    edge_kind: np.ndarray
    edge_weight: tuple[int, ...]
    label: int | None = None
    family: str | None = None
    origin: str = ""

    @property
    def num_nodes(self) -> int:
        return len(self.ops)

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]


def _edge_columns(keys: np.ndarray, n: int):
    """Read-only (edge_index, edge_kind) of sorted keys (src*n + dst)*3 + kind."""
    pair, kind = np.divmod(keys, 3)
    edge_index = np.stack(np.divmod(pair, n))
    edge_index.flags.writeable = kind.flags.writeable = False
    return edge_index, kind


def build_graph(unit: TraceUnit, *, control_edges: bool = False,
                memory_edges: bool = False) -> DepGraph:
    """Construct the dependency graph of a parsed unit.

    Sources are resolved before the instruction's own destination is recorded,
    so a redefinition like `%a = add i32 %a, %b` depends on the previous `%a`
    and data edges always point strictly forward in trace order.
    """
    insts = unit.instructions
    n = len(insts)
    keys = []
    last_def = {}
    last_store = {}
    for i, inst in enumerate(insts):
        for src in inst.sources:
            p = last_def.get(src)
            if p is not None:
                keys.append((p * n + i) * 3 + DATA)
        if memory_edges and inst.opcode == "load" and inst.mem_addr is not None:
            p = last_store.get(inst.mem_addr)
            if p is not None:
                keys.append((p * n + i) * 3 + MEMORY)
        if control_edges and inst.opcode in ("br", "ret") and i + 1 < n:
            keys.append((i * n + i + 1) * 3 + CONTROL)
        if inst.dest is not None:
            last_def[inst.dest] = i
        if memory_edges and inst.opcode == "store" and inst.mem_addr is not None:
            last_store[inst.mem_addr] = i

    # one sort drops repeated edges; weight = the producer's size, 1 for control
    edge_index, edge_kind = _edge_columns(np.unique(np.array(keys, dtype=np.int64)), n)
    types = tuple(inst.result_type for inst in insts)
    weight = np.array([sizeof_type(t) for t in types], dtype=object)[edge_index[0]]
    weight[edge_kind == CONTROL] = 1
    return DepGraph(ops=tuple(inst.opcode for inst in insts), types=types,
                    edge_index=edge_index, edge_kind=edge_kind,
                    edge_weight=tuple(weight.tolist()), origin=unit.origin)


# --- interchange format -----------------------------------------------------

def to_json(g: DepGraph) -> bytes:
    """Canonical serialization; equal graphs give identical bytes.

    The text is json.dumps of the document with separators (",", ":"),
    written directly: ops and the head fields go through json.dumps (each
    distinct op once), while type tokens, kinds and ints need no escaping.
    """
    op_text = {op: json.dumps(op) for op in set(g.ops)}
    nodes = ",".join(f'{{"id":{i},"op":{op_text[op]},"type":"{format_type(t)}"}}'
                     for i, (op, t) in enumerate(zip(g.ops, g.types)))
    edges = ",".join(f'{{"src":{s},"dst":{d},"w":{w},"kind":"{EDGE_KINDS[k]}"}}'
                     for s, d, w, k in zip(*g.edge_index.tolist(), g.edge_weight,
                                           g.edge_kind.tolist()))
    return (f'{{"version":1,"origin":{json.dumps(g.origin)},"label":{json.dumps(g.label)},'
            f'"family":{json.dumps(g.family)},"nodes":[{nodes}],"edges":[{edges}]}}'
            ).encode("utf-8")


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
        nodes.append((item["id"], item["op"], parse_type_token(item["type"])))
    ids, ops, types = zip(*sorted(nodes, key=lambda node: node[0]))
    _require(list(ids) == list(range(len(nodes))), "node ids must be dense 0..n-1")

    n = len(nodes)
    edges = {}  # key (src*n + dst)*3 + kind → weight
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
        key = (src * n + dst) * 3 + EDGE_KINDS.index(item["kind"])
        if key in edges:
            raise GraphFormatError(f"duplicate edge {(src, dst, item['kind'])!r}")
        edges[key] = w

    keys = sorted(edges)
    edge_index, edge_kind = _edge_columns(np.array(keys, dtype=np.int64), n)
    return DepGraph(ops=ops, types=types, edge_index=edge_index, edge_kind=edge_kind,
                    edge_weight=tuple(map(edges.get, keys)),
                    label=label, family=family, origin=origin)


def save_graph(g: DepGraph, path):
    write_file(Path(path), to_json(g))


def load_graph(path) -> DepGraph:
    return read_file(Path(path), from_json)
