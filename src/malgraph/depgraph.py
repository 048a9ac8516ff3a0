"""Dependency graphs of instructions, held as columns.

Nodes are trace instructions, each carrying its opcode; a data edge producer →
consumer is inserted when a consumer's source register resolves, under the
most-recent-definition rule, to an earlier instruction's destination.
Optional extras: memory edges (most recent store to a matching ``addr``
annotation → later load) and control edges (branch/ret → next instruction in
trace order).  Edges carry their kind and no weight: the model's mean
aggregator (Hamilton et al. 2017) reads neighbours unweighted.

The JSON interchange format written here is version 3: one line that holds the
graph in columns, as the program does, so the reader checks whole columns::

    {"version":3,"origin":"...","label":0|1|null,"family":"..."|null,
     "ops":["add",...],"src":[0,...],"dst":[1,...],"kind":["data",...]}

It is canonical (edges sorted by (src, dst, kind), fixed key order and
separators): equal graphs give identical bytes.  Versions 1 and 2, which list
node objects ``{"id","op"}`` in id order and edge objects ``{"src","dst","kind"}``,
are read by first turning those lists into the same columns; extra keys are not
read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyGraph,
    GraphFormatError,
    VersionMismatch,
    read_file,
    utf8_text,
    write_file,
)
from .ir import TraceUnit

# In name order, so sorting by kind index sorts by kind name.
EDGE_KINDS = ("control", "data", "memory")
CONTROL, DATA, MEMORY = range(3)
_KIND_INDEX = {name: k for k, name in enumerate(EDGE_KINDS)}


@dataclass(frozen=True, eq=False)
class DepGraph:
    """Immutable graph in the COO layout of PyTorch Geometric (Fey & Lenssen 2019).

    `edge_index` (2×E int64) holds each edge's (src, dst), sorted by (src, dst, kind);
    `edge_kind` indexes `EDGE_KINDS`.
    """

    ops: tuple[str, ...]
    edge_index: np.ndarray
    edge_kind: np.ndarray
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


def _resolve(def_keys: np.ndarray, use_keys: np.ndarray, n: int, kind: int) -> np.ndarray:
    """Edge keys (j*n + i)*3 + kind, from each use key r*n + i to its definition.

    The definition is the largest key r*n + j below the use key with the same
    r: the most recent j < i.  A use with none gives no edge.
    """
    defs = np.sort(np.append(def_keys, -1))  # -1 shares no r, and is below every use
    found = defs[np.searchsorted(defs, use_keys) - 1]
    hit = found // n == use_keys // n
    return (found[hit] % n * n + use_keys[hit] % n) * 3 + kind


def build_graph(unit: TraceUnit, *, control_edges: bool = False,
                memory_edges: bool = False) -> DepGraph:
    """Construct the dependency graph of a parsed unit, one sorted search per edge kind.

    A data edge links each use of register r by instruction i to the most
    recent definition of r strictly before i: the largest definition key
    r*n + j below the use key r*n + i (see `_resolve`).  So a redefinition like
    `%a = add i32 %a, %b` depends on the previous `%a`, and data edges always
    point strictly forward in trace order.  Memory edges resolve each load's
    address the same way against the stores, with address ids in place of
    register ids; control edges join each `br`/`ret` to the next instruction.
    """
    n = len(unit.opcodes)
    at = np.arange(n)
    defines = unit.dest >= 0
    parts = [_resolve(unit.dest[defines] * n + at[defines],
                      unit.src * n + np.repeat(at, np.diff(unit.src_ptr)), n, DATA)]
    if memory_edges and unit.mem_addr:
        addr_ids = {}  # addresses are ints of any size
        keys = np.array([addr_ids.setdefault(a, len(addr_ids)) for a in unit.mem_addr.values()],
                        dtype=np.int64) * n + np.fromiter(unit.mem_addr, np.int64)
        store = np.array([unit.opcodes[i] == "store" for i in unit.mem_addr])
        parts.append(_resolve(keys[store], keys[~store], n, MEMORY))
    if control_edges:
        branch = np.array([i for i, op in enumerate(unit.opcodes[:-1]) if op in ("br", "ret")],
                          dtype=np.int64)
        parts.append((branch * n + branch + 1) * 3 + CONTROL)

    # one sort drops repeated edges
    edge_index, edge_kind = _edge_columns(np.unique(np.concatenate(parts)), n)
    return DepGraph(ops=unit.opcodes, edge_index=edge_index, edge_kind=edge_kind,
                    origin=unit.origin)


# --- interchange format -----------------------------------------------------

_COLUMNS = {"ops": str, "src": int, "dst": int, "kind": str}  # and their element types


def to_json(g: DepGraph) -> bytes:
    """Canonical serialization; equal graphs give identical bytes."""
    src, dst = g.edge_index.tolist()
    return json.dumps({"version": 3, "origin": g.origin, "label": g.label, "family": g.family,
                       "ops": g.ops, "src": src, "dst": dst,
                       "kind": [EDGE_KINDS[k] for k in g.edge_kind.tolist()]},
                      separators=(",", ":")).encode("utf-8")


def _require(cond: bool, detail: str):
    if not cond:
        raise GraphFormatError(detail)


def from_json(data) -> DepGraph:
    """Parse and validate a graph document (bytes or str) of version 1, 2 or 3."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as e:  # ValueError covers decode and int-size errors
        raise GraphFormatError(f"not valid JSON: {e}") from None
    _require(isinstance(obj, dict), "top level must be an object")
    version = obj.get("version")
    if type(version) is not int or version not in (1, 2, 3):  # not true, not 2.0
        raise VersionMismatch(f"unsupported graph version {version!r}")
    for key in ("origin", "label", "family", *(_COLUMNS if version == 3 else ("nodes", "edges"))):
        _require(key in obj, f"missing field {key!r}")

    origin = obj["origin"]
    _require(isinstance(origin, str), "origin must be a string")
    label = obj["label"]
    _require(label is None or (type(label) is int and label in (0, 1)),
             "label must be 0, 1 or null")
    family = obj["family"]
    _require(family is None or isinstance(family, str), "family must be a string or null")
    cols = obj if version == 3 else {}
    if version < 3:  # node and edge objects become the same columns
        for items, keys in (("nodes", ("id", "op")), ("edges", ("src", "dst", "kind"))):
            _require(isinstance(obj[items], list), f"{items} must be an array")
            try:
                cols.update({key: [item[key] for item in obj[items]] for key in keys})
            except (TypeError, KeyError):  # an item that is not an object, or lacks a key
                raise GraphFormatError(f"{items} must be objects with {', '.join(keys)}") from None
        ids, cols["ops"] = cols["id"], cols["op"]
        _require(set(map(type, ids)) <= {int} and ids == list(range(len(ids))),
                 "node ids must be 0..n-1 in order")
    for key, kind in _COLUMNS.items():  # exact element types, so true and 1.0 fail
        _require(isinstance(cols[key], list) and set(map(type, cols[key])) <= {kind},
                 f"{key} must be an array of {'integers' if kind is int else 'strings'}")
    ops, src, dst, kind = (cols[key] for key in _COLUMNS)
    if not ops:
        raise EmptyGraph(f"graph {origin!r} has no nodes")
    _require(len(src) == len(dst) == len(kind), "src, dst and kind must have equal lengths")

    n = len(ops)
    if src and not (0 <= min(src) and 0 <= min(dst) and max(src) < n and max(dst) < n):
        i = next(i for i, (s, d) in enumerate(zip(src, dst)) if not (0 <= s < n and 0 <= d < n))
        raise GraphFormatError(f"edge endpoint out of range: {(src[i], dst[i], kind[i])!r}")
    _require(set(kind) <= _KIND_INDEX.keys(), "kind must hold only control, data or memory")
    kinds = np.fromiter(map(_KIND_INDEX.__getitem__, kind), np.int64, len(kind))
    # endpoints are in range now, so each fits in int64
    keys = np.sort((np.array(src, np.int64) * n + np.array(dst, np.int64)) * 3 + kinds)
    same = np.flatnonzero(keys[1:] == keys[:-1])
    if same.size:
        pair, k = divmod(int(keys[same[0]]), 3)
        raise GraphFormatError(f"duplicate edge {(*divmod(pair, n), EDGE_KINDS[k])!r}")
    edge_index, edge_kind = _edge_columns(keys, n)
    return DepGraph(ops=tuple(ops), edge_index=edge_index, edge_kind=edge_kind,
                    label=label, family=family, origin=origin)


def save_graph(g: DepGraph, path):
    write_file(Path(path), to_json(g))


def load_graph(path) -> DepGraph:
    return read_file(Path(path), lambda data: from_json(utf8_text(data)))
