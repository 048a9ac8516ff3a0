"""Feature extraction: opcode vocabulary, graph encoding, topology metrics.

Centralities are computed on the simple undirected unweighted view of the
graph with self-loops dropped.  Closeness uses the reachable-set-scaled
(Wasserman–Faust) form so disconnected graphs still get finite values;
betweenness counts each unordered pair once, normalized by 2/((n-1)(n-2)).

Only the per-graph averages are reported, and they need hop distances alone.
Every shortest s–t path has d(s, t) - 1 interior nodes, so the betweenness of
all nodes sums to the sum of d(s, t) - 1 over ordered reachable pairs; no
shortest path is counted and nothing is accumulated backward.  The distances
come from a bit-parallel breadth-first search (Akiba, Iwata & Yoshida, SIGMOD
2013): bit s of a node's word holds whether source s is within k hops, so one
OR over each node's arcs, its own loop included, takes 64 sources a level
further per word.  Reach counts and distance sums are exact integers.

scipy.sparse is imported inside `GraphSample.agg`, the one function here that
builds a sparse matrix, rather than at module level: the topology features and
the commands that run no model (`corpus`, `compile`, `features`) never load it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyDataset, EmptyGraph
from .depgraph import DepGraph

if TYPE_CHECKING:
    import scipy.sparse as sp

UNK = "<unk>"

FEATURES_CSV_HEADER = "origin,label,nodes,edges,avg_degree_c,avg_closeness_c,avg_betweenness_c"


@dataclass(frozen=True)
class OpVocabulary:
    """Opcode-name table; index 0 is reserved for unknown operations."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names or self.names[0] != UNK:
            raise ValueError(f"vocabulary must start with {UNK!r}")
        rest = self.names[1:]
        if list(rest) != sorted(set(rest)) or UNK in rest:
            raise ValueError("vocabulary names must be unique and sorted")

    @property
    def size(self) -> int:
        return len(self.names)

    @cached_property
    def _lookup(self) -> dict:
        return {name: i for i, name in enumerate(self.names)}

    def index_of(self, op: str) -> int:
        return self._lookup.get(op, 0)


def _undirected_arcs(edge_index: np.ndarray, n: int):
    """(tail, head) of the arcs both ways of each edge, sorted, repeats once."""
    src, dst = edge_index
    return np.divmod(np.unique(np.concatenate([src * n + dst, dst * n + src])), n)


@dataclass(frozen=True, eq=False)
class GraphSample:
    """A model-ready graph: vocabulary indices and the 2×E `edge_index`.

    `agg` is the graph's neighbour-mean matrix, built on first use and kept,
    so every batch and epoch that sees the sample reuses it.
    """

    node_ops: tuple[int, ...]
    edge_index: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.node_ops)

    @cached_property
    def agg(self) -> sp.csr_matrix:
        """Row-normalised undirected mean matrix: A[v,u] = 1/|N(v)|.

        N(v) is the set of nodes joined to v by an edge in either direction,
        a self-loop included; duplicate and reversed edges count once, and an
        isolated node's row is zero.  Columns are sorted within each row.
        """
        import scipy.sparse as sp

        n = self.num_nodes
        row, col = _undirected_arcs(self.edge_index, n)
        deg = np.bincount(row, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(deg)))
        return sp.csr_matrix((1.0 / deg[row], col, indptr), shape=(n, n))


@dataclass(frozen=True)
class TopoFeatures:
    num_nodes: int
    num_edges: int
    avg_degree_centrality: float
    avg_closeness_centrality: float
    avg_betweenness_centrality: float


def build_vocab(graphs) -> OpVocabulary:
    """Union of opcode names over `graphs`, index 0 reserved for unknowns."""
    graphs = list(graphs)
    if not graphs:
        raise EmptyDataset("cannot build a vocabulary from zero graphs")
    ops = set()
    for g in graphs:
        ops.update(g.ops)
    ops.discard(UNK)
    return OpVocabulary(names=(UNK, *sorted(ops)))


def encode(g: DepGraph, vocab: OpVocabulary) -> GraphSample:
    """Map a graph onto a vocabulary; unseen opcodes go to index 0."""
    if not g.num_nodes:
        raise EmptyGraph(f"cannot encode empty graph {g.origin!r}")
    return GraphSample(node_ops=tuple(map(vocab.index_of, g.ops)), edge_index=g.edge_index)


# --- topology ---------------------------------------------------------------

# A block takes as many 64-source words as keep words × arcs (each node's loop
# included) under this many; that bounds the kernel's memory for any graph size.
_BLOCK_WORDS = 1 << 16


def _centralities(g: DepGraph):
    """Per-node degree and closeness of a non-empty graph, and `pair_sum`.

    `pair_sum` is the exact sum of d(s, t) - 1 over ordered pairs of distinct
    nodes with t reachable from s, that is, the sum of every node's
    betweenness before normalisation.
    """
    n = g.num_nodes
    # every node's closed neighbourhood, so each has an arc segment: its own
    # loop, which carries no path, and one arc to each neighbour
    loops = np.tile(np.arange(n), (2, 1))
    tail, head = _undirected_arcs(np.concatenate([g.edge_index, loops], axis=1), n)
    starts = np.flatnonzero(np.diff(tail, prepend=-1))
    deg = np.diff(starts, append=len(tail)) - 1
    # sources that reach node t, and the sum of their hop distances to t
    reach = np.zeros(n, dtype=np.int64)
    total = np.zeros(n, dtype=np.int64)
    words = max(1, _BLOCK_WORDS // len(tail))
    for first in range(0, n, 64 * words):
        bit = np.arange(min(64 * words, n - first))
        # bit b of ball[t] is set once source first + b lies within k hops of t
        ball = np.zeros((n, -(-len(bit) // 64)), dtype=np.uint64)
        ball[first + bit, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        size = np.bitwise_count(ball).sum(axis=1, dtype=np.int64)
        depth = 0
        while True:
            ball = np.bitwise_or.reduceat(np.take(ball, head, axis=0), starts, axis=0)
            grown = np.bitwise_count(ball).sum(axis=1, dtype=np.int64)
            fresh = grown - size
            if not fresh.any():
                break
            depth += 1
            total += depth * fresh
            size = grown
        reach += size
    ok = reach > 1
    closeness = np.zeros(n)
    closeness[ok] = ((reach[ok] - 1) / total[ok]) * ((reach[ok] - 1) / (n - 1))
    pair_sum = int(total.sum() - (reach - 1).sum())
    return deg / max(n - 1, 1), closeness, pair_sum


def topo_features(g: DepGraph) -> TopoFeatures:
    if not g.num_nodes:
        raise EmptyGraph(f"no topology for empty graph {g.origin!r}")
    n = g.num_nodes
    degree, closeness, pair_sum = _centralities(g)
    betweenness = pair_sum * (1.0 / ((n - 1) * (n - 2))) if n > 2 else 0.0
    # Python's left-to-right sum, so the averages match a per-node loop exactly
    return TopoFeatures(
        num_nodes=n,
        num_edges=g.num_edges,
        avg_degree_centrality=sum(degree.tolist()) / n,
        avg_closeness_centrality=sum(closeness.tolist()) / n,
        avg_betweenness_centrality=betweenness / n,
    )


def export_features_csv(samples) -> str:
    """Rows of (origin, label, TopoFeatures) to CSV text, reals at 6 dp."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FEATURES_CSV_HEADER.split(","))
    for origin, label, tf in samples:
        writer.writerow([
            origin,
            "" if label is None else label,
            tf.num_nodes,
            tf.num_edges,
            f"{tf.avg_degree_centrality:.6f}",
            f"{tf.avg_closeness_centrality:.6f}",
            f"{tf.avg_betweenness_centrality:.6f}",
        ])
    return buf.getvalue()

