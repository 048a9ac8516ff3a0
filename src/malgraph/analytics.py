"""Feature extraction: opcode vocabulary, one-hot encoding, topology metrics.

Centralities are computed on the simple undirected unweighted view of the
graph with self-loops dropped.  Closeness uses the reachable-set-scaled
(Wasserman–Faust) form so disconnected graphs still get finite values;
betweenness uses Brandes' accumulation with each unordered pair counted once,
normalized by 2/((n-1)(n-2)).

Both come from one numpy kernel: level-synchronous multi-source Brandes
(Brandes 2001, run as in the Combinatorial BLAS, Buluç & Gilbert 2011).  It
traverses a block of sources at once over the sorted arc arrays, counting
shortest paths σ forward level by level and adding the dependencies δ back
from the deepest level.  Closeness reads the same hop distances, with integer
reach counts and distance sums.  Path counts can pass float64's range, so a
level's σ is rescaled by a power of two per source once it grows large, and
the exponents are carried into the σ ratios of the backward pass; scaling by
powers of two is exact, so no value moves where nothing would overflow.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import EmptyDataset, EmptyGraph
from .depgraph import DepGraph

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
    label: int | None = None
    family: str | None = None

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
    return GraphSample(node_ops=tuple(map(vocab.index_of, g.ops)),
                       edge_index=g.edge_index, label=g.label, family=g.family)


def one_hot(node_ops, size: int) -> np.ndarray:
    """num_nodes × size one-hot matrix (float64 rows summing to 1)."""
    idx = np.asarray(node_ops, dtype=np.intp)
    out = np.zeros((len(idx), size))
    out[np.arange(len(idx)), idx] = 1.0
    return out


# --- topology ---------------------------------------------------------------

# A block takes as many sources as keep sources × max(directed arcs, nodes)
# under this many cells; that bounds the kernel's memory for any graph size.
_BLOCK_CELLS = 1 << 16
# A level whose largest path count exceeds this is rescaled by powers of two,
# leaving room for the next level's sums before float64 overflows.
_SIGMA_RESCALE = 2.0 ** 512


def _brandes_block(sources, indptr, step):
    """Level-synchronous Brandes from every one of `sources` at once.

    A (source b, node v) pair is the flat id b*n + v, so one gather over the
    CSR arcs (`step` is head minus tail) expands every BFS frontier of the
    block.  Returns the (len(sources), n) hop distances, -1 where unreached,
    and the dependencies δ_s(v) of each source s on every node v.
    """
    n = len(indptr) - 1
    deg = np.diff(indptr)
    size = len(sources) * n
    frontier = np.arange(len(sources)) * n + sources
    dist = np.full(size, -1, dtype=np.int64)
    sigma = np.zeros(size)
    slot = np.empty(size, dtype=np.intp)
    dist[frontier] = 0
    sigma[frontier] = 1.0
    levels = []
    depth = 0
    while frontier.size:
        node = frontier % n
        count = deg[node]
        v = np.repeat(frontier, count)
        arc = np.repeat(indptr[node] - np.cumsum(count) + count, count) + np.arange(v.size)
        w = v + step[arc]
        fresh = dist[w] < 0  # arcs into the next level: shortest-path DAG arcs
        v, w = v[fresh], w[fresh]
        depth += 1
        dist[w] = depth
        np.add.at(sigma, w, sigma[v])
        # dedupe without sorting: one of each id's arcs wins the scatter
        pos = np.arange(w.size)
        slot[w] = pos
        frontier = w[slot[w] == pos]
        shift = None
        if frontier.size and sigma[frontier].max() > _SIGMA_RESCALE:
            # σ_true = σ · 2^(exponents so far); scaling by 2^k is exact
            top = np.zeros(len(sources))
            np.maximum.at(top, frontier // n, sigma[frontier])
            shift = np.frexp(top)[1]
            sigma[frontier] = np.ldexp(sigma[frontier], -shift[frontier // n])
        levels.append((v, w, shift))
    delta = np.zeros(size)
    for v, w, shift in reversed(levels):
        ratio = sigma[v] / sigma[w]
        if shift is not None:
            ratio = np.ldexp(ratio, -shift[w // n])
        np.add.at(delta, v, ratio * (1.0 + delta[w]))
    return dist.reshape(-1, n), delta.reshape(-1, n)


def _centralities(g: DepGraph):
    """Per-node (degree, closeness, betweenness) arrays of a non-empty graph."""
    n = g.num_nodes
    tail, head = _undirected_arcs(g.edge_index, n)
    tail, head = tail[tail != head], head[tail != head]  # self-loops carry no path
    step = head - tail
    deg = np.bincount(tail, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    closeness = np.zeros(n)
    cb = np.zeros(n)
    block = max(1, _BLOCK_CELLS // max(len(tail), n))
    for first in range(0, n, block):
        sources = np.arange(first, min(first + block, n))
        dist, delta = _brandes_block(sources, indptr, step)
        reached = dist >= 0
        r = reached.sum(axis=1)
        total = np.where(reached, dist, 0).sum(axis=1)
        ok = r > 1
        closeness[sources[ok]] = ((r[ok] - 1) / total[ok]) * ((r[ok] - 1) / (n - 1))
        delta[np.arange(len(sources)), sources] = 0.0
        cb += delta.sum(axis=0)
    # each unordered pair was accumulated from both endpoints
    betweenness = cb * (1.0 / ((n - 1) * (n - 2))) if n > 2 else np.zeros(n)
    return deg / max(n - 1, 1), closeness, betweenness


def topo_features(g: DepGraph) -> TopoFeatures:
    if not g.num_nodes:
        raise EmptyGraph(f"no topology for empty graph {g.origin!r}")
    n = g.num_nodes
    degree, closeness, betweenness = _centralities(g)
    # Python's left-to-right sum, so the averages match a per-node loop exactly
    return TopoFeatures(
        num_nodes=n,
        num_edges=g.num_edges,
        avg_degree_centrality=sum(degree.tolist()) / n,
        avg_closeness_centrality=sum(closeness.tolist()) / n,
        avg_betweenness_centrality=sum(betweenness.tolist()) / n,
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

