"""Centrality oracles, vocabulary/encoding behavior, and CSV export format."""

import functools
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgraph import analytics
from malgraph.analytics import (
    FEATURES_CSV_HEADER,
    GraphSample,
    OpVocabulary,
    _centralities,
    build_vocab,
    encode,
    export_features_csv,
    one_hot,
    topo_features,
)
from malgraph.depgraph import EDGE_KINDS, DepGraph
from malgraph.errors import EmptyDataset, EmptyGraph


def columns(ops, edges, **meta):
    """A DepGraph with edges (src, dst, kind), in the given order."""
    src, dst, kind = zip(*edges) if edges else ((), (), ())
    return DepGraph(ops=tuple(ops),
                    edge_index=np.array([src, dst], dtype=np.int64).reshape(2, -1),
                    edge_kind=np.array([EDGE_KINDS.index(k) for k in kind], dtype=np.int64),
                    **meta)


def make_graph(n, pairs, label=None, family=None, ops=None, origin="mem"):
    return columns(ops or ["add"] * n, [(u, v, "data") for u, v in sorted(set(pairs))],
                   label=label, family=family, origin=origin)


def undirected_sets(n, pairs):
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


# --- independent oracles ----------------------------------------------------

def fw_distances(n, pairs):
    """All-pairs distances by Floyd–Warshall (no BFS shared with the impl)."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in pairs:
        if u != v:
            d[u, v] = d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def closeness_oracle(n, pairs):
    d = fw_distances(n, pairs)
    out = []
    for v in range(n):
        finite = d[v][np.isfinite(d[v])]
        r = len(finite)
        if r <= 1:
            out.append(0.0)
        else:
            out.append(((r - 1) / finite.sum()) * ((r - 1) / (n - 1)))
    return out


def betweenness_enum_oracle(n, pairs):
    """Literally enumerate every shortest path of every pair."""
    adj = undirected_sets(n, pairs)
    d = fw_distances(n, pairs)
    score = [0.0] * n
    if n <= 2:
        return score
    for s, t in combinations(range(n), 2):
        if not np.isfinite(d[s, t]):
            continue
        paths = []
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            if v == t:
                paths.append(path)
                continue
            for w in adj[v]:
                # w lies on a shortest s-t path one step further along
                if d[s, w] == d[s, v] + 1 and d[s, w] + d[w, t] == d[s, t]:
                    stack.append((w, path + (w,)))
        for path in paths:
            for v in path[1:-1]:
                score[v] += 1.0 / len(paths)
    scale = 2.0 / ((n - 1) * (n - 2))
    return [x * scale for x in score]


def betweenness_sigma_oracle(n, pairs):
    """Pair-dependency formula: sigma_sv * sigma_vt / sigma_st with a distance test."""
    adj = undirected_sets(n, pairs)
    d = fw_distances(n, pairs)
    sigma = np.zeros((n, n))
    for s in range(n):
        sigma[s, s] = 1.0
        order = sorted((v for v in range(n) if np.isfinite(d[s, v])),
                       key=lambda v: d[s, v])
        for w in order:
            if w == s:
                continue
            sigma[s, w] = sum(sigma[s, v] for v in adj[w] if d[s, v] == d[s, w] - 1)
    score = [0.0] * n
    if n <= 2:
        return score
    for s, t in combinations(range(n), 2):
        if not np.isfinite(d[s, t]):
            continue
        for v in range(n):
            if v in (s, t):
                continue
            if d[s, v] + d[v, t] == d[s, t]:
                score[v] += sigma[s, v] * sigma[v, t] / sigma[s, t]
    scale = 2.0 / ((n - 1) * (n - 2))
    return [x * scale for x in score]


# --- closed forms and edge cases ---------------------------------------------

def test_path3_closed_forms():
    tf = topo_features(make_graph(3, [(0, 1), (1, 2)]))
    assert tf.num_nodes == 3 and tf.num_edges == 2
    assert tf.avg_degree_centrality == pytest.approx(2 / 3, abs=1e-12)
    assert tf.avg_closeness_centrality == pytest.approx(7 / 9, abs=1e-12)
    assert tf.avg_betweenness_centrality == pytest.approx(1 / 3, abs=1e-12)


def test_single_node():
    tf = topo_features(make_graph(1, []))
    assert (tf.num_nodes, tf.num_edges) == (1, 0)
    assert tf.avg_degree_centrality == 0.0
    assert tf.avg_closeness_centrality == 0.0
    assert tf.avg_betweenness_centrality == 0.0


def test_star_center_degree_is_one():
    g = make_graph(5, [(0, i) for i in range(1, 5)])
    n = g.num_nodes
    adj = undirected_sets(n, g.edge_index.T.tolist())
    assert len(adj[0]) / (n - 1) == 1.0
    tf = topo_features(g)
    # center: deg 1.0, leaves 0.25 each → (1 + 4*0.25)/5
    assert tf.avg_degree_centrality == pytest.approx(0.4)
    # center betweenness is 1 (all 6 leaf pairs route through it)
    assert tf.avg_betweenness_centrality == pytest.approx(1 / 5)


def test_complete_graph_extremes():
    pairs = list(combinations(range(4), 2))
    tf = topo_features(make_graph(4, pairs))
    assert tf.avg_degree_centrality == pytest.approx(1.0)
    assert tf.avg_closeness_centrality == pytest.approx(1.0)
    assert tf.avg_betweenness_centrality == pytest.approx(0.0)


def test_self_loops_ignored_for_centrality_but_counted_as_edges():
    base = topo_features(make_graph(3, [(0, 1), (1, 2)]))
    loopy = topo_features(make_graph(3, [(0, 1), (1, 2), (1, 1)]))
    assert loopy.num_edges == 3
    assert loopy.avg_degree_centrality == base.avg_degree_centrality
    assert loopy.avg_closeness_centrality == base.avg_closeness_centrality
    assert loopy.avg_betweenness_centrality == base.avg_betweenness_centrality


def test_disconnected_closeness_is_reachable_scaled():
    tf = topo_features(make_graph(3, [(0, 1)]))
    # nodes 0,1: ((2-1)/1)·((2-1)/2) = 0.5 each; isolated node 2: 0
    assert tf.avg_closeness_centrality == pytest.approx(1 / 3)
    assert tf.avg_degree_centrality == pytest.approx(1 / 3)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        topo_features(columns([], []))


# --- oracle comparisons -------------------------------------------------------

@st.composite
def _random_graph(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    possible = list(combinations(range(n), 2))
    m = draw(st.integers(0, min(len(possible), 2 * n)))
    pairs = draw(st.permutations(possible))[:m] if possible else []
    return n, list(pairs)


@given(_random_graph())
@settings(max_examples=120, deadline=None)
def test_centralities_match_floyd_warshall_oracle(graph):
    n, pairs = graph
    tf = topo_features(make_graph(n, pairs))
    if n > 1:
        adj = undirected_sets(n, pairs)
        deg = [len(a) / (n - 1) for a in adj]
        assert tf.avg_degree_centrality == pytest.approx(sum(deg) / n, abs=1e-12)
        clo = closeness_oracle(n, pairs)
        assert tf.avg_closeness_centrality == pytest.approx(sum(clo) / n, abs=1e-12)


@given(_random_graph(max_n=10))
@settings(max_examples=80, deadline=None)
def test_betweenness_matches_path_enumeration(graph):
    n, pairs = graph
    tf = topo_features(make_graph(n, pairs))
    enum = betweenness_enum_oracle(n, pairs)
    assert tf.avg_betweenness_centrality == pytest.approx(sum(enum) / n, abs=1e-9)


def test_betweenness_matches_sigma_oracle_up_to_50_nodes():
    rng = random.Random(123)
    for _ in range(25):
        n = rng.randint(3, 50)
        possible = list(combinations(range(n), 2))
        pairs = rng.sample(possible, min(len(possible), rng.randint(0, 2 * n)))
        tf = topo_features(make_graph(n, pairs))
        sig = betweenness_sigma_oracle(n, pairs)
        assert tf.avg_betweenness_centrality == pytest.approx(sum(sig) / n, abs=1e-9)


@functools.cache
def _block_test_cases():
    """(n, pairs, closeness oracle, summed betweenness oracle) of graphs with
    several components, isolated nodes, self-loops and duplicate edges."""
    rng = random.Random(321)
    graphs = [
        (7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),    # two components + isolated 6
        (6, [(0, 1), (1, 0), (1, 1), (1, 2), (2, 3), (3, 3), (0, 2)]),
        (5, []),
    ]
    for _ in range(12):
        n = rng.randint(3, 40)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        graphs.append((n, pairs))
    for _ in range(3):
        # more sources than one 64-bit word holds, sparse enough that the
        # 1000-word budget takes several words per block
        n = rng.randint(65, 200)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n // 2, 3 * n // 4))]
        graphs.append((n, pairs))
    return [(n, pairs, closeness_oracle(n, pairs), sum(betweenness_sigma_oracle(n, pairs)))
            for n, pairs in graphs]


def _with_duplicate_kinds(n, pairs):
    """Every (u, v) pair as both a data and a memory edge, self-loops kept."""
    return columns(["add"] * n, [(u, v, kind) for (u, v) in sorted(set(pairs))
                                 for kind in ("data", "memory")])


@pytest.mark.parametrize("words", [1, 100, 400, 1000])
def test_centralities_across_source_blocks_match_oracles(monkeypatch, words):
    # one or more 64-source words per block; most graphs span several blocks
    monkeypatch.setattr(analytics, "_BLOCK_WORDS", words)
    for n, pairs, clo_oracle, bet_oracle in _block_test_cases():
        deg, clo, pair_sum = _centralities(_with_duplicate_kinds(n, pairs))
        assert deg.tolist() == [len(a) / (n - 1) for a in undirected_sets(n, pairs)]
        assert clo.tolist() == pytest.approx(clo_oracle, abs=1e-12)
        assert pair_sum / ((n - 1) * (n - 2)) == pytest.approx(bet_oracle, abs=1e-9)


def test_topo_features_memory_is_bounded_by_source_blocks():
    # With every source in one block, a 20,000-node star would take n × n/64
    # words (50 MB) for its balls alone.
    n = 20_000
    g = make_graph(n, [(0, v) for v in range(1, n)])
    tracemalloc.start()
    try:
        topo_features(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A block holds four arrays of at most _BLOCK_WORDS words: the balls, their
    # gather along the arcs, the next balls and the balls' bit counts.  The
    # arcs and per-node counts take a few dozen words per node.
    assert peak < 8 * (4 * analytics._BLOCK_WORDS + 32 * n)


@given(_random_graph(max_n=12))
@settings(max_examples=60, deadline=None)
def test_centrality_bounds(graph):
    n, pairs = graph
    tf = topo_features(make_graph(n, pairs))
    for val in (tf.avg_degree_centrality, tf.avg_closeness_centrality,
                tf.avg_betweenness_centrality):
        assert 0.0 <= val <= 1.0


# --- vocabulary and encoding ---------------------------------------------------

def test_build_vocab_union():
    g1 = make_graph(2, [(0, 1)], ops=["sub", "load"])
    g2 = make_graph(2, [(0, 1)], ops=["load", "store"])
    v = build_vocab([g1, g2])
    assert v.names == ("<unk>", "load", "store", "sub")
    assert v.size == 4


def test_build_vocab_single_op():
    v = build_vocab([make_graph(1, [], ops=["add"])])
    assert v.names == ("<unk>", "add")


def test_build_vocab_empty_rejected():
    with pytest.raises(EmptyDataset):
        build_vocab([])


@given(st.lists(st.lists(st.sampled_from(["add", "sub", "mul", "load", "store", "br"]),
                         min_size=1, max_size=5), min_size=1, max_size=6),
       st.randoms())
def test_vocab_order_insensitive(opslists, rnd):
    graphs = [make_graph(len(ops), [], ops=ops) for ops in opslists]
    v1 = build_vocab(graphs)
    shuffled = list(graphs)
    rnd.shuffle(shuffled)
    assert build_vocab(shuffled).names == v1.names


def test_encode_lookup_and_unknown():
    vocab = OpVocabulary(("<unk>", "load", "sub"))
    g = make_graph(2, [(0, 1)], ops=["sub", "sub"], label=1, family="worm")
    s = encode(g, vocab)
    assert s.node_ops == (2, 2)
    assert s.edge_index.tolist() == [[0], [1]]
    assert s.label == 1

    g2 = make_graph(1, [], ops=["cmpxchg"])
    assert encode(g2, vocab).node_ops == (0,)

    with pytest.raises(EmptyGraph):
        encode(columns([], []), vocab)


def _mean_matrix_oracle(n, edges):
    """Dense A[v,u] = 1/|N(v)| from per-node neighbour sets, edges undirected."""
    neigh = [set() for _ in range(n)]
    for a, b in edges:
        neigh[a].add(b)
        neigh[b].add(a)
    out = np.zeros((n, n))
    for v, us in enumerate(neigh):
        for u in us:
            out[v, u] = 1.0 / len(us)
    return out


def sample(n, edges):
    """A GraphSample of n nodes and the (src, dst) pairs `edges`."""
    return GraphSample(node_ops=(0,) * n,
                       edge_index=np.array(edges, dtype=np.int64).reshape(-1, 2).T)


def _check_agg(n, edges):
    agg = sample(n, edges).agg
    assert agg.shape == (n, n)
    assert np.array_equal(agg.toarray(), _mean_matrix_oracle(n, edges))
    for v in range(n):
        cols = agg.indices[agg.indptr[v]:agg.indptr[v + 1]]
        assert np.all(np.diff(cols) > 0)  # sorted, each neighbour once


def test_agg_example_with_loops_duplicates_and_isolated_nodes():
    # 0-1 given as a duplicate and reversed, 2 has a self-loop and the
    # neighbour 1, 3 and 4 are isolated
    edges = [(0, 1), (0, 1), (1, 0), (2, 2), (1, 2)]
    _check_agg(5, edges)
    dense = sample(5, edges).agg.toarray()
    assert dense[0].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert dense[1].tolist() == [0.5, 0.0, 0.5, 0.0, 0.0]
    assert dense[2].tolist() == [0.0, 0.5, 0.5, 0.0, 0.0]
    assert not dense[3:].any()


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=40))))
def test_agg_matches_neighbour_set_oracle(case):
    _check_agg(*case)


def test_agg_built_once():
    s = sample(2, [(0, 1)])
    assert s.agg is s.agg


@given(st.lists(st.integers(0, 7), min_size=1, max_size=30))
def test_one_hot_rows(indices):
    m = one_hot(indices, 8)
    assert m.shape == (len(indices), 8)
    assert np.all(m.sum(axis=1) == 1.0)
    assert np.all((m == 0) | (m == 1))


def test_vocab_rejects_bad_shapes():
    with pytest.raises(ValueError):
        OpVocabulary(("add",))
    with pytest.raises(ValueError):
        OpVocabulary(("<unk>", "b", "a"))
    with pytest.raises(ValueError):
        OpVocabulary(("<unk>", "a", "a"))


# --- CSV export ----------------------------------------------------------------

def test_features_csv_empty():
    assert export_features_csv([]) == FEATURES_CSV_HEADER + "\n"


def test_features_csv_p3_row():
    tf = topo_features(make_graph(3, [(0, 1), (1, 2)]))
    text = export_features_csv([("p3", 0, tf)])
    lines = text.splitlines()
    assert lines[0] == FEATURES_CSV_HEADER
    assert lines[1] == "p3,0,3,2,0.666667,0.777778,0.333333"


def test_features_csv_many_rows_and_missing_label():
    tf = topo_features(make_graph(1, []))
    text = export_features_csv([(f"g{i}", None, tf) for i in range(100)])
    lines = text.splitlines()
    assert len(lines) == 101
    assert lines[5].startswith("g4,,1,0,")

