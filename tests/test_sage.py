"""Network-core tests: FD gradient oracle, naive-loop forward oracle, optimizer."""

import copy
import hashlib
import json
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malgraph import sage
from malgraph.analytics import GraphSample, OpVocabulary
from malgraph.errors import (
    CacheMismatch,
    EmptyDataset,
    GraphFormatError,
    MalformedFile,
    MalgraphError,
    ShapeMismatch,
    VersionMismatch,
    VocabMismatch,
)
from malgraph.sage import (
    ACTIVATIONS,
    CLAMP_HI,
    CLAMP_LO,
    LEAKY_SLOPE,
    AdamState,
    ArchConfig,
    _act,
    _act_backward,
    _sigmoid,
    adam_step,
    backward,
    bce_loss,
    forward,
    init_params,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)


def gs(node_ops, edges):
    return GraphSample(node_ops=tuple(node_ops),
                       edge_index=np.array(edges, dtype=np.int64).reshape(-1, 2).T)


SMALL = ArchConfig(vocab_size=5, embed_dim=4, hidden_dim=3, num_sage_layers=2)


def naive_forward(params, sample) -> float:
    """Reference implementation in plain Python loops (no numpy vectorization)."""
    arch = params.arch
    n = sample.num_nodes
    neigh = [set() for _ in range(n)]
    for s, d in sample.edge_index.T.tolist():
        neigh[d].add(s)
        neigh[s].add(d)

    def act(xs):
        if arch.activation == "relu":
            return [max(x, 0.0) for x in xs]
        return [x if x > 0 else 0.01 * x for x in xs]

    H = []
    for v in range(n):
        op = sample.node_ops[v]
        if arch.use_embedding:
            H.append(act([params.embed_W[op][j] + params.embed_b[j]
                          for j in range(arch.embed_dim)]))
        else:
            H.append([1.0 if j == op else 0.0 for j in range(arch.vocab_size)])
    for k in range(arch.num_sage_layers):
        W, b = params.sage_W[k], params.sage_b[k]
        d_in = len(H[0])
        nxt = []
        for v in range(n):
            if neigh[v]:
                m = [sum(H[u][j] for u in neigh[v]) / len(neigh[v])
                     for j in range(d_in)]
            else:
                m = [0.0] * d_in
            cat = list(H[v]) + m
            z = [sum(cat[i] * W[i][j] for i in range(2 * d_in)) + b[j]
                 for j in range(arch.hidden_dim)]
            nxt.append(act(z))
        H = nxt
    g = [sum(H[v][j] for v in range(n)) / n for j in range(arch.hidden_dim)]
    z = sum(g[j] * params.out_W[j] for j in range(arch.hidden_dim)) + float(params.out_b)
    return 1.0 / (1.0 + math.exp(-z))


# --- initialization -----------------------------------------------------------

def test_init_deterministic():
    a = init_params(SMALL, 7)
    b = init_params(SMALL, 7)
    for name, arr in a.tensors().items():
        assert np.array_equal(arr, b.tensors()[name]), name
    c = init_params(SMALL, 8)
    assert not np.array_equal(a.embed_W, c.embed_W)


def test_init_biases_zero_and_glorot_bound():
    arch = ArchConfig(vocab_size=4, embed_dim=2, hidden_dim=3, num_sage_layers=2)
    p = init_params(arch, 0)
    assert np.all(p.embed_b == 0) and np.all(p.out_b == 0)
    assert all(np.all(b == 0) for b in p.sage_b)
    assert np.all(np.abs(p.embed_W) <= 1.0)  # sqrt(6/(4+2)) = 1.0
    lim0 = math.sqrt(6 / (2 * 2 + 3))
    assert np.all(np.abs(p.sage_W[0]) <= lim0)
    assert np.all(np.abs(p.out_W) <= math.sqrt(6 / 4))


# sha256 prefixes of model_to_json(init_params(arch, 3), VOCAB5), recorded when
# init_params filled each tensor by hand; filling them from the shape table
# must draw the same numbers in the same order
INIT_MODEL_SHA256 = {
    (True, 4, 8): "1abf00a06ae01ad4",
    (True, 4, 128): "5e6bd2ddca9d4b55",
    (True, 6, 8): "e89896b7754033cd",
    (True, 6, 128): "59b33b340f1debb2",
    (False, 4, 8): "8ffffa1462e580d9",
    (False, 4, 128): "fd1e78b13c3df774",
    (False, 6, 8): "b75422e52728656e",
    (False, 6, 128): "75992c674edea1a7",
}


@pytest.mark.parametrize("embed,layers,hidden", sorted(INIT_MODEL_SHA256))
def test_init_model_bytes_are_pinned(embed, layers, hidden):
    arch = ArchConfig(vocab_size=5, embed_dim=hidden, hidden_dim=hidden,
                      num_sage_layers=layers, use_embedding=embed)
    data = model_to_json(init_params(arch, 3), VOCAB5)
    assert hashlib.sha256(data).hexdigest()[:16] == INIT_MODEL_SHA256[embed, layers, hidden]
    assert model_to_json(*model_from_json(data)) == data


def test_arch_validation():
    with pytest.raises(ValueError):
        ArchConfig(vocab_size=0)
    with pytest.raises(ValueError):
        ArchConfig(vocab_size=3, activation="tanh")
    with pytest.raises(TypeError):
        ArchConfig(vocab_size=3, num_sage_layers=2.0)
    with pytest.raises(TypeError):
        ArchConfig(vocab_size=3, use_embedding="no")


@pytest.mark.parametrize("layers", [4, 6, 8, 10])
@pytest.mark.parametrize("embed,act", [(True, "leaky_relu"), (False, "relu")])
def test_ablation_configs_constructible(layers, embed, act):
    arch = ArchConfig(vocab_size=6, embed_dim=5, hidden_dim=4,
                      num_sage_layers=layers, use_embedding=embed, activation=act)
    p = init_params(arch, 1)
    first_in = 5 if embed else 6
    assert p.sage_W[0].shape == (2 * first_in, 4)
    assert all(w.shape == (8, 4) for w in p.sage_W[1:])
    assert (p.embed_W is None) == (not embed)
    scores, _ = forward(p, [gs([0, 1, 2], [(0, 1), (1, 2)])])
    assert 0 < scores[0] < 1


# --- forward -------------------------------------------------------------------

def test_mean_aggregation_example():
    # node 2 aggregates neighbors 0 and 1 with features [1,0] and [0,1];
    # edges are undirected, so 0 and 1 each aggregate node 2 alone
    sample = gs([0, 1, 2], [(0, 2), (1, 2)])
    H = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 4.0]])
    m = sample.agg @ H
    assert np.allclose(m[2], [0.5, 0.5])
    assert np.allclose(m[0], [2.0, 4.0])
    assert np.allclose(m[1], [2.0, 4.0])


def test_isolated_node_aggregates_zero():
    assert gs([0, 1], []).agg.nnz == 0
    # node 2 has no edge in a graph that has some
    agg = gs([0, 1, 2], [(0, 1)]).agg
    assert agg.getrow(2).nnz == 0 and agg.getrow(0).nnz == 1


@pytest.mark.parametrize("cache_on", [True, False], ids=["cache", "no_cache"])
def test_forward_tiles_follow_the_cuts_and_hold_their_samples_block_diagonal(
        monkeypatch, cache_on):
    """cache.tiles has one (first row, end row, mean block) per tile of
    `_tiles`, and each block is the block diagonal of its samples' `agg`,
    down to its stored indices and values."""
    monkeypatch.setattr(sage, "TILE_ROWS", 4)
    params = init_params(SMALL, 4)
    samples = [gs([1, 2, 3], [(0, 1), (2, 1), (1, 0)]), gs([4], []),
               gs([0, 1, 2, 3], [(3, 3), (0, 2), (2, 0), (1, 3)]), gs([2, 2], [(0, 1)]),
               gs([1, 0, 3, 4, 2], [(0, 4), (4, 1), (2, 3)]), gs([3], [(0, 0)])]
    counts = np.array([s.num_nodes for s in samples])
    cuts = sage._tiles(counts)
    assert len(cuts) > 3  # three tiles at least
    offsets = np.concatenate([[0], np.cumsum(counts)])
    _, cache = forward(params, samples, cache=cache_on)
    assert len(cache.tiles) == len(cuts) - 1
    for (g0, g1), (a, b, block) in zip(zip(cuts, cuts[1:]), cache.tiles):
        assert (a, b) == (offsets[g0], offsets[g1])
        want = sp.block_diag([s.agg for s in samples[g0:g1]], format="csr")
        assert block.format == "csr" and block.shape == (b - a, b - a)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, part), getattr(want, part)), part


def test_matches_naive_reference():
    cases = [
        ArchConfig(5, 4, 3, 2),
        ArchConfig(5, 4, 3, 2, use_embedding=False),
        ArchConfig(5, 4, 3, 2, activation="relu"),
    ]
    samples = [
        gs([1, 2, 3, 4, 0], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 1)]),
        gs([2, 2, 1], []),
        gs([0], []),
    ]
    for arch in cases:
        params = init_params(arch, 11)
        scores, _ = forward(params, samples)
        for got, sample in zip(scores, samples):
            assert got == pytest.approx(naive_forward(params, sample), rel=1e-9)


def test_batch_equals_single():
    params = init_params(SMALL, 5)
    samples = [gs([1, 2], [(0, 1)]), gs([3], []), gs([4, 0, 2], [(0, 2), (1, 2)])]
    batched, _ = forward(params, samples)
    for i, sample in enumerate(samples):
        alone, _ = forward(params, [sample])
        assert abs(batched[i] - alone[0]) < 1e-12


def test_permutation_invariance():
    params = init_params(SMALL, 9)
    ops = [0, 1, 2, 3]
    edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
    perm = [2, 0, 3, 1]  # new id of old node i
    new_ops = [0] * 4
    for old, new in enumerate(perm):
        new_ops[new] = ops[old]
    new_edges = [(perm[s], perm[d]) for s, d in edges]
    s1, _ = forward(params, [gs(ops, edges)])
    s2, _ = forward(params, [gs(new_ops, new_edges)])
    assert abs(s1[0] - s2[0]) < 1e-9


def test_forward_rejects_bad_vocab_index():
    params = init_params(SMALL, 1)
    with pytest.raises(VocabMismatch):
        forward(params, [gs([0, 5], [])])
    with pytest.raises(EmptyDataset):
        forward(params, [])


def test_forward_deterministic():
    params = init_params(SMALL, 2)
    samples = [gs([1, 2, 3], [(0, 1), (1, 2)])]
    a, _ = forward(params, samples)
    b, _ = forward(params, samples)
    assert np.array_equal(a, b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_scores_strictly_inside_unit_interval(seed):
    params = init_params(SMALL, seed)
    scores, _ = forward(params, [gs([1, 2, 3], [(0, 1), (1, 2)]), gs([4], [])])
    assert np.all(scores > 0) and np.all(scores < 1)


# --- loss and gradients ---------------------------------------------------------

def test_loss_closed_forms():
    assert bce_loss([0.5, 0.5], [1, 0]) == pytest.approx(math.log(2), rel=1e-12)
    assert bce_loss([1.0, 0.0], [1, 0]) <= 1e-11
    assert bce_loss([1e-12], [1]) == pytest.approx(-math.log(1e-12))


def _fd_check(arch, samples, labels, seed=3, eps=1e-5, tol=1e-4):
    params = init_params(arch, seed)
    _, cache = forward(params, samples)
    _, grads = backward(params, cache, labels)
    for name, arr in params.tensors().items():
        flat = arr.reshape(-1)
        g = np.asarray(grads[name]).reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = bce_loss(forward(params, samples)[0], labels)
            flat[i] = keep - eps
            down = bce_loss(forward(params, samples)[0], labels)
            flat[i] = keep
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            assert abs(fd - g[i]) / denom < tol, (name, i, fd, g[i])


FD_SAMPLES = [
    gs([1, 2, 3, 4, 0], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 1)]),
    gs([2, 2, 1], []),
]
FD_LABELS = [1, 0]


def test_gradients_match_finite_differences():
    _fd_check(SMALL, FD_SAMPLES, FD_LABELS)


def test_gradients_match_fd_no_embedding():
    arch = ArchConfig(vocab_size=5, embed_dim=4, hidden_dim=3, num_sage_layers=2,
                      use_embedding=False)
    _fd_check(arch, FD_SAMPLES, FD_LABELS)


def test_gradients_match_fd_relu():
    arch = ArchConfig(vocab_size=5, embed_dim=4, hidden_dim=3,
                      num_sage_layers=2, activation="relu")
    _fd_check(arch, FD_SAMPLES, FD_LABELS, seed=4)


def test_backward_cache_guard():
    params = init_params(SMALL, 1)
    other = init_params(SMALL, 1)
    _, cache = forward(params, [gs([1], [])])
    with pytest.raises(CacheMismatch):
        backward(other, cache, [1])
    with pytest.raises(CacheMismatch):
        backward(params, cache, [1, 0])


def test_saturated_scores_freeze_gradient():
    params = init_params(SMALL, 6)
    params.out_W *= 1e8
    params.out_b += 1e4
    samples = [gs([1, 2, 3], [(0, 1), (1, 2)])]
    scores, cache = forward(params, samples)
    assert scores[0] == 1.0  # saturated past the clamp
    loss, grads = backward(params, cache, [0])
    assert loss == pytest.approx(-math.log(1e-12))
    assert all(np.all(np.asarray(g) == 0) for g in grads.values())


# --- cache on and off, against the per-layer cache it replaced -----------------------

def random_batch(rng, graphs, vocab_size, max_nodes=40):
    batch = []
    for _ in range(graphs):
        n = int(rng.integers(1, max_nodes))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
        batch.append(gs(rng.integers(0, vocab_size, n).tolist(), edges.tolist()))
    return batch


BIT_ARCHS = [
    ArchConfig(vocab_size=7, embed_dim=6, hidden_dim=5, num_sage_layers=4),
    ArchConfig(vocab_size=7, embed_dim=6, hidden_dim=5, num_sage_layers=4,
               activation="relu"),
    ArchConfig(vocab_size=7, embed_dim=6, hidden_dim=5, num_sage_layers=3,
               use_embedding=False),
]


def random_params(arch, rng):
    """Initial weights with nonzero biases, so every term of each layer is live."""
    params = init_params(arch, int(rng.integers(0, 2**31)))
    for b in params.sage_b:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    if params.embed_b is not None:
        params.embed_b[:] = rng.normal(scale=0.1, size=params.embed_b.shape)
    return params


def old_forward_cache(params, batch):
    """The cache forward kept per layer before: H_k, M_k, Z_k and Z_embed."""
    arch = params.arch

    def act(z):
        if arch.activation == "relu":
            return np.maximum(z, 0.0)
        return np.maximum(z, LEAKY_SLOPE * z)

    counts = np.array([s.num_nodes for s in batch])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(int)
    idx = np.concatenate([np.asarray(s.node_ops, dtype=np.intp) for s in batch])
    if arch.use_embedding:
        z_embed = params.embed_W[idx] + params.embed_b
        h = act(z_embed)
    else:
        z_embed = None
        h = np.eye(arch.vocab_size)[idx]
    agg = sp.block_diag([s.agg for s in batch], format="csr")
    hs, ms, zs = [h], [], []
    for k in range(arch.num_sage_layers):
        m = agg @ h
        z = np.concatenate([h, m], axis=1) @ params.sage_W[k] + params.sage_b[k]
        h = act(z)
        ms.append(m)
        zs.append(z)
        hs.append(h)
    pooled = np.add.reduceat(h, offsets, axis=0) / counts[:, None]
    scores = _sigmoid(pooled @ params.out_W + params.out_b)
    return types.SimpleNamespace(scores=scores, idx=idx, z_embed=z_embed, hs=hs, ms=ms,
                                 zs=zs, agg=agg, pooled=pooled, counts=counts)


def old_backward(params, cache, labels):
    """backward as it was: [H_k, M_k] rebuilt, activation gradient as a 0/1 array."""
    def act_grad(z):
        if params.arch.activation == "relu":
            return (z > 0).astype(float)
        return np.where(z > 0, 1.0, LEAKY_SLOPE)

    labels = np.asarray(labels, dtype=float)
    s = cache.scores
    loss = bce_loss(s, labels)
    live = (s > CLAMP_LO) & (s < CLAMP_HI)
    dz_out = np.where(live, (s - labels) / len(s), 0.0)
    grads = {"out_W": cache.pooled.T @ dz_out, "out_b": np.sum(dz_out)}
    d_pooled = np.outer(dz_out, params.out_W)
    dh = np.repeat(d_pooled / cache.counts[:, None], cache.counts, axis=0)
    for k in reversed(range(params.arch.num_sage_layers)):
        dz = dh * act_grad(cache.zs[k])
        concat = np.concatenate([cache.hs[k], cache.ms[k]], axis=1)
        grads[f"sage_W.{k}"] = concat.T @ dz
        grads[f"sage_b.{k}"] = dz.sum(axis=0)
        d_concat = dz @ params.sage_W[k].T
        d_in = cache.hs[k].shape[1]
        dh = d_concat[:, :d_in] + cache.agg.T @ d_concat[:, d_in:]
    if params.arch.use_embedding:
        dz0 = dh * act_grad(cache.z_embed)
        grads["embed_b"] = dz0.sum(axis=0)
        dw = np.zeros_like(params.embed_W)
        np.add.at(dw, cache.idx, dz0)
        grads["embed_W"] = dw
    grads["out_b"] = np.asarray(grads["out_b"])
    return loss, grads


def assert_same_bits(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want, equal_nan=True), name
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{name}: sign of zero"


@pytest.mark.parametrize("arch", BIT_ARCHS, ids=["leaky_relu", "relu", "no_embedding"])
def test_forward_without_cache_gives_identical_scores(arch):
    rng = np.random.default_rng(31)
    for _ in range(5):
        params = random_params(arch, rng)
        batch = random_batch(rng, int(rng.integers(1, 12)), arch.vocab_size)
        cached, cache = forward(params, batch)
        bare, rest = forward(params, batch, cache=False)
        assert np.array_equal(bare, cached)
        assert len(rest.hs) == 1 and np.array_equal(rest.hs[0], cache.hs[-1])
        assert len(cache.hs) == arch.num_sage_layers
        with pytest.raises(CacheMismatch):
            backward(params, rest, [1] * len(batch))


BIT_CASES = [pytest.param(arch, 5, (1, 12), 40, id=name)
             for arch, name in zip(BIT_ARCHS, ["leaky_relu", "relu", "no_embedding"])]
# the default 6 x 128 at a few thousand rows, where OpenBLAS blocks the split
# weight and input-gradient products of backward as it does in training
BIT_CASES.append(pytest.param(ArchConfig(vocab_size=20), 1, (16, 24), 300, id="default_arch"))


@pytest.mark.parametrize("arch, trials, graphs, max_nodes", BIT_CASES)
def test_backward_matches_the_per_layer_cache_bit_for_bit(arch, trials, graphs, max_nodes):
    rng = np.random.default_rng(32)
    for _ in range(trials):
        params = random_params(arch, rng)
        batch = random_batch(rng, int(rng.integers(*graphs)), arch.vocab_size, max_nodes)
        labels = rng.integers(0, 2, len(batch))
        old = old_forward_cache(params, batch)
        scores, cache = forward(params, batch)
        assert np.array_equal(scores, old.scores)
        loss, grads = backward(params, cache, labels)
        old_loss, old_grads = old_backward(params, old, labels)
        assert loss == old_loss
        assert grads.keys() == old_grads.keys()
        for name in grads:
            assert_same_bits(grads[name], old_grads[name], name)


# --- tiles of whole graphs ---------------------------------------------------------

def tiling_sizes(tile_rows):
    """Graph sizes that close tiles at once (1-node graphs, one graph larger
    than a tile) and end in a remainder shorter than a tile."""
    return [1, 1, tile_rows + 7, 3, 1, tile_rows // 2, 5, tile_rows - 1, 1, 1, 2 * tile_rows, 2, 1]


def sized_batch(rng, sizes, vocab_size):
    return [gs(rng.integers(0, vocab_size, n).tolist(),
               rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2)).tolist())
            for n in sizes]


@pytest.mark.parametrize("tile_rows, tiling_cuts", [(16, [0, 3, 7, 9, 13]), (64, [0, 3, 8, 13])])
def test_tiles_are_runs_of_whole_graphs(monkeypatch, tile_rows, tiling_cuts):
    """Each tile closes at the first graph boundary at or past TILE_ROWS rows,
    and a remainder shorter than that joins the last tile."""
    monkeypatch.setattr(sage, "TILE_ROWS", tile_rows)
    rng = np.random.default_rng(38)
    cases = [tiling_sizes(tile_rows), [1], [tile_rows - 1, 1], [tile_rows, 1], [3 * tile_rows]]
    cases += [rng.integers(1, 2 * tile_rows, int(rng.integers(1, 30))) for _ in range(200)]
    for counts in map(np.asarray, cases):
        cuts = sage._tiles(counts)
        assert cuts[0] == 0 and cuts[-1] == len(counts)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        rows = [counts[a:b].sum() for a, b in zip(cuts, cuts[1:])]
        assert min(rows) >= min(tile_rows, counts.sum())
        for a, b in zip(cuts, cuts[1:-1]):  # every tile but the last is as short as it can be
            assert counts[a:b - 1].sum() < tile_rows
        last = counts[cuts[-2]:]
        first_full = int(np.searchsorted(np.cumsum(last), tile_rows)) + 1
        assert last[first_full:].sum() < tile_rows  # what follows a full tile is short
    assert sage._tiles(np.asarray(tiling_sizes(tile_rows))) == tiling_cuts


TILE_ARCHS = [pytest.param(arch, id=name) for arch, name in
              zip(BIT_ARCHS, ["leaky_relu", "relu", "no_embedding"])]
TILE_ARCHS.append(pytest.param(ArchConfig(vocab_size=20), id="default_arch"))


@pytest.mark.parametrize("tile_rows", [16, 64])
@pytest.mark.parametrize("arch", TILE_ARCHS)
def test_tiled_forward_and_backward_match_the_per_layer_cache_bit_for_bit(
        monkeypatch, arch, tile_rows):
    """With the cache on or off, a forward run tile by tile gives the scores,
    pooled vectors and layer outputs of the untiled frozen forward, and its
    backward the frozen gradients, bit for bit."""
    monkeypatch.setattr(sage, "TILE_ROWS", tile_rows)
    rng = np.random.default_rng(39)
    batches = [tiling_sizes(tile_rows), rng.integers(1, 2 * tile_rows, 12)]
    for sizes in batches:
        params = random_params(arch, rng)
        batch = sized_batch(rng, sizes, arch.vocab_size)
        assert len(sage._tiles(np.asarray(sizes))) > 3  # three tiles at least
        labels = rng.integers(0, 2, len(batch))
        old = old_forward_cache(params, batch)
        scores, cache = forward(params, batch)
        bare, rest = forward(params, batch, cache=False)
        for got, c in [(scores, cache), (bare, rest)]:
            assert_same_bits(got, old.scores, "scores")
            assert_same_bits(c.pooled, old.pooled, "pooled")
        assert len(cache.hs) == arch.num_sage_layers and len(rest.hs) == 1
        for k, h in enumerate(cache.hs, start=1):
            assert_same_bits(h, old.hs[k], f"H_{k}")
        assert_same_bits(rest.hs[0], old.hs[-1], "H_L without the cache")
        loss, grads = backward(params, cache, labels)
        old_loss, old_grads = old_backward(params, old, labels)
        assert loss == old_loss
        assert grads.keys() == old_grads.keys()
        for name in grads:
            assert_same_bits(grads[name], old_grads[name], name)


@pytest.mark.parametrize("arch, graphs, max_nodes", [
    # the default 6 x 128 at a few thousand rows, where OpenBLAS blocks the
    # products as it does in training
    pytest.param(ArchConfig(vocab_size=20), 20, 300, id="default_arch"),
    # the top block is H_1, which backward masks over but must keep
    pytest.param(ArchConfig(vocab_size=7, embed_dim=6, hidden_dim=5, num_sage_layers=1),
                 12, 40, id="one_layer"),
    pytest.param(ArchConfig(vocab_size=7, hidden_dim=5, num_sage_layers=1, use_embedding=False,
                            activation="relu"), 12, 40, id="one_layer_no_embedding"),
])
def test_tiled_backward_matches_one_whole_batch_tile_bit_for_bit(
        monkeypatch, arch, graphs, max_nodes):
    """backward run over 16-row tiles gives the loss and gradients of backward
    run as one tile over the whole batch, and leaves hs == [H_1] unchanged."""
    rng = np.random.default_rng(40)
    params = random_params(arch, rng)
    batch = random_batch(rng, graphs, arch.vocab_size, max_nodes)
    batch[3:3] = random_batch(rng, 2, arch.vocab_size, max_nodes=2)  # two 1-node graphs
    labels = rng.integers(0, 2, len(batch))
    counts = np.array([s.num_nodes for s in batch])

    def forward_and_backward():
        _, cache = forward(params, batch)
        h_1 = cache.hs[0].copy()
        result = backward(params, cache, labels)
        assert len(cache.hs) == 1
        assert_same_bits(cache.hs[0], h_1, "H_1")
        return result

    monkeypatch.setattr(sage, "TILE_ROWS", 16)
    assert len(sage._tiles(counts)) > 6  # six tiles at least
    loss, grads = forward_and_backward()
    monkeypatch.setattr(sage, "TILE_ROWS", int(counts.sum()))
    assert sage._tiles(counts) == [0, len(batch)]
    whole_loss, whole_grads = forward_and_backward()
    assert loss == whole_loss
    assert grads.keys() == whole_grads.keys()
    for name in grads:
        assert_same_bits(grads[name], whole_grads[name], name)


@pytest.mark.parametrize("arch", TILE_ARCHS)
def test_backward_reads_forwards_tiles_from_the_cache(monkeypatch, arch):
    """backward takes its tiles from the cache and does not cut the batch
    again: with `_tiles` made to raise after forward, it gives the loss and
    gradients of an unpatched backward, bit for bit."""
    monkeypatch.setattr(sage, "TILE_ROWS", 16)
    rng = np.random.default_rng(41)
    params = random_params(arch, rng)
    batch = sized_batch(rng, tiling_sizes(16), arch.vocab_size)
    labels = rng.integers(0, 2, len(batch))
    want_loss, want_grads = backward(params, forward(params, batch)[1], labels)
    _, cache = forward(params, batch)
    assert len(cache.tiles) > 3  # three tiles at least

    def no_second_cut(counts):
        raise AssertionError("backward cut the batch into tiles again")

    monkeypatch.setattr(sage, "_tiles", no_second_cut)
    loss, grads = backward(params, cache, labels)
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert_same_bits(grads[name], want_grads[name], name)


def test_relu_backward_keeps_the_sign_of_zero():
    """Zero pre-activations under negative dh: dz is -0.0, as it was."""
    arch = ArchConfig(vocab_size=7, embed_dim=6, hidden_dim=5, num_sage_layers=2,
                      activation="relu")
    params = init_params(arch, 8)
    params.sage_W[1][:, 0] = 0.0            # z[:, 0] of the last layer is exactly 0
    params.out_W[0] = abs(params.out_W[0])  # so dh[:, 0] < 0 when every label is 1
    batch = random_batch(np.random.default_rng(33), 6, arch.vocab_size)
    labels = [1] * len(batch)
    _, cache = forward(params, batch)
    h_1 = cache.hs[0]
    agg = sp.block_diag([s.agg for s in batch], format="csr")
    x_1 = np.concatenate([h_1, agg @ h_1], axis=1)
    assert np.all(x_1 @ params.sage_W[1][:, 0] == 0.0)
    _, grads = backward(params, cache, labels)
    _, old_grads = old_backward(params, old_forward_cache(params, batch), labels)
    for name in grads:
        assert_same_bits(grads[name], old_grads[name], name)

    # sums start from +0.0, so the gradients above cannot show dz's sign of
    # zero; check the activation step itself against the 0/1-array product
    z = np.array([[-1.0, -0.0, 0.0, 2.0, np.inf, -np.inf, np.nan]] * 4)
    dh = np.array([-3.0, 3.0, np.inf, np.nan])[:, None] * np.ones_like(z)
    for kind in ACTIVATIONS:
        grad = (z > 0).astype(float) if kind == "relu" else np.where(z > 0, 1.0, LEAKY_SLOPE)
        with np.errstate(invalid="ignore"):  # inf * 0
            want = dh * grad
            got = _act_backward(_act(z.copy(), kind), dh.copy(), kind)
        assert_same_bits(got, want, kind)
        if kind == "relu":
            assert np.signbit(want[0, 1]) and want[0, 1] == 0.0


def test_scoring_keeps_no_per_layer_activations():
    """Scoring one 64-graph batch without the cache peaks near one and a half blocks.

    A block is rows x hidden float64s.  At the default 6 x 128 architecture
    the peak measured 1.52 blocks: H_L, the one full block, and a tile's
    input, its [H, agg @ H] (two widths) and output.  Run over the whole
    batch at once, as before tiles, it peaked at 4.04, and with the
    per-layer cache that pass replaced, at 21.
    """
    rng = np.random.default_rng(34)
    arch = ArchConfig(vocab_size=20)
    params = init_params(arch, 0)
    batch = random_batch(rng, 64, arch.vocab_size, max_nodes=400)
    forward(params, batch, cache=False)  # builds each sample's agg, kept for the next call
    block = sum(s.num_nodes for s in batch) * arch.hidden_dim * 8
    tracemalloc.start()
    try:
        forward(params, batch, cache=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * block, f"peak {peak / block:.2f} blocks"


def test_training_step_keeps_one_block_per_layer():
    """One default-architecture 32-graph forward peaks at 6.86 blocks, backward at 7.41.

    The cache holds H_1 .. H_6, one block per layer.  Forward writes each
    layer's output for a tile into its block, so it peaks at those six and
    a tile's temporaries; run over the whole batch at once it peaked at 8.04,
    with agg @ H_5 and the two-block input [H_5, agg @ H_5].  Backward peaks
    in the top layer, with H_6 released after its mask: H_1 .. H_5, dz, the
    agg @ H_5 block that then takes the input gradient, and a tile's
    temporaries.  Run over the whole batch at once, with agg.T @ (dz @ W[d:].T)
    formed from two full-rows products, it peaked at 8.21.  Keeping H_0 as
    well, as forward did before, peaked at 9.04 and 11.3; caching each
    layer's [H, agg @ H] input peaked at 19.4.
    """
    rng = np.random.default_rng(34)
    arch = ArchConfig(vocab_size=20)
    params = init_params(arch, 0)
    batch = random_batch(rng, 32, arch.vocab_size, max_nodes=400)
    labels = rng.integers(0, 2, len(batch))
    forward(params, batch, cache=False)  # builds each sample's agg, kept for the next call
    block = sum(s.num_nodes for s in batch) * arch.hidden_dim * 8
    tracemalloc.start()
    try:
        _, cache = forward(params, batch)
        forward_peak = tracemalloc.get_traced_memory()[1]
        backward(params, cache, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak < 7 * block, f"forward peak {forward_peak / block:.2f} blocks"
    assert peak < 7.5 * block, f"peak {peak / block:.2f} blocks"


@pytest.mark.parametrize("layers", [1, 3])
def test_backward_reads_a_cache_once(layers):
    """backward leaves hs == [H_1], which the benchmark's row counters read, and
    refuses the same cache again; a one-layer model keeps H_1 and still trains."""
    arch = ArchConfig(vocab_size=7, embed_dim=6, hidden_dim=5, num_sage_layers=layers)
    rng = np.random.default_rng(37)
    params = random_params(arch, rng)
    batch = random_batch(rng, 4, arch.vocab_size)
    labels = [1, 0, 1, 0]
    _, rest = forward(params, batch, cache=False)
    with pytest.raises(CacheMismatch):
        backward(params, rest, labels)

    _, cache = forward(params, batch)
    assert len(cache.hs) == layers
    _, grads = backward(params, cache, labels)
    _, old_grads = old_backward(params, old_forward_cache(params, batch), labels)
    assert grads.keys() == old_grads.keys()
    for name in grads:
        assert_same_bits(grads[name], old_grads[name], name)
    assert len(cache.hs) == 1
    assert cache.hs[0].shape == (sum(s.num_nodes for s in batch), arch.hidden_dim)
    with pytest.raises(CacheMismatch):
        backward(params, cache, labels)


# --- optimizer -------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    params = init_params(SMALL, 3)
    before = {k: a.copy() for k, a in params.tensors().items()}
    state = AdamState.zeros_like(params)
    zero = {k: np.zeros_like(a) for k, a in params.tensors().items()}
    adam_step(params, zero, state, 1)
    for k, a in params.tensors().items():
        assert np.array_equal(a, before[k])


def test_adam_hand_computed_first_step():
    params = init_params(SMALL, 3)
    state = AdamState.zeros_like(params)
    grads = {k: np.zeros_like(a) for k, a in params.tensors().items()}
    grads["out_b"] = np.asarray(1.0)
    assert float(params.out_b) == 0.0
    adam_step(params, grads, state, 1)
    # m̂ = v̂ = 1 → step = −lr/(1+ε)
    assert float(params.out_b) == pytest.approx(-1e-3, rel=1e-6)


def test_adam_deterministic():
    def run():
        params = init_params(SMALL, 3)
        state = AdamState.zeros_like(params)
        samples = [gs([1, 2, 3], [(0, 1), (1, 2)])]
        for t in range(1, 6):
            _, cache = forward(params, samples)
            _, grads = backward(params, cache, [1])
            adam_step(params, grads, state, t)
        return forward(params, samples)[0]
    assert np.array_equal(run(), run())


def test_adam_shape_guard():
    params = init_params(SMALL, 3)
    state = AdamState.zeros_like(params)
    grads = {k: np.zeros_like(a) for k, a in params.tensors().items()}
    grads["out_W"] = np.zeros(99)
    with pytest.raises(ShapeMismatch):
        adam_step(params, grads, state, 1)
    del grads["out_W"]
    with pytest.raises(ShapeMismatch):
        adam_step(params, grads, state, 1)


def random_grads(params, rng):
    """A gradient of every tensor, out_b 0-d as backward gives it."""
    return {k: np.asarray(rng.normal(scale=10.0 ** rng.integers(-6, 2), size=a.shape))
            for k, a in params.tensors().items()}


def test_adam_updates_the_moments_in_place():
    params = init_params(SMALL, 3)
    state = AdamState.zeros_like(params)
    arrays = [*state.m.values(), *state.v.values()]
    rng = np.random.default_rng(41)
    for t in range(1, 4):
        adam_step(params, random_grads(params, rng), state, t)
    assert all(a is b for a, b in zip([*state.m.values(), *state.v.values()], arrays))
    assert np.shape(state.m["out_b"]) == () and state.m["out_b"] != 0


def test_adam_step_leaves_no_allocation_behind():
    """A default-architecture step allocates only temporaries that die in it.

    Rebinding the moments to new arrays left both sets alive, 3,206,224 bytes
    at this architecture; they took the heap space that backward had just
    freed, so the next step's row blocks grew the heap.
    """
    params = init_params(ArchConfig(vocab_size=20), 0)
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(42)
    adam_step(params, random_grads(params, rng), state, 1)
    grads = random_grads(params, rng)
    tracemalloc.start()
    try:
        adam_step(params, grads, state, 2)
        alive = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert alive < 4096, f"{alive} bytes still allocated"


def test_adam_matches_the_out_of_place_formula_bit_for_bit():
    """Five steps at non-default hyperparameters, out_b 0-d included."""
    hyper = dict(lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
    params = random_params(BIT_ARCHS[0], np.random.default_rng(43))
    state = AdamState.zeros_like(params)
    want = {k: (a.copy(), np.zeros_like(a), np.zeros_like(a))
            for k, a in params.tensors().items()}
    rng = np.random.default_rng(44)
    for t in range(1, 6):
        grads = random_grads(params, rng)
        adam_step(params, grads, state, t, **hyper)
        for k, (p, m, v) in want.items():
            g, b1, b2 = grads[k], hyper["beta1"], hyper["beta2"]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            p = p - hyper["lr"] * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + hyper["eps"])
            want[k] = p, m, v
    assert np.shape(params.out_b) == () and np.shape(state.v["out_b"]) == ()
    for k, a in params.tensors().items():
        for got, exp, what in zip((a, state.m[k], state.v[k]), want[k], "pmv"):
            assert_same_bits(got, exp, f"{k} {what}")


# --- persistence -------------------------------------------------------------------

VOCAB5 = OpVocabulary(("<unk>", "add", "load", "store", "sub"))


def test_model_roundtrip_exact(tmp_path):
    params = init_params(SMALL, 13)
    path = tmp_path / "model.json"
    save_model(params, VOCAB5, path)
    loaded, vocab = load_model(path)
    assert vocab.names == VOCAB5.names
    assert loaded.arch == params.arch
    for name, arr in params.tensors().items():
        assert np.array_equal(arr, loaded.tensors()[name]), name
    samples = [gs([1, 2, 3], [(0, 1), (1, 2)])]
    assert np.array_equal(forward(params, samples)[0], forward(loaded, samples)[0])


def test_model_bytes_stable():
    params = init_params(SMALL, 13)
    assert model_to_json(params, VOCAB5) == model_to_json(params, VOCAB5)


def test_model_shape_error_names_tensor():
    params = init_params(SMALL, 13)
    obj = json.loads(model_to_json(params, VOCAB5))
    obj["weights"]["sage_W"][1] = [[0.0] * 3] * 5  # wrong fan-in
    with pytest.raises(ShapeMismatch) as exc:
        model_from_json(json.dumps(obj))
    assert "sage_W.1" in str(exc.value)


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_model_version_must_be_the_integer_1(version):
    bad = json.loads(model_to_json(init_params(SMALL, 13), VOCAB5))
    bad["version"] = version
    with pytest.raises(VersionMismatch, match=f"^{re.escape(f'unsupported model version {version!r}')}$"):
        model_from_json(json.dumps(bad))
    bad["version"] = 1
    bad["vocab"]["version"] = version
    with pytest.raises(GraphFormatError, match="^bad embedded vocabulary$"):
        model_from_json(json.dumps(bad))


def test_model_rejections(tmp_path):
    params = init_params(SMALL, 13)
    ok = json.loads(model_to_json(params, VOCAB5))

    bad = copy.deepcopy(ok)
    bad["version"] = 3
    with pytest.raises(VersionMismatch):
        model_from_json(json.dumps(bad))

    bad = copy.deepcopy(ok)
    bad["vocab"]["names"] = ["<unk>", "add"]
    with pytest.raises(VocabMismatch):
        model_from_json(json.dumps(bad))

    bad = copy.deepcopy(ok)
    bad["weights"]["out_W"] = [1.0, float("nan"), 0.0]
    with pytest.raises(GraphFormatError):
        model_from_json(json.dumps(bad, allow_nan=True))

    bad = copy.deepcopy(ok)
    bad["arch"]["activation"] = "tanh"
    with pytest.raises(GraphFormatError):
        model_from_json(json.dumps(bad))

    bad = copy.deepcopy(ok)
    bad["arch"]["num_sage_layers"] = 2.0
    with pytest.raises(GraphFormatError, match="bad arch"):
        model_from_json(json.dumps(bad))

    bad = copy.deepcopy(ok)
    bad["weights"]["out_W"] = [10**400, 0.0, 0.0]
    with pytest.raises(GraphFormatError, match="out_W"):
        model_from_json(json.dumps(bad))

    p = tmp_path / "m.json"
    p.write_bytes(b"{nope")
    with pytest.raises(MalformedFile):
        load_model(p)


def _set_sage_w(weights, value):
    weights["sage_W"][1][2][0] = value


@pytest.mark.parametrize("mutate", [
    lambda w: w.update(out_b="0.5"),
    lambda w: w.update(out_W=[True, "1e-3", 0.0]),
    lambda w: w.update(out_W=[1, False, 0.0]),
    lambda w: _set_sage_w(w, "0.25"),
], ids=["out_b_string", "out_W_bool_and_string", "out_W_bool", "sage_W_string"])
def test_model_tensors_must_hold_json_numbers(mutate):
    """numpy would read "0.5" as 0.5 and true as 1.0; the reader takes only
    JSON numbers, as the graph reader checks exact element types."""
    obj = json.loads(model_to_json(init_params(SMALL, 13), VOCAB5))
    mutate(obj["weights"])
    with pytest.raises(GraphFormatError,
                       match=r"^tensor '(out_b|out_W|sage_W\.1)' must hold only numbers$"):
        model_from_json(json.dumps(obj))


def test_model_tensors_read_integers_as_numbers():
    obj = json.loads(model_to_json(init_params(SMALL, 13), VOCAB5))
    obj["weights"]["out_W"] = [1, -2, 0]
    obj["weights"]["out_b"] = 3
    params, _ = model_from_json(json.dumps(obj))
    assert params.out_W.tolist() == [1.0, -2.0, 0.0] and float(params.out_b) == 3.0


def test_model_json_keeps_fixed_arch_keys():
    # model files carry both neighbour keys at their one supported value;
    # a file without them loads the same
    params = init_params(SMALL, 13)
    obj = json.loads(model_to_json(params, VOCAB5))
    assert obj["arch"]["neighbor_view"] == "undirected"
    assert obj["arch"]["sample_cap"] is None
    del obj["arch"]["neighbor_view"], obj["arch"]["sample_cap"]
    loaded, _ = model_from_json(json.dumps(obj))
    assert loaded.arch == params.arch


@pytest.mark.parametrize("key, value, detail", [
    ("neighbor_view", "directed_in", "neighbor_view"),
    ("sample_cap", 3, "sample_cap"),
    ("arch", [5, 4, 3, 2], "arch must be an object"),
])
def test_model_rejects_other_arch(key, value, detail):
    obj = json.loads(model_to_json(init_params(SMALL, 13), VOCAB5))
    if key == "arch":
        obj["arch"] = value
    else:
        obj["arch"][key] = value
    with pytest.raises(GraphFormatError) as exc:
        model_from_json(json.dumps(obj))
    assert detail in str(exc.value)


def test_model_vocab_size_guard():
    params = init_params(SMALL, 13)
    with pytest.raises(VocabMismatch):
        model_to_json(params, OpVocabulary(("<unk>", "add")))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_NEAR_MISSES = st.sampled_from([10**400, -1, 0, True, "relu", "undirected", [], {}])


@st.composite
def _mutated_model(draw):
    """A valid model document with a few values replaced or deleted.

    Each edit picks a section (top level, arch, vocabulary, weights or one
    tensor element) and puts there a near miss, such as an int dimension
    given as an equal float, or any JSON value.
    """
    obj = json.loads(model_to_json(init_params(SMALL, 13), VOCAB5))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["top", "arch", "vocab", "weights", "tensor"]))
        target = obj if where == "top" else obj.get("weights" if where == "tensor" else where)
        if where == "tensor" and isinstance(target, dict) and target:
            target = target[draw(st.sampled_from(sorted(target)))]
            while isinstance(target, list) and target and isinstance(target[0], list):
                target = target[draw(st.integers(0, len(target) - 1))]
        if not isinstance(target, (dict, list)) or not target:
            continue
        key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                   else range(len(target))))
        old = target[key]
        if isinstance(target, dict) and draw(st.booleans()):
            del target[key]
            continue
        same = st.just(float(old)) if type(old) is int and abs(old) < 2**53 else _NEAR_MISSES
        target[key] = draw(same | _NEAR_MISSES | _JSON_VALUES)
    data = json.dumps(obj).encode()
    if draw(st.integers(0, 3)):
        return data
    return data[:draw(st.integers(0, len(data)))] + draw(st.binary(max_size=3))


@given(_mutated_model())
@example(b"[" * 100_000 + b"]" * 100_000)
@example(b'{"version":1,"arch":{},"vocab":{},"weights":{},"x":' + b"9" * 5000 + b"}")
@settings(max_examples=300, deadline=None)
def test_mutated_models_raise_only_malgraph_errors(data):
    try:
        params, vocab = model_from_json(data)
    except MalgraphError:
        return
    again, names = model_from_json(model_to_json(params, vocab))
    assert again.arch == params.arch and names == vocab
    for name, arr in params.tensors().items():
        assert np.array_equal(arr, again.tensors()[name]), name
