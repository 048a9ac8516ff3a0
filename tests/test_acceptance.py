"""End-to-end acceptance checks for the whole package.

Each test pins one externally meaningful guarantee: oracle equivalence for
graph construction, centralities and AUROC; gradient correctness; permutation
invariance; synthetic-corpus learnability with a regression baseline;
ablation wiring; byte determinism; and model round-tripping.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from malgraph.analytics import (
    GraphSample,
    _centralities,
    build_vocab,
    encode,
    topo_features,
)
from malgraph.cli import main as cli_main
from malgraph.corpus import CorpusSpec, generate
from malgraph.depgraph import DATA, DepGraph, build_graph
from malgraph.ir import parse_trace
from malgraph.pipeline import TrainConfig, auroc, load_dataset, train
from malgraph.sage import (
    LEAKY_SLOPE,
    ArchConfig,
    backward,
    bce_loss,
    forward,
    init_params,
    load_model,
    save_model,
)

GRAD_REL_TOL = 1e-4
GRAD_EPS = 1e-5
# Central differences in float64 at this epsilon carry ~1e-11 absolute noise,
# so gradients far below that noise / GRAD_REL_TOL cannot be compared
# relatively; the denominator floor keeps the check meaningful there.
GRAD_DENOM_FLOOR = 1e-6
PERM_TOL = 1e-9
CENTRALITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
ROUNDTRIP_TOL = 1e-12

# Regression baseline for the learnability run, recorded from its first
# successful execution (corpus 500+500 seed 42, 30 epochs, seed 0; 323 s).
HARD_MIN_AUROC = 0.95
HARD_MIN_ACC = 0.90
PINNED_TEST_ACC = 0.975
PINNED_TEST_AUROC = 0.9974
PINNED_TOL = 1e-6


def _edge_index(pairs):
    """The 2×E edge_index of (src, dst) pairs."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def _data_graph(n, pairs):
    """n `add` nodes joined by the data edges `pairs`."""
    return DepGraph(ops=("add",) * n, edge_index=_edge_index(pairs),
                    edge_kind=np.full(len(pairs), DATA))


# ------------------------------------------------------------------ 1

def _random_trace_unit(rng):
    n = int(rng.integers(5, 301))
    names = [f"r{k}" for k in range(12)]  # small pool => frequent shadowing
    pick = lambda: names[int(rng.integers(0, len(names)))]
    lines = []
    for _ in range(n):
        d, a, b = pick(), pick(), pick()
        roll = rng.random()
        if roll < 0.35:
            op = ("add", "sub", "mul", "xor")[int(rng.integers(0, 4))]
            ty = ("i8", "i16", "i32", "i64")[int(rng.integers(0, 4))]
            lines.append(f"%{d} = {op} {ty} %{a}, %{b}")
        elif roll < 0.50:
            lines.append(f"%{d} = call i64 @f(i32 %{a}, i32 %{b})")
        elif roll < 0.60:
            lines.append(f"%{d} = getelementptr i32, i32* %{a}, i64 %{b}")
        elif roll < 0.70:
            lines.append(f"%{d} = load double, double* %{a}")
        elif roll < 0.80:
            lines.append(f"store i16 %{a}, i16* %{b}")
        elif roll < 0.90:
            lines.append(f"%{d} = icmp eq i64 %{a}, %{b}")
        else:
            lines.append(f"%{d} = mystery.op %{a}, 7, %{b}")
    return parse_trace("\n".join(lines) + "\n", "random"), n


def _data_edge_oracle(unit):
    """Quadratic most-recent-definition rescan, independent of build_graph."""
    edges = set()
    last = {}
    ptr = unit.src_ptr.tolist()
    for i, d in enumerate(unit.dest.tolist()):
        for src in unit.src[ptr[i]:ptr[i + 1]].tolist():
            j = last.get(src)
            if j is not None:
                edges.add((j, i))
        if d >= 0:
            last[d] = i
    return edges


def test_dependency_edges_match_rescan_oracle():
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        unit, n = _random_trace_unit(rng)
        assert len(unit.opcodes) == n
        g = build_graph(unit)
        src, dst = g.edge_index.tolist()
        got = set(zip(src, dst))
        assert (g.edge_kind == DATA).all()
        assert got == _data_edge_oracle(unit)


def _assert_columns_well_formed(unit):
    """Every register id names exactly one (name, scope); src_ptr is a CSR pointer."""
    named = [i for ids in unit.scopes.values() for i in ids.values()]
    used = set(unit.src.tolist()) | {d for d in unit.dest.tolist() if d >= 0}
    assert all(named.count(i) == 1 for i in used)
    ptr = unit.src_ptr
    assert len(ptr) == len(unit.opcodes) + 1
    assert ptr[0] == 0 and ptr[-1] == len(unit.src) and (np.diff(ptr) >= 0).all()


TWO_SCOPE_TRACES = [
    "define i32 @f(i32 %a) {\n  %x = add i32 %a, %a\n  ret i32 %x\n}\n"
    "define i32 @g(i32 %a) {\n  %x = mul i32 %a, %x\n  ret i32 %x\n}\n",
    "%x = add i32 %a, %b\n"
    "define void @f() {\n  store i32 %x, i32* %p\n  ret void\n}\n"
    "%y = sub i32 %x, %a\n"
    "define i32 @g(i32 %x) {\nentry:\n  %y = call i32 @f(i32 %x)\n  br label %entry\n}\n"
    "ret i32 %y\n",
]


def test_columns_name_each_register_once():
    for i in range(100):
        unit, _ = _random_trace_unit(np.random.default_rng(1000 + i))
        _assert_columns_well_formed(unit)
    for text in TWO_SCOPE_TRACES:
        unit = parse_trace(text, "scopes")
        assert {"f", "g"} <= set(unit.scopes)
        _assert_columns_well_formed(unit)


# ------------------------------------------------------------------ 2

def test_two_instruction_worked_example():
    unit = parse_trace("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4\n", "ex")
    g = build_graph(unit)
    assert g.num_nodes == 2
    assert g.edge_index.tolist() == [[0], [1]]
    assert g.edge_kind.tolist() == [DATA]


# ------------------------------------------------------------------ 3

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(78)
    n = 5
    ops = [int(rng.integers(0, 4)) for _ in range(n)]
    pairs = {(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(8)}
    edges = tuple(sorted(pairs))
    sample = GraphSample(node_ops=tuple(ops), edge_index=_edge_index(edges))
    labels = np.array([1.0])

    arch = ArchConfig(vocab_size=4, embed_dim=8, hidden_dim=8, num_sage_layers=6)
    params = init_params(arch, seed=2)

    def loss_at(p):
        scores, _ = forward(p, [sample])
        return bce_loss(scores, labels)

    scores, cache = forward(params, [sample])

    # every pre-activation must sit clear of the piecewise-linear kink, or
    # finite differences would straddle two slopes and measure neither; the
    # cache keeps H_1 .. H_L until backward, and H_0 is rebuilt from the parameters
    z_all = [params.embed_W[cache.idx] + params.embed_b]
    h_0 = np.maximum(z_all[0], LEAKY_SLOPE * z_all[0])
    xs = [np.concatenate([h, sample.agg @ h], axis=1) for h in [h_0] + cache.hs[:-1]]
    assert len(xs) == arch.num_sage_layers
    z_all += [x @ w + b for x, w, b in zip(xs, params.sage_W, params.sage_b)]
    assert min(float(np.min(np.abs(z))) for z in z_all) > 1e-3
    _, grads = backward(params, cache, labels)

    checked = 0
    for name, tensor in params.tensors().items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + GRAD_EPS
            up = loss_at(params)
            flat[i] = keep - GRAD_EPS
            down = loss_at(params)
            flat[i] = keep
            fd = (up - down) / (2 * GRAD_EPS)
            denom = max(abs(fd), abs(gflat[i]), GRAD_DENOM_FLOOR)
            assert abs(fd - gflat[i]) / denom < GRAD_REL_TOL, (
                f"{name}[{i}]: fd={fd!r} analytic={gflat[i]!r}")
            checked += 1
    assert checked == sum(t.size for t in params.tensors().values())


# ------------------------------------------------------------------ 4

def test_scores_invariant_under_node_relabeling():
    arch = ArchConfig(vocab_size=6, embed_dim=16, hidden_dim=16,
                      num_sage_layers=3)
    params = init_params(arch, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 3 * n))
        pairs = sorted({(int(rng.integers(0, n)), int(rng.integers(0, n)))
                        for _ in range(m)})
        ops = tuple(int(v) for v in rng.integers(0, 6, size=n))
        rng.integers(1, 9, size=len(pairs))  # unused; keeps the later seeded draws
        g = GraphSample(node_ops=ops, edge_index=_edge_index(pairs))

        perm = rng.permutation(n)
        new_ops = [0] * n
        for old, new in enumerate(perm):
            new_ops[new] = ops[old]
        new_edges = tuple((int(perm[a]), int(perm[b])) for a, b in pairs)
        h = GraphSample(node_ops=tuple(new_ops), edge_index=_edge_index(new_edges))

        s1, _ = forward(params, [g])
        s2, _ = forward(params, [h])
        assert abs(float(s1[0]) - float(s2[0])) < PERM_TOL


# ------------------------------------------------------------------ 5

def _auroc_pairwise(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_auroc_equals_pairwise_oracle():
    rng = np.random.default_rng(123)
    for _ in range(500):
        n = int(rng.integers(2, 201))
        # coarse grid mixed with continuous values guarantees ties
        grid = rng.integers(0, 5, size=n) / 4.0
        cont = rng.random(n)
        mask = rng.random(n) < 0.6
        scores = np.where(mask, grid, cont)
        labels = (rng.random(n) < 0.5).astype(int)
        labels[0], labels[-1] = 0, 1  # both classes present
        assert auroc(scores, labels) == _auroc_pairwise(scores, labels)


# ------------------------------------------------------------------ 6

def _fw_distances(n, neighbors):
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for v in range(n):
        for u in neighbors[v]:
            dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def _sigma_counts(n, neighbors, dist):
    """sigma[s, t] = number of distinct shortest s-t paths."""
    sigma = np.zeros((n, n))
    for s in range(n):
        sigma[s, s] = 1.0
        order = sorted((v for v in range(n) if np.isfinite(dist[s, v])),
                       key=lambda v: dist[s, v])
        for t in order:
            if t == s:
                continue
            sigma[s, t] = sum(sigma[s, u] for u in neighbors[t]
                              if dist[s, u] == dist[s, t] - 1)
    return sigma


def _centrality_oracles(g):
    n = g.num_nodes
    neighbors = [set() for _ in range(n)]
    for src, dst in g.edge_index.T.tolist():
        if src != dst:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
    degree = [len(neighbors[v]) / (n - 1) for v in range(n)]
    dist = _fw_distances(n, neighbors)

    closeness = []
    for v in range(n):
        reach = np.isfinite(dist[v])
        r = int(reach.sum())
        if r <= 1:
            closeness.append(0.0)
            continue
        total = float(dist[v][reach].sum())
        closeness.append(((r - 1) / total) * ((r - 1) / (n - 1)))

    sigma = _sigma_counts(n, neighbors, dist)
    betweenness = []
    for v in range(n):
        acc = 0.0
        for s in range(n):
            for t in range(n):
                if s == t or s == v or t == v:
                    continue
                if not np.isfinite(dist[s, t]) or sigma[s, t] == 0:
                    continue
                if dist[s, v] + dist[v, t] == dist[s, t]:
                    acc += sigma[s, v] * sigma[v, t] / sigma[s, t]
        betweenness.append(acc / ((n - 1) * (n - 2)) if n > 2 else 0.0)
    return degree, closeness, betweenness


def _random_depgraph(rng):
    n = int(rng.integers(2, 51))
    m = int(rng.integers(0, 2 * n + 1))
    pairs = sorted({(int(rng.integers(0, n)), int(rng.integers(0, n)))
                    for _ in range(m)})
    return _data_graph(n, pairs)


def test_centralities_match_enumeration_oracle():
    for i in range(50):
        rng = np.random.default_rng(4000 + i)
        g = _random_depgraph(rng)
        deg_o, clo_o, bet_o = _centrality_oracles(g)

        deg_impl, clo_impl, pair_sum = _centralities(g)

        assert np.allclose(deg_impl, deg_o, atol=CENTRALITY_TOL, rtol=0)
        assert np.allclose(clo_impl, clo_o, atol=CENTRALITY_TOL, rtol=0)
        # every shortest s-t path has d(s, t) - 1 interior nodes, so the
        # betweenness of all nodes sums to the path-length sum
        n = g.num_nodes
        bet_sum = pair_sum / ((n - 1) * (n - 2)) if n > 2 else 0.0
        assert abs(bet_sum - sum(bet_o)) < CENTRALITY_TOL

        tf = topo_features(g)
        assert abs(tf.avg_degree_centrality - np.mean(deg_o)) < CENTRALITY_TOL
        assert abs(tf.avg_closeness_centrality - np.mean(clo_o)) < CENTRALITY_TOL
        assert abs(tf.avg_betweenness_centrality - np.mean(bet_o)) < CENTRALITY_TOL


def test_betweenness_exact_when_path_counts_exceed_float64():
    # 0 → 700 fully joined layers of 3 → last node: about 3^700 shortest
    # paths end to end, far past float64's largest value.  The pin is the
    # exact-integer Brandes result.
    layers, width = 700, 3
    n = 2 + layers * width
    pairs = [(0, 1 + j) for j in range(width)]
    for k in range(layers - 1):
        a = 1 + k * width
        pairs += [(a + i, a + width + j) for i in range(width) for j in range(width)]
    last = 1 + (layers - 1) * width
    pairs += [(last + j, n - 1) for j in range(width)]
    tf = topo_features(_data_graph(n, pairs))
    assert abs(tf.avg_betweenness_centrality - 0.11079465730981769) < CENTRALITY_TOL


def test_path_graph_closed_forms():
    tf = topo_features(_data_graph(3, [(0, 1), (1, 2)]))
    assert abs(tf.avg_degree_centrality - 2 / 3) < CLOSED_FORM_TOL
    assert abs(tf.avg_closeness_centrality - 7 / 9) < CLOSED_FORM_TOL
    assert abs(tf.avg_betweenness_centrality - 1 / 3) < CLOSED_FORM_TOL


# ------------------------------------------------------------------ 7

def test_default_corpus_learnability():
    with tempfile.TemporaryDirectory() as d:
        manifest = generate(
            CorpusSpec(benign_count=500, malicious_count=500, seed=42), d)
        cfg = TrainConfig(arch=ArchConfig(vocab_size=1), epochs=30, seed=0)
        result = train(manifest, cfg)
    last = result.history[-1]
    assert last.test_auroc >= HARD_MIN_AUROC
    assert last.test_acc >= HARD_MIN_ACC
    if PINNED_TEST_ACC is not None:
        assert abs(last.test_acc - PINNED_TEST_ACC) < PINNED_TOL
        assert abs(last.test_auroc - PINNED_TEST_AUROC) < PINNED_TOL


# ------------------------------------------------------------------ 8

ABLATION_ROWS = [(False, "relu"), (True, "leaky_relu"), (True, "relu")]


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_corpus")
    manifest = generate(CorpusSpec(benign_count=20, malicious_count=20, seed=7),
                        root)
    return manifest


def test_ablation_grid_trains(small_corpus):
    for layers in (4, 6, 8, 10):
        for use_embedding, activation in ABLATION_ROWS:
            arch = ArchConfig(vocab_size=1, embed_dim=128, hidden_dim=128,
                              num_sage_layers=layers,
                              use_embedding=use_embedding,
                              activation=activation)
            cfg = TrainConfig(arch=arch, epochs=2, seed=1)
            result = train(small_corpus, cfg)
            tensors = result.params.tensors()
            vocab_n = result.vocab.size
            d_in = 128 if use_embedding else vocab_n
            assert ("embed_W" in tensors) == use_embedding
            if use_embedding:
                assert tensors["embed_W"].shape == (vocab_n, 128)
            for k in range(layers):
                assert tensors[f"sage_W.{k}"].shape == (2 * d_in, 128)
                assert tensors[f"sage_b.{k}"].shape == (128,)
                d_in = 128
            assert tensors["out_W"].shape == (128,)
            assert all(np.isfinite(t).all() for t in tensors.values())


# ------------------------------------------------------------------ 9

def test_training_runs_are_byte_identical(small_corpus, tmp_path):
    manifest_path = Path(small_corpus.base_dir) / "manifest.jsonl"
    outputs = []
    for name in ("one", "two"):
        model = tmp_path / f"{name}.json"
        history = tmp_path / f"{name}.csv"
        code = cli_main(["train", "--manifest", str(manifest_path),
                         "--out", str(model), "--history", str(history),
                         "--epochs", "3", "--hidden", "16", "--layers", "4",
                         "--seed", "5"])
        assert code == 0
        outputs.append((model.read_bytes(), history.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


# ------------------------------------------------------------------ 10

def test_model_roundtrip_preserves_scores(small_corpus, tmp_path):
    graphs = load_dataset(small_corpus)[:20]
    vocab = build_vocab(graphs)
    samples = [encode(g, vocab) for g in graphs]
    arch = ArchConfig(vocab_size=vocab.size, embed_dim=24, hidden_dim=24,
                      num_sage_layers=4)
    params = init_params(arch, seed=6)

    before, _ = forward(params, samples)
    path = tmp_path / "model.json"
    save_model(params, vocab, path)
    loaded_params, loaded_vocab = load_model(path)
    assert loaded_vocab.names == vocab.names
    after, _ = forward(loaded_params, samples)
    assert len(before) == 20
    assert np.max(np.abs(before - after)) < ROUNDTRIP_TOL
