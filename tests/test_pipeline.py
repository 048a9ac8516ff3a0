"""Dataset/split/metric/training-loop tests, with a brute-force AUROC oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from malgraph import pipeline
from malgraph.analytics import GraphSample
from malgraph.corpus import CorpusSpec, generate
from malgraph.depgraph import build_graph, from_json, save_graph, to_json
from malgraph.errors import (
    IoError,
    MalformedFile,
    MalgraphError,
    NonFiniteScores,
    SingleClass,
    TooFewSamples,
)
from malgraph.ir import parse_trace
from malgraph.pipeline import (
    HISTORY_CSV_HEADER,
    SCORE_ROWS,
    THRESHOLD,
    EpochStats,
    Manifest,
    ManifestEntry,
    TrainConfig,
    auroc,
    eval_per_family,
    eval_scores,
    load_dataset,
    load_manifest,
    metrics,
    save_history,
    save_manifest,
    score_samples,
    split,
    train,
    worker_count,
)
from malgraph.sage import ArchConfig, init_params


def auroc_oracle(scores, labels):
    """All-pairs Mann–Whitney count, 0.5 per tie."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    num = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                num += 1.0
            elif sp == sn:
                num += 0.5
    return num / (len(pos) * len(neg))


# --- auroc ---------------------------------------------------------------------

def test_auroc_examples():
    assert auroc([0.9, 0.8, 0.7, 0.3], [1, 1, 0, 0]) == 1.0
    assert auroc([0.9, 0.8, 0.85, 0.3], [1, 1, 0, 0]) == 0.75
    assert auroc([0.4, 0.4, 0.4, 0.4], [1, 1, 0, 0]) == 0.5


def test_auroc_single_class():
    with pytest.raises(SingleClass):
        auroc([0.4, 0.6], [1, 1])
    with pytest.raises(SingleClass):
        auroc([0.4, 0.6], [0, 0])


@given(st.lists(
    st.tuples(st.one_of(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
                        st.floats(0, 1, allow_nan=False)),
              st.integers(0, 1)),
    min_size=2, max_size=200))
def test_auroc_matches_pairwise_oracle_exactly(rows):
    labels = [y for _, y in rows]
    assume(0 < sum(labels) < len(labels))
    scores = [s for s, _ in rows]
    assert auroc(scores, labels) == auroc_oracle(scores, labels)


@given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 1)),
                min_size=2, max_size=80),
       st.integers(0, 2**31))
def test_auroc_invariant_under_monotone_maps(rows, seed):
    labels = [y for _, y in rows]
    assume(0 < sum(labels) < len(labels))
    scores = [s for s, _ in rows]
    # a random strictly increasing map, realized exactly on the score set
    # (naive float formulas like exp(x) can collapse close scores into ties)
    uniq = sorted(set(scores))
    steps = np.random.default_rng(seed).integers(1, 1000, size=len(uniq))
    remap = dict(zip(uniq, np.cumsum(steps).astype(float)))
    assert auroc(scores, labels) == auroc([remap[s] for s in scores], labels)


# --- metrics ---------------------------------------------------------------------

def test_metrics_examples():
    assert metrics([0.9, 0.1], [1, 0]) == {"acc": 1.0, "f1": 1.0}
    m = metrics([0.9, 0.9], [1, 0])
    assert m["acc"] == 0.5
    assert m["f1"] == pytest.approx(2 / 3)
    # nothing predicted positive but positives exist → zero-denominator rule
    assert metrics([0.1, 0.2], [1, 0])["f1"] == 0.0


def test_metrics_threshold_is_inclusive():
    assert metrics([0.5], [1])["acc"] == 1.0
    assert metrics([0.49999], [1])["acc"] == 0.0


# --- manifests and splitting ------------------------------------------------------

def man(n_benign, n_mal, base=""):
    entries = [ManifestEntry(f"b{i}.trace", 0, "benign") for i in range(n_benign)]
    entries += [ManifestEntry(f"m{i}.trace", 1, "worm") for i in range(n_mal)]
    return Manifest(tuple(entries), base)


def test_manifest_validation():
    with pytest.raises(ValueError):
        Manifest((ManifestEntry("a", 0, "benign"), ManifestEntry("a", 1, "worm")))
    with pytest.raises(ValueError):
        Manifest((ManifestEntry("a", 2, "worm"),))
    with pytest.raises(ValueError):
        Manifest((ManifestEntry("a", 1, ""),))


def test_split_80_20():
    tr, te = split(man(10, 10), 0.8, 0)
    assert len(tr) == 16 and len(te) == 4
    for part, counts in ((tr, 8), (te, 2)):
        labels = [e.label for e in part.entries]
        assert labels.count(0) == counts and labels.count(1) == counts


def test_split_deterministic_and_partition():
    m = man(7, 9)
    a_tr, a_te = split(m, 0.8, 5)
    b_tr, b_te = split(m, 0.8, 5)
    assert a_tr == b_tr and a_te == b_te
    all_paths = {e.path for e in m.entries}
    got = [e.path for e in a_tr.entries] + [e.path for e in a_te.entries]
    assert sorted(got) == sorted(all_paths)
    c_tr, _ = split(m, 0.8, 6)
    assert c_tr != a_tr  # different seed, different shuffle


def test_split_ceiling_rule():
    tr, te = split(man(3, 3), 0.5, 1)
    labels = [e.label for e in tr.entries]
    assert labels.count(0) == 2 and labels.count(1) == 2
    assert len(te) == 2


def test_split_too_few():
    with pytest.raises(TooFewSamples):
        split(man(1, 5), 0.8, 0)


@given(st.integers(2, 30), st.integers(2, 30),
       st.floats(0.1, 0.9), st.integers(0, 99))
@settings(max_examples=60)
def test_split_partition_property(nb, nm, fraction, seed):
    m = man(nb, nm)
    tr, te = split(m, fraction, seed)
    tr_paths = {e.path for e in tr.entries}
    te_paths = {e.path for e in te.entries}
    assert tr_paths.isdisjoint(te_paths)
    assert tr_paths | te_paths == {e.path for e in m.entries}
    for label, total in ((0, nb), (1, nm)):
        want = math.ceil(fraction * total)
        assert sum(1 for e in tr.entries if e.label == label) == want


def test_manifest_jsonl_roundtrip(tmp_path):
    m = man(2, 3, str(tmp_path))
    p = tmp_path / "manifest.jsonl"
    save_manifest(m, p)
    text = p.read_text()
    assert text.splitlines()[0] == '{"path":"b0.trace","label":0,"family":"benign"}'
    back = load_manifest(p)
    assert back.entries == m.entries
    assert back.base_dir == str(tmp_path)


def test_manifest_jsonl_rejections(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('{"path":"a","label":1,"family":"worm"}\nnot json\n')
    with pytest.raises(MalformedFile) as exc:
        load_manifest(p)
    assert "line 2" in str(exc.value)
    p.write_text('{"path":"a","label":true,"family":"worm"}\n')
    with pytest.raises(MalformedFile):
        load_manifest(p)
    p.write_text('{"path":"a","label":1}\n')
    with pytest.raises(MalformedFile):
        load_manifest(p)
    with pytest.raises(IoError):
        load_manifest(tmp_path / "absent.jsonl")


_MANIFEST_LINE = b'{"path":"a.trace","label":1,"family":"worm"}'
_MANIFEST_NOISE = st.sampled_from([b"{", b"}", b'"', b",", b":", b"[", b"]", b"\n", b"\xe9",
                                   b"\xff", b"0", b"9" * 5000, b"true", b"null", b"label",
                                   b"path", b"family", b"a.trace", b"-1", b"1.0", b"\\"])


@st.composite
def _mutated_manifest(draw):
    """Valid manifest lines with a few byte runs cut out or spliced in."""
    data = b"\n".join([_MANIFEST_LINE.replace(b"a.trace", b"f%d" % i)
                       for i in range(draw(st.integers(1, 3)))])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 4))
        data = data[:at] + draw(_MANIFEST_NOISE | st.binary(max_size=3)) + data[at + cut:]
    return data


@given(_mutated_manifest())
@example(b"[" * 100_000 + b"]" * 100_000)
@example(_MANIFEST_LINE.replace(b"1", b"1" * 5000))
@settings(max_examples=300, deadline=None)
def test_mutated_manifests_raise_only_malgraph_errors(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "m.jsonl"
    p.write_bytes(data)
    try:
        m = load_manifest(p)
    except MalformedFile as e:
        assert str(p) in str(e) and "\n" not in str(e)
        return
    assert all(e.label in (0, 1) and e.family for e in m.entries)


def test_worker_count(monkeypatch):
    monkeypatch.delenv("MGN_THREADS", raising=False)
    assert worker_count() >= 1
    monkeypatch.setenv("MGN_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("MGN_THREADS", "0")
    with pytest.raises(MalgraphError):
        worker_count()
    monkeypatch.setenv("MGN_THREADS", "lots")
    with pytest.raises(MalgraphError):
        worker_count()


# --- dataset loading ---------------------------------------------------------------

BENIGN_TRACE = """\
%a = add i32 %x, %y
%b = add i32 %a, %x
%c = add i32 %b, %a
%d = add i32 %c, %b
"""

MAL_TRACE = """\
%a = mul i64 %x, %y
%b = mul i64 %a, %x
%c = mul i64 %b, %a
%d = mul i64 %c, %b
%e = mul i64 %d, %a
"""


def _write_corpus(tmp_path, n_benign=6, n_mal=6, mal_text=MAL_TRACE):
    entries = []
    for i in range(n_benign):
        (tmp_path / f"b{i}.trace").write_text(BENIGN_TRACE)
        entries.append(ManifestEntry(f"b{i}.trace", 0, "benign"))
    for i in range(n_mal):
        (tmp_path / f"m{i}.trace").write_text(mal_text)
        family = "worm" if i % 2 == 0 else "trojan"
        entries.append(ManifestEntry(f"m{i}.trace", 1, family))
    return Manifest(tuple(entries), str(tmp_path))


def test_load_dataset_dispatch(tmp_path):
    (tmp_path / "a.trace").write_text("%a = add i32 %x, %y\n")
    (tmp_path / "b.ll").write_text(
        "define i32 @f(i32 %x) {\n  %a = mul i32 %x, %x\n  ret i32 %a\n}\n")
    g = build_graph(parse_trace("%q = sub i8 %u, %v\n%r = sub i8 %q, %u", "orig"))
    save_graph(g, tmp_path / "c.json")

    m = Manifest((ManifestEntry("a.trace", 0, "benign"),
                  ManifestEntry("b.ll", 1, "worm"),
                  ManifestEntry("c.json", 1, "trojan")), str(tmp_path))
    graphs = load_dataset(m)
    assert [g.num_nodes for g in graphs] == [1, 2, 2]
    assert graphs[1].ops[0] == "mul"


def test_load_dataset_error_paths(tmp_path):
    (tmp_path / "bad.trace").write_text("%broken\n")
    m = Manifest((ManifestEntry("bad.trace", 0, "benign"),), str(tmp_path))
    with pytest.raises(MalformedFile) as exc:
        load_dataset(m)
    assert "bad.trace" in str(exc.value)
    m2 = Manifest((ManifestEntry("missing.trace", 0, "benign"),), str(tmp_path))
    with pytest.raises(IoError):
        load_dataset(m2)


def test_read_graph_line_endings_give_identical_graphs(tmp_path):
    lines = ["define i32 @f(i32 %x) {", "  %a = mul i32 %x, %x",
             "  store i32 %a, i32* %p ; addr=0x8", "  %b = load i32, i32* %p ; addr=0x8",
             "  br label %next", "  %c = add i32 %b, %a", "  ret i32 %c", "}"]
    path = tmp_path / "f.ll"
    docs = []
    for newline in ("\n", "\r\n", "\r"):
        path.write_bytes((newline.join(lines) + newline).encode())
        docs.append(to_json(pipeline.read_graph(path, control_edges=True,
                                                memory_edges=True)))
    assert docs[0] == docs[1] == docs[2]
    g = from_json(docs[0])
    assert g.num_nodes == 6 and len(set(g.edge_kind.tolist())) == 3  # every edge kind


# --- training loop -------------------------------------------------------------------

SMALL_ARCH = ArchConfig(vocab_size=1, embed_dim=8, hidden_dim=8, num_sage_layers=2)


def test_train_history_and_determinism(tmp_path):
    manifest = _write_corpus(tmp_path)
    cfg = TrainConfig(arch=SMALL_ARCH, epochs=3, seed=7, batch_size=4)
    r1 = train(manifest, cfg)
    r2 = train(manifest, cfg)
    assert [h.epoch for h in r1.history] == [1, 2, 3]
    assert r1.history == r2.history  # bit-identical trajectories
    for h in r1.history:
        assert h.train_loss >= 0
        assert 0 <= h.test_acc <= 1
        assert 0 <= h.test_auroc <= 1
    # mul vs add with distinct sizes separates easily
    assert r1.history[-1].test_acc == 1.0
    assert r1.vocab.names == ("<unk>", "add", "mul")


def test_train_single_full_batch_is_one_step(tmp_path):
    from malgraph.sage import AdamState, adam_step, backward, forward, init_params
    from malgraph.analytics import build_vocab, encode

    manifest = _write_corpus(tmp_path)
    cfg = TrainConfig(arch=SMALL_ARCH, epochs=1, seed=3, batch_size=999)
    result = train(manifest, cfg)

    # replay by hand: one forward/backward/step over the whole train split
    tr, _ = split(manifest, cfg.split_fraction, cfg.seed)
    graphs = load_dataset(tr)
    vocab = build_vocab(graphs)
    arch = dataclasses.replace(cfg.arch, vocab_size=vocab.size)
    params = init_params(arch, cfg.seed)
    samples = [encode(g, vocab) for g in graphs]
    labels = np.array([e.label for e in tr.entries], dtype=float)
    _, cache = forward(params, samples)
    loss, grads = backward(params, cache, labels)
    adam_step(params, grads, AdamState.zeros_like(params), 1)

    assert result.history[0].train_loss == pytest.approx(loss, abs=1e-12)
    for name, arr in result.params.tensors().items():
        assert np.allclose(arr, params.tensors()[name], atol=1e-12), name


def test_train_enters_each_forward_without_an_earlier_steps_activations(
        tmp_path, monkeypatch):
    """Live traced memory at each training forward stays within one row block
    (the smallest batch's rows x hidden float64s) of the first forward's.

    Samples build their mean matrices on first use, a few percent of a block.
    Holding the previous step's cache into the next forward, as the loop once
    did, left about 13 blocks alive.
    """
    manifest = generate(CorpusSpec(benign_count=8, malicious_count=8, seed=5), tmp_path)
    # 14 train graphs: two batches of 7 per epoch
    cfg = TrainConfig(arch=ArchConfig(vocab_size=1), epochs=3, seed=5, batch_size=7)
    entries = []  # (live traced bytes, rows) at each training forward's entry
    real_forward = pipeline.forward

    def traced_forward(params, batch, *, cache=True):
        if cache:
            entries.append((tracemalloc.get_traced_memory()[0],
                            sum(s.num_nodes for s in batch)))
        return real_forward(params, batch, cache=cache)

    monkeypatch.setattr(pipeline, "forward", traced_forward)
    tracemalloc.start()
    try:
        train(manifest, cfg)
    finally:
        tracemalloc.stop()
    assert len(entries) == 6
    block = min(rows for _, rows in entries) * cfg.arch.hidden_dim * 8
    first = entries[0][0]
    for step, (live, _) in enumerate(entries[1:], start=2):
        assert live - first < block, f"step {step}: {(live - first) / block:.2f} blocks"


def test_train_rejects_single_class_test_split(tmp_path):
    manifest = _write_corpus(tmp_path, n_benign=2, n_mal=2)
    cfg = TrainConfig(arch=SMALL_ARCH, epochs=1, seed=0)
    with pytest.raises(TooFewSamples):
        train(manifest, cfg)  # ceil(0.8·2)=2 → empty test split


def test_vocab_scope_guards_leakage(tmp_path):
    # "xor" appears in exactly one malicious file
    manifest = _write_corpus(tmp_path, n_benign=6, n_mal=6)
    special = tmp_path / "m0.trace"
    special.write_text(MAL_TRACE + "%z = xor i32 %a, %b\n")

    cfg = TrainConfig(arch=SMALL_ARCH, epochs=1, seed=11, batch_size=4)
    r_train = train(manifest, cfg)

    train_m, _ = split(manifest, cfg.split_fraction, cfg.seed)
    in_train_split = any(e.path == "m0.trace" for e in train_m.entries)
    assert ("xor" in r_train.vocab.names) == in_train_split
    if not in_train_split:
        assert r_train.vocab.index_of("xor") == 0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(arch=SMALL_ARCH, epochs=0, seed=1)
    with pytest.raises(ValueError):
        TrainConfig(arch=SMALL_ARCH, epochs=1, seed=1, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(arch=SMALL_ARCH, epochs=1, seed=1, split_fraction=1.0)


# --- evaluation ------------------------------------------------------------------------

def test_eval_per_family(tmp_path):
    manifest = _write_corpus(tmp_path)
    cfg = TrainConfig(arch=SMALL_ARCH, epochs=5, seed=7, batch_size=4)
    result = train(manifest, cfg)
    report = eval_per_family(result.params, result.vocab, manifest)
    assert set(report.per_family) == {"benign", "worm", "trojan"}
    # train's last scores of its test split report what re-reading the split reports
    assert eval_scores(result.test_scores, result.test_manifest) == \
        eval_per_family(result.params, result.vocab, result.test_manifest)
    assert report.per_family["benign"]["samples"] == 6
    assert report.per_family["worm"]["samples"] == 3
    assert sum(v["samples"] for v in report.per_family.values()) == len(manifest)
    for v in report.per_family.values():
        assert 0 <= v["acc"] <= 1
    assert THRESHOLD == 0.5
    assert report.auroc is not None and 0 <= report.auroc <= 1


def test_eval_single_class_has_no_auroc(tmp_path):
    manifest = _write_corpus(tmp_path)
    cfg = TrainConfig(arch=SMALL_ARCH, epochs=2, seed=7, batch_size=4)
    result = train(manifest, cfg)
    benign_only = Manifest(tuple(e for e in manifest.entries if e.label == 0),
                           manifest.base_dir)
    report = eval_per_family(result.params, result.vocab, benign_only)
    assert report.auroc is None
    assert 0 <= report.acc <= 1 and 0 <= report.f1 <= 1
    assert set(report.per_family) == {"benign"}

    with pytest.raises(TooFewSamples):
        eval_per_family(result.params, result.vocab,
                        Manifest((), manifest.base_dir))


# --- scoring in row blocks -------------------------------------------------------------

def random_samples(rng, sizes, vocab_size):
    """One GraphSample of each node count in `sizes`, with up to 2n random edges."""
    samples = []
    for n in sizes:
        edges = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n + 1))))
        samples.append(GraphSample(node_ops=tuple(rng.integers(0, vocab_size, n).tolist()),
                                   edge_index=edges.astype(np.int64)))
    return samples


def test_scoring_runs_consecutive_blocks_of_at_most_score_rows(monkeypatch):
    rng = np.random.default_rng(36)
    arch = ArchConfig(vocab_size=7, embed_dim=6, hidden_dim=5, num_sage_layers=2)
    params = init_params(arch, 1)
    q = SCORE_ROWS // 4
    # an exact fit, two over-size graphs alone, an exact fit, one row over
    sizes = [q, 2 * q, q, SCORE_ROWS + 1, SCORE_ROWS, 1, SCORE_ROWS - 1, 2 * q, 2 * q + 1, 3]
    samples = random_samples(rng, sizes, arch.vocab_size)
    blocks = []
    real_forward = pipeline.forward

    def recording_forward(params, batch, *, cache=True):
        assert not cache
        blocks.append(list(batch))
        return real_forward(params, batch, cache=cache)

    monkeypatch.setattr(pipeline, "forward", recording_forward)
    scores = score_samples(params, samples)
    assert [len(b) for b in blocks] == [3, 1, 1, 2, 1, 2]
    assert [s for b in blocks for s in b] == samples  # consecutive, in sample order
    for b in blocks:
        assert len(b) == 1 or sum(s.num_nodes for s in b) <= SCORE_ROWS
    want = np.concatenate([real_forward(params, b, cache=False)[0] for b in blocks])
    assert np.array_equal(scores, want)  # bit for bit
    assert score_samples(params, []).shape == (0,)
    assert len(blocks) == 6  # no forward for an empty list


def test_scoring_counts_every_non_finite_score(monkeypatch):
    """Scoring finishes every block, then reports all the graphs it lost."""
    rng = np.random.default_rng(37)
    arch = ArchConfig(vocab_size=7, embed_dim=6, hidden_dim=5, num_sage_layers=2)
    params = init_params(arch, 1)
    params.embed_W[:] = 1e308
    samples = random_samples(rng, [3, 4, 5, 6, 7], arch.vocab_size)
    blocks = []
    real_forward = pipeline.forward
    monkeypatch.setattr(pipeline, "SCORE_ROWS", 8)
    monkeypatch.setattr(pipeline, "forward",
                        lambda p, b, **kw: blocks.append(b) or real_forward(p, b, **kw))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteScores) as e:
        score_samples(params, samples)
    assert len(blocks) == 4
    assert (e.value.bad, e.value.total) == (5, 5)
    assert str(e.value) == "5 of 5 scores are not finite"


@pytest.mark.parametrize("graphs", [30, 120])
def test_scoring_memory_is_bounded_in_rows_not_graphs(graphs):
    """Scoring peaks near two and a half blocks of SCORE_ROWS x hidden float64s.

    At the default 6 x 128 architecture these 30 and 120 graphs of up to 400
    nodes peak at 2.37 and 2.58 blocks: one forward's H_L block and tile
    temporaries; the forward before has freed its own.  Run untiled, with
    the block of the forward before still held, they peaked at 3.96 and
    5.01; scored in 64-graph batches, as they once were, at 6.28 and 13.24,
    growing with the graph count.
    """
    rng = np.random.default_rng(35)
    arch = ArchConfig(vocab_size=20)
    params = init_params(arch, 0)
    samples = random_samples(rng, rng.integers(1, 401, graphs), arch.vocab_size)
    score_samples(params, samples)  # builds each sample's agg, kept for the next call
    block = SCORE_ROWS * arch.hidden_dim * 8
    tracemalloc.start()
    try:
        score_samples(params, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.7 * block, f"peak {peak / block:.2f} blocks"


# --- history file -----------------------------------------------------------------------

def test_save_history_roundtrip_precision(tmp_path):
    history = [EpochStats(1, 0.6931471805599453, 0.5, 0.5),
               EpochStats(2, 0.123456789012345678, 1 / 3, 0.9999999999999999)]
    p = tmp_path / "history.csv"
    save_history(history, p)
    lines = p.read_text().splitlines()
    assert lines[0] == HISTORY_CSV_HEADER
    assert len(lines) == 3
    for row, h in zip(lines[1:], history):
        epoch, loss, acc, area = row.split(",")
        assert int(epoch) == h.epoch
        assert float(loss) == h.train_loss
        assert float(acc) == h.test_acc
        assert float(area) == h.test_auroc
