import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgraph.corpus import (
    BENIGN_FAMILIES,
    MALICIOUS_FAMILIES,
    CorpusSpec,
    generate,
)
from malgraph.depgraph import build_graph
from malgraph.errors import IoError
from malgraph.ir import parse_trace
from malgraph.pipeline import load_dataset, load_manifest


def read_traces(out_dir):
    return sorted(Path(out_dir, "traces").glob("*.trace"))


def test_two_file_corpus_layout(tmp_path):
    man = generate(CorpusSpec(benign_count=1, malicious_count=1, seed=5), tmp_path)
    files = read_traces(tmp_path)
    assert len(files) == 2
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert [e.label for e in man.entries] == [0, 1]
    assert man.entries[0].family == "benign"
    assert man.entries[1].family in MALICIOUS_FAMILIES
    for e in man.entries:
        assert e.path.startswith("traces/") and e.path.endswith(".trace")
    # filename carries the motif family and the global file index
    b_fam = man.entries[0].path.removeprefix("traces/").rsplit("_", 1)[0]
    assert b_fam in BENIGN_FAMILIES
    assert man.entries[0].path.endswith("_0.trace")
    assert man.entries[1].path.endswith("_1.trace")


def test_regeneration_is_byte_identical(tmp_path):
    spec = CorpusSpec(benign_count=4, malicious_count=4, seed=11)
    a, b = tmp_path / "a", tmp_path / "b"
    generate(spec, a)
    generate(spec, b)
    fa, fb = read_traces(a), read_traces(b)
    assert [f.name for f in fa] == [f.name for f in fb]
    for x, y in zip(fa, fb):
        assert x.read_bytes() == y.read_bytes()
    assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()


def test_file_content_depends_only_on_seed_and_index(tmp_path):
    # shrinking the malicious half must not perturb the benign files
    a, b = tmp_path / "a", tmp_path / "b"
    generate(CorpusSpec(benign_count=3, malicious_count=3, seed=9), a)
    generate(CorpusSpec(benign_count=3, malicious_count=1, seed=9), b)
    for i in range(3):
        xa = [f for f in read_traces(a) if f.stem.endswith(f"_{i}")]
        xb = [f for f in read_traces(b) if f.stem.endswith(f"_{i}")]
        assert xa[0].name == xb[0].name
        assert xa[0].read_bytes() == xb[0].read_bytes()


def test_different_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(CorpusSpec(benign_count=2, malicious_count=2, seed=1), a)
    generate(CorpusSpec(benign_count=2, malicious_count=2, seed=2), b)
    assert (a / "manifest.jsonl").read_bytes() != (b / "manifest.jsonl").read_bytes() or any(
        x.read_bytes() != y.read_bytes() for x, y in zip(read_traces(a), read_traces(b))
    )


def test_every_file_parses_and_sizes_in_range(tmp_path):
    spec = CorpusSpec(benign_count=20, malicious_count=20, seed=3, size_range=(30, 90))
    man = generate(spec, tmp_path)
    for e in man.entries:
        text = Path(man.resolve(e)).read_text()
        unit = parse_trace(text, e.path)
        assert 30 <= len(unit.opcodes) <= 90
        build_graph(unit)  # no exception


def test_label_balance_and_manifest_roundtrip(tmp_path):
    man = generate(CorpusSpec(benign_count=7, malicious_count=5, seed=13), tmp_path)
    labels = [e.label for e in man.entries]
    assert labels.count(0) == 7 and labels.count(1) == 5
    loaded = load_manifest(tmp_path / "manifest.jsonl")
    assert loaded.entries == man.entries
    for e in loaded.entries:
        assert Path(loaded.resolve(e)).exists()


def test_classes_share_one_opcode_set_by_default(tmp_path):
    man = generate(CorpusSpec(benign_count=30, malicious_count=30, seed=21), tmp_path)
    ops = {0: set(), 1: set()}
    for e in man.entries:
        unit = parse_trace(Path(man.resolve(e)).read_text(), e.path)
        ops[e.label].update(unit.opcodes)
    assert ops[0] == ops[1]


def test_easy_flag_skews_vocabulary(tmp_path):
    man = generate(
        CorpusSpec(benign_count=10, malicious_count=10, seed=21, easy=True), tmp_path
    )
    ops = {0: set(), 1: set()}
    for e in man.entries:
        unit = parse_trace(Path(man.resolve(e)).read_text(), e.path)
        ops[e.label].update(unit.opcodes)
    assert ops[0] != ops[1]
    assert not (ops[0] & ops[1] - {"ret"})


def test_malicious_graphs_are_denser(tmp_path):
    man = generate(CorpusSpec(benign_count=60, malicious_count=60, seed=42), tmp_path)
    graphs = load_dataset(man)
    ben = np.array([2 * g.num_edges / g.num_nodes for g in graphs if g.label == 0])
    mal = np.array([2 * g.num_edges / g.num_nodes for g in graphs if g.label == 1])
    assert mal.mean() > ben.mean()

    # a single threshold on average degree must already beat 70% accuracy
    vals = np.concatenate([ben, mal])
    labs = np.array([0] * len(ben) + [1] * len(mal))
    best = max(float((labs == (vals >= t)).mean()) for t in np.unique(vals))
    assert best >= 0.70


def test_family_mixture_follows_weights(tmp_path):
    man = generate(CorpusSpec(benign_count=1, malicious_count=150, seed=8), tmp_path)
    counts = {}
    for e in man.entries[1:]:
        counts[e.family] = counts.get(e.family, 0) + 1
    # heaviest families should clearly outnumber the lightest ones
    heavy = counts.get("spyware", 0) + counts.get("trojan", 0)
    light = counts.get("ransomware", 0) + counts.get("injection", 0)
    assert heavy > light


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(benign_count=0, malicious_count=1, seed=0)
    with pytest.raises(ValueError):
        CorpusSpec(benign_count=1, malicious_count=0, seed=0)
    with pytest.raises(ValueError):
        CorpusSpec(benign_count=1, malicious_count=1, seed=0, size_range=(3, 10))
    with pytest.raises(ValueError):
        CorpusSpec(benign_count=1, malicious_count=1, seed=0, size_range=(60, 50))


def test_unwritable_out_dir_raises_io_error(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    with pytest.raises(IoError):
        generate(CorpusSpec(benign_count=1, malicious_count=1, seed=0), blocker)


@settings(max_examples=10, deadline=None)
@given(
    benign=st.integers(min_value=1, max_value=3),
    malicious=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_generate_properties(benign, malicious, seed):
    spec = CorpusSpec(
        benign_count=benign, malicious_count=malicious, seed=seed, size_range=(5, 15)
    )
    with tempfile.TemporaryDirectory() as d:
        man = generate(spec, d)
        assert len(man.entries) == benign + malicious
        assert sum(e.label for e in man.entries) == malicious
        for e in man.entries:
            unit = parse_trace(Path(man.resolve(e)).read_text(), e.path)
            assert 5 <= len(unit.opcodes) <= 15
