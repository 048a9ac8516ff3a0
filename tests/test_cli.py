import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import malgraph
from malgraph import cli, corpus, pipeline
from malgraph.cli import main
from malgraph.depgraph import from_json, to_json

TWO_LINE_TRACE = "%1 = add i64 %in, %in\n%2 = mul i64 %1, %1\n"
SMALL_LL = ("define i32 @f(i32 %x) {\n  %a = mul i32 %x, %x\n"
            "  store i32 %a, i32* %p ; addr=0x8\n  %b = load i32, i32* %p ; addr=0x8\n"
            "  ret i32 %b\n}\n")
# TWO_LINE_TRACE compiled from t.trace, as the program wrote it when a graph
# document carried a label and family (here from `--label 1 --family worm`)
LABELED_DOC = ('{"version":3,"origin":"t.trace","label":1,"family":"worm",'
               '"ops":["add","mul"],"src":[0],"dst":[1],"kind":["data"]}')


def graph_doc(ops, pairs):
    """Graph JSON of nodes `ops` joined by the data edges `pairs`."""
    return json.dumps({
        "version": 3, "origin": "", "ops": ops,
        "src": [s for s, _ in pairs], "dst": [d for _, d in pairs], "kind": ["data"] * len(pairs)})


def run(argv, capsys):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """An easy corpus plus a model trained to perfection on it."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["corpus", "--out", str(root / "c"), "--benign", "8",
                 "--malicious", "8", "--seed", "3", "--easy"]) == 0
    assert main(["train", "--manifest", str(root / "c" / "manifest.jsonl"),
                 "--out", str(root / "model.json"), "--epochs", "30",
                 "--hidden", "8", "--layers", "4", "--seed", "0",
                 "--lr", "0.05", "--history", str(root / "hist.csv")]) == 0
    return root


# ---------------------------------------------------------------- compile

def test_compile_two_line_trace(tmp_path, capsys):
    src = tmp_path / "tiny.trace"
    src.write_text(TWO_LINE_TRACE)
    code, out, _ = run(["compile", src, "--out", tmp_path], capsys)
    assert code == 0
    assert "2 nodes, 1 edge" in out
    assert (tmp_path / "tiny.json").exists()


def test_compile_missing_path_exits_1(tmp_path, capsys):
    code, _, err = run(["compile", tmp_path / "nope.trace"], capsys)
    assert code == 1
    assert "nope.trace" in err


def test_compile_directory_of_three(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):
        (src / f"u{i}.trace").write_text(TWO_LINE_TRACE)
    (src / "notes.txt").write_text("ignored")
    out_dir = tmp_path / "graphs"
    code, out, _ = run(["compile", src, "--out", out_dir], capsys)
    assert code == 0
    assert len(list(out_dir.glob("*.json"))) == 3


def test_compile_directory_suffix_is_case_insensitive(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "P.LL").write_text(SMALL_LL)
    (src / "Q.Trace").write_text(TWO_LINE_TRACE)
    code, _, err = run(["compile", src, "--out", tmp_path / "out"], capsys)
    assert code == 0, err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["P.json", "Q.json"]


def test_compile_same_stem_exits_1_and_writes_nothing(tmp_path, capsys):
    for d in ("x", "y"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "a.trace").write_text(TWO_LINE_TRACE)
    out_dir = tmp_path / "o"
    code, out, err = run(["compile", tmp_path / "x" / "a.trace",
                          tmp_path / "y" / "a.trace", "--out", out_dir], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "x" / "a.trace") in err
    assert str(tmp_path / "y" / "a.trace") in err
    assert str(out_dir / "a.json") in err
    assert not out_dir.exists()


def test_compile_out_that_is_a_file_names_it_and_writes_nothing(tmp_path, capsys):
    src = tmp_path / "ok.trace"
    src.write_text(TWO_LINE_TRACE)
    blocker = tmp_path / "f"
    blocker.write_text("not a directory")
    code, out, err = run(["compile", src, "--out", blocker], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot create {blocker}: ") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "ok.trace"]


def test_compile_malformed_names_path_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("%1 = add i64 %a, %b\n%broken\n")
    code, _, err = run(["compile", bad, "--out", tmp_path], capsys)
    assert code == 1
    assert "bad.trace" in err and "line 2" in err


def test_compile_non_utf8_exits_1(tmp_path, capsys):
    bad = tmp_path / "latin.trace"
    bad.write_bytes(b"%1 = add i64 %a, %b ; caf\xe9\n")
    code, out, err = run(["compile", bad, "--out", tmp_path], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "latin.trace" in err


@pytest.mark.parametrize("name, text", [("u.trace", TWO_LINE_TRACE), ("u.ll", SMALL_LL)],
                         ids=["trace", "ll"])
def test_compile_writes_the_graph_read_graph_builds(tmp_path, capsys, name, text):
    src = tmp_path / name
    src.write_text(text)
    code, _, _ = run(["compile", src, "--out", tmp_path / "out", "--mem-deps"], capsys)
    assert code == 0
    g = pipeline.read_graph(src, memory_edges=True)
    assert (tmp_path / "out" / "u.json").read_bytes() == to_json(g)


def test_compile_graph_json_writes_canonical_bytes(tmp_path, capsys):
    src = tmp_path / "t.trace"
    src.write_text(TWO_LINE_TRACE)
    assert run(["compile", src, "--out", tmp_path / "a"], capsys)[0] == 0
    canonical = (tmp_path / "a" / "t.json").read_bytes()
    code, out, _ = run(["compile", tmp_path / "a" / "t.json", "--out", tmp_path / "b"],
                       capsys)
    assert code == 0 and "2 nodes, 1 edge" in out
    assert (tmp_path / "b" / "t.json").read_bytes() == canonical
    # a reordered, indented document of the same graph compiles to the same bytes
    doc = json.loads(canonical)
    loose = tmp_path / "loose" / "t.json"
    loose.parent.mkdir()
    loose.write_text(json.dumps(dict(reversed(list(doc.items()))), indent=2))
    assert run(["compile", loose, "--out", tmp_path / "c"], capsys)[0] == 0
    assert (tmp_path / "c" / "t.json").read_bytes() == canonical


def test_compile_writes_no_label_or_family(tmp_path, capsys, monkeypatch):
    """Labels and families live in the manifest alone: a compiled graph has
    neither, and a document that carries them compiles to the bytes its trace
    compiles to, the two keys read as extra keys."""
    monkeypatch.chdir(tmp_path)
    Path("t.trace").write_text(TWO_LINE_TRACE)
    Path("old").mkdir()
    Path("old/t.json").write_text(LABELED_DOC)
    assert run(["compile", "t.trace", "--out", "new"], capsys)[0] == 0
    doc = json.loads(Path("new/t.json").read_text())
    assert "label" not in doc and "family" not in doc
    assert json.loads(LABELED_DOC) == {**doc, "label": 1, "family": "worm"}
    assert run(["compile", "old/t.json", "--out", "again"], capsys)[0] == 0
    assert Path("again/t.json").read_bytes() == Path("new/t.json").read_bytes()


def test_compile_edge_flags_add_edges(tmp_path, capsys):
    src = tmp_path / "m.trace"
    src.write_text(
        "store i64 %v, i64* %p ; addr=0x10\n"
        "%1 = load i64, i64* %q ; addr=0x10\n"
        "br label %done\n"
        "ret void\n"
    )
    code, out, _ = run(["compile", src, "--out", tmp_path / "plain"], capsys)
    assert code == 0 and "0 edges" in out
    code, out, _ = run(["compile", src, "--out", tmp_path / "full",
                        "--mem-deps", "--control-edges"], capsys)
    assert code == 0 and "2 edges" in out


_HUGE_INT = "i" + "7" * 5000
_DEEP_VECTOR = "<1 x " * 1200 + "i32" + ">" * 1200
_WIDE_VECTOR = f"<{10**40} x i64>"  # a lane count past int64


@pytest.mark.parametrize("token", [_HUGE_INT, _DEEP_VECTOR, _WIDE_VECTOR],
                         ids=["huge_int", "deep_vector", "wide_vector"])
@pytest.mark.parametrize("suffix", [".trace", ".ll"], ids=["trace", "ll"])
def test_compile_oversize_type_token_is_opaque(tmp_path, capsys, token, suffix):
    src = (tmp_path / "t").with_suffix(suffix)
    body = f"%p = alloca i8\n%v = load {token}, i8* %p\n"
    src.write_text(body if suffix == ".trace" else f"define void @f() {{\n{body}ret void\n}}\n")
    code, _, err = run(["compile", src, "--out", tmp_path / "out"], capsys)
    assert code == 0 and err == ""
    assert json.loads((tmp_path / "out" / "t.json").read_text())["ops"][:2] == ["alloca", "load"]


def test_compile_ignores_type_tokens(tmp_path, capsys, monkeypatch):
    trace = ("%p = alloca {t}\n"
             "store {t} %a, {p} %p ; addr=0x8\n"
             "%v = load {t}, {p} %p ; addr=0x8\n"
             "%w = fadd {t} %v, %a\n"
             "%q = getelementptr {t}, {p} %p, i64 %w\n"
             "%r = call {t} @f({t} %w, {p} %q)\n"
             "ret {t} %r\n")
    monkeypatch.chdir(tmp_path)
    for out_dir, t, p in (("narrow", "i8", "i32*"), ("wide", "<4 x double>", "ptr")):
        Path("t.trace").write_text(trace.format(t=t, p=p))
        code, out, _ = run(["compile", "t.trace", "--out", out_dir, "--mem-deps",
                            "--control-edges"], capsys)
        assert code == 0 and "7 nodes, 9 edges" in out
    assert Path("narrow/t.json").read_bytes() == Path("wide/t.json").read_bytes()


# SHA-256 of every graph compiled from a fixed corpus, concatenated in file
# name order.  Generation and compilation are pure Python and each graph's
# origin is the relative input path, so the digest holds on every machine.
COMPILE_GOLDEN = {
    (): "d65ba61139660eb4185561f3d942ffd6a089ea1d54209647f0c760c09d20de19",
    ("--control-edges", "--mem-deps"):
        "0dd827dcc1bcec11899543d21bcde6c2482d3298e7481ceb7fa402280bceb1b4",
}


@pytest.mark.parametrize("flags", sorted(COMPILE_GOLDEN), ids=["plain", "edge_flags"])
def test_compile_golden_digest(tmp_path, capsys, monkeypatch, flags):
    corpus.generate(corpus.CorpusSpec(benign_count=4, malicious_count=4, seed=7), tmp_path)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["compile", "traces", "--out", "out", *flags], capsys)
    assert code == 0
    blobs = [p.read_bytes() for p in sorted((tmp_path / "out").glob("*.json"))]
    assert len(blobs) == 8
    assert hashlib.sha256(b"".join(blobs)).hexdigest() == COMPILE_GOLDEN[flags]


# Recorded with the Brandes kernel that counted shortest paths, before the
# averages were taken from hop distances alone.
FEATURES_GOLDEN = "0ca4860ddf26f5949d22529603d85d2eeea008968c9c5d05a0b37073c62f469c"


def test_features_golden_digest(tmp_path, capsys, monkeypatch):
    corpus.generate(corpus.CorpusSpec(benign_count=8, malicious_count=8, seed=7), tmp_path)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["features", "--manifest", "manifest.jsonl", "--csv", "f.csv"], capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / "f.csv").read_bytes()).hexdigest() == FEATURES_GOLDEN


# ---------------------------------------------------------------- corpus

def test_corpus_writes_traces_and_manifest(tmp_path, capsys):
    code, _, _ = run(["corpus", "--out", tmp_path / "c", "--benign", "2",
                      "--malicious", "2", "--seed", "1"], capsys)
    assert code == 0
    assert len(list((tmp_path / "c" / "traces").glob("*.trace"))) == 4
    assert (tmp_path / "c" / "manifest.jsonl").exists()


def test_corpus_repeat_identical(tmp_path, capsys):
    for name in ("a", "b"):
        run(["corpus", "--out", tmp_path / name, "--benign", "2",
             "--malicious", "2", "--seed", "1"], capsys)
    for f in (tmp_path / "a" / "traces").glob("*.trace"):
        assert f.read_bytes() == (tmp_path / "b" / "traces" / f.name).read_bytes()


def test_corpus_zero_count_is_usage_error(tmp_path, capsys):
    code, _, _ = run(["corpus", "--out", tmp_path, "--benign", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--epochs", "0"), ("train", "--batch-size", "0"),
    ("train", "--hidden", "0"), ("train", "--seed", "-1"),
    ("corpus", "--seed", "-1")])
def test_out_of_range_integer_flag_is_usage_error(trained, tmp_path, capsys,
                                                  command, flag, value):
    where = ["--manifest", trained / "c" / "manifest.jsonl"] if command == "train" else []
    code, out, err = run([command, *where, "--out", tmp_path / "x", flag, value], capsys)
    assert code == 2 and out == ""
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------- train

def test_train_writes_model_history_and_metrics(trained, capsys):
    assert (trained / "model.json").exists()
    hist = (trained / "hist.csv").read_text().splitlines()
    assert hist[0] == "epoch,train_loss,test_acc,test_auroc"
    assert len(hist) == 31
    code, out, _ = run(["eval", "--model", trained / "model.json",
                        "--manifest", trained / "c" / "manifest.jsonl"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "acc 1.000000"


def test_train_rejects_unknown_layer_count(tmp_path, capsys):
    code, _, _ = run(["train", "--manifest", tmp_path / "m.jsonl",
                      "--layers", "5"], capsys)
    assert code == 2


def test_train_rejects_bad_split(trained, tmp_path, capsys):
    code, _, _ = run(["train", "--manifest", trained / "c" / "manifest.jsonl",
                      "--out", tmp_path / "m.json", "--split", "1.5"], capsys)
    assert code == 2


@pytest.mark.parametrize("lr", ["0", "-1", "nan", "inf"])
def test_train_rejects_lr_that_is_not_finite_and_positive(trained, tmp_path, capsys, lr):
    code, out, err = run(["train", "--manifest", trained / "c" / "manifest.jsonl",
                          "--out", tmp_path / "m.json", "--lr", lr], capsys)
    assert code == 2 and out == ""
    assert "--lr" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_names_epoch_and_step(trained, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["train", "--manifest", trained / "c" / "manifest.jsonl",
                              "--out", tmp_path / "m.json", "--epochs", "2",
                              "--batch-size", "7", "--hidden", "8", "--layers", "4",
                              "--lr", "1e300"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert caught == []  # no numpy overflow warnings before it
    # 14 training graphs make two batches per epoch; the first step's update
    # is finite, the second step's forward is not
    assert "training diverged at epoch 1, step 2: non-finite loss" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_stops_when_test_scores_are_not_finite(tmp_path, capsys):
    """A step whose loss and gradients are finite can leave parameters that
    overflow in scoring; train stops there and writes no model or history."""
    corpus = tmp_path / "c"
    assert run(["corpus", "--out", corpus, "--benign", "6", "--malicious", "6",
                "--seed", "1"], capsys)[0] == 0
    code, out, err = run(["train", "--manifest", corpus / "manifest.jsonl",
                          "--out", tmp_path / "m.json", "--epochs", "1",
                          "--batch-size", "64", "--hidden", "4", "--layers", "4",
                          "--lr", "1e150", "--history", tmp_path / "h.csv"], capsys)
    assert code == 1 and out == ""
    assert err == ("error: training diverged at epoch 1, step 1: "
                   "2 of 2 test scores are not finite\n")
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "h.csv").exists()


def test_train_parses_each_file_once(trained, tmp_path, capsys, monkeypatch):
    calls = []
    parse_trace = pipeline.parse_trace
    monkeypatch.setattr(pipeline, "parse_trace",
                        lambda text, origin: calls.append(origin) or parse_trace(text, origin))
    manifest = trained / "c" / "manifest.jsonl"
    code, out, _ = run(["train", "--manifest", manifest, "--out", tmp_path / "m.json",
                        "--epochs", "1", "--hidden", "8", "--layers", "4"], capsys)
    assert code == 0 and out.startswith("test acc ")
    assert len(calls) == len(manifest.read_text().splitlines()) == 16
    assert len(set(calls)) == 16


def test_train_scores_the_test_split_once_per_epoch(trained, tmp_path, capsys, monkeypatch):
    calls = []
    score_samples = pipeline.score_samples

    def counting(params, samples):
        calls.append(len(samples))
        return score_samples(params, samples)

    monkeypatch.setattr(pipeline, "score_samples", counting)
    monkeypatch.setattr(cli, "score_samples", counting)
    code, out, _ = run(["train", "--manifest", trained / "c" / "manifest.jsonl",
                        "--out", tmp_path / "m.json", "--history", tmp_path / "h.csv",
                        "--epochs", "3", "--hidden", "8", "--layers", "4"], capsys)
    assert code == 0
    assert calls == [2, 2, 2]  # the two test graphs, once per epoch
    # the printed metrics are the last epoch's, taken with the final parameters
    _, acc, auroc = (tmp_path / "h.csv").read_text().splitlines()[-1].split(",")[1:]
    assert out.splitlines()[0].startswith(
        f"test acc {float(acc):.6f}  auroc {float(auroc):.6f}  f1 ")


def test_train_missing_manifest_exits_1(tmp_path, capsys):
    code, _, err = run(["train", "--manifest", tmp_path / "nope.jsonl"], capsys)
    assert code == 1
    assert "nope.jsonl" in err


@pytest.mark.parametrize("data, detail", [
    (b'{"path":"a","label":1' + b"0" * 5000 + b',"family":"x"}\n', "line 1: not valid JSON"),
    (b'{"path":"a","label":1,"family":"x"}\n{"path":"caf\xe9","label":0,"family":"x"}\n',
     "line 2: not UTF-8 text"),
    (b"\n" + b"[" * 100_000 + b"]" * 100_000 + b"\n", "line 2: not valid JSON"),
], ids=["long_label", "non_utf8", "deep_nesting"])
def test_train_malformed_manifest_names_file_and_line(tmp_path, capsys, data, detail):
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(data)
    code, out, err = run(["train", "--manifest", manifest, "--out", tmp_path / "x.json"],
                         capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "m.jsonl" in err and detail in err


# ---------------------------------------------------------------- predict

@pytest.mark.parametrize("raw", [False, True], ids=["json", "trace"])
def test_predict_line_format(trained, tmp_path, capsys, raw):
    traces = sorted((trained / "c" / "traces").glob("*.trace"))[:2]
    run(["compile", *traces, "--out", tmp_path], capsys)
    graphs = [tmp_path / (t.stem + ".json") for t in traces]
    inputs = traces if raw else graphs
    code, out, _ = run(["predict", "--model", trained / "model.json", *inputs],
                       capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for line, g in zip(lines, inputs):
        path, score, verdict = line.split("\t")
        assert path == str(g)
        assert verdict in ("malicious", "benign")
        s = float(score)
        assert score == f"{s:.6f}"
        assert (verdict == "malicious") == (s >= 0.5)
    # a trace scores exactly as the graph JSON compiled from it
    _, compiled, _ = run(["predict", "--model", trained / "model.json", *graphs], capsys)
    assert [line.split("\t")[1:] for line in lines] == \
        [line.split("\t")[1:] for line in compiled.splitlines()]


def test_predict_malformed_trace_exits_1_naming_path(trained, tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("%1 = add i64 %a, %b\n%broken\n")
    code, out, err = run(["predict", "--model", trained / "model.json", bad], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and "line 2" in err


def test_predict_out_of_vocab_graph_scores(trained, tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(graph_doc(["frobnicate", "quux"], [(0, 1)]))
    code, out, _ = run(["predict", "--model", trained / "model.json", path],
                       capsys)
    assert code == 0
    path_out, score, verdict = out.strip().split("\t")
    assert path_out == str(path)
    assert 0.0 <= float(score) <= 1.0
    assert verdict in ("malicious", "benign")


def test_predict_empty_graph_exits_1(trained, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"version":3,"origin":"x","label":null,"family":null,'
                    '"ops":[],"src":[],"dst":[],"kind":[]}')
    code, _, err = run(["predict", "--model", trained / "model.json", path],
                       capsys)
    assert code == 1
    assert "empty.json" in err


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("cmd", ["compile", "predict", "features"])
def test_old_graph_versions_exit_1_naming_the_file(trained, tmp_path, capsys, cmd, version):
    """Only version 3 graph files are read; an older one is compiled again from its trace."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": version, "origin": "x", "label": None, "family": None,
                                "nodes": [{"id": 0, "op": "add"}], "edges": []}))
    argv = {"compile": ["compile", path, "--out", tmp_path / "out"],
            "predict": ["predict", "--model", trained / "model.json", path],
            "features": ["features", path]}[cmd]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and f"unsupported graph version {version}" in err
    assert not (tmp_path / "out").exists()


def _predict_with_model(model: dict, tmp_path, capsys):
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps(model))
    graph = tmp_path / "g.json"
    graph.write_text(graph_doc(["add"], []))
    return run(["predict", "--model", path, graph], capsys)


@pytest.mark.parametrize("key, as_dict", [("sage_W", False), ("sage_b", True)])
def test_predict_non_list_layer_tensors_exits_1(trained, tmp_path, capsys, key, as_dict):
    model = json.loads((trained / "model.json").read_text())
    tensors = model["weights"][key]
    model["weights"][key] = dict(enumerate(tensors)) if as_dict else 5
    code, out, err = _predict_with_model(model, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad_model.json" in err and key in err


def _no_sage_weights(model):
    model["weights"]["sage_W"] = []


def _short_vocabulary(model):
    model["vocab"]["names"] = model["vocab"]["names"][:-1]


def _wrong_out_shape(model):
    model["weights"]["out_W"] = model["weights"]["out_W"][:-1]


def _directed_view(model):
    model["arch"]["neighbor_view"] = "directed_in"


def _sampled_neighbours(model):
    model["arch"]["sample_cap"] = 3


def _arch_not_object(model):
    model["arch"] = list(model["arch"].values())


@pytest.mark.parametrize("corrupt, detail", [
    (_no_sage_weights, "sage layers"),        # ShapeMismatch: layer count
    (_short_vocabulary, "vocabulary has"),    # VocabMismatch
    (_wrong_out_shape, "out_W"),              # ShapeMismatch: tensor shape
    (_directed_view, "neighbor_view"),        # GraphFormatError: fixed arch keys
    (_sampled_neighbours, "sample_cap"),
    (_arch_not_object, "arch must be an object"),
])
def test_predict_inconsistent_model_names_file(trained, tmp_path, capsys, corrupt, detail):
    model = json.loads((trained / "model.json").read_text())
    corrupt(model)
    code, out, err = _predict_with_model(model, tmp_path, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad_model.json" in err and detail in err


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_deeply_nested_model_names_file(trained, tmp_path, capsys, command):
    model = tmp_path / "deep.json"
    model.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    graph = tmp_path / "g.json"
    graph.write_text(graph_doc(["add"], []))
    inputs = [graph] if command == "predict" else ["--manifest",
                                                   trained / "c" / "manifest.jsonl"]
    code, out, err = run([command, "--model", model, *inputs], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "deep.json" in err and "not valid JSON" in err


def _huge_embedding(model):
    """Finite weights that overflow: every embedding entry is 1e308."""
    w = model["weights"]
    w["embed_W"] = [[1e308] * len(row) for row in w["embed_W"]]


def _saturating(model):
    """Pooled values overflow to +inf while the score saturates at a finite 1.0."""
    _huge_embedding(model)
    w = model["weights"]
    w["sage_W"] = [[[1.0] * len(row) for row in layer] for layer in w["sage_W"]]
    w["out_W"] = [1.0] * len(w["out_W"])


@pytest.mark.parametrize("corrupt", [_huge_embedding, _saturating],
                         ids=["nan_score", "inf_pooled"])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_non_finite_scores_exit_1_naming_the_model(trained, tmp_path, capsys,
                                                    command, corrupt):
    model = json.loads((trained / "model.json").read_text())
    corrupt(model)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(model))
    graph = tmp_path / "g.json"
    graph.write_text(graph_doc(["add", "mul"], [(0, 1)]))
    inputs = [graph] if command == "predict" else ["--manifest",
                                                   trained / "c" / "manifest.jsonl"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run([command, "--model", path, *inputs], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "huge.json" in err and "not finite" in err
    assert caught == []  # no numpy overflow warnings


# ---------------------------------------------------------------- eval

def test_eval_perfect_model(trained, capsys):
    code, out, _ = run(["eval", "--model", trained / "model.json",
                        "--manifest", trained / "c" / "manifest.jsonl"], capsys)
    assert code == 0
    assert out.splitlines() == ["acc 1.000000", "auroc 1.000000", "f1 1.000000"]


def test_eval_per_family_rows(trained, capsys):
    code, out, _ = run(["eval", "--model", trained / "model.json",
                        "--manifest", trained / "c" / "manifest.jsonl",
                        "--per-family"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines.index("family samples acc")
    rows = lines[header + 1:]
    families = {r.split()[0] for r in rows}
    assert "benign" in families
    total = sum(int(r.split()[1]) for r in rows)
    assert total == 16


def test_eval_json_matches_human_output(trained, capsys):
    code, out, _ = run(["eval", "--model", trained / "model.json",
                        "--manifest", trained / "c" / "manifest.jsonl",
                        "--json", "--per-family"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["acc", "auroc", "f1", "threshold", "per_family"]
    assert doc["threshold"] == 0.5
    _, human, _ = run(["eval", "--model", trained / "model.json",
                       "--manifest", trained / "c" / "manifest.jsonl",
                       "--per-family"], capsys)
    lines = human.splitlines()
    assert float(lines[0].split()[1]) == doc["acc"]
    assert float(lines[1].split()[1]) == doc["auroc"]
    assert float(lines[2].split()[1]) == doc["f1"]
    for row in lines[lines.index("family samples acc") + 1:]:
        fam, samples, acc = row.split()
        assert doc["per_family"][fam]["samples"] == int(samples)
        assert doc["per_family"][fam]["acc"] == float(acc)


def test_eval_single_class_warns_and_omits_auroc(trained, tmp_path, capsys):
    src = (trained / "c" / "manifest.jsonl").read_text().splitlines()
    benign_only = [l for l in src if '"label":0' in l]
    m = tmp_path / "single.jsonl"
    m.write_text("\n".join(benign_only) + "\n")
    # the manifest's relative paths must still resolve
    (tmp_path / "traces").symlink_to(trained / "c" / "traces")
    code, out, err = run(["eval", "--model", trained / "model.json",
                          "--manifest", m, "--json"], capsys)
    assert code == 0
    assert "single-class" in err
    assert json.loads(out)["auroc"] is None


# ---------------------------------------------------------------- features

def test_features_p3_row(tmp_path, capsys):
    path = tmp_path / "p3.json"
    path.write_text(graph_doc(["add", "mul", "xor"], [(0, 1), (1, 2)]))
    code, out, _ = run(["features", path], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "origin,label,nodes,edges,avg_degree_c,avg_closeness_c,avg_betweenness_c"
    assert lines[1] == f"{path},,3,2,0.666667,0.777778,0.333333"


def test_features_of_a_labeled_document_leave_the_label_empty(tmp_path, capsys):
    """A label comes from a manifest only, not from a graph file that carries one."""
    path = tmp_path / "t.json"
    path.write_text(LABELED_DOC)
    code, out, _ = run(["features", path], capsys)
    assert code == 0
    assert out.splitlines()[1] == f"{path},,2,1,1.000000,1.000000,0.000000"


def test_features_trace_row_matches_its_compiled_json(tmp_path, capsys):
    src = tmp_path / "p3.trace"
    src.write_text("%a = add i32 %x, %x\n%b = mul i32 %a, %a\n%c = xor i32 %b, %b\n")
    run(["compile", src, "--out", tmp_path / "g"], capsys)
    rows = {}
    for path in (src, tmp_path / "g" / "p3.json"):
        code, out, _ = run(["features", path], capsys)
        assert code == 0
        rows[path] = out.splitlines()[1]
    assert rows == {path: f"{path},,3,2,0.666667,0.777778,0.333333" for path in rows}


def test_features_manifest_line_count(trained, tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    code, _, _ = run(["features", "--manifest", trained / "c" / "manifest.jsonl",
                      "--csv", out_csv], capsys)
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 17


def test_features_csv_file_matches_stdout(trained, tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    run(["features", "--manifest", trained / "c" / "manifest.jsonl",
         "--csv", out_csv], capsys)
    code, out, _ = run(["features", "--manifest",
                        trained / "c" / "manifest.jsonl"], capsys)
    assert code == 0
    assert out == out_csv.read_text()


def test_features_without_inputs_is_usage_error(capsys):
    code, _, _ = run(["features"], capsys)
    assert code == 2


def test_features_with_both_inputs_is_usage_error(trained, tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text("{}")
    code, _, _ = run(["features", g, "--manifest",
                      trained / "c" / "manifest.jsonl"], capsys)
    assert code == 2


# ---------------------------------------------------------------- imports

IMPORT_BOUNDARY = """
import sys
from malgraph.cli import main

out = sys.argv[1]
assert main(["corpus", "--out", f"{out}/c", "--benign", "6", "--malicious", "6",
             "--seed", "3"]) == 0
assert main(["compile", f"{out}/c/traces", "--out", f"{out}/g"]) == 0
assert main(["features", "--manifest", f"{out}/c/manifest.jsonl", "--csv", f"{out}/f.csv"]) == 0
assert "scipy.sparse" not in sys.modules, "corpus, compile or features loaded scipy.sparse"
assert main(["train", "--manifest", f"{out}/c/manifest.jsonl", "--out", f"{out}/m.json",
             "--epochs", "1", "--hidden", "4", "--layers", "4"]) == 0
assert "scipy.sparse" in sys.modules, "train ran without scipy.sparse"
"""


def test_only_a_model_loads_scipy_sparse(tmp_path):
    """corpus, compile and features never import scipy.sparse; train does.

    The commands run in a fresh interpreter, since this one has it loaded."""
    src = str(Path(malgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "f.csv").exists() and (tmp_path / "m.json").exists()


# ---------------------------------------------------------------- help

@pytest.mark.parametrize("cmd,flags", [
    ("compile", ["--out", "--control-edges", "--mem-deps"]),
    ("corpus", ["--out", "--benign", "--malicious", "--seed", "--easy"]),
    ("train", ["--manifest", "--out", "--epochs", "--batch-size", "--lr",
               "--seed", "--layers", "--hidden", "--no-embedding",
               "--activation", "--split", "--history"]),
    ("predict", ["--model"]),
    ("eval", ["--model", "--manifest", "--per-family", "--json"]),
    ("features", ["--manifest", "--csv"]),
])
def test_help_lists_documented_flags(cmd, flags, capsys):
    """Each command's help lists exactly its documented flags."""
    code, out, _ = run([cmd, "--help"], capsys)
    assert code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out)) == {*flags, "--help"}
