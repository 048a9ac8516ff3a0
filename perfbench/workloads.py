"""The three workloads: corpus set-up, the timed commands, and output checks.

Each workload drives ``malgraph.cli.main`` in-process with the arguments a
user would type, one command after another (a closed loop with one client),
on a corpus that ``corpus.generate`` writes from the benchmark seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

from tracer import Target

SIZE_RANGE = (50, 400)   # instructions per trace, as in corpus.CorpusSpec
EXPECTED_HISTORY_HEADER = "epoch,train_loss,test_acc,test_auroc"
EXPECTED_FEATURES_HEADER = ("origin,label,nodes,edges,avg_degree_c,"
                            "avg_closeness_c,avg_betweenness_c")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli(argv) -> tuple[int, str, str]:
    """Run one ``malgraph`` command in-process: (exit code, stdout, stderr)."""
    from malgraph import cli as malgraph_cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = malgraph_cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def make_corpus(out: Path, seed: int, per_class: int, stream: int = 0) -> Path:
    """Write per_class benign and per_class malicious traces; return the manifest.

    The default size range is cut into per_class equal strata and each
    stratum gets one trace of each class from its own ``corpus.generate``
    call.  Graph size drives the cost of every layer, so stratifying keeps
    the work per command the same from seed to seed while the traces change
    with the seed.  The traces are laid out flat under out/traces with
    unique names, so ``compile`` writes one graph file per trace.
    """
    from malgraph import corpus
    lo, hi = SIZE_RANGE
    traces = out / "traces"
    traces.mkdir(parents=True)
    lines = []
    for k in range(per_class):
        size_range = (lo + (hi - lo + 1) * k // per_class,
                      lo + (hi - lo + 1) * (k + 1) // per_class - 1)
        spec = corpus.CorpusSpec(benign_count=1, malicious_count=1,
                                 seed=seed * 10_000 + stream * 1_000 + k,
                                 size_range=size_range)
        part = out / f"part{k}"
        for entry in corpus.generate(spec, part).entries:
            rel = f"traces/s{k:03d}_{Path(entry.path).name}"
            (part / entry.path).rename(out / rel)
            lines.append(json.dumps({"path": rel, "label": entry.label,
                                     "family": entry.family}))
        shutil.rmtree(part)
    manifest = out / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


# -- what reference.json pins for the default seed -----------------------------------

def train_digest(model: bytes, history: str) -> dict:
    final = history.splitlines()[-1].split(",")
    return {"model_sha256": sha256(model), "history_sha256": sha256(history.encode()),
            "test_acc": final[2], "test_auroc": final[3]}


def predict_digest(stdout: str) -> dict:
    """Line count and the score and verdict columns; paths vary with the work directory."""
    lines = stdout.splitlines()
    columns = "\n".join(line.split("\t", 1)[1] for line in lines)
    return {"lines": len(lines), "scores_sha256": sha256(columns.encode())}


def features_digest(text: str) -> dict:
    return {"csv_sha256": sha256(text.encode())}


def differences(got: dict, ref: dict) -> list[str]:
    return [f"{k} {got[k]} differs from reference {ref[k]}" for k in ref if got[k] != ref[k]]


# -- output checks: each returns a list of problems, empty when the output is good

def check_train(model: bytes, history: str, epochs: int, ref: dict | None) -> list[str]:
    from malgraph.sage import model_from_json
    problems = []
    try:
        model_from_json(model)
    except Exception as e:   # any failure to reload is a wrong output
        problems.append(f"model does not reload: {type(e).__name__}: {e}")
    rows = history.splitlines()
    if not rows or rows[0] != EXPECTED_HISTORY_HEADER:
        return problems + ["history header differs"]
    if len(rows) != epochs + 1:
        problems.append(f"history has {len(rows) - 1} epochs, expected {epochs}")
    for row in rows[1:]:
        fields = row.split(",")
        try:
            _, loss, acc, area = (float(x) for x in fields)
        except ValueError:
            problems.append(f"bad history row {row!r}")
            continue
        if not (math.isfinite(loss) and 0 <= acc <= 1 and 0 <= area <= 1):
            problems.append(f"history row out of range {row!r}")
    if ref is not None and not problems:
        problems += differences(train_digest(model, history), ref)
    return problems


def check_predict(stdout: str, paths: list, ref: dict | None) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != len(paths):
        return [f"predict printed {len(lines)} lines for {len(paths)} graphs"]
    problems = []
    for line, path in zip(lines, paths):
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] != str(path):
            problems.append(f"bad predict line {line!r}")
            continue
        try:
            score = float(fields[1])
        except ValueError:
            problems.append(f"bad score in {line!r}")
            continue
        if not 0 < score < 1:
            problems.append(f"score outside (0, 1) in {line!r}")
        if fields[2] != ("malicious" if score >= 0.5 else "benign"):
            problems.append(f"verdict disagrees with score in {line!r}")
    if ref is not None and not problems:
        problems += differences(predict_digest(stdout), ref)
    return problems


def check_features(text: str, entries: list, ref: dict | None) -> list[str]:
    rows = text.splitlines()
    if not rows or rows[0] != EXPECTED_FEATURES_HEADER:
        return ["features header differs"]
    if len(rows) != len(entries) + 1:
        return [f"features has {len(rows) - 1} rows for {len(entries)} graphs"]
    problems = []
    for row, entry in zip(rows[1:], entries):
        fields = row.split(",")
        try:
            nodes, edges = int(fields[2]), int(fields[3])
            reals = [float(x) for x in fields[4:]]
        except (ValueError, IndexError):
            problems.append(f"bad features row {row!r}")
            continue
        if (fields[0] != entry["path"] or fields[1] != str(entry["label"])
                or nodes < 1 or edges < 0 or len(reals) != 3
                or not all(0 <= x <= 1 for x in reals)):
            problems.append(f"features row wrong for {entry['path']}: {row!r}")
    if ref is not None and not problems:
        problems += differences(features_digest(text), ref)
    return problems


# -- workloads --------------------------------------------------------------------

class Train:
    """``malgraph train`` at the default architecture, writing model and history."""

    name = "train"
    per_class = 40
    epochs = 3
    # sage.forward + sage.backward should hold most of the command's wall time
    focus = ("wall", ("sage.forward", "sage.backward"))

    def setup(self, work: Path, seed: int):
        self.manifest = make_corpus(work / "corpus", seed, self.per_class)
        # the stratified 80/20 split of pipeline.split, per label
        self.graphs = 2 * math.ceil(0.8 * self.per_class) * self.epochs

    def execute(self, out: Path) -> dict:
        out.mkdir()
        code, _, stderr = cli([
            "train", "--manifest", self.manifest, "--out", out / "model.json",
            "--history", out / "history.csv", "--epochs", self.epochs])
        return {"code": code, "stderr": stderr, "out": out}

    def check(self, result: dict, ref: dict | None) -> list[str]:
        out = result["out"]
        if result["code"] != 0:
            return [f"train exited {result['code']}: {result['stderr'].strip()}"]
        history = (out / "history.csv").read_text(encoding="utf-8")
        problems = check_train((out / "model.json").read_bytes(), history,
                               self.epochs, ref)
        if not problems:
            final = history.splitlines()[-1].split(",")
            self.summary = {"train_loss": float(final[1]), "test_acc": float(final[2]),
                            "test_auroc": float(final[3])}
        return problems

    def reference_of(self, result: dict) -> dict:
        out = result["out"]
        return train_digest((out / "model.json").read_bytes(),
                            (out / "history.csv").read_text(encoding="utf-8"))


class Triage:
    """``malgraph compile`` over raw traces, then ``malgraph predict`` on the graphs."""

    name = "triage"
    per_class = 60
    lab_per_class = 8
    # ir + depgraph should hold most of the CPU of the Python threads
    focus = ("cpu", ("ir.parse_trace", "depgraph.build_graph",
                     "depgraph.save_graph", "depgraph.load_graph"))

    def setup(self, work: Path, seed: int):
        self.traces = make_corpus(work / "corpus", seed, self.per_class).parent / "traces"
        self.graphs = 2 * self.per_class
        lab = make_corpus(work / "lab", seed, self.lab_per_class, stream=1)
        self.model = work / "model.json"
        code, _, stderr = cli(["train", "--manifest", lab, "--out", self.model,
                               "--epochs", 1])
        if code != 0:
            raise RuntimeError(f"set-up training failed: {stderr.strip()}")
        from malgraph.sage import model_from_json
        model_from_json(self.model.read_bytes())

    def execute(self, out: Path) -> dict:
        graphs = out / "graphs"
        code, stdout, stderr = cli(["compile", self.traces, "--out", graphs])
        result = {"code": code, "stderr": stderr, "compiled": stdout, "paths": []}
        if code == 0:
            paths = sorted(graphs.glob("*.json"))
            code, stdout, stderr = cli(["predict", "--model", self.model, *paths])
            result.update(code=code, stderr=stderr, predicted=stdout, paths=paths)
        return result

    def check(self, result: dict, ref: dict | None) -> list[str]:
        if result["code"] != 0:
            return [f"command exited {result['code']}: {result['stderr'].strip()}"]
        if len(result["paths"]) != self.graphs:
            return [f"compile wrote {len(result['paths'])} graphs for {self.graphs} traces"]
        if len(result["compiled"].splitlines()) != self.graphs:
            return ["compile did not report every trace"]
        return check_predict(result["predicted"], result["paths"], ref)

    def reference_of(self, result: dict) -> dict:
        return predict_digest(result["predicted"])


class Features:
    """``malgraph features --manifest … --csv …`` over the default size mix."""

    name = "features"
    per_class = 20
    # analytics.topo_features should hold most of the CPU of the Python threads
    focus = ("cpu", ("analytics.topo_features",))

    def setup(self, work: Path, seed: int):
        self.manifest = make_corpus(work / "corpus", seed, self.per_class)
        self.entries = [json.loads(line) for line in
                        self.manifest.read_text(encoding="utf-8").splitlines()]
        self.graphs = len(self.entries)

    def execute(self, out: Path) -> dict:
        out.mkdir()
        code, _, stderr = cli(["features", "--manifest", self.manifest,
                               "--csv", out / "features.csv"])
        return {"code": code, "stderr": stderr, "csv": out / "features.csv"}

    def check(self, result: dict, ref: dict | None) -> list[str]:
        if result["code"] != 0:
            return [f"features exited {result['code']}: {result['stderr'].strip()}"]
        return check_features(result["csv"].read_text(encoding="utf-8"),
                               self.entries, ref)

    def reference_of(self, result: dict) -> dict:
        return features_digest(result["csv"].read_text(encoding="utf-8"))


WORKLOADS = {w.name: w for w in (Train, Triage, Features)}


# -- trace targets ------------------------------------------------------------------

def _parse_counts(args, kwargs, unit):
    return {"instructions": len(unit.instructions), "origin": unit.origin}


def _graph_counts(args, kwargs, g):
    return {"nodes": g.num_nodes, "edges": g.num_edges}


def _topo_counts(args, kwargs, tf):
    return {"nodes": tf.num_nodes, "edges": tf.num_edges}


def _dense_flops_per_row(params) -> int:
    """Multiply-adds per node row of every SAGE layer's dense matmul."""
    return sum(w.shape[0] * w.shape[1] for w in params.sage_W)


def _forward_counts(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    scores, cache = result
    rows = cache.hs[0].shape[0]
    flops = 2 * (rows * _dense_flops_per_row(params) + len(scores) * params.out_W.shape[0])
    return {"rows": rows, "gflop": flops * 1e-9}


def _backward_counts(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    cache = args[1] if len(args) > 1 else kwargs["cache"]
    rows = cache.hs[0].shape[0]
    # weight gradient and input gradient: two matmuls of the forward's shape
    flops = 4 * rows * _dense_flops_per_row(params)
    return {"rows": rows, "gflop": flops * 1e-9}


TARGETS = [
    Target("ir.parse_trace", "malgraph.pipeline", "parse_trace", _parse_counts),
    Target("ir.parse_trace", "malgraph.cli", "parse_trace", _parse_counts),
    Target("depgraph.build_graph", "malgraph.pipeline", "build_graph", _graph_counts),
    Target("depgraph.build_graph", "malgraph.cli", "build_graph", _graph_counts),
    Target("depgraph.save_graph", "malgraph.cli", "save_graph"),
    Target("depgraph.load_graph", "malgraph.cli", "load_graph"),
    Target("depgraph.load_graph", "malgraph.pipeline", "load_graph"),
    Target("depgraph.to_json", "malgraph.depgraph", "to_json",
           lambda a, k, data: {"json_bytes": len(data)}),
    Target("depgraph.from_json", "malgraph.depgraph", "from_json",
           lambda a, k, g: {"json_bytes": len(a[0] if a else k["data"])}),
    Target("pipeline.load_dataset", "malgraph.pipeline", "load_dataset"),
    Target("pipeline.load_dataset", "malgraph.cli", "load_dataset"),
    Target("analytics.encode", "malgraph.pipeline", "encode"),
    Target("analytics.encode", "malgraph.cli", "encode"),
    Target("analytics.topo_features", "malgraph.cli", "topo_features", _topo_counts),
    Target("sage.forward", "malgraph.pipeline", "forward", _forward_counts),
    Target("sage.backward", "malgraph.pipeline", "backward", _backward_counts),
    Target("sage.adam_step", "malgraph.pipeline", "adam_step"),
    Target("sage.save_model", "malgraph.cli", "save_model"),
    Target("sage.load_model", "malgraph.cli", "load_model"),
    Target("pipeline.score_samples", "malgraph.pipeline", "score_samples"),
    Target("pipeline.score_samples", "malgraph.cli", "score_samples"),
    Target("pipeline.train", "malgraph.cli", "train"),
    Target("pipeline.eval_per_family", "malgraph.cli", "eval_per_family"),
    Target("corpus.generate", "malgraph.corpus", "generate"),
]
