"""Command-line front end for the graph pipeline.

Subcommands: ``compile`` (IR/trace text, or graph JSON, to canonical graph
JSON), ``corpus`` (synthetic dataset), ``train``, ``predict``, ``eval``, and
``features``.  Every file a command reads goes through ``read_graph``: a
``.json`` path is graph JSON, any other path is ``.ll`` IR or trace text.
Every command works through its files one at a time.  Exit codes: 0 success,
1 operational error (unreadable or malformed input), 2 usage error (bad flags).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analytics import encode, export_features_csv, topo_features
from .corpus import CorpusSpec, generate
from .depgraph import save_graph
from .errors import MalgraphError, NonFiniteScores, make_dir, write_file
from .pipeline import (
    THRESHOLD,
    TrainConfig,
    eval_per_family,
    eval_scores,
    load_dataset,
    load_manifest,
    read_graph,
    save_history,
    score_samples,
    train,
)
from .sage import ArchConfig, load_model, save_model

_ACTIVATION_FLAGS = {"relu": "relu", "leaky-relu": "leaky_relu"}


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _at_least(k: int):
    """An argparse ``type=`` for an integer no smaller than `k`."""
    def integer(text: str) -> int:
        n = int(text)
        if n < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {n}")
        return n
    return integer


def _between(lo: float, hi: float):
    """An argparse ``type=`` for a float strictly between `lo` and `hi`."""
    def number(text: str) -> float:
        x = float(text)
        if not lo < x < hi:  # also false for nan
            raise argparse.ArgumentTypeError(f"must be in ({lo:g}, {hi:g}), got {text}")
        return x
    return number


def _input_files(paths) -> list[Path]:
    """Expand directory arguments into their .ll/.trace members, sorted."""
    out = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(x for x in path.iterdir()
                              if x.suffix.lower() in (".ll", ".trace")))
        else:
            out.append(path)
    return out


def cmd_compile(args) -> int:
    files = _input_files(args.inputs)
    if not files:
        print("error: no input files", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    targets = {}
    for path in files:
        target = out_dir / (path.stem + ".json")
        if target in targets:
            raise MalgraphError(f"{targets[target]} and {path} would both write {target}")
        targets[target] = path
    graphs = []
    for path in files:
        g = read_graph(path, control_edges=args.control_edges,
                       memory_edges=args.mem_deps)
        graphs.append(dataclasses.replace(
            g,
            label=g.label if args.label is None else args.label,
            family=g.family if args.family is None else args.family,
        ))
    make_dir(out_dir)
    for (target, path), g in zip(targets.items(), graphs):
        save_graph(g, target)
        print(f"{path}: {_plural(g.num_nodes, 'node')}, "
              f"{_plural(g.num_edges, 'edge')} -> {target}")
    return 0


def cmd_corpus(args) -> int:
    spec = CorpusSpec(benign_count=args.benign, malicious_count=args.malicious,
                      seed=args.seed, easy=args.easy)
    manifest = generate(spec, args.out)
    print(f"wrote {_plural(len(manifest.entries), 'trace')} under {args.out}")
    return 0


def cmd_train(args) -> int:
    manifest = load_manifest(args.manifest)
    arch = ArchConfig(
        vocab_size=1,  # resized to the training vocabulary
        embed_dim=args.hidden,
        hidden_dim=args.hidden,
        num_sage_layers=args.layers,
        use_embedding=not args.no_embedding,
        activation=_ACTIVATION_FLAGS[args.activation],
    )
    cfg = TrainConfig(arch=arch, epochs=args.epochs, seed=args.seed,
                      batch_size=args.batch_size, lr=args.lr,
                      split_fraction=args.split)
    result = train(manifest, cfg)
    save_model(result.params, result.vocab, args.out)
    if args.history:
        save_history(result.history, args.history)
    report = eval_scores(result.test_scores, result.test_manifest)
    auroc = "n/a" if report.auroc is None else f"{report.auroc:.6f}"
    print(f"test acc {report.acc:.6f}  auroc {auroc}  f1 {report.f1:.6f}")
    print(f"model -> {args.out}")
    return 0


@contextlib.contextmanager
def _scoring(model):
    """Silence numpy's overflow warnings; a non-finite score names the model file."""
    try:
        with np.errstate(all="ignore"):
            yield
    except NonFiniteScores as e:
        raise MalgraphError(f"model {model} overflows: {e}") from None


def cmd_predict(args) -> int:
    params, vocab = load_model(args.model)
    samples = [encode(read_graph(p), vocab) for p in args.graphs]
    with _scoring(args.model):
        scores = score_samples(params, samples)
    for path, score in zip(args.graphs, scores):
        verdict = "malicious" if score >= THRESHOLD else "benign"
        print(f"{path}\t{score:.6f}\t{verdict}")
    return 0


def cmd_eval(args) -> int:
    params, vocab = load_model(args.model)
    manifest = load_manifest(args.manifest)
    with _scoring(args.model):
        report = eval_per_family(params, vocab, manifest)
    if report.auroc is None:
        print("warning: manifest is single-class, auroc omitted", file=sys.stderr)
    doc = {
        "acc": round(report.acc, 6),
        "auroc": None if report.auroc is None else round(report.auroc, 6),
        "f1": round(report.f1, 6),
        "threshold": THRESHOLD,
        "per_family": {
            fam: {"samples": row["samples"], "acc": round(row["acc"], 6)}
            for fam, row in report.per_family.items()
        },
    }
    if args.json:
        print(json.dumps(doc))
        return 0
    auroc = "n/a" if doc["auroc"] is None else f"{doc['auroc']:.6f}"
    print(f"acc {doc['acc']:.6f}")
    print(f"auroc {auroc}")
    print(f"f1 {doc['f1']:.6f}")
    if args.per_family:
        print("family samples acc")
        for fam, row in doc["per_family"].items():
            print(f"{fam} {row['samples']} {row['acc']:.6f}")
    return 0


def cmd_features(args) -> int:
    if bool(args.manifest) == bool(args.graphs):
        print("error: give either --manifest or graph paths", file=sys.stderr)
        return 2
    if args.manifest:
        manifest = load_manifest(args.manifest)
        graphs = load_dataset(manifest)
        origins = [e.path for e in manifest.entries]
    else:
        graphs = [read_graph(p) for p in args.graphs]
        origins = [str(p) for p in args.graphs]
    labels = [g.label for g in graphs]
    feats = [topo_features(g) for g in graphs]
    text = export_features_csv(zip(origins, labels, feats))
    if args.csv:
        write_file(args.csv, text.encode("utf-8"))
        print(f"features -> {args.csv}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malgraph",
        description="Dependency graphs of instructions and a GraphSAGE malware classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="convert .ll/.trace/.json files to graph JSON")
    p.add_argument("inputs", nargs="+",
                   help=".ll/.trace/.json files, or directories of .ll/.trace files")
    p.add_argument("--out", default=".", help="output directory for graph JSON")
    p.add_argument("--control-edges", action="store_true",
                   help="add branch-to-successor edges")
    p.add_argument("--mem-deps", action="store_true",
                   help="add store-to-load edges from address annotations")
    p.add_argument("--label", type=int, choices=(0, 1), default=None,
                   help="attach a class label to every output graph")
    p.add_argument("--family", default=None,
                   help="attach a family name to every output graph")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("corpus", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--benign", type=_at_least(1), default=500)
    p.add_argument("--malicious", type=_at_least(1), default=500)
    p.add_argument("--seed", type=_at_least(0), default=42)
    p.add_argument("--easy", action="store_true",
                   help="let the classes differ in vocabulary, not just shape")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("train", help="train a classifier from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default="model.json", help="model output path")
    p.add_argument("--epochs", type=_at_least(1), default=30)
    p.add_argument("--batch-size", type=_at_least(1), default=32)
    p.add_argument("--lr", type=_between(0, math.inf), default=1e-3)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--layers", type=int, choices=(4, 6, 8, 10), default=6)
    p.add_argument("--hidden", type=_at_least(1), default=128,
                   help="hidden width, also used for the embedding")
    p.add_argument("--no-embedding", action="store_true",
                   help="feed raw one-hot features to the first layer")
    p.add_argument("--activation", choices=sorted(_ACTIVATION_FLAGS),
                   default="leaky-relu")
    p.add_argument("--split", type=_between(0, 1), default=0.8,
                   help="train fraction of the stratified split")
    p.add_argument("--history", default=None, help="per-epoch metrics CSV path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="score .ll/.trace/.json files with a model")
    p.add_argument("--model", required=True)
    p.add_argument("graphs", nargs="+",
                   help=".json files are graph JSON; any other file is .ll or trace text")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a model against a labeled manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--per-family", action="store_true",
                   help="print per-family sample counts and accuracy")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as one JSON document")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("features", help="export topological features as CSV")
    p.add_argument("graphs", nargs="*",
                   help=".json files are graph JSON; any other file is .ll or trace text")
    p.add_argument("--manifest", default=None)
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_features)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MalgraphError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
