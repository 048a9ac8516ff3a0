#!/usr/bin/env python3
"""End-to-end experiment: synthesize a corpus, train, evaluate, export.

Writes into --out:
  corpus/        traces + manifest
  model.json     trained classifier
  history.csv    per-epoch train loss and test metrics
  eval.json      final report with per-family accuracy
  features.csv   topological features for every graph in the corpus
"""

import argparse
import json
import sys
from pathlib import Path

from malgraph.analytics import export_features_csv, topo_features
from malgraph.corpus import CorpusSpec, generate
from malgraph.pipeline import (
    THRESHOLD,
    TrainConfig,
    eval_scores,
    load_dataset,
    save_history,
    train,
)
from malgraph.sage import ArchConfig, save_model


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/experiment", help="output directory")
    ap.add_argument("--benign", type=int, default=500)
    ap.add_argument("--malicious", type=int, default=500)
    ap.add_argument("--corpus-seed", type=int, default=42)
    ap.add_argument("--easy", action="store_true")
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--layers", type=int, choices=(4, 6, 8, 10), default=6)
    ap.add_argument("--hidden", type=int, default=128)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"generating corpus ({args.benign}+{args.malicious}, seed {args.corpus_seed})")
    spec = CorpusSpec(benign_count=args.benign, malicious_count=args.malicious,
                      seed=args.corpus_seed, easy=args.easy)
    manifest = generate(spec, out / "corpus")

    arch = ArchConfig(vocab_size=1, embed_dim=args.hidden, hidden_dim=args.hidden,
                      num_sage_layers=args.layers)
    cfg = TrainConfig(arch=arch, epochs=args.epochs, seed=args.seed)
    print(f"training {args.layers} layers x {args.hidden} units, {args.epochs} epochs")
    result = train(manifest, cfg)
    for st in result.history:
        print(f"  epoch {st.epoch:3d}  loss {st.train_loss:.4f}  "
              f"acc {st.test_acc:.4f}  auroc {st.test_auroc:.4f}")

    save_model(result.params, result.vocab, out / "model.json")
    save_history(result.history, out / "history.csv")

    report = eval_scores(result.test_scores, result.test_manifest)
    doc = {
        "acc": report.acc,
        "auroc": report.auroc,
        "f1": report.f1,
        "threshold": THRESHOLD,
        "per_family": report.per_family,
    }
    (out / "eval.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"test acc {report.acc:.4f}  auroc {report.auroc:.4f}  f1 {report.f1:.4f}")

    graphs = load_dataset(manifest)
    rows = [(e.path, e.label, topo_features(g))
            for e, g in zip(manifest.entries, graphs)]
    (out / "features.csv").write_text(export_features_csv(rows))
    print(f"artifacts under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
