#!/usr/bin/env python3
"""Ablation grid: layer count x embedding layer x activation.

Trains every configuration on one shared corpus/split and prints a result
table; also writes it as CSV to --out.
"""

import argparse
import csv
import sys
import tempfile
from pathlib import Path

from malgraph.corpus import CorpusSpec, generate
from malgraph.pipeline import TrainConfig, eval_samples, train
from malgraph.sage import ArchConfig

ROWS = [(False, "relu"), (True, "leaky_relu"), (True, "relu")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/ablation.csv", help="result CSV path")
    ap.add_argument("--benign", type=int, default=150)
    ap.add_argument("--malicious", type=int, default=150)
    ap.add_argument("--corpus-seed", type=int, default=42)
    ap.add_argument("--epochs", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--hidden", type=int, default=64)
    args = ap.parse_args()

    results = []
    with tempfile.TemporaryDirectory() as d:
        manifest = generate(
            CorpusSpec(benign_count=args.benign, malicious_count=args.malicious,
                       seed=args.corpus_seed), d)
        for layers in (4, 6, 8, 10):
            for use_embedding, activation in ROWS:
                arch = ArchConfig(vocab_size=1, embed_dim=args.hidden,
                                  hidden_dim=args.hidden, num_sage_layers=layers,
                                  use_embedding=use_embedding,
                                  activation=activation)
                cfg = TrainConfig(arch=arch, epochs=args.epochs, seed=args.seed)
                result = train(manifest, cfg)
                report = eval_samples(result.params, result.test_samples,
                                      result.test_manifest)
                results.append((layers, use_embedding, activation,
                                report.acc, report.auroc, report.f1))
                print(f"layers={layers:2d} embedding={use_embedding!s:5} "
                      f"activation={activation:10}  acc {report.acc:.4f}  "
                      f"auroc {report.auroc:.4f}  f1 {report.f1:.4f}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["layers", "embedding", "activation", "acc", "auroc", "f1"])
        w.writerows(results)
    print(f"table -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
