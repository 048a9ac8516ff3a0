"""Dataset plumbing, stratified splits, the training loop, and evaluation.

A manifest (JSON Lines: ``{"path":...,"label":0|1,"family":"..."}`` per line)
names the dataset; paths resolve relative to the manifest's directory and may
point at graph JSON documents, ``.ll`` files, or raw trace files — the latter
two are parsed and built into graphs on load.  Labels and families come from
the manifest alone: a graph carries neither.

Training follows the usual protocol: stratified 80/20 split, vocabulary built
from the training split only, shuffled mini-batches with adaptive-moment
updates, and per-epoch test accuracy/AUROC history.  Everything is
deterministic in the config seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import OpVocabulary, build_vocab, encode
from .depgraph import DepGraph, build_graph, load_graph
from .errors import (
    GraphFormatError,
    MalgraphError,
    NonFiniteScores,
    SingleClass,
    TooFewSamples,
    read_file,
    write_file,
)
from .ir import parse_trace
from .sage import (
    AdamState,
    ArchConfig,
    ModelParams,
    adam_step,
    backward,
    forward,
    init_params,
)

__all__ = [
    "Manifest", "ManifestEntry", "TrainConfig", "EpochStats", "TrainResult",
    "EvalReport", "load_manifest", "save_manifest", "read_graph", "load_dataset",
    "split", "train", "auroc", "metrics", "eval_per_family", "eval_scores",
    "score_samples", "SCORE_ROWS", "THRESHOLD",
    "save_history", "worker_count",
    "HISTORY_CSV_HEADER",
]

HISTORY_CSV_HEADER = "epoch,train_loss,test_acc,test_auroc"

# a score at or above this is a malicious verdict
THRESHOLD = 0.5

# node rows per scoring forward.  It fixes which graphs share a readout
# product, in which a graph's score can move in its last bit with the graphs
# beside it, so changing it needs the pinned score digests checked again.  It
# also bounds the one row block a scoring forward keeps, its H_L: the layers
# below run on tiles of sage.TILE_ROWS rows.
SCORE_ROWS = 4096


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int
    family: str

    def __post_init__(self):
        if not isinstance(self.path, str) or not self.path:
            raise ValueError(f"bad path {self.path!r}")
        if type(self.label) is not int or self.label not in (0, 1):  # not True
            raise ValueError(f"bad label {self.label!r}")
        if not isinstance(self.family, str) or not self.family:
            raise ValueError(f"bad family {self.family!r}")


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    base_dir: str = ""

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise ValueError("manifest paths must be unique")

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, entry: ManifestEntry) -> Path:
        if self.base_dir:
            return Path(self.base_dir) / entry.path
        return Path(entry.path)


def _parse_manifest(text: str, base_dir: str) -> Manifest:
    entries = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:  # ValueError covers int-size errors
            raise GraphFormatError(f"line {line_no}: not valid JSON: {e}") from None
        if not isinstance(obj, dict):
            raise GraphFormatError(f"line {line_no}: expected an object")
        try:
            entries.append(ManifestEntry(obj.get("path"), obj.get("label"), obj.get("family")))
        except ValueError as e:
            raise GraphFormatError(f"line {line_no}: {e}") from None
    try:
        return Manifest(entries=tuple(entries), base_dir=base_dir)
    except ValueError as e:
        raise GraphFormatError(str(e)) from None


def load_manifest(path) -> Manifest:
    path = Path(path)
    return read_file(path, lambda text: _parse_manifest(text, str(path.parent)))


def save_manifest(manifest: Manifest, path):
    lines = [json.dumps({"path": e.path, "label": e.label, "family": e.family},
                        separators=(",", ":"))
             for e in manifest.entries]
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def worker_count() -> int:
    """``MGN_THREADS`` or the CPU count.

    No command reads ``MGN_THREADS`` any more; this stays only because the
    benchmark harness (``perfbench/run.py``) imports it for its environment
    record, and goes with the next change to the benchmark.
    """
    raw = os.environ.get("MGN_THREADS")
    if raw is None or not raw.strip():
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise MalgraphError(f"MGN_THREADS must be a positive integer, got {raw!r}")
    return value


def read_graph(path, *, control_edges: bool = False,
               memory_edges: bool = False) -> DepGraph:
    """The dependency graph of one file, by suffix (compared in lower case).

    ``.json`` is a graph document (the edge flags do not apply); anything
    else, static ``.ll`` IR or a dynamic trace, is UTF-8 text for
    ``parse_trace``.  Errors name the path (see ``errors.read_file``).
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return load_graph(path)
    unit = read_file(path, lambda text: parse_trace(text, path))
    return build_graph(unit, control_edges=control_edges, memory_edges=memory_edges)


def load_dataset(manifest: Manifest) -> list:
    """All graphs of a manifest, in manifest order; labels stay in the manifest."""
    return [read_graph(manifest.resolve(e)) for e in manifest.entries]


def split(manifest: Manifest, fraction: float, seed: int):
    """Stratified split: per label, seeded shuffle then first ceil(f·n) to train."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    train_entries, test_entries = [], []
    for label in (0, 1):
        group = [e for e in manifest.entries if e.label == label]
        if len(group) < 2:
            raise TooFewSamples(
                f"need at least 2 entries of label {label}, found {len(group)}")
        rng = np.random.default_rng([seed, label])
        order = rng.permutation(len(group))
        take = math.ceil(fraction * len(group))
        train_entries.extend(group[i] for i in order[:take])
        test_entries.extend(group[i] for i in order[take:])
    return (Manifest(tuple(train_entries), manifest.base_dir),
            Manifest(tuple(test_entries), manifest.base_dir))


def auroc(scores, labels) -> float:
    """Mann–Whitney AUROC with the 0.5-per-tie convention (average ranks)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    p = int(pos.sum())
    n = len(labels) - p
    if p == 0 or n == 0:
        raise SingleClass("AUROC needs both a positive and a negative sample")
    # a tie group at 0-based sorted positions i..j gets the average 1-based rank (i + j + 2)/2
    _, group, size = np.unique(scores, return_inverse=True, return_counts=True)
    u = (np.cumsum(size) - (size - 1) / 2.0)[group][pos].sum() - p * (p + 1) / 2.0
    return float(u / (p * n))


def metrics(scores, labels) -> dict:
    """Accuracy and F1 (malicious = positive class) at THRESHOLD."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if len(scores) == 0 or len(scores) != len(labels):
        raise ValueError("scores and labels must be nonempty and aligned")
    pred = scores >= THRESHOLD
    actual = labels == 1
    acc = float(np.mean(pred == actual))
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"acc": acc, "f1": f1}


@dataclass
class TrainConfig:
    arch: ArchConfig
    epochs: int
    seed: int
    batch_size: int = 32
    lr: float = 1e-3
    split_fraction: float = 0.8

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0 < self.split_fraction < 1:
            raise ValueError("split_fraction must be in (0, 1)")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    test_acc: float
    test_auroc: float


@dataclass
class TrainResult:
    """`test_scores` are the final parameters' scores of `test_manifest`, in its order."""

    params: ModelParams
    vocab: OpVocabulary
    history: list
    test_manifest: Manifest
    test_scores: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    acc: float
    auroc: float | None
    f1: float
    per_family: dict = field(default_factory=dict)


def score_samples(params: ModelParams, samples) -> np.ndarray:
    """Scores for a sample list, in order.

    Runs of consecutive samples of at most SCORE_ROWS nodes in all go through
    `forward` together, keeping no activations, so memory is bounded in node
    rows whatever the number or size of the graphs; a larger graph goes alone.
    Raises NonFiniteScores, counting every sample, if any graph's score or
    pooled vector is not finite: the model overflowed on it, and a saturated
    0 or 1 would hide that.
    """
    chunks = []
    bad = lo = 0
    while lo < len(samples):
        hi, rows = lo + 1, samples[lo].num_nodes
        while hi < len(samples) and rows + samples[hi].num_nodes <= SCORE_ROWS:
            rows += samples[hi].num_nodes
            hi += 1
        scores, cache = forward(params, samples[lo:hi], cache=False)
        bad += np.count_nonzero(~(np.isfinite(cache.pooled).all(axis=1) & np.isfinite(scores)))
        chunks.append(scores)
        del cache  # its H_L block, before the next forward allocates one
        lo = hi
    if bad:
        raise NonFiniteScores(bad, len(samples))
    return np.concatenate(chunks) if chunks else np.empty(0)


def _labels_of(manifest: Manifest) -> np.ndarray:
    return np.asarray([e.label for e in manifest.entries], dtype=float)


def train(manifest: Manifest, cfg: TrainConfig) -> TrainResult:
    """Split, build vocabulary, train for cfg.epochs, and record history.

    The vocabulary is built from the train split only; cfg.arch.vocab_size is
    overridden to match it.  The first step whose loss or gradients, or whose
    epoch's test scores, are not finite stops the run.
    """
    train_m, test_m = split(manifest, cfg.split_fraction, cfg.seed)
    labels = {e.label for e in test_m.entries}  # split gives the train split both classes
    if labels != {0, 1}:
        raise TooFewSamples(f"test split must contain both classes, got labels {sorted(labels)}")

    train_graphs = load_dataset(train_m)
    test_graphs = load_dataset(test_m)

    vocab = build_vocab(train_graphs)
    arch = dataclasses.replace(cfg.arch, vocab_size=vocab.size)

    train_samples = [encode(g, vocab) for g in train_graphs]
    test_samples = [encode(g, vocab) for g in test_graphs]
    train_labels = _labels_of(train_m)
    test_labels = _labels_of(test_m)

    params = init_params(arch, cfg.seed)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])

    history = []
    step = 0
    n = len(train_samples)
    # a diverged run ends in the one-line error below, not in numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            loss_sum = 0.0
            for lo in range(0, n, cfg.batch_size):
                batch_idx = order[lo:lo + cfg.batch_size]
                batch = [train_samples[i] for i in batch_idx]
                # the cache dies with backward's return, so no step holds another's
                loss, grads = backward(params, forward(params, batch)[1],
                                       train_labels[batch_idx])
                step += 1
                bad = [] if math.isfinite(loss) else ["loss"]
                bad += [name for name, g in grads.items() if not np.all(np.isfinite(g))]
                if bad:  # stop a diverged run before Adam spreads it
                    raise MalgraphError(f"training diverged at epoch {epoch}, step {step}: "
                                        f"non-finite {', '.join(bad)}")
                adam_step(params, grads, state, step, lr=cfg.lr)
                del grads
                loss_sum += loss * len(batch)
            try:
                scores = score_samples(params, test_samples)
            except NonFiniteScores as e:
                raise MalgraphError(f"training diverged at epoch {epoch}, step {step}: "
                                    f"{e.bad} of {e.total} test scores are not finite") from None
            history.append(EpochStats(
                epoch=epoch,
                train_loss=loss_sum / n,
                test_acc=metrics(scores, test_labels)["acc"],
                test_auroc=auroc(scores, test_labels),
            ))
    return TrainResult(params, vocab, history, test_m, scores)


def eval_per_family(params: ModelParams, vocab: OpVocabulary,
                    manifest: Manifest) -> EvalReport:
    """Overall ACC/AUROC/F1 plus per-family accuracy on a labeled manifest."""
    samples = [encode(g, vocab) for g in load_dataset(manifest)]
    return eval_scores(score_samples(params, samples), manifest)


def eval_scores(scores, manifest: Manifest) -> EvalReport:
    """eval_per_family of scores already taken of `manifest`, in its order."""
    if not manifest.entries:
        raise TooFewSamples("evaluation needs at least one entry")
    labels = _labels_of(manifest)
    core = metrics(scores, labels)
    try:
        area = auroc(scores, labels)
    except SingleClass:
        area = None

    groups: dict[str, list] = {}
    for entry, score in zip(manifest.entries, scores):
        name = "benign" if entry.label == 0 else entry.family
        groups.setdefault(name, []).append((score, entry.label))
    per_family = {}
    for name in sorted(groups):
        rows = groups[name]
        correct = sum((s >= THRESHOLD) == (y == 1) for s, y in rows)
        per_family[name] = {"samples": len(rows), "acc": correct / len(rows)}
    return EvalReport(acc=core["acc"], auroc=area, f1=core["f1"],
                      per_family=per_family)


def save_history(history, path):
    lines = [HISTORY_CSV_HEADER]
    lines += [f"{h.epoch},{h.train_loss!r},{h.test_acc!r},{h.test_auroc!r}"
              for h in history]
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))
