"""GraphSAGE classifier core: forward, exact backward, adaptive-moment steps.

The model is an embedding layer (a dense layer applied to one-hot opcode rows,
realized as a row lookup), a stack of mean-aggregator SAGE layers
h'(v) = act(Wᵀ·[h(v) ; mean_{u∈N(v)} h(u)] + b), global mean pooling and a
sigmoid output unit.  A batch runs as one disjoint union with per-graph
pooling segments, so batched and per-graph scores agree to float64 rounding.

All math is float64 and hand-differentiated; gradients are validated against
central finite differences in the test suite.  N(v) is v's full undirected
neighbour set, so a forward pass is deterministic; each sample carries its
mean matrix (`GraphSample.agg`).

Forward cuts the batch into tiles of consecutive whole graphs, each closed
once it holds TILE_ROWS node rows, a shorter remainder joining the last tile,
and gives each tile the block diagonal of its samples' mean matrices.  This
plan is made once per batch and kept in the cache, where backward reads it.
No graph reads another's rows, so each tile runs every layer and its pooling
while it is in cache.  The bits are those of one pass over the whole batch:
a row of the mean product or of a pooling sum adds the same terms in the same
order, and a dgemm row does not depend on the other rows of the product once
there are two or more (measured with OpenBLAS at outputs 8 to 128 wide; 256
wide needs eight); a tile holds fewer than TILE_ROWS rows only when it is
the whole batch.  The readout stays one product over the batch's pooled rows.

For training, forward keeps one row block per SAGE layer, its output h; backward
rebuilds the input rows H_0 from the parameters and the cheap sparse mean
(agg @ h) rather than keep them, and frees each block once it has read it for
the last time.  Backward runs forward's tiles too: only the products that sum
over every row of the batch (the weight gradients, the bias sums, the
embedding's one-hot product) run whole-batch, while each layer's mask, its
agg @ h and its input gradient, which reads the transpose of the tile's
mean block, go tile by tile, for the same bit-for-bit reasons.  So a
default training step peaks at the L - 1 lower layers' blocks, dz, one
agg @ h block that then takes the input gradient, and a tile's temporaries.
For scoring (cache=False) forward keeps H_L alone, the layers below it
running on tile-sized temporaries.

scipy.sparse is imported inside `forward` and `backward`, which build the
tiles' mean blocks and the one-hot embedding product, rather than at module
level, so the commands that run no model (`corpus`, `compile`, `features`)
never load it; the first forward in a process pays for the import.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .analytics import OpVocabulary
from .errors import (
    CacheMismatch,
    EmptyDataset,
    EmptyGraph,
    GraphFormatError,
    ShapeMismatch,
    VersionMismatch,
    VocabMismatch,
    read_file,
    write_file,
)

ACTIVATIONS = ("leaky_relu", "relu")
LEAKY_SLOPE = 0.01
# forward closes a tile of whole graphs once it holds this many node rows
TILE_ROWS = 512


@dataclass(frozen=True)
class ArchConfig:
    vocab_size: int
    embed_dim: int = 128
    hidden_dim: int = 128
    num_sage_layers: int = 6
    use_embedding: bool = True
    activation: str = "leaky_relu"

    def __post_init__(self):
        dims = (self.vocab_size, self.embed_dim, self.hidden_dim, self.num_sage_layers)
        if not all(type(d) is int for d in dims) or type(self.use_embedding) is not bool:
            raise TypeError("dimensions must be ints and use_embedding a bool")
        if min(dims) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def input_dim(self) -> int:
        return self.embed_dim if self.use_embedding else self.vocab_size


@dataclass
class ModelParams:
    arch: ArchConfig
    embed_W: np.ndarray | None
    embed_b: np.ndarray | None
    sage_W: list
    sage_b: list
    out_W: np.ndarray
    out_b: np.ndarray  # 0-d array

    def tensors(self) -> dict:
        """Name → array view of every trainable tensor, in a fixed order."""
        out = {}
        if self.embed_W is not None:
            out["embed_W"] = self.embed_W
            out["embed_b"] = self.embed_b
        for k, (w, b) in enumerate(zip(self.sage_W, self.sage_b)):
            out[f"sage_W.{k}"] = w
            out[f"sage_b.{k}"] = b
        out["out_W"] = self.out_W
        out["out_b"] = self.out_b
        return out


def _expected_shapes(arch: ArchConfig) -> dict:
    """The model's one table of tensor names and shapes, in `ModelParams.tensors` order."""
    shapes = {}
    if arch.use_embedding:
        shapes["embed_W"] = (arch.vocab_size, arch.embed_dim)
        shapes["embed_b"] = (arch.embed_dim,)
    d_in = arch.input_dim
    for k in range(arch.num_sage_layers):
        shapes[f"sage_W.{k}"] = (2 * d_in, arch.hidden_dim)
        shapes[f"sage_b.{k}"] = (arch.hidden_dim,)
        d_in = arch.hidden_dim
    shapes["out_W"] = (arch.hidden_dim,)
    shapes["out_b"] = ()
    return shapes


def _params(arch: ArchConfig, tensors_by_name: dict) -> ModelParams:
    """The ModelParams of tensors named as in `_expected_shapes(arch)`."""
    t = tensors_by_name
    layers = range(arch.num_sage_layers)
    return ModelParams(arch, t.get("embed_W"), t.get("embed_b"),
                       [t[f"sage_W.{k}"] for k in layers], [t[f"sage_b.{k}"] for k in layers],
                       t["out_W"], t["out_b"])


def init_params(arch: ArchConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights drawn in table order, zero biases; deterministic in (arch, seed)."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _expected_shapes(arch).items():
        if name.split(".")[0].endswith("_b"):
            tensors[name] = np.zeros(shape)
        else:
            fan_in, fan_out = (*shape, 1)[:2]
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
    return _params(arch, tensors)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    """act(z), written over z."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.maximum(z, LEAKY_SLOPE * z, out=z)


def _act_backward(h: np.ndarray, dh: np.ndarray, kind: str) -> np.ndarray:
    """d loss / d z from d loss / d h, where h = act(z), written over dh.

    h > 0 exactly where z > 0 (NaN included), so the output stands in for
    the pre-activation.  Both kinds multiply dh by a slope array (the mask,
    or 1 and LEAKY_SLOPE), which keeps dh's sign of zero.
    """
    if kind == "relu":
        return np.multiply(dh, h > 0, out=dh)
    return np.multiply(dh, np.maximum(h > 0, LEAKY_SLOPE), out=dh)


def _input_table(params: ModelParams) -> np.ndarray:
    """The vocabulary table whose row op is the input row of a node of opcode op.

    That is act(embed_W + embed_b), or the identity for one-hot input, so H_0
    is table[idx]; as the activation is elementwise, those rows equal
    act(embed_W[idx] + embed_b) bit for bit.
    """
    arch = params.arch
    if arch.use_embedding:
        return _act(params.embed_W + params.embed_b, arch.activation)
    return np.eye(arch.vocab_size)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class ForwardCache:
    """What one forward pass leaves behind.

    With the cache on, hs holds H_1 .. H_L, each SAGE layer's output, one row
    block per layer; the input rows H_0 are rebuilt from the parameters when
    needed.  backward releases each of H_2 .. H_L once it has masked its
    layer's gradient with it, tile by tile, and leaves hs == [H_1], so the
    cache serves one backward only.  With the cache off, hs holds only H_L,
    which pooling reads anyway.  `tiles` is forward's tile plan, each tile's
    mean block the block diagonal of its samples' `agg`.  `for_backward` says
    whether backward may still read the cache.
    """

    params: ModelParams
    scores: np.ndarray
    pooled: np.ndarray
    counts: np.ndarray              # nodes per graph
    idx: np.ndarray                 # node op index per batch row
    tiles: list                     # (first row, end row, mean block) per tile
    hs: list
    for_backward: bool


def _tiles(counts: np.ndarray) -> list:
    """Graph indices at which the tiles of a batch start, then the batch's length.

    A tile is a run of consecutive whole graphs that closes once it holds at
    least TILE_ROWS rows; a shorter remainder joins the last tile, so every
    tile holds at least min(TILE_ROWS, batch rows) rows.
    """
    rows = np.concatenate([[0], np.cumsum(counts)])
    cuts = [0]
    while True:
        g = int(np.searchsorted(rows, rows[cuts[-1]] + TILE_ROWS))
        if g >= len(counts) or rows[-1] - rows[g] < TILE_ROWS:
            return cuts + [len(counts)]
        cuts.append(g)


def forward(params: ModelParams, batch, *, cache: bool = True):
    """Score a batch of GraphSamples; returns (scores, ForwardCache).

    The batch runs tile by tile (`_tiles`, and the module docs for why the
    bits are those of one pass): a tile reads its rows of the input table and
    its mean block, and writes each layer's output into that layer's
    full-rows block.  `backward` needs cache=True.
    With cache=False only H_L has a full-rows block and the layers below it
    use tile-sized temporaries, so scoring holds one row block and a tile.
    """
    batch = list(batch)
    if not batch:
        raise EmptyDataset("forward needs at least one graph")
    if any(s.num_nodes == 0 for s in batch):
        raise EmptyGraph("forward received a sample with zero nodes")
    arch = params.arch

    counts = np.array([s.num_nodes for s in batch])
    offsets = np.concatenate([[0], np.cumsum(counts)])  # each graph's first row, then the total
    idx = np.concatenate([np.asarray(s.node_ops, dtype=np.intp) for s in batch])
    if idx.max() >= arch.vocab_size:
        raise VocabMismatch(
            f"node op index {int(idx.max())} outside vocabulary of size {arch.vocab_size}")

    import scipy.sparse as sp

    table = _input_table(params)
    # the tile plan, made before the row blocks so that its small arrays
    # do not land between them and grow the heap
    cuts = _tiles(counts)
    tiles = [(offsets[g0], offsets[g1],
              sp.block_diag([s.agg for s in batch[g0:g1]], format="csr"))
             for g0, g1 in zip(cuts, cuts[1:])]
    layers = arch.num_sage_layers
    # H_1 .. H_L with the cache on, H_L alone with it off: hs[k - layers] is H_{k+1}
    hs = [np.empty((len(idx), arch.hidden_dim)) for _ in range(layers if cache else 1)]
    pooled = np.empty((len(batch), arch.hidden_dim))
    for g0, g1, (a, b, tile_agg) in zip(cuts, cuts[1:], tiles):
        h = table[idx[a:b]]
        for k, (w, bias) in enumerate(zip(params.sage_W, params.sage_b)):
            x = np.concatenate([h, tile_agg @ h], axis=1)
            h = np.matmul(x, w, out=hs[k - layers][a:b] if cache or k == layers - 1 else None)
            h += bias
            _act(h, arch.activation)
        np.divide(np.add.reduceat(h, offsets[g0:g1] - a, axis=0), counts[g0:g1, None],
                  out=pooled[g0:g1])
    scores = _sigmoid(pooled @ params.out_W + params.out_b)
    return scores, ForwardCache(params, scores, pooled, counts, idx, tiles, hs, for_backward=cache)


CLAMP_LO = 1e-12
CLAMP_HI = 1.0 - 1e-12


def bce_loss(scores, labels) -> float:
    s = np.clip(np.asarray(scores, dtype=float), CLAMP_LO, CLAMP_HI)
    y = np.asarray(labels, dtype=float)
    return float(-np.mean(y * np.log(s) + (1 - y) * np.log(1 - s)))


def backward(params: ModelParams, cache: ForwardCache, labels):
    """Mean binary cross-entropy and its exact gradients; returns (loss, grads).

    Reads the cache once: it releases all of cache.hs but H_1 on the way.
    The weight gradients are whole-batch products; the rest runs over
    cache.tiles, forward's tile plan (see the module docs), so besides the
    cache a layer holds dz, one agg @ h block, which then takes the layer's
    input gradient, and a tile's temporaries.
    """
    if cache.params is not params:
        raise CacheMismatch("cache was produced by different parameters")
    if not cache.for_backward:
        raise CacheMismatch("cache holds no activations: forward ran with cache=False, "
                            "or backward already read it")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != cache.scores.shape:
        raise CacheMismatch(
            f"{labels.shape[0] if labels.ndim else 0} labels for {len(cache.scores)} scores")
    cache.for_backward = False

    arch = params.arch
    s = cache.scores
    batch_size = len(s)
    loss = bce_loss(s, labels)

    # d loss / d pre-sigmoid; zero where the clamp froze the loss
    live = (s > CLAMP_LO) & (s < CLAMP_HI)
    dz_out = np.where(live, (s - labels) / batch_size, 0.0)

    grads = {"out_W": cache.pooled.T @ dz_out, "out_b": np.sum(dz_out)}
    d_pooled = np.outer(dz_out, params.out_W)
    dz = np.repeat(d_pooled / cache.counts[:, None], cache.counts, axis=0)

    kind = arch.activation
    hs = cache.hs
    for a, b, _ in cache.tiles:
        _act_backward(hs[-1][a:b], dz[a:b], kind)

    # each layer's weights split into the halves that multiply h and agg @ h
    for k in reversed(range(arch.num_sage_layers)):
        del hs[max(k, 1):]  # layer k's output has no reader once masked; H_1 stays
        h = hs[k - 1] if k else _input_table(params)[cache.idx]
        w = params.sage_W[k]
        d_in = h.shape[1]
        m = np.empty_like(h)
        for a, b, tile_agg in cache.tiles:
            m[a:b] = tile_agg @ h[a:b]
        dw = np.empty_like(w)
        np.matmul(h.T, dz, out=dw[:d_in])
        np.matmul(m.T, dz, out=dw[d_in:])
        grads[f"sage_W.{k}"] = dw
        grads[f"sage_b.{k}"] = dz.sum(axis=0)
        if k == 0 and not arch.use_embedding:
            break  # the one-hot input has no gradient
        # agg @ h is read; its block takes d loss / d h, then layer k - 1's dz
        # (h = H_k is that layer's output, or act(embed) for k = 0)
        for a, b, tile_agg in cache.tiles:
            dh = np.matmul(dz[a:b], w[:d_in].T, out=m[a:b])
            dh += tile_agg.T @ (dz[a:b] @ w[d_in:].T)
            _act_backward(h[a:b], dh, kind)
        dz = m

    if arch.use_embedding:
        import scipy.sparse as sp

        grads["embed_b"] = dz.sum(axis=0)
        # row r of dz adds to row idx[r], in row order: a one-hot (rows × vocab) product
        rows = len(cache.idx)
        one_hot_rows = sp.csr_matrix((np.ones(rows), cache.idx, np.arange(rows + 1)),
                                     shape=(rows, arch.vocab_size))
        grads["embed_W"] = one_hot_rows.T @ dz

    grads["out_b"] = np.asarray(grads["out_b"])
    return loss, grads


@dataclass
class AdamState:
    m: dict
    v: dict

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in params.tensors().items()},
                   v={k: np.zeros_like(a) for k, a in params.tensors().items()})


def adam_step(params: ModelParams, grads: dict, state: AdamState, t: int, *,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """Bias-corrected adaptive-moment update, in place; t is 1-based.

    The parameters and the caller's ``state.m`` and ``state.v`` arrays are
    all updated in place, so a step leaves no array behind (new moment arrays
    would take the heap space backward just freed, and the next step's row
    blocks would grow the heap).  Each moment adds the same two products as
    ``beta1 * m + (1 - beta1) * g``, so its bits are the out-of-place ones.
    """
    tensors = params.tensors()
    for name, arr in tensors.items():
        if name not in grads or np.shape(grads[name]) != arr.shape:
            raise ShapeMismatch(
                f"gradient for {name!r} has shape "
                f"{np.shape(grads.get(name))}, expected {arr.shape}")
    for name, arr in tensors.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


# --- persistence -------------------------------------------------------------

def _arch_to_obj(arch: ArchConfig) -> dict:
    # the fields in declaration order, then the format's neighbour keys, each
    # with its one supported value
    return {**asdict(arch), "neighbor_view": "undirected", "sample_cap": None}


def model_to_json(params: ModelParams, vocab: OpVocabulary) -> bytes:
    if params.arch.vocab_size != vocab.size:
        raise VocabMismatch(
            f"arch expects {params.arch.vocab_size} names, vocabulary has {vocab.size}")
    weights = {
        "embed_W": None if params.embed_W is None else params.embed_W.tolist(),
        "embed_b": None if params.embed_b is None else params.embed_b.tolist(),
        "sage_W": [w.tolist() for w in params.sage_W],
        "sage_b": [b.tolist() for b in params.sage_b],
        "out_W": params.out_W.tolist(),
        "out_b": float(params.out_b),
    }
    obj = {
        "version": 1,
        "arch": _arch_to_obj(params.arch),
        "vocab": {"version": 1, "names": list(vocab.names)},
        "weights": weights,
    }
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except ValueError as e:
        raise GraphFormatError(f"model contains non-finite values: {e}") from None


def _tensor(obj, name: str, expect) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float) if obj is not None else None
    except (ValueError, TypeError, OverflowError):
        raise GraphFormatError(f"tensor {name!r} is not rectangular numeric data") from None
    if arr is None or arr.shape != expect:
        raise ShapeMismatch(
            f"tensor {name!r} has shape {None if arr is None else arr.shape}, "
            f"expected {expect}")
    # the shape holds, so the elements sit at depth len(expect); asarray reads "1" and true too
    elements = (obj,) if not expect else obj if len(expect) == 1 else chain.from_iterable(obj)
    if not set(map(type, elements)) <= {int, float}:
        raise GraphFormatError(f"tensor {name!r} must hold only numbers")
    if not np.all(np.isfinite(arr)):
        raise GraphFormatError(f"tensor {name!r} contains non-finite values")
    return arr


def model_from_json(data):
    """Parse a model document; returns (ModelParams, OpVocabulary)."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as e:  # ValueError covers decode and int-size errors
        raise GraphFormatError(f"not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise GraphFormatError("top level must be an object")
    version = obj.get("version")
    if type(version) is not int or version != 1:  # not true, not 1.0
        raise VersionMismatch(f"unsupported model version {version!r}")
    for key in ("arch", "vocab", "weights"):
        if key not in obj:
            raise GraphFormatError(f"missing field {key!r}")

    fields = obj["arch"]
    if not isinstance(fields, dict):
        raise GraphFormatError("arch must be an object")
    for key, only in (("neighbor_view", "undirected"), ("sample_cap", None)):
        if key in fields and fields.pop(key) != only:
            raise GraphFormatError(f"arch field {key!r} must be {json.dumps(only)}")
    try:
        arch = ArchConfig(**fields)
    except (TypeError, ValueError) as e:
        raise GraphFormatError(f"bad arch: {e}") from None

    vob = obj["vocab"]
    if not isinstance(vob, dict) or type(vob.get("version")) is not int or vob["version"] != 1:
        raise GraphFormatError("bad embedded vocabulary")
    names = vob.get("names")
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise GraphFormatError("vocabulary names must be strings")
    try:
        vocab = OpVocabulary(names=tuple(names))
    except ValueError as e:
        raise GraphFormatError(str(e)) from None
    if vocab.size != arch.vocab_size:
        raise VocabMismatch(
            f"arch expects {arch.vocab_size} names, vocabulary has {vocab.size}")

    w = obj["weights"]
    if not isinstance(w, dict):
        raise GraphFormatError("weights must be an object")
    sage_w_list = w.get("sage_W") or []
    sage_b_list = w.get("sage_b") or []
    if not isinstance(sage_w_list, list) or not isinstance(sage_b_list, list):
        raise GraphFormatError("sage_W and sage_b must be arrays of per-layer tensors")
    if len(sage_w_list) != arch.num_sage_layers or len(sage_b_list) != arch.num_sage_layers:
        raise ShapeMismatch(
            f"expected {arch.num_sage_layers} sage layers, found "
            f"{len(sage_w_list)} weight / {len(sage_b_list)} bias tensors")
    flat = dict(w, **{f"sage_W.{k}": x for k, x in enumerate(sage_w_list)},
                **{f"sage_b.{k}": x for k, x in enumerate(sage_b_list)})
    return _params(arch, {name: _tensor(flat.get(name), name, shape)
                          for name, shape in _expected_shapes(arch).items()}), vocab


def save_model(params: ModelParams, vocab: OpVocabulary, path):
    write_file(path, model_to_json(params, vocab))


def load_model(path):
    return read_file(path, model_from_json)
