"""Hierarchical vision transformer backbone.

Four stages of pre-norm transformer blocks over a patch-token grid, with
2x2 patch merging between stages (token count /4, channels x2), stochastic
depth inside every residual branch, a learned additive positional embedding
on the stage-1 grid, and a GAP + linear classification head.

Parameters are a flat ``{name: Tensor}`` dict so optimizers, EMA, freezing
and checkpoints can treat the model as pure data. All model functions are
pure: they take params explicitly and never mutate them.

Conventions pinned here:

* Input images are channels-last float arrays, a single ``(H, W, 3)`` image
  or a batch ``(B, H, W, 3)``. Pixels are data, not graph leaves.
* Pixels lie in [0, 1]. ``patch_embed`` standardizes them per channel with
  ``HVTConfig.norm_mean`` and ``norm_std`` where they enter the graph, so
  every caller of ``forward`` passes raw pixels; checkpoints carry both stats.
* Attention uses a learned output projection after head concatenation
  (disable with ``HVTConfig.use_output_proj=False``; this changes parameter
  counts).
* Every linear layer carries a bias except the patch-merge projection,
  which is weight-only.
* Patch merging gathers the 2x2 neighborhood in the order
  (row-even/col-even, row-even/col-odd, row-odd/col-even, row-odd/col-odd).
* Stochastic depth assigns block ``i`` (1-indexed globally across stages)
  the rate ``drop_path_max * i / total_blocks``, so the final block gets
  exactly ``drop_path_max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class HVTConfig:
    """Architecture hyperparameters; see module docstring for conventions."""

    input_size: tuple = (448, 448)       # (rows, cols), pixels
    patch_size: int = 14                 # pixels per patch side
    depths: tuple = (3, 6, 24, 3)        # blocks per stage
    dims: tuple = (192, 384, 768, 1536)
    heads: tuple = (6, 12, 24, 48)
    ffn_ratio: int = 4
    drop_path_max: float = 0.3           # final-block stochastic-depth rate
    num_classes: int = 7
    use_output_proj: bool = True
    norm_mean: tuple = (0.5, 0.5, 0.5)   # input standardization per channel
    norm_std: tuple = (0.25, 0.25, 0.25)

    def __post_init__(self):
        for name in ("input_size", "depths", "dims", "heads"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        for name, low in (("norm_mean", -np.inf), ("norm_std", 0.0)):
            try:
                stat = np.array(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError):
                stat = np.array(())
            if stat.shape != (3,) or not (np.isfinite(stat) & (stat > low)).all():
                raise ConfigError(f"{name} must be three finite numbers, one per channel "
                                  f"(norm_std above 0), got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(stat.tolist()))
        h, w = self.input_size
        s = len(self.depths)
        if not (len(self.dims) == len(self.heads) == s) or s < 1:
            raise ConfigError("depths, dims and heads must have equal nonzero length")
        for name in ("input_size", "patch_size", "ffn_ratio", "depths", "dims", "heads"):
            if np.min(getattr(self, name)) < 1:  # every entry, before any division
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if h % self.patch_size or w % self.patch_size:
            raise ConfigError(f"input {self.input_size} not divisible by patch size {self.patch_size}")
        gh, gw = h // self.patch_size, w // self.patch_size
        for _ in range(s - 1):
            if gh % 2 or gw % 2:
                raise ConfigError(f"token grid {gh}x{gw} not divisible by 2 at a merge")
            gh, gw = gh // 2, gw // 2
        for d, nh in zip(self.dims, self.heads):
            if d % nh:
                raise ConfigError(f"dim {d} not divisible by heads {nh}")
        for a, b in zip(self.dims, self.dims[1:]):
            if b != 2 * a:
                raise ConfigError(f"dims must double per stage, got {a} -> {b}")
        if not 0.0 <= self.drop_path_max < 1.0:
            raise ConfigError("drop_path_max must lie in [0, 1)")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")

    @property
    def n_stages(self):
        return len(self.depths)

    @property
    def total_blocks(self):
        return sum(self.depths)

    def grid(self, stage):
        """Token grid (rows, cols) at 0-based ``stage``."""
        h, w = self.input_size
        f = self.patch_size * (2 ** stage)
        return h // f, w // f

    def tokens(self, stage):
        gh, gw = self.grid(stage)
        return gh * gw

    # ------------------------------------------------------------------
    # presets (tiny/desk sized for CPU experiments)

    @classmethod
    def xl(cls, **kw):
        return cls(**kw)

    @classmethod
    def tiny(cls, **kw):
        kw.setdefault("input_size", (64, 64))
        kw.setdefault("patch_size", 8)
        kw.setdefault("depths", (1, 1, 1, 1))
        kw.setdefault("dims", (8, 16, 32, 64))
        kw.setdefault("heads", (1, 2, 4, 8))
        kw.setdefault("drop_path_max", 0.1)
        return cls(**kw)

    @classmethod
    def desk(cls, **kw):
        kw.setdefault("input_size", (64, 64))
        kw.setdefault("patch_size", 8)
        kw.setdefault("depths", (1, 1, 2, 1))
        kw.setdefault("dims", (16, 32, 64, 128))
        kw.setdefault("heads", (2, 4, 8, 16))
        kw.setdefault("drop_path_max", 0.1)
        return cls(**kw)


@dataclass
class AttentionRecord:
    """Attention probabilities captured per block, plus grid metadata.

    ``blocks`` holds one ``(heads, N, N)`` array per captured block (batch
    axis present as ``(B, heads, N, N)`` when the forward was batched).
    """

    blocks: list = field(default_factory=list)
    stage_ids: list = field(default_factory=list)
    grid: tuple = (0, 0)
    image_size: tuple = (0, 0)

    def __len__(self):
        return len(self.blocks)


@dataclass
class ForwardResult:
    logits: Tensor
    stages: list
    features: Tensor
    record: AttentionRecord | None = None


# ----------------------------------------------------------------------
# parameters

def param_shapes(config):
    """Ordered {name: shape} of every parameter the config implies."""
    if not isinstance(config, HVTConfig):
        raise ConfigError("param_shapes expects an HVTConfig")
    p = config.patch_size
    d1 = config.dims[0]
    shapes = {"patch_embed.w": (p * p * 3, d1),
              "patch_embed.b": (d1,),
              "pos_embed": (config.tokens(0), d1)}
    for s, (depth, dim) in enumerate(zip(config.depths, config.dims)):
        for i in range(depth):
            pre = f"stages.{s}.blocks.{i}."
            shapes[pre + "ln1.gain"] = (dim,)
            shapes[pre + "ln1.bias"] = (dim,)
            for proj in ("wq", "wk", "wv"):
                shapes[pre + "attn." + proj] = (dim, dim)
            for proj in ("bq", "bk", "bv"):
                shapes[pre + "attn." + proj] = (dim,)
            if config.use_output_proj:
                shapes[pre + "attn.wo"] = (dim, dim)
                shapes[pre + "attn.bo"] = (dim,)
            shapes[pre + "ln2.gain"] = (dim,)
            shapes[pre + "ln2.bias"] = (dim,)
            hidden = config.ffn_ratio * dim
            shapes[pre + "ffn.w1"] = (dim, hidden)
            shapes[pre + "ffn.b1"] = (hidden,)
            shapes[pre + "ffn.w2"] = (hidden, dim)
            shapes[pre + "ffn.b2"] = (dim,)
        if s < config.n_stages - 1:
            shapes[f"merges.{s}.w"] = (4 * dim, config.dims[s + 1])
    shapes["head.w"] = (config.dims[-1], config.num_classes)
    shapes["head.b"] = (config.num_classes,)
    return shapes


def init_params(config, rng, dtype=np.float32):
    """Fresh parameter set: truncated-normal(0.02) weights, zero biases,
    LayerNorm gain 1 / bias 0. Deterministic under ``rng``."""
    r = rng.child("init")
    params = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            data = np.ones(shape, dtype=dtype)
        elif leaf.startswith("b"):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = r.truncated_normal(shape, std=0.02).astype(dtype, copy=False)
        params[name] = Tensor(data, requires_grad=True)
    return params


def count_params(params):
    """Total number of scalar parameter values."""
    return int(sum(t.size for t in params.values()))


def _sub(params, prefix):
    cut = len(prefix)
    return {k[cut:]: v for k, v in params.items() if k.startswith(prefix)}


# ----------------------------------------------------------------------
# ops

def normalize_images(images, mean, std):
    """Per-channel standardization, ``(images - mean) / std`` as float32."""
    images = np.asarray(images)
    w, c = images.shape[-2:]
    # on (..., W*C) rows with the stats tiled to match: broadcasting a
    # length-C axis runs numpy's inner loop C elements at a time
    mean = np.broadcast_to(np.asarray(mean, dtype=np.float32), (w, c)).reshape(-1)
    std = np.broadcast_to(np.asarray(std, dtype=np.float32), (w, c)).reshape(-1)
    rows = images.reshape(*images.shape[:-2], w * c)
    return ((rows - mean) / std).astype(np.float32, copy=False).reshape(images.shape)


def patch_embed(images, params, config):
    """Standardize pixels in [0, 1] with the config's stats, then project
    non-overlapping PxPx3 patches to stage-1 tokens.

    Accepts ``(H, W, 3)`` or ``(B, H, W, 3)``; returns ``(N, D1)`` or
    ``(B, N, D1)``. Pixels enter the graph as constants.
    """
    arr = images.data if isinstance(images, Tensor) else np.asarray(images)
    single = arr.ndim == 3
    if single:
        arr = arr[None]
    h, w = config.input_size
    if arr.ndim != 4 or arr.shape[1:] != (h, w, 3):
        raise ShapeError(f"expected image shape (B, {h}, {w}, 3), got {arr.shape}")
    arr = normalize_images(arr, config.norm_mean, config.norm_std)
    p = config.patch_size
    gh, gw = h // p, w // p
    b = arr.shape[0]
    patches = (arr.reshape(b, gh, p, gw, p, 3)
               .transpose(0, 1, 3, 2, 4, 5)
               .reshape(b, gh * gw, p * p * 3))
    wmat = params["patch_embed.w"]
    tokens = T.matmul(Tensor(patches.astype(wmat.dtype, copy=False)), wmat,
                      params["patch_embed.b"])
    return tokens[0] if single else tokens


def mha(x, p, heads):
    """Multi-head self-attention with scaled dot-product weights.

    ``p`` maps {wq,bq,wk,bk,wv,bv[,wo,bo]} to tensors. Returns the output
    tokens and the attention probabilities ``(B, heads, N, N)`` (leading
    batch axis dropped for unbatched input). The probabilities are the
    softmax node's own array, not a copy: treat them as read-only.
    """
    single = x.ndim == 2
    if single:
        x = T.reshape(x, (1,) + x.shape)
    b, n, d = x.shape
    if d % heads:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads

    def split(t):  # (B, N, D) -> (B, heads, N, dh)
        return T.permute(T.reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

    q = split(T.matmul(x, p["wq"], p["bq"]))
    k = split(T.matmul(x, p["wk"], p["bk"]))
    v = split(T.matmul(x, p["wv"], p["bv"]))
    logits = T.scale(T.matmul(q, T.permute(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    probs = T.softmax(logits, axis=-1)
    ctx = T.matmul(probs, v)
    out = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (b, n, d))
    if "wo" in p:
        out = T.matmul(out, p["wo"], p["bo"])
    attn = probs.numpy()
    if single:
        return out[0], attn[0]
    return out, attn


def ffn(x, p):
    """Two-layer MLP with GELU: W2 . gelu(W1 x + b1) + b2."""
    return T.matmul(T.gelu(T.matmul(x, p["w1"], p["b1"])), p["w2"], p["b2"])


def drop_path(x, p, mode, rng=None):
    """Stochastic depth on the sample axis (axis 0).

    Inference returns ``x`` unchanged. Training keeps each sample with
    probability 1-p, scaled by 1/(1-p) so the expectation matches the
    inference pass. A 2-d input counts as one sample.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"drop probability {p} outside [0, 1)")
    if mode == "infer" or p == 0.0:
        return x
    if mode != "train":
        raise ConfigError(f"unknown mode {mode!r}")
    if rng is None:
        raise ContractError("train-mode drop_path needs an RngStream")
    keep = 1.0 - p
    n = 1 if x.ndim < 3 else x.shape[0]
    gate = (rng.random(n) < keep).astype(x.dtype.type) / x.dtype.type(keep)
    if x.ndim < 3:
        return T.scale(x, float(gate[0]))
    full = np.broadcast_to(gate.reshape((n,) + (1,) * (x.ndim - 1)), x.shape)
    return x * Tensor(np.ascontiguousarray(full))


def drop_path_schedule(layer, total, p_max):
    """Linear ramp: layer ``l`` of ``total`` gets p_max * l / total."""
    if not 0 <= layer <= total:
        raise ConfigError(f"layer {layer} outside [0, {total}]")
    return p_max * layer / total


def transformer_block(x, p, heads, p_l=0.0, mode="infer", rng=None):
    """Pre-norm block: x + DP(MHA(LN(x))), then + DP(FFN(LN(.)))."""
    attn_out, probs = mha(T.layer_norm(x, p["ln1.gain"], p["ln1.bias"]),
                          _sub(p, "attn."), heads)
    x = x + drop_path(attn_out, p_l, mode, rng)
    ffn_out = ffn(T.layer_norm(x, p["ln2.gain"], p["ln2.bias"]), _sub(p, "ffn."))
    x = x + drop_path(ffn_out, p_l, mode, rng)
    return x, probs


def patch_merge(x, w, grid):
    """Concatenate 2x2 token neighborhoods and project 4D -> 2D channels.

    ``x`` is ``(B, H*W, D)`` (or unbatched) on the ``grid=(H, W)``; both
    extents must be even.
    """
    single = x.ndim == 2
    if single:
        x = T.reshape(x, (1,) + x.shape)
    gh, gw = grid
    b, n, d = x.shape
    if n != gh * gw:
        raise ShapeError(f"{n} tokens do not tile a {gh}x{gw} grid")
    if gh % 2 or gw % 2:
        raise ShapeError(f"grid {gh}x{gw} must be even for 2x2 merging")
    # (row pair, row parity, col pair, col parity): bringing both parities
    # next to the channels lays each 2x2 neighborhood out in merge order
    g = T.reshape(x, (b, gh // 2, 2, gw // 2, 2, d))
    merged = T.reshape(T.permute(g, (0, 1, 3, 2, 4, 5)), (b, n // 4, 4 * d))
    out = T.matmul(merged, w)
    return out[0] if single else out


def forward(images, params, config, mode="infer", rng=None, capture="none"):
    """Run the full backbone and head on pixels in [0, 1].

    ``capture`` selects attention recording: "none", "final" (last stage,
    what rollout consumes) or "all". Returns a :class:`ForwardResult`;
    ``stages`` holds the per-stage token activations before each merge.
    """
    if capture not in ("none", "final", "all"):
        raise ConfigError(f"unknown capture {capture!r}")
    arr = images.data if isinstance(images, Tensor) else np.asarray(images)
    single = arr.ndim == 3
    x = patch_embed(arr if not single else arr[None], params, config)
    x = x + params["pos_embed"]
    record = None
    if capture != "none":
        record = AttentionRecord(grid=config.grid(config.n_stages - 1),
                                 image_size=config.input_size)
    stages = []
    layer = 0
    total = config.total_blocks
    for s in range(config.n_stages):
        for i in range(config.depths[s]):
            layer += 1
            p_l = drop_path_schedule(layer, total, config.drop_path_max)
            x, probs = transformer_block(
                x, _sub(params, f"stages.{s}.blocks.{i}."),
                config.heads[s], p_l, mode, rng)
            if record is not None and (capture == "all" or s == config.n_stages - 1):
                record.blocks.append((probs if not single else probs[0]).copy())
                record.stage_ids.append(s)
        stages.append(x[0] if single else x)
        if s < config.n_stages - 1:
            x = patch_merge(x, params[f"merges.{s}.w"], config.grid(s))
    feats = T.reduce(x, "mean", axis=1)
    logits = T.matmul(feats, params["head.w"], params["head.b"])
    if single:
        return ForwardResult(logits[0], stages, feats[0], record)
    return ForwardResult(logits, stages, feats, record)


def attention_rollout(record):
    """Relevance heatmap from a final-stage attention record.

    Per block: average heads, mix with identity (0.5 A + 0.5 I),
    renormalize rows, and left-multiply onto the running product. Token
    relevance is the column mean of the product; the grid map is
    nearest-neighbor upsampled to the image size and min-max normalized
    to [0, 1] (a constant map normalizes to zeros).

    Returns ``(grid_map, full_map)``.
    """
    rollout = rollout_intermediates(record)[-1]
    n = rollout.shape[0]
    relevance = rollout.mean(axis=0)
    gh, gw = record.grid
    if gh * gw != n:
        raise ContractError(f"record grid {record.grid} does not tile {n} tokens")
    grid_map = relevance.reshape(gh, gw)
    h, w = record.image_size
    full = np.repeat(np.repeat(grid_map, h // gh, axis=0), w // gw, axis=1)
    lo, hi = full.min(), full.max()
    span = hi - lo
    if span < 1e-12:
        return np.zeros_like(grid_map), np.zeros_like(full)
    return (grid_map - lo) / span, (full - lo) / span


def rollout_intermediates(record):
    """Running rollout products after each block; the last one is the
    product :func:`attention_rollout` reads its relevance from."""
    if record is None or len(record) == 0:
        raise ContractError("attention_rollout needs a non-empty record")
    out = []
    n = np.asarray(record.blocks[0]).shape[-1]
    rollout = np.eye(n)
    for probs in record.blocks:
        a = np.asarray(probs, dtype=np.float64)
        if a.ndim == 4:
            if a.shape[0] != 1:
                raise ContractError("rollout expects single-sample attention")
            a = a[0]
        mixed = 0.5 * a.mean(axis=0) + 0.5 * np.eye(n)
        mixed /= mixed.sum(axis=1, keepdims=True)
        rollout = mixed @ rollout
        out.append(rollout)
    return out
