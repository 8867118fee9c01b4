"""Contrastive pre-training: two-view batches, NT-Xent, training loop.

The loss follows the normalized temperature-scaled cross entropy: for each
of the 2B embeddings, the positive is its sibling view; the denominator
runs over every other embedding in the micro-batch (negatives never cross
gradient-accumulation boundaries). Embeddings are L2-normalized inside the
loss so temperature-scaled similarities stay bounded.

Reproducibility: every random decision derives from the master stream via
purpose-plus-index child keys (shuffle/(epoch), augment/(epoch, sample),
droppath/(epoch, offset)), so results are independent of how augmentation
work is scheduled: a micro-batch's views are one job,
:func:`simclr_batch`, that the step driver runs in its batch worker or in
this process with the same bits (the tests compare both byte for byte).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .augment import SimclrPolicy, map_augment, simclr_augment
from .data import save_checkpoint, write_csv
from .errors import ConfigError, ContractError, InputError
from .model import forward
from .model import normalize_images  # noqa: F401 (a binding perfbench/tracer.py wraps)
from .optim import (AdamWState, adamw_step, clip_grad_norm, run_steps,
                    steps_per_epoch, warmup_cosine_lr)
from .tensor import Tensor


def cosine_sim(u, v):
    """u.v / (|u||v|), a scalar in [-1, 1]; zero vectors are rejected."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ContractError("cosine similarity of a zero vector")
    return float(u @ v / (nu * nv))


def l2_normalize(emb):
    """Row-normalize embeddings inside the graph."""
    sq = T.reduce(emb * emb, "sum", axis=1, keepdims=True)
    norm = T.sqrt(T.clamp_min(sq, 1e-24))
    return emb / T.broadcast_to(norm, emb.shape)


def default_pairing(n):
    """Views laid out as [a_0..a_{B-1}, b_0..b_{B-1}]: partner is i +- B."""
    b = n // 2
    return np.concatenate([np.arange(b) + b, np.arange(b)])


def nt_xent_loss(embeddings, pairing=None, temperature=0.5):
    """Contrastive loss over ``(2B, d)`` embeddings, gradient-capable.

    Each row i contributes -log( exp(s_ij/t) / sum_{k != i} exp(s_ik/t) )
    with j its positive partner; the mean is over all 2B rows. With B=1
    the denominator collapses to the positive and the loss is exactly 0.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature {temperature} must be positive")
    emb = embeddings if isinstance(embeddings, Tensor) else Tensor(embeddings)
    n = emb.shape[0]
    if emb.ndim != 2 or n < 2 or n % 2:
        raise InputError(f"need an even number >= 2 of embeddings, got shape {emb.shape}")
    if pairing is None:
        pairing = default_pairing(n)
    pairing = np.asarray(pairing, dtype=np.int64)
    if pairing.shape != (n,) or np.any(pairing == np.arange(n)) \
            or not np.array_equal(pairing[pairing], np.arange(n)):
        raise InputError("pairing must be a fixed-point-free involution")
    z = l2_normalize(emb)
    sims = T.scale(T.matmul(z, T.permute(z, (1, 0))), 1.0 / temperature)
    dt = emb.dtype.type
    self_mask = Tensor(np.where(np.eye(n, dtype=bool), dt(-1e9), dt(0.0)))
    masked = sims + self_mask
    row_max = T.reduce(masked, "max", axis=1, keepdims=True)
    shifted = masked - T.broadcast_to(row_max, masked.shape)
    lse = T.log(T.reduce(T.exp(shifted), "sum", axis=1, keepdims=True)) + row_max
    onehot = np.zeros((n, n), dtype=emb.dtype)
    onehot[np.arange(n), pairing] = 1.0
    pos = T.reduce(sims * Tensor(onehot), "sum", axis=1, keepdims=True)
    return T.reduce(lse - pos, "mean")


# ----------------------------------------------------------------------
# projection head

def init_projection_head(d_in, rng, hidden=0, out_dim=128, dtype=np.float32):
    """Two-layer MLP head; hidden width defaults to the input width."""
    hidden = hidden or d_in
    r = rng.child("proj-init")
    return {
        "proj.w1": Tensor(r.truncated_normal((d_in, hidden), std=0.02).astype(dtype),
                          requires_grad=True),
        "proj.b1": Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True),
        "proj.w2": Tensor(r.truncated_normal((hidden, out_dim), std=0.02).astype(dtype),
                          requires_grad=True),
        "proj.b2": Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True),
    }


def project(features, head):
    """Map backbone features to contrastive embeddings (GELU between layers)."""
    h = T.gelu(T.matmul(features, head["proj.w1"], head["proj.b1"]))
    return T.matmul(h, head["proj.w2"], head["proj.b2"])


# ----------------------------------------------------------------------
# pre-training loop

@dataclass(frozen=True)
class PretrainSettings:
    epochs: int = 80
    batch_size: int = 32
    accum_steps: int = 2
    lr: float = 5e-4
    weight_decay: float = 0.05
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    clip_norm: float = 1.0
    warmup_epochs: float = 10.0
    temperature: float = 0.5
    proj_dim: int = 128
    proj_hidden: int = 0
    policy: SimclrPolicy = field(default_factory=SimclrPolicy)
    max_steps: int = 0        # 0 = run all epochs
    checkpoint_every: int = 0  # optimizer steps; 0 = final only


@dataclass
class PretrainResult:
    params: dict
    head: dict
    log: list            # rows: {step, epoch, lr, loss}
    checkpoints: list    # paths written (empty without out_dir)
    augment: str         # "worker" or "inline": where micro-batches were made


def simclr_batch(images, policy, rngs, out_size):
    """One micro-batch's views, ``[a_0..a_{B-1}, b_0..b_{B-1}]``; image i's
    pair is drawn from ``rngs[i]``. The step driver's job for pre-training."""
    pairs = map_augment(
        lambda i: simclr_augment(images[i], policy, rngs[i], out_size=out_size),
        range(len(images)))
    return np.stack([p.view_a for p in pairs] + [p.view_b for p in pairs])


def pretrain_loop(params, head, images, config, settings, rng, out_dir=None,
                  progress=None):
    """SimCLR pre-training over an unlabeled image array ``(N, H, W, 3)``.

    Mutates ``params``/``head`` in place and returns a
    :class:`PretrainResult`. Fully deterministic under ``rng``; when
    ``out_dir`` is given, writes ``pretrain_log.csv`` and checkpoints.
    ``progress(row)``, if given, sees each log row when its step ends.
    """
    n = len(images)
    if n == 0:
        raise InputError("pretrain_loop needs a non-empty unlabeled set")
    if settings.warmup_epochs >= settings.epochs:
        raise ConfigError(
            f"warmup_epochs={settings.warmup_epochs} must be shorter than "
            f"epochs={settings.epochs}")
    merged = {**params, **head}
    opt = AdamWState.init(merged, betas=settings.betas, eps=settings.eps,
                          weight_decay=settings.weight_decay)
    per_epoch = steps_per_epoch(n, settings)
    logs, paths = [], []

    def make_batch(epoch, start, idx):
        return functools.partial(simclr_batch, images[idx], settings.policy,
                                 [rng.child("aug", epoch, int(k)) for k in idx],
                                 config.input_size)

    def batch_loss(epoch, start, views):
        res = forward(views, params, config, mode="train",
                      rng=rng.child("droppath", epoch, start))
        emb = project(res.features, head)
        return nt_xent_loss(emb, temperature=settings.temperature)

    def apply_step(grads, step, losses):
        grads, _ = clip_grad_norm(grads, settings.clip_norm)
        lr_t = warmup_cosine_lr(min(step / per_epoch, settings.epochs),
                                settings.warmup_epochs, settings.epochs, settings.lr)
        adamw_step(merged, grads, opt, lr_t)
        taken = step + 1
        logs.append({"step": taken, "epoch": round(taken / per_epoch, 6),
                     "lr": float(lr_t), "loss": float(np.mean(losses))})
        if progress is not None:
            progress(logs[-1])
        if out_dir and settings.checkpoint_every and taken % settings.checkpoint_every == 0:
            paths.append(save_checkpoint(f"{out_dir}/pretrain_step{taken:06d}.ckpt", merged,
                                         config, {"phase": "pretrain", "step": taken}))

    step, augment = run_steps(merged, n, settings, rng, make_batch, batch_loss,
                              apply_step)
    if out_dir:
        write_csv(f"{out_dir}/pretrain_log.csv", logs, ("step", "epoch", "lr", "loss"))
        paths.append(save_checkpoint(f"{out_dir}/pretrain_final.ckpt", merged,
                                     config, {"phase": "pretrain", "step": step}))
    return PretrainResult(params, head, logs, paths, augment)


# ----------------------------------------------------------------------
# linear probe (frozen-feature evaluation)

def linear_probe(train_x, train_y, eval_x, eval_y, classes, steps=400, lr=0.05):
    """Multinomial logistic regression on frozen features.

    Features are standardized with train statistics; the zero-initialized
    softmax regression is trained full-batch with Adam. Returns accuracy
    on the eval split.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    eval_x = np.asarray(eval_x, dtype=np.float64)
    mu = train_x.mean(axis=0)
    sd = train_x.std(axis=0) + 1e-8
    train_x = (train_x - mu) / sd
    eval_x = (eval_x - mu) / sd
    n, d = train_x.shape
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), np.asarray(train_y, dtype=int)] = 1.0
    w = Tensor(np.zeros((d, classes)), requires_grad=True, dtype=np.float64)
    b = Tensor(np.zeros(classes), requires_grad=True, dtype=np.float64)
    params = {"w": w, "b": b}
    opt = AdamWState.init(params, weight_decay=0.0)
    x_t = Tensor(train_x, dtype=np.float64)
    y_t = Tensor(onehot, dtype=np.float64)
    for _ in range(steps):
        logits = T.matmul(x_t, w, b)
        logp = T.log(T.clamp_min(T.softmax(logits, axis=1), 1e-12))
        loss = T.scale(T.reduce(logp * y_t, "sum", axis=1).mean(), -1.0)
        loss.backward()
        adamw_step(params, {k: p.grad for k, p in params.items()}, opt, lr)
    pred = np.argmax(eval_x @ w.numpy() + b.numpy(), axis=1)
    return float(np.mean(pred == np.asarray(eval_y)))
