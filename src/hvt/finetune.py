"""Supervised fine-tuning: combined objective, batch mixing, loop, TTA.

The objective is a fixed blend of soft-target cross-entropy and focal loss
computed on softmax probabilities (focal handles soft targets by linearity
in the target weights). Batch mixing rolls CutMix first and falls back to
MixUp, so at most one of the two fires per batch.

Loop structure: the backbone is frozen for the first ``freeze_epochs``
epochs (head-only training), then everything trains under a piecewise-
linear one-cycle schedule with per-parameter layer-wise decay factors. An
EMA shadow updates every optimizer step; validation runs each epoch with
both raw and EMA weights, and the best raw-accuracy epoch (earliest on
ties) is retained.

Randomness is split into purpose-keyed child streams (shuffle, per-sample
augmentation, batch mixing, stochastic depth), so disabling one stage
never shifts the draws of another. A micro-batch's augmentation and mixing
are one job, :func:`finetune_batch`, that the step driver runs in its
batch worker or in this process with the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .augment import (TTA_CROP_RATIO, FinetunePolicy, finetune_augment,
                      five_crop, hflip, map_augment)
from .data import save_checkpoint, write_csv
from .errors import ConfigError, InputError
from .model import forward
from .model import normalize_images  # noqa: F401 (a binding perfbench/tracer.py wraps)
from .optim import (AdamWState, EmaState, FreezeMask, adamw_step,
                    clip_grad_norm, ema_update, ema_weights, expand_lr_factors,
                    layerwise_lr_factors, onecycle_lr, run_steps, steps_per_epoch)
from .tensor import Tensor

PROB_EPS = 1e-12


def to_onehot(labels, classes):
    labels = np.asarray(labels)
    if labels.ndim == 2:
        return labels.astype(np.float64)
    if labels.min() < 0 or labels.max() >= classes:
        raise InputError(f"label outside [0, {classes})")
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _targets_tensor(targets, classes, dtype):
    y = to_onehot(targets, classes)
    if np.abs(y.sum(axis=1) - 1.0).max() > 1e-6:
        raise InputError("soft targets must sum to 1 per sample")
    return Tensor(y.astype(dtype))


def cross_entropy(probs, targets):
    """Soft-target cross entropy over probability rows."""
    y = _targets_tensor(targets, probs.shape[-1], probs.dtype)
    logp = T.log(T.clamp_min(probs, PROB_EPS))
    return T.scale(T.reduce(logp * y, "sum", axis=1).mean(), -1.0)


def focal_loss(probs, targets, alpha=None, gamma=2.0):
    """Class-weighted focal loss on probabilities.

    ``alpha`` is a scalar or per-class vector of weights (default 1/C);
    ``gamma`` is the focusing exponent. Probabilities at supported targets
    are clamped at 1e-12 before the log.
    """
    if gamma < 0:
        raise ConfigError(f"gamma {gamma} must be >= 0")
    classes = probs.shape[-1]
    rows = probs.numpy().sum(axis=-1)
    if np.abs(rows - 1.0).max() > 1e-3:
        raise InputError("focal_loss expects probability rows summing to 1")
    if alpha is None:
        alpha = 1.0 / classes
    alpha_vec = np.broadcast_to(np.asarray(alpha, dtype=probs.dtype.type), (classes,))
    y = _targets_tensor(targets, classes, probs.dtype)
    logp = T.log(T.clamp_min(probs, PROB_EPS))
    focus = T.power(T.scale(probs, -1.0) + 1.0, gamma)  # (1 - p)^gamma
    weighted = focus * logp * y * Tensor(alpha_vec.copy())
    return T.scale(T.reduce(weighted, "sum", axis=1).mean(), -1.0)


def combined_loss(logits, targets, lambda_ce=0.7, lambda_focal=0.3,
                  alpha=None, gamma=2.0):
    """0.7 * CE + 0.3 * focal on softmaxed logits (weights configurable)."""
    if logits.ndim == 1:
        logits = T.reshape(logits, (1,) + logits.shape)
    probs = T.softmax(logits, axis=-1)
    ce = cross_entropy(probs, targets)
    fl = focal_loss(probs, targets, alpha=alpha, gamma=gamma)
    return T.scale(ce, lambda_ce) + T.scale(fl, lambda_focal)


# ----------------------------------------------------------------------
# batch mixing

@dataclass
class CutMixMask:
    """Keep-mask of one axis-aligned rectangle cut; 1 = original pixel."""

    mask: np.ndarray          # (H, W) float, values in {0, 1}
    area_fraction: float      # fraction of ones


def mix_batch(images, labels, lam, perm):
    """Convex image/label blend against a permuted partner batch."""
    lam = float(lam)
    mixed_x = lam * images + (1.0 - lam) * images[perm]
    mixed_y = lam * labels + (1.0 - lam) * labels[perm]
    return mixed_x.astype(images.dtype), mixed_y


def mixup(images, labels, alpha=0.2, p=0.2, rng=None):
    """With probability p, blend the batch with a shuffled copy.

    Labels must already be soft ``(B, C)``. Returns (images, labels, lam)
    with lam None when the batch passes through untouched.
    """
    if len(images) < 2:
        raise InputError("mixup needs a batch of at least 2")
    if rng.random() >= p:
        return images, labels, None
    lam = rng.beta(alpha, alpha)
    perm = rng.permutation(len(images))
    x, y = mix_batch(images, labels, lam, perm)
    return x, y, lam


def cutmix_apply(images, labels, lam, center, perm):
    """Paste a partner rectangle of area (1-lam)*H*W centered at ``center``
    (clipped at the borders); labels mix by the realized kept fraction."""
    h, w = images.shape[1:3]
    cut = math.sqrt(max(0.0, 1.0 - float(lam)))
    ch, cw = int(round(h * cut)), int(round(w * cut))
    cy, cx = center
    y0, y1 = np.clip([cy - ch // 2, cy - ch // 2 + ch], 0, h)
    x0, x1 = np.clip([cx - cw // 2, cx - cw // 2 + cw], 0, w)
    mask = np.ones((h, w), dtype=images.dtype)
    mask[y0:y1, x0:x1] = 0.0
    kept = float(mask.mean())
    mixed_x = images * mask[None, :, :, None] + images[perm] * (1.0 - mask)[None, :, :, None]
    mixed_y = kept * labels + (1.0 - kept) * labels[perm]
    return mixed_x.astype(images.dtype), mixed_y, CutMixMask(mask, kept)


def cutmix(images, labels, alpha=1.0, p=0.5, rng=None):
    """With probability p, swap one random rectangle with a partner batch."""
    if len(images) < 2:
        raise InputError("cutmix needs a batch of at least 2")
    if rng.random() >= p:
        return images, labels, None
    lam = rng.beta(alpha, alpha)
    h, w = images.shape[1:3]
    center = (int(rng.integers(0, h)), int(rng.integers(0, w)))
    perm = rng.permutation(len(images))
    return cutmix_apply(images, labels, lam, center, perm)


def apply_batch_mixing(images, labels, rng, mixup_p=0.2, mixup_alpha=0.2,
                       cutmix_p=0.5, cutmix_alpha=1.0):
    """CutMix first; if it does not fire, try MixUp. Mutually exclusive."""
    x, y, cm = cutmix(images, labels, cutmix_alpha, cutmix_p, rng)
    if cm is not None:
        return x, y
    x, y, _ = mixup(images, labels, mixup_alpha, mixup_p, rng)
    return x, y


# ----------------------------------------------------------------------
# loop

@dataclass(frozen=True)
class FinetuneSettings:
    epochs: int = 100
    batch_size: int = 16
    accum_steps: int = 2          # "effective batch" = batch * accum
    lr_max: float = 0.1
    lr_min: float = 1e-5
    warmup_frac: float = 0.1      # one-cycle rise, fraction of epochs
    weight_decay: float = 1e-4
    clip_norm: float = 5.0
    layer_decay: float = 0.65
    freeze_epochs: int = 5
    ema_decay: float = 0.9999
    gamma: float = 2.0
    lambda_ce: float = 0.7
    lambda_focal: float = 0.3
    mixup_p: float = 0.2
    mixup_alpha: float = 0.2
    cutmix_p: float = 0.5
    cutmix_alpha: float = 1.0
    # per-image crop/flip/rotation/jitter; None trains on the images as given
    policy: FinetunePolicy | None = field(default_factory=FinetunePolicy)
    max_steps: int = 0            # 0 = run all epochs


@dataclass
class FinetuneResult:
    params: dict
    best_params: dict     # raw arrays of the best-validation epoch
    best_epoch: int
    best_val_acc: float
    ema: EmaState
    log: list             # rows: {epoch, lr, train_loss, val_acc, val_acc_ema,
                          #        grad_norm_max, clipped_frac}
    checkpoints: list
    augment: str          # "worker" or "inline": where micro-batches were made


PREDICT_BATCH = 64  # images per no-graph forward


def predict_logits(images, params, config, batch=PREDICT_BATCH):
    """Logits for an array of images with pixels in [0, 1], ``batch`` images
    per forward, no graph."""
    if batch < 1:
        raise ConfigError(f"eval batch_size {batch} must be at least 1")
    with T.no_grad():
        out = [forward(images[start:start + batch], params, config).logits.numpy()
               for start in range(0, len(images), batch)]
    return np.concatenate(out, axis=0)


def predict_proba(images, params, config, batch=PREDICT_BATCH):
    """Softmax probabilities for an array of images with pixels in [0, 1],
    batched, no graph."""
    return T.softmax(Tensor(predict_logits(images, params, config, batch)),
                     axis=-1).numpy()


def _accuracy(params, config, images, labels):
    return float(np.mean(np.argmax(predict_proba(images, params, config), axis=1) == labels))


def finetune_batch(images, labels, settings, rngs, mix_rng, classes, out_size):
    """One micro-batch's training images and soft targets: each image
    augmented from its own stream in ``rngs`` (unless the policy is None),
    then the batch mixed from ``mix_rng``. The step driver's job for
    fine-tuning."""
    if settings.policy is not None:
        images = np.stack(map_augment(
            lambda i: finetune_augment(images[i], settings.policy, rngs[i],
                                       out_size=out_size),
            range(len(images))))
    targets = to_onehot(labels, classes)
    if len(images) >= 2:
        images, targets = apply_batch_mixing(
            images, targets, mix_rng, settings.mixup_p, settings.mixup_alpha,
            settings.cutmix_p, settings.cutmix_alpha)
    return images, targets


def finetune_loop(params, train, val, config, settings, rng, out_dir=None,
                  progress=None):
    """Supervised training over labeled containers; see module docstring.
    ``progress(row)``, if given, sees each epoch's log row when it is
    logged."""
    if len(train) == 0 or len(val) == 0:
        raise InputError("finetune_loop needs non-empty train and val splits")
    classes = config.num_classes
    for split in (train, val):
        if split.labels.min() < 0 or split.labels.max() >= classes:
            raise InputError(f"labels outside [0, {classes})")
    n = len(train)
    opt = AdamWState.init(params, weight_decay=settings.weight_decay)
    ema = EmaState.init(params, decay=settings.ema_decay)
    factors = expand_lr_factors(layerwise_lr_factors(config, settings.layer_decay), params)
    backbone_frozen = FreezeMask.backbone(params)
    per_epoch = steps_per_epoch(n, settings)
    total_epochs = settings.epochs
    warmup = settings.warmup_frac * total_epochs
    logs, paths = [], []
    best_acc, best_epoch, best_arrays = -1.0, -1, None
    lr_t = 0.0
    norms = []  # this epoch's pre-clip gradient norms

    def make_batch(epoch, start, idx):
        rngs = ([rng.child("aug", epoch, int(k)) for k in idx]
                if settings.policy is not None else None)
        return functools.partial(finetune_batch, train.images[idx], train.labels[idx],
                                 settings, rngs, rng.child("mix", epoch, start),
                                 classes, config.input_size)

    def batch_loss(epoch, start, batch):
        imgs, targets = batch
        res = forward(imgs, params, config, mode="train",
                      rng=rng.child("droppath", epoch, start))
        return combined_loss(res.logits, targets,
                             lambda_ce=settings.lambda_ce,
                             lambda_focal=settings.lambda_focal,
                             gamma=settings.gamma)

    def apply_step(grads, step, losses):
        nonlocal lr_t
        grads, norm = clip_grad_norm(grads, settings.clip_norm)
        norms.append(norm)
        t = min(step / per_epoch, float(total_epochs))
        lr_t = onecycle_lr(t, warmup, total_epochs, settings.lr_max, settings.lr_min)
        frozen = step < settings.freeze_epochs * per_epoch
        adamw_step(params, grads, opt, lr_t, lr_factors=factors,
                   freeze=backbone_frozen if frozen else None)
        ema_update(ema, params)

    def end_epoch(epoch, losses):
        nonlocal best_acc, best_epoch, best_arrays
        val_acc = _accuracy(params, config, val.images, val.labels)
        with ema_weights(ema, params):
            val_acc_ema = _accuracy(params, config, val.images, val.labels)
        logs.append({"epoch": epoch + 1, "lr": float(lr_t),
                     "train_loss": float(np.mean(losses)),
                     "val_acc": val_acc, "val_acc_ema": val_acc_ema,
                     "grad_norm_max": max(norms),
                     "clipped_frac": sum(n > settings.clip_norm for n in norms) / len(norms)})
        norms.clear()
        if progress is not None:
            progress(logs[-1])
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch + 1
            best_arrays = {k: t.data.copy() for k, t in params.items()}

    _, augment = run_steps(params, n, settings, rng, make_batch, batch_loss,
                           apply_step, end_epoch)
    if out_dir:
        write_csv(f"{out_dir}/finetune_log.csv", logs,
                  ("epoch", "lr", "train_loss", "val_acc", "val_acc_ema"))
        paths.append(save_checkpoint(
            f"{out_dir}/finetune_best.ckpt", best_arrays, config,
            {"phase": "finetune", "best_epoch": best_epoch,
             "best_val_acc": best_acc}))
        paths.append(save_checkpoint(
            f"{out_dir}/finetune_final.ckpt", params, config,
            {"phase": "finetune", "epochs_run": len(logs)}))
    return FinetuneResult(params, best_arrays, best_epoch, best_acc, ema,
                          logs, paths, augment)


# ----------------------------------------------------------------------
# test-time augmentation

def tta_inputs(image, crop_ratio=TTA_CROP_RATIO):
    """The ten TTA variants: five crops, then their horizontal flips."""
    crops = five_crop(np.asarray(image, dtype=np.float32), crop_ratio)
    return crops + [hflip(c) for c in crops]


def tta_predict(image, params, config, crop_ratio=TTA_CROP_RATIO):
    """Average softmax output over the ten TTA variants of one image."""
    variants = np.stack(tta_inputs(image, crop_ratio))
    return predict_proba(variants, params, config).mean(axis=0)
