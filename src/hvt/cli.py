"""Command-line pipeline: gen-data, pretrain, finetune, eval, calibrate,
rollout, mcnemar.

All progress goes to stdout as line-oriented ``key=value`` records, each
training step or epoch as it ends; file artifacts (containers,
checkpoints, CSV logs, JSON reports) land in the ``--out`` directory,
written atomically, and never embed timestamps, so identical config and
seed reproduce identical bytes.

Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import RunConfig
from .data import (ImageContainer, atomic_open, generate_synthetic, load_model,
                   stratified_split, write_csv)
from .data import load_checkpoint  # noqa: F401 (a binding perfbench/tracer.py wraps)
from .errors import ConfigError, InputError
from .finetune import finetune_loop, predict_logits, predict_proba, tta_predict
from .metrics import (PredictionSet, apply_temperature, classification_metrics,
                      ece, fit_temperature, mcnemar_test, nll, reliability_bins,
                      temperature_at_bound)
from .model import attention_rollout, forward, init_params
from .model import normalize_images  # noqa: F401 (a binding perfbench/tracer.py wraps)
from .ssl import init_projection_head, pretrain_loop
from .tensor import RngStream, no_grad


class _UsageError(InputError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def emit(**kv):
    parts = []
    for k, v in kv.items():
        if isinstance(v, float):
            v = f"{v:.6g}"
        parts.append(f"{k}={v}")
    print(" ".join(parts), flush=True)


def _run_config(args):
    """The run config and its model config. Every command builds the model
    config, so a bad ``[model]`` section fails even where the model comes
    from a checkpoint."""
    run_cfg = RunConfig.load(args.config) if args.config else RunConfig()
    return run_cfg, run_cfg.model_config()


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _load_container(path, config, labeled=False, any_size=False):
    """A container whose images the model reads: non-empty, finite, (H, W, 3)
    at the model's input size (at any size when ``any_size``: the fine-tuning
    augmentation resamples every view to it), and labeled throughout with
    the model's classes when ``labeled``."""
    data = ImageContainer.load(path)
    if not len(data):
        raise InputError(f"{path}: container holds no images")
    if not np.isfinite(data.images).all():
        raise InputError(f"{path}: container holds non-finite pixels")
    model_input = (*config.input_size, 3)
    if data.image_shape[-1] != 3 or not (any_size or data.image_shape == model_input):
        raise InputError(f"{path}: container images {data.image_shape} do not match "
                         f"model input {model_input}")
    lo, hi = data.labels.min(), data.labels.max()
    if labeled and not 0 <= lo <= hi < config.num_classes:
        raise InputError(f"{path}: labels {lo}..{hi} outside the model's classes "
                         f"[0, {config.num_classes}); -1 marks an unlabeled image")
    return data


def _predictions(params, config, container, run_cfg):
    ev = run_cfg.values["eval"]
    if ev["tta"]:
        probs = np.stack([
            tta_predict(img, params, config, crop_ratio=float(ev["tta_crop_ratio"]))
            for img in container.images])
    else:
        probs = predict_proba(container.images, params, config,
                              batch=int(ev["batch_size"]))
    return PredictionSet.from_probs(container.labels, probs)


# ----------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    _, config = _run_config(args)
    out = _outdir(args)
    labeled, unlabeled = generate_synthetic(
        args.n_per_class, classes=config.num_classes,
        size=config.input_size, seed=args.seed, n_unlabeled=args.n_unlabeled)
    train, val, test = stratified_split(labeled, seed=args.seed)
    for name, cont in (("train", train), ("val", val), ("test", test),
                       ("unlabeled", unlabeled)):
        path = os.path.join(out, f"{name}.hvtimg")
        cont.save(path)
        emit(event="container", split=name, path=path, count=len(cont))
    return 0


def cmd_pretrain(args):
    run_cfg, config = _run_config(args)
    settings = run_cfg.pretrain_settings()
    out = _outdir(args)
    data = _load_container(args.data, config)
    rng = RngStream(args.seed)
    params = init_params(config, rng)
    head = init_projection_head(config.dims[-1], rng,
                                hidden=settings.proj_hidden,
                                out_dim=settings.proj_dim)
    emit(event="pretrain_start", images=len(data), steps=settings.max_steps or "all")
    result = pretrain_loop(params, head, data.images, config, settings,
                           rng.child("pretrain"), out_dir=out,
                           progress=lambda row: emit(event="pretrain_step", **row))
    emit(event="pretrain_done", steps=len(result.log),
         final_loss=result.log[-1]["loss"] if result.log else float("nan"),
         checkpoint=result.checkpoints[-1] if result.checkpoints else "",
         augment=result.augment)
    return 0


def cmd_finetune(args):
    run_cfg, config = _run_config(args)
    settings = run_cfg.finetune_settings()
    out = _outdir(args)
    train = _load_container(args.train, config, labeled=True,
                            any_size=settings.policy is not None)
    val = _load_container(args.val, config, labeled=True)
    rng = RngStream(args.seed)
    if args.init:
        params, _, _ = load_model(args.init, config)
        emit(event="init_loaded", path=args.init, tensors=len(params))
    else:
        params = init_params(config, rng)
    emit(event="finetune_start", train=len(train), val=len(val))
    result = finetune_loop(params, train, val, config, settings,
                           rng.child("finetune"), out_dir=out,
                           progress=lambda row: emit(event="finetune_epoch", **row))
    emit(event="finetune_done", best_epoch=result.best_epoch,
         best_val_acc=result.best_val_acc, augment=result.augment)
    return 0


def cmd_eval(args):
    run_cfg, _ = _run_config(args)
    out = _outdir(args)
    if args.preds:
        preds = PredictionSet.load_csv(args.preds)
    else:
        if not (args.checkpoint and args.data):
            raise _UsageError("eval needs either --preds or --checkpoint with --data")
        params, config, _ = load_model(args.checkpoint)
        container = _load_container(args.data, config, labeled=True)
        preds = _predictions(params, config, container, run_cfg)
    report = classification_metrics(preds)
    bins = int(run_cfg.get("eval", "ece_bins"))
    payload = report.to_dict()
    payload["ece"] = ece(preds, bins=bins)
    rows = reliability_bins(preds, bins=bins).rows()
    # every result is computed before the first file is written
    if not args.preds:
        preds.save_csv(os.path.join(out, "predictions.csv"))
    with atomic_open(os.path.join(out, "metrics.json")) as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2))
    write_csv(os.path.join(out, "reliability_bins.csv"), rows,
              ("bin", "lo", "hi", "count", "mean_confidence", "accuracy"))
    emit(event="eval_done", n=report.n, accuracy=report.accuracy,
         macro_f1=report.macro_f1, ece=payload["ece"])
    return 0


def _logits_for_calibration(args, batch):
    """(val_logits, val_labels, test_logits, test_labels) from either CSVs
    or a checkpoint plus containers, ``batch`` images per forward. CSV
    probabilities enter as log-probs, which shifts logits per row but leaves
    temperature fitting unchanged."""
    if args.val_preds:
        val, test = args.val_preds, args.test_preds

        def logits_of(path):
            preds = PredictionSet.load_csv(path)
            return np.log(np.clip(preds.probs, 1e-12, None)), preds.y_true
    else:
        if not (args.checkpoint and args.val):
            raise _UsageError("calibrate needs --val-preds or --checkpoint with --val")
        val, test = args.val, args.test
        params, config, _ = load_model(args.checkpoint)

        def logits_of(path):
            cont = _load_container(path, config, labeled=True)
            return predict_logits(cont.images, params, config, batch), cont.labels

    return (*logits_of(val), *(logits_of(test) if test else (None, None)))


def cmd_calibrate(args):
    run_cfg, _ = _run_config(args)
    out = _outdir(args)
    val_logits, val_y, test_logits, test_y = _logits_for_calibration(
        args, int(run_cfg.get("eval", "batch_size")))
    bins = int(run_cfg.get("eval", "ece_bins"))
    t_star, degenerate = fit_temperature(val_logits, val_y)
    payload = {
        "temperature": t_star,
        "degenerate": degenerate,
        "at_bound": temperature_at_bound(t_star),
        "val_nll_before": nll(val_logits, val_y, 1.0),
        "val_nll_after": nll(val_logits, val_y, t_star),
        "val_ece_before": ece(PredictionSet.from_probs(
            val_y, apply_temperature(val_logits, 1.0)), bins=bins),
        "val_ece_after": ece(PredictionSet.from_probs(
            val_y, apply_temperature(val_logits, t_star)), bins=bins),
    }
    if test_logits is not None:
        before = PredictionSet.from_probs(test_y, apply_temperature(test_logits, 1.0))
        after = PredictionSet.from_probs(test_y, apply_temperature(test_logits, t_star))
        payload["test_ece_before"] = ece(before, bins=bins)
        payload["test_ece_after"] = ece(after, bins=bins)
        after.save_csv(os.path.join(out, "test_predictions_calibrated.csv"))
    with atomic_open(os.path.join(out, "calibration.json")) as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2))
    emit(event="calibrate_done", temperature=t_star, at_bound=payload["at_bound"],
         val_ece_before=payload["val_ece_before"],
         val_ece_after=payload["val_ece_after"])
    return 0


def cmd_rollout(args):
    _run_config(args)
    out = _outdir(args)
    params, config, _ = load_model(args.checkpoint)
    container = _load_container(args.data, config)
    if not 0 <= args.index < len(container):
        raise InputError(f"--index {args.index} outside container of {len(container)}")
    with no_grad():
        res = forward(container.images[args.index], params, config, capture="final")
    grid_map, full_map = attention_rollout(res.record)
    for name, heatmap in (("rollout_grid.csv", grid_map), ("rollout_full.csv", full_map)):
        with atomic_open(os.path.join(out, name)) as f:
            np.savetxt(f, heatmap, delimiter=",", fmt="%.9g")
    pred = int(np.argmax(res.logits.numpy()))
    emit(event="rollout_done", index=args.index, predicted=pred,
         grid=f"{grid_map.shape[0]}x{grid_map.shape[1]}",
         full=f"{full_map.shape[0]}x{full_map.shape[1]}",
         lo=float(full_map.min()), hi=float(full_map.max()))
    return 0


def cmd_mcnemar(args):
    _run_config(args)
    out = _outdir(args)
    a = PredictionSet.load_csv(args.preds_a)
    b = PredictionSet.load_csv(args.preds_b)
    if len(a.y_true) != len(b.y_true) or not np.array_equal(a.y_true, b.y_true):
        raise InputError("mcnemar needs predictions over the same test items")
    stat, p = mcnemar_test(a.y_pred == a.y_true, b.y_pred == b.y_true)
    payload = {"b": int(np.sum((a.y_pred == a.y_true) & (b.y_pred != b.y_true))),
               "c": int(np.sum((a.y_pred != a.y_true) & (b.y_pred == b.y_true))),
               "statistic": stat, "p_value": p,
               "significant_at_0.05": bool(p < 0.05)}
    with atomic_open(os.path.join(out, "mcnemar.json")) as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2))
    emit(event="mcnemar_done", statistic=stat, p_value=p)
    return 0


# ----------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="hvt", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--config", help="run-config file (defaults built in)")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", required=True, help="artifact directory")

    p = sub.add_parser("gen-data", parents=[], help="generate synthetic datasets")
    common(p)
    p.add_argument("--n-per-class", type=int, default=20)
    p.add_argument("--n-unlabeled", type=int, default=128)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="contrastive pre-training")
    common(p)
    p.add_argument("--data", required=True, help="unlabeled container")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised fine-tuning")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--init", help="checkpoint to warm-start from")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="metrics from predictions or a model")
    common(p)
    p.add_argument("--preds", help="prediction-set CSV")
    p.add_argument("--checkpoint")
    p.add_argument("--data", help="labeled container")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("calibrate", help="temperature scaling")
    common(p)
    p.add_argument("--val-preds")
    p.add_argument("--test-preds")
    p.add_argument("--checkpoint")
    p.add_argument("--val")
    p.add_argument("--test")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("rollout", help="attention relevance heatmap")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(fn=cmd_rollout)

    p = sub.add_parser("mcnemar", help="paired significance test")
    common(p)
    p.add_argument("--preds-a", required=True)
    p.add_argument("--preds-b", required=True)
    p.set_defaults(fn=cmd_mcnemar)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            print(parser.format_usage(), end="")
            return 1
        return args.fn(args)
    except _UsageError as e:
        print(str(e))
        return 1
    except (InputError, ConfigError, OSError) as e:
        emit(event="error", kind=type(e).__name__)
        print(f"error: {e}")
        return 1
    except Exception as e:  # noqa: BLE001 - exit-code contract
        emit(event="internal_error", kind=type(e).__name__)
        print(f"internal error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
