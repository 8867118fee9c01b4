"""Step timing and span tracing for the benchmark, from outside the program.

Both hook into hvt by replacing a public function at the name where its
caller looks it up: ``pretrain_loop`` calls ``hvt.ssl.forward``, not
``hvt.model.forward``, so that is the binding wrapped. Nothing under
``src/`` changes, and restoring the saved bindings leaves the program as it
was.

A step ends when ``adamw_step`` returns (training) and is one
``tta_predict`` call (inference). A span records its name, start, end and
parent. Spans stay in memory until the run ends; ``analyse`` turns them
into per-layer metrics and ``write_spans`` writes them out.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import importlib
import os
import threading
import time
from collections import Counter, defaultdict

clock = time.perf_counter

TENSOR_OPS = ("matmul", "gelu", "softmax", "layer_norm", "elementwise",
              "reduce", "reshape", "permute", "broadcast_to", "concat",
              "slice_", "scale", "power")
AUGMENT_FNS = ("random_resized_crop", "resize_bilinear", "color_jitter",
               "rgb_to_hsv", "hsv_to_rgb", "gaussian_blur", "rotate",
               "five_crop")
MODEL_FNS = ("patch_embed", "mha", "ffn", "patch_merge")
METRIC_FNS = ("classification_metrics", "ece", "fit_temperature", "nll",
              "reliability_bins", "apply_temperature")


class Patches:
    """Replaces attributes of modules or classes and puts them back."""

    def __init__(self):
        self._saved = []

    def wrap(self, target, make):
        """Replace ``"module:attr"`` or ``"module:Class.attr"`` by
        ``make(current)``."""
        module, _, path = target.partition(":")
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        current = getattr(owner, attr)
        self._saved.append((owner, attr, current))
        setattr(owner, attr, make(current))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class StepClock:
    """Records (start, end) of every step."""

    def __init__(self):
        self.steps = []
        self._mark = None

    def install(self, patches, kind):
        if kind == "infer":
            patches.wrap("hvt.cli:tta_predict", self._timed)
            return
        for target in ("hvt.cli:pretrain_loop", "hvt.cli:finetune_loop"):
            patches.wrap(target, self._starts_steps)
        for target in ("hvt.ssl:adamw_step", "hvt.finetune:adamw_step"):
            patches.wrap(target, self._ends_step)

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            self.steps.append((start, clock()))
            return out
        return timed

    def _starts_steps(self, fn):
        @functools.wraps(fn)
        def loop(*args, **kwargs):
            self._mark = clock()
            return fn(*args, **kwargs)
        return loop

    def _ends_step(self, fn):
        @functools.wraps(fn)
        def step(*args, **kwargs):
            out = fn(*args, **kwargs)
            end = clock()
            self.steps.append((self._mark, end))
            self._mark = end
            return out
        return step


# ----------------------------------------------------------------------
# counters taken at the span boundaries

def _count_flop(counts, args, kwargs, out):
    a = args[0]
    k = (a.data if hasattr(a, "data") else a).shape[-1]
    counts["tensor.matmul.flop"] += 2 * out.data.size * k


def _count_image(counts, args, kwargs, out):
    counts["augment.images"] += 1


def _count_clip(counts, args, kwargs, out):
    counts["optim.clip.calls"] += 1
    counts["optim.clip.fired"] += out[1] > args[1]


def _count_frozen(counts, args, kwargs, out):
    freeze = kwargs.get("freeze")
    if freeze is None:
        return
    for name, grad in args[1].items():
        counts["finetune.grad_elems"] += grad.size
        if freeze.is_frozen(name):
            counts["finetune.frozen_grad_elems"] += grad.size


def _count_bytes(counts, args, kwargs, out):
    counts["data.bytes_written"] += os.path.getsize(out)


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "infer")
    return "model.forward" if mode == "train" else "model.forward_infer"


def trace_points():
    """(target, span name, counter) for every wrapped binding."""
    points = [(f"hvt.tensor:{op}", f"tensor.{op}",
               _count_flop if op == "matmul" else None) for op in TENSOR_OPS]
    points += [("hvt.tensor:Tensor.backward", "tensor.backward", None)]
    points += [(f"hvt.augment:{fn}", f"augment.{fn}", None)
               for fn in AUGMENT_FNS + ("to_grayscale", "hflip", "vflip")]
    points += [
        ("hvt.ssl:map_augment", "augment.map_augment", None),
        ("hvt.finetune:map_augment", "augment.map_augment", None),
        ("hvt.ssl:simclr_augment", "augment.simclr_augment", _count_image),
        ("hvt.finetune:finetune_augment", "augment.finetune_augment", _count_image),
        ("hvt.finetune:five_crop", "augment.five_crop", _count_image),
        ("hvt.finetune:hflip", "augment.hflip", None),
        ("hvt.finetune:tta_inputs", "finetune.tta_inputs", None),
    ]
    points += [(f"hvt.model:{fn}", f"model.{fn}", None) for fn in MODEL_FNS]
    points += [(f"{m}:forward", _forward_name, None)
               for m in ("hvt.ssl", "hvt.finetune", "hvt.cli")]
    points += [
        ("hvt.cli:attention_rollout", "model.rollout", None),
        ("hvt.ssl:adamw_step", "optim.adamw", None),
        ("hvt.finetune:adamw_step", "optim.adamw", _count_frozen),
        ("hvt.ssl:clip_grad_norm", "optim.clip", _count_clip),
        ("hvt.finetune:clip_grad_norm", "optim.clip", _count_clip),
        ("hvt.finetune:ema_update", "optim.ema", None),
        ("hvt.ssl:project", "ssl.project", None),
        ("hvt.ssl:nt_xent_loss", "ssl.nt_xent_loss", None),
        ("hvt.finetune:apply_batch_mixing", "finetune.mix", None),
        ("hvt.finetune:combined_loss", "finetune.loss", None),
        ("hvt.finetune:_accuracy", "finetune.val", None),
        ("hvt.finetune:predict_proba", "finetune.predict_proba", None),
        ("hvt.cli:tta_predict", "finetune.tta_predict", None),
        ("hvt.cli:load_checkpoint", "data.checkpoint_load", None),
    ]
    points += [(f"hvt.cli:{fn}", f"metrics.{fn}", None) for fn in METRIC_FNS]
    for m in ("hvt.ssl", "hvt.finetune"):
        points.append((f"{m}:save_checkpoint", "data.checkpoint_save", _count_bytes))
    for m in ("hvt.ssl", "hvt.finetune", "hvt.cli"):
        points.append((f"{m}:write_csv", "data.write_csv", _count_bytes))
        points.append((f"{m}:normalize_images", "data.normalize", None))
    points += [(f"hvt.cli:cmd_{c}", f"cli.{c}", None)
               for c in ("pretrain", "finetune", "eval", "calibrate", "rollout")]
    return points


class Tracer:
    """In-memory spans ``[name, start, end, parent, child_seconds]``.

    Only the thread that built the tracer records spans, so nesting stays
    a stack; the benchmark leaves ``HVT_THREADS`` unset, so augmentation
    runs on that thread.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._thread = threading.get_ident()

    def install(self, patches):
        for target, name, counter in trace_points():
            patches.wrap(target, functools.partial(self._wrap, name=name,
                                                   counter=counter))

    def _wrap(self, fn, name, counter):
        spans, stack, counts, owner = self.spans, self._stack, self.counts, self._thread
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            rec = [name_of(args, kwargs) if name_of else name, 0.0, 0.0,
                   stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][4] += end - rec[1]
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out
        return traced


# ----------------------------------------------------------------------
# analysis

def step_ids(spans, steps):
    """Index of the step that holds each span whole, or -1."""
    starts = [s for s, _ in steps]
    out = []
    for _, start, end, _, _ in spans:
        k = bisect.bisect_right(starts, start) - 1
        out.append(k if k >= 0 and end <= steps[k][1] else -1)
    return out


def _layer(name):
    return name.split(".", 1)[0]


def analyse(spans, steps, counts, rounds):
    """Per-layer metrics: times per step in ms unless named per round.

    Self time is a span's duration minus its children's. ``loop.other_ms``
    is step time that no span inside the step covers, so the self times of
    the spans inside steps plus ``loop.other_ms`` add up to the step time;
    ``trace.step_ms`` is that sum.
    """
    n = max(len(steps), 1)
    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = Counter()
    layer_busy = defaultdict(float)
    for name, start, end, parent, child in spans:
        d = end - start
        dur[name] += d
        self_t[name] += d - child
        calls[name] += 1
        if parent < 0 or _layer(spans[parent][0]) != _layer(name):
            layer_busy[_layer(name)] += d
    ids = step_ids(spans, steps)
    step_total = sum(e - s for s, e in steps)
    covered = in_steps_self = 0.0
    for i, (_, start, end, parent, child) in enumerate(spans):
        if ids[i] < 0:
            continue
        in_steps_self += end - start - child
        if parent < 0 or ids[parent] != ids[i]:
            covered += end - start
    other = step_total - covered

    def ms_step(x):
        return 1e3 * x / n

    def ms_round(x):
        return 1e3 * x / max(rounds, 1)

    m = {
        "augment.busy_ms": ms_step(layer_busy["augment"]),
        "augment.images": counts["augment.images"] / n,
    }
    for fn in AUGMENT_FNS:
        m[f"augment.{fn}.self_ms"] = ms_step(self_t[f"augment.{fn}"])
    m["tensor.backward.busy_ms"] = ms_step(dur["tensor.backward"])
    for op in TENSOR_OPS:
        m[f"tensor.{op}.self_ms"] = ms_step(self_t[f"tensor.{op}"])
    for op in TENSOR_OPS:
        m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"] / n
    gflop = counts["tensor.matmul.flop"] / 1e9
    m["tensor.matmul.gflop"] = gflop / n
    m["tensor.matmul.gflop_s"] = (gflop / self_t["tensor.matmul"]
                                  if self_t["tensor.matmul"] else 0.0)
    m["model.forward.busy_ms"] = ms_step(dur["model.forward"])
    m["model.forward_infer.busy_ms"] = ms_step(dur["model.forward_infer"])
    for fn in MODEL_FNS:
        m[f"model.{fn}.self_ms"] = ms_step(self_t[f"model.{fn}"])
    m["model.rollout.busy_ms"] = ms_round(dur["model.rollout"])
    m["optim.adamw.busy_ms"] = ms_step(dur["optim.adamw"])
    m["optim.clip.busy_ms"] = ms_step(dur["optim.clip"])
    m["optim.ema.busy_ms"] = ms_step(dur["optim.ema"])
    clips = counts["optim.clip.calls"]
    m["optim.clip_fired_ratio"] = counts["optim.clip.fired"] / clips if clips else 0.0
    m["ssl.loss.busy_ms"] = ms_step(dur["ssl.project"] + dur["ssl.nt_xent_loss"])
    for part in ("mix", "loss", "val"):
        m[f"finetune.{part}.busy_ms"] = ms_step(dur[f"finetune.{part}"])
    grads = counts["finetune.grad_elems"]
    m["finetune.frozen_grad_share"] = (counts["finetune.frozen_grad_elems"] / grads
                                       if grads else 0.0)
    m["metrics.busy_ms"] = ms_round(layer_busy["metrics"])
    m["data.checkpoint_save.busy_ms"] = ms_step(dur["data.checkpoint_save"])
    m["data.bytes_written"] = counts["data.bytes_written"] / n
    m["data.checkpoint_load.busy_ms"] = ms_round(dur["data.checkpoint_load"])
    m["data.normalize.busy_ms"] = ms_step(dur["data.normalize"])
    for c in ("eval", "calibrate", "rollout"):
        m[f"cli.{c}.busy_ms"] = ms_round(dur[f"cli.{c}"])
    m["loop.other_ms"] = ms_step(other)
    m["trace.step_ms"] = ms_step(in_steps_self + other)
    return m


def write_spans(path, spans, steps):
    """Spans as gzip CSV: name, start and end in microseconds from the
    first span, parent row, step id (-1 outside every step)."""
    t0 = spans[0][1] if spans else 0.0
    ids = step_ids(spans, steps)
    with gzip.open(path, "wt") as f:
        f.write("name,start_us,end_us,parent,step\n")
        for (name, start, end, parent, _), step in zip(spans, ids):
            f.write(f"{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                    f"{parent},{step}\n")
