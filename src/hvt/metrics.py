"""Classification metrics, paired significance testing, and calibration.

All functions here are pure over an immutable :class:`PredictionSet`
(true label, predicted label, full probability row per sample). The
calibration conventions: confidence is the top-1 probability, ECE uses
equal-width bins (15 by default) and is reported as a fraction in [0, 1],
and temperature minimizes validation NLL (never ECE directly), solved
exactly in 1/T; :func:`temperature_at_bound` flags a T with no minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .data import atomic_open
from .errors import ConfigError, InputError

ECE_BINS = 15


@dataclass
class PredictionSet:
    """Per-sample truth, prediction and probability rows."""

    y_true: np.ndarray   # (N,) int
    y_pred: np.ndarray   # (N,) int
    probs: np.ndarray    # (N, C) float, rows on the simplex

    def __post_init__(self):
        self.y_true = np.asarray(self.y_true, dtype=np.int64)
        self.y_pred = np.asarray(self.y_pred, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        n = len(self.y_true)
        if self.probs.ndim != 2 or len(self.y_pred) != n or len(self.probs) != n:
            raise InputError("prediction set arrays disagree in length")
        if n == 0:
            raise InputError("empty prediction set")
        c = self.probs.shape[1]
        for name, arr in (("true", self.y_true), ("pred", self.y_pred)):
            if arr.min() < 0 or arr.max() >= c:
                raise InputError(f"{name} label outside [0, {c})")
        if not np.isfinite(self.probs).all():
            raise InputError("probability rows must be finite")
        if np.abs(self.probs.sum(axis=1) - 1.0).max() > 1e-6:
            raise InputError("probability rows must sum to 1 within 1e-6")

    @property
    def n_classes(self):
        return self.probs.shape[1]

    @classmethod
    def from_probs(cls, y_true, probs):
        probs = np.asarray(probs, dtype=np.float64)
        return cls(y_true, np.argmax(probs, axis=1), probs)

    # ---- CSV round trip (columns: sample_id, true_label, pred_label, p_*)

    def save_csv(self, path):
        c = self.n_classes
        header = ["sample_id", "true_label", "pred_label"] + [f"p_{i}" for i in range(c)]
        with atomic_open(path) as f:
            f.write(",".join(header) + "\n")
            for i in range(len(self.y_true)):
                row = [str(i), str(int(self.y_true[i])), str(int(self.y_pred[i]))]
                row += [repr(float(p)) for p in self.probs[i]]
                f.write(",".join(row) + "\n")
        return path

    @classmethod
    def load_csv(cls, path):
        with open(path) as f:
            lines = [(i, ln.strip().split(",")) for i, ln in enumerate(f, 1) if ln.strip()]
        if not lines or lines[0][1][:4] != ["sample_id", "true_label", "pred_label", "p_0"]:
            raise InputError(f"{path}: not a prediction-set CSV")
        width = len(lines[0][1])
        y_true, y_pred, probs = [], [], []
        for i, parts in lines[1:]:
            try:
                if len(parts) != width:
                    raise ValueError(f"{len(parts)} fields where the header has {width}")
                y_true.append(int(parts[1]))
                y_pred.append(int(parts[2]))
                probs.append([float(x) for x in parts[3:]])
            except ValueError as e:
                raise InputError(f"{path}: line {i}: {e}") from None
        return cls(np.array(y_true), np.array(y_pred), np.array(probs))


@dataclass
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: list            # dicts: class, precision, recall, f1, support,
                               # zero_denominator flags
    confusion: np.ndarray      # (C, C), rows = true class
    n: int

    def to_dict(self):
        return {"accuracy": self.accuracy,
                "macro_precision": self.macro_precision,
                "macro_recall": self.macro_recall,
                "macro_f1": self.macro_f1,
                "per_class": self.per_class,
                "confusion": self.confusion.tolist(),
                "n": self.n}


def classification_metrics(preds):
    """Accuracy, per-class precision/recall/F1 (0 on empty denominators),
    macro averages, and the confusion matrix (rows = true class)."""
    c = preds.n_classes
    conf = np.zeros((c, c), dtype=np.int64)
    np.add.at(conf, (preds.y_true, preds.y_pred), 1)
    per_class = []
    for k in range(c):
        tp = int(conf[k, k])
        pred_k = int(conf[:, k].sum())
        true_k = int(conf[k, :].sum())
        precision = tp / pred_k if pred_k else 0.0
        recall = tp / true_k if true_k else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append({"class": k, "precision": precision, "recall": recall,
                          "f1": f1, "support": true_k,
                          "no_predictions": pred_k == 0,
                          "no_support": true_k == 0})
    return MetricsReport(
        accuracy=float(np.mean(preds.y_true == preds.y_pred)),
        macro_precision=float(np.mean([pc["precision"] for pc in per_class])),
        macro_recall=float(np.mean([pc["recall"] for pc in per_class])),
        macro_f1=float(np.mean([pc["f1"] for pc in per_class])),
        per_class=per_class, confusion=conf, n=len(preds.y_true))


# ----------------------------------------------------------------------
# McNemar

def mcnemar_test(correct_a, correct_b):
    """Paired test on discordant counts b (A right, B wrong) and c.

    b + c >= 25 uses the continuity-corrected chi-square with 1 dof;
    otherwise the exact two-sided binomial on min(b, c) with p = 1/2.
    b + c = 0 returns (0, 1) by convention.
    """
    a = np.asarray(correct_a, dtype=bool)
    bb = np.asarray(correct_b, dtype=bool)
    if a.shape != bb.shape or a.ndim != 1:
        raise InputError("paired outcome vectors must share one shape")
    b = int(np.sum(a & ~bb))
    c = int(np.sum(~a & bb))
    if b + c == 0:
        return 0.0, 1.0
    if b + c >= 25:
        stat = (abs(b - c) - 1.0) ** 2 / (b + c)
        p = float(stats.chi2.sf(stat, df=1))
        return float(stat), p
    k = min(b, c)
    n = b + c
    # exact two-sided binomial tail, doubled and capped
    tail = sum(math.comb(n, i) for i in range(k + 1)) * 0.5 ** n
    return float(k), float(min(1.0, 2.0 * tail))


# ----------------------------------------------------------------------
# calibration

@dataclass
class ReliabilityBins:
    """Equal-width confidence bins with per-bin statistics."""

    edges: np.ndarray         # (bins + 1,)
    counts: np.ndarray        # (bins,)
    mean_confidence: np.ndarray
    accuracy: np.ndarray

    def rows(self):
        out = []
        for i in range(len(self.counts)):
            out.append({"bin": i,
                        "lo": float(self.edges[i]), "hi": float(self.edges[i + 1]),
                        "count": int(self.counts[i]),
                        "mean_confidence": float(self.mean_confidence[i]),
                        "accuracy": float(self.accuracy[i])})
        return out


def reliability_bins(preds, bins=ECE_BINS):
    conf = preds.probs.max(axis=1)
    correct = (preds.y_true == preds.y_pred).astype(np.float64)
    idx = np.clip((conf * bins).astype(int), 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=bins)
    hit_sum = np.bincount(idx, weights=correct, minlength=bins)
    nz = np.maximum(counts, 1)
    return ReliabilityBins(edges=np.linspace(0.0, 1.0, bins + 1),
                           counts=counts,
                           mean_confidence=conf_sum / nz,
                           accuracy=hit_sum / nz)


def ece(preds, bins=ECE_BINS):
    """Expected calibration error as a fraction in [0, 1].

    Sum over bins of (count/n) * |accuracy - mean confidence|; empty bins
    contribute nothing.
    """
    rb = reliability_bins(preds, bins)
    n = rb.counts.sum()
    gap = np.abs(rb.accuracy - rb.mean_confidence)
    return float(np.sum(rb.counts / n * gap))


def _class_labels(labels, logits, who):
    """``labels``, if one class index in [0, C) per row of (N, C) logits."""
    labels, c = np.asarray(labels), logits.shape[1]
    if labels.shape != (len(logits),) or labels.dtype.kind not in "iu" \
            or not ((labels >= 0) & (labels < c)).all():
        raise InputError(f"{who} needs one label in [0, {c}) per row")
    return labels


def nll(logits, labels, temperature=1.0):
    """Mean negative log likelihood of ``labels`` under softmax(logits/T)."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    labels = _class_labels(labels, z, "nll")
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-np.mean(logp[np.arange(len(labels)), labels]))


# fit_temperature's answers where NLL has no finite minimum in T: finite and
# positive, so calibration.json stays finite and apply_temperature takes them
T_EDGES = (math.exp(-3.0), math.exp(3.0))


def fit_temperature(logits, labels):
    """``(T, degenerate)``: T minimizes validation NLL, solved exactly on
    beta = 1/T (1.0, degenerate, when every row is constant). NLL is convex
    in beta, its slope mean(E_p[z] - z_y) rising from mean(mean_c z - z_y)
    at 0 towards mean(max z - z_y), so the root of the slope is bisected
    until the midpoint equals an endpoint."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or not logits.size or not np.isfinite(logits).all():
        raise InputError("fit_temperature needs non-empty, finite (N, C) logits")
    labels = _class_labels(labels, logits, "fit_temperature")
    if np.ptp(logits, axis=1).max() < 1e-12:
        return 1.0, True
    z_y = logits[np.arange(len(labels)), labels]

    def slope(beta):
        p = apply_temperature(logits, 1.0 / beta)
        return np.mean((p * logits).sum(axis=1) - z_y)

    if np.mean(logits.mean(axis=1) - z_y) >= 0:  # no beta > 0 lowers NLL
        return T_EDGES[1], False
    if (z_y == logits.max(axis=1)).all():  # every label a row maximum, ties count
        return T_EDGES[0], False
    lo, hi = 0.0, 1.0
    while not slope(hi) > 0:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if slope(mid) > 0 else (mid, hi)
    return float(1.0 / hi), False


def temperature_at_bound(temperature):
    """True when T is a :func:`fit_temperature` answer without a minimum."""
    return temperature in T_EDGES


def apply_temperature(logits, temperature):
    """softmax(logits / T); argmax is unchanged for any T > 0."""
    if temperature <= 0:
        raise ConfigError(f"temperature {temperature} must be positive")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
