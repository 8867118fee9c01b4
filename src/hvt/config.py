"""Flat key=value run configuration (INI sections, strict keys).

Four sections cover the whole pipeline: [model], [pretrain], [finetune]
and [eval]. ``KEYS`` lists each section's keys in file order; a config file
only lists overrides, and unknown sections or keys are rejected rather than
ignored. The defaults (the full-scale training recipe) are not written
here: each key of [model], [pretrain] and [finetune] names the field of
``HVTConfig``, ``PretrainSettings``/``SimclrPolicy`` or
``FinetuneSettings``/``FinetunePolicy`` it sets and takes that field's
default; [eval] takes the constants the evaluation code applies.
``RunConfig().save(path)`` dumps them all.

[model], input stats included, shapes the models gen-data, pretrain and
finetune create; eval, calibrate and rollout take the checkpoint's model.

Units: sizes in pixels, schedule positions in epochs, probabilities in
[0, 1], learning rates per-step multipliers applied by AdamW. ``max_steps``
values of 0 mean "run the full epoch budget".
"""

from __future__ import annotations

import configparser
import dataclasses
import io

from .augment import TTA_CROP_RATIO, FinetunePolicy, SimclrPolicy
from .data import atomic_open
from .errors import ConfigError
from .finetune import PREDICT_BATCH, FinetuneSettings
from .metrics import ECE_BINS
from .model import HVTConfig
from .ssl import PretrainSettings

# Each key names the field it sets, with two exceptions: [model] input_size
# is the side of a square input, and [finetune] augment = false builds
# FinetuneSettings(policy=None).
KEYS = {
    "model": ("input_size", "patch_size", "depths", "dims", "heads", "ffn_ratio",
              "drop_path_max", "num_classes", "use_output_proj", "norm_mean",
              "norm_std"),
    "pretrain": ("epochs", "batch_size", "accum_steps", "lr", "weight_decay", "beta1",
                 "beta2", "eps", "clip_norm", "warmup_epochs", "temperature",
                 "proj_dim", "proj_hidden", "crop_scale_min", "crop_scale_max",
                 "crop_ratio_min", "crop_ratio_max", "jitter_brightness",
                 "jitter_contrast", "jitter_saturation", "jitter_hue", "grayscale_p",
                 "blur_kernel", "blur_sigma_min", "blur_sigma_max", "flip_p",
                 "max_steps", "checkpoint_every"),
    "finetune": ("epochs", "batch_size", "accum_steps", "lr_max", "lr_min",
                 "warmup_frac", "weight_decay", "clip_norm", "layer_decay",
                 "freeze_epochs", "ema_decay", "gamma", "lambda_ce", "lambda_focal",
                 "mixup_p", "mixup_alpha", "cutmix_p", "cutmix_alpha", "augment",
                 "crop_scale_min", "crop_scale_max", "hflip_p", "vflip_p",
                 "rotation_degrees", "jitter_brightness", "jitter_contrast",
                 "max_steps"),
    "eval": ("tta", "tta_crop_ratio", "ece_bins", "batch_size"),
}

_FIELD_DEFAULTS = {
    "model": {**vars(HVTConfig()), "input_size": HVTConfig.input_size[0]},
    "pretrain": {**vars(PretrainSettings()), **vars(SimclrPolicy())},
    "finetune": {**vars(FinetuneSettings()), **vars(FinetunePolicy()), "augment": True},
    "eval": {"tta": False, "tta_crop_ratio": TTA_CROP_RATIO, "ece_bins": ECE_BINS,
             "batch_size": PREDICT_BATCH},
}
DEFAULTS = {sec: {key: _FIELD_DEFAULTS[sec][key] for key in keys}
            for sec, keys in KEYS.items()}


def _parse_value(raw, default, where):
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}")
    if isinstance(default, tuple):
        elem = type(default[0])
        try:
            return tuple(elem(part.strip()) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{where}: expected comma-separated "
                              f"{elem.__name__} values, got {raw!r}") from None
    try:
        return type(default)(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {type(default).__name__}, "
                          f"got {raw!r}") from None


def _build(cls, section, **given):
    """``cls`` from the section's keys that name its fields, then ``given``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{**{k: v for k, v in section.items() if k in names}, **given})


class RunConfig:
    """Typed view over the [model]/[pretrain]/[finetune]/[eval] sections."""

    def __init__(self, values=None):
        self.values = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
        for sec, keys in (values or {}).items():
            for key, val in keys.items():
                self.values[sec][key] = val

    @classmethod
    def load(cls, path):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as e:
            raise ConfigError(f"{path}: {e}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        overrides = {}
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            overrides[section] = {}
            for key, raw in parser.items(section):
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
                overrides[section][key] = _parse_value(
                    raw, DEFAULTS[section][key], f"{path} [{section}] {key}")
        return cls(overrides)

    def get(self, section, key):
        return self.values[section][key]

    def dump(self):
        out = io.StringIO()
        for section, keys in self.values.items():
            out.write(f"[{section}]\n")
            for key, val in keys.items():
                if isinstance(val, tuple):
                    val = ",".join(str(v) for v in val)
                out.write(f"{key} = {val}\n")
            out.write("\n")
        return out.getvalue()

    def save(self, path):
        with atomic_open(path) as f:
            f.write(self.dump())
        return path

    # ------------------------------------------------------------------
    # typed views

    def model_config(self):
        m = self.values["model"]
        return _build(HVTConfig, m, input_size=(m["input_size"],) * 2)

    def pretrain_settings(self):
        p = self.values["pretrain"]
        return _build(PretrainSettings, p, policy=_build(SimclrPolicy, p))

    def finetune_settings(self):
        f = self.values["finetune"]
        return _build(FinetuneSettings, f,
                      policy=_build(FinetunePolicy, f) if f["augment"] else None)
