"""Flat key=value run configuration (INI sections, strict keys).

Four sections cover the whole pipeline: [model], [pretrain], [finetune]
and [eval]. Every key has a typed default below (the full-scale training
recipe); a config file only lists overrides. Unknown sections or keys are
rejected rather than ignored.

[model], input stats included, shapes the models gen-data, pretrain and
finetune create; eval, calibrate and rollout take the checkpoint's model.

Units: sizes in pixels, schedule positions in epochs, probabilities in
[0, 1], learning rates per-step multipliers applied by AdamW. ``max_steps``
values of 0 mean "run the full epoch budget".
"""

from __future__ import annotations

import configparser
import io

from .augment import FinetunePolicy, SimclrPolicy
from .errors import ConfigError
from .finetune import FinetuneSettings
from .model import HVTConfig
from .ssl import PretrainSettings

DEFAULTS = {
    "model": {
        "input_size": 448,          # square input, pixels
        "patch_size": 14,           # pixels per patch side
        "depths": (3, 6, 24, 3),    # blocks per stage
        "dims": (192, 384, 768, 1536),
        "heads": (6, 12, 24, 48),
        "ffn_ratio": 4,
        "drop_path_max": 0.3,       # final-block stochastic-depth rate
        "num_classes": 7,
        "use_output_proj": True,
        "norm_mean": (0.5, 0.5, 0.5),   # input standardization per channel
        "norm_std": (0.25, 0.25, 0.25),
    },
    "pretrain": {
        "epochs": 80,
        "batch_size": 32,
        "accum_steps": 2,           # micro-batches per optimizer step
        "lr": 5e-4,
        "weight_decay": 0.05,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "clip_norm": 1.0,
        "warmup_epochs": 10.0,
        "temperature": 0.5,
        "proj_dim": 128,
        "proj_hidden": 0,           # 0 = final stage width
        "crop_scale_min": 0.2,
        "crop_scale_max": 1.0,
        "crop_ratio_min": 0.75,
        "crop_ratio_max": 4.0 / 3.0,
        "jitter_brightness": 0.4,
        "jitter_contrast": 0.4,
        "jitter_saturation": 0.4,
        "jitter_hue": 0.1,
        "grayscale_p": 0.2,
        "blur_kernel": 23,
        "blur_sigma_min": 0.1,
        "blur_sigma_max": 2.0,
        "flip_p": 0.5,
        "max_steps": 0,
        "checkpoint_every": 0,      # optimizer steps between checkpoints
    },
    "finetune": {
        "epochs": 100,
        "batch_size": 16,
        "accum_steps": 2,           # "effective batch" = batch * accum
        "lr_max": 0.1,
        "lr_min": 1e-5,
        "warmup_frac": 0.1,         # one-cycle rise, fraction of epochs
        "weight_decay": 1e-4,
        "clip_norm": 5.0,
        "layer_decay": 0.65,
        "freeze_epochs": 5,
        "ema_decay": 0.9999,
        "gamma": 2.0,
        "lambda_ce": 0.7,
        "lambda_focal": 0.3,
        "mixup_p": 0.2,
        "mixup_alpha": 0.2,
        "cutmix_p": 0.5,
        "cutmix_alpha": 1.0,
        "augment": True,            # per-image crop/flip/rotation/jitter
        "crop_scale_min": 0.8,
        "crop_scale_max": 1.0,
        "hflip_p": 0.5,
        "vflip_p": 0.5,
        "rotation_degrees": 15.0,
        "jitter_brightness": 0.2,
        "jitter_contrast": 0.2,
        "max_steps": 0,
    },
    "eval": {
        "tta": False,
        "tta_crop_ratio": 0.875,
        "ece_bins": 15,
        "batch_size": 64,
    },
}


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
        with open(path, "w") as f:
            f.write(self.dump())
        return path

    # ------------------------------------------------------------------
    # typed views

    def model_config(self):
        m = self.values["model"]
        size = int(m["input_size"])
        return HVTConfig(input_size=(size, size),
                         patch_size=int(m["patch_size"]),
                         depths=m["depths"], dims=m["dims"], heads=m["heads"],
                         ffn_ratio=int(m["ffn_ratio"]),
                         drop_path_max=float(m["drop_path_max"]),
                         num_classes=int(m["num_classes"]),
                         use_output_proj=bool(m["use_output_proj"]),
                         norm_mean=m["norm_mean"], norm_std=m["norm_std"])

    def simclr_policy(self):
        p = self.values["pretrain"]
        return SimclrPolicy(
            crop_scale=(p["crop_scale_min"], p["crop_scale_max"]),
            crop_ratio=(p["crop_ratio_min"], p["crop_ratio_max"]),
            brightness=p["jitter_brightness"], contrast=p["jitter_contrast"],
            saturation=p["jitter_saturation"], hue=p["jitter_hue"],
            grayscale_p=p["grayscale_p"], blur_kernel=int(p["blur_kernel"]),
            blur_sigma=(p["blur_sigma_min"], p["blur_sigma_max"]),
            flip_p=p["flip_p"])

    def pretrain_settings(self):
        p = self.values["pretrain"]
        return PretrainSettings(
            epochs=int(p["epochs"]), batch_size=int(p["batch_size"]),
            accum_steps=int(p["accum_steps"]), lr=float(p["lr"]),
            weight_decay=float(p["weight_decay"]),
            betas=(float(p["beta1"]), float(p["beta2"])), eps=float(p["eps"]),
            clip_norm=float(p["clip_norm"]),
            warmup_epochs=float(p["warmup_epochs"]),
            temperature=float(p["temperature"]), proj_dim=int(p["proj_dim"]),
            proj_hidden=int(p["proj_hidden"]), policy=self.simclr_policy(),
            max_steps=int(p["max_steps"]),
            checkpoint_every=int(p["checkpoint_every"]))

    def finetune_policy(self):
        f = self.values["finetune"]
        return FinetunePolicy(
            crop_scale=(f["crop_scale_min"], f["crop_scale_max"]),
            hflip_p=f["hflip_p"], vflip_p=f["vflip_p"],
            rotation_degrees=f["rotation_degrees"],
            brightness=f["jitter_brightness"], contrast=f["jitter_contrast"])

    def finetune_settings(self):
        f = self.values["finetune"]
        return FinetuneSettings(
            epochs=int(f["epochs"]), batch_size=int(f["batch_size"]),
            accum_steps=int(f["accum_steps"]), lr_max=float(f["lr_max"]),
            lr_min=float(f["lr_min"]), warmup_frac=float(f["warmup_frac"]),
            weight_decay=float(f["weight_decay"]),
            clip_norm=float(f["clip_norm"]), layer_decay=float(f["layer_decay"]),
            freeze_epochs=int(f["freeze_epochs"]),
            ema_decay=float(f["ema_decay"]), gamma=float(f["gamma"]),
            lambda_ce=float(f["lambda_ce"]), lambda_focal=float(f["lambda_focal"]),
            mixup_p=float(f["mixup_p"]), mixup_alpha=float(f["mixup_alpha"]),
            cutmix_p=float(f["cutmix_p"]), cutmix_alpha=float(f["cutmix_alpha"]),
            policy=self.finetune_policy() if f["augment"] else None,
            max_steps=int(f["max_steps"]))
