"""Datasets, binary formats, and persistence.

Two little-endian binary formats are pinned here:

``ImageContainer`` (magic ``HVTIMG1\\0``): header of five u32 fields
(count, H, W, channels, dtype code 0 = float32), then per record one i32
label (-1 = unlabeled) followed by row-major float32 pixels in [0, 1].
The file length must match the header exactly.

``Checkpoint`` (magic ``HVTCKPT1``): u32 format version, length-prefixed
JSON snapshot (config + metadata), length-prefixed JSON tensor manifest
(name, dtype, shape, byte offset; sorted by name), raw tensor payload,
and a trailing u32 CRC32 of the payload. Round trips are bit-exact and
the CRC is verified on load.

Every artifact file the package writes goes through :func:`atomic_open`:
a failed write leaves the old file, or none, never a partial one.

The synthetic dataset is a stand-in classification task: class-conditional
procedural textures (per-class lesion blob count, blob color polarity and
background hue) dense enough that aggressive crops still carry the class
signal.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (CheckpointCRCError, CheckpointError, CheckpointMagicError,
                     CheckpointManifestError, CheckpointVersionError,
                     ConfigError, ContainerFormatError, InputError)
from .augment import hsv_to_rgb
from .model import HVTConfig, param_shapes
from .tensor import RngStream, Tensor

IMG_MAGIC = b"HVTIMG1\x00"
CKPT_MAGIC = b"HVTCKPT1"
CKPT_VERSION = 1


@contextmanager
def atomic_open(path, mode="w"):
    """``open(path, mode)`` for writing, through a temporary file beside
    ``path`` that replaces it only once the block completes, so an error or
    a killed process mid-write never leaves a partial file at ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ----------------------------------------------------------------------
# image container

@dataclass
class ImageContainer:
    """In-memory image set: float32 pixels in [0, 1] plus int labels."""

    images: np.ndarray  # (N, H, W, C) float32
    labels: np.ndarray  # (N,) int32, -1 = unlabeled

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int32)
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise InputError("images must be (N, H, W, C) with one label per image")
        if self.labels.size and self.labels.min() < -1:
            raise InputError("labels must be -1 (unlabeled) or class indices")

    def __len__(self):
        return len(self.images)

    @property
    def image_shape(self):
        return self.images.shape[1:]

    def save(self, path):
        n, h, w, c = self.images.shape
        record = np.dtype([("label", "<i4"), ("pix", "<f4", (h * w * c,))])
        rows = np.empty(n, dtype=record)
        rows["label"] = self.labels
        rows["pix"] = self.images.reshape(n, h * w * c)
        with atomic_open(path, "wb") as f:
            f.write(IMG_MAGIC)
            f.write(struct.pack("<5I", n, h, w, c, 0))
            f.write(rows.tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            blob = f.read()
        if blob[:8] != IMG_MAGIC:
            raise ContainerFormatError(f"{path}: bad image-container magic")
        if len(blob) < 28:
            raise ContainerFormatError(f"{path}: truncated header")
        n, h, w, c, code = struct.unpack("<5I", blob[8:28])
        if code != 0:
            raise ContainerFormatError(f"{path}: unknown dtype code {code}")
        pixels = h * w * c  # a Python int: the record dtype takes a C int
        expected = 28 + n * (4 + 4 * pixels)
        if len(blob) != expected:
            raise ContainerFormatError(
                f"{path}: size {len(blob)} != header-implied {expected}")
        if pixels >= 2 ** 31:
            raise ContainerFormatError(f"{path}: {h}x{w}x{c} images are too large")
        record = np.dtype([("label", "<i4"), ("pix", "<f4", (pixels,))])
        rows = np.frombuffer(blob, dtype=record, offset=28)
        return cls(images=rows["pix"].reshape(n, h, w, c).copy(),
                   labels=rows["label"].astype(np.int32))


# ----------------------------------------------------------------------
# synthetic data

_BLOB_COUNTS = (4, 8, 12, 16, 20, 24, 28)
_BLOB_RADII = (5.0, 6.0, 4.0, 7.0, 5.0, 6.5, 4.5)


def _render_texture(rng, size, cls, classes):
    h, w = size
    hue = (cls / classes) % 1.0
    bg_val = 0.45 + 0.2 * rng.random()
    bg = hsv_to_rgb(np.array([hue, 0.5, bg_val], dtype=np.float64))
    img = np.broadcast_to(bg, (h, w, 3)).astype(np.float64).copy()
    bright = cls % 2 == 0
    blob_val = 0.92 if bright else 0.12
    blob = hsv_to_rgb(np.array([(hue + 0.5) % 1.0, 0.55, blob_val], dtype=np.float64))
    count = _BLOB_COUNTS[cls % len(_BLOB_COUNTS)]
    count = max(1, count + int(rng.integers(-2, 3)))
    radius = _BLOB_RADII[cls % len(_BLOB_RADII)]
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    for _ in range(count):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        r = radius * rng.uniform(0.8, 1.2)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
        img += bump[..., None] * (blob - img)
    img += rng.normal(scale=0.02, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def generate_synthetic(n_per_class, classes=7, size=(64, 64), seed=0,
                       n_unlabeled=0):
    """Procedural labeled + unlabeled image sets, deterministic under seed.

    Returns ``(labeled, unlabeled)`` containers; the unlabeled pool draws
    from the same per-class texture families with labels erased.
    """
    if n_per_class < 1 or classes < 2:
        raise InputError("need n_per_class >= 1 and classes >= 2")
    stream = RngStream(seed)
    images, labels = [], []
    for cls in range(classes):
        for i in range(n_per_class):
            images.append(_render_texture(stream.child("labeled", cls, i),
                                          size, cls, classes))
            labels.append(cls)
    labeled = ImageContainer(np.stack(images), np.array(labels, dtype=np.int32))
    if n_unlabeled:
        pool_rng = stream.child("unlabeled-classes")
        pool_cls = pool_rng.integers(0, classes, size=n_unlabeled)
        pool = [_render_texture(stream.child("unlabeled", int(c), i), size, int(c), classes)
                for i, c in enumerate(pool_cls)]
        unlabeled = ImageContainer(np.stack(pool),
                                   np.full(n_unlabeled, -1, dtype=np.int32))
    else:
        unlabeled = ImageContainer(np.zeros((0,) + tuple(size) + (3,), np.float32),
                                   np.zeros(0, np.int32))
    return labeled, unlabeled


def stratified_split(container, fractions=(0.70, 0.15, 0.15), seed=0):
    """Per-class proportional train/val/test split.

    Rounding remainders go to train; the three outputs are disjoint and
    exhaustive. Every class needs at least 3 samples.
    """
    if abs(sum(fractions) - 1.0) > 1e-9 or len(fractions) != 3:
        raise InputError(f"fractions {fractions} must be three values summing to 1")
    labels = container.labels
    if labels.size == 0 or labels.min() < 0:
        raise InputError("stratified_split needs a fully labeled container")
    rng = RngStream(seed).child("split")
    buckets = ([], [], [])
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 3:
            raise InputError(f"class {cls} has {len(idx)} samples; need >= 3")
        perm = idx[rng.permutation(len(idx))]
        n = len(idx)
        n_val = int(np.floor(fractions[1] * n))
        n_test = int(np.floor(fractions[2] * n))
        n_train = n - n_val - n_test
        buckets[0].extend(perm[:n_train])
        buckets[1].extend(perm[n_train:n_train + n_val])
        buckets[2].extend(perm[n_train + n_val:])
    out = []
    for b in buckets:
        sel = np.sort(np.array(b, dtype=np.int64))
        out.append(ImageContainer(container.images[sel], container.labels[sel]))
    return tuple(out)


# ----------------------------------------------------------------------
# checkpoints

def _snapshot_config(config):
    if isinstance(config, HVTConfig):
        return asdict(config)
    return None if config is None else dict(config)


def save_checkpoint(path, arrays, config=None, meta=None):
    """Write named tensors plus a config snapshot; bit-exact round trip."""
    items = {}
    for name, value in arrays.items():
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        if arr.dtype == np.float64:
            items[name] = arr.astype("<f8", copy=False)
        else:
            items[name] = arr.astype("<f4", copy=False)
    manifest = []
    payload = bytearray()
    for name in sorted(items):
        arr = items[name]
        manifest.append({"name": name,
                         "dtype": str(arr.dtype.name),
                         "shape": list(arr.shape),
                         "offset": len(payload)})
        payload.extend(arr.tobytes())
    snapshot = json.dumps({"config": _snapshot_config(config), "meta": meta or {}},
                          sort_keys=True, separators=(",", ":")).encode()
    manifest_blob = json.dumps(manifest, sort_keys=True,
                               separators=(",", ":")).encode()
    with atomic_open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(snapshot)))
        f.write(snapshot)
        f.write(struct.pack("<I", len(manifest_blob)))
        f.write(manifest_blob)
        f.write(bytes(payload))
        f.write(struct.pack("<I", zlib.crc32(bytes(payload))))
    return path


def load_checkpoint(path):
    """Read a checkpoint; returns ``(arrays, config, meta)``.

    Raises distinct errors for bad magic, unsupported version, and CRC
    mismatch, and a plain ``CheckpointError`` for a truncated or corrupt
    header or a manifest entry that does not fit the payload.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CKPT_MAGIC:
        raise CheckpointMagicError(f"{path}: bad checkpoint magic")
    if len(blob) < 12:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != CKPT_VERSION:
        raise CheckpointVersionError(f"{path}: unsupported version {version}")
    try:
        pos = 12
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        snapshot = json.loads(blob[pos:pos + n].decode())
        pos += n
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        manifest = json.loads(blob[pos:pos + n].decode())
        pos += n
        if not isinstance(snapshot, dict) or not isinstance(manifest, list):
            raise ValueError("snapshot must be an object and manifest a list")
    except (struct.error, ValueError) as e:  # JSON and UTF-8 errors are ValueErrors
        raise CheckpointError(f"{path}: truncated or corrupt header ({e})") from None
    payload = blob[pos:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(payload) != crc:
        raise CheckpointCRCError(f"{path}: payload CRC mismatch")
    arrays = {}
    for entry in manifest:
        try:
            dt = np.dtype(entry["dtype"]).newbyteorder("<")
            shape = tuple(entry["shape"])
            count = int(np.prod(shape, dtype=np.int64))
            arr = np.frombuffer(payload, dtype=dt, count=count, offset=entry["offset"])
            arrays[entry["name"]] = arr.reshape(shape).astype(dt.newbyteorder("="))
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(
                f"{path}: manifest entry {entry!r} does not fit the payload ({e})"
            ) from None
    return arrays, snapshot.get("config"), snapshot.get("meta", {})


def load_model(path, config=None):
    """Model parameters from a checkpoint: ``(params, config, meta)``.

    The model is ``config``, or without it the checkpoint's own config
    snapshot (input stats included: a snapshot without them has the
    defaults), which must be a model config either way. A given ``config``
    must keep the snapshot's input stats, since the parameters were trained
    on pixels standardized with them; otherwise a ``ConfigError`` names
    both. Every parameter the model needs must be stored at its shape,
    otherwise a manifest error names the offenders; other tensors (a
    pre-training checkpoint's ``proj.*``) are ignored.
    """
    arrays, snapshot, meta = load_checkpoint(path)
    stored = config_from_snapshot(snapshot)
    if config is None:
        config = stored
    elif stored is not None and ((config.norm_mean, config.norm_std)
                                 != (stored.norm_mean, stored.norm_std)):
        raise ConfigError(
            f"{path}: checkpoint was trained with norm_mean={stored.norm_mean}, "
            f"norm_std={stored.norm_std}, but the config has "
            f"norm_mean={config.norm_mean}, norm_std={config.norm_std}")
    if config is None:
        raise CheckpointManifestError(f"{path}: checkpoint has no config snapshot")
    expected = param_shapes(config)
    missing = sorted(k for k in expected if k not in arrays)
    wrong = sorted(k for k in expected
                   if k in arrays and arrays[k].shape != expected[k])
    if missing or wrong:
        raise CheckpointManifestError(
            f"{path}: manifest does not satisfy the model "
            f"(missing={missing}, wrong-shape={wrong})")
    params = {k: Tensor(arrays[k], requires_grad=True) for k in expected}
    return params, config, meta


def write_csv(path, rows, fields):
    """Write dict rows as CSV; floats use repr so reads round-trip."""
    with atomic_open(path) as f:
        f.write(",".join(fields) + "\n")
        for row in rows:
            f.write(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k])
                             for k in fields) + "\n")
    return path


def config_from_snapshot(snapshot):
    """The HVTConfig of a checkpoint's config snapshot (None if it has none)."""
    if not snapshot:
        return None
    try:
        return HVTConfig(**snapshot)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint config snapshot is not a model config ({e})") from None
