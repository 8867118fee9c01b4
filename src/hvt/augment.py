"""Image augmentation on float channels-last arrays in [0, 1].

Two pipelines are exposed: the two-view contrastive policy (crop, jitter,
grayscale, blur, flip) and the supervised fine-tuning policy (crop, flips,
rotation, mild jitter). Batch-level mixing (MixUp/CutMix) lives in
``hvt.finetune``.

Determinism: every random decision comes from the ``RngStream`` handed in,
in a fixed draw order, so (seed, image) pins the output bit-for-bit.

Conventions: grayscale uses ITU-R 601 luminance weights; color jitter is
applied brightness -> contrast -> saturation -> hue, each step's output in
[0, 1]; Gaussian blur always fires (the policy only randomizes sigma) on a
fixed 23-tap kernel with reflect padding; rotation fills borders by edge
replication.

Kernels: resize and blur are separable linear maps, applied as two float32
matrix products each (``_separable``). The fine-tuning view's crop, flips
and rotation are one inverse-affine bilinear gather from the source image
(``_affine_view``). The hue shift works on each pixel's max, min and hue
sextant in the image's own dtype, without an HSV round trip. Resize, blur,
the gather and the hue shift return channel-planar memory; every result
reads as ``(..., H, W, C)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float32)


def _clip01(img):
    return np.clip(img, 0.0, 1.0)


def _separable(img, my, mx):
    """``my`` along the rows and ``mx`` along the columns of ``(..., h, w, C)``
    images, as two GEMMs and no transpose copy.

    Each GEMM contracts the first axis of the memory and puts its output
    axis last, so the memory order rotates from channels-last (y, x, C) to
    channel-planar (C, y, x); the result is a view that reads as
    (..., H, W, C). Input in any other layout is copied to channels-last.
    """
    *lead, h, w, c = img.shape
    out_h, out_w = my.shape[0], mx.shape[0]
    # (y, x, C) -> (x, C, y') -> (C, y', x')
    t = img.reshape(*lead, h, w * c).swapaxes(-1, -2) @ my.T
    out = t.reshape(*lead, w, c * out_h).swapaxes(-1, -2) @ mx.T
    return out.reshape(*lead, c, out_h, out_w).swapaxes(-3, -1).swapaxes(-3, -2)


@functools.lru_cache(maxsize=256)
def _interp_matrix(n_out, n_in, dtype):
    """(n_out, n_in) bilinear weights: half-pixel centres, clamped borders.

    Cached (read-only): random crops draw from a few dozen sizes."""
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0, n_in - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    rows = np.arange(n_out) * n_in
    m = np.bincount(np.concatenate([rows + lo, rows + hi]),
                    np.concatenate([1 - frac, frac]), minlength=n_out * n_in)
    m = m.reshape(n_out, n_in).astype(dtype)
    m.flags.writeable = False
    return m


def resize_bilinear(img, out_h, out_w):
    """Bilinear resize with half-pixel centers and clamped borders.

    ``img`` is one ``(h, w, C)`` image or a stack ``(..., h, w, C)``; every
    image of a stack comes out as a single call on it would give it. The
    result may be laid out channel-planar (see ``_separable``).
    """
    h, w = img.shape[-3:-1]
    if (h, w) == (out_h, out_w):
        return img.copy()
    dtype = np.result_type(img.dtype, np.float32)
    out = _separable(img, _interp_matrix(out_h, h, dtype), _interp_matrix(out_w, w, dtype))
    return out.astype(img.dtype, copy=False)


def hflip(img):
    return img[:, ::-1].copy()


def vflip(img):
    return img[::-1].copy()


def _luma(img):
    return img[..., :3] @ _LUMA.astype(img.dtype, copy=False)


def to_grayscale(img):
    """Replicate the luminance channel across RGB."""
    return np.repeat(_luma(img)[..., None], 3, axis=-1)


@functools.lru_cache(maxsize=16)
def _reflect_index(n, taps):
    """Flat indices into an (n, n) matrix: row i, column of the source of
    tap t for output i, under scipy's 'reflect' border (d c b a | a b c d)."""
    half = taps // 2
    src = (np.arange(n)[:, None] + np.arange(-half, half + 1)) % (2 * n)
    src = np.where(src >= n, 2 * n - 1 - src, src)
    idx = (np.arange(n)[:, None] * n + src).ravel()
    idx.flags.writeable = False
    return idx


def _blur_matrix(n, kernel):
    """(n, n) float32 matrix of a centred 1-D ``kernel`` with reflect borders."""
    m = np.bincount(_reflect_index(n, kernel.size), np.tile(kernel, n),
                    minlength=n * n).astype(np.float32).reshape(n, n)
    # far taps of a narrow kernel round to float32 subnormals, which run
    # the GEMM several times slower than zeros
    m[m < np.finfo(np.float32).tiny] = 0.0
    return m


def _gaussian_kernel(sigma, size):
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(img, sigma, kernel_size=23, hflip=False):
    """Separable Gaussian blur with a fixed truncated kernel, as two GEMMs;
    ``hflip`` also mirrors the result left-right."""
    k = _gaussian_kernel(sigma, kernel_size)
    h, w = img.shape[-3:-1]
    mh = _blur_matrix(h, k)
    mw = mh if w == h else _blur_matrix(w, k)
    if hflip:
        mw = np.ascontiguousarray(mw[::-1])
    out = _separable(img.astype(np.float32, copy=False), mh, mw)
    return out.astype(img.dtype, copy=False)


def _affine_axis(n_out, n_crop, start, flip):
    """``(a, b, lo, hi)``: along one axis, the source coordinate of a rotated
    output coordinate ``r`` is ``clip(a * r + b, lo, hi)``.

    That folds three steps into one affine map and one clamp: ``r`` clamped
    to ``[0, n_out - 1]`` (edge replication), the flip ``r -> n_out - 1 - r``,
    and the crop's half-pixel resize ``(r + 0.5) * n_crop / n_out - 0.5``
    clamped to the crop, which starts at ``start``. The two clamps meet for
    every crop of at least one pixel, so their intersection is one clamp.
    """
    k = n_crop / n_out
    a, b = (-k, (n_out - 0.5) * k - 0.5) if flip else (k, 0.5 * k - 0.5)
    b += start
    lo, hi = sorted((b, a * (n_out - 1) + b))
    return a, b, max(lo, start), min(hi, start + n_crop - 1)


def _affine_view(img, box, out_size, hflip=False, vflip=False, degrees=0.0):
    """Crop ``box`` = (top, left, rows, cols) of ``(h, w, C)`` ``img``, resized
    to ``out_size``, flipped, then rotated by ``degrees`` about the output
    centre with edge replication, as one bilinear gather from ``img``.

    Output pixel (y, x) rotates to (cos*dy + sin*dx, cos*dx - sin*dy) about
    the centre (the sense of ``ndimage.rotate``), is clamped to the output
    grid, flipped, mapped through the crop's resize (see ``_affine_axis``),
    and reads the source there bilinearly. Coordinates are float64; the
    blend runs in float32 (or img's wider dtype).
    """
    h, w, c = img.shape
    top, left, ch, cw = box
    out_h, out_w = out_size
    theta = np.deg2rad(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    dy = np.arange(out_h) - (out_h - 1) / 2
    dx = np.arange(out_w) - (out_w - 1) / 2
    ay, by, y_lo, y_hi = _affine_axis(out_h, ch, top, vflip)
    ax, bx, x_lo, x_hi = _affine_axis(out_w, cw, left, hflip)
    sy = np.add.outer(ay * (cos * dy + (out_h - 1) / 2) + by, ay * sin * dx)
    sx = np.add.outer(-ax * sin * dy, ax * (cos * dx + (out_w - 1) / 2) + bx)
    np.clip(sy, y_lo, y_hi, out=sy)
    np.clip(sx, x_lo, x_hi, out=sx)
    dtype = np.result_type(img.dtype, np.float32)
    y0, x0 = np.floor(sy), np.floor(sx)
    fy, fx = (sy - y0).astype(dtype), (sx - x0).astype(dtype)
    y0, x0 = y0.astype(np.intp), x0.astype(np.intp)
    # channel-planar source with a zero row and column past the edge: a
    # corner there is read only at weight 0 (a coordinate on the last row
    # or column has fraction 0), and every index stays valid
    src = np.zeros((c, h + 1, w + 1), dtype)
    src[:, :h, :w] = np.moveaxis(img, -1, 0)
    src = src.reshape(c, -1)
    y0 *= w + 1
    y0 += x0
    # flat take per corner: 2-D fancy indexing is several times slower
    nw, ne = src.take(y0, axis=1), src.take(y0 + 1, axis=1)
    sw, se = src.take(y0 + (w + 1), axis=1), src.take(y0 + (w + 2), axis=1)
    ne -= nw
    ne *= fx
    nw += ne
    se -= sw
    se *= fx
    sw += se
    sw -= nw
    sw *= fy
    nw += sw
    return np.moveaxis(nw.reshape(c, out_h, out_w), 0, -1)


def rotate(img, degrees):
    """Rotate around the center, bilinear, borders filled by replication:
    ``ndimage.rotate(img, degrees, reshape=False, order=1, mode="nearest")``."""
    h, w = img.shape[:2]
    out = _affine_view(img, (0, 0, h, w), (h, w), degrees=degrees)
    return _clip01(out).astype(img.dtype, copy=False)


def rgb_to_hsv(img):
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    # pairwise over the planes: a reduction along a length-3 axis is slow
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    v = maxc
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    dz = np.where(delta > 0, delta, 1.0)
    rc = (maxc - r) / dz
    gc = (maxc - g) / dz
    bc = (maxc - b) / dz
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    # h - floor(h) is h % 1.0 bit for bit on (-1, 2), and far cheaper
    h = h / 6.0
    h = np.where(delta > 0, h - np.floor(h), 0.0)
    return np.stack([h, s, v], axis=-1)


# (r, g, b) per hue sextant, as indices into the stack (v, q, p, t)
_SEXTANT = np.array([[0, 3, 2], [1, 0, 2], [2, 0, 3],
                     [2, 1, 0], [3, 2, 0], [0, 2, 1]])


def hsv_to_rgb(hsv):
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    return _sextant_pick(i.astype(int) % 6, v, q, p, t)


def _sextant_pick(i, v, q, p, t):
    """RGB from hue sextant ``i`` and the planes (v, q, p, t) in one flat
    gather: pixel n's channel c is (v, q, p, t)[_SEXTANT[i[n], c]][n]."""
    vqpt = np.stack([v, q, p, t], axis=-1)
    flat = np.take(_SEXTANT, i, axis=0) + 4 * np.arange(i.size).reshape(i.shape + (1,))
    return np.take(vqpt, flat)


# per channel (r, g, b) of a pixel at hue sextant x in [0, 6): the channel
# is max - d * clip(s * |x - c| + o, 0, 1), hsv_to_rgb with s = d / max
_HUE_C = np.array([3.0, 2.0, 4.0]).reshape(3, 1, 1)
_HUE_S = np.array([-1.0, 1.0, 1.0]).reshape(3, 1, 1)
_HUE_O = np.array([2.0, -1.0, -1.0]).reshape(3, 1, 1)


def _shift_hue(img, shift):
    """Rotate the HSV hue of RGB ``img`` by ``shift`` turns, in img's dtype.

    A hue rotation keeps each pixel's max, min and their difference d. The
    new hue, in sextants x = 6H' wrapped to [0, 6), sets each channel by the
    piecewise-linear form at ``_HUE_C``, computed for all three channels in
    one pass over a channel-planar stack. Each channel is max less a
    product in [0, max], so it stays in [0, 1] without a clip.
    """
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    delta = maxc - minc
    # sextant offset 0/2/4 by which channel is the max, ties as rgb_to_hsv
    top_r, top_g = maxc == r, maxc == g
    num = np.where(top_r, g - b, np.where(top_g, b - r, r - g))
    # grey pixels have num == 0 and d == 0, so every channel is max
    x = num / np.where(delta > 0, delta, 1)
    whole = np.floor(6.0 * shift)
    x += img.dtype.type(6.0 * shift - whole)
    # whole sextants (offset plus shift) in 1..6 put x in [0, 8)
    k_r, k_g, k_b = (img.dtype.type((base + whole - 1) % 6 + 1) for base in (0, 2, 4))
    x += np.where(top_r, k_r, np.where(top_g, k_g, k_b))
    np.subtract(x, 6, out=x, where=x >= 6)
    t = x - _HUE_C.astype(img.dtype, copy=False)
    np.abs(t, out=t)
    t *= _HUE_S.astype(img.dtype, copy=False)
    t += _HUE_O.astype(img.dtype, copy=False)
    np.clip(t, 0, 1, out=t)
    t *= delta
    np.subtract(maxc, t, out=t)
    return np.moveaxis(t, 0, -1)


def color_jitter(img, rng, brightness=0.0, contrast=0.0, saturation=0.0, hue=0.0):
    """Randomized photometric jitter; returns (image, draw log).

    Factors are drawn even when a strength is zero, so the draw sequence
    (and therefore downstream determinism) does not depend on the policy.
    """
    log = {}
    f = rng.uniform(max(0.0, 1 - brightness), 1 + brightness)
    log["brightness"] = f
    img = _clip01(img * img.dtype.type(f))
    f = rng.uniform(max(0.0, 1 - contrast), 1 + contrast)
    log["contrast"] = f
    mean = _luma(img).mean(dtype=np.float64)
    img = _clip01(f * img + (1 - f) * img.dtype.type(mean))
    f = rng.uniform(max(0.0, 1 - saturation), 1 + saturation)
    log["saturation"] = f
    if saturation > 0:
        img = _clip01(f * img + (1 - f) * _luma(img)[..., None])
    shift = rng.uniform(-hue, hue)
    log["hue"] = shift
    if hue > 0:
        img = _shift_hue(img, shift)
    return img, log


def _crop_box(h, w, rng, scale, ratio):
    """``(top, left, rows, cols)`` of an area/aspect-sampled crop of an
    ``h`` x ``w`` image.

    Ten proposals are tried; if none fits, falls back to the largest
    centered crop with aspect clamped into ``ratio``.
    """
    if scale[0] > scale[1] or scale[0] <= 0:
        raise ConfigError(f"bad crop scale {scale}")
    area = h * w
    for _ in range(10):
        target = area * rng.uniform(scale[0], scale[1])
        aspect = np.exp(rng.uniform(np.log(ratio[0]), np.log(ratio[1])))
        cw = int(round(np.sqrt(target * aspect)))
        ch = int(round(np.sqrt(target / aspect)))
        if 0 < cw <= w and 0 < ch <= h:
            i = int(rng.integers(0, h - ch + 1))
            j = int(rng.integers(0, w - cw + 1))
            return i, j, ch, cw
    in_ratio = w / h
    if in_ratio < ratio[0]:
        cw, ch = w, min(h, int(round(w / ratio[0])))
    elif in_ratio > ratio[1]:
        ch, cw = h, min(w, int(round(h * ratio[1])))
    else:
        cw, ch = w, h
    return (h - ch) // 2, (w - cw) // 2, ch, cw


def random_resized_crop(img, rng, scale, ratio, out_size):
    """Area/aspect-sampled crop (``_crop_box``) resized to ``out_size``
    (rows, cols); returns (image, box)."""
    i, j, ch, cw = box = _crop_box(*img.shape[:2], rng, scale, ratio)
    return resize_bilinear(img[i:i + ch, j:j + cw], out_size[0], out_size[1]), box


TTA_CROP_RATIO = 0.875  # test-time crop side, share of the input side


def five_crop(img, ratio=TTA_CROP_RATIO):
    """Four corner crops plus the center crop, each resized back to the
    input size. Crop side is ``ratio`` of the input side."""
    h, w = img.shape[:2]
    ch, cw = int(round(ratio * h)), int(round(ratio * w))
    if ch < 1 or cw < 1 or ch > h or cw > w:
        raise InputError(f"crop {ch}x{cw} does not fit image {h}x{w}")
    anchors = [(0, 0), (0, w - cw), (h - ch, 0), (h - ch, w - cw),
               ((h - ch) // 2, (w - cw) // 2)]
    crops = np.stack([img[i:i + ch, j:j + cw] for i, j in anchors])
    return list(resize_bilinear(crops, h, w))


# ----------------------------------------------------------------------
# policies

@dataclass(frozen=True)
class SimclrPolicy:
    """Two-view contrastive augmentation policy."""

    crop_scale_min: float = 0.2     # crop area, share of the image's
    crop_scale_max: float = 1.0
    crop_ratio_min: float = 0.75    # crop aspect, width over height
    crop_ratio_max: float = 4.0 / 3.0
    jitter_brightness: float = 0.4  # factor drawn in [max(0, 1 - s), 1 + s]
    jitter_contrast: float = 0.4
    jitter_saturation: float = 0.4
    jitter_hue: float = 0.1         # shift drawn in [-s, s] turns
    grayscale_p: float = 0.2
    blur_kernel: int = 23           # pixels per side
    blur_sigma_min: float = 0.1     # pixels
    blur_sigma_max: float = 2.0
    flip_p: float = 0.5


@dataclass(frozen=True)
class FinetunePolicy:
    """Supervised-training augmentation policy."""

    crop_scale_min: float = 0.8     # crop area, share of the image's
    crop_scale_max: float = 1.0
    crop_ratio_min: float = 0.75    # crop aspect, width over height
    crop_ratio_max: float = 4.0 / 3.0
    hflip_p: float = 0.5
    vflip_p: float = 0.5
    rotation_degrees: float = 15.0  # angle drawn in [-d, d]
    jitter_brightness: float = 0.2  # factor drawn in [max(0, 1 - s), 1 + s]
    jitter_contrast: float = 0.2


@dataclass
class ViewPair:
    """Two augmented views of one source image, with their draw logs."""

    view_a: np.ndarray
    view_b: np.ndarray
    params_a: dict = field(default_factory=dict)
    params_b: dict = field(default_factory=dict)


def _simclr_view(img, policy, rng, out_size):
    log = {}
    img, log["crop"] = random_resized_crop(
        img, rng, (policy.crop_scale_min, policy.crop_scale_max),
        (policy.crop_ratio_min, policy.crop_ratio_max), out_size)
    img, jit = color_jitter(img, rng, policy.jitter_brightness, policy.jitter_contrast,
                            policy.jitter_saturation, policy.jitter_hue)
    log.update(jit)
    gray = rng.random() < policy.grayscale_p
    log["grayscale"] = bool(gray)
    if gray:
        img = to_grayscale(img)
    sigma = rng.uniform(policy.blur_sigma_min, policy.blur_sigma_max)
    log["blur_sigma"] = sigma
    flip = rng.random() < policy.flip_p
    log["hflip"] = bool(flip)
    img = gaussian_blur(img, sigma, policy.blur_kernel, hflip=flip)
    return _clip01(img).astype(np.float32, copy=False), log


def simclr_augment(image, policy, rng, out_size=None):
    """Draw two independent views of ``image`` under ``policy``."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3 or image.shape[-1] != 3 or min(image.shape[:2]) < 2:
        raise InputError(f"expected an (H, W, 3) image, got {image.shape}")
    out_size = out_size or image.shape[:2]
    if min(out_size) > min(image.shape[:2]):
        raise InputError(f"image {image.shape[:2]} smaller than output {out_size}")
    va, la = _simclr_view(image, policy, rng.child("view_a"), out_size)
    vb, lb = _simclr_view(image, policy, rng.child("view_b"), out_size)
    return ViewPair(va, vb, la, lb)


def map_augment(fn, items):
    """Apply ``fn`` to each item in order; each item carries its own
    RngStream, so no item's output depends on another's."""
    return [fn(item) for item in items]


def finetune_augment(image, policy, rng, out_size=None):
    """One augmented training image under the supervised policy. The crop,
    flips and rotation are drawn in that order and applied as one resample
    (``_affine_view``), then the jitter."""
    image = np.asarray(image, dtype=np.float32)
    out_size = out_size or image.shape[:2]
    box = _crop_box(*image.shape[:2], rng, (policy.crop_scale_min, policy.crop_scale_max),
                    (policy.crop_ratio_min, policy.crop_ratio_max))
    flip_h = rng.random() < policy.hflip_p
    flip_v = rng.random() < policy.vflip_p
    angle = rng.uniform(-policy.rotation_degrees, policy.rotation_degrees)
    img = _affine_view(image, box, out_size, flip_h, flip_v,
                       angle if policy.rotation_degrees > 0 else 0.0)
    img, _ = color_jitter(img, rng, policy.jitter_brightness, policy.jitter_contrast)
    return _clip01(img).astype(np.float32, copy=False)
