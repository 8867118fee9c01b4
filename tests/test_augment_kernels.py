"""Augmentation kernels against their straightforward reference forms.

The reference bodies below are the plain numpy formulations the kernels in
``hvt.augment`` replaced (a channel-axis max/min, float ``% 1.0``, one
boolean-mask scatter per hue sextant and channel, and per-corner row
gathers). The fast kernels must reproduce them bit for bit, so a fixed
seed keeps giving the same views and the same training run.
"""

import numpy as np
import pytest

from hvt import augment as A
from hvt.data import generate_synthetic
from hvt.tensor import RngStream


# ----------------------------------------------------------------------
# test-only reference kernels

def ref_resize_bilinear(img, out_h, out_w):
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).astype(np.float32)[:, None, None]
    fx = (xs - x0).astype(np.float32)[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return (top * (1 - fy) + bot * fy).astype(img.dtype)


def ref_rgb_to_hsv(img):
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    maxc = img.max(axis=-1)
    minc = img.min(axis=-1)
    v = maxc
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    dz = np.where(delta > 0, delta, 1.0)
    rc = (maxc - r) / dz
    gc = (maxc - g) / dz
    bc = (maxc - b) / dz
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(delta > 0, (h / 6.0) % 1.0, 0.0)
    return np.stack([h, s, v], axis=-1)


def ref_hsv_to_rgb(hsv):
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(int) % 6
    out = np.empty(hsv.shape, dtype=hsv.dtype)
    for idx, (rr, gg, bb) in enumerate(((v, t, p), (q, v, p), (p, v, t),
                                        (p, q, v), (t, p, v), (v, p, q))):
        mask = i == idx
        out[..., 0][mask] = rr[mask]
        out[..., 1][mask] = gg[mask]
        out[..., 2][mask] = bb[mask]
    return out


def ref_color_jitter(img, rng, brightness=0.0, contrast=0.0, saturation=0.0, hue=0.0):
    log = {}
    f = rng.uniform(max(0.0, 1 - brightness), 1 + brightness)
    log["brightness"] = f
    img = A._clip01(img * img.dtype.type(f))
    f = rng.uniform(max(0.0, 1 - contrast), 1 + contrast)
    log["contrast"] = f
    mean = A.to_grayscale(img).mean(dtype=np.float64)
    img = A._clip01(f * img + (1 - f) * img.dtype.type(mean)).astype(img.dtype)
    f = rng.uniform(max(0.0, 1 - saturation), 1 + saturation)
    log["saturation"] = f
    if saturation > 0:
        img = A._clip01(f * img + (1 - f) * A.to_grayscale(img)).astype(img.dtype)
    shift = rng.uniform(-hue, hue)
    log["hue"] = shift
    if hue > 0:
        hsv = ref_rgb_to_hsv(img.astype(np.float64))
        hsv[..., 0] = (hsv[..., 0] + shift) % 1.0
        img = A._clip01(ref_hsv_to_rgb(hsv)).astype(img.dtype)
    return img, log


def use_reference_kernels(monkeypatch):
    """Swap the reference kernels into ``hvt.augment`` for one test."""
    monkeypatch.setattr(A, "resize_bilinear", ref_resize_bilinear)
    monkeypatch.setattr(A, "color_jitter", ref_color_jitter)


# ----------------------------------------------------------------------
# inputs

def tricky_images(n, size=32, seed=0, dtype=np.float32):
    """Random images in which whole pixel blocks hit every tie branch of
    the hue formula: grey pixels, r == g as the maximum, g == b as the
    maximum, r == b as the maximum, and pure black and white."""
    rng = np.random.default_rng(seed)
    imgs = rng.random((n, size, size, 3)).astype(dtype)
    flat = imgs.reshape(n, -1, 3)
    k = flat.shape[1] // 8
    flat[:, :k] = flat[:, :k, :1]                            # grey
    flat[:, k:2 * k, 1] = flat[:, k:2 * k, 0]                # r == g max
    flat[:, k:2 * k, 2] = flat[:, k:2 * k, 0] * 0.5
    flat[:, 2 * k:3 * k, 2] = flat[:, 2 * k:3 * k, 1]        # g == b max
    flat[:, 2 * k:3 * k, 0] = flat[:, 2 * k:3 * k, 1] * 0.5
    flat[:, 3 * k:4 * k, 2] = flat[:, 3 * k:4 * k, 0]        # r == b max
    flat[:, 3 * k:4 * k, 1] = flat[:, 3 * k:4 * k, 0] * 0.5
    flat[:, 4 * k] = 0.0
    flat[:, 4 * k + 1] = 1.0
    return imgs


def desk_images(n):
    labeled, _ = generate_synthetic(max(1, n // 7 + 1), size=(64, 64), seed=5)
    return labeled.images[:n]


# ----------------------------------------------------------------------
# kernels

class TestBitIdenticalToReference:
    def test_fraction_matches_float_remainder_on_hue_ranges(self):
        eps = np.finfo(np.float64).eps
        edges = np.array([-1 / 6, -0.1, -1e-300, -0.0, 0.0, 1e-300, 0.5,
                          1 - eps / 2, 1 - eps, 1.0, 1 + eps, 1.1])
        x = np.concatenate([edges, np.linspace(-0.999, 1.999, 20011)])
        assert np.array_equal(x % 1.0, x - np.floor(x))
        assert not np.signbit(x - np.floor(x)).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rgb_to_hsv(self, dtype):
        imgs = tricky_images(4, dtype=dtype)
        got, want = A.rgb_to_hsv(imgs), ref_rgb_to_hsv(imgs)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hsv_to_rgb(self, dtype):
        rng = np.random.default_rng(1)
        hsv = rng.random((4, 32, 32, 3)).astype(dtype)
        # every sextant boundary and the wrapped value 1.0 itself
        hsv[0, 0, :7, 0] = np.arange(7) / 6.0
        hsv = np.concatenate([hsv, ref_rgb_to_hsv(tricky_images(2, dtype=dtype))])
        got, want = A.hsv_to_rgb(hsv), ref_hsv_to_rgb(hsv)
        assert got.dtype == want.dtype and got.strides == want.strides
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape,out", [((32, 32), (32, 32)), ((17, 23), (32, 32)),
                                           ((64, 64), (24, 40)), ((2, 2), (9, 5))])
    def test_resize_bilinear(self, shape, out):
        img = np.random.default_rng(2).random(shape + (3,)).astype(np.float32)
        got, want = A.resize_bilinear(img, *out), ref_resize_bilinear(img, *out)
        assert np.array_equal(got, want)
        # memory order too: later reductions sum in it
        assert got.strides == want.strides

    @pytest.mark.parametrize("shape,out", [((56, 56), (64, 64)), ((17, 23), (32, 32)),
                                           ((64, 64), (24, 40))])
    def test_resize_bilinear_stack_matches_single_calls(self, shape, out):
        stack = np.random.default_rng(3).random((5,) + shape + (3,)).astype(np.float32)
        got = A.resize_bilinear(stack, *out)
        assert got.shape == (5,) + out + (3,)
        for g, img in zip(got, stack):
            assert np.array_equal(g, ref_resize_bilinear(img, *out))

    def test_color_jitter_with_wrapping_hue_shifts(self):
        imgs = np.concatenate([tricky_images(6, size=64, seed=3), desk_images(6)])
        wrapped_below = wrapped_above = False
        for i, img in enumerate(imgs):
            got, log = A.color_jitter(img, RngStream(7, i), 0.4, 0.4, 0.4, 0.5)
            want, ref_log = ref_color_jitter(img, RngStream(7, i), 0.4, 0.4, 0.4, 0.5)
            assert log == ref_log
            assert np.array_equal(got, want)
            # the same draws with hue off stop just before the hue step
            before, _ = ref_color_jitter(img, RngStream(7, i), 0.4, 0.4, 0.4, 0.0)
            hues = ref_rgb_to_hsv(before.astype(np.float64))[..., 0] + log["hue"]
            wrapped_below |= bool((hues < 0).any())
            wrapped_above |= bool((hues >= 1).any())
        # the draws covered wraps below 0 and above 1
        assert wrapped_below and wrapped_above

    def test_simclr_views_and_logs(self, monkeypatch):
        imgs = np.concatenate([tricky_images(8, size=64, seed=4), desk_images(8)])
        policy = A.SimclrPolicy()
        got = [A.simclr_augment(img, policy, RngStream(11, i)) for i, img in enumerate(imgs)]
        use_reference_kernels(monkeypatch)
        want = [A.simclr_augment(img, policy, RngStream(11, i)) for i, img in enumerate(imgs)]
        for g, w in zip(got, want):
            assert np.array_equal(g.view_a, w.view_a)
            assert np.array_equal(g.view_b, w.view_b)
            assert g.params_a == w.params_a and g.params_b == w.params_b

    def test_finetune_augment(self, monkeypatch):
        imgs = desk_images(8)
        policy = A.FinetunePolicy()
        got = [A.finetune_augment(img, policy, RngStream(13, i)) for i, img in enumerate(imgs)]
        use_reference_kernels(monkeypatch)
        want = [A.finetune_augment(img, policy, RngStream(13, i)) for i, img in enumerate(imgs)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
