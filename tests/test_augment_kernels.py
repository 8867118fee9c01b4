"""Augmentation kernels against their straightforward reference forms.

The reference bodies below are plain numpy formulations: a float64
bilinear resize by per-corner row gathers, a float64 ``ndimage.convolve1d``
blur followed by a flip, the HSV round trip with a channel-axis max/min,
float ``% 1.0`` and one boolean-mask scatter per hue sextant and channel,
and the fine-tuning view's crop, flips and rotation worked out one output
pixel at a time. ``rgb_to_hsv`` and ``hsv_to_rgb`` must reproduce theirs
bit for bit. Resize and blur are float32 matrix products, the fine-tuning
view is a float32 bilinear gather and the hue shift runs in float32, so
they, and the SimCLR and fine-tuning views built from them, are held to the
float64 forms within ``TOL``; the draw logs stay exact.
"""

import math

import numpy as np
import pytest
from scipy import ndimage

from hvt import augment as A
from hvt.data import generate_synthetic
from hvt.tensor import RngStream

# largest deviation allowed from a float64 reference: a few float32 roundings
# of values in [0, 1], through up to two matrix products per kernel
TOL = 1e-6


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
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return (top * (1 - fy) + bot * fy).astype(img.dtype)


def ref_gaussian_blur(img, sigma, kernel_size=23, hflip=False):
    half = kernel_size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    out = ndimage.convolve1d(img.astype(np.float64), k, axis=0, mode="reflect")
    out = ndimage.convolve1d(out, k, axis=1, mode="reflect")
    return (out[:, ::-1] if hflip else out).astype(img.dtype)


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
        img = ref_shift_hue(img, shift).astype(img.dtype)
    return img, log


def ref_shift_hue(img, shift):
    hsv = ref_rgb_to_hsv(img.astype(np.float64))
    hsv[..., 0] = (hsv[..., 0] + shift) % 1.0
    return A._clip01(ref_hsv_to_rgb(hsv))


def ref_affine_view(img, box, out_size, hflip=False, vflip=False, degrees=0.0):
    """The fine-tuning view of ``img`` in float64, one output pixel at a time:
    rotate the pixel about the output centre as ``ndimage.rotate`` does and
    clamp it to the output grid, flip it, map it through the crop's
    half-pixel resize clamped to the crop, and read the source bilinearly."""
    img = img.astype(np.float64)
    h, w = img.shape[:2]
    top, left, ch, cw = box
    out_h, out_w = out_size
    cy, cx = (out_h - 1) / 2, (out_w - 1) / 2
    cos, sin = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    out = np.empty((out_h, out_w, img.shape[2]))
    for y in range(out_h):
        for x in range(out_w):
            ry = min(max(cos * (y - cy) + sin * (x - cx) + cy, 0.0), out_h - 1.0)
            rx = min(max(-sin * (y - cy) + cos * (x - cx) + cx, 0.0), out_w - 1.0)
            if vflip:
                ry = out_h - 1 - ry
            if hflip:
                rx = out_w - 1 - rx
            sy = top + min(max((ry + 0.5) * ch / out_h - 0.5, 0.0), ch - 1.0)
            sx = left + min(max((rx + 0.5) * cw / out_w - 0.5, 0.0), cw - 1.0)
            y0, x0 = math.floor(sy), math.floor(sx)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[y, x] = ((1 - fy) * ((1 - fx) * img[y0, x0] + fx * img[y0, x1])
                         + fy * ((1 - fx) * img[y1, x0] + fx * img[y1, x1]))
    return out


def crop_ranges(policy):
    """A policy's crop (scale, ratio) ranges, as ``_crop_box`` takes them."""
    return ((policy.crop_scale_min, policy.crop_scale_max),
            (policy.crop_ratio_min, policy.crop_ratio_max))


def ref_finetune_augment(image, policy, rng, out_size=None):
    """``finetune_augment`` from the per-pixel view and the reference jitter."""
    out_size = out_size or image.shape[:2]
    box = A._crop_box(*image.shape[:2], rng, *crop_ranges(policy))
    flip_h = rng.random() < policy.hflip_p
    flip_v = rng.random() < policy.vflip_p
    angle = rng.uniform(-policy.rotation_degrees, policy.rotation_degrees)
    view = ref_affine_view(image, box, out_size, flip_h, flip_v,
                           angle if policy.rotation_degrees > 0 else 0.0)
    view, _ = ref_color_jitter(view, rng, policy.jitter_brightness,
                               policy.jitter_contrast)
    return np.clip(view, 0.0, 1.0)


def two_pass_finetune_augment(image, policy, rng, out_size=None):
    """The supervised view as two resamplings, in the same draw order: the
    crop resized, flipped copies, then ``ndimage.rotate`` of the result."""
    image = np.asarray(image, dtype=np.float32)
    out_size = out_size or image.shape[:2]
    img, _ = A.random_resized_crop(image, rng, *crop_ranges(policy), out_size)
    if rng.random() < policy.hflip_p:
        img = img[:, ::-1]
    if rng.random() < policy.vflip_p:
        img = img[::-1]
    angle = rng.uniform(-policy.rotation_degrees, policy.rotation_degrees)
    if policy.rotation_degrees > 0:
        img = ndimage.rotate(img, angle, reshape=False, order=1, mode="nearest")
    img, _ = A.color_jitter(img, rng, policy.jitter_brightness, policy.jitter_contrast)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


class RecordingStream:
    """Wraps an ``RngStream`` and records every draw: (method, args, kwargs,
    result)."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def __getattr__(self, name):
        fn = getattr(self.inner, name)

        def draw(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls.append((name, args, kwargs, out))
            return out
        return draw


def use_reference_kernels(monkeypatch):
    """Swap the reference kernels into ``hvt.augment`` for one test."""
    monkeypatch.setattr(A, "resize_bilinear", ref_resize_bilinear)
    monkeypatch.setattr(A, "color_jitter", ref_color_jitter)
    monkeypatch.setattr(A, "gaussian_blur", ref_gaussian_blur)


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


def laid_out(img, layout):
    """``img`` with the same values in another memory layout: C order, a crop
    of a larger array (strided rows), channel-planar (what a resize returns),
    or reversed on both axes (negative strides)."""
    if layout == "c":
        return np.ascontiguousarray(img)
    if layout == "crop":
        h, w, c = img.shape
        big = np.zeros((h + 3, w + 5, c), img.dtype)
        big[2:2 + h, 1:1 + w] = img
        return big[2:2 + h, 1:1 + w]
    if layout == "planar":
        return np.ascontiguousarray(img.transpose(2, 0, 1)).transpose(1, 2, 0)
    return np.ascontiguousarray(img[::-1, ::-1])[::-1, ::-1]


LAYOUTS = ["c", "crop", "planar", "reversed"]


def max_err(got, want):
    return float(np.abs(got.astype(np.float64) - want).max())


# ----------------------------------------------------------------------
# kernels

class TestBitIdenticalToReference:
    """The HSV pair and the stacked resize bit for bit; the matrix-product
    kernels and the views built from them within ``TOL``, draw logs exact."""

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
        got = A.resize_bilinear(img, *out)
        assert got.dtype == np.float32 and got.shape == out + (3,)
        assert max_err(got, ref_resize_bilinear(img.astype(np.float64), *out)) <= TOL

    @pytest.mark.parametrize("shape,out", [((56, 56), (64, 64)), ((17, 23), (32, 32)),
                                           ((64, 64), (24, 40))])
    def test_resize_bilinear_stack_matches_single_calls(self, shape, out):
        stack = np.random.default_rng(3).random((5,) + shape + (3,)).astype(np.float32)
        got = A.resize_bilinear(stack, *out)
        assert got.shape == (5,) + out + (3,)
        for g, img in zip(got, stack):
            assert np.array_equal(g, A.resize_bilinear(img, *out))

    def test_color_jitter_with_wrapping_hue_shifts(self):
        imgs = np.concatenate([tricky_images(6, size=64, seed=3), desk_images(6)])
        wrapped_below = wrapped_above = False
        for i, img in enumerate(imgs):
            got, log = A.color_jitter(img, RngStream(7, i), 0.4, 0.4, 0.4, 0.5)
            want, ref_log = ref_color_jitter(img, RngStream(7, i), 0.4, 0.4, 0.4, 0.5)
            assert log == ref_log
            assert got.dtype == np.float32 and max_err(got, want) <= TOL
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
            assert g.params_a == w.params_a and g.params_b == w.params_b
            assert max_err(g.view_a, w.view_a) <= TOL
            assert max_err(g.view_b, w.view_b) <= TOL
        # both flip branches ran
        assert {g.params_a["hflip"] for g in got} == {False, True}

    def test_finetune_augment(self):
        # desk and tie-heavy images at the model size, and non-square
        # sources to a non-square output
        policy = A.FinetunePolicy()
        cases = [(img, None) for img in desk_images(4)]
        cases += [(img, None) for img in tricky_images(2, size=48, seed=8)]
        rect = np.random.default_rng(9).random((3, 37, 52, 3)).astype(np.float32)
        cases += [(img, (29, 41)) for img in rect]
        flips, angles = set(), []
        for i, (img, out) in enumerate(cases):
            rec = RecordingStream(RngStream(13, i))
            got = A.finetune_augment(img, policy, rec, out_size=out)
            want = ref_finetune_augment(img, policy, RngStream(13, i), out_size=out)
            assert got.dtype == np.float32 and got.shape == want.shape
            assert max_err(got, want) <= TOL
            (_, _, _, h), (_, _, _, v), (_, _, _, angle) = rec.calls[-7:-4]
            flips |= {(h < policy.hflip_p, v < policy.vflip_p)}
            angles.append(angle)
        # every flip combination ran, with rotations both ways
        assert len(flips) == 4
        assert min(angles) < -5 and max(angles) > 5


class TestMatrixKernels:
    """Resize, blur and the hue shift against float64 references, in the
    memory layouts the pipelines hand them (C order is also covered above)."""

    SIGMAS = np.concatenate([np.linspace(0.1, 2.0, 12), np.linspace(0.5, 0.85, 8)])

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", [(64, 64), (17, 23), (40, 64), (5, 8)])
    def test_gaussian_blur(self, shape, layout):
        img = np.random.default_rng(20).random(shape + (3,)).astype(np.float32)
        for sigma in self.SIGMAS:
            for flip in (False, True):
                got = A.gaussian_blur(laid_out(img, layout), sigma, hflip=flip)
                assert got.dtype == np.float32 and got.shape == img.shape
                assert max_err(got, ref_gaussian_blur(img.astype(np.float64),
                                                      sigma, hflip=flip)) <= TOL

    def test_blur_matrix_has_no_subnormals(self):
        tiny = np.finfo(np.float32).tiny
        raw_subnormals = 0
        for n in (64, 23, 8):
            for sigma in np.linspace(0.1, 2.0, 381):
                k = A._gaussian_kernel(sigma, 23)
                m = A._blur_matrix(n, k)
                assert not ((m != 0) & (np.abs(m) < tiny)).any(), (n, sigma)
                raw = k.astype(np.float32)
                raw_subnormals += int(((raw != 0) & (raw < tiny)).sum())
        # without the flush, narrow kernels do put subnormals in the band
        assert raw_subnormals > 0

    @pytest.mark.parametrize("layout", LAYOUTS[1:])
    @pytest.mark.parametrize("shape,out", [((17, 23), (32, 32)), ((64, 64), (24, 40)),
                                           ((2, 2), (9, 5)), ((40, 30), (64, 64))])
    def test_resize_bilinear_other_layouts(self, shape, out, layout):
        img = np.random.default_rng(21).random(shape + (3,)).astype(np.float32)
        got = A.resize_bilinear(laid_out(img, layout), *out)
        assert got.dtype == np.float32 and got.shape == out + (3,)
        assert max_err(got, ref_resize_bilinear(img.astype(np.float64), *out)) <= TOL

    @pytest.mark.parametrize("shape,out", [((56, 56), (64, 64)), ((17, 23), (9, 5))])
    def test_resize_bilinear_stack(self, shape, out):
        stack = np.random.default_rng(22).random((2, 5) + shape + (3,)).astype(np.float32)
        got = A.resize_bilinear(stack, *out)
        assert got.shape == (2, 5) + out + (3,)
        for g, img in zip(got.reshape(-1, *out, 3), stack.reshape(-1, *shape, 3)):
            assert max_err(g, ref_resize_bilinear(img.astype(np.float64), *out)) <= TOL

    @pytest.mark.parametrize("layout", ["c", "planar"])
    def test_shift_hue(self, layout):
        imgs = tricky_images(4, size=32, seed=23)
        shifts = [-0.5, -0.37, -1 / 6, -1e-9, 0.0, 1e-9, 0.05, 1 / 6, 0.41, 0.5]
        wrapped_below = wrapped_above = False
        for img in imgs:
            hue = ref_rgb_to_hsv(img.astype(np.float64))[..., 0]
            top = img.max(axis=-1, keepdims=True)
            for shift in shifts:
                got = A._shift_hue(laid_out(img, layout), shift)
                assert got.dtype == np.float32
                assert max_err(got, ref_shift_hue(img, shift)) <= TOL
                # every channel is a pixel's max less at most that max: no clip
                assert (got >= 0).all() and (got <= top).all()
                wrapped_below |= bool((hue + shift < 0).any())
                wrapped_above |= bool((hue + shift >= 1).any())
        assert wrapped_below and wrapped_above


class TestFinetuneView:
    """The fine-tuning view's crop, flips and rotation as one bilinear gather
    (``_affine_view``), against its per-pixel float64 form, ``ndimage.rotate``
    and the crop resize; its draws, against the two-pass form's."""

    # (flip_h, flip_v, degrees) per box: no flip or turn, each flip alone
    # with either limit of the turn, both flips, and turns in between
    MOVES = [(False, False, 0.0), (True, False, 15.0), (False, True, -15.0),
             (True, True, 7.3), (False, False, -11.1), (True, True, 0.0)]

    @staticmethod
    def boxes(h, w):
        """Full image, interior, touching the bottom-right corner, and the
        centred fallback box that ``_crop_box`` takes when no proposal fits."""
        fallback = A._crop_box(h, w, RngStream(0), (1.0, 1.0), (2.5, 3.0))
        return [(0, 0, h, w), (2, 3, h - 5, w - 7), (h - 9, w - 6, 9, 6), fallback]

    @pytest.mark.parametrize("shape,out", [((48, 48), (48, 48)), ((30, 47), (24, 36)),
                                           ((21, 16), (32, 40))])
    def test_against_per_pixel_reference(self, shape, out):
        img = np.random.default_rng(30).random(shape + (3,)).astype(np.float32)
        for box in self.boxes(*shape):
            for flip_h, flip_v, degrees in self.MOVES:
                got = A._affine_view(img, box, out, flip_h, flip_v, degrees)
                assert got.dtype == np.float32 and got.shape == out + (3,)
                want = ref_affine_view(img, box, out, flip_h, flip_v, degrees)
                assert max_err(got, want) <= TOL, (box, flip_h, flip_v, degrees)

    def test_fallback_box_is_centred(self):
        # no proposal can fit a 2.5-3.0 aspect at full area of a 30x47 image
        rec = RecordingStream(RngStream(0))
        assert A._crop_box(30, 47, rec, (1.0, 1.0), (2.5, 3.0)) == (5, 0, 19, 47)
        assert [c[0] for c in rec.calls] == ["uniform"] * 20

    @pytest.mark.parametrize("shape", [(64, 64), (17, 23), (40, 31)])
    def test_rotate_matches_ndimage(self, shape):
        img = np.random.default_rng(31).random(shape + (3,)).astype(np.float32)
        for degrees in (0.0, 15.0, -15.0, 7.3, -33.0, 90.0):
            got = A.rotate(img, degrees)
            want = ndimage.rotate(img.astype(np.float64), degrees, reshape=False,
                                  order=1, mode="nearest")
            assert got.dtype == np.float32 and got.shape == img.shape
            assert max_err(got, want) <= TOL, degrees

    @pytest.mark.parametrize("shape,out", [((64, 64), (64, 64)), ((30, 47), (24, 36))])
    def test_no_rotation_is_crop_resize_then_flips(self, shape, out):
        img = np.random.default_rng(32).random(shape + (3,)).astype(np.float32)
        for i, j, ch, cw in self.boxes(*shape):
            resized = A.resize_bilinear(img[i:i + ch, j:j + cw], *out)
            for flip_h, flip_v in ((False, False), (True, False), (False, True), (True, True)):
                want = resized[::-1 if flip_v else 1, ::-1 if flip_h else 1]
                got = A._affine_view(img, (i, j, ch, cw), out, flip_h, flip_v, 0.0)
                assert max_err(got, want) <= TOL
        # the whole view too, under a policy that does not rotate
        policy = A.FinetunePolicy(rotation_degrees=0.0)
        for k, src in enumerate(desk_images(4)):
            got = A.finetune_augment(src, policy, RngStream(33, k))
            want = two_pass_finetune_augment(src, policy, RngStream(33, k))
            assert max_err(got, want) <= TOL

    @pytest.mark.parametrize("policy", [
        A.FinetunePolicy(),
        # no crop proposal fits: ten of them, then the centred fallback box
        A.FinetunePolicy(crop_scale_min=1.0, crop_ratio_min=2.5, crop_ratio_max=3.0),
    ], ids=["proposal", "fallback"])
    def test_draw_order(self, policy):
        for k, src in enumerate(desk_images(6)):
            fused, two_pass = RecordingStream(RngStream(34, k)), RecordingStream(RngStream(34, k))
            A.finetune_augment(src, policy, fused)
            two_pass_finetune_augment(src, policy, two_pass)
            assert fused.calls == two_pass.calls
            # crop proposals, then hflip, vflip, angle, brightness, contrast
            # (and the jitter's saturation and hue factors, drawn at strength 0)
            names = [(name, args) for name, args, _, _ in fused.calls]
            s, r = crop_ranges(policy)
            r = (np.log(r[0]), np.log(r[1]))
            deg, b, c = (policy.rotation_degrees, policy.jitter_brightness,
                         policy.jitter_contrast)
            assert names[-7:] == [("random", ()), ("random", ()), ("uniform", (-deg, deg)),
                                  ("uniform", (1 - b, 1 + b)), ("uniform", (1 - c, 1 + c)),
                                  ("uniform", (1.0, 1.0)), ("uniform", (-0.0, 0.0))]
            crop = names[:-7]
            fallback = policy.crop_scale_min == 1.0
            if not fallback:
                assert [name for name, _ in crop[-2:]] == ["integers", "integers"]
                crop = crop[:-2]
            assert crop == [("uniform", s), ("uniform", r)] * (10 if fallback else len(crop) // 2)

    def test_crop_box_matches_random_resized_crop(self):
        for policy in (A.SimclrPolicy(), A.FinetunePolicy(),
                       A.FinetunePolicy(crop_scale_min=1.0, crop_ratio_min=2.5,
                                        crop_ratio_max=3.0)):
            for k, img in enumerate(desk_images(6)):
                a, b = RecordingStream(RngStream(35, k)), RecordingStream(RngStream(35, k))
                box = A._crop_box(*img.shape[:2], a, *crop_ranges(policy))
                _, want = A.random_resized_crop(img, b, *crop_ranges(policy), (32, 32))
                assert box == want and a.calls == b.calls
