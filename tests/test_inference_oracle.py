"""The inference path against its composed reference forms.

The references below are the formulations the fused code replaced: a
``layer_norm`` built from about ten small nodes (mean, broadcast, subtract,
square, mean, shift, power, broadcast, multiply, affine), projections as a
matmul node followed by a separate ``+ bias`` node, a broadcast
per-channel ``normalize_images``, one resize call per five-crop (each
through the current ``resize_bilinear``, which the stacked call must match
bit for bit), and ``predict_proba`` as a softmax per forward batch. The fused code must reproduce them bit for bit, so a
checkpoint keeps giving the same predictions, calibration and rollout.
"""

import numpy as np
import pytest

from hvt import augment as A
from hvt import finetune as F
from hvt import model as M
from hvt import tensor as T
from hvt.model import HVTConfig, forward, init_params, normalize_images

_MATMUL = T.matmul


# ----------------------------------------------------------------------
# test-only references

def ref_layer_norm(x, gain, bias, eps=1e-5):
    gain, bias = T.as_tensor(gain), T.as_tensor(bias)
    mu = T.reduce(x, "mean", axis=-1, keepdims=True)
    centered = x - T.broadcast_to(mu, x.shape)
    var = T.reduce(centered * centered, "mean", axis=-1, keepdims=True)
    inv = T.power(T._shift(var, eps), -0.5)
    xhat = centered * T.broadcast_to(inv, x.shape)
    return xhat * gain + bias


def ref_matmul(a, b, bias=None):
    out = _MATMUL(a, b)
    return out if bias is None else out + bias


def ref_normalize_images(images, mean, std):
    mean = np.asarray(mean, dtype=np.float32)
    std = np.asarray(std, dtype=np.float32)
    return ((images - mean) / std).astype(np.float32)


def ref_five_crop(img, ratio=0.875):
    h, w = img.shape[:2]
    ch, cw = int(round(ratio * h)), int(round(ratio * w))
    anchors = [(0, 0), (0, w - cw), (h - ch, 0), (h - ch, w - cw),
               ((h - ch) // 2, (w - cw) // 2)]
    return [A.resize_bilinear(img[i:i + ch, j:j + cw], h, w) for i, j in anchors]


def ref_predict_proba(images, params, config, batch=64):
    out = []
    with T.no_grad():
        for start in range(0, len(images), batch):
            res = forward(images[start:start + batch], params, config)
            out.append(T.softmax(res.logits, axis=-1).numpy())
    return np.concatenate(out, axis=0)


def use_reference_engine(monkeypatch):
    monkeypatch.setattr(T, "layer_norm", ref_layer_norm)
    monkeypatch.setattr(T, "matmul", ref_matmul)
    monkeypatch.setattr(M, "normalize_images", ref_normalize_images)


def use_reference_inference(monkeypatch):
    use_reference_engine(monkeypatch)
    monkeypatch.setattr(F, "five_crop", ref_five_crop)


# ----------------------------------------------------------------------
# inputs

def desk_model(seed=5):
    """Desk parameters with every gain and bias moved off its init value,
    so the affine and bias terms take part."""
    config = HVTConfig.desk()
    params = init_params(config, T.RngStream(seed))
    rng = np.random.default_rng(seed)
    for p in params.values():
        p.data = (p.data + rng.normal(scale=0.05, size=p.shape)).astype(np.float32)
    return params, config


def images(n, seed=1):
    return np.random.default_rng(seed).random((n, 64, 64, 3)).astype(np.float32)


# ----------------------------------------------------------------------
# oracles

class TestInferenceBitIdentical:
    @pytest.mark.parametrize("batched", [True, False])
    def test_forward_logits_and_every_attention_block(self, monkeypatch, batched):
        params, config = desk_model()
        x = images(4) if batched else images(4)[0]
        with T.no_grad():
            got = forward(x, params, config, capture="all")
            use_reference_engine(monkeypatch)
            want = forward(x, params, config, capture="all")
        assert np.array_equal(got.logits.numpy(), want.logits.numpy())
        assert len(got.record) == len(want.record) == config.total_blocks
        for g, w in zip(got.record.blocks, want.record.blocks):
            assert g.shape == w.shape and np.array_equal(g, w)

    def test_tta_predict(self, monkeypatch):
        params, config = desk_model()
        imgs = images(3)
        got = [F.tta_predict(img, params, config) for img in imgs]
        use_reference_inference(monkeypatch)
        want = [F.tta_predict(img, params, config) for img in imgs]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestBatchedPrediction:
    @pytest.mark.parametrize("batch", [3, 64])
    def test_probabilities_are_the_softmax_per_batch(self, batch):
        params, config = desk_model()
        x = images(7)
        logits = F.predict_logits(x, params, config, batch=batch)
        with T.no_grad():
            want = forward(x[:batch], params, config).logits.numpy()
        assert logits.shape == (7, config.num_classes)
        assert np.array_equal(logits[:batch], want)
        assert np.array_equal(F.predict_proba(x, params, config, batch=batch),
                              ref_predict_proba(x, params, config, batch=batch))


class TestNormalizeImages:
    @pytest.mark.parametrize("shape", [(64, 64, 3), (5, 17, 23, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_broadcast_form(self, shape, dtype):
        x = np.random.default_rng(4).random(shape).astype(dtype)
        mean, std = np.array([0.485, 0.456, 0.406]), np.array([0.229, 0.224, 0.225])
        got = normalize_images(x, mean, std)
        want = ref_normalize_images(x, mean, std)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_input_untouched(self):
        x = images(2)
        before = x.copy()
        normalize_images(x, (0.5, 0.5, 0.5), (0.25, 0.25, 0.25))
        assert np.array_equal(x, before)
