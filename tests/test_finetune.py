"""Losses, batch mixing, fine-tune loop contracts, TTA."""

import math

import numpy as np
import pytest

from hvt import finetune as F
from hvt import tensor as T
from hvt.data import generate_synthetic, stratified_split
from hvt.errors import InputError
from hvt.model import HVTConfig, init_params
from hvt.tensor import RngStream, Tensor
from helpers import check_grads


def softmax_np(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestFocalLoss:
    def test_perfect_prediction_is_zero(self):
        probs = Tensor(np.array([[0.0, 1.0, 0.0]]), dtype=np.float64)
        assert float(F.focal_loss(probs, np.array([1])).numpy()) == 0.0

    def test_gamma_zero_alpha_one_equals_ce(self):
        rng = np.random.default_rng(0)
        probs_np = softmax_np(rng.normal(size=(5, 7)))
        targets = rng.integers(0, 7, size=5)
        probs = Tensor(probs_np, dtype=np.float64)
        fl = float(F.focal_loss(probs, targets, alpha=1.0, gamma=0.0).numpy())
        ce = float(F.cross_entropy(probs, targets).numpy())
        assert abs(fl - ce) < 1e-7

    def test_seven_class_half_confidence_value(self):
        # single sample, p_true = 0.5: (1/7) * 0.25 * ln 2
        probs = np.full((1, 7), 0.5 / 6.0)
        probs[0, 3] = 0.5
        got = float(F.focal_loss(Tensor(probs, dtype=np.float64), np.array([3])).numpy())
        assert abs(got - 0.25 * math.log(2.0) / 7.0) < 1e-6
        assert abs(got - 0.024755) < 1e-6

    def test_soft_targets_linear(self):
        rng = np.random.default_rng(1)
        probs = Tensor(softmax_np(rng.normal(size=(4, 3))), dtype=np.float64)
        hard_a = float(F.focal_loss(probs, np.array([0, 1, 2, 0])).numpy())
        hard_b = float(F.focal_loss(probs, np.array([1, 2, 0, 1])).numpy())
        soft = np.zeros((4, 3))
        soft[np.arange(4), [0, 1, 2, 0]] = 0.3
        soft[np.arange(4), [1, 2, 0, 1]] = 0.7
        mixed = float(F.focal_loss(probs, soft).numpy())
        assert abs(mixed - (0.3 * hard_a + 0.7 * hard_b)) < 1e-12

    def test_rejects_non_probabilities(self):
        with pytest.raises(InputError):
            F.focal_loss(Tensor(np.ones((2, 3)), dtype=np.float64), np.array([0, 1]))


class TestCombinedLoss:
    def test_one_hot_perfect_is_exactly_zero(self):
        logits = Tensor(np.array([[1e4, 0.0, 0.0], [0.0, 1e4, 0.0]]), dtype=np.float64)
        loss = F.combined_loss(logits, np.array([0, 1]))
        assert float(loss.numpy()) == 0.0

    def test_gamma_zero_collapses_to_ce(self):
        rng = np.random.default_rng(2)
        logits_np = rng.normal(size=(6, 7))
        targets = rng.integers(0, 7, size=6)
        loss = F.combined_loss(Tensor(logits_np, dtype=np.float64), targets,
                               alpha=1.0, gamma=0.0)
        probs = Tensor(softmax_np(logits_np), dtype=np.float64)
        ce = float(F.cross_entropy(probs, targets).numpy())
        assert abs(float(loss.numpy()) - ce) < 1e-9

    def test_nonnegative_and_zero_only_at_one_hot(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = Tensor(rng.normal(size=(3, 5)) * 3, dtype=np.float64)
            val = float(F.combined_loss(logits, rng.integers(0, 5, size=3)).numpy())
            assert val > 0.0

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(4, 5))
        targets = rng.integers(0, 5, size=4)

        def build(z):
            t = Tensor(z, requires_grad=True, dtype=np.float64)
            return F.combined_loss(t, targets), [t]

        check_grads(build, [logits])


class TestMixing:
    @staticmethod
    def _batch(seed=0, n=6, hw=8):
        rng = np.random.default_rng(seed)
        x = rng.random((n, hw, hw, 3), dtype=np.float32)
        y = F.to_onehot(rng.integers(0, 4, size=n), 4)
        return x, y

    def test_mix_batch_endpoints(self):
        x, y = self._batch()
        perm = np.roll(np.arange(len(x)), 1)
        x1, y1 = F.mix_batch(x, y, 1.0, perm)
        np.testing.assert_array_equal(x1, x)
        np.testing.assert_array_equal(y1, y)
        x0, y0 = F.mix_batch(x, y, 0.0, perm)
        np.testing.assert_array_equal(x0, x[perm])
        np.testing.assert_array_equal(y0, y[perm])

    def test_mixed_labels_stay_on_simplex(self):
        x, y = self._batch(1)
        rng = RngStream(0)
        for i in range(20):
            xm, ym, lam = F.mixup(x, y, alpha=0.2, p=1.0, rng=rng.child(i))
            np.testing.assert_allclose(ym.sum(axis=1), 1.0, atol=1e-6)
            assert xm.shape == x.shape

    def test_cutmix_degenerate_masks(self):
        x, y = self._batch(2)
        perm = np.roll(np.arange(len(x)), 1)
        xm, ym, info = F.cutmix_apply(x, y, 1.0, (4, 4), perm)  # zero-area cut
        np.testing.assert_array_equal(xm, x)
        np.testing.assert_array_equal(ym, y)
        assert info.area_fraction == 1.0
        xm, ym, info = F.cutmix_apply(x, y, 0.0, (4, 4), perm)  # full-image cut
        assert info.area_fraction == 0.0
        np.testing.assert_array_equal(xm, x[perm])
        np.testing.assert_array_equal(ym, y[perm])

    def test_cutmix_label_weight_equals_mask_mean(self):
        x, y = self._batch(3)
        rng = RngStream(7)
        for i in range(20):
            xm, ym, info = F.cutmix(x, y, alpha=1.0, p=1.0, rng=rng.child(i))
            lam = info.area_fraction
            assert lam == pytest.approx(float(info.mask.mean()))
            np.testing.assert_allclose(ym.sum(axis=1), 1.0, atol=1e-6)

    def test_cutmix_pastes_partner_rectangle(self):
        x = np.zeros((2, 8, 8, 3), dtype=np.float32)
        x[1] = 1.0
        y = F.to_onehot(np.array([0, 1]), 2)
        perm = np.array([1, 0])
        xm, ym, info = F.cutmix_apply(x, y, 0.75, (4, 4), perm)
        inside = xm[0][info.mask == 0.0]
        outside = xm[0][info.mask == 1.0]
        assert np.all(inside == 1.0) and np.all(outside == 0.0)
        assert ym[0, 0] == pytest.approx(info.area_fraction)

    def test_exclusive_mixing_cutmix_first(self):
        x, y = self._batch(4)
        # force cutmix to fire: p=1 consumes only the cutmix roll
        xm, ym = F.apply_batch_mixing(x, y, RngStream(1), mixup_p=1.0,
                                      mixup_alpha=0.2, cutmix_p=1.0,
                                      cutmix_alpha=1.0)
        assert xm.shape == x.shape

    def test_small_batch_rejected(self):
        x, y = self._batch(5, n=1)
        with pytest.raises(InputError):
            F.mixup(x, y, rng=RngStream(0))


def _desk_data(seed=0, n_per_class=4):
    labeled, _ = generate_synthetic(n_per_class, size=(64, 64), seed=seed)
    return stratified_split(labeled, (0.5, 0.25, 0.25), seed=seed)


def _fast_settings(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("batch_size", 7)
    kw.setdefault("accum_steps", 1)
    kw.setdefault("lr_max", 1e-3)
    kw.setdefault("lr_min", 1e-5)
    kw.setdefault("freeze_epochs", 1)
    kw.setdefault("ema_decay", 0.99)
    kw.setdefault("policy", None)
    return F.FinetuneSettings(**kw)


class TestFinetuneLoop:
    def test_frozen_backbone_bit_identical_then_trains(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(0))
        before = {k: t.numpy().copy() for k, t in params.items()}
        train, val, _ = _desk_data(0)
        settings = _fast_settings(epochs=1, freeze_epochs=1)
        F.finetune_loop(params, train, val, cfg, settings, RngStream(1))
        for k in params:
            if k.startswith("head."):
                assert not np.array_equal(params[k].numpy(), before[k])
            else:
                assert np.array_equal(params[k].numpy(), before[k]), k

    def test_same_seed_identical_val_curves(self):
        train, val, _ = _desk_data(1)
        curves = []
        for _ in range(2):
            cfg = HVTConfig.tiny(drop_path_max=0.1)
            params = init_params(cfg, RngStream(2))
            res = F.finetune_loop(params, train, val, cfg,
                                  _fast_settings(policy=F.FinetunePolicy()),
                                  RngStream(3))
            curves.append([(r["train_loss"], r["val_acc"], r["val_acc_ema"])
                           for r in res.log])
        assert curves[0] == curves[1]

    def test_best_checkpoint_and_logs(self, tmp_path):
        train, val, _ = _desk_data(3)
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(6))
        res = F.finetune_loop(params, train, val, cfg, _fast_settings(),
                              RngStream(7), out_dir=str(tmp_path))
        assert (tmp_path / "finetune_log.csv").exists()
        assert (tmp_path / "finetune_best.ckpt").exists()
        assert res.best_epoch >= 1
        assert set(res.best_params) == set(params)
        header = (tmp_path / "finetune_log.csv").read_text().splitlines()[0]
        assert header == "epoch,lr,train_loss,val_acc,val_acc_ema"

    def test_reports_both_raw_and_ema_accuracy(self):
        train, val, _ = _desk_data(4)
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(8))
        res = F.finetune_loop(params, train, val, cfg, _fast_settings(epochs=1),
                              RngStream(9))
        row = res.log[0]
        assert {"val_acc", "val_acc_ema"} <= set(row)

    def test_ema_swap_restores_training_weights(self):
        train, val, _ = _desk_data(5)
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(10))
        res = F.finetune_loop(params, train, val, cfg, _fast_settings(epochs=1),
                              RngStream(11))
        snap = {k: t.numpy().copy() for k, t in params.items()}
        from hvt.optim import ema_weights
        with ema_weights(res.ema, params):
            pass
        for k in params:
            assert np.array_equal(params[k].numpy(), snap[k])

    def test_empty_split_rejected(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(12))
        train, val, _ = _desk_data(6)
        import hvt.data as D
        empty = D.ImageContainer(np.zeros((0, 64, 64, 3), np.float32),
                                 np.zeros(0, np.int32))
        with pytest.raises(InputError):
            F.finetune_loop(params, empty, val, cfg, _fast_settings(), RngStream(0))


class TestTTA:
    def test_constant_model_equals_single_prediction(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(0))
        for k, t in params.items():  # zero weights: logits constant
            if not k.endswith("gain"):
                t.data = np.zeros_like(t.data)
        img = np.random.default_rng(0).random((64, 64, 3), dtype=np.float32)
        tta = F.tta_predict(img, params, cfg)
        np.testing.assert_allclose(tta, np.full(7, 1 / 7), atol=1e-6)

    def test_output_on_simplex(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(1))
        img = np.random.default_rng(1).random((64, 64, 3), dtype=np.float32)
        probs = F.tta_predict(img, params, cfg)
        assert probs.shape == (7,)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert np.all(probs >= 0)

    def test_symmetric_image_flip_pairs_coincide(self):
        rng = np.random.default_rng(2)
        half = rng.random((64, 32, 3), dtype=np.float32)
        img = np.concatenate([half, half[:, ::-1]], axis=1)  # mirror symmetric
        variants = F.tta_inputs(img, crop_ratio=0.875)
        # flipped corner crops coincide with their mirror-partner crops
        np.testing.assert_allclose(variants[5], variants[1], atol=1e-6)
        np.testing.assert_allclose(variants[6], variants[0], atol=1e-6)
        np.testing.assert_allclose(variants[7], variants[3], atol=1e-6)
        np.testing.assert_allclose(variants[8], variants[2], atol=1e-6)
        np.testing.assert_allclose(variants[9], variants[4], atol=1e-6)
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(3))
        probs = F.predict_proba(np.stack(variants), params, cfg)
        for a, b in ((5, 1), (6, 0), (7, 3), (8, 2), (9, 4)):
            np.testing.assert_allclose(probs[a], probs[b], atol=1e-5)

    def test_standardizes_with_config_stats(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0, norm_mean=(0.3, 0.4, 0.5),
                             norm_std=(0.2, 0.1, 0.3))
        params = init_params(cfg, RngStream(5))
        img = np.random.default_rng(5).random((64, 64, 3), dtype=np.float32)
        want = F.predict_proba(np.stack(F.tta_inputs(img)), params, cfg).mean(axis=0)
        assert np.array_equal(F.tta_predict(img, params, cfg), want)
        assert not np.array_equal(F.tta_predict(img, params, HVTConfig.tiny(drop_path_max=0.0)),
                                  want)

    def test_too_small_image_rejected(self):
        cfg = HVTConfig.tiny(drop_path_max=0.0)
        params = init_params(cfg, RngStream(4))
        with pytest.raises(InputError):
            F.tta_predict(np.zeros((0, 0, 3), np.float32), params, cfg)
