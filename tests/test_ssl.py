"""Contrastive machinery: augmentation policy, NT-Xent, pre-training loop."""

import math

import numpy as np
import pytest

from hvt import augment as A
from hvt import ssl as S
from hvt.data import generate_synthetic
from hvt.errors import ConfigError, ContractError, InputError
from hvt.model import HVTConfig, init_params
from hvt.tensor import RngStream, Tensor
from helpers import check_grads


def naive_nt_xent(emb, pairing=None, tau=0.5):
    """Literal transcription of the loss: explicit double loop, no sharing
    with the implementation under test."""
    emb = np.asarray(emb, dtype=np.float64)
    n = emb.shape[0]
    if pairing is None:
        pairing = S.default_pairing(n)
    z = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    total = 0.0
    for i in range(n):
        j = int(pairing[i])
        num = math.exp(float(z[i] @ z[j]) / tau)
        den = sum(math.exp(float(z[i] @ z[k]) / tau) for k in range(n) if k != i)
        total += -math.log(num / den)
    return total / n


class TestCosineSim:
    def test_self_similarity(self):
        u = np.array([1.0, 2.0, -3.0])
        assert S.cosine_sim(u, u) == pytest.approx(1.0)

    def test_antiparallel(self):
        u = np.array([0.5, -2.0])
        assert S.cosine_sim(u, -u) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert S.cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractError):
            S.cosine_sim([0.0, 0.0], [1.0, 0.0])


class TestNTXent:
    def test_single_pair_is_exactly_zero(self):
        emb = Tensor(np.random.default_rng(0).normal(size=(2, 8)), dtype=np.float64)
        assert float(S.nt_xent_loss(emb).numpy()) == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for b in (1, 2, 3, 4):
            emb = rng.normal(size=(2 * b, 16))
            got = float(S.nt_xent_loss(Tensor(emb, dtype=np.float64)).numpy())
            assert abs(got - naive_nt_xent(emb)) < 1e-6

    def test_hand_chosen_unit_vectors(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0],
                        [np.sqrt(0.5), np.sqrt(0.5)], [-1.0, 0.0]])
        got = float(S.nt_xent_loss(Tensor(emb, dtype=np.float64)).numpy())
        assert abs(got - naive_nt_xent(emb)) < 1e-6

    def test_equal_similarities_give_log_2b_minus_1(self):
        for b in (2, 4, 8):
            emb = np.tile(np.array([0.3, -0.7, 0.1]), (2 * b, 1))
            got = float(S.nt_xent_loss(Tensor(emb, dtype=np.float64)).numpy())
            assert got == pytest.approx(math.log(2 * b - 1), abs=1e-9)

    def test_grad_vs_finite_differences(self):
        emb = np.random.default_rng(2).normal(size=(6, 5))

        def build(e):
            t = Tensor(e, requires_grad=True, dtype=np.float64)
            return S.nt_xent_loss(t), [t]

        check_grads(build, [emb])

    def test_symmetric_under_view_swap(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 7)), rng.normal(size=(3, 7))
        l1 = float(S.nt_xent_loss(Tensor(np.vstack([a, b]), dtype=np.float64)).numpy())
        l2 = float(S.nt_xent_loss(Tensor(np.vstack([b, a]), dtype=np.float64)).numpy())
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_invariant_to_common_rotation(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(8, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        l1 = float(S.nt_xent_loss(Tensor(emb, dtype=np.float64)).numpy())
        l2 = float(S.nt_xent_loss(Tensor(emb @ q, dtype=np.float64)).numpy())
        assert abs(l1 - l2) < 1e-6

    def test_loss_decreases_as_positives_align(self):
        # pair 0 lives in the (e0, e1) plane, pair 1 in (e2, e3): negatives
        # stay exactly orthogonal while theta varies.
        def batch(theta):
            return np.array([
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [np.cos(theta), np.sin(theta), 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ])

        losses = [float(S.nt_xent_loss(Tensor(batch(t), dtype=np.float64)).numpy())
                  for t in (1.2, 0.8, 0.4, 0.1)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_invalid_inputs(self):
        emb = Tensor(np.ones((4, 3)), dtype=np.float64)
        with pytest.raises(ConfigError):
            S.nt_xent_loss(emb, temperature=0.0)
        with pytest.raises(InputError):
            S.nt_xent_loss(Tensor(np.ones((3, 3)), dtype=np.float64))
        with pytest.raises(InputError):
            S.nt_xent_loss(emb, pairing=np.array([0, 1, 2, 3]))


class TestAugmentation:
    def test_deterministic_view_pair(self):
        img = np.random.default_rng(0).random((64, 64, 3), dtype=np.float32)
        policy = A.SimclrPolicy()
        p1 = A.simclr_augment(img, policy, RngStream(11))
        p2 = A.simclr_augment(img, policy, RngStream(11))
        assert np.array_equal(p1.view_a, p2.view_a)
        assert np.array_equal(p1.view_b, p2.view_b)
        assert p1.params_a == p2.params_a

    def test_views_differ_between_streams(self):
        img = np.random.default_rng(1).random((64, 64, 3), dtype=np.float32)
        pair = A.simclr_augment(img, A.SimclrPolicy(), RngStream(0))
        assert not np.array_equal(pair.view_a, pair.view_b)

    def test_degenerate_policy_gives_blurred_original(self):
        img = np.random.default_rng(2).random((32, 32, 3), dtype=np.float32)
        policy = A.SimclrPolicy(crop_scale_min=1.0, crop_ratio_min=1.0, crop_ratio_max=1.0,
                                jitter_brightness=0.0, jitter_contrast=0.0,
                                jitter_saturation=0.0, jitter_hue=0.0, grayscale_p=0.0,
                                blur_sigma_min=0.9, blur_sigma_max=0.9, flip_p=0.0)
        pair = A.simclr_augment(img, policy, RngStream(5))
        expected = A.gaussian_blur(img, 0.9)
        np.testing.assert_allclose(pair.view_a, expected, atol=1e-6)
        np.testing.assert_allclose(pair.view_b, expected, atol=1e-6)

    def test_grayscale_rate_monte_carlo(self):
        img = np.random.default_rng(3).random((16, 16, 3), dtype=np.float32)
        root = RngStream(123)
        n = 1000
        hits = 0
        for i in range(n):
            pair = A.simclr_augment(img, A.SimclrPolicy(), root.child("mc", i))
            hits += int(pair.params_a["grayscale"]) + int(pair.params_b["grayscale"])
        rate = hits / (2 * n)
        sigma = math.sqrt(0.2 * 0.8 / (2 * n))
        assert abs(rate - 0.2) < 3 * sigma

    def test_grayscale_collapses_channels(self):
        img = np.random.default_rng(4).random((8, 8, 3), dtype=np.float32)
        g = A.to_grayscale(img)
        assert np.array_equal(g[..., 0], g[..., 1])
        assert np.array_equal(g[..., 1], g[..., 2])

    def test_hsv_roundtrip(self):
        img = np.random.default_rng(5).random((10, 10, 3))
        back = A.hsv_to_rgb(A.rgb_to_hsv(img))
        np.testing.assert_allclose(back, img, atol=1e-12)

    def test_five_crop_geometry(self):
        img = np.random.default_rng(6).random((32, 32, 3), dtype=np.float32)
        crops = A.five_crop(img, ratio=0.875)
        assert len(crops) == 5
        assert all(c.shape == img.shape for c in crops)

    def test_degenerate_image_rejected(self):
        with pytest.raises(InputError):
            A.simclr_augment(np.zeros((1, 1, 3), np.float32), A.SimclrPolicy(),
                             RngStream(0))


def _tiny_setup(seed=0, n_unlabeled=12):
    cfg = HVTConfig.tiny(drop_path_max=0.0)
    rng = RngStream(seed)
    params = init_params(cfg, rng)
    head = S.init_projection_head(cfg.dims[-1], rng, out_dim=128)
    _, unlabeled = generate_synthetic(1, size=(64, 64), seed=seed,
                                      n_unlabeled=n_unlabeled)
    return cfg, params, head, unlabeled.images


class TestPretrainLoop:
    def test_projection_head_output_width(self):
        cfg, params, head, _ = _tiny_setup()
        assert head["proj.w2"].shape == (64, 128)

    def test_initial_loss_near_uniform_analytic_value(self):
        cfg, params, head, images = _tiny_setup(seed=1)
        settings = S.PretrainSettings(epochs=1, batch_size=4, accum_steps=1,
                                      warmup_epochs=0.25, max_steps=1)
        result = S.pretrain_loop(params, head, images, cfg, settings, RngStream(3))
        expected = math.log(2 * 4 - 1)
        assert abs(result.log[0]["loss"] - expected) < 0.5

    def test_same_seed_identical_loss_curves(self):
        settings = S.PretrainSettings(epochs=1, batch_size=4, accum_steps=2,
                                      warmup_epochs=0.25, max_steps=3)
        curves = []
        for _ in range(2):
            cfg, params, head, images = _tiny_setup(seed=2)
            res = S.pretrain_loop(params, head, images, cfg, settings, RngStream(7))
            curves.append([row["loss"] for row in res.log])
        assert curves[0] == curves[1]

    def test_empty_dataset_rejected(self):
        cfg, params, head, _ = _tiny_setup()
        with pytest.raises(InputError):
            S.pretrain_loop(params, head, np.zeros((0, 64, 64, 3), np.float32),
                            cfg, S.PretrainSettings(), RngStream(0))

    def test_loss_drops_over_200_steps(self):
        cfg, params, head, images = _tiny_setup(seed=4, n_unlabeled=48)
        settings = S.PretrainSettings(epochs=100, batch_size=8, accum_steps=1,
                                      warmup_epochs=2.0, max_steps=200)
        res = S.pretrain_loop(params, head, images, cfg, settings, RngStream(5))
        assert len(res.log) == 200
        first = res.log[0]["loss"]
        tail = np.mean([row["loss"] for row in res.log[-10:]])
        assert tail < first
        assert res.log[-1]["loss"] < first

    def test_writes_log_and_checkpoints(self, tmp_path):
        cfg, params, head, images = _tiny_setup(seed=6)
        settings = S.PretrainSettings(epochs=1, batch_size=4, accum_steps=1,
                                      warmup_epochs=0.25, max_steps=2,
                                      checkpoint_every=1)
        res = S.pretrain_loop(params, head, images, cfg, settings, RngStream(8),
                              out_dir=str(tmp_path))
        assert (tmp_path / "pretrain_log.csv").exists()
        assert len(res.checkpoints) == 3  # two periodic + final
        header = (tmp_path / "pretrain_log.csv").read_text().splitlines()[0]
        assert header == "step,epoch,lr,loss"

    def test_rows_report_the_pre_clip_gradient_norm(self, monkeypatch, tmp_path):
        norms, real = [], S.clip_grad_norm

        def clip(grads, max_norm):
            out = real(grads, max_norm)
            norms.append(out[1])
            return out

        monkeypatch.setattr(S, "clip_grad_norm", clip)
        cfg, params, head, images = _tiny_setup(seed=6)
        settings = S.PretrainSettings(epochs=1, batch_size=4, accum_steps=1,
                                      warmup_epochs=0.25, max_steps=3, clip_norm=0.05)
        seen = []
        res = S.pretrain_loop(params, head, images, cfg, settings, RngStream(8),
                              out_dir=str(tmp_path), progress=seen.append)
        assert [row["grad_norm"] for row in res.log] == norms and len(norms) == 3
        assert [row["clipped"] for row in res.log] == [int(n > 0.05) for n in norms]
        assert 1 in [row["clipped"] for row in res.log]
        assert seen == res.log
        # the byte-compared CSV keeps its four columns
        lines = (tmp_path / "pretrain_log.csv").read_text().splitlines()
        assert lines[0] == "step,epoch,lr,loss"
        assert all(line.count(",") == 3 for line in lines)


class TestLinearProbe:
    def test_separable_features(self):
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(3, 6)) * 4
        xs, ys = [], []
        for c in range(3):
            xs.append(centers[c] + 0.1 * rng.normal(size=(20, 6)))
            ys.extend([c] * 20)
        x = np.vstack(xs)
        y = np.array(ys)
        acc = S.linear_probe(x, y, x, y, classes=3, steps=150)
        assert acc == 1.0
