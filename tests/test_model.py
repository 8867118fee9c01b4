"""Backbone: shapes, block semantics, merging order, rollout, gradients."""

import numpy as np
import pytest

from hvt import model as M
from hvt import tensor as T
from hvt.errors import ConfigError, ContractError, ShapeError
from hvt.model import HVTConfig
from hvt.tensor import RngStream, Tensor
from helpers import check_grads, numeric_grad, rel_err


def tiny64(**kw):
    return HVTConfig.tiny(drop_path_max=kw.pop("drop_path_max", 0.0), **kw)


class TestConfig:
    def test_xl_grid_chain(self):
        cfg = HVTConfig.xl()
        assert [cfg.grid(s) for s in range(4)] == [(32, 32), (16, 16), (8, 8), (4, 4)]
        assert cfg.tokens(0) == 1024

    def test_token_and_dim_chain_any_valid_config(self):
        for cfg in (HVTConfig.xl(), HVTConfig.tiny(), HVTConfig.desk()):
            for s in range(cfg.n_stages - 1):
                assert cfg.tokens(s + 1) == cfg.tokens(s) // 4
                assert cfg.dims[s + 1] == 2 * cfg.dims[s]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            HVTConfig(input_size=(450, 450))  # not divisible by 14
        with pytest.raises(ConfigError):
            HVTConfig.tiny(heads=(3, 2, 4, 8))  # 8 % 3 != 0
        with pytest.raises(ConfigError):
            HVTConfig.tiny(dims=(8, 24, 48, 96))  # doubling broken
        with pytest.raises(ConfigError):
            HVTConfig.tiny(drop_path_max=1.0)

    @pytest.mark.parametrize("kw", [
        {"input_size": (0, 0)}, {"patch_size": 0}, {"patch_size": -8}, {"ffn_ratio": 0},
        {"depths": (1, 0, 1, 1)}, {"dims": (8, 16, 32, -64)},
        {"heads": (0, 2, 4, 8)},
        {"heads": (1, 2, 4, -8)}],
        ids=["input_size", "patch_size", "negative-patch_size", "ffn_ratio", "depths",
             "dims", "heads", "negative-heads"])
    def test_size_below_1_rejected(self, kw):
        # before any division by it
        with pytest.raises(ConfigError, match=next(iter(kw))):
            HVTConfig.tiny(**kw)

    def test_dims_message_names_no_config_key(self):
        with pytest.raises(ConfigError, match="dims must double per stage") as err:
            HVTConfig.tiny(dims=(8, 24, 48, 96))
        assert "allow_custom_dims" not in str(err.value)

    def test_norm_stats_default_and_coerced(self):
        assert HVTConfig.tiny().norm_mean == (0.5, 0.5, 0.5)
        assert HVTConfig.tiny().norm_std == (0.25, 0.25, 0.25)
        cfg = HVTConfig.tiny(norm_mean=[0, 1, np.float32(0.5)], norm_std=(1, 2, 3))
        assert cfg.norm_mean == (0.0, 1.0, 0.5) and cfg.norm_std == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in cfg.norm_mean + cfg.norm_std)

    @pytest.mark.parametrize("stats", [
        {"norm_mean": (0.5, 0.5)}, {"norm_mean": (0.5,) * 4}, {"norm_mean": 0.5},
        {"norm_mean": ("a", 0.5, 0.5)}, {"norm_mean": (0.5, float("nan"), 0.5)},
        {"norm_std": (0.25, 0.25, float("inf"))}, {"norm_std": (0.0, 0.0, 0.0)},
        {"norm_std": (0.25, -0.25, 0.25)}],
        ids=["two", "four", "scalar", "text", "nan", "inf", "zero-std", "negative-std"])
    def test_bad_norm_stats_rejected(self, stats):
        with pytest.raises(ConfigError, match="norm_"):
            HVTConfig.tiny(**stats)


class TestInitParams:
    def test_deterministic(self):
        cfg = tiny64()
        a = M.init_params(cfg, RngStream(5))
        b = M.init_params(cfg, RngStream(5))
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k].numpy(), b[k].numpy()), k

    def test_ln_gains_are_one(self):
        params = M.init_params(tiny64(), RngStream(0))
        for k, v in params.items():
            if k.endswith("ln1.gain") or k.endswith("ln2.gain"):
                assert np.all(v.numpy() == 1.0)
            if k.endswith(".bias") or k.endswith(".b") or ".b" == k[-2:]:
                assert np.all(v.numpy() == 0.0)

    def test_tiny_param_count_matches_hand_enumeration(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(1))
        expected = 0
        p, dims, r = cfg.patch_size, cfg.dims, cfg.ffn_ratio
        expected += p * p * 3 * dims[0] + dims[0]          # patch embed
        expected += cfg.tokens(0) * dims[0]                # positional
        for s, d in enumerate(dims):
            for _ in range(cfg.depths[s]):
                expected += 2 * d                          # ln1
                expected += 3 * (d * d + d)                # q, k, v
                expected += d * d + d                      # output proj
                expected += 2 * d                          # ln2
                expected += d * (r * d) + r * d            # ffn in
                expected += (r * d) * d + d                # ffn out
            if s < 3:
                expected += 4 * d * 2 * d                  # merge
        expected += dims[-1] * cfg.num_classes + cfg.num_classes
        assert M.count_params(params) == expected

    def test_quadratic_scaling_with_width(self):
        small = M.count_params(M.init_params(tiny64(), RngStream(0)))
        wide = M.count_params(M.init_params(
            HVTConfig.tiny(dims=(16, 32, 64, 128), heads=(1, 2, 4, 8), drop_path_max=0.0),
            RngStream(0)))
        dense_ratio = wide / small
        assert 3.0 < dense_ratio < 4.1  # square matrices dominate


class TestPatchEmbed:
    def test_xl_token_arithmetic(self):
        cfg = HVTConfig.xl()
        assert cfg.tokens(0) == (448 * 448) // (14 * 14) == 1024
        assert cfg.dims[0] == 192

    def test_tiny_token_count(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(2))
        img = np.random.default_rng(0).random((64, 64, 3), dtype=np.float32)
        tokens = M.patch_embed(img, params, cfg)
        assert tokens.shape == (64, cfg.dims[0])

    def test_zero_image_zero_bias_gives_zero_tokens(self):
        cfg = tiny64(norm_mean=(0.0, 0.0, 0.0))
        params = M.init_params(cfg, RngStream(3))
        tokens = M.patch_embed(np.zeros((64, 64, 3), np.float32), params, cfg)
        assert np.all(tokens.numpy() == 0.0)

    def test_size_mismatch(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(4))
        with pytest.raises(ShapeError):
            M.patch_embed(np.zeros((32, 32, 3), np.float32), params, cfg)

    def test_matches_per_patch_projection(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(5))
        rng = np.random.default_rng(1)
        img = rng.random((64, 64, 3), dtype=np.float32)
        tokens = M.patch_embed(img, params, cfg).numpy()
        w = params["patch_embed.w"].numpy()
        b = params["patch_embed.b"].numpy()
        # token for grid cell (2, 3) computed by hand, on standardized pixels
        patch = ((img[16:24, 24:32, :] - 0.5) / 0.25).reshape(-1)
        np.testing.assert_allclose(tokens[2 * 8 + 3], patch @ w + b, rtol=1e-5, atol=1e-6)


def _mha_params(rng, d, dtype=np.float64, with_out=True):
    p = {}
    for name in ("wq", "wk", "wv") + (("wo",) if with_out else ()):
        p[name] = Tensor(rng.normal(size=(d, d)), requires_grad=True, dtype=dtype)
    for name in ("bq", "bk", "bv") + (("bo",) if with_out else ()):
        p[name] = Tensor(rng.normal(size=d), requires_grad=True, dtype=dtype)
    return p


class TestMHA:
    def test_single_token_attention_is_one(self):
        rng = np.random.default_rng(0)
        p = _mha_params(rng, 4)
        x = Tensor(rng.normal(size=(1, 4)), dtype=np.float64)
        out, attn = M.mha(x, p, heads=2)
        np.testing.assert_allclose(attn, np.ones((2, 1, 1)))
        v = x.numpy() @ p["wv"].numpy() + p["bv"].numpy()
        expected = v @ p["wo"].numpy() + p["bo"].numpy()
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-8)

    def test_zero_query_gives_uniform_attention(self):
        rng = np.random.default_rng(1)
        p = _mha_params(rng, 4)
        p["wq"] = Tensor(np.zeros((4, 4)), requires_grad=True)
        p["bq"] = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)), dtype=np.float64)
        out, attn = M.mha(x, p, heads=2)
        np.testing.assert_allclose(attn, np.full((2, 5, 5), 0.2), atol=1e-12)
        v = x.numpy() @ p["wv"].numpy() + p["bv"].numpy()
        expected = np.tile(v.mean(axis=0), (5, 1)) @ p["wo"].numpy() + p["bo"].numpy()
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-8)

    def test_against_naive_transcription(self):
        # independent per-head loop evaluation of scaled dot-product attention
        rng = np.random.default_rng(2)
        n, d, h = 3, 4, 2
        dh = d // h
        p = _mha_params(rng, d)
        x = rng.normal(size=(n, d))
        out, _ = M.mha(Tensor(x, dtype=np.float64), p, heads=h)

        q = x @ p["wq"].numpy() + p["bq"].numpy()
        k = x @ p["wk"].numpy() + p["bk"].numpy()
        v = x @ p["wv"].numpy() + p["bv"].numpy()
        heads_out = []
        for j in range(h):
            qj, kj, vj = (m[:, j * dh:(j + 1) * dh] for m in (q, k, v))
            logits = qj @ kj.T / np.sqrt(dh)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            heads_out.append(a @ vj)
        naive = np.concatenate(heads_out, axis=1) @ p["wo"].numpy() + p["bo"].numpy()
        assert np.max(np.abs(out.numpy() - naive)) < 1e-5

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        p = _mha_params(rng, 8)
        x = Tensor(rng.normal(size=(2, 6, 8)), dtype=np.float64)
        _, attn = M.mha(x, p, heads=4)
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones((2, 4, 6)), atol=1e-5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        p = _mha_params(rng, 6)
        x = rng.normal(size=(7, 6))
        perm = rng.permutation(7)
        out, _ = M.mha(Tensor(x, dtype=np.float64), p, heads=3)
        out_p, _ = M.mha(Tensor(x[perm], dtype=np.float64), p, heads=3)
        np.testing.assert_allclose(out_p.numpy(), out.numpy()[perm], atol=1e-10)

    def test_indivisible_heads_rejected(self):
        p = _mha_params(np.random.default_rng(5), 6)
        with pytest.raises(ConfigError):
            M.mha(Tensor(np.zeros((3, 6)), dtype=np.float64), p, heads=4)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4))
        raw = {k: v.numpy().copy() for k, v in _mha_params(rng, 4).items()}
        names = sorted(raw)

        def build(*arrays):
            p = {k: Tensor(a, requires_grad=True, dtype=np.float64)
                 for k, a in zip(names, arrays)}
            out, _ = M.mha(Tensor(x, dtype=np.float64), p, heads=2)
            return (out * out).sum(), [p[k] for k in names]

        check_grads(build, [raw[k] for k in names])


class TestFFN:
    def test_zero_weights_zero_output(self):
        p = {"w1": Tensor(np.zeros((4, 16))), "b1": Tensor(np.zeros(16)),
             "w2": Tensor(np.zeros((16, 4))), "b2": Tensor(np.zeros(4))}
        out = M.ffn(Tensor(np.ones((3, 4)), dtype=np.float64), p)
        assert np.all(out.numpy() == 0.0)

    def test_expansion_ratio_shape(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(0))
        assert params["stages.0.blocks.0.ffn.w1"].shape == (8, 32)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        shapes = {"w1": (4, 8), "b1": (8,), "w2": (8, 4), "b2": (4,)}
        arrays = [rng.normal(size=s) for s in shapes.values()]
        x = rng.normal(size=(3, 4))

        def build(*arrs):
            p = {k: Tensor(a, requires_grad=True, dtype=np.float64)
                 for k, a in zip(shapes, arrs)}
            out = M.ffn(Tensor(x, dtype=np.float64), p)
            return (out * out).sum(), list(p.values())

        check_grads(build, arrays)


class TestDropPath:
    def test_infer_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 2)), dtype=np.float64)
        out = M.drop_path(x, 0.4, "infer")
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_p_zero_identity_in_train(self):
        x = Tensor(np.ones((4, 3)), dtype=np.float64)
        out = M.drop_path(x, 0.0, "train", RngStream(0))
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_expectation_monte_carlo(self):
        p = 0.3
        n = 10_000
        x = Tensor(np.ones((n, 1, 1), dtype=np.float64))
        out = M.drop_path(x, p, "train", RngStream(42)).numpy()
        se = np.sqrt(p / (1 - p) / n)
        assert abs(out.mean() - 1.0) < 3 * se
        assert set(np.round(np.unique(out), 9)) <= {0.0, round(1 / (1 - p), 9)}

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            M.drop_path(Tensor(np.ones(3)), 1.0, "train", RngStream(0))

    def test_schedule(self):
        assert M.drop_path_schedule(0, 36, 0.3) == 0.0
        assert M.drop_path_schedule(36, 36, 0.3) == pytest.approx(0.3)
        assert M.drop_path_schedule(18, 36, 0.3) == pytest.approx(0.15)


class TestTransformerBlock:
    @staticmethod
    def _block_params(rng, d, r=4, dtype=np.float64, zero=False):
        def mk(shape):
            data = np.zeros(shape) if zero else rng.normal(size=shape) * 0.3
            return Tensor(data, requires_grad=True, dtype=dtype)

        p = {"ln1.gain": Tensor(np.ones(d), dtype=dtype, requires_grad=True),
             "ln1.bias": mk((d,)) if not zero else Tensor(np.zeros(d), dtype=dtype),
             "ln2.gain": Tensor(np.ones(d), dtype=dtype, requires_grad=True),
             "ln2.bias": Tensor(np.zeros(d), dtype=dtype, requires_grad=True)}
        for name, shape in (("attn.wq", (d, d)), ("attn.wk", (d, d)), ("attn.wv", (d, d)),
                            ("attn.wo", (d, d)), ("ffn.w1", (d, r * d)), ("ffn.w2", (r * d, d))):
            p[name] = mk(shape)
        for name, shape in (("attn.bq", (d,)), ("attn.bk", (d,)), ("attn.bv", (d,)),
                            ("attn.bo", (d,)), ("ffn.b1", (r * d,)), ("ffn.b2", (d,))):
            p[name] = Tensor(np.zeros(shape), dtype=dtype, requires_grad=True)
        return p

    def test_zero_weights_residual_identity(self):
        p = self._block_params(np.random.default_rng(0), 4, zero=True)
        x = np.random.default_rng(1).normal(size=(3, 4))
        out, _ = M.transformer_block(Tensor(x, dtype=np.float64), p, heads=2)
        np.testing.assert_array_equal(out.numpy(), x)

    def test_fully_dropped_branches_identity(self):
        p = self._block_params(np.random.default_rng(2), 4)
        x = np.random.default_rng(3).normal(size=(2, 3, 4))
        # p close to 1: every sample drawn against keep-prob ~0 via a forced stream
        rng = RngStream(0)
        out, _ = M.transformer_block(Tensor(x, dtype=np.float64), p, heads=2,
                                     p_l=0.999999, mode="train", rng=rng)
        np.testing.assert_allclose(out.numpy(), x, atol=1e-9)

    def test_against_naive_transcription(self):
        rng = np.random.default_rng(4)
        d = 4
        p = self._block_params(rng, d)
        x = rng.normal(size=(3, d))
        out, _ = M.transformer_block(Tensor(x, dtype=np.float64), p, heads=2)

        def ln(v):
            mu = v.mean(axis=-1, keepdims=True)
            var = v.var(axis=-1, keepdims=True)
            return (v - mu) / np.sqrt(var + 1e-5)

        def naive_mha(v):
            q = v @ p["attn.wq"].numpy() + p["attn.bq"].numpy()
            k = v @ p["attn.wk"].numpy() + p["attn.bk"].numpy()
            val = v @ p["attn.wv"].numpy() + p["attn.bv"].numpy()
            outs = []
            for j in range(2):
                qj, kj, vj = q[:, j * 2:(j + 1) * 2], k[:, j * 2:(j + 1) * 2], val[:, j * 2:(j + 1) * 2]
                logits = qj @ kj.T / np.sqrt(2)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                outs.append((e / e.sum(axis=1, keepdims=True)) @ vj)
            return np.concatenate(outs, axis=1) @ p["attn.wo"].numpy() + p["attn.bo"].numpy()

        def naive_ffn(v):
            h = v @ p["ffn.w1"].numpy() + p["ffn.b1"].numpy()
            g = 0.5 * h * (1 + np.tanh(np.sqrt(2 / np.pi) * (h + 0.044715 * h**3)))
            return g @ p["ffn.w2"].numpy() + p["ffn.b2"].numpy()

        z = x + naive_mha(ln(x) * p["ln1.gain"].numpy() + p["ln1.bias"].numpy())
        expected = z + naive_ffn(ln(z) * p["ln2.gain"].numpy() + p["ln2.bias"].numpy())
        assert np.max(np.abs(out.numpy() - expected)) < 1e-5


class TestPatchMerge:
    def test_xl_stage_transition_shape(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(4 * 192, 384)).astype(np.float32))
        x = Tensor(rng.normal(size=(1, 32 * 32, 192)).astype(np.float32))
        out = M.patch_merge(x, w, (32, 32))
        assert out.shape == (1, 16 * 16, 384)

    def test_gather_order_hand_traced(self):
        # 2x2 grid of one-hot channel tokens; identity-block projection
        # reproduces the (ee, eo, oe, oo) concatenation order exactly.
        d = 2
        tokens = np.zeros((4, d))
        tokens[0, 0] = 1.0   # grid (0,0): row-even col-even
        tokens[1, 1] = 2.0   # grid (0,1): row-even col-odd
        tokens[2, 0] = 3.0   # grid (1,0): row-odd col-even
        tokens[3, 1] = 4.0   # grid (1,1): row-odd col-odd
        w = Tensor(np.eye(4 * d)[:, :2 * d * 2][:, :4].astype(np.float64))
        w = Tensor(np.eye(8, 4))  # project 4D -> 2D by keeping first 4 channels
        out = M.patch_merge(Tensor(tokens, dtype=np.float64), w, (2, 2)).numpy()
        # concat order: token(0,0) channels, token(0,1), token(1,0), token(1,1)
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0, 2.0]])
        w_full = Tensor(np.eye(8))
        full = M.patch_merge(Tensor(tokens, dtype=np.float64), w_full, (2, 2)).numpy()
        np.testing.assert_array_equal(full, [[1, 0, 0, 2, 3, 0, 0, 4]])

    def test_token_count_divides_by_four(self):
        for grid in ((4, 4), (8, 8), (2, 6)):
            n = grid[0] * grid[1]
            x = Tensor(np.ones((n, 3)), dtype=np.float64)
            out = M.patch_merge(x, Tensor(np.ones((12, 6)), dtype=np.float64), grid)
            assert out.shape == (n // 4, 6)

    def test_odd_grid_rejected(self):
        with pytest.raises(ShapeError):
            M.patch_merge(Tensor(np.ones((9, 2)), dtype=np.float64),
                          Tensor(np.ones((8, 4)), dtype=np.float64), (3, 3))


class TestForward:
    def test_tiny_stage_shapes_and_logits(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(0))
        img = np.random.default_rng(0).random((64, 64, 3), dtype=np.float32)
        res = M.forward(img, params, cfg)
        assert [s.shape for s in res.stages] == [(64, 8), (16, 16), (4, 32), (1, 64)]
        assert res.logits.shape == (7,)

    def test_batched_forward(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(1))
        imgs = np.random.default_rng(1).random((3, 64, 64, 3), dtype=np.float32)
        res = M.forward(imgs, params, cfg)
        assert res.logits.shape == (3, 7)
        assert res.features.shape == (3, 64)

    def test_infer_deterministic_bit_identical(self):
        cfg = HVTConfig.tiny(drop_path_max=0.2)
        params = M.init_params(cfg, RngStream(2))
        img = np.random.default_rng(2).random((64, 64, 3), dtype=np.float32)
        a = M.forward(img, params, cfg).logits.numpy()
        b = M.forward(img, params, cfg).logits.numpy()
        assert np.array_equal(a, b)

    def test_batch_consistency(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(3))
        imgs = np.random.default_rng(3).random((2, 64, 64, 3), dtype=np.float32)
        batch = M.forward(imgs, params, cfg).logits.numpy()
        one = M.forward(imgs[0], params, cfg).logits.numpy()
        np.testing.assert_allclose(batch[0], one, atol=1e-5)

    def test_attention_capture_rows_sum_to_one_every_stage(self):
        cfg = tiny64()
        params = M.init_params(cfg, RngStream(4))
        img = np.random.default_rng(4).random((64, 64, 3), dtype=np.float32)
        res = M.forward(img, params, cfg, capture="all")
        assert res.record.stage_ids == [0, 1, 2, 3]
        for probs in res.record.blocks:
            np.testing.assert_allclose(probs.sum(axis=-1),
                                       np.ones(probs.shape[:-1]), atol=1e-5)

    def test_final_capture_only_last_stage(self):
        cfg = HVTConfig.desk(drop_path_max=0.0)
        params = M.init_params(cfg, RngStream(5))
        img = np.random.default_rng(5).random((64, 64, 3), dtype=np.float32)
        res = M.forward(img, params, cfg, capture="final")
        assert res.record.stage_ids == [3]
        assert res.record.grid == (1, 1)

    def test_drop_path_train_mode_differs_and_reproduces(self):
        cfg = HVTConfig.tiny(drop_path_max=0.9)
        params = M.init_params(cfg, RngStream(6))
        imgs = np.random.default_rng(6).random((4, 64, 64, 3), dtype=np.float32)
        a = M.forward(imgs, params, cfg, mode="train", rng=RngStream(1)).logits.numpy()
        b = M.forward(imgs, params, cfg, mode="train", rng=RngStream(1)).logits.numpy()
        c = M.forward(imgs, params, cfg, mode="train", rng=RngStream(2)).logits.numpy()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("batched", [True, False])
    def test_standardizes_pixels_with_config_stats(self, batched):
        # under stats (m, s), forward is forward under identity stats on the
        # reference-standardized pixels, bit for bit, gradients included
        mean, std = (0.3, 0.4, 0.5), (0.2, 0.1, 0.3)
        imgs = np.random.default_rng(7).random((3, 64, 64, 3), dtype=np.float32)
        imgs = imgs if batched else imgs[0]
        ref = ((imgs - np.array(mean, np.float32)) / np.array(std, np.float32)).astype(np.float32)
        runs = []
        for stats, x in (((mean, std), imgs), (((0.0,) * 3, (1.0,) * 3), ref)):
            cfg = HVTConfig.tiny(drop_path_max=0.5, norm_mean=stats[0], norm_std=stats[1])
            params = M.init_params(cfg, RngStream(8))
            res = M.forward(x, params, cfg, mode="train", rng=RngStream(9))
            res.logits.sum().backward()
            runs.append((res.logits.numpy(), {k: t.grad for k, t in params.items()}))
        (logits, grads), (want_logits, want_grads) = runs
        assert np.array_equal(logits, want_logits)
        assert all(np.array_equal(grads[k], want_grads[k]) for k in want_grads)


class TestRollout:
    @staticmethod
    def _record(mats, grid=(2, 2), image=(8, 8)):
        return M.AttentionRecord(blocks=[m[None] if m.ndim == 2 else m for m in mats],
                                 stage_ids=[3] * len(mats), grid=grid, image_size=image)

    def test_identity_attention_uniform_map(self):
        rec = self._record([np.eye(4)])
        grid_map, full = M.attention_rollout(rec)
        assert np.all(grid_map == 0.0) and np.all(full == 0.0)
        assert full.shape == (8, 8)

    def test_intermediate_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        mats = []
        for _ in range(3):
            a = rng.random((2, 4, 4))
            mats.append(a / a.sum(axis=-1, keepdims=True))
        rec = self._record(mats)
        for inter in M.rollout_intermediates(rec):
            np.testing.assert_allclose(inter.sum(axis=1), np.ones(4), atol=1e-5)

    def test_two_block_hand_product(self):
        a1 = np.array([[0.9, 0.1], [0.4, 0.6]])
        a2 = np.array([[0.2, 0.8], [0.7, 0.3]])
        rec = M.AttentionRecord(blocks=[a1[None], a2[None]], stage_ids=[3, 3],
                                grid=(1, 2), image_size=(1, 4))
        grid_map, full = M.attention_rollout(rec)
        m1 = (0.5 * a1 + 0.5 * np.eye(2))
        m2 = (0.5 * a2 + 0.5 * np.eye(2))
        m1 /= m1.sum(axis=1, keepdims=True)
        m2 /= m2.sum(axis=1, keepdims=True)
        rel = (m2 @ m1).mean(axis=0)
        expected = (rel - rel.min()) / (rel.max() - rel.min())
        np.testing.assert_allclose(grid_map.reshape(-1), expected, atol=1e-12)
        assert full.shape == (1, 4)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        a = rng.random((3, 4, 4))
        a /= a.sum(axis=-1, keepdims=True)
        rec = self._record([a])
        grid_map, full = M.attention_rollout(rec)
        assert grid_map.min() >= 0.0 and grid_map.max() <= 1.0
        assert full.min() >= 0.0 and full.max() <= 1.0

    def test_empty_record_rejected(self):
        with pytest.raises(ContractError):
            M.attention_rollout(M.AttentionRecord())


class TestModelGradients:
    def test_full_tiny_model_end_to_end(self):
        """Finite differences on sampled entries of every parameter tensor."""
        cfg = tiny64()
        rng = RngStream(0)
        params = M.init_params(cfg, rng, dtype=np.float64)
        img = np.random.default_rng(0).random((64, 64, 3))
        target = np.zeros(7)
        target[2] = 1.0

        def loss_value():
            res = M.forward(img, params, cfg)
            p = T.softmax(res.logits, axis=0)
            return T.scale((T.log(T.clamp_min(p, 1e-12)) * Tensor(target, dtype=np.float64)).sum(), -1.0)

        loss = loss_value()
        loss.backward()
        check_rng = np.random.default_rng(99)
        h = 1e-5
        worst = 0.0
        for name, tensor in params.items():
            flat = tensor.data.reshape(-1)
            gflat = tensor.grad.reshape(-1)
            for idx in check_rng.choice(flat.size, size=min(2, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                fp = float(loss_value().numpy())
                flat[idx] = orig - h
                fm = float(loss_value().numpy())
                flat[idx] = orig
                num = (fp - fm) / (2 * h)
                worst = max(worst, rel_err(gflat[idx], num))
        assert worst < 1e-3, f"model gradient mismatch: {worst:.2e}"
