"""Tensor engine: op semantics, gradients vs finite differences, invariants."""

import math

import numpy as np
import pytest

from hvt import tensor as T
from hvt.errors import ContractError, ShapeError
from helpers import check_grads, numeric_grad, rel_err


def t64(arr, rg=True):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = T.matmul(t64(np.eye(2)), t64(a))
        np.testing.assert_array_equal(out.numpy(), a)

    def test_hand_product(self):
        out = T.matmul(t64([[1, 2], [3, 4]]), t64([[1], [1]]))
        np.testing.assert_array_equal(out.numpy(), [[3], [7]])

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))

        def build(a_, b_):
            ta, tb = t64(a_), t64(b_)
            loss = (T.matmul(ta, tb) * T.Tensor(w, dtype=np.float64)).sum()
            return loss, [ta, tb]

        worst = check_grads(build, [a, b], tol=1e-4)
        assert worst < 1e-4

    def test_batched_grad(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 3))

        def build(a_, b_):
            ta, tb = t64(a_), t64(b_)
            return (T.matmul(ta, tb) * T.matmul(ta, tb)).sum(), [ta, tb]

        check_grads(build, [a, b])

    def test_batched_against_2d_rhs(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 5, 3))
        b = rng.normal(size=(3, 4))

        def build(a_, b_):
            ta, tb = t64(a_), t64(b_)
            out = T.matmul(ta, tb)
            return (out * out).sum(), [ta, tb]

        check_grads(build, [a, b])

    @pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 1, 4), (2, 2, 3, 4)])
    @pytest.mark.parametrize("a_grad", [True, False])
    def test_shared_2d_weight_grad(self, a_shape, a_grad):
        # (B, ..., D) @ (D, E): the weight gradient is folded into one GEMM
        rng = np.random.default_rng(3)
        a = rng.normal(size=a_shape)
        b = rng.normal(size=(4, 5))
        w = rng.normal(size=a_shape[:-1] + (5,))

        def build(*arrs):
            a_, b_ = arrs if a_grad else (a, arrs[0])
            ta, tb = t64(a_, rg=a_grad), t64(b_)
            loss = (T.matmul(ta, tb) * T.Tensor(w, dtype=np.float64)).sum()
            return loss, [ta, tb] if a_grad else [tb]

        check_grads(build, [a, b] if a_grad else [b], tol=1e-6)

    def test_shared_weight_grad_matches_per_sample_sum(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 3, 4))
        g = rng.normal(size=(6, 3, 5))
        tb = t64(rng.normal(size=(4, 5)))
        (T.matmul(t64(a), tb) * T.Tensor(g, dtype=np.float64)).sum().backward()
        np.testing.assert_allclose(tb.grad, sum(a[i].T @ g[i] for i in range(6)),
                                   rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("a_shape", [(3, 4), (2, 3, 4)])
    @pytest.mark.parametrize("a_grad", [True, False])
    def test_bias_grad(self, a_shape, a_grad):
        # a @ b + bias in one node; the bias gradient sums over leading axes
        rng = np.random.default_rng(5)
        a = rng.normal(size=a_shape)
        b = rng.normal(size=(4, 5))
        c = rng.normal(size=5)
        w = rng.normal(size=a_shape[:-1] + (5,))

        def build(*arrs):
            a_, b_, c_ = arrs if a_grad else (a,) + arrs
            ta, tb, tc = t64(a_, rg=a_grad), t64(b_), t64(c_)
            loss = (T.matmul(ta, tb, tc) * T.Tensor(w, dtype=np.float64)).sum()
            return loss, [ta, tb, tc] if a_grad else [tb, tc]

        check_grads(build, [a, b, c] if a_grad else [b, c], tol=1e-6)

    def test_bias_shape_checked(self):
        a, b = t64(np.zeros((2, 4))), t64(np.zeros((4, 5)))
        with pytest.raises(ShapeError):
            T.matmul(a, b, t64(np.zeros(4)))
        with pytest.raises(ShapeError):
            T.matmul(t64(np.zeros((2, 2, 4))), t64(np.zeros((2, 4, 5))), t64(np.zeros(5)))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(t64([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.numpy(), [0.5, 0.5])

    def test_large_inputs_stabilized(self):
        out = T.softmax(t64([1000.0, 1000.0]), axis=-1)
        assert np.all(np.isfinite(out.numpy()))
        np.testing.assert_allclose(out.numpy(), [0.5, 0.5])

    def test_rows_sum_to_one_over_wide_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1e4, 1e4, size=(4, 7))
            out = T.softmax(t64(x), axis=1).numpy()
            np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-6)

    def test_outputs_positive_in_representable_range(self):
        x = np.random.default_rng(3).uniform(-30, 30, size=(4, 7))
        assert np.all(T.softmax(t64(x), axis=1).numpy() > 0)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=5)
        w = rng.normal(size=5)

        def build(x_):
            tx = t64(x_)
            return (T.softmax(tx, axis=0) * T.Tensor(w, dtype=np.float64)).sum(), [tx]

        check_grads(build, [x])


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = t64(np.full((4,), 3.7))
        out = T.layer_norm(x, T.ones(4, np.float64), T.zeros(4, np.float64), eps=1e-5)
        np.testing.assert_allclose(out.numpy(), np.zeros(4), atol=1e-4)

    def test_two_point_standardization(self):
        x = t64([1.0, 3.0])
        out = T.layer_norm(x, T.ones(2, np.float64), T.zeros(2, np.float64), eps=1e-12)
        np.testing.assert_allclose(out.numpy(), [-1.0, 1.0], atol=1e-5)

    def test_pre_affine_moments(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 9))
        out = T.layer_norm(t64(x), T.ones(9, np.float64), T.zeros(9, np.float64)).numpy()
        assert np.all(np.abs(out.mean(axis=-1)) < 1e-5)
        assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-3)

    def test_gain_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            T.layer_norm(t64(np.zeros((2, 4))), T.ones(3, np.float64), T.zeros(4, np.float64))

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 5))
        g = rng.normal(size=5)
        b = rng.normal(size=5)
        w = rng.normal(size=(3, 5))

        def build(x_, g_, b_):
            tx, tg, tb = t64(x_), t64(g_), t64(b_)
            out = T.layer_norm(tx, tg, tb)
            return (out * T.Tensor(w, dtype=np.float64)).sum(), [tx, tg, tb]

        check_grads(build, [x, g, b])

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_batched_grad_closed_form(self, x_grad):
        # (2, 3, 5): gain and bias gradients sum over both leading axes
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5))
        g = rng.normal(size=5)
        b = rng.normal(size=5)
        w = rng.normal(size=(2, 3, 5))

        def build(*arrs):
            x_, g_, b_ = arrs if x_grad else (x,) + arrs
            tx, tg, tb = t64(x_, rg=x_grad), t64(g_), t64(b_)
            out = T.layer_norm(tx, tg, tb)
            return (out * T.Tensor(w, dtype=np.float64)).sum(), [tx, tg, tb] if x_grad else [tg, tb]

        check_grads(build, [x, g, b] if x_grad else [g, b], tol=1e-6)

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ShapeError):
            T.layer_norm(t64(np.zeros((2, 4))), T.ones(4), T.zeros(4, np.float64))


class TestGelu:
    def test_zero(self):
        assert T.gelu(t64([0.0])).numpy()[0] == 0.0

    def test_value_at_three(self):
        # independent evaluation of the tanh closed form
        x = 3.0
        expected = 0.5 * x * (1 + math.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))
        got = float(T.gelu(t64([x])).numpy()[0])
        assert abs(got - expected) < 1e-12
        assert abs(got - 2.9963626) < 1e-6

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=8) * 2

        def build(x_):
            tx = t64(x_)
            return (T.gelu(tx) * T.gelu(tx)).sum(), [tx]

        check_grads(build, [x])

    def test_negative_float32_matches_float64_formula(self):
        x = -np.geomspace(1e-4, 12.0, 4096).astype(np.float32)
        x64 = x.astype(np.float64)
        want = 0.5 * x64 * (1 + np.tanh(math.sqrt(2 / math.pi) * (x64 + 0.044715 * x64**3)))
        got = T.gelu(T.Tensor(x)).numpy()
        assert got.dtype == np.float32
        # atol covers float32's 1 + tanh(.) cancellation in the far tail
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


class TestElementwise:
    def test_add_zero_is_identity(self):
        x = np.arange(4.0)
        out = T.elementwise(t64(x), T.zeros(4, np.float64), "add")
        np.testing.assert_array_equal(out.numpy(), x)

    def test_mean_of_small_vector(self):
        assert float(T.reduce(t64([1.0, 2.0, 3.0]), "mean").numpy()) == 2.0

    def test_concat_axis1(self):
        a, b = t64(np.ones((2, 2))), t64(np.zeros((2, 2)))
        out = T.concat([a, b], axis=1)
        assert out.shape == (2, 4)

    def test_trailing_axis_bias_broadcast(self):
        x = t64(np.zeros((3, 2, 4)))
        bias = t64(np.arange(4.0))
        out = x + bias
        np.testing.assert_array_equal(out.numpy()[1, 1], np.arange(4.0))

    def test_disallowed_broadcast_raises(self):
        with pytest.raises(ShapeError):
            t64(np.zeros((4, 3))) + t64(np.zeros((4, 1)))

    def test_explicit_broadcast_to(self):
        col = t64(np.arange(4.0).reshape(4, 1))
        out = T.broadcast_to(col, (4, 3))
        assert out.shape == (4, 3)

    def test_mixed_dtype_rejected(self):
        a = T.Tensor(np.zeros(3, dtype=np.float32))
        b = T.Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(ShapeError):
            a + b

    def test_binary_grads(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # keep divisor away from 0
        v = rng.normal(size=4)

        def build(a_, b_, v_):
            ta, tb, tv = t64(a_), t64(b_), t64(v_)
            out = (ta * tb + ta / tb - tb) * 0.7 + tv
            return (out * out).sum(), [ta, tb, tv]

        check_grads(build, [a, b, v])

    def test_unary_grads(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.5, 2.0, size=6)

        def build(x_):
            tx = t64(x_)
            out = T.exp(tx) + T.log(tx) + T.sqrt(tx) + T.power(tx, 1.7) + T.clamp_min(tx, 1.0)
            return (out * out).sum(), [tx]

        check_grads(build, [x])

    def test_clamp_min_blocks_gradient_below_floor(self):
        x = t64([-1.0, 2.0])
        loss = T.clamp_min(x, 0.0).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])


class TestReductions:
    def test_sum_mean_axes(self):
        x = t64(np.arange(12.0).reshape(3, 4))
        assert T.reduce(x, "sum", axis=0).shape == (4,)
        assert T.reduce(x, "mean", axis=1, keepdims=True).shape == (3, 1)
        assert float(T.reduce(x, "sum").numpy()) == 66.0

    def test_max_and_argmax(self):
        x = t64([[1.0, 5.0], [7.0, 2.0]])
        np.testing.assert_array_equal(T.reduce(x, "max", axis=1).numpy(), [5.0, 7.0])
        idx = T.reduce(x, "argmax", axis=1)
        assert isinstance(idx, np.ndarray)
        np.testing.assert_array_equal(idx, [1, 0])

    def test_reduction_grads(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 5))

        def build(x_):
            tx = t64(x_)
            out = (
                T.reduce(tx, "sum", axis=0)
                + T.reduce(tx, "mean", axis=0)
                + T.reduce(tx, "max", axis=0)
            )
            return (out * out).sum(), [tx]

        check_grads(build, [x])

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            T.reduce(t64(np.zeros((2, 2))), "sum", axis=5)


class TestShapeOps:
    def test_reshape_roundtrip_bit_exact(self):
        x = np.random.default_rng(11).normal(size=(3, 8)).astype(np.float32)
        out = T.reshape(T.reshape(T.Tensor(x), (4, 6)), (3, 8))
        assert np.array_equal(out.numpy(), x)

    def test_permute_grad(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 4))

        def build(x_):
            tx = t64(x_)
            out = T.permute(tx, (2, 0, 1))
            return (out * out).sum(), [tx]

        check_grads(build, [x])

    def test_slice_grad(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 6))

        def build(x_):
            tx = t64(x_)
            out = tx[1:3, ::2]
            return (out * out).sum(), [tx]

        check_grads(build, [x])

    def test_slice_rejects_advanced_indexing(self):
        with pytest.raises(ShapeError):
            t64(np.zeros((4,)))[[0, 2]]

    def test_concat_grad(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))

        def build(a_, b_):
            ta, tb = t64(a_), t64(b_)
            out = T.concat([ta, tb], axis=1)
            return (out * out).sum(), [ta, tb]

        check_grads(build, [a, b])

    def test_broadcast_to_grad(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 1))

        def build(x_):
            tx = t64(x_)
            out = T.broadcast_to(tx, (3, 5))
            return (out * out).sum(), [tx]

        check_grads(build, [x])


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.arange(5.0))
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(5))

    def test_quadratic_gives_2x(self):
        x = t64(np.arange(5.0))
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, 2 * np.arange(5.0))

    def test_overwrite_not_accumulate(self):
        x = t64(np.ones(3))
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_shared_subexpression_accumulates_within_one_pass(self):
        x = t64([2.0])
        y = x * x
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            t64(np.zeros(3)).backward()

    def test_grad_skips_untracked_leaves(self):
        x = t64(np.ones(3))
        c = T.Tensor(np.ones(3, dtype=np.float64))  # requires_grad False
        (x * c).sum().backward()
        assert c.grad is None
        assert x.grad is not None

    def test_no_grad_blocks_graph(self):
        x = t64(np.ones(3))
        with T.no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        assert y._backward is None

    def test_deep_chain(self):
        x = t64([1.0])
        y = x
        for _ in range(2000):
            y = y * 1.0003
        y.sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = T.RngStream(42, 3).normal(size=10)
        b = T.RngStream(42, 3).normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_differs(self):
        a = T.RngStream(42, 0).normal(size=10)
        b = T.RngStream(42, 1).normal(size=10)
        assert not np.array_equal(a, b)

    def test_child_streams_are_stable_and_independent(self):
        root = T.RngStream(7)
        a1 = root.child("mixup").random(5)
        a2 = T.RngStream(7).child("mixup").random(5)
        np.testing.assert_array_equal(a1, a2)
        b = root.child("droppath").random(5)
        assert not np.array_equal(a1, b)

    def test_truncated_normal_bounds(self):
        draws = T.RngStream(0).truncated_normal(10000, std=0.02)
        assert draws.dtype == np.float32
        assert np.abs(draws).max() <= 0.04 + 1e-7
