"""The engine's in-place kernels against the plain expressions they replaced.

``gelu``, ``softmax`` and ``layer_norm`` run on reusable buffers, and
``patch_merge`` is one reshape-permute-reshape instead of four strided
slices and a concat. The references below are the replaced formulations,
kept here only as test oracles. Every forward output and every gradient
must match them bit for bit (memory layout included for C-ordered
gradients), so training logs, checkpoints and predictions stay the same
bytes.
"""

import numpy as np
import pytest

from hvt import model as M
from hvt import tensor as T
from hvt.model import HVTConfig
from hvt.tensor import Tensor

DTYPES = (np.float32, np.float64)
_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(_UINT[got.dtype]), want.view(_UINT[want.dtype])))


# ----------------------------------------------------------------------
# test-only references: (forward array, backward function of g)

def ref_gelu(x):
    inner = T._GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def bwd(g):
        dinner = T._GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
        return (g * dgelu,)

    return data, bwd


def ref_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return ((g - dot) * data,)

    return data, bwd


def ref_layer_norm(x, gain, bias, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + var.dtype.type(eps)) ** -0.5
    xhat = centered * inv
    data = xhat * gain + bias

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        gxhat = g * gain
        gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return data, bwd


def ref_patch_merge(x, w, grid):
    single = x.ndim == 2
    if single:
        x = T.reshape(x, (1,) + x.shape)
    gh, gw = grid
    b, n, d = x.shape
    g = T.reshape(x, (b, gh, gw, d))
    quads = [g[:, 0::2, 0::2, :], g[:, 0::2, 1::2, :],
             g[:, 1::2, 0::2, :], g[:, 1::2, 1::2, :]]
    out = T.matmul(T.reshape(T.concat(quads, axis=-1), (b, n // 4, 4 * d)), w)
    return out[0] if single else out


# ----------------------------------------------------------------------
# inputs

def _values(shape, dtype, seed, spread=3.0):
    x = (np.random.default_rng(seed).standard_normal(shape) * spread).astype(dtype)
    flat = x.reshape(-1)
    specials = np.array([0.0, -0.0, 1e-20, -1e-20, 30.0, -30.0, 5.0, -5.0], dtype=dtype)
    flat[:min(len(specials), flat.size)] = specials[:flat.size]
    return x


def _grads(shape, dtype, seed):
    """Upstream gradients: C-ordered, and a transposed (non-contiguous) view
    as a permute's backward hands one on."""
    g = np.random.default_rng(seed + 100).standard_normal(shape).astype(dtype)
    flipped = np.ascontiguousarray(np.swapaxes(g, 0, -1)).swapaxes(0, -1)
    return {"c": g, "transposed": flipped}


def _check_backward(node, ref_bwd, g, layout):
    before = g.copy()
    got = node._backward(g)
    again = node._backward(g)
    want = ref_bwd(g)
    assert len(got) == len(want)
    for a, b, c in zip(got, want, again):
        if b is None:
            continue
        assert same_bits(a, b)
        assert same_bits(c, b)  # a second backward reads the same saved arrays
        if layout == "c":
            assert a.strides == b.strides
    assert same_bits(g, before)  # the received gradient is never written


# ----------------------------------------------------------------------
# kernels

GELU_SHAPES = [(64, 64, 64), (6, 16, 128), (4, 1, 512), (7,)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", GELU_SHAPES)
@pytest.mark.parametrize("layout", ["c", "transposed"])
def test_gelu_matches_plain_expression(dtype, shape, layout):
    x = _values(shape, dtype, 1)
    node = T.gelu(Tensor(x, requires_grad=True))
    data, bwd = ref_gelu(x)
    assert same_bits(node.data, data) and node.data.strides == data.strides
    _check_backward(node, bwd, _grads(shape, dtype, 1)[layout], layout)


SOFTMAX_SHAPES = [(8, 2, 64, 64), (8, 4, 16, 16), (8, 8, 4, 4), (8, 16, 1, 1),
                  (5, 7), (3, 37), (9,)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
@pytest.mark.parametrize("layout", ["c", "transposed"])
def test_softmax_matches_plain_expression(dtype, shape, layout):
    x = _values(shape, dtype, 2)
    node = T.softmax(Tensor(x, requires_grad=True), axis=-1)
    data, bwd = ref_softmax(x)
    assert same_bits(node.data, data) and node.data.strides == data.strides
    _check_backward(node, bwd, _grads(shape, dtype, 2)[layout], layout)


@pytest.mark.parametrize("dtype", DTYPES)
def test_softmax_over_a_leading_axis_matches_plain_expression(dtype):
    x = _values((6, 5, 4), dtype, 3)
    node = T.softmax(Tensor(x, requires_grad=True), axis=1)
    data, bwd = ref_softmax(x, axis=1)
    assert same_bits(node.data, data)
    _check_backward(node, bwd, _grads(x.shape, dtype, 3)["c"], "c")


LN_SHAPES = [(16, 64, 16), (16, 16, 32), (4, 4, 64), (3, 1, 128), (5, 7)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", LN_SHAPES)
@pytest.mark.parametrize("layout", ["c", "transposed"])
def test_layer_norm_matches_plain_expression(dtype, shape, layout):
    x = _values(shape, dtype, 4, spread=2.0) + dtype(0.5)
    rng = np.random.default_rng(5)
    gain = (1.0 + 0.1 * rng.standard_normal(shape[-1])).astype(dtype)
    bias = (0.1 * rng.standard_normal(shape[-1])).astype(dtype)
    node = T.layer_norm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True),
                        Tensor(bias, requires_grad=True))
    data, bwd = ref_layer_norm(x, gain, bias)
    assert same_bits(node.data, data) and node.data.strides == data.strides
    _check_backward(node, bwd, _grads(shape, dtype, 4)[layout], layout)


@pytest.mark.parametrize("wants", ["x", "gain", "bias"])
def test_layer_norm_computes_only_the_gradients_asked_for(wants):
    rng = np.random.default_rng(6)
    args = {k: Tensor(rng.standard_normal(s), requires_grad=(k == wants), dtype=np.float64)
            for k, s in (("x", (3, 4, 8)), ("gain", (8,)), ("bias", (8,)))}
    node = T.layer_norm(args["x"], args["gain"], args["bias"])
    got = dict(zip(("x", "gain", "bias"), node._backward(np.ones((3, 4, 8)))))
    assert [k for k, v in got.items() if v is not None] == [wants]


class TestRowMax:
    """``softmax``'s row max against ``x.max(axis=-1, keepdims=True)``."""

    SHAPES = [(64, 2, 64, 64), (64, 4, 16, 16), (64, 8, 4, 4), (64, 16, 1, 1),
              (3, 17), (2, 33), (5, 100), (4, 3), (6,), (0, 5)]

    @staticmethod
    def check(x):
        got, want = T._row_max(x), x.max(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        # every value equal, NaN where numpy gives NaN ...
        assert np.array_equal(got, want, equal_nan=True)
        # ... and every nonzero bit pattern the same: only the sign of a
        # zero maximum may differ, because numpy's tie order follows its
        # SIMD lanes
        nonzero = want != 0
        assert same_bits(got[nonzero], want[nonzero])
        # the softmax built on either maximum is the same bits
        if x.size:
            with np.errstate(invalid="ignore"):  # inf - inf in ±inf rows
                assert same_bits(T.softmax(Tensor(x), axis=-1).data, ref_softmax(x)[0])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_rows(self, dtype, shape):
        self.check(np.random.default_rng(7).standard_normal(shape).astype(dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [2, 4, 7, 16, 17, 64])
    def test_tied_signed_zero_infinite_and_nan_rows(self, dtype, n):
        rng = np.random.default_rng(n)
        pool = np.array([-0.0, 0.0, -1.0, 2.0, np.inf, -np.inf, np.nan], dtype=dtype)
        rows = [
            np.full(n, 2.0),                         # all tied
            rng.choice(pool[:3], n),                 # ±0 ties over negatives
            rng.choice(pool[:4], n),                 # ties at 2
            np.full(n, -np.inf),                     # all -inf
            rng.choice(pool[:6], n),                 # ±inf among finite
            rng.choice(pool, n),                     # anything, NaN included
            np.where(np.arange(n) == n - 1, np.nan, 1.0),  # NaN last
        ]
        self.check(np.stack(rows).astype(dtype))
        self.check(np.stack(rows * 5).astype(dtype).reshape(5, len(rows), n))


# ----------------------------------------------------------------------
# patch merge

def _desk_merges():
    cfg = HVTConfig.desk()
    return [(cfg.grid(s), cfg.dims[s], cfg.dims[s + 1]) for s in range(cfg.n_stages - 1)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("merge", _desk_merges(), ids=lambda m: f"{m[0][0]}x{m[0][1]}")
def test_patch_merge_matches_slices_and_concat(dtype, batched, merge):
    (gh, gw), d, d_out = merge
    rng = np.random.default_rng(gh * 10 + d)
    shape = ((3,) if batched else ()) + (gh * gw, d)
    x_arr = rng.standard_normal(shape).astype(dtype)
    w_arr = rng.standard_normal((4 * d, d_out)).astype(dtype)
    outs, grads = [], []
    for merge_fn in (M.patch_merge, ref_patch_merge):
        x, w = Tensor(x_arr, requires_grad=True), Tensor(w_arr, requires_grad=True)
        out = merge_fn(x, w, (gh, gw))
        up = Tensor(np.random.default_rng(9).standard_normal(out.shape).astype(dtype))
        T.reduce(out * up, "sum").backward()
        outs.append(out.data)
        grads.append((x.grad, w.grad))
    assert same_bits(outs[0], outs[1])
    for got, want in zip(*grads):
        assert same_bits(got, want)


def test_patch_merge_makes_no_slice_or_concat_node(monkeypatch):
    calls = []
    for name in ("slice_", "concat"):
        monkeypatch.setattr(T, name, lambda *a, name=name, **k: calls.append(name))
    x = Tensor(np.ones((2, 64, 16), dtype=np.float32), requires_grad=True)
    M.patch_merge(x, Tensor(np.ones((64, 32), dtype=np.float32)), (8, 8))
    assert calls == []


# ----------------------------------------------------------------------
# leaf-only gradients

def _tiny_graph():
    x = Tensor(np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]]), requires_grad=True)
    gain = Tensor(np.array([1.0, 2.0, 0.5]), requires_grad=True)
    bias = Tensor(np.zeros(3), requires_grad=True)
    w = Tensor(np.array([[1.0, -1.0], [0.5, 2.0], [-0.25, 1.0]]), requires_grad=True)
    const = Tensor(np.array([[2.0, 3.0], [4.0, 5.0]]))
    h = T.gelu(T.layer_norm(x, gain, bias))
    logits = T.matmul(h, w)
    probs = T.softmax(logits * const, axis=-1)
    loss = T.reduce(T.log(probs), "mean")
    return loss, (x, gain, bias, w), (h, logits, probs), const


class TestLeafOnlyGradients:
    def test_intermediates_get_no_grad_and_every_leaf_does(self):
        loss, leaves, inner, const = _tiny_graph()
        loss.backward()
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        for node in inner + (loss,):
            assert node.grad is None
        assert const.grad is None

    def test_second_backward_overwrites(self):
        loss, leaves, _, _ = _tiny_graph()
        loss.backward()
        first = [leaf.grad.copy() for leaf in leaves]
        for leaf in leaves:
            leaf.grad = np.full(leaf.shape, 7.0)
        loss.backward()
        for leaf, want in zip(leaves, first):
            assert same_bits(leaf.grad, want)

    def test_leaf_root_gets_ones(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        x.backward()
        assert same_bits(x.grad, np.ones(1))

    @pytest.mark.parametrize("kind", ["mul", "div"])
    def test_constant_operand_gets_no_gradient(self, kind):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        c = Tensor(np.array([4.0, 8.0]))
        for a, b, wanted in ((x, c, (True, False)), (c, x, (False, True))):
            node = T.elementwise(a, b, kind)
            got = node._backward(np.ones(2))
            assert tuple(g is not None for g in got) == wanted
