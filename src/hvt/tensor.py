"""Dense tensors with reverse-mode differentiation.

A ``Tensor`` wraps a row-major numpy float array (float32 by default,
float64 for tight gradient checks) and records enough graph structure for
``backward`` to populate ``grad`` on the leaves only: the reachable
tensors that have ``requires_grad`` set and were made by no op (parameters
and other inputs). An intermediate gradient is dropped once it has flowed
to its parents.

Semantics pinned here and relied on by the rest of the package:

* ``backward`` overwrites gradients; it never accumulates across calls.
* A node's backward keeps only the arrays it reads, and never writes to
  the gradient it receives or to an array of the forward pass.
* Binary elementwise ops allow exactly three shape relations: identical
  shapes, a scalar operand, or a trailing-axes ("bias-style") match where
  the smaller shape equals a suffix of the larger. Anything richer must go
  through an explicit :func:`broadcast_to`.
* Mixing float32 and float64 operands is an error, never a silent upcast.
* GELU is the tanh approximation, not the exact Gaussian CDF form.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure-inference paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """n-dimensional float array participating in reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # ------------------------------------------------------------------
    # basic introspection

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self):
        """The underlying array (no copy). Treat as read-only."""
        return self.data

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._non_scalar()

    def _non_scalar(self):
        raise ContractError(f"item() on tensor of shape {self.shape}")

    def __repr__(self):
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{grad})"

    # ------------------------------------------------------------------
    # operator sugar

    def __add__(self, other):
        return elementwise(self, other, "add")

    def __radd__(self, other):
        return elementwise(self, other, "add")

    def __sub__(self, other):
        return elementwise(self, other, "sub")

    def __rsub__(self, other):
        return scale(elementwise(self, other, "sub"), -1.0)

    def __mul__(self, other):
        return elementwise(self, other, "mul")

    def __rmul__(self, other):
        return elementwise(self, other, "mul")

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return elementwise(self, other, "div")
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return slice_(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)

    def sum(self, axis=None, keepdims=False):
        return reduce(self, "sum", axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce(self, "mean", axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce(self, "max", axis, keepdims)

    # ------------------------------------------------------------------
    # backward

    def backward(self):
        """Populate ``grad`` on the leaves only: every reachable
        requires_grad tensor that no op made.

        The receiver must be a scalar. Existing gradients are overwritten,
        not accumulated; call sites never need an explicit reset. An
        intermediate node's gradient is dropped once it has flowed to its
        parents, so its ``grad`` stays None.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        order = _topo_order(self)
        flowing = {id(self): np.ones_like(self.data)}
        for node in order:
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node.grad = g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                held = flowing.get(id(parent))
                flowing[id(parent)] = pg if held is None else held + pg


def _topo_order(root):
    """Reverse-topological order, iterative (graphs can be ~1e3 deep)."""
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


# ----------------------------------------------------------------------
# construction helpers

def as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _make(data, parents, backward_fn):
    out = Tensor(data, dtype=data.dtype)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _check_dtypes(a, b):
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"mixed dtypes {a.data.dtype} and {b.data.dtype}; cast explicitly")


def _binary_shapes_ok(sa, sb):
    """Equal, scalar, or suffix match. Everything else is explicit."""
    if sa == sb:
        return True
    if int(np.prod(sa, dtype=np.int64)) == 1 or int(np.prod(sb, dtype=np.int64)) == 1:
        return True
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    return tuple(big[len(big) - len(small):]) == tuple(small)


def _unbroadcast(g, shape):
    """Sum g down to ``shape`` (inverse of the broadcast that produced it)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g.reshape(shape)


# ----------------------------------------------------------------------
# elementwise ops

def elementwise(a, b, kind):
    """Binary elementwise op, kind in {add, sub, mul, div, scale}.

    ``scale`` (and any plain Python number operand) multiplies by a scalar
    constant that stays outside the graph.
    """
    if kind == "scale" or not isinstance(b, Tensor):
        if isinstance(b, Tensor):
            if b.size != 1:
                raise ShapeError("scale expects a scalar factor")
            b = b.item()
        if kind in ("add", "sub"):
            return _shift(a, float(b) if kind == "add" else -float(b))
        if kind in ("mul", "scale"):
            return scale(a, float(b))
        if kind == "div":
            return scale(a, 1.0 / float(b))
        raise ContractError(f"unknown elementwise kind {kind!r}")
    a = as_tensor(a)
    _check_dtypes(a, b)
    if not _binary_shapes_ok(a.shape, b.shape):
        raise ShapeError(
            f"shapes {a.shape} and {b.shape} do not conform "
            "(equal, scalar, or trailing-axes match required)"
        )
    if kind == "add":
        data = a.data + b.data

        def bwd(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    elif kind == "sub":
        data = a.data - b.data

        def bwd(g):
            return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    elif kind == "mul":
        data = a.data * b.data

        # a constant operand (a drop-path gate, a mask) gets no gradient
        def bwd(g):
            return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                    _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    elif kind == "div":
        data = a.data / b.data

        def bwd(g):
            return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                    _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                    if b.requires_grad else None)

    else:
        raise ContractError(f"unknown elementwise kind {kind!r}")
    return _make(data, (a, b), bwd)


def _shift(a, c):
    data = a.data + a.data.dtype.type(c)
    return _make(data, (a,), lambda g: (g,))


def scale(a, s):
    """a * s for a plain Python scalar s (kept out of the graph)."""
    s = float(s)
    data = a.data * a.data.dtype.type(s)
    return _make(data, (a,), lambda g: (g * s,))


def exp(a):
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,))


def log(a):
    data = np.log(a.data)
    return _make(data, (a,), lambda g: (g / a.data,))


def sqrt(a):
    data = np.sqrt(a.data)
    return _make(data, (a,), lambda g: (g * (0.5 / data),))


def power(a, p):
    """Elementwise a**p for scalar exponent p."""
    p = float(p)
    data = a.data ** p
    return _make(data, (a,), lambda g: (g * p * a.data ** (p - 1.0),))


def clamp_min(a, floor):
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    floor = a.data.dtype.type(floor)
    data = np.maximum(a.data, floor)
    mask = a.data > floor
    return _make(data, (a,), lambda g: (g * mask,))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a):
    """tanh-approximation GELU: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    Forward and backward run the same operations in the same order as the
    plain expression (products commuted only where that is exact), in
    place on a few buffers instead of one temporary per step; the node
    keeps ``x`` and the tanh.
    """
    x = a.data
    # x * x * x, not x ** 3: numpy sends negative bases of ** to a slow pow
    buf = np.multiply(x, x)
    buf *= x
    buf *= 0.044715
    buf += x
    buf *= _GELU_C
    t = np.tanh(buf)
    np.add(t, 1.0, out=buf)
    data = np.multiply(x, 0.5)
    data *= buf

    def bwd(g):
        # 0.5 * x * (1 - t^2) * dinner + 0.5 * (1 + t), times g, with
        # dinner = C * (1 + 3 * 0.044715 * x^2)
        out = np.multiply(x, 0.5)
        buf = np.multiply(t, t)
        np.subtract(1.0, buf, out=buf)
        out *= buf
        np.multiply(x, x, out=buf)
        buf *= 3 * 0.044715
        buf += 1.0
        buf *= _GELU_C
        out *= buf
        np.add(t, 1.0, out=buf)
        buf *= 0.5
        out += buf
        out *= g
        return (out,)

    return _make(data, (a,), bwd)


# ----------------------------------------------------------------------
# matmul, softmax, layer norm

def matmul(a, b, bias=None):
    """Matrix product on the last two axes; leading axes must broadcast.

    ``bias`` (shape ``(E,)``, only with a 2-D ``b`` of shape ``(D, E)``) is
    added in the same node: ``a @ b + bias``.
    """
    a, b = as_tensor(a), as_tensor(b)
    _check_dtypes(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    parents = (a, b)
    if bias is not None:
        bias = as_tensor(bias)
        _check_dtypes(b, bias)
        if b.ndim != 2 or bias.shape != (b.shape[-1],):
            raise ShapeError(f"bias {bias.shape} needs a 2-d weight, got {b.shape}")
        data += bias.data
        parents = (a, b, bias)

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif b.ndim == 2:
            # a shared weight: one GEMM over all leading axes of a, not one
            # product per sample summed afterwards (for a 2-D a they agree)
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        if bias is None:
            return ga, gb
        gbias = g.reshape(-1, g.shape[-1]).sum(axis=0) if bias.requires_grad else None
        return ga, gb, gbias

    return _make(data, parents, bwd)


def softmax(a, axis=-1):
    """Max-stabilized softmax along ``axis``; slices sum to 1."""
    _check_axis(a, axis)
    x = a.data
    peak = _row_max(x) if axis in (-1, x.ndim - 1) else x.max(axis=axis, keepdims=True)
    data = np.subtract(x, peak)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def bwd(g):
        out = np.multiply(g, data)
        dot = out.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=out)
        out *= data
        return (out,)

    return _make(data, (a,), bwd)


_ROW_MAX_SHORT = 16  # rows up to this long reduce in one transposed copy


def _row_max(x):
    """``x.max(axis=-1, keepdims=True)`` without numpy's per-row reduce loop,
    which is slow on short rows: halve rows longer than ``_ROW_MAX_SHORT``
    with elementwise maxima, then take the max over the first axis of a
    transposed copy. Max is exact and NaN propagates, so every value is
    the same; only a zero maximum may carry the other sign than numpy's,
    whose tie order follows its SIMD lanes (and ``x - m`` then differs
    only at ``x = ±0``, where ``exp`` gives 1 either way)."""
    m = x
    while m.shape[-1] > _ROW_MAX_SHORT:
        n = m.shape[-1]
        h = n // 2
        top = np.maximum(m[..., :h], m[..., h:2 * h])
        if n % 2:
            top[..., :1] = np.maximum(top[..., :1], m[..., 2 * h:])
        m = top
    n = m.shape[-1]
    if n == 1:
        return m
    rows = np.ascontiguousarray(m.reshape(-1, n).T)
    return rows.max(axis=0).reshape(m.shape[:-1] + (1,))


def layer_norm(x, gain, bias, eps=1e-5):
    """Standardize the last axis to zero mean / unit variance, then affine.

    ``gain`` and ``bias`` must have shape (D,) where D is the last extent.
    One node with a closed-form backward; both run the plain expressions'
    operations in the same order, in place on a few buffers.
    """
    gain, bias = as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}")
    _check_dtypes(x, gain)
    _check_dtypes(x, bias)
    xhat = np.subtract(x.data, x.data.mean(axis=-1, keepdims=True))  # centered
    data = np.multiply(xhat, xhat)
    var = data.mean(axis=-1, keepdims=True)
    inv = (var + var.dtype.type(eps)) ** -0.5
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        gx = ggain = None
        if gain.requires_grad:
            ggain = np.multiply(g, xhat).sum(axis=lead)
        if x.requires_grad:
            # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
            gx = np.multiply(g, gain.data)  # gxhat
            buf = np.multiply(gx, xhat)
            m2 = buf.mean(axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            np.multiply(xhat, m2, out=buf)
            gx -= buf
            gx *= inv
        gbias = g.sum(axis=lead) if bias.requires_grad else None
        return gx, ggain, gbias

    return _make(data, (x, gain, bias), bwd)


# ----------------------------------------------------------------------
# reductions

def _check_axis(t, axis):
    if axis is None:
        return
    axes = axis if isinstance(axis, tuple) else (axis,)
    for ax in axes:
        if not -t.ndim <= ax < t.ndim:
            raise ShapeError(f"axis {ax} invalid for shape {t.shape}")


def reduce(x, kind, axis=None, keepdims=False):
    """Reduction over ``axis`` (None = all): sum, mean or max."""
    _check_axis(x, axis)
    if kind == "sum":
        data = x.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            return (np.broadcast_to(_regrow(g, x.shape, axis, keepdims), x.shape).copy(),)

    elif kind == "mean":
        data = x.data.mean(axis=axis, keepdims=keepdims)
        count = x.data.size / max(data.size, 1)

        def bwd(g):
            full = np.broadcast_to(_regrow(g, x.shape, axis, keepdims), x.shape)
            return (full / count,)

    elif kind == "max":
        data = x.data.max(axis=axis, keepdims=keepdims)

        def bwd(g):
            full_max = _regrow(data, x.shape, axis, keepdims)
            mask = (x.data == full_max).astype(x.data.dtype)
            ties = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            mask /= ties
            return (mask * _regrow(g, x.shape, axis, keepdims),)

    else:
        raise ContractError(f"unknown reduce kind {kind!r}")
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data, dtype=x.data.dtype)
    return _make(data, (x,), bwd)


def _regrow(g, shape, axis, keepdims):
    """Reinsert reduced axes (size 1) so g broadcasts against ``shape``."""
    if keepdims:
        return g
    if axis is None:
        return g.reshape((1,) * len(shape))
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = sorted(a % len(shape) for a in axes)
    out_shape = list(g.shape)
    for a in axes:
        out_shape.insert(a, 1)
    return g.reshape(out_shape)


# ----------------------------------------------------------------------
# shape manipulation

def reshape(x, shape):
    data = x.data.reshape(shape)
    orig = x.shape
    return _make(data, (x,), lambda g: (g.reshape(orig),))


def permute(x, axes):
    axes = tuple(axes)
    if sorted(a % x.ndim for a in axes) != list(range(x.ndim)):
        raise ShapeError(f"axes {axes} is not a permutation for shape {x.shape}")
    data = np.transpose(x.data, axes)
    inverse = np.argsort([a % x.ndim for a in axes])
    return _make(data, (x,), lambda g: (np.transpose(g, inverse),))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    for t in tensors[1:]:
        _check_dtypes(tensors[0], t)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(moved[offsets[i]:offsets[i + 1]], 0, axis)
            for i in range(len(tensors))
        )

    return _make(data, tuple(tensors), bwd)


def slice_(x, key):
    """Basic (non-advanced) indexing: ints, slices, tuples thereof."""
    parts = key if isinstance(key, tuple) else (key,)
    for p in parts:
        if not isinstance(p, (int, np.integer, slice)) and p is not Ellipsis:
            raise ShapeError(f"only basic indexing is supported, got {type(p).__name__}")
    data = x.data[key]
    orig = x.shape

    def bwd(g):
        full = np.zeros(orig, dtype=g.dtype)
        full[key] = g
        return (full,)

    return _make(np.ascontiguousarray(data), (x,), bwd)


def broadcast_to(x, shape):
    """Explicit differentiable broadcast (the only unrestricted expansion)."""
    shape = tuple(shape)
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    orig = x.shape
    return _make(np.ascontiguousarray(data), (x,), lambda g: (_unbroadcast(g, orig),))


# ----------------------------------------------------------------------
# random streams

class RngStream:
    """Deterministic random stream keyed by (seed, stream path).

    Identical construction arguments always reproduce identical draw
    sequences. ``child`` derives an independent stream; string keys are
    hashed with CRC32 so labels like ``child("mixup")`` are stable across
    runs and platforms.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self._spawn_path = (self._key(stream_id),)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_path)
        )

    @staticmethod
    def _key(k):
        if isinstance(k, str):
            return zlib.crc32(k.encode("utf-8"))
        return int(k)

    def child(self, *keys):
        """An independent stream derived from this one."""
        path = self._spawn_path + tuple(self._key(k) for k in keys)
        out = object.__new__(RngStream)
        out.seed = self.seed
        out._spawn_path = path
        out._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=path)
        )
        return out

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None, dtype=np.float64):
        out = self._gen.standard_normal(size=size, dtype=dtype)
        return out * dtype(scale) + dtype(loc) if (loc, scale) != (0.0, 1.0) else out

    def truncated_normal(self, size, std=0.02, bound=2.0, dtype=np.float32):
        """Normal(0, std) with draws beyond ``bound`` std resampled."""
        out = self._gen.standard_normal(size=size, dtype=dtype)
        bad = np.abs(out) > bound
        while bad.any():
            out[bad] = self._gen.standard_normal(size=int(bad.sum()), dtype=dtype)
            bad = np.abs(out) > bound
        return out * dtype(std)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def beta(self, a, b):
        return float(self._gen.beta(a, b))
