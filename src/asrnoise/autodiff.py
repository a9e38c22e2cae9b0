"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Only what the sequence model needs: elementwise arithmetic with broadcasting,
matrix products, reductions, row gathers, slicing, concatenation and the
composed softmax / layer-norm / GELU helpers.  Gradients accumulate into
``Tensor.grad`` after calling :func:`backward` on a scalar result.

Every op returns a tensor that holds its parents and a closure mapping its
output gradient to theirs.  The closures never refer back to the tensor
they belong to, so a graph holds no reference cycle and is freed as soon as
its last tensor is dropped.  A graph is single-use: once :func:`backward`
has run a node's closure it drops the closure, the node's parents and the
node's own gradient, so only leaves (tensors no op created) keep their
gradients and a second ``backward`` over the same graph does nothing.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_bwd")

    def __init__(self, data, _parents=(), _bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = _parents
        self._bwd = _bwd

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# elementwise -------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(-g, b.data.shape))

    return Tensor(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, _unbroadcast(g / b.data, a.data.shape))
        _acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor(a.data / b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, -g)

    return Tensor(-a.data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)

    def bwd(g):
        _acc(a, g * e)

    return Tensor(e, (a,), bwd)


# linear algebra ----------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading (stack) axes broadcast."""

    def bwd(g):
        _acc(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        _acc(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return Tensor(a.data @ b.data, (a, b), bwd)


def transpose_axes(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    # pure-Python argsort: np.argsort costs microseconds on a 2-4 tuple
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def bwd(g):
        _acc(a, g.transpose(inverse))

    return Tensor(a.data.transpose(axes), (a,), bwd)


# reductions --------------------------------------------------------
def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, a.data.shape))

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


# structure ---------------------------------------------------------
def rows(a: Tensor, idx) -> Tensor:
    """Gather along the first axis; ``idx`` may have any shape, and repeated
    indices accumulate on backward."""
    idx = np.asarray(idx, dtype=np.intp)

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        _acc(a, buf)

    return Tensor(a.data[idx], (a,), bwd)


def select(a: Tensor, row_idx, col_idx) -> Tensor:
    """Pick entries a[row_idx[i], col_idx[i]]: scalars from a 2-D tensor,
    rows from a 3-D one."""
    row_idx = np.asarray(row_idx, dtype=np.intp)
    col_idx = np.asarray(col_idx, dtype=np.intp)

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, (row_idx, col_idx), g)
        _acc(a, buf)

    return Tensor(a.data[row_idx, col_idx], (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _acc(t, g[tuple(index)])
            offset += size

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    def bwd(g):
        _acc(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), (a,), bwd)


# fused nonlinearities ----------------------------------------------
def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        _acc(a, p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return Tensor(p, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    lp = shifted - lse

    def bwd(g):
        _acc(a, g - np.exp(lp) * g.sum(axis=axis, keepdims=True))

    return Tensor(lp, (a,), bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise layer normalization with learned scale and shift.

    The epsilon only guards exactly-constant rows; float64 keeps the
    normalization well-conditioned for any nondegenerate input.
    """
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + eps)
    xhat = centered / sigma

    def bwd(g):
        gg = g * gamma.data
        _acc(
            a,
            (
                gg
                - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
            )
            / sigma,
        )
        axes = tuple(range(g.ndim - 1))
        _acc(gamma, (g * xhat).sum(axis=axes))
        _acc(beta, g.sum(axis=axes))

    return Tensor(xhat * gamma.data + beta.data, (a, gamma, beta), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """GELU activation (tanh approximation); smooth, so finite differences agree."""
    x = a.data
    # x*x*x, not x**3: numpy's float power is many times slower than two products
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))

    def bwd(g):
        sech2 = 1.0 - t * t
        local = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
        _acc(a, g * local)

    return Tensor(0.5 * x * (1.0 + t), (a,), bwd)


def backward(result: Tensor) -> None:
    """Reverse-accumulate gradients from a scalar result into all leaves.

    Each node's closure, parents and gradient are released as soon as its
    closure has run, so the graph is dismantled as the pass goes and cannot
    be differentiated again.
    """
    if result.data.size != 1:
        raise ValueError("backward expects a scalar result tensor")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(result, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    result.grad = np.ones_like(result.data)
    for node in reversed(order):
        bwd = node._bwd
        if bwd is None:
            continue
        if node.grad is not None:
            bwd(node.grad)
        node._bwd = None
        node._parents = ()
        node.grad = None
