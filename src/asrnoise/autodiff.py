"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Only the ops the sequence model runs: ``add`` and ``mul`` with
broadcasting, ``transpose_axes``, the ``rows`` and ``select`` gathers,
``concat``, the fused ``linear`` (``x @ w + b``), multi-head ``attention``,
``layer_norm`` and ``gelu`` kernels, and the two loss terms: ``nll``, the
summed negative log-softmax at each row's target, and ``kl``, the summed KL
divergence from each row's softmax to a fixed distribution.
``softmax_array`` is the plain numpy softmax the heads and kernels share.
The composed ops the kernels and losses are checked against live in the
test oracles, since no model code runs them.  Gradients accumulate into
``Tensor.grad`` after calling :func:`backward` on a scalar result.  A leaf
whose ``grad`` is preset to a zeroed array of its shape accumulates into
that array in place; training keeps all parameter gradients in one flat
buffer this way.

Gradients are kept only where needed.  A tensor a caller makes is a leaf,
and its ``needs_grad`` bit says whether it wants a gradient (default True;
constants pass False).  An op's output needs a gradient iff one of its
inputs does.  Only such an output keeps its parents and a closure mapping
its output gradient to theirs, and that closure computes a parent's
gradient only if the parent needs one.  A forward pass over inputs that
need no gradient therefore builds no graph at all.

The closures never refer back to the tensor they belong to, so a graph
holds no reference cycle and is freed as soon as its last tensor is
dropped.  A graph is single-use: once :func:`backward` has run a node's
closure it drops the closure, the node's parents and the node's own
gradient, so only leaves keep their gradients and a second ``backward``
over the same graph does nothing.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "needs_grad", "_parents", "_bwd")

    def __init__(self, data, needs_grad: bool = True, _parents=(), _bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.needs_grad = needs_grad
        self._parents: tuple[Tensor, ...] = _parents
        self._bwd = _bwd

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _node(data, parents: tuple, bwd) -> Tensor:
    """An op's output: it needs a gradient iff one of ``parents`` does, and
    only then keeps its parents and backward closure."""
    for parent in parents:
        if parent.needs_grad:
            return Tensor(data, True, parents, bwd)
    return Tensor(data, False)


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
        if a.needs_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.needs_grad:
            _acc(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        if a.needs_grad:
            _acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.needs_grad:
            _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd)


# linear algebra ----------------------------------------------------
def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one op: ``x`` ``[..., d]`` times a matrix ``w``
    ``[d, k]`` plus a bias broadcast over the leading axes.  Same values and
    gradients as ``add(matmul)``.

    The weight gradient is one 2-D product over all of ``x``'s rows: a
    stacked product followed by a sum over the stack costs one small BLAS
    call per stack entry."""

    def bwd(g):
        if x.needs_grad:
            _acc(x, _unbroadcast(g @ w.data.swapaxes(-1, -2), x.data.shape))
        if w.needs_grad:
            _acc(w, x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        if b.needs_grad:
            _acc(b, _unbroadcast(g, b.data.shape))

    return _node(x.data @ w.data + b.data, (x, w, b), bwd)


def transpose_axes(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    # pure-Python argsort: np.argsort costs microseconds on a 2-4 tuple
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def bwd(g):
        _acc(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), bwd)


# structure ---------------------------------------------------------
def _scatter_rows(idx: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``np.add.at(zeros(shape), idx, g)`` for non-negative row indices
    ``idx`` into the first axis, as one ``np.bincount`` over flat indices
    ``idx * d + column``.  bincount adds its weights in input order, the
    order ``np.add.at`` adds the rows in, so the two agree bit for bit."""
    d = math.prod(shape[1:])
    flat = idx.reshape(-1, 1) * d + np.arange(d) if d != 1 else idx
    return np.bincount(flat.ravel(), weights=g.ravel(), minlength=math.prod(shape)).reshape(shape)


def rows(a: Tensor, idx) -> Tensor:
    """Gather along the first axis; ``idx`` (non-negative) may have any
    shape, and repeated indices accumulate on backward."""
    idx = np.asarray(idx, dtype=np.intp)

    def bwd(g):
        _acc(a, _scatter_rows(idx, g, a.data.shape))

    # take, not a.data[idx]: the same rows, without fancy indexing's overhead
    return _node(a.data.take(idx, axis=0), (a,), bwd)


def select(a: Tensor, row_idx, col_idx) -> Tensor:
    """Pick entries a[row_idx[i], col_idx[i]] (non-negative indices):
    scalars from a 2-D tensor, rows from a 3-D one."""
    row_idx = np.asarray(row_idx, dtype=np.intp)
    col_idx = np.asarray(col_idx, dtype=np.intp)

    def bwd(g):
        # (row, col) is row row * n_cols + col of a with its first two axes merged
        shape = a.data.shape
        flat_idx = row_idx * shape[1] + col_idx
        _acc(a, _scatter_rows(flat_idx, g, (shape[0] * shape[1], *shape[2:])).reshape(shape))

    return _node(a.data[row_idx, col_idx], (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.needs_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                _acc(t, g[tuple(index)])
            offset += size

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


# fused nonlinearities ----------------------------------------------
def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax of a plain array along ``axis``."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    key_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Multi-head scaled dot-product attention as one op.

    Queries ``[B, n, d]`` attend over keys and values ``[B, m, d]``; each of
    the ``n_heads`` heads takes ``d / n_heads`` consecutive features, and the
    heads' outputs are merged back to ``[B, n, d]``.  ``key_mask``
    (``[B, m]``, True at real keys) adds -inf to the scores of padded keys,
    so they get exactly zero weight and zero gradient.
    """
    batch, n, d = q.data.shape
    m = k.data.shape[1]
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    qh = q.data.reshape(batch, n, n_heads, dh).transpose(0, 2, 1, 3)
    kh = k.data.reshape(batch, m, n_heads, dh).transpose(0, 2, 1, 3)
    vh = v.data.reshape(batch, m, n_heads, dh).transpose(0, 2, 1, 3)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    if key_mask is not None:
        scores = scores + np.where(key_mask, 0.0, -np.inf)[:, None, None, :]
    p = softmax_array(scores)
    out = (p @ vh).transpose(0, 2, 1, 3).reshape(batch, n, d)

    def bwd(g):
        g_heads = g.reshape(batch, n, n_heads, dh).transpose(0, 2, 1, 3)
        if v.needs_grad:
            g_vh = p.swapaxes(-1, -2) @ g_heads
            _acc(v, g_vh.transpose(0, 2, 1, 3).reshape(batch, m, d))
        if q.needs_grad or k.needs_grad:
            g_p = g_heads @ vh.swapaxes(-1, -2)
            g_scores = (p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))) * scale
            if q.needs_grad:
                _acc(q, (g_scores @ kh).transpose(0, 2, 1, 3).reshape(batch, n, d))
            if k.needs_grad:
                g_kh = (qh.swapaxes(-1, -2) @ g_scores).transpose(0, 1, 3, 2)
                _acc(k, g_kh.transpose(0, 2, 1, 3).reshape(batch, m, d))

    return _node(out, (q, k, v), bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise layer normalization with learned scale and shift.

    The epsilon only guards exactly-constant rows; float64 keeps the
    normalization well-conditioned for any nondegenerate input.  Means are
    ``sum / d``, which is what ``np.mean`` computes, without its Python-level
    overhead.
    """
    d = a.data.shape[-1]
    mu = a.data.sum(axis=-1, keepdims=True) / d
    centered = a.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    sigma = np.sqrt(var + eps)
    xhat = centered / sigma

    def bwd(g):
        axes = tuple(range(g.ndim - 1))
        if a.needs_grad:
            gg = g * gamma.data
            _acc(
                a,
                (
                    gg
                    - gg.sum(axis=-1, keepdims=True) / d
                    - xhat * ((gg * xhat).sum(axis=-1, keepdims=True) / d)
                )
                / sigma,
            )
        if gamma.needs_grad:
            _acc(gamma, (g * xhat).sum(axis=axes))
        if beta.needs_grad:
            _acc(beta, g.sum(axis=axes))

    return _node(xhat * gamma.data + beta.data, (a, gamma, beta), bwd)


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

    return _node(0.5 * x * (1.0 + t), (a,), bwd)


# losses ------------------------------------------------------------
def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def nll(logits: Tensor, targets) -> Tensor:
    """Summed negative log-softmax of each row of ``logits`` ``[n, V]`` at
    its target id (``targets`` ``[n]``)."""
    picked = (np.arange(len(targets)), np.asarray(targets, dtype=np.intp))
    lp = _log_softmax(logits.data)

    def bwd(g):
        buf = np.zeros_like(lp)
        buf[picked] = -g
        _acc(logits, buf - np.exp(lp) * buf.sum(axis=-1, keepdims=True))

    return _node(-lp[picked].sum(), (logits,), bwd)


def kl(logits: Tensor, log_r: np.ndarray) -> Tensor:
    """Summed KL divergence from each row's softmax to ``exp(log_r)``, for
    ``logits`` and a constant ``log_r`` of the same shape ``[n, V]``."""
    lp = _log_softmax(logits.data)
    p = np.exp(lp)
    diff = lp - log_r

    def bwd(g):
        # g*p reaches lp through diff, g*diff*p through p = exp(lp): the
        # first sums to zero only in exact arithmetic, so it is kept
        glp = g * p + g * diff * p
        _acc(logits, glp - p * glp.sum(axis=-1, keepdims=True))

    return _node((p * diff).sum(), (logits,), bwd)


def backward(result: Tensor) -> None:
    """Reverse-accumulate gradients from a scalar result into all leaves
    that need them.

    Each node's closure, parents and gradient are released as soon as its
    closure has run, so the graph is dismantled as the pass goes and cannot
    be differentiated again.  Raises ValueError if ``result`` is not a
    scalar or needs no gradient (no input it depends on wants one).
    """
    if result.data.size != 1:
        raise ValueError("backward expects a scalar result tensor")
    if not result.needs_grad:
        raise ValueError("backward needs a result that depends on a tensor needing a gradient")
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
