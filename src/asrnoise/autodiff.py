"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Only the ops the sequence model runs: ``add`` and ``mul`` with
broadcasting, ``transpose_axes``, the ``rows`` gather, ``concat``, the
fused ``linear`` (``x @ w + b``), multi-head ``attention`` (over a batch,
or over packed rows grouped by a :class:`Grid`),
``layer_norm`` and ``gelu`` kernels, and the two loss terms: ``nll``, the
summed negative log-softmax at each row's target, and ``kl``, the summed KL
divergence from each row's softmax to a fixed distribution.
``softmax_in_place`` is the plain numpy softmax the heads and kernels share.
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

No two tensors' gradients share memory.  A closure that computes a fresh
array stores it as is (``_own``).  Pass-through gradients are handed on
without a copy where nothing else holds them, since :func:`backward` drops
a node's output gradient right after its closure: ``add`` hands it to its
first parent that needs one, ``transpose_axes`` a transposed view of it,
and ``concat`` each parent its own disjoint slice.  Only ``add``'s second
parent and a bias gradient that ``_unbroadcast`` may return unchanged get
a copy (``_acc``).  ``linear``'s weight gradient sums
2-D products over blocks of ``WEIGHT_GRAD_ROWS`` rows in a fixed order, so
the order in which it adds rows does not depend on the BLAS thread count.
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
    """Accumulate a gradient that something else may hold: a view of the
    closure's own output gradient, or an array shared with another parent."""
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _own(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a gradient that nothing else holds, without copying."""
    if t.grad is None:
        t.grad = g
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
        # backward drops g once this closure has run, so the first parent
        # may keep it; only a second parent needs a copy
        store = _own
        if a.needs_grad:
            _own(a, _unbroadcast(g, a.data.shape))
            store = _acc
        if b.needs_grad:
            store(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        if a.needs_grad:
            _own(a, _unbroadcast(g * b.data, a.data.shape))
        if b.needs_grad:
            _own(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd)


# linear algebra ----------------------------------------------------
WEIGHT_GRAD_ROWS = 256


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``x.T @ g`` for 2-D ``x`` ``[r, d]`` and ``g`` ``[r, k]``, summed in
    order over blocks of ``WEIGHT_GRAD_ROWS`` rows.

    One product over all r rows lets BLAS add the rows in an order that
    depends on the thread count.  OpenBLAS does not split a block this
    small, and the blocks are added in a fixed order.  A threaded product
    whose output width is not a multiple of 8 can still change bits with
    the thread count (see README, "Notes on determinism")."""
    n = WEIGHT_GRAD_ROWS
    out = x[:n].T @ g[:n]
    for lo in range(n, x.shape[0], n):
        out += x[lo : lo + n].T @ g[lo : lo + n]
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one op: ``x`` ``[..., d]`` times a matrix ``w``
    ``[d, k]`` plus a bias broadcast over the leading axes.  Same values and
    gradients as ``add(matmul)``.

    Backward runs 2-D products over all of ``x``'s rows, not stacked ones
    (one small BLAS call per stack entry): the input gradient is one
    product, and the weight gradient is :func:`_weight_grad`'s blocked sum,
    whose order of rows does not depend on the BLAS thread count."""

    def bwd(g):
        d, k = w.data.shape
        if x.needs_grad:
            _own(x, (g.reshape(-1, k) @ w.data.T).reshape(x.data.shape))
        if w.needs_grad:
            _own(w, _weight_grad(x.data.reshape(-1, d), g.reshape(-1, k)))
        if b.needs_grad:
            _acc(b, _unbroadcast(g, b.data.shape))

    return _node(x.data @ w.data + b.data, (x, w, b), bwd)


def transpose_axes(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    # pure-Python argsort: np.argsort costs microseconds on a 2-4 tuple
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def bwd(g):
        # a view of g, which backward drops once this closure has run
        _own(a, g.transpose(inverse))

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
        _own(a, _scatter_rows(idx, g, a.data.shape))

    # take, not a.data[idx]: the same rows, without fancy indexing's overhead
    return _node(a.data.take(idx, axis=0), (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.needs_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                # disjoint views of g, which backward drops once this closure has run
                _own(t, g[tuple(index)])
            offset += size

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


# fused nonlinearities ----------------------------------------------
def softmax_in_place(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of ``x``, computed in
    ``x``'s own memory and returned: the same operations, so the same bits,
    as a fresh array per step."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


class Grid:
    """Where the rows of a packed array sit in a ``[groups, width]`` grid.

    Row ``r`` belongs to group ``group[r]`` and takes the group's next free
    slot in row order, so a group's rows fill its slots from 0 and ``width``
    is the largest group's row count.  Each row has a cell of its own; the
    other cells are empty.  :func:`attention` lays packed queries, keys and
    values out this way.
    """

    __slots__ = ("slots", "cells", "shape")

    def __init__(self, group, n_groups: int):
        group = np.asarray(group, dtype=np.intp)
        counts = np.bincount(group, minlength=n_groups)
        order = np.argsort(group, kind="stable")
        self.slots = np.empty_like(group)
        self.slots[order] = np.arange(group.size) - np.repeat(np.cumsum(counts) - counts, counts)
        width = int(counts.max(initial=0))
        #: each row's flat cell ``group * width + slot``
        self.cells = group * width + self.slots
        self.shape = (n_groups, width)

    def place(self, packed: np.ndarray) -> np.ndarray:
        """The rows of ``packed`` ``[rows, d]`` in their cells of a zero
        ``[groups, width, d]`` grid."""
        out = np.zeros((self.shape[0] * self.shape[1], packed.shape[-1]))
        out[self.cells] = packed
        return out.reshape(*self.shape, packed.shape[-1])

    def take(self, grid: np.ndarray) -> np.ndarray:
        """The rows ``[rows, d]`` of a ``[groups, width, d]`` grid's cells."""
        return grid.reshape(-1, grid.shape[-1]).take(self.cells, axis=0)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    grids: Optional[tuple[Grid, Grid]] = None,
) -> Tensor:
    """Multi-head scaled dot-product attention as one op.

    Queries ``[B, n, d]`` attend over keys and values ``[B, m, d]`` of their
    batch entry; each of the ``n_heads`` heads takes ``d / n_heads``
    consecutive features, and the heads' outputs are merged back to
    ``[B, n, d]``.

    With ``grids`` = ``(q_grid, kv_grid)`` the inputs are packed rows,
    queries ``[Q, d]`` and keys and values ``[R, d]``: the op places them in
    the cells of their :class:`Grid`, each query attends over the keys of
    its own group, empty key cells get -inf scores and so exactly zero
    weight, and the output ``[Q, d]`` and the input gradients are taken back
    from the rows' cells.  A group that holds a query must hold a key.
    """
    qd, kd, vd = q.data, k.data, v.data
    if grids is not None:
        q_grid, kv_grid = grids
        qd, kd, vd = q_grid.place(qd), kv_grid.place(kd), kv_grid.place(vd)
    batch, n, d = qd.shape
    m = kd.shape[1]
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    qh = qd.reshape(batch, n, n_heads, dh).transpose(0, 2, 1, 3)
    kh = kd.reshape(batch, m, n_heads, dh).transpose(0, 2, 1, 3)
    vh = vd.reshape(batch, m, n_heads, dh).transpose(0, 2, 1, 3)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    if grids is not None:
        bias = np.full(batch * m, -np.inf)
        bias[kv_grid.cells] = 0.0
        scores += bias.reshape(batch, 1, 1, m)
    p = softmax_in_place(scores)
    out = (p @ vh).transpose(0, 2, 1, 3).reshape(batch, n, d)
    if grids is not None:
        out = q_grid.take(out)

    def bwd(g):
        if grids is not None:
            g = q_grid.place(g)
        g_heads = g.reshape(batch, n, n_heads, dh).transpose(0, 2, 1, 3)
        if v.needs_grad:
            g_v = (p.swapaxes(-1, -2) @ g_heads).transpose(0, 2, 1, 3).reshape(batch, m, d)
            _own(v, g_v if grids is None else kv_grid.take(g_v))
        if q.needs_grad or k.needs_grad:
            g_p = g_heads @ vh.swapaxes(-1, -2)
            g_scores = (p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))) * scale
            if q.needs_grad:
                g_q = (g_scores @ kh).transpose(0, 2, 1, 3).reshape(batch, n, d)
                _own(q, g_q if grids is None else q_grid.take(g_q))
            if k.needs_grad:
                g_kh = (qh.swapaxes(-1, -2) @ g_scores).transpose(0, 1, 3, 2)
                g_k = g_kh.transpose(0, 2, 1, 3).reshape(batch, m, d)
                _own(k, g_k if grids is None else kv_grid.take(g_k))

    return _node(out, (q, k, v), bwd)


_LN_EPS = 1e-12


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Row-wise layer normalization with learned scale and shift.

    The epsilon ``_LN_EPS`` only guards exactly-constant rows; float64 keeps
    the normalization well-conditioned for any nondegenerate input.  Means
    are ``sum / d``, which is what ``np.mean`` computes, without its
    Python-level overhead.
    """
    d = a.data.shape[-1]
    mu = a.data.sum(axis=-1, keepdims=True) / d
    centered = a.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    sigma = np.sqrt(var + _LN_EPS)
    xhat = centered / sigma

    def bwd(g):
        axes = tuple(range(g.ndim - 1))
        if a.needs_grad:
            # ((gg - mean(gg)) - xhat * mean(gg * xhat)) / sigma, in place
            gg = g * gamma.data
            mean_gg = gg.sum(axis=-1, keepdims=True) / d
            tmp = gg * xhat
            mean_ggx = tmp.sum(axis=-1, keepdims=True) / d
            gg -= mean_gg
            gg -= np.multiply(xhat, mean_ggx, out=tmp)
            gg /= sigma
            _own(a, gg)
        if gamma.needs_grad:
            _own(gamma, (g * xhat).sum(axis=axes))
        if beta.needs_grad:
            _own(beta, g.sum(axis=axes))

    return _node(xhat * gamma.data + beta.data, (a, gamma, beta), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """GELU activation (tanh approximation); smooth, so finite differences agree."""
    x = a.data
    # x*x*x, not x**3: numpy's float power is many times slower than two products
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))

    def bwd(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t*t) * C * (1 + 3 * 0.044715 * x*x)),
        # in place; a product by 0.5 is exact short of underflow, so both factors
        # 0.5 move to the end without changing a bit
        local = t * t
        np.subtract(1.0, local, out=local)
        local *= x
        local *= _GELU_C
        poly = x * (3.0 * 0.044715)
        poly *= x
        poly += 1.0
        local *= poly
        local += np.add(t, 1.0, out=poly)
        local *= g
        local *= 0.5
        _own(a, local)

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
        _own(logits, buf - np.exp(lp) * buf.sum(axis=-1, keepdims=True))

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
        _own(logits, glp - p * glp.sum(axis=-1, keepdims=True))

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
