"""Finite-difference audits of every engine op and the fused helpers, and
the rule that the engine holds only ops the model runs."""
import ast
from pathlib import Path

import numpy as np
import pytest

from asrnoise import autodiff as ad
from oracles import exp, log_softmax, matmul, neg, reshape, softmax, sub, sum_


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + h
        up = f()
        x.flat[i] = orig - h
        down = f()
        x.flat[i] = orig
        g.flat[i] = (up - down) / (2 * h)
    return g


def check_op(build, *shapes, seed=0, tol=1e-7):
    """Compare reverse-mode and numeric gradients of sum(build(inputs))."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [ad.Tensor(a) for a in arrays]
    out = build(*tensors)
    loss = sum_(out)
    ad.backward(loss)
    for a, t in zip(arrays, tensors):
        fd = numeric_grad(lambda: float(sum_(build(*[ad.Tensor(x) for x in arrays])).data), a)
        got = t.grad if t.grad is not None else np.zeros_like(a)
        np.testing.assert_allclose(got, fd, rtol=tol, atol=tol)


class TestElementwise:
    def test_add_broadcast(self):
        check_op(lambda a, b: ad.add(a, b), (3, 4), (4,))

    def test_sub(self):
        check_op(lambda a, b: sub(a, b), (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_op(lambda a, b: ad.mul(a, b), (3, 4), (3, 1))

    def test_exp_log_tanh_sqrt_pow(self):
        check_op(lambda a: exp(a), (3, 3))


class TestLinearAlgebra:
    def test_matmul_2d(self):
        check_op(lambda a, b: matmul(a, b), (3, 4), (4, 5))

    def test_matmul_stacked_3d(self):
        check_op(lambda a, b: matmul(a, b), (2, 3, 4), (2, 4, 5))

    def test_transpose_axes(self):
        check_op(lambda a: ad.transpose_axes(a, (1, 0)), (3, 5))
        check_op(lambda a: ad.transpose_axes(a, (1, 0, 2)), (2, 3, 4))
        check_op(lambda a: ad.transpose_axes(a, (0, 2, 1, 3)), (2, 3, 4, 2))

    def test_matmul_stack_times_shared_matrix(self):
        # [B, n, d] @ [d, d]: the weight's gradient sums over the stack
        check_op(lambda a, b: matmul(a, b), (3, 2, 4), (4, 4))
        check_op(lambda a, b: matmul(a, b), (2, 3, 2, 4), (2, 1, 4, 5))


class TestStructure:
    def test_rows_gather_accumulates_repeats(self):
        m = ad.Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.rows(m, [1, 1, 2])
        ad.backward(sum_(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[2] = 1.0
        np.testing.assert_array_equal(m.grad, expected)

    def test_rows_on_1d(self):
        v = ad.Tensor(np.arange(5.0))
        out = ad.rows(v, [0, 0, 3])
        ad.backward(sum_(out))
        np.testing.assert_array_equal(v.grad, [2.0, 0.0, 0.0, 1.0, 0.0])

    def test_rows_with_2d_index(self):
        check_op(lambda a: ad.rows(a, [[0, 2, 2], [4, 0, 1]]), (5, 3))

    def test_rows_of_3d_table(self):
        check_op(lambda a: ad.rows(a, [1, 0, 1]), (2, 3, 4))

    def test_select_rows_of_3d_tensor(self):
        check_op(lambda a: ad.select(a, [[2], [0], [2]], [[1], [3], [1]]), (3, 4, 2))

    def test_select_entries(self):
        m = ad.Tensor(np.arange(12.0).reshape(3, 4))
        out = ad.select(m, [0, 2], [1, 3])
        assert out.data.tolist() == [1.0, 11.0]
        ad.backward(sum_(out))
        assert m.grad[0, 1] == 1.0 and m.grad[2, 3] == 1.0
        assert m.grad.sum() == 2.0

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (5, 3, 2)])
    def test_rows_backward_equals_add_at_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape))
        a = ad.Tensor(rng.normal(size=shape))
        idx = rng.integers(0, shape[0], size=(4, 6))  # 24 rows of 5: repeats
        g = rng.normal(size=idx.shape + shape[1:])
        ad.backward(sum_(ad.mul(ad.rows(a, idx), ad.Tensor(g, needs_grad=False))))
        expected = np.zeros(shape)
        np.add.at(expected, idx, g)
        assert a.grad.tobytes() == expected.tobytes()

    # select picks along two axes, so its parents have at least two
    @pytest.mark.parametrize("shape", [(4, 3), (4, 3, 2)])
    def test_select_backward_equals_add_at_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape))
        a = ad.Tensor(rng.normal(size=shape))
        row_idx = rng.integers(0, shape[0], size=(20, 1))  # 20 picks of 12: repeats
        col_idx = rng.integers(0, shape[1], size=(20, 1))
        g = rng.normal(size=(20, 1) + shape[2:])
        ad.backward(sum_(ad.mul(ad.select(a, row_idx, col_idx), ad.Tensor(g, needs_grad=False))))
        expected = np.zeros(shape)
        np.add.at(expected, (row_idx, col_idx), g)
        assert a.grad.tobytes() == expected.tobytes()

    def test_slices_and_concat(self):
        check_op(lambda a, b: ad.concat([a, b], axis=0), (2, 3), (4, 3))
        check_op(lambda a, b: ad.concat([a, b], axis=1), (3, 2), (3, 4))

    def test_reshape(self):
        check_op(lambda a: reshape(a, (6, 2)), (3, 4))

    def test_sum_axes(self):
        check_op(lambda a: sum_(a, axis=0), (3, 4))
        check_op(lambda a: sum_(a, axis=1, keepdims=True), (3, 4))


class TestFusedHelpers:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(ad.Tensor(rng.normal(size=(5, 7)) * 3))
        np.testing.assert_allclose(p.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_softmax_gradient(self):
        check_op(lambda a: softmax(a, axis=-1), (3, 5))
        check_op(lambda a: ad.mul(softmax(a, axis=-1), a), (2, 4))

    def test_masked_softmax_gradient(self):
        # additive key mask [B, 1, 1, m] broadcast over [B, h, n, m] scores
        keep = np.array([[True, True, False, True], [True, False, False, False]])
        mask = ad.Tensor(np.where(keep, 0.0, -np.inf)[:, None, None, :])

        def build(scores, w):
            return ad.mul(softmax(ad.add(scores, mask), axis=-1), w)

        check_op(build, (2, 2, 3, 4), (2, 2, 3, 4))
        rng = np.random.default_rng(4)
        scores = ad.Tensor(rng.normal(size=(2, 2, 3, 4)))
        weights = build(scores, ad.Tensor(rng.normal(size=(2, 2, 3, 4))))
        padded = np.broadcast_to(~keep[:, None, None, :], scores.data.shape)
        ad.backward(sum_(weights))
        assert np.all(weights.data[padded] == 0.0)
        assert np.all(scores.grad[padded] == 0.0)
        assert np.all(np.isfinite(scores.grad))

    def test_log_softmax_gradient(self):
        check_op(lambda a: log_softmax(a, axis=-1), (3, 5))
        check_op(lambda a: ad.mul(log_softmax(a, axis=-1), a), (2, 4))

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6)) * 5
        np.testing.assert_allclose(
            log_softmax(ad.Tensor(x)).data,
            np.log(softmax(ad.Tensor(x)).data),
            atol=1e-12,
        )

    def test_layer_norm_gradient_all_inputs(self):
        check_op(lambda a, g, b: ad.layer_norm(a, g, b), (4, 6), (6,), (6,))

    def test_layer_norm_is_idempotent_with_unit_affine(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=(3, 8)))
        gamma = ad.Tensor(np.ones(8))
        beta = ad.Tensor(np.zeros(8))
        once = ad.layer_norm(x, gamma, beta)
        twice = ad.layer_norm(once, gamma, beta)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-9)

    def test_gelu_gradient(self):
        check_op(lambda a: ad.gelu(a), (4, 4))


class TestBackwardMechanics:
    def test_diamond_graph_accumulates(self):
        x = ad.Tensor(np.array([2.0]))
        y = ad.mul(x, x)  # x^2
        z = ad.add(y, ad.mul(ad.Tensor(3.0), x))  # x^2 + 3x
        ad.backward(sum_(z))
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_shared_subexpression(self):
        x = ad.Tensor(np.array([1.5]))
        e = exp(x)
        out = ad.mul(e, e)  # exp(2x)
        ad.backward(sum_(out))
        np.testing.assert_allclose(x.grad, [2 * np.exp(2 * 1.5)])

    def test_graph_is_single_use(self):
        x = ad.Tensor(np.array([1.5, -0.5]))
        y = ad.mul(x, x)
        loss = sum_(y)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [3.0, -1.0])
        assert y._parents == () and y._bwd is None and y.grad is None
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [3.0, -1.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            ad.backward(ad.Tensor(np.ones((2, 2))))

    def test_backward_rejects_a_result_needing_no_gradient(self):
        x = ad.Tensor(np.array([1.5, -0.5]), needs_grad=False)
        with pytest.raises(ValueError, match="gradient"):
            ad.backward(sum_(ad.mul(x, x)))


def _no_grad(*shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [ad.Tensor(rng.normal(size=s), needs_grad=False) for s in shapes]


class TestNeedsGrad:
    def test_leaves_need_a_gradient_unless_told_otherwise(self):
        assert ad.Tensor(1.0).needs_grad
        assert not ad.Tensor(1.0, needs_grad=False).needs_grad

    @pytest.mark.parametrize(
        "build, shapes",
        [
            (lambda a, b: ad.add(a, b), [(3, 4), (4,)]),
            (lambda a, b: sub(a, b), [(3, 4), (3, 4)]),
            (lambda a, b: ad.mul(a, b), [(3, 4), (3, 1)]),
            (lambda a: neg(a), [(2, 3)]),
            (lambda a: exp(a), [(2, 3)]),
            (lambda a, b: matmul(a, b), [(2, 3, 4), (4, 5)]),
            (lambda x, w, b: ad.linear(x, w, b), [(2, 3, 4), (4, 5), (5,)]),
            (lambda a: ad.transpose_axes(a, (1, 0)), [(2, 3)]),
            (lambda a: sum_(a, axis=0), [(2, 3)]),
            (lambda a: ad.rows(a, [1, 0, 1]), [(2, 3)]),
            (lambda a: ad.select(a, [0, 1], [2, 0]), [(2, 3)]),
            (lambda a, b: ad.concat([a, b], axis=0), [(2, 3), (1, 3)]),
            (lambda a: reshape(a, (3, 2)), [(2, 3)]),
            (lambda a: softmax(a), [(2, 3)]),
            (lambda a: log_softmax(a), [(2, 3)]),
            (lambda a, g, b: ad.layer_norm(a, g, b), [(2, 4), (4,), (4,)]),
            (lambda a: ad.gelu(a), [(2, 3)]),
            (lambda q, k, v: ad.attention(q, k, v, 2), [(2, 3, 4), (2, 5, 4), (2, 5, 4)]),
            (lambda a: ad.nll(a, [2, 0]), [(2, 3)]),
            (lambda a: ad.kl(a, np.log(np.full((2, 3), 1.0 / 3.0))), [(2, 3)]),
        ],
    )
    def test_ops_over_constants_record_no_graph(self, build, shapes):
        out = build(*_no_grad(*shapes))
        assert not out.needs_grad
        assert out._parents == () and out._bwd is None

    def test_one_input_needing_a_gradient_is_enough(self):
        x = ad.Tensor(np.array([1.0, 2.0]))
        c = ad.Tensor(np.array([3.0, 4.0]), needs_grad=False)
        out = ad.mul(x, c)
        assert out.needs_grad and out._parents == (x, c)
        ad.backward(sum_(out))
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        assert c.grad is None

    def test_fused_kernels_skip_inputs_needing_no_gradient(self):
        rng = np.random.default_rng(5)
        x, b = ad.Tensor(rng.normal(size=(2, 3, 4))), ad.Tensor(rng.normal(size=5), needs_grad=False)
        w = ad.Tensor(rng.normal(size=(4, 5)), needs_grad=False)
        ad.backward(sum_(ad.linear(x, w, b)))
        assert x.grad is not None and w.grad is None and b.grad is None
        q = ad.Tensor(rng.normal(size=(1, 2, 4)))
        k, v = _no_grad((1, 3, 4), (1, 3, 4), seed=6)
        ad.backward(sum_(ad.mul(ad.attention(q, k, v, 2), q)))
        assert q.grad is not None and k.grad is None and v.grad is None


def composed_attention(q, k, v, n_heads, key_mask=None):
    """Multi-head attention from the engine's elementary ops."""
    batch, n, d = q.data.shape
    dh = d // n_heads

    def split(x):
        return ad.transpose_axes(reshape(x, x.data.shape[:2] + (n_heads, dh)), (0, 2, 1, 3))

    keys_t = ad.transpose_axes(split(k), (0, 1, 3, 2))
    scores = ad.mul(matmul(split(q), keys_t), ad.Tensor(1.0 / np.sqrt(dh)))
    if key_mask is not None:
        scores = ad.add(scores, ad.Tensor(np.where(key_mask, 0.0, -np.inf)[:, None, None, :]))
    heads = matmul(softmax(scores, axis=-1), split(v))
    return reshape(ad.transpose_axes(heads, (0, 2, 1, 3)), (batch, n, d))


class TestFusedKernels:
    def test_linear_gradient_2d(self):
        check_op(lambda x, w, b: ad.linear(x, w, b), (3, 4), (4, 5), (5,))

    def test_linear_gradient_stacked_with_broadcast_bias(self):
        # [B, n, d] @ [d, d] + [d]: weight and bias gradients sum over the stack
        check_op(lambda x, w, b: ad.linear(x, w, b), (3, 2, 4), (4, 4), (4,))
        check_op(lambda x, w, b: ad.linear(x, w, b), (2, 1, 4), (4, 3), (1, 3))

    def test_linear_equals_add_of_matmul_bit_for_bit(self):
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=s) for s in ((3, 2, 4), (4, 4), (4,))]
        fused = [ad.Tensor(a) for a in arrays]
        composed = [ad.Tensor(a) for a in arrays]
        g = rng.normal(size=(3, 2, 4))
        out_f = ad.linear(*fused)
        out_c = ad.add(matmul(composed[0], composed[1]), composed[2])
        assert np.array_equal(out_f.data, out_c.data)
        ad.backward(sum_(ad.mul(out_f, ad.Tensor(g, needs_grad=False))))
        ad.backward(sum_(ad.mul(out_c, ad.Tensor(g, needs_grad=False))))
        for f, c in zip(fused, composed):
            assert np.array_equal(f.grad, c.grad)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_attention_gradient(self, n_heads):
        # 3 queries over 5 keys, so query and key counts differ
        check_op(lambda q, k, v: ad.attention(q, k, v, n_heads), (2, 3, 8), (2, 5, 8), (2, 5, 8))

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("n, m", [(3, 5), (1, 5), (3, 1), (1, 1)])
    def test_attention_equals_composed_ops_bit_for_bit(self, n_heads, n, m):
        rng = np.random.default_rng(n_heads)
        keep = np.arange(m) < np.array([[max(1, m - 2)], [m]])
        for key_mask in (None, keep):
            arrays = [rng.normal(size=s) for s in ((2, n, 8), (2, m, 8), (2, m, 8))]
            g = ad.Tensor(rng.normal(size=(2, n, 8)), needs_grad=False)
            fused = [ad.Tensor(a) for a in arrays]
            composed = [ad.Tensor(a) for a in arrays]
            out_f = ad.attention(*fused, n_heads, key_mask)
            out_c = composed_attention(*composed, n_heads, key_mask)
            assert np.array_equal(out_f.data, out_c.data)
            ad.backward(sum_(ad.mul(out_f, g)))
            ad.backward(sum_(ad.mul(out_c, g)))
            for f, c in zip(fused, composed):
                assert np.array_equal(f.grad, c.grad)

    def test_masked_attention_gradient_and_padded_keys(self):
        keep = np.array([[True, True, False, True], [True, False, False, False]])
        check_op(
            lambda q, k, v, w: ad.mul(ad.attention(q, k, v, 2, keep), w),
            (2, 3, 4), (2, 4, 4), (2, 4, 4), (2, 3, 4),
        )
        rng = np.random.default_rng(9)
        q, k, v = (ad.Tensor(rng.normal(size=s)) for s in ((2, 3, 4), (2, 4, 4), (2, 4, 4)))
        out = ad.attention(q, k, v, 2, keep)
        # padded keys get exactly zero weight: changing them changes nothing
        moved_k, moved_v = k.data.copy(), v.data.copy()
        moved_k[~keep] += 100.0
        moved_v[~keep] -= 100.0
        moved = ad.attention(ad.Tensor(q.data), ad.Tensor(moved_k), ad.Tensor(moved_v), 2, keep)
        assert np.array_equal(out.data, moved.data)
        # ... and exactly zero gradient
        ad.backward(sum_(ad.mul(out, ad.Tensor(rng.normal(size=(2, 3, 4)), needs_grad=False))))
        assert np.all(k.grad[~keep] == 0.0) and np.all(v.grad[~keep] == 0.0)
        assert np.any(k.grad != 0.0) and np.all(np.isfinite(q.grad))

    def test_layer_norm_means_match_numpy_mean(self):
        rng = np.random.default_rng(10)
        for shape in ((3, 8), (2, 5, 32), (4, 1, 128)):
            x = rng.normal(size=shape) * 3.0 + 1.0
            out = ad.layer_norm(ad.Tensor(x), ad.Tensor(np.ones(shape[-1])), ad.Tensor(np.zeros(shape[-1])))
            centered = x - x.mean(axis=-1, keepdims=True)
            sigma = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-12)
            assert np.array_equal(out.data, centered / sigma * np.ones(shape[-1]) + np.zeros(shape[-1]))


def _log_dist(rng, shape):
    """Floored log of random row distributions, some entries exactly zero."""
    r = rng.random(shape) * (rng.random(shape) < 0.7)
    r[:, 0] += 0.1
    return np.log(np.maximum(r / r.sum(axis=-1, keepdims=True), 1e-12))


def composed_nll(logits, targets):
    lp = log_softmax(logits, axis=-1)
    return neg(sum_(ad.select(lp, np.arange(len(targets)), targets)))


def composed_kl(logits, log_r):
    lp = log_softmax(logits, axis=-1)
    return sum_(ad.mul(exp(lp), sub(lp, ad.Tensor(log_r, needs_grad=False))))


class TestLosses:
    def test_nll_gradient(self):
        check_op(lambda a: ad.nll(a, [2, 0, 4, 2]), (4, 5))

    def test_kl_gradient(self):
        log_r = _log_dist(np.random.default_rng(11), (3, 6))
        check_op(lambda a: ad.kl(a, log_r), (3, 6))

    def test_nll_and_kl_values(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 5)) * 4
        log_r = _log_dist(rng, (3, 5))
        lp = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
        targets = [4, 4, 1]
        assert float(ad.nll(ad.Tensor(x), targets).data) == pytest.approx(-lp[[0, 1, 2], targets].sum(), rel=1e-12)
        expected_kl = (np.exp(lp) * (lp - log_r)).sum()
        assert float(ad.kl(ad.Tensor(x), log_r).data) == pytest.approx(expected_kl, rel=1e-12)
        assert float(ad.kl(ad.Tensor(x), lp).data) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rows", [1, 4])
    def test_losses_equal_composed_ops_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 7)) * 3
        targets = rng.integers(0, 7, size=rows)
        log_r = _log_dist(rng, (rows, 7))
        g = ad.Tensor(rng.normal(), needs_grad=False)
        for fused_op, composed_op, arg in ((ad.nll, composed_nll, targets), (ad.kl, composed_kl, log_r)):
            fused, composed = ad.Tensor(x), ad.Tensor(x)
            out_f, out_c = fused_op(fused, arg), composed_op(composed, arg)
            assert np.array_equal(out_f.data, out_c.data)
            ad.backward(ad.mul(out_f, g))
            ad.backward(ad.mul(out_c, g))
            assert np.array_equal(fused.grad, composed.grad)


def test_every_public_op_has_a_caller_in_the_package():
    """The engine keeps only what the package runs: each public function of
    ``autodiff`` is named by another module in ``src/``; test-only
    references live in the oracles."""
    src = Path(ad.__file__).parent
    engine = ast.parse((src / "autodiff.py").read_text(encoding="utf-8"))
    public = {
        node.name for node in engine.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set()
    for module in sorted(src.glob("*.py")):
        if module.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ad":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                used.update(alias.name for alias in node.names)
    assert sorted(public - used) == []
