"""Finite-difference audits of every engine op and the fused helpers."""
import numpy as np
import pytest

from asrnoise import autodiff as ad


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
    loss = ad.sum_(out)
    ad.backward(loss)
    for a, t in zip(arrays, tensors):
        fd = numeric_grad(lambda: float(ad.sum_(build(*[ad.Tensor(x) for x in arrays])).data), a)
        got = t.grad if t.grad is not None else np.zeros_like(a)
        np.testing.assert_allclose(got, fd, rtol=tol, atol=tol)


class TestElementwise:
    def test_add_broadcast(self):
        check_op(lambda a, b: ad.add(a, b), (3, 4), (4,))

    def test_sub(self):
        check_op(lambda a, b: ad.sub(a, b), (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_op(lambda a, b: ad.mul(a, b), (3, 4), (3, 1))

    def test_div(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3)) + 3.0
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        ad.backward(ad.sum_(ad.div(ta, tb)))
        np.testing.assert_allclose(ta.grad, 1.0 / b)
        np.testing.assert_allclose(tb.grad, -a / b**2)

    def test_exp_log_tanh_sqrt_pow(self):
        check_op(lambda a: ad.exp(a), (3, 3))


class TestLinearAlgebra:
    def test_matmul_2d(self):
        check_op(lambda a, b: ad.matmul(a, b), (3, 4), (4, 5))

    def test_matmul_stacked_3d(self):
        check_op(lambda a, b: ad.matmul(a, b), (2, 3, 4), (2, 4, 5))

    def test_transpose_axes(self):
        check_op(lambda a: ad.transpose_axes(a, (1, 0)), (3, 5))
        check_op(lambda a: ad.transpose_axes(a, (1, 0, 2)), (2, 3, 4))
        check_op(lambda a: ad.transpose_axes(a, (0, 2, 1, 3)), (2, 3, 4, 2))

    def test_matmul_stack_times_shared_matrix(self):
        # [B, n, d] @ [d, d]: the weight's gradient sums over the stack
        check_op(lambda a, b: ad.matmul(a, b), (3, 2, 4), (4, 4))
        check_op(lambda a, b: ad.matmul(a, b), (2, 3, 2, 4), (2, 1, 4, 5))


class TestStructure:
    def test_rows_gather_accumulates_repeats(self):
        m = ad.Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.rows(m, [1, 1, 2])
        ad.backward(ad.sum_(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[2] = 1.0
        np.testing.assert_array_equal(m.grad, expected)

    def test_rows_on_1d(self):
        v = ad.Tensor(np.arange(5.0))
        out = ad.rows(v, [0, 0, 3])
        ad.backward(ad.sum_(out))
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
        ad.backward(ad.sum_(out))
        assert m.grad[0, 1] == 1.0 and m.grad[2, 3] == 1.0
        assert m.grad.sum() == 2.0

    def test_slices_and_concat(self):
        check_op(lambda a: ad.row_slice(a, 1, 3), (4, 3))
        check_op(lambda a, b: ad.concat([a, b], axis=0), (2, 3), (4, 3))
        check_op(lambda a, b: ad.concat([a, b], axis=1), (3, 2), (3, 4))

    def test_reshape(self):
        check_op(lambda a: ad.reshape(a, (6, 2)), (3, 4))

    def test_sum_axes(self):
        check_op(lambda a: ad.sum_(a, axis=0), (3, 4))
        check_op(lambda a: ad.sum_(a, axis=1, keepdims=True), (3, 4))


class TestFusedHelpers:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = ad.softmax(ad.Tensor(rng.normal(size=(5, 7)) * 3))
        np.testing.assert_allclose(p.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_softmax_gradient(self):
        check_op(lambda a: ad.softmax(a, axis=-1), (3, 5))
        check_op(lambda a: ad.mul(ad.softmax(a, axis=-1), a), (2, 4))

    def test_masked_softmax_gradient(self):
        # additive key mask [B, 1, 1, m] broadcast over [B, h, n, m] scores
        keep = np.array([[True, True, False, True], [True, False, False, False]])
        mask = ad.Tensor(np.where(keep, 0.0, -np.inf)[:, None, None, :])

        def build(scores, w):
            return ad.mul(ad.softmax(ad.add(scores, mask), axis=-1), w)

        check_op(build, (2, 2, 3, 4), (2, 2, 3, 4))
        rng = np.random.default_rng(4)
        scores = ad.Tensor(rng.normal(size=(2, 2, 3, 4)))
        weights = build(scores, ad.Tensor(rng.normal(size=(2, 2, 3, 4))))
        padded = np.broadcast_to(~keep[:, None, None, :], scores.data.shape)
        ad.backward(ad.sum_(weights))
        assert np.all(weights.data[padded] == 0.0)
        assert np.all(scores.grad[padded] == 0.0)
        assert np.all(np.isfinite(scores.grad))

    def test_log_softmax_gradient(self):
        check_op(lambda a: ad.log_softmax(a, axis=-1), (3, 5))
        check_op(lambda a: ad.mul(ad.log_softmax(a, axis=-1), a), (2, 4))

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6)) * 5
        np.testing.assert_allclose(
            ad.log_softmax(ad.Tensor(x)).data,
            np.log(ad.softmax(ad.Tensor(x)).data),
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
        ad.backward(ad.sum_(z))
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_shared_subexpression(self):
        x = ad.Tensor(np.array([1.5]))
        e = ad.exp(x)
        out = ad.mul(e, e)  # exp(2x)
        ad.backward(ad.sum_(out))
        np.testing.assert_allclose(x.grad, [2 * np.exp(2 * 1.5)])

    def test_graph_is_single_use(self):
        x = ad.Tensor(np.array([1.5, -0.5]))
        y = ad.mul(x, x)
        loss = ad.sum_(y)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [3.0, -1.0])
        assert y._parents == () and y._bwd is None and y.grad is None
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [3.0, -1.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            ad.backward(ad.Tensor(np.ones((2, 2))))
