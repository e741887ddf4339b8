import numpy as np
import pytest

from rsmeta.linalg import RngStream, gaussian_matrix
from tape import (Var, affine, backward, constant, csq_project, grad_of,
                  index_pairs, log1p_v, min_over, relu_v, reshape_v,
                  slice_strided, sqrt_v, square_v, take_last,
                  transpose2d, vmean, vsum)


def _fd_grad(f, x0, step=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    flat = x0.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = step
        up = f((flat + bump).reshape(x0.shape))
        dn = f((flat - bump).reshape(x0.shape))
        g.ravel()[i] = (up - dn) / (2.0 * step)
    return g


def _check_grad(build, x0, tol=1e-6):
    """build(Var) -> scalar Var; compare backward against central FD."""
    leaf = Var(x0)
    out = build(leaf)
    backward(out)
    fd = _fd_grad(lambda x: float(build(constant(x)).value), x0)
    np.testing.assert_allclose(leaf.grad, fd, atol=tol, rtol=tol)


class TestElementwise:
    def test_add_mul_chain(self):
        x0 = np.array([0.3, -1.2, 2.0])
        _check_grad(lambda x: vsum((x + 2.0) * x * 0.5 - x / 4.0), x0)

    def test_div_and_rsub(self):
        x0 = np.array([1.5, 0.7])
        _check_grad(lambda x: vsum(3.0 / x - (1.0 - x)), x0)

    def test_neg(self):
        x = Var(np.array([2.0, -3.0]))
        out = vsum(-x)
        backward(out)
        np.testing.assert_array_equal(x.grad, [-1.0, -1.0])

    def test_log1p_sqrt_square_relu(self):
        x0 = np.array([0.8, 1.7, 0.05])
        _check_grad(lambda x: vsum(log1p_v(square_v(x)) + sqrt_v(x)), x0)
        x1 = np.array([-1.0, 0.5, 2.0])
        _check_grad(lambda x: vsum(relu_v(x) * x), x1)

    def test_relu_flat_below_zero(self):
        x = Var(np.array([-2.0, 3.0]))
        backward(vsum(relu_v(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_broadcast_grad_shapes(self):
        a = Var(np.ones((3, 2)))
        b = Var(np.array([10.0, 20.0]))
        out = vsum(a * b)
        backward(out)
        assert a.grad.shape == (3, 2)
        assert b.grad.shape == (2,)
        # the broadcast row picks up one contribution per replicated row
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])
        np.testing.assert_array_equal(a.grad, np.tile([10.0, 20.0], (3, 1)))

    def test_scalar_broadcast(self):
        a = Var(2.0)
        b = Var(np.array([1.0, 4.0]))
        backward(vsum(a * b))
        assert np.asarray(a.grad).shape == ()
        assert float(a.grad) == 5.0


class TestDenseOps:
    def test_affine_hand_oracle(self):
        w = Var(np.array([[1.0, 2.0], [3.0, 4.0]]))
        x = Var(np.array([5.0, 6.0]))
        b = Var(np.array([0.5, -0.5]))
        y = affine(w, x, b)
        np.testing.assert_array_equal(y.value, [17.5, 38.5])
        backward(vsum(y * np.array([1.0, 10.0])))
        # dL/dW = outer(g, x), dL/dx = W^T g, dL/db = g with g = [1, 10]
        np.testing.assert_array_equal(w.grad, [[5.0, 6.0], [50.0, 60.0]])
        np.testing.assert_array_equal(x.grad, [31.0, 42.0])
        np.testing.assert_array_equal(b.grad, [1.0, 10.0])

    def test_affine_fd(self):
        rng = RngStream(2)
        w0 = rng.standard_normal((3, 4))
        x0 = rng.standard_normal(4)
        b0 = rng.standard_normal(3)
        _check_grad(lambda w: vsum(square_v(affine(w, constant(x0),
                                                   constant(b0)))), w0)
        _check_grad(lambda x: vsum(square_v(affine(constant(w0), x,
                                                   constant(b0)))), x0)


class TestChannelPowerBridge:
    def _setup(self):
        h = gaussian_matrix(RngStream(11), 3 * 2, 4, 1.0).reshape(3, 2, 4)
        pre = RngStream(12).standard_normal((2, 5))
        pim = RngStream(13).standard_normal((2, 5))
        return h, pre, pim

    def test_forward_matches_complex_arithmetic(self):
        h, pre, pim = self._setup()
        out = csq_project(Var(pre), Var(pim), h)
        p = pre + 1j * pim
        want = np.abs(np.einsum("mik,is->mks", np.conj(h), p)) ** 2
        np.testing.assert_allclose(out.value, want, rtol=1e-12)
        assert out.shape == (3, 4, 5)

    def test_vjp_matches_fd(self):
        h, pre, pim = self._setup()
        weights = RngStream(14).standard_normal((3, 4, 5))

        def loss_re(x):
            return float(vsum(csq_project(constant(x), constant(pim), h)
                              * weights).value)

        def loss_im(x):
            return float(vsum(csq_project(constant(pre), constant(x), h)
                              * weights).value)

        vre = Var(pre)
        vim = Var(pim)
        backward(vsum(csq_project(vre, vim, h) * weights))
        np.testing.assert_allclose(vre.grad, _fd_grad(loss_re, pre),
                                   atol=1e-5, rtol=1e-5)
        np.testing.assert_allclose(vim.grad, _fd_grad(loss_im, pim),
                                   atol=1e-5, rtol=1e-5)


class TestReductions:
    def test_vsum_axis_and_vmean(self):
        x = Var(np.arange(6.0).reshape(2, 3))
        s = vsum(x, axis=0)
        np.testing.assert_array_equal(s.value, [3.0, 5.0, 7.0])
        backward(vsum(s * np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(x.grad, [[1.0, 2.0, 3.0]] * 2)

        y = Var(np.arange(4.0))
        backward(vmean(y))
        np.testing.assert_array_equal(y.grad, [0.25] * 4)

    def test_min_tie_feeds_lowest_index(self):
        x = Var(np.array([1.0, 1.0, 3.0]))
        backward(min_over(x, axis=0))
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_min_over_axis1(self):
        x = Var(np.array([[3.0, 1.0], [0.5, 2.0]]))
        out = min_over(x, axis=1)
        np.testing.assert_array_equal(out.value, [1.0, 0.5])
        backward(vsum(out * np.array([10.0, 20.0])))
        np.testing.assert_array_equal(x.grad, [[0.0, 10.0], [20.0, 0.0]])


class TestStructural:
    def test_take_last_duplicates_accumulate(self):
        x = Var(np.array([1.0, 2.0, 3.0]))
        out = take_last(x, [0, 0, 2])
        np.testing.assert_array_equal(out.value, [1.0, 1.0, 3.0])
        backward(vsum(out))
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_index_pairs(self):
        x = Var(np.arange(24.0).reshape(2, 3, 4))
        out = index_pairs(x, [0, 2, 2], [1, 0, 0])
        np.testing.assert_array_equal(out.value, [[1.0, 8.0, 8.0],
                                                  [13.0, 20.0, 20.0]])
        backward(vsum(out))
        want = np.zeros((2, 3, 4))
        want[:, 0, 1] = 1.0
        want[:, 2, 0] = 2.0
        np.testing.assert_array_equal(x.grad, want)

    def test_slice_reshape_transpose_roundtrip(self):
        x0 = np.arange(12.0)
        x = Var(x0)
        evens = slice_strided(x, 0, 2)
        np.testing.assert_array_equal(evens.value, x0[0::2])
        backward(vsum(evens * np.arange(6.0)))
        want = np.zeros(12)
        want[0::2] = np.arange(6.0)
        np.testing.assert_array_equal(x.grad, want)

        y = Var(np.arange(6.0))
        m = transpose2d(reshape_v(y, (2, 3)))
        assert m.shape == (3, 2)
        backward(vsum(m * np.arange(6.0).reshape(3, 2)))
        np.testing.assert_array_equal(
            y.grad, np.arange(6.0).reshape(3, 2).T.ravel())


class TestGraphMechanics:
    def test_diamond_reuse(self):
        x = Var(3.0)
        y = Var(4.0)
        z = x * y + x
        backward(z)
        assert float(x.grad) == 5.0
        assert float(y.grad) == 3.0

    def test_backward_rejects_vector_output(self):
        x = Var(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            backward(x * 2.0)

    def test_grad_of_fills_unused_leaves_with_zeros(self):
        x = Var(2.0)
        unused = Var(np.ones(4))
        gx, gu = grad_of(x * x, [x, unused])
        assert float(gx) == 4.0
        np.testing.assert_array_equal(gu, np.zeros(4))

    def test_repeated_backward_resets_grads(self):
        x = Var(np.array([1.0, 2.0]))
        out = vsum(square_v(x))
        backward(out)
        first = x.grad.copy()
        backward(out)
        np.testing.assert_array_equal(x.grad, first)

    def test_deep_chain_no_recursion_limit(self):
        x = Var(1.0)
        out = x
        for _ in range(5000):
            out = out + 0.0
        backward(out)
        assert float(x.grad) == 1.0
