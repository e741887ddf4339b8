import numpy as np
import pytest

from rsmeta.adam import AdamState, adam_step, check_lr
from rsmeta.linalg import RngStream
from rsmeta.network import MetaNetParams, init_meta_net, mlp_forward


class TestInit:
    def test_shapes_and_zero_output(self):
        params = init_meta_net(RngStream(0), 12, hidden=(7, 5))
        assert params.dims == (12, 7, 5, 12)
        assert [w.shape for w in params.weights] == [(7, 12), (5, 7), (12, 5)]
        assert [b.shape for b in params.biases] == [(7,), (5,), (12,)]
        np.testing.assert_array_equal(params.weights[-1], 0.0)
        np.testing.assert_array_equal(params.biases[-1], 0.0)

    def test_hidden_layers_within_fan_in_bounds(self):
        params = init_meta_net(RngStream(1), 16, hidden=(9,))
        w0 = params.weights[0]
        assert np.max(np.abs(w0)) <= 1.0 / np.sqrt(16)
        assert np.max(np.abs(params.biases[0])) <= 1.0 / np.sqrt(16)
        assert np.any(w0 != 0.0)

    def test_reproducible(self):
        a = init_meta_net(RngStream(3), 8)
        b = init_meta_net(RngStream(3), 8)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_zero_net_outputs_zero(self):
        params = init_meta_net(RngStream(4), 10, hidden=(6, 6))
        x = RngStream(5).standard_normal(10)
        np.testing.assert_array_equal(mlp_forward(params, x), np.zeros(10))


class TestForward:
    def test_hand_computed_two_layer(self):
        w0 = np.array([[1.0, -1.0], [0.5, 0.5]])
        b0 = np.array([0.0, -1.0])
        w1 = np.array([[2.0, 3.0]])
        b1 = np.array([0.25])
        params = MetaNetParams(weights=[w0, w1], biases=[b0, b1])
        # x = [2, 1]: pre-activation [1, 0.5], relu keeps both,
        # output = 2*1 + 3*0.5 + 0.25 = 3.75
        np.testing.assert_allclose(mlp_forward(params, np.array([2.0, 1.0])),
                                   [3.75])
        # x = [0, 1]: pre-activation [-1, -0.5] clips to zero -> bias only
        np.testing.assert_allclose(mlp_forward(params, np.array([0.0, 1.0])),
                                   [0.25])

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MetaNetParams(weights=[np.ones((3, 2)), np.ones((2, 4))],
                          biases=[np.zeros(3), np.zeros(2)])


class TestVectorRoundtrip:
    def test_roundtrip_exact(self):
        params = init_meta_net(RngStream(6), 9, hidden=(5,))
        params.weights[-1][...] = RngStream(7).standard_normal((9, 5))
        vec = params.theta.copy()
        assert vec.shape == (params.n_params,)
        back = MetaNetParams.from_vector(vec, params.dims)
        for wa, wb in zip(params.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(params.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_vector_order_is_layerwise_row_major(self):
        w0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b0 = np.array([5.0, 6.0])
        w1 = np.array([[7.0, 8.0], [9.0, 10.0]])
        b1 = np.array([11.0, 12.0])
        params = MetaNetParams(weights=[w0, w1], biases=[b0, b1])
        np.testing.assert_array_equal(params.theta, np.arange(1.0, 13.0))

    def test_from_vector_length_check(self):
        with pytest.raises(ValueError):
            MetaNetParams.from_vector(np.zeros(5), (2, 2, 2))


class TestThetaViews:
    def test_layers_are_views_of_theta(self):
        params = init_meta_net(RngStream(9), 6, hidden=(5, 4))
        for layer in (*params.weights, *params.biases):
            assert np.shares_memory(layer, params.theta)
        x = RngStream(10).standard_normal(6)
        before = mlp_forward(params, x)
        params.theta += 0.25
        after = mlp_forward(params, x)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after, mlp_forward(MetaNetParams.from_vector(params.theta,
                                                         params.dims), x))

    def test_rebinding_a_layer_raises(self):
        params = init_meta_net(RngStream(11), 4, hidden=(3,))
        with pytest.raises(TypeError):
            params.weights[0] = np.ones((3, 4))
        with pytest.raises(TypeError):
            params.biases[-1] = np.ones(4)

    def test_conversions_copy(self):
        w0, b0 = np.ones((2, 3)), np.zeros(2)
        params = MetaNetParams(weights=[w0], biases=[b0])
        assert not np.shares_memory(params.theta, w0)
        assert not np.shares_memory(params.theta, b0)
        vec = params.theta.copy()
        back = MetaNetParams.from_vector(vec, params.dims)
        assert not np.shares_memory(back.theta, vec)
        np.testing.assert_array_equal(back.theta, vec)


def _step(state, g, lr):
    """Adam's step on zeroed parameters, which then hold the delta."""
    delta = np.zeros(g.shape)
    adam_step(state, g, lr, delta)
    return delta


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # with fresh moments the bias corrections cancel and the step is
        # -lr * g / (|g| + eps), i.e. essentially -lr * sign(g)
        g = np.array([0.3, -2.0, 1e-4])
        state = AdamState.zeros(3)
        delta = _step(state, g, lr=0.01)
        np.testing.assert_allclose(delta, -0.01 * np.sign(g), rtol=1e-3)
        assert state.step_count == 1

    def test_two_steps_match_hand_recursion(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g1 = np.array([1.0, -0.5])
        g2 = np.array([0.25, 0.75])
        state = AdamState.zeros(2)
        d1 = _step(state, g1, lr=lr)
        d2 = _step(state, g2, lr=lr)

        m = (1 - b1) * g1
        v = (1 - b2) * g1 ** 2
        mh = m / (1 - b1)
        vh = v / (1 - b2)
        np.testing.assert_allclose(d1, -lr * mh / (np.sqrt(vh) + eps),
                                   rtol=1e-12)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 ** 2
        mh = m / (1 - b1 ** 2)
        vh = v / (1 - b2 ** 2)
        np.testing.assert_allclose(d2, -lr * mh / (np.sqrt(vh) + eps),
                                   rtol=1e-12)
        np.testing.assert_allclose(state.m, m, rtol=1e-12)
        np.testing.assert_allclose(state.v, v, rtol=1e-12)

    def test_constant_gradient_converges_to_lr_step(self):
        state = AdamState.zeros(1)
        g = np.array([0.7])
        for _ in range(400):
            delta = _step(state, g, lr=0.05)
        np.testing.assert_allclose(delta, [-0.05], rtol=1e-4)

    def test_shape_and_lr_validation(self):
        state = AdamState.zeros(3)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(4), 0.1, np.zeros(3))
        # the runs check the rate once, before their first step
        for lr in (0.0, -1.0, float("inf"), float("nan"), True, "0.1"):
            with pytest.raises(ValueError, match="lr must be a number > 0"):
                check_lr(lr)
        assert check_lr(0.1) == 0.1
