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

    @pytest.mark.parametrize("seed, dim, hidden", [(0, 12, (7, 5)),
                                                   (8, 6, (50, 50)),
                                                   (13, 4, (3,))])
    def test_start_point_pinned_to_the_seed_tree(self, seed, dim, hidden):
        # θ rebuilt layer by layer from a second stream of the same seed:
        # each hidden layer's weights, then its biases, drawn uniform in
        # ±1/sqrt(fan_in), and a zero output layer, bit for bit
        rng = RngStream(seed)
        sizes = (dim, *hidden, dim)
        parts = []
        for nin, nout in zip(sizes[:-2], sizes[1:-1]):
            bound = 1.0 / np.sqrt(nin)
            parts.append(rng.uniform(-bound, bound, (nout, nin)).ravel())
            parts.append(rng.uniform(-bound, bound, nout))
        parts.append(np.zeros((sizes[-2] + 1) * dim))
        params = init_meta_net(RngStream(seed), dim, hidden)
        np.testing.assert_array_equal(params.theta, np.concatenate(parts))


class TestForward:
    def test_hand_computed_two_layer(self):
        w0 = np.array([[1.0, -1.0], [0.5, 0.5]])
        b0 = np.array([0.0, -1.0])
        w1 = np.array([[2.0, 3.0]])
        b1 = np.array([0.25])
        params = MetaNetParams(np.concatenate([w0.ravel(), b0, w1.ravel(),
                                               b1]), (2, 2, 1))
        # x = [2, 1]: pre-activation [1, 0.5], relu keeps both,
        # output = 2*1 + 3*0.5 + 0.25 = 3.75
        np.testing.assert_allclose(mlp_forward(params, np.array([2.0, 1.0])),
                                   [3.75])
        # x = [0, 1]: pre-activation [-1, -0.5] clips to zero -> bias only
        np.testing.assert_allclose(mlp_forward(params, np.array([0.0, 1.0])),
                                   [0.25])


class TestVectorRoundtrip:
    def test_roundtrip_exact(self):
        params = init_meta_net(RngStream(6), 9, hidden=(5,))
        params.weights[-1][...] = RngStream(7).standard_normal((9, 5))
        vec = params.theta.copy()
        assert vec.shape == (params.n_params,)
        back = MetaNetParams(vec, params.dims)
        for wa, wb in zip(params.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(params.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_vector_order_is_layerwise_row_major(self):
        params = MetaNetParams(np.arange(1.0, 13.0), (2, 2, 2))
        np.testing.assert_array_equal(params.weights[0], [[1.0, 2.0],
                                                          [3.0, 4.0]])
        np.testing.assert_array_equal(params.biases[0], [5.0, 6.0])
        np.testing.assert_array_equal(params.weights[1], [[7.0, 8.0],
                                                          [9.0, 10.0]])
        np.testing.assert_array_equal(params.biases[1], [11.0, 12.0])

    def test_length_check(self):
        with pytest.raises(ValueError, match="12 parameters of dims"):
            MetaNetParams(np.zeros(5), (2, 2, 2))

    @pytest.mark.parametrize("theta", [np.arange(12), np.zeros((2, 6)),
                                       np.zeros(13), [0.0] * 12])
    def test_rejects_a_theta_that_is_not_its_float_vector(self, theta):
        # 12 float64 entries hold a 2 -> 2 -> 2 network: an integer θ, a
        # 2-d θ, a θ of the wrong length and a list are rejected
        with pytest.raises(ValueError):
            MetaNetParams(theta, (2, 2, 2))


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
            after, mlp_forward(MetaNetParams(params.theta.copy(),
                                             params.dims), x))

    def test_rebinding_a_layer_raises(self):
        params = init_meta_net(RngStream(11), 4, hidden=(3,))
        with pytest.raises(TypeError):
            params.weights[0] = np.ones((3, 4))
        with pytest.raises(TypeError):
            params.biases[-1] = np.ones(4)

    def test_built_on_the_given_theta(self):
        vec = np.arange(8.0)
        params = MetaNetParams(vec, (3, 2))
        assert params.theta is vec
        assert params.dims == (3, 2) and params.n_params == 8
        for layer in (*params.weights, *params.biases):
            assert np.shares_memory(layer, vec)
        vec[6] = -1.0
        assert params.biases[0][0] == -1.0


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
        state = AdamState(3)
        delta = _step(state, g, lr=0.01)
        np.testing.assert_allclose(delta, -0.01 * np.sign(g), rtol=1e-3)
        assert state.step_count == 1

    def test_two_steps_match_hand_recursion(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g1 = np.array([1.0, -0.5])
        g2 = np.array([0.25, 0.75])
        state = AdamState(2)
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
        state = AdamState(1)
        g = np.array([0.7])
        for _ in range(400):
            delta = _step(state, g, lr=0.05)
        np.testing.assert_allclose(delta, [-0.05], rtol=1e-4)

    def test_shape_and_lr_validation(self):
        state = AdamState(3)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(4), 0.1, np.zeros(3))
        # the runs check the rate once, before their first step
        for lr in (0.0, -1.0, float("inf"), float("nan"), True, "0.1"):
            with pytest.raises(ValueError, match="lr must be a number > 0"):
                check_lr(lr)
        assert check_lr(0.1) == 0.1
