import numpy as np

from rsmeta.adam import AdamState, adam_step


def _textbook(m, v, t, g, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place Adam update: new moments and the delta."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return m, v, -lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdamStep:
    def test_bitwise_textbook_update(self):
        # gradients spread over many decades, so any reordered product or
        # sum rounds differently somewhere
        rng = np.random.default_rng(11)
        dim, lr = 500, 1e-3
        state = AdamState(dim)
        m, v = np.zeros(dim), np.zeros(dim)
        x = np.empty(dim)
        for t in range(1, 51):
            g = rng.standard_normal(dim) * 10.0 ** rng.uniform(-6, 3, dim)
            # zeroed parameters take the step as it is: 0 + delta == delta
            x[...] = 0.0
            adam_step(state, g, lr, x)
            m, v, expect = _textbook(m, v, t, g, lr)
            assert state.step_count == t
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            np.testing.assert_array_equal(x, expect)
            for kept in (state.m, state.v, state.delta, state.denom):
                assert not np.shares_memory(x, kept)

    def test_leaves_gradient_untouched(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal(40)
        kept = g.copy()
        state = AdamState(40)
        for _ in range(3):
            adam_step(state, g, 0.01, np.zeros(40))
        np.testing.assert_array_equal(g, kept)
