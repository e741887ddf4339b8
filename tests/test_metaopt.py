import numpy as np
import pytest

from rsmeta import metaopt
from rsmeta.adam import AdamState, adam_step
from rsmeta.channel import IidCsitModel
from rsmeta.gradients import (grad_wrt_precoder, grad_wrt_theta,
                              loss_from_view, precoder_to_view,
                              view_to_precoder)
from rsmeta.layout import StreamLayout
from rsmeta.linalg import RngStream, svd_dominant
from rsmeta.metaopt import (MetaOptConfig, init_precoder, run_meta_opt,
                            start_splits)
from rsmeta.network import MetaNetParams, init_meta_net
from rsmeta.rates import saf_report


def _scene(seed=100, n_tx=3, n_users=2, n_draws=8, p_t=10.0):
    lay = StreamLayout.one_layer(n_tx, n_users)
    model = IidCsitModel(n_tx=n_tx, n_users=n_users, error_power=0.2)
    return lay, model.draw(RngStream(seed), p_t, n_draws), p_t


class TestInitPrecoder:
    def test_one_layer_power_split(self):
        lay, ens, p_t = _scene()
        p0 = init_precoder(lay, ens.estimate, p_t)
        assert p0.stream_power(lay.col_common) == pytest.approx(0.9 * p_t,
                                                                rel=1e-12)
        for k in range(lay.n_users):
            assert p0.stream_power(lay.col_private(k)) == pytest.approx(
                0.1 * p_t / lay.n_users, rel=1e-12)
        assert p0.stream_power(lay.col_group(0)) == 0.0
        assert p0.total_power == pytest.approx(p_t, rel=1e-12)

    def test_hierarchical_power_split(self):
        lay = StreamLayout.hierarchical(4, 4, 2)
        est = IidCsitModel(n_tx=4, n_users=4, error_power=0.2).draw(
            RngStream(2), 10.0, 1).estimate
        p0 = init_precoder(lay, est, 10.0)
        assert p0.stream_power(0) == pytest.approx(4.5, rel=1e-12)
        for g in range(2):
            assert p0.stream_power(lay.col_group(g)) == pytest.approx(
                4.5 / 2, rel=1e-12)
        for k in range(4):
            assert p0.stream_power(lay.col_private(k)) == pytest.approx(
                1.0 / 4, rel=1e-12)

    def test_directions(self):
        lay, ens, p_t = _scene(seed=11)
        p0 = init_precoder(lay, ens.estimate, p_t).matrix
        u = svd_dominant(ens.estimate)
        pc = p0[:, 0] / np.linalg.norm(p0[:, 0])
        assert abs(np.vdot(u, pc)) == pytest.approx(1.0, abs=1e-12)
        for k in range(lay.n_users):
            hk = ens.estimate[:, k]
            col = p0[:, lay.col_private(k)]
            cos = abs(np.vdot(hk, col)) / (np.linalg.norm(hk)
                                           * np.linalg.norm(col))
            assert cos == pytest.approx(1.0, abs=1e-12)

    def test_custom_splits(self):
        lay, ens, p_t = _scene(seed=12)
        p0 = init_precoder(lay, ens.estimate, p_t, splits=(0.5, 0.0, 0.3))
        assert p0.stream_power(0) == pytest.approx(0.5 * p_t, rel=1e-12)
        assert p0.total_power == pytest.approx(0.8 * p_t, rel=1e-12)

    def test_split_validation(self):
        lay, ens, p_t = _scene(seed=13)
        with pytest.raises(ValueError, match="sum"):
            init_precoder(lay, ens.estimate, p_t, splits=(0.8, 0.0, 0.3))
        with pytest.raises(ValueError, match="group"):
            init_precoder(lay, ens.estimate, p_t, splits=(0.5, 0.2, 0.3))
        with pytest.raises(ValueError):
            init_precoder(lay, np.zeros((3, 2), complex), p_t)

    @pytest.mark.parametrize("splits", [
        (np.nan, 0.0, 0.1), (0.5, 0.0, np.nan), (np.inf, 0.0, 0.1)])
    def test_nonfinite_splits_rejected(self, splits):
        # a NaN fraction used to pass, and the start point then failed with
        # "precoder contains non-finite entries"
        lay, _, _ = _scene(seed=15)
        with pytest.raises(ValueError, match="splits must be nonnegative"):
            start_splits(lay, splits)

    def test_estimate_shape_checked(self):
        lay, ens, p_t = _scene(seed=14)
        with pytest.raises(ValueError, match="shape"):
            init_precoder(lay, ens.estimate.T, p_t)


class TestRunMetaOpt:
    def _run(self, n_iters=40, seed=200, **kw):
        lay, ens, p_t = _scene(seed=seed, n_draws=10)
        cfg = MetaOptConfig(n_iters=n_iters, lr=5e-3, hidden=(12,), seed=1,
                            **kw)
        return lay, ens, p_t, run_meta_opt(lay, ens, p_t, cfg)

    def test_first_candidate_reproduces_start(self):
        # zero output layer means iteration one proposes exactly the start
        _, _, _, res = self._run(n_iters=3)
        assert res.asr_history[1] == res.asr_history[0]
        assert res.asr_history[0] == res.start_asr

    def test_best_is_max_of_history_and_improves(self):
        lay, ens, p_t, res = self._run(n_iters=60)
        assert res.best_asr == pytest.approx(np.max(res.asr_history),
                                             rel=1e-12)
        assert res.best_asr >= res.start_asr
        assert res.best_asr > res.start_asr * 1.001

    def test_reported_asr_matches_best_precoder(self):
        lay, ens, p_t, res = self._run(n_iters=30)
        rep = saf_report(res.best_precoder, ens, lay)
        assert rep.avg_sum_rate == pytest.approx(res.best_asr, rel=1e-12)

    def test_best_precoder_feasible(self):
        lay, ens, p_t, res = self._run(n_iters=30)
        assert res.best_precoder.total_power <= p_t * (1 + 1e-9)

    def test_bitwise_reproducible(self):
        _, _, _, a = self._run(n_iters=25)
        _, _, _, b = self._run(n_iters=25)
        np.testing.assert_array_equal(a.asr_history, b.asr_history)
        np.testing.assert_array_equal(a.best_precoder.matrix,
                                      b.best_precoder.matrix)
        np.testing.assert_array_equal(a.params.to_vector(),
                                      b.params.to_vector())

    def test_history_length_and_flag(self):
        _, _, _, res = self._run(n_iters=15)
        assert res.asr_history.shape == (16,)
        assert res.n_iters == 15
        assert res.wall_time_s > 0

    def test_smooth_training_reports_hard_rates(self):
        lay, ens, p_t, res = self._run(n_iters=25, smooth_temp=0.3)
        rep = saf_report(res.best_precoder, ens, lay)
        assert rep.avg_sum_rate == pytest.approx(res.best_asr, rel=1e-12)
        assert res.asr_history[1] == pytest.approx(res.start_asr, rel=1e-12)

    def test_hierarchical_run(self):
        lay = StreamLayout.hierarchical(4, 4, 2)
        model = IidCsitModel(n_tx=4, n_users=4, error_power=0.2)
        ens = model.draw(RngStream(300), 10.0, 8)
        res = run_meta_opt(lay, ens, 10.0,
                           MetaOptConfig(n_iters=40, lr=5e-3, hidden=(12,)))
        assert res.best_asr >= res.start_asr
        assert res.best_precoder.layout is lay

    def test_bad_iters_rejected(self):
        lay, ens, p_t = _scene(seed=17)
        with pytest.raises(ValueError):
            run_meta_opt(lay, ens, p_t, MetaOptConfig(n_iters=0))

    @pytest.mark.parametrize("smooth_temp", [0.0, -0.3])
    def test_nonpositive_smooth_temp_rejected(self, smooth_temp):
        # 0.0 would train on the hard minimum while still paying for the
        # smoothed rescoring
        lay, ens, p_t = _scene(seed=18)
        with pytest.raises(ValueError, match="smooth_temp"):
            run_meta_opt(lay, ens, p_t, MetaOptConfig(
                n_iters=2, smooth_temp=smooth_temp))

    def test_steps_one_theta_in_place(self, monkeypatch):
        # the loop hands grad_wrt_theta one params object, Adam steps its
        # theta in place, nothing converts between iterations, and the
        # result holds a copy
        conversions, seen = [], []
        from_vector, to_vector = MetaNetParams.from_vector, \
            MetaNetParams.to_vector

        def counted_from_vector(cls, vec, dims):
            conversions.append("from_vector")
            return from_vector(vec, dims)

        def counted_to_vector(self):
            conversions.append("to_vector")
            return to_vector(self)

        def spy(params, *args):
            seen.append((params, params.theta, params.theta.copy(),
                         len(conversions)))
            return grad_wrt_theta(params, *args)

        monkeypatch.setattr(MetaNetParams, "from_vector",
                            classmethod(counted_from_vector))
        monkeypatch.setattr(MetaNetParams, "to_vector", counted_to_vector)
        monkeypatch.setattr(metaopt, "grad_wrt_theta", spy)
        _, _, _, res = self._run(n_iters=6)
        params, theta, _, n_before = seen[0]
        assert len(seen) == 6
        assert all(p is params and t is theta for p, t, _, _ in seen)
        assert [n for _, _, _, n in seen] == [n_before] * 6
        assert not np.array_equal(seen[1][2], seen[-1][2])
        assert not np.shares_memory(res.params.theta, theta)
        np.testing.assert_array_equal(res.params.theta, theta)

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("smooth_temp", [None, 0.3])
    def test_equals_one_shot_reference_loop(self, hierarchical, smooth_temp):
        # the run projects on one workspace, whose z and power gradient the
        # recorded vjps read; the reference projects afresh on every call,
        # so a vjp reading an overwritten array, or state left in the
        # workspace, shows. 8 users put 8 private columns into the sums
        if hierarchical:
            lay = StreamLayout.hierarchical(6, 8, 2)
        else:
            lay = StreamLayout.one_layer(4, 8)
        model = IidCsitModel(n_tx=lay.n_tx, n_users=lay.n_users,
                             error_power=0.2)
        p_t, lr, n_iters = 10.0, 5e-3, 30
        ens = model.draw(RngStream(405), p_t, 24)
        res = run_meta_opt(lay, ens, p_t, MetaOptConfig(
            n_iters=n_iters, lr=lr, hidden=(12,), seed=3,
            smooth_temp=smooth_temp))

        def hard_asr(v, loss):
            return -loss if smooth_temp is None else \
                -loss_from_view(v, ens, lay)

        p0 = init_precoder(lay, ens.estimate, p_t)
        v0 = precoder_to_view(p0, lay)
        loss, g0 = grad_wrt_precoder(p0, ens, lay, smooth_temp)
        history = [hard_asr(v0, loss)]
        best = v0
        params = init_meta_net(RngStream(3), v0.size, (12,))
        theta = params.to_vector()
        opt = AdamState.zeros(theta.size)
        for _ in range(n_iters):
            params = MetaNetParams.from_vector(theta, params.dims)
            loss, g_theta, cand = grad_wrt_theta(params, v0, g0, ens, lay,
                                                 p_t, smooth_temp)
            history.append(hard_asr(cand, loss))
            if history[-1] > max(history[:-1]):
                best = cand
            theta = theta + adam_step(opt, g_theta, lr)
        np.testing.assert_array_equal(res.asr_history, history)
        np.testing.assert_array_equal(res.best_precoder.matrix,
                                      view_to_precoder(best, lay))
        np.testing.assert_array_equal(res.params.to_vector(), theta)
        assert res.best_asr == max(history)
