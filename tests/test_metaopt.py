import sys

import numpy as np
import pytest

from rsmeta import baselines, metaopt
from rsmeta.adam import AdamState, adam_step
from rsmeta.channel import IidCsitModel, OneRingModel
from rsmeta.gradients import (grad_wrt_precoder, grad_wrt_theta,
                              precoder_to_view, view_to_precoder)
from rsmeta.layout import StreamLayout
from rsmeta.linalg import RngStream, svd_dominant
from rsmeta.metaopt import MetaOptConfig, init_precoder, run_meta_opt
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
        # no group column: the common and private columns are all there is
        assert p0.matrix.shape == (lay.n_tx, 1 + lay.n_users)
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

    def test_zero_estimate_rejected(self):
        lay, _, p_t = _scene(seed=13)
        with pytest.raises(ValueError, match="zero estimate"):
            init_precoder(lay, np.zeros((3, 2), complex), p_t)

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
        np.testing.assert_array_equal(a.params.theta, b.params.theta)

    def test_history_length_and_flag(self):
        _, _, _, res = self._run(n_iters=15)
        assert res.asr_history.shape == (16,)
        assert res.n_iters == 15
        assert res.wall_time_s > 0

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

    def test_steps_one_theta_in_place(self, monkeypatch):
        # the loop hands grad_wrt_theta one params object, Adam steps its
        # theta in place, no network is built between iterations, and the
        # result holds a copy
        conversions, seen = [], []
        real_init = MetaNetParams.__init__

        def counted_init(params, theta, dims):
            conversions.append("MetaNetParams")
            real_init(params, theta, dims)

        def spy(params, *args, **kwargs):
            seen.append((params, params.theta, params.theta.copy(),
                         len(conversions)))
            return grad_wrt_theta(params, *args, **kwargs)

        monkeypatch.setattr(MetaNetParams, "__init__", counted_init)
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
    def test_equals_one_shot_reference_loop(self, hierarchical):
        # the run projects on one workspace, whose z and power gradient the
        # recorded vjps read; the reference projects afresh on every call,
        # so a vjp reading an overwritten array, or state left in the
        # workspace, shows. 8 users put 8 private columns into the sums
        self._replay(hierarchical, 5e-3, 30)

    @pytest.mark.parametrize("hierarchical, lr", [(False, 0.1), (True, 0.3)])
    def test_best_survives_later_steps(self, hierarchical, lr):
        # at these rates the best candidate comes before the last, and the
        # run keeps stepping after it: the record must hold that candidate
        res = self._replay(hierarchical, lr, 60)
        assert 0 < np.argmax(res.asr_history) < len(res.asr_history) - 1

    @staticmethod
    def _replay(hierarchical, lr, n_iters):
        """The run against a loop of workspace-free network gradients, each
        on a network converted from the loop's own θ, bit for bit."""
        if hierarchical:
            lay = StreamLayout.hierarchical(6, 8, 2)
        else:
            lay = StreamLayout.one_layer(4, 8)
        model = IidCsitModel(n_tx=lay.n_tx, n_users=lay.n_users,
                             error_power=0.2)
        p_t = 10.0
        ens = model.draw(RngStream(405), p_t, 24)
        res = run_meta_opt(lay, ens, p_t, MetaOptConfig(
            n_iters=n_iters, lr=lr, hidden=(12,), seed=3))

        p0 = init_precoder(lay, ens.estimate, p_t)
        v0 = precoder_to_view(p0, lay)
        loss, g0 = grad_wrt_precoder(p0, ens, lay)
        history = [-loss]
        best = v0
        params = init_meta_net(RngStream(3), v0.size, (12,))
        theta = params.theta.copy()
        opt = AdamState(theta.size)
        for _ in range(n_iters):
            params = MetaNetParams(theta.copy(), params.dims)
            loss, g_theta, cand = grad_wrt_theta(params, v0, g0, ens, lay,
                                                 p_t)
            history.append(-loss)
            if history[-1] > max(history[:-1]):
                best = cand
            adam_step(opt, g_theta, lr, theta)
        np.testing.assert_array_equal(res.asr_history, history)
        np.testing.assert_array_equal(res.best_precoder.matrix,
                                      view_to_precoder(best, lay))
        np.testing.assert_array_equal(res.params.theta, theta)
        assert res.best_asr == max(history)
        return res

    @pytest.mark.parametrize("lr", [float("inf"), float("nan"), 0.0, -1.0])
    def test_bad_lr_rejected_before_any_work(self, monkeypatch, lr):
        # Adam no longer checks the rate on every step, so the run checks
        # it once, in the config check's words, before its first gradient
        calls = []
        for name in ("grad_wrt_precoder", "grad_wrt_theta"):
            monkeypatch.setattr(metaopt, name,
                                lambda *a, **k: calls.append(a))
        lay, ens, p_t = _scene(seed=18)
        with pytest.raises(ValueError, match="lr must be a number > 0"):
            run_meta_opt(lay, ens, p_t, MetaOptConfig(n_iters=5, lr=lr))
        assert calls == []

    @pytest.mark.parametrize("n_iters", [2.5, 3.0, True, 0])
    def test_bad_iters_rejected_before_any_work(self, monkeypatch, n_iters):
        # a fractional, float or boolean count, or none, is rejected before
        # the start point's gradient, not by range() after it
        calls = []
        monkeypatch.setattr(metaopt, "grad_wrt_precoder",
                            lambda *a, **k: calls.append(a))
        lay, ens, p_t = _scene(seed=19)
        with pytest.raises(ValueError,
                           match="n_iters must be an integer >= 1"):
            run_meta_opt(lay, ens, p_t, MetaOptConfig(n_iters=n_iters))
        assert calls == []

    def test_numpy_integer_iters_run(self):
        lay, ens, p_t = _scene(seed=19)
        res = run_meta_opt(lay, ens, p_t, MetaOptConfig(
            n_iters=np.int64(3), hidden=(4,)))
        assert res.n_iters == 3 and res.asr_history.shape == (4,)


class TestGradientCallContract:
    """The traced benchmark wraps the gradients at every binding in the
    package and reads a run from its calls: a run of k iterations makes
    one start-point precoder gradient, then k step gradients, and under
    the hard minimum the negated losses they return are its asr_history."""

    @staticmethod
    def _count(monkeypatch) -> list:
        calls = []
        for fn in (grad_wrt_precoder, grad_wrt_theta):
            def counted(*args, _fn=fn, **kw):
                out = _fn(*args, **kw)
                calls.append((_fn.__name__, out[0]))
                return out
            for name, mod in list(sys.modules.items()):
                if name == "rsmeta" or name.startswith("rsmeta."):
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            monkeypatch.setattr(mod, key, counted)
        assert baselines.grad_wrt_precoder is not grad_wrt_precoder
        assert metaopt.grad_wrt_precoder is not grad_wrt_precoder
        assert metaopt.grad_wrt_theta is not grad_wrt_theta
        return calls

    @staticmethod
    def _scene(hierarchical):
        lay = StreamLayout.hierarchical(4, 4, 2) if hierarchical \
            else StreamLayout.one_layer(3, 2)
        model = IidCsitModel(n_tx=lay.n_tx, n_users=lay.n_users,
                             error_power=0.2)
        return lay, model.draw(RngStream(410), 10.0, 8), 10.0

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_direct_adam(self, monkeypatch, hierarchical):
        calls = self._count(monkeypatch)
        res = baselines.run_direct_adam(*self._scene(hierarchical),
                                        n_iters=7)
        assert [n for n, _ in calls] == ["grad_wrt_precoder"] * 8
        np.testing.assert_array_equal([-loss for _, loss in calls],
                                      res.asr_history)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_meta(self, monkeypatch, hierarchical):
        calls = self._count(monkeypatch)
        res = run_meta_opt(*self._scene(hierarchical), MetaOptConfig(
            n_iters=7, hidden=(8,), seed=4))
        assert [n for n, _ in calls] == \
            ["grad_wrt_precoder"] + ["grad_wrt_theta"] * 7
        np.testing.assert_array_equal([-loss for _, loss in calls],
                                      res.asr_history)


class TestCheckPower:
    """Every optimizer and the start point take the powers the config
    check takes: a number > 0, not a bool, whose square is a normal
    float."""

    BAD = [0, 0.0, -1, -1.0, np.nan, np.inf, -np.inf, 1e300, 1e-200, True,
           np.float64(1e300), 10 ** 400, "10"]
    ENTRIES = {
        "run_meta_opt": lambda lay, ens, model, p_t: run_meta_opt(
            lay, ens, p_t, MetaOptConfig(n_iters=2, hidden=(4,))),
        "run_direct_adam": lambda lay, ens, model, p_t:
            baselines.run_direct_adam(lay, ens, p_t, n_iters=2),
        "run_fixed_direction": lambda lay, ens, model, p_t:
            baselines.run_fixed_direction(lay, ens, model, p_t),
        "init_precoder": lambda lay, ens, model, p_t:
            init_precoder(lay, ens.estimate, p_t),
    }

    @staticmethod
    def _ring_scene():
        lay = StreamLayout.hierarchical(2, 2, 1)
        model = OneRingModel(n_tx=2, azimuths=(0.3,), spread=0.4, tau2=0.4)
        return lay, model.draw(RngStream(420), lay, 4), model

    @pytest.mark.parametrize("p_t", BAD, ids=repr)
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_bad_power_named_before_any_work(self, monkeypatch, entry, p_t):
        calls = []
        for module in (baselines, metaopt):
            for name in ("ProjectionWorkspace", "svd_dominant"):
                monkeypatch.setattr(module, name,
                                    lambda *a, **k: calls.append(a))
        lay, ens, model = self._ring_scene()
        with pytest.raises(ValueError, match=r"^p_t must be a number > 0 "
                           r"whose square is a normal float, got "):
            self.ENTRIES[entry](lay, ens, model, p_t)
        assert calls == []

    @pytest.mark.parametrize("p_t", [1e-150, 1.0, 4, np.float64(10.0),
                                     1e150], ids=repr)
    def test_good_power_returned_as_given(self, p_t):
        assert metaopt.check_power(p_t) is p_t
