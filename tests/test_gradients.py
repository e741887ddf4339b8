import numpy as np
import pytest

from rsmeta.baselines import run_direct_adam
from rsmeta.channel import (ChannelEnsemble, IidCsitModel, draw_iid_scene,
                            draw_one_ring_scene)
from rsmeta.gradcheck import (_random_instance, _random_net,
                              finite_diff_check, gradcheck_suite)
from rsmeta.gradients import (_asr_and_power_grad, _batch_asr,
                              _min_and_weights, asr_from_powers,
                              candidate_view, grad_wrt_precoder,
                              grad_wrt_theta, loss_from_view,
                              precoder_to_view, project_view,
                              rates_from_powers, view_length,
                              view_to_precoder)
from rsmeta.layout import StreamLayout
from rsmeta.linalg import (ProjectionWorkspace, RngStream, channel_project,
                           gaussian_matrix)
from rsmeta.metaopt import MetaOptConfig, init_precoder, run_meta_opt
from rsmeta.network import init_meta_net, mlp_forward
from rsmeta.rates import PrecoderMatrix, avg_sum_rate_loss, saf_report
from tape import Var, _rate_loss, _tape_loss, _theta_grad, backward


def _instance(seed=21, n_tx=3, n_users=None, hierarchical=False, n_draws=6,
              p_t=4.0):
    if hierarchical:
        n_users = 4 if n_users is None else n_users
        lay = StreamLayout.hierarchical(n_tx, n_users, 2)
    else:
        n_users = 3 if n_users is None else n_users
        lay = StreamLayout.one_layer(n_tx, n_users)
    model = IidCsitModel(n_tx=n_tx, n_users=n_users, error_power=0.25)
    ens = model.draw(RngStream(seed), p_t, n_draws)
    mat = np.zeros((n_tx, lay.n_streams), complex)
    raw = gaussian_matrix(RngStream(seed + 50), n_tx, len(lay.active_streams),
                          1.0)
    mat[:, list(lay.active_streams)] = raw
    mat *= np.sqrt(0.8 * p_t / np.sum(np.abs(mat) ** 2))
    return lay, ens, mat


class TestViewConvention:
    def test_frozen_interleave_layout(self):
        # one active column after another, each column's antennas in order,
        # real part immediately before its imaginary part
        lay = StreamLayout.one_layer(2, 1)
        mat = np.zeros((2, 3), complex)
        mat[:, 0] = [1 + 2j, 3 + 4j]
        mat[:, 2] = [5 + 6j, 7 + 8j]
        v = precoder_to_view(mat, lay)
        np.testing.assert_array_equal(v, np.arange(1.0, 9.0))
        assert view_length(lay) == 8

    def test_roundtrip_exact(self):
        lay, _, mat = self._any()
        back = view_to_precoder(precoder_to_view(mat, lay), lay)
        np.testing.assert_array_equal(back, mat)

    def _any(self):
        return _instance(seed=30, hierarchical=True)

    def test_view_norm_is_precoder_power(self):
        lay, _, mat = self._any()
        v = precoder_to_view(mat, lay)
        assert np.dot(v, v) == pytest.approx(np.sum(np.abs(mat) ** 2),
                                             rel=1e-14)

    def test_one_layer_view_skips_group_block(self):
        lay = StreamLayout.one_layer(4, 3)
        assert view_length(lay) == 2 * 4 * 4   # common + 3 privates


class TestProjectView:
    def test_halves_when_four_over_budget(self):
        v = np.array([2.0, 0.0, 0.0, 0.0])
        out = project_view(v, 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0], rtol=1e-15)

    def test_identity_inside_ball(self):
        v = np.array([0.5, 0.5])
        np.testing.assert_array_equal(project_view(v, 10.0), v)

    def test_boundary_untouched(self):
        v = np.array([1.0, 1.0])
        np.testing.assert_array_equal(project_view(v, 2.0), v)


class TestLossFromView:
    def test_agrees_with_rate_module(self):
        for hier in (False, True):
            lay, ens, mat = _instance(seed=41, hierarchical=hier)
            v = precoder_to_view(mat, lay)
            assert loss_from_view(v, ens, lay) == pytest.approx(
                avg_sum_rate_loss(mat, ens, lay), rel=1e-12)

    def test_smooth_loss_upper_bounds_hard(self):
        # soft minimum sits below the hard minimum, so the smoothed rate is
        # lower and the (negated) loss is higher
        lay, ens, mat = _instance(seed=42, hierarchical=True)
        v = precoder_to_view(mat, lay)
        assert loss_from_view(v, ens, lay, smooth_temp=0.3) >= \
            loss_from_view(v, ens, lay)


class TestPrecoderGradient:
    def test_loss_value_matches_plain_path(self):
        lay, ens, mat = _instance(seed=51, hierarchical=True)
        loss, _ = grad_wrt_precoder(mat, ens, lay)
        assert loss == pytest.approx(avg_sum_rate_loss(mat, ens, lay),
                                     rel=1e-12)

    def test_fd_agreement(self):
        for hier, seed in ((False, 61), (True, 62)):
            lay, ens, mat = _instance(seed=seed, hierarchical=hier)
            v = precoder_to_view(mat, lay)
            _, g = grad_wrt_precoder(mat, ens, lay)
            err, _ = finite_diff_check(
                lambda x: loss_from_view(x, ens, lay), v, g, step=1e-6)
            assert err <= 1e-5

    def test_fd_agreement_smoothed(self):
        lay, ens, mat = _instance(seed=63, hierarchical=True)
        v = precoder_to_view(mat, lay)
        _, g = grad_wrt_precoder(mat, ens, lay, smooth_temp=0.4)
        err, _ = finite_diff_check(
            lambda x: loss_from_view(x, ens, lay, smooth_temp=0.4), v, g,
            step=1e-6)
        assert err <= 1e-5

    @pytest.mark.parametrize("smooth_temp", [0.0, -0.4])
    def test_nonpositive_smooth_temp_rejected(self, smooth_temp):
        # 0.0 used to select the hard minimum silently
        lay, ens, mat = _instance(seed=65)
        with pytest.raises(ValueError, match="smooth_temp"):
            grad_wrt_precoder(mat, ens, lay, smooth_temp)
        with pytest.raises(ValueError, match="smooth_temp"):
            loss_from_view(precoder_to_view(mat, lay), ens, lay, smooth_temp)

    def test_gradient_view_length(self):
        lay, ens, mat = _instance(seed=64)
        _, g = grad_wrt_precoder(mat, ens, lay)
        assert g.shape == (view_length(lay),)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_view_strided_copy_and_precoder_agree(self, hierarchical):
        # the view is the memory of the active-column matrix, so every way
        # of handing over the same precoder gives the same bits, signed
        # zeros included
        lay, ens, mat = _instance(seed=66, hierarchical=hierarchical)
        cols = list(lay.active_streams)
        mat[0, cols[0]] = complex(-0.0, 0.0)
        mat[1, cols[-1]] = complex(0.0, -0.0)
        mat[2, cols[1]] = complex(-0.0, 0.7)
        v = precoder_to_view(mat, lay)
        assert np.signbit(v).any() and (v == 0).sum() >= 4
        v2 = np.full(2 * v.size, np.nan)
        v2[::2] = v
        loss, g = grad_wrt_precoder(v, ens, lay)
        assert loss == loss_from_view(v, ens, lay)
        for p in (v2[::2], PrecoderMatrix(matrix=mat, layout=lay), mat):
            loss_p, g_p = grad_wrt_precoder(p, ens, lay)
            assert loss_p == loss
            np.testing.assert_array_equal(g_p, g)

    def test_results_never_alias_the_view(self):
        lay, ens, mat = _instance(seed=67, hierarchical=True)
        v = precoder_to_view(mat, lay)
        assert not np.shares_memory(v, mat)
        assert not np.shares_memory(view_to_precoder(v, lay), v)
        ws = ProjectionWorkspace(ens.realizations)
        for workspace in (None, ws):
            _, g = grad_wrt_precoder(v, ens, lay, None, workspace)
            assert not np.shares_memory(g, v)
            params = _random_net(RngStream(68), lay)
            _, gt, cand = grad_wrt_theta(params, v, g, ens, lay, 4.0, None,
                                         workspace)
            for out in (gt, cand):
                assert not np.shares_memory(out, v)
                assert not np.shares_memory(out, g)
                assert not np.shares_memory(out, params.theta)
                for arr in (ws.hc, *ws._arrays.values()):
                    assert not np.shares_memory(out, arr)


def _tape_grad(mat, ens, lay, smooth_temp=None):
    """The precoder gradient on the reverse-mode tape: the oracle for the
    closed form."""
    sub = mat[:, list(lay.active_streams)]
    pre, pim = Var(sub.real.copy()), Var(sub.imag.copy())
    loss = _tape_loss(pre, pim, ens, lay, smooth_temp)
    backward(loss)
    view = np.empty(2 * sub.size)
    view[0::2] = pre.grad.T.ravel()
    view[1::2] = pim.grad.T.ravel()
    return float(loss.value), view


class TestClosedFormMatchesTape:
    @pytest.mark.parametrize("smooth_temp", [None, 0.3])
    def test_random_instances(self, smooth_temp):
        for i in range(200):
            lay, ens, mat = _random_instance(RngStream(5000 + i), i % 2 == 1)
            loss, g = grad_wrt_precoder(mat, ens, lay, smooth_temp)
            loss_t, g_t = _tape_grad(mat, ens, lay, smooth_temp)
            assert loss == loss_t                                # bitwise
            np.testing.assert_allclose(
                g, g_t, rtol=1e-12, atol=1e-12 * np.max(np.abs(g_t)))

    def test_common_rate_tie_feeds_lowest_index(self):
        # users 0 and 1 see identical channels, so their averaged common
        # rates tie exactly; the hard minimum's whole subgradient must go to
        # user 0, not be shared or counted twice
        lay, ens, mat = _instance(seed=81, n_tx=3, n_users=3)
        h = ens.realizations.copy()
        h[:, :, 1] = h[:, :, 0]
        est = ens.estimate.copy()
        est[:, 1] = est[:, 0]
        tied = ChannelEnsemble(estimate=est, realizations=h)
        powers, _, _ = channel_project(h, mat[:, list(lay.active_streams)])
        rc, _, _ = rates_from_powers(powers, lay, tied.noise_power)
        assert np.argmin(rc) == 0 and rc[0] == rc[1]
        np.testing.assert_array_equal(_min_and_weights(rc)[1], [1.0, 0.0, 0.0])

        loss, g = grad_wrt_precoder(mat, tied, lay)
        loss_t, g_t = _tape_grad(mat, tied, lay)
        assert loss == loss_t
        np.testing.assert_allclose(g, g_t, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g_t)))
        # the two tied rates are one function of the precoder, so their
        # minimum is smooth here and central differences apply
        err, _ = finite_diff_check(
            lambda x: loss_from_view(x, tied, lay),
            precoder_to_view(mat, lay), g, step=1e-6)
        assert err <= 1e-5


class TestProjectionWorkspace:
    @staticmethod
    def _eight_users(hierarchical):
        # 8 users put 8 private columns into one gathered sum
        return _instance(seed=90, n_tx=4, n_users=8,
                         hierarchical=hierarchical, n_draws=12)

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("smooth_temp", [None, 0.3])
    def test_kept_results_survive_later_calls(self, hierarchical,
                                              smooth_temp):
        lay, ens, mat = self._eight_users(hierarchical)
        ws = ProjectionWorkspace(ens.realizations)
        rng = RngStream(91)
        mats = [mat * (0.5 + 0.1 * i) + 0.1 * gaussian_matrix(
                    rng, lay.n_tx, lay.n_streams, 1.0) * (mat != 0)
                for i in range(5)]
        kept = []
        for m in mats:
            kept.append(grad_wrt_precoder(m, ens, lay, smooth_temp, ws))
            loss_from_view(precoder_to_view(m, lay), ens, lay, None, ws)
        for m, (loss, g) in zip(mats, kept):
            loss_1, g_1 = grad_wrt_precoder(m, ens, lay, smooth_temp)
            assert loss == loss_1
            np.testing.assert_array_equal(g, g_1)
            assert loss_from_view(precoder_to_view(m, lay), ens, lay,
                                  smooth_temp, ws) == loss_1

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_eight_columns_sum_like_tape(self, hierarchical):
        lay, ens, mat = self._eight_users(hierarchical)
        ws = ProjectionWorkspace(ens.realizations)
        loss, g = grad_wrt_precoder(mat, ens, lay, None, ws)
        loss_t, g_t = _tape_grad(mat, ens, lay)
        assert loss == loss_t                                    # bitwise
        np.testing.assert_allclose(g, g_t, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g_t)))

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("smooth_temp", [None, 0.3])
    def test_power_grad_same_bits_with_workspace(self, hierarchical,
                                                 smooth_temp):
        lay, ens, mat = self._eight_users(hierarchical)
        ws = ProjectionWorkspace(ens.realizations)
        for scale in (1.0, 0.7):
            cols = mat[:, lay.active_cols] * scale
            powers = channel_project(ens.realizations, cols)[0]
            asr, g = _asr_and_power_grad(powers, lay, ens.noise_power,
                                         smooth_temp)
            asr_w, g_w = _asr_and_power_grad(powers, lay, ens.noise_power,
                                             smooth_temp, ws)
            assert asr == asr_w
            np.testing.assert_array_equal(g, g_w)
            assert np.shares_memory(g_w, ws.array("power_grad",
                                                  g_w.T.shape))

    @pytest.mark.parametrize("run", ["direct", "meta"])
    @pytest.mark.parametrize("smooth_temp", [None, 0.3])
    def test_runs_allocate_each_array_once(self, monkeypatch, run,
                                           smooth_temp):
        # every request for a key gets the same array: no workspace array
        # is allocated again after the first iteration
        handed = {}
        real = ProjectionWorkspace.array

        def record(ws, key, shape, dtype=float):
            arr = real(ws, key, shape, dtype)
            handed.setdefault(key, []).append((ws, arr))
            return arr

        monkeypatch.setattr(ProjectionWorkspace, "array", record)
        lay, ens, _ = self._eight_users(True)
        if run == "direct":
            run_direct_adam(lay, ens, 4.0, n_iters=5,
                            smooth_temp=smooth_temp)
        else:
            run_meta_opt(lay, ens, 4.0, MetaOptConfig(
                n_iters=5, hidden=(8,), smooth_temp=smooth_temp))
        assert set(handed) >= {"z", "powers", "sinr", "den", "rates",
                               "rate_grad", "power_grad"}
        ws0 = handed["z"][0][0]
        for got in handed.values():
            assert all(ws is ws0 and arr is got[0][1] for ws, arr in got)

    def test_rejects_another_stack(self):
        lay, ens, mat = _instance(seed=92)
        ws = ProjectionWorkspace(ens.realizations)
        with pytest.raises(ValueError, match="another channel stack"):
            channel_project(ens.realizations.copy(), mat, ws)


def _assert_theta_matches_tape(params, p0, g0, ens, lay, p_t, smooth_temp):
    """The hand-written network gradient gives the loss, candidate and
    network gradient of the rates recorded op by op."""
    loss, gt, cand = grad_wrt_theta(params, p0, g0, ens, lay, p_t,
                                    smooth_temp)
    loss_t, gt_t, cand_t = _theta_grad(_tape_loss, params, p0, g0, ens, lay,
                                       p_t, smooth_temp)
    assert loss == loss_t                                        # bitwise
    np.testing.assert_array_equal(cand, cand_t)
    np.testing.assert_allclose(gt, gt_t, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(gt_t)))
    return cand


class TestFusedThetaMatchesTape:
    @pytest.mark.parametrize("smooth_temp", [None, 0.3])
    def test_random_instances(self, smooth_temp):
        projected = 0
        for i in range(200):
            rng = RngStream(7000 + i)
            lay, ens, mat = _random_instance(rng, i % 2 == 1)
            p0 = precoder_to_view(mat, lay)
            _, g0 = grad_wrt_precoder(mat, ens, lay, smooth_temp)
            # the start spends 0.8 of 4.0: alternate budgets so both
            # branches of the power projection are recorded
            p_t = 4.0 if i % 4 < 2 else 3.0
            params = _random_net(rng, lay)
            _assert_theta_matches_tape(params, p0, g0, ens, lay, p_t,
                                       smooth_temp)
            raw = p0 + mlp_forward(params, g0)
            projected += int(raw @ raw > p_t)
        assert 0 < projected < 200

    def test_common_rate_tie(self):
        # users 0 and 1 see identical channels, so their averaged common
        # rates tie exactly at every precoder, here at the minimum
        lay, ens, mat = _instance(seed=81, n_tx=3, n_users=3)
        h = ens.realizations.copy()
        h[:, :, 1] = h[:, :, 0]
        est = ens.estimate.copy()
        est[:, 1] = est[:, 0]
        tied = ChannelEnsemble(estimate=est, realizations=h)
        p0 = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(mat, tied, lay)
        params = _random_net(RngStream(82), lay)
        cand = _assert_theta_matches_tape(params, p0, g0, tied, lay, 4.0, None)
        cand_mat = view_to_precoder(cand, lay)[:, list(lay.active_streams)]
        powers, _, _ = channel_project(h, cand_mat)
        rc, _, _ = rates_from_powers(powers, lay, tied.noise_power)
        assert np.argmin(rc) == 0 and rc[0] == rc[1]


def _benchmark_shape(name):
    """(layout, ensemble, precoder, budget) of one shipped shape; the
    precoder spends 0.8 of the budget."""
    if name == "ring-16x8":
        lay, ens = draw_one_ring_scene(
            11, 16, 8, 4, azimuths=(-np.pi / 2, -np.pi / 6, np.pi / 6,
                                    np.pi / 2),
            spread=np.pi / 8, tau2=0.4, n_draws=200)
        p_t = 10.0 ** 1.4
    elif name == "long-cell-4x4":
        p_t = 100.0
        lay, ens = draw_iid_scene(12, 4, 4, p_t, n_draws=2000)
    else:
        lay, ens, mat = _instance(seed=13, n_tx=4, n_users=8, n_draws=12,
                                  hierarchical=name == "grouped-8-users")
        return lay, ens, mat, 4.0
    mat = init_precoder(lay, ens.estimate, p_t).matrix * np.sqrt(0.8)
    return lay, ens, mat, p_t


class TestDrawMinorRates:
    """The rate core reads its powers stream-major and draw-minor and
    averages over contiguous draws; ``rates.py`` is the independent
    reference that averages row by row over C-ordered powers."""

    SHAPES = ["iid-4x4-200", "long-cell-4x4", "ring-16x8",
              "grouped-8-users"]

    @staticmethod
    def _powers(shape):
        if shape == "iid-4x4-200":
            lay, ens = draw_iid_scene(15, 4, 4, 100.0, n_draws=200)
            mat = init_precoder(lay, ens.estimate, 100.0).matrix
        else:
            lay, ens, mat, _ = _benchmark_shape(shape)
        powers, _, _ = channel_project(ens.realizations,
                                       mat[:, lay.active_cols])
        return lay, ens, mat, powers

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_saf_report(self, shape):
        lay, ens, mat, powers = self._powers(shape)
        rc, rg, rp = rates_from_powers(powers, lay, ens.noise_power)
        ref = saf_report(mat, ens, lay)
        np.testing.assert_allclose(rc, ref.avg_per_user_common, rtol=1e-13)
        np.testing.assert_allclose(rp, ref.avg_per_user_private, rtol=1e-13)
        if lay.mode == "hierarchical":
            np.testing.assert_allclose(rg, ref.avg_per_user_group,
                                       rtol=1e-13)
        else:
            assert rg is None

    @pytest.mark.parametrize("shape", SHAPES)
    def test_c_ordered_powers_give_same_bits(self, shape):
        lay, ens, _, powers = self._powers(shape)
        assert powers.T.flags.c_contiguous
        c_ordered = np.ascontiguousarray(powers)
        for smooth_temp in (None, 0.3):
            asr, g = _asr_and_power_grad(powers, lay, ens.noise_power,
                                         smooth_temp)
            asr_c, g_c = _asr_and_power_grad(c_ordered, lay,
                                             ens.noise_power, smooth_temp)
            assert asr == asr_c
            np.testing.assert_array_equal(g, g_c)
        for a, b in zip(rates_from_powers(powers, lay, ens.noise_power),
                        rates_from_powers(c_ordered, lay, ens.noise_power)):
            np.testing.assert_array_equal(a, b)


class TestBatchAxis:
    """A batch of powers, batch axis outermost, gives every slice the bits
    of its own unbatched call: the sums over columns, the averages over
    draws and the per-slice minima."""

    @staticmethod
    def _stack(shape, n=6):
        """The layout, the noise, the unbatched powers of ``n`` precoders,
        and the same powers stacked stream-major, (n, n_active, n_users,
        n_draws), read as (n, n_draws, n_users, n_active)."""
        lay, ens, mat, _ = _benchmark_shape(shape)
        rng = RngStream(77)
        singles = []
        for _ in range(n):
            scale = rng.uniform(0.2, 1.5, lay.n_streams)
            cols = (mat * np.sqrt(scale))[:, lay.active_cols]
            singles.append(channel_project(ens.realizations, cols)[0])
        stack = np.stack([p.T for p in singles])
        return lay, ens.noise_power, singles, np.swapaxes(stack, -1, -3)

    @pytest.mark.parametrize("shape", ["ring-16x8", "long-cell-4x4",
                                       "grouped-8-users"])
    def test_slices_match_unbatched(self, shape):
        lay, noise, singles, batch = self._stack(shape)
        asr = _batch_asr(batch, lay, noise)
        rates = rates_from_powers(batch, lay, noise)
        assert asr.shape == (len(singles),)
        for b, powers in enumerate(singles):
            assert asr[b] == asr_from_powers(powers, lay, noise)
            for got, want in zip(rates, rates_from_powers(powers, lay,
                                                          noise)):
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got[b], want)
        # any number of leading axes, each kept outermost
        grid = _batch_asr(batch.reshape((2, 3) + batch.shape[1:]), lay,
                          noise)
        np.testing.assert_array_equal(grid.ravel(), asr)

    def test_nan_stays_in_its_slice(self):
        lay, noise, singles, batch = self._stack("grouped-8-users")
        clean = _batch_asr(batch, lay, noise)
        poisoned = batch.copy()
        poisoned[2, 0, 0, 0] = np.nan
        asr = _batch_asr(poisoned, lay, noise)
        assert np.isnan(asr[2])
        np.testing.assert_array_equal(np.delete(asr, 2), np.delete(clean, 2))


class TestHandThetaMatchesFusedRecording:
    """The hand-written network gradient is, bit for bit, the parent
    recording: the network, the radial projection and |h^H p|^2 on the
    tape, the rates as one closed-form node."""

    @pytest.mark.parametrize("shape", ["ring-16x8", "long-cell-4x4",
                                       "one-layer-8-users",
                                       "grouped-8-users"])
    @pytest.mark.parametrize("projected", [False, True])
    @pytest.mark.parametrize("smooth_temp", [None, 0.3])
    def test_bitwise(self, shape, projected, smooth_temp):
        lay, ens, mat, p_t = _benchmark_shape(shape)
        p0 = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(mat, ens, lay, smooth_temp)
        rng = RngStream(14)
        params = init_meta_net(rng, view_length(lay), hidden=(50, 50))
        bound = 0.1 / np.sqrt(50)
        params.weights[-1][...] = rng.uniform(-bound, bound,
                                              params.weights[-1].shape)
        params.biases[-1][...] = rng.uniform(-bound, bound, view_length(lay))
        budget = 0.7 * p_t if projected else p_t
        raw = p0 + mlp_forward(params, g0)
        assert (raw @ raw > budget) == projected

        ws = ProjectionWorkspace(ens.realizations)
        loss, gt, cand = grad_wrt_theta(params, p0, g0, ens, lay, budget,
                                        smooth_temp, ws)
        loss_r, gt_r, cand_r = _theta_grad(_rate_loss, params, p0, g0, ens,
                                           lay, budget, smooth_temp)
        assert loss == loss_r
        np.testing.assert_array_equal(cand, cand_r)
        np.testing.assert_array_equal(gt, gt_r)


class TestThetaGradient:
    def _setup(self, seed=71, small_out=True):
        lay, ens, mat = _instance(seed=seed, hierarchical=True)
        p0_view = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(mat, ens, lay)
        params = init_meta_net(RngStream(seed + 1), view_length(lay),
                               hidden=(6,))
        if small_out:
            # a zero output layer would make every hidden-layer gradient
            # vanish identically; seed it with small values instead
            w_out = params.weights[-1]
            w_out[...] = RngStream(seed + 2).uniform(
                -0.05, 0.05, w_out.shape)
        return lay, ens, p0_view, g0, params

    def test_zero_net_reproduces_start(self):
        lay, ens, mat = _instance(seed=72, hierarchical=True)
        p0_view = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(mat, ens, lay)
        params = init_meta_net(RngStream(5), view_length(lay), hidden=(6,))
        p_t = 4.0
        cand = candidate_view(params, p0_view, g0, p_t)
        np.testing.assert_array_equal(cand, p0_view)
        loss, gt, cand2 = grad_wrt_theta(params, p0_view, g0, ens, lay, p_t)
        np.testing.assert_array_equal(cand2, p0_view)
        assert loss == pytest.approx(loss_from_view(p0_view, ens, lay),
                                     rel=1e-12)

    def test_fd_agreement(self):
        lay, ens, p0_view, g0, params = self._setup()
        p_t = 4.0
        theta0 = params.to_vector()
        _, gt, _ = grad_wrt_theta(params, p0_view, g0, ens, lay, p_t)

        def f(vec):
            cand = candidate_view(params.from_vector(vec, params.dims),
                                  p0_view, g0, p_t)
            return loss_from_view(cand, ens, lay)

        err, _ = finite_diff_check(f, theta0, gt, step=1e-5)
        assert err <= 1e-4

    @staticmethod
    def _assert_candidate_is_plain_path(params, p0_view, g0, ens, lay, p_t):
        """The candidate and loss of the network gradient are, bit for bit,
        the plain forward, projection and loss; the budget binds."""
        raw = p0_view + mlp_forward(params, g0)
        assert np.sum(raw * raw) > p_t
        loss, _, cand = grad_wrt_theta(params, p0_view, g0, ens, lay, p_t)
        np.testing.assert_array_equal(
            cand, candidate_view(params, p0_view, g0, p_t))
        assert np.dot(cand, cand) <= p_t * (1 + 1e-12)
        assert loss == loss_from_view(cand, ens, lay)

    def test_candidate_matches_plain_path(self):
        lay, ens, p0_view, g0, params = self._setup(seed=73)
        p_t = 2.0   # tight budget so projection actually fires
        self._assert_candidate_is_plain_path(params, p0_view, g0, ens, lay,
                                             p_t)

    def test_candidate_matches_plain_path_ring(self):
        lay, ens, mat, p_t = _benchmark_shape("ring-16x8")
        p0_view = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(mat, ens, lay)
        params = _random_net(RngStream(74), lay)
        self._assert_candidate_is_plain_path(params, p0_view, g0, ens, lay,
                                             0.7 * p_t)


class TestFiniteDiffCheck:
    def test_accepts_true_gradient(self):
        q = np.array([1.0, 2.0, 3.0])

        def f(x):
            return 0.5 * float(x @ (q * x))

        x0 = np.array([0.4, -0.2, 0.9])
        err, fd = finite_diff_check(f, x0, q * x0, step=1e-6)
        assert err < 1e-8
        np.testing.assert_allclose(fd, q * x0, atol=1e-8)

    def test_flags_corrupted_gradient(self):
        q = np.array([1.0, 2.0, 3.0])

        def f(x):
            return 0.5 * float(x @ (q * x))

        x0 = np.array([0.4, -0.2, 0.9])
        bad = q * x0
        bad[1] *= 1.05
        err, _ = finite_diff_check(f, x0, bad, step=1e-6)
        assert err > 1e-3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: 0.0, np.ones(3), np.ones(4), 1e-6)


class TestGradcheckSuite:
    def test_small_battery_passes(self):
        report = gradcheck_suite(seed=123, n_instances=6)
        assert report["passed"]
        assert report["n_instances"] == 6
        assert len(report["precoder"]) == 6
        assert len(report["theta"]) == 6
        assert report["precoder_max_relerr"] <= 1e-5
        assert report["theta_max_relerr"] <= 1e-4

    def test_smoothed_battery_passes(self):
        report = gradcheck_suite(seed=321, n_instances=4, smooth_temp=0.3)
        assert report["passed"]
