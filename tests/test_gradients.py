import numpy as np
import pytest

from rsmeta import adam, baselines, metaopt
from rsmeta.baselines import run_direct_adam
from rsmeta.channel import ChannelEnsemble, IidCsitModel
from rsmeta.gradcheck import (_random_instance, _random_net,
                              finite_diff_check, gradcheck_suite)
from rsmeta.gradients import (_asr_of_rates, _fill_terms, _loss_core,
                              _rate_backward, _rate_weights,
                              _rates_from_terms, candidate_view,
                              grad_wrt_precoder, grad_wrt_theta,
                              loss_from_view, precoder_to_view, project_view,
                              view_length, view_to_precoder)
from rsmeta.layout import StreamLayout
from rsmeta.linalg import (ProjectionWorkspace, RngStream, _user_major,
                           gaussian_matrix)
from rsmeta.metaopt import MetaOptConfig, init_precoder, run_meta_opt
from rsmeta.network import MetaNetParams, init_meta_net, mlp_forward
from rsmeta.rates import PrecoderMatrix, saf_report
import tape
from scenes import (draw_iid_scene, draw_one_ring_scene, project_matrix,
                    rate_pass)
from tape import Var, _rate_loss, _tape_loss, _theta_grad, backward


def _stacked_rates(powers, lay):
    """The rate tail's averaged per-user rates, stacked (..., n_layers,
    n_users) in decoding order, from powers that are not written."""
    return _rates_from_terms(*_fill_terms(rate_pass(powers, lay)))


def _asr(powers, lay):
    """The averaged sum rate of the rate tail, from powers that are not
    written; leading axes are a batch."""
    return _asr_of_rates(_stacked_rates(powers, lay), lay)


def _owned(ws):
    """The float64 arrays that the workspace owns but its channel copy
    ``hr``, and those that its rate pass owns, each base array once: their
    views share its memory."""
    owned = {}
    for part in (ws, ws.rate_pass):
        for a in (vars(part).values() if part is not None else ()):
            if isinstance(a, np.ndarray) and a.dtype == float:
                base = a if a.base is None else a.base
                if base is not ws.hr.base:
                    owned[id(base)] = base
    return list(owned.values())


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
    mat = gaussian_matrix(RngStream(seed + 50), n_tx, lay.n_streams, 1.0)
    mat *= np.sqrt(0.8 * p_t / np.sum(np.abs(mat) ** 2))
    return lay, ens, mat


class TestViewConvention:
    def test_frozen_interleave_layout(self):
        # one column after another, each column's antennas in order, real
        # part immediately before its imaginary part
        lay = StreamLayout.one_layer(2, 1)
        mat = np.zeros((2, 2), complex)
        mat[:, 0] = [1 + 2j, 3 + 4j]
        mat[:, 1] = [5 + 6j, 7 + 8j]
        v = precoder_to_view(mat, lay)
        np.testing.assert_array_equal(v, np.arange(1.0, 9.0))
        assert view_length(lay) == 8

    def test_roundtrip_exact(self):
        # the view is every column, so both ways only reinterpret memory
        for hier in (False, True):
            lay, _, mat = _instance(seed=30, hierarchical=hier)
            mat[0, 0] = complex(-0.0, 0.0)
            v = precoder_to_view(mat, lay)
            assert v.size == view_length(lay) == 2 * lay.n_tx * lay.n_streams
            back = view_to_precoder(v, lay)
            assert back.shape == (lay.n_tx, lay.n_streams)
            np.testing.assert_array_equal(back.view(float), mat.view(float))
            assert np.signbit(back[0, 0].real)

    def test_wrong_shape_rejected(self):
        # a transposed matrix has the view's size and would be read as
        # another precoder; a one-layer one with a group column is too wide
        lay, _, mat = _instance(seed=30)
        for bad in (mat.T, np.zeros((lay.n_tx, lay.n_streams + 1))):
            with pytest.raises(ValueError, match="precoder shape"):
                precoder_to_view(bad, lay)

    def test_view_norm_is_precoder_power(self):
        lay, _, mat = _instance(seed=30, hierarchical=True)
        v = precoder_to_view(mat, lay)
        assert np.dot(v, v) == pytest.approx(np.sum(np.abs(mat) ** 2),
                                             rel=1e-14)


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
                -saf_report(mat, ens, lay).avg_sum_rate, rel=1e-12)


class TestPrecoderGradient:
    def test_loss_value_matches_plain_path(self):
        lay, ens, mat = _instance(seed=51, hierarchical=True)
        loss, _ = grad_wrt_precoder(mat, ens, lay)
        assert loss == pytest.approx(-saf_report(mat, ens, lay).avg_sum_rate,
                                     rel=1e-12)

    def test_fd_agreement(self):
        for hier, seed in ((False, 61), (True, 62)):
            lay, ens, mat = _instance(seed=seed, hierarchical=hier)
            v = precoder_to_view(mat, lay)
            _, g = grad_wrt_precoder(mat, ens, lay)
            err, _ = finite_diff_check(
                lambda x: loss_from_view(x, ens, lay), v, g, step=1e-6)
            assert err <= 1e-5

    def test_gradient_view_length(self):
        lay, ens, mat = _instance(seed=64)
        _, g = grad_wrt_precoder(mat, ens, lay)
        assert g.shape == (view_length(lay),)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_view_strided_copy_and_precoder_agree(self, hierarchical):
        # the view is the memory of the precoder matrix, so every way of
        # handing over the same precoder gives the same bits, signed zeros
        # included
        lay, ens, mat = _instance(seed=66, hierarchical=hierarchical)
        mat[0, 0] = complex(-0.0, 0.0)
        mat[1, -1] = complex(0.0, -0.0)
        mat[2, 1] = complex(-0.0, 0.7)
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
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        for workspace in (None, ws):
            _, g = grad_wrt_precoder(v, ens, lay, workspace=workspace)
            assert not np.shares_memory(g, v)
            params = _random_net(RngStream(68), lay)
            _, gt, cand = grad_wrt_theta(params, v, g, ens, lay, 4.0,
                                         workspace=workspace)
            for out in (gt, cand):
                assert not np.shares_memory(out, v)
                assert not np.shares_memory(out, g)
                assert not np.shares_memory(out, params.theta)
                for arr in (ws.hr, *_owned(ws)):
                    assert not np.shares_memory(out, arr)


def _tape_grad(mat, ens, lay):
    """The precoder gradient on the reverse-mode tape: the oracle for the
    closed form."""
    pre, pim = Var(mat.real.copy()), Var(mat.imag.copy())
    loss = _tape_loss(pre, pim, ens, lay)
    backward(loss)
    view = np.empty(2 * mat.size)
    view[0::2] = pre.grad.T.ravel()
    view[1::2] = pim.grad.T.ravel()
    return float(loss.value), view


class TestClosedFormMatchesTape:
    def test_random_instances(self):
        for i in range(200):
            lay, ens, mat = _random_instance(RngStream(5000 + i), i % 2 == 1)
            loss, g = grad_wrt_precoder(mat, ens, lay)
            loss_t, g_t = _tape_grad(mat, ens, lay)
            assert loss == loss_t                                # bitwise
            np.testing.assert_allclose(
                g, g_t, rtol=1e-12, atol=1e-12 * np.max(np.abs(g_t)))

    def test_long_cell(self):
        # one-layer 4x4 with 2000 draws: the back product sums 8000 terms
        # per entry
        lay, ens, mat, _ = _benchmark_shape("long-cell-4x4")
        loss, g = grad_wrt_precoder(mat, ens, lay)
        loss_t, g_t = _tape_grad(mat, ens, lay)
        assert loss == loss_t                                    # bitwise
        np.testing.assert_allclose(g, g_t, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g_t)))

    @pytest.mark.parametrize("hierarchical, pair", [
        (False, (0, 1)), (True, (1, 3))], ids=["one_layer", "two_groups"])
    def test_common_rate_tie_feeds_lowest_index(self, hierarchical, pair):
        # two users see identical channels, so their averaged common rates
        # tie exactly, also when they sit in different groups; the hard
        # minimum's whole subgradient must go to the lower-index user, not
        # be shared or counted twice
        lo, hi = pair
        lay, ens, mat = _instance(seed=81, n_tx=3, hierarchical=hierarchical)
        assert (lay.n_groups > 0 and lay.group_of[lo] != lay.group_of[hi]) \
            == hierarchical
        h = ens.realizations.copy()
        h[:, :, hi] = h[:, :, lo]
        est = ens.estimate.copy()
        est[:, hi] = est[:, lo]
        tied = ChannelEnsemble(estimate=est, realizations=h)
        powers = project_matrix(h, mat).powers
        rates = _stacked_rates(powers, lay)
        rc = rates[0]
        assert np.argmin(rc) == lo and rc[lo] == rc[hi]
        np.testing.assert_array_equal(_rate_weights(rates, lay)[0],
                                      np.arange(lay.n_users) == lo)

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

    def test_group_rate_tie_feeds_lowest_index(self, monkeypatch):
        # the two members of group 0 see identical channels, so their
        # averaged group rates tie exactly; the group minimum's whole
        # subgradient must go to the lower-index member, as on the tape.
        # Both members' powers pull back through the same channel, so the
        # tie shows in the power gradient, not in the precoder's
        lay, ens, mat = _instance(seed=83, n_tx=3, hierarchical=True)
        lo, hi = lay.member_rows[0]
        h = ens.realizations.copy()
        h[:, :, hi] = h[:, :, lo]
        est = ens.estimate.copy()
        est[:, hi] = est[:, lo]
        tied = ChannelEnsemble(estimate=est, realizations=h)
        powers = project_matrix(h, mat).powers
        rates = _stacked_rates(powers, lay)
        assert rates[1, lo] == rates[1, hi]
        np.testing.assert_array_equal(_rate_weights(rates, lay)[1, [lo, hi]],
                                      [1.0, 0.0])

        # the training loss is the plain rate bit for bit
        asr, g_pow = _rate_backward(rate_pass(powers, lay, backward=True), 1.0)
        assert asr == _asr(powers, lay)
        loss, g = grad_wrt_precoder(mat, tied, lay)
        assert loss == -asr
        assert loss == loss_from_view(precoder_to_view(mat, lay), tied, lay)

        # the tape's gradient with respect to its recorded powers, (n_draws,
        # n_users, n_streams), is the closed form's, and it tells the two
        # members' rows apart
        tape_project = tape.csq_project
        seen = []

        def spy(*args):
            seen.append(tape_project(*args))
            return seen[-1]

        monkeypatch.setattr(tape, "csq_project", spy)
        loss_t, g_t = _tape_grad(mat, tied, lay)
        assert loss == loss_t
        g_pow_t = -seen[0].grad.T
        np.testing.assert_allclose(g_pow, g_pow_t, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g_pow_t)))
        col = lay.col_group(0)
        assert np.max(np.abs(g_pow_t[col, lo] - g_pow_t[col, hi])) > \
            1e-3 * np.max(np.abs(g_pow_t[col, lo]))
        np.testing.assert_allclose(g, g_t, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g_t)))


class TestProjectionWorkspace:
    @staticmethod
    def _eight_users(hierarchical):
        # 8 users put 8 private columns into one gathered sum
        return _instance(seed=90, n_tx=4, n_users=8,
                         hierarchical=hierarchical, n_draws=12)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_kept_results_survive_later_calls(self, hierarchical):
        lay, ens, mat = self._eight_users(hierarchical)
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        rng = RngStream(91)
        mats = [mat * (0.5 + 0.1 * i) + 0.1 * gaussian_matrix(
                    rng, lay.n_tx, lay.n_streams, 1.0)
                for i in range(5)]
        kept = []
        for m in mats:
            kept.append(grad_wrt_precoder(m, ens, lay, workspace=ws))
        for m, (loss, g) in zip(mats, kept):
            loss_1, g_1 = grad_wrt_precoder(m, ens, lay)
            assert loss == loss_1
            np.testing.assert_array_equal(g, g_1)
            assert loss_from_view(precoder_to_view(m, lay), ens,
                                  lay) == loss_1

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_eight_columns_sum_like_tape(self, hierarchical):
        lay, ens, mat = self._eight_users(hierarchical)
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        loss, g = grad_wrt_precoder(mat, ens, lay, workspace=ws)
        loss_t, g_t = _tape_grad(mat, ens, lay)
        assert loss == loss_t                                    # bitwise
        np.testing.assert_allclose(g, g_t, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g_t)))

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_power_grad_same_bits_with_workspace(self, hierarchical):
        # the precoder gradient on a run's workspace, whose rate pass fills
        # the workspace's power gradient, has the bits of a one-shot call
        lay, ens, mat = self._eight_users(hierarchical)
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        passes = []
        for scale in (1.0, 0.7):
            loss, g = grad_wrt_precoder(mat * scale, ens, lay)
            loss_w, g_w = grad_wrt_precoder(mat * scale, ens, lay,
                                            workspace=ws)
            assert loss == loss_w
            np.testing.assert_array_equal(g, g_w)
            passes.append((ws.rate_pass, ws.rate_pass.power_grad))
        assert passes[1][0] is passes[0][0]
        assert passes[1][1] is passes[0][1]

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_only_the_workspace_powers_are_written(self, hierarchical):
        # the rate pass zeroes each user's own powers in place only in the
        # powers that a gradient's projection wrote on its workspace; the
        # readers of given powers copy them, even another workspace's
        lay, ens, mat = self._eight_users(hierarchical)
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        powers = project_matrix(ens.realizations, mat).powers
        for call in (lambda p: _asr(p, lay),
                     lambda p: _rate_backward(rate_pass(p, lay, backward=True),
                                              1.0)):
            before = powers.copy()
            call(powers)
            np.testing.assert_array_equal(powers, before)
        for workspace in (None, ws):
            loss, _ = grad_wrt_precoder(mat, ens, lay, workspace=workspace)
            assert loss == -_asr(powers, lay)
        own = ws.powers
        assert not own.reshape(-1, own.shape[-1])[lay.layer_rows[1:]].any()

    @pytest.mark.parametrize("run", ["direct", "meta"])
    def test_runs_allocate_each_array_once(self, monkeypatch, run):
        # the run builds one workspace, which allocates its projection's
        # pairs and squares with its channel copy, and no array it owns is
        # allocated again after the first iteration: every Adam step sees
        # the same rate pass, the workspace and the pass owning the same
        # arrays, the same scratch and parameters and, in a meta run, the
        # same θ-gradient array
        built, born, steps = [], [], []
        real_init = ProjectionWorkspace.__init__
        real_step = adam.adam_step

        def init(ws, h, n_streams):
            real_init(ws, h, n_streams)
            built.append(ws)
            born.append((ws.z, ws.sq))

        def step(state, grad, lr, params):
            assert len(built) == 1
            ws = built[0]
            steps.append((state, state.delta, state.denom, params,
                          ws.rate_pass, *_owned(ws), grad))
            real_step(state, grad, lr, params)

        monkeypatch.setattr(ProjectionWorkspace, "__init__", init)
        lay, ens, _ = self._eight_users(True)
        if run == "direct":
            monkeypatch.setattr(baselines, "adam_step", step)
            run_direct_adam(lay, ens, 4.0, n_iters=5)
        else:
            monkeypatch.setattr(metaopt, "adam_step", step)
            run_meta_opt(lay, ens, 4.0, MetaOptConfig(n_iters=5,
                                                      hidden=(8,)))
        ws0 = built[0]
        assert born[0][0] is ws0.z and born[0][1] is ws0.sq
        assert ws0.rate_pass is not None
        # z and the squares, then the rate pass's numerators,
        # denominators, private sum, rates, rate weights, per-draw rates
        # and power gradient
        assert len(_owned(ws0)) == 9
        # the direct run's precoder gradient is a fresh view-sized array;
        # the meta run's θ-gradient is the run's one array
        same = len(steps[0]) - (run == "direct")
        assert len(steps) == 5
        for i in range(same):
            assert all(s[i] is steps[0][i] for s in steps)

    def test_long_cell_bytes_within_budget(self):
        # the float64 channel copy plus every array that the workspace's
        # projection and rate pass own, after one network and one precoder
        # gradient at 2000 x 4 x 4, hold no more than the 2,496,128 bytes
        # of the complex user-major projection they replaced: the pairs
        # take the complex inner products' bytes, and the powers with
        # their square scratch the operand of the network gradient's einsum
        lay, ens, mat, p_t = _benchmark_shape("long-cell-4x4")
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        p0 = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(p0, ens, lay, workspace=ws)
        params = _random_net(RngStream(93), lay)
        grad_wrt_theta(params, p0, g0, ens, lay, p_t, workspace=ws)
        grad_wrt_precoder(p0, ens, lay, workspace=ws)
        assert ws.hr.nbytes == ens.realizations.nbytes
        held = ws.hr.nbytes + sum(a.nbytes for a in _owned(ws))
        assert held <= 2_496_128

    def test_serves_one_layout(self):
        # a workspace serves one layout's columns: a projection
        # onto another number of columns, or a rate pass for another
        # layout of the same width, which would read each user's own
        # powers from the wrong rows, raises; an equal layout is the same
        lay, ens, mat = self._eight_users(True)
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        loss, g = grad_wrt_precoder(mat, ens, lay, workspace=ws)
        with pytest.raises(ValueError, match="projects 11 columns, got 10"):
            project_matrix(ens.realizations, mat[:, 1:], ws)
        regrouped = StreamLayout.hierarchical(lay.n_tx, lay.n_users, 2,
                                              group_of=(0, 1) * 4)
        assert regrouped != lay
        assert regrouped.n_streams == lay.n_streams
        with pytest.raises(ValueError, match="rate pass is for"):
            grad_wrt_precoder(mat, ens, regrouped, workspace=ws)
        equal = StreamLayout.hierarchical(lay.n_tx, lay.n_users, 2)
        assert equal is not lay
        loss_e, g_e = grad_wrt_precoder(mat, ens, equal, workspace=ws)
        assert loss_e == loss
        np.testing.assert_array_equal(g_e, g)

    def test_rejects_another_stack(self):
        lay, ens, mat = _instance(seed=92)
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        with pytest.raises(ValueError, match="another channel stack"):
            project_matrix(ens.realizations.copy(), mat, ws)


def _assert_theta_matches_tape(params, p0, g0, ens, lay, p_t):
    """The hand-written network gradient gives the loss, candidate and
    network gradient of the rates recorded op by op."""
    loss, gt, cand = grad_wrt_theta(params, p0, g0, ens, lay, p_t)
    loss_t, gt_t, cand_t = _theta_grad(_tape_loss, params, p0, g0, ens, lay,
                                       p_t)
    assert loss == loss_t                                        # bitwise
    np.testing.assert_array_equal(cand, cand_t)
    np.testing.assert_allclose(gt, gt_t, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(gt_t)))
    return cand


class TestFusedThetaMatchesTape:
    def test_random_instances(self):
        projected = 0
        for i in range(200):
            rng = RngStream(7000 + i)
            lay, ens, mat = _random_instance(rng, i % 2 == 1)
            p0 = precoder_to_view(mat, lay)
            _, g0 = grad_wrt_precoder(mat, ens, lay)
            # the start spends 0.8 of 4.0: alternate budgets so both
            # branches of the power projection are recorded
            p_t = 4.0 if i % 4 < 2 else 3.0
            params = _random_net(rng, lay)
            _assert_theta_matches_tape(params, p0, g0, ens, lay, p_t)
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
        cand = _assert_theta_matches_tape(params, p0, g0, tied, lay, 4.0)
        powers = project_matrix(h, view_to_precoder(cand, lay)).powers
        rc = _stacked_rates(powers, lay)[0]
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
    elif name == "wide-32x16":
        p_t = 100.0
        lay, ens = draw_iid_scene(16, 32, 16, p_t, n_draws=200)
    else:
        lay, ens, mat = _instance(seed=13, n_tx=4, n_users=8, n_draws=12,
                                  hierarchical=name == "grouped-8-users")
        return lay, ens, mat, 4.0
    mat = init_precoder(lay, ens.estimate, p_t).matrix * np.sqrt(0.8)
    return lay, ens, mat, p_t


class TestUserMajorAdjoint:
    """grad_wrt_theta's einsum adjoint reads the workspace's user-major
    channel copy, ``hu``; on each shipped shape it has the bits of the same
    einsum on the C-ordered channels that the models draw."""

    @pytest.mark.parametrize("shape", ["ring-16x8", "long-cell-4x4",
                                       "one-layer-8-users",
                                       "grouped-8-users"])
    def test_matches_c_ordered_channels(self, shape):
        lay, ens, mat, _ = _benchmark_shape(shape)
        _, ws = _loss_core(precoder_to_view(mat, lay), ens, lay, None)
        w = _user_major(ws.z)
        h = ens.realizations
        assert h.flags.c_contiguous
        assert ws.hu.transpose(0, 2, 1).flags.c_contiguous
        np.testing.assert_array_equal(ws.hu, h)
        np.testing.assert_array_equal(
            np.einsum("mik,mks->is", ws.hu, w),
            np.einsum("mik,mks->is", h, w))

    def test_built_once_and_only_for_the_network_gradient(self):
        lay, ens, mat, p_t = _benchmark_shape("grouped-8-users")
        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        p0 = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(p0, ens, lay, workspace=ws)
        assert "hu" not in vars(ws)
        params = _random_net(RngStream(36), lay)
        grad_wrt_theta(params, p0, g0, ens, lay, p_t, workspace=ws)
        hu = ws.hu
        grad_wrt_theta(params, p0, g0, ens, lay, p_t, workspace=ws)
        assert ws.hu is hu
        # a stack already laid out user-major is read where it is
        stack = np.ascontiguousarray(hu.transpose(0, 2, 1)).transpose(0, 2, 1)
        other = ProjectionWorkspace(stack, lay.n_streams)
        assert np.shares_memory(other.hu, stack)


class TestMetamorphicCore:
    """Relations that follow from the averaged sum rate reading the
    channels only through |h_k^H p_s|^2 and from its minima and sums not
    depending on the order of the draws or of a group's users, checked on
    the core at the bench shapes. Each compares the package with itself on
    transformed inputs, so it needs no reference that shares the
    projection or the rate backward; one relative tolerance, ``TOL``, holds
    throughout."""

    SHAPES = ["long-cell-4x4", "ring-16x8", "wide-32x16"]
    RELATIONS = ["common_unitary", "draw_permutation",
                 "channel_and_precoder_scale", "column_phases",
                 "user_relabeling"]
    TOL = 1e-13
    SCALE = 3.7

    @staticmethod
    def _unitary(n_tx):
        return np.linalg.qr(gaussian_matrix(RngStream(31), n_tx, n_tx,
                                            1.0))[0]

    @staticmethod
    def _phases(lay):
        return np.exp(1j * RngStream(33).uniform(-np.pi, np.pi,
                                                 lay.n_streams))

    @staticmethod
    def _relabeling(lay):
        """``(users, cols)``: user k of the relabeled scene is user
        ``users[k]``, of the same group, and precoder column c is column
        ``cols[c]``, so each private column moves with its user."""
        rng = np.random.default_rng(34)
        users = lay.user_rows.copy()
        for members in lay.member_rows:
            users[members] = rng.permutation(members)
        cols = np.arange(lay.n_streams)
        cols[lay.col_private(0):] = lay.col_private(0) + users
        return users, cols

    def _transform(self, relation, lay, ens, mat):
        """The ensemble and the precoder after one relation, and the order
        of the users: ``users[k]`` is user k's index in the input."""
        est, h = ens.estimate, ens.realizations
        users = lay.user_rows
        if relation == "common_unitary":
            # h -> U h and p -> U p keep every h^H p
            u = self._unitary(lay.n_tx)
            est, h, mat = u @ est, u @ h, u @ mat
        elif relation == "draw_permutation":
            h = h[np.random.default_rng(32).permutation(len(h))]
        elif relation == "channel_and_precoder_scale":
            # h -> c h and p -> p / c keep every h^H p
            c = self.SCALE
            est, h, mat = c * est, c * h, mat / c
        elif relation == "column_phases":
            # a phase per column keeps every |h^H p|^2
            mat = mat * self._phases(lay)
        else:
            # relabeling a group's users keeps every minimum and sum
            users, cols = self._relabeling(lay)
            est, h, mat = est[:, users], h[:, :, users], mat[:, cols]
        return ChannelEnsemble(est, h), mat, users

    @staticmethod
    def _loss_and_grad(mat, ens, lay):
        """The loss and the precoder gradient as a complex (n_tx,
        n_streams) matrix."""
        loss, g = grad_wrt_precoder(mat, ens, lay)
        return loss, view_to_precoder(g, lay)

    def _assert_close(self, got, want):
        (loss, g), (loss_w, g_w) = got, want
        assert abs(loss - loss_w) <= self.TOL * abs(loss_w)
        assert np.max(np.abs(g - g_w)) <= self.TOL * np.max(np.abs(g_w))

    def _assert_same_loss_and_grad(self, shape, relation):
        lay, ens, mat, _ = _benchmark_shape(shape)
        ens_t, mat_t, _ = self._transform(relation, lay, ens, mat)
        self._assert_close(self._loss_and_grad(mat_t, ens_t, lay),
                           self._loss_and_grad(mat, ens, lay))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_common_unitary(self, shape):
        # the gradient turns with U
        lay, ens, mat, _ = _benchmark_shape(shape)
        ens_u, mat_u, _ = self._transform("common_unitary", lay, ens, mat)
        loss, g = self._loss_and_grad(mat, ens, lay)
        self._assert_close(self._loss_and_grad(mat_u, ens_u, lay),
                           (loss, self._unitary(lay.n_tx) @ g))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_draw_permutation(self, shape):
        self._assert_same_loss_and_grad(shape, "draw_permutation")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_channel_and_precoder_scale(self, shape):
        # the gradient scales with c
        lay, ens, mat, _ = _benchmark_shape(shape)
        ens_s, mat_s, _ = self._transform("channel_and_precoder_scale", lay,
                                          ens, mat)
        loss, g = self._loss_and_grad(mat, ens, lay)
        self._assert_close(self._loss_and_grad(mat_s, ens_s, lay),
                           (loss, self.SCALE * g))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_column_phases(self, shape):
        # the gradient's columns turn with their phases
        lay, ens, mat, _ = _benchmark_shape(shape)
        ens_p, mat_p, _ = self._transform("column_phases", lay, ens, mat)
        loss, g = self._loss_and_grad(mat, ens, lay)
        self._assert_close(self._loss_and_grad(mat_p, ens_p, lay),
                           (loss, g * self._phases(lay)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_user_relabeling(self, shape):
        # the gradient's columns move with the precoder's
        lay, ens, mat, _ = _benchmark_shape(shape)
        ens_r, mat_r, _ = self._transform("user_relabeling", lay, ens, mat)
        loss, g = self._loss_and_grad(mat, ens, lay)
        _, cols = self._relabeling(lay)
        self._assert_close(self._loss_and_grad(mat_r, ens_r, lay),
                           (loss, g[:, cols]))

    def _assert_same_theta_grad(self, shape, relation):
        # the network reads the start and its gradient, not the channels,
        # so both sides score the same candidate; the network gradient
        # runs grad_wrt_theta's own adjoint
        lay, ens, mat, p_t = _benchmark_shape(shape)
        p0 = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(p0, ens, lay)
        params = _random_net(RngStream(35), lay)
        loss, gt, cand = grad_wrt_theta(params, p0, g0, ens, lay, p_t)
        ens_t, _, _ = self._transform(relation, lay, ens, mat)
        loss_t, gt_t, cand_t = grad_wrt_theta(params, p0, g0, ens_t, lay,
                                              p_t)
        np.testing.assert_array_equal(cand_t, cand)
        self._assert_close((loss_t, gt_t), (loss, gt))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_theta_grad_draw_permutation(self, shape):
        self._assert_same_theta_grad(shape, "draw_permutation")

    @pytest.mark.parametrize("shape", SHAPES + ["one-layer-8-users",
                                                "grouped-8-users"])
    def test_output_bias_gradient_is_precoder_gradient(self, shape):
        # init_meta_net's zero output layer proposes no update, so the
        # candidate is the start, inside the budget, and the radial
        # projection passes the gradient through: the output bias gets
        # the precoder gradient at the candidate, by the einsum adjoint
        # where grad_wrt_precoder takes the product with hr
        lay, ens, mat, p_t = _benchmark_shape(shape)
        p0 = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(p0, ens, lay)
        params = init_meta_net(RngStream(37), view_length(lay))
        loss, gt, cand = grad_wrt_theta(params, p0, g0, ens, lay, p_t)
        np.testing.assert_array_equal(cand, p0)
        bias = MetaNetParams(gt, params.dims).biases[-1]
        self._assert_close((loss, bias),
                           grad_wrt_precoder(cand, ens, lay))

    @pytest.mark.parametrize("relation", RELATIONS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_scored_rates(self, shape, relation):
        # the held-out scorer (rates.py) and the hard-minimum reader of
        # the searches keep their rates, each user's moving with the user
        lay, ens, mat, _ = _benchmark_shape(shape)
        ens_t, mat_t, users = self._transform(relation, lay, ens, mat)
        want, got = saf_report(mat, ens, lay), saf_report(mat_t, ens_t, lay)
        for name in ("avg_per_user_common", "avg_per_user_group",
                     "avg_per_user_private"):
            w = getattr(want, name)[users]
            assert np.max(np.abs(getattr(got, name) - w)) <= \
                self.TOL * np.max(np.abs(w))
        assert abs(got.avg_sum_rate - want.avg_sum_rate) <= \
            self.TOL * want.avg_sum_rate
        loss = loss_from_view(precoder_to_view(mat, lay), ens, lay)
        loss_t = loss_from_view(precoder_to_view(mat_t, lay), ens_t, lay)
        assert abs(loss_t - loss) <= self.TOL * abs(loss)


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
        powers = project_matrix(ens.realizations, mat).powers
        return lay, ens, mat, powers

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_saf_report(self, shape):
        lay, ens, mat, powers = self._powers(shape)
        rates = _stacked_rates(powers, lay)
        ref = saf_report(mat, ens, lay)
        np.testing.assert_allclose(rates[0], ref.avg_per_user_common,
                                   rtol=1e-13)
        np.testing.assert_allclose(rates[-1], ref.avg_per_user_private,
                                   rtol=1e-13)
        if lay.n_groups:
            np.testing.assert_allclose(rates[1], ref.avg_per_user_group,
                                       rtol=1e-13)
        else:
            assert len(rates) == 2

    @pytest.mark.parametrize("shape", SHAPES)
    def test_strided_powers_give_same_bits(self, shape):
        # a non-contiguous stream-major copy is read through a contiguous
        # one, with the bits of the projection's own powers
        lay, ens, _, powers = self._powers(shape)
        assert powers.flags.c_contiguous
        strided = np.empty(powers.shape[:-1] + (2 * powers.shape[-1],))
        strided = strided[..., ::2]
        strided[...] = powers
        assert not strided.flags.c_contiguous
        asr, g = _rate_backward(rate_pass(powers, lay, backward=True), 1.0)
        asr_s, g_s = _rate_backward(rate_pass(strided, lay, backward=True),
                                    1.0)
        assert asr == asr_s
        np.testing.assert_array_equal(g, g_s)
        np.testing.assert_array_equal(
            _stacked_rates(powers, lay),
            _stacked_rates(strided, lay))


class TestBatchAxis:
    """A batch of powers, batch axis outermost, gives every slice the bits
    of its own unbatched call: the sums over columns, the averages over
    draws and the per-slice minima."""

    @staticmethod
    def _stack(shape, n=6):
        """The layout, the unbatched powers of ``n`` precoders and the
        same powers stacked, (n, n_streams, n_users, n_draws)."""
        lay, ens, mat, _ = _benchmark_shape(shape)
        rng = RngStream(77)
        singles = []
        for _ in range(n):
            scale = rng.uniform(0.2, 1.5, lay.n_streams)
            singles.append(project_matrix(ens.realizations,
                                          mat * np.sqrt(scale)).powers)
        return lay, singles, np.stack(singles)

    @pytest.mark.parametrize("shape", ["ring-16x8", "long-cell-4x4",
                                       "grouped-8-users"])
    def test_slices_match_unbatched(self, shape):
        lay, singles, batch = self._stack(shape)
        asr = _asr(batch, lay)
        rates = _stacked_rates(batch, lay)
        assert asr.shape == (len(singles),)
        for b, powers in enumerate(singles):
            assert asr[b] == _asr(powers, lay)
            # the training loss takes the same minima in the same order
            assert asr[b] == _rate_backward(
                rate_pass(powers, lay, backward=True), 1.0)[0]
            np.testing.assert_array_equal(
                rates[b], _stacked_rates(powers, lay))
        # any number of leading axes, each kept outermost
        grid = _asr(batch.reshape((2, 3) + batch.shape[1:]), lay)
        np.testing.assert_array_equal(grid.ravel(), asr)

    def test_nan_stays_in_its_slice(self):
        lay, singles, batch = self._stack("grouped-8-users")
        clean = _asr(batch, lay)
        poisoned = batch.copy()
        poisoned[2, 0, 0, 0] = np.nan
        asr = _asr(poisoned, lay)
        assert np.isnan(asr[2])
        np.testing.assert_array_equal(np.delete(asr, 2), np.delete(clean, 2))


class TestTermsShareTheRateTail:
    """The rate tail past the terms, :func:`_rates_from_terms` then
    :func:`_asr_of_rates`, whose two halves the fixed-direction search
    runs: on the numerators and denominators that the powers' gather
    builds, a slice's copies give the bits of the batched call, and the
    batched call those of the powers' rate."""

    @pytest.mark.parametrize("shape", ["ring-16x8", "long-cell-4x4",
                                       "grouped-8-users"])
    def test_terms_give_powers_bits(self, shape):
        lay, singles, batch = TestBatchAxis._stack(shape)
        want = _asr(batch, lay)
        num, den = _fill_terms(rate_pass(batch, lay))
        for b in range(len(singles)):
            rates = _rates_from_terms(num[b].copy(), den[b].copy())
            assert _asr_of_rates(rates, lay) == want[b]
        np.testing.assert_array_equal(
            _asr_of_rates(_rates_from_terms(num, den), lay), want)


class TestHandThetaMatchesFusedRecording:
    """The hand-written network gradient is, bit for bit, the parent
    recording: the network, the radial projection and |h^H p|^2 on the
    tape, the rates as one closed-form node."""

    @pytest.mark.parametrize("shape", ["ring-16x8", "long-cell-4x4",
                                       "one-layer-8-users",
                                       "grouped-8-users"])
    @pytest.mark.parametrize("projected", [False, True])
    def test_bitwise(self, shape, projected):
        lay, ens, mat, p_t = _benchmark_shape(shape)
        p0 = precoder_to_view(mat, lay)
        _, g0 = grad_wrt_precoder(mat, ens, lay)
        rng = RngStream(14)
        params = init_meta_net(rng, view_length(lay), hidden=(50, 50))
        bound = 0.1 / np.sqrt(50)
        params.weights[-1][...] = rng.uniform(-bound, bound,
                                              params.weights[-1].shape)
        params.biases[-1][...] = rng.uniform(-bound, bound, view_length(lay))
        budget = 0.7 * p_t if projected else p_t
        raw = p0 + mlp_forward(params, g0)
        assert (raw @ raw > budget) == projected

        ws = ProjectionWorkspace(ens.realizations, lay.n_streams)
        loss, gt, cand = grad_wrt_theta(params, p0, g0, ens, lay, budget,
                                        workspace=ws)
        loss_r, gt_r, cand_r = _theta_grad(_rate_loss, params, p0, g0, ens,
                                           lay, budget)
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
        theta0 = params.theta.copy()
        _, gt, _ = grad_wrt_theta(params, p0_view, g0, ens, lay, p_t)

        def f(vec):
            cand = candidate_view(MetaNetParams(vec, params.dims),
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
