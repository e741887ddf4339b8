import numpy as np
import pytest
from scipy import integrate

from rsmeta import channel
from rsmeta.channel import (ChannelEnsemble, IidCsitModel, OneRingModel,
                            one_ring_correlation, psd_sqrt)
from rsmeta.layout import StreamLayout
from rsmeta.linalg import RngStream, gaussian_matrix, herm_eig

from scenes import draw_iid_scene, draw_one_ring_scene


class TestChannelEnsemble:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError):
            ChannelEnsemble(estimate=np.zeros((4, 2), complex),
                            realizations=np.zeros((3, 4, 3), complex))

    def test_nonfinite_rejected(self):
        est = np.zeros((2, 2), complex)
        real = np.zeros((3, 2, 2), complex)
        real[1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ChannelEnsemble(estimate=est, realizations=real)

    def test_transposed_inputs_accepted(self):
        # a transposed complex array has no contiguous last axis to read as
        # float pairs; the finiteness check must not need one
        rng = RngStream(31)
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        stack = rng.standard_normal((4, 3, 5)) \
            + 1j * rng.standard_normal((4, 3, 5))
        ens = ChannelEnsemble(estimate=h.T, realizations=stack.T)
        np.testing.assert_array_equal(ens.estimate, h.T)
        np.testing.assert_array_equal(ens.realizations, stack.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("where", ["estimate", "realizations"])
    def test_nonfinite_part_rejected_in_transposed_input(self, bad, part,
                                                         where):
        arrays = {"estimate": np.ones((3, 4), complex).T,
                  "realizations": np.ones((3, 4, 2), complex).T}
        getattr(arrays[where], part)[(1,) * arrays[where].ndim] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ChannelEnsemble(**arrays)

    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError):
            ChannelEnsemble(estimate=np.zeros((2, 2), complex),
                            realizations=np.zeros((1, 2, 2), complex),
                            noise_power=0.0)

    def test_counts(self):
        ens = ChannelEnsemble(estimate=np.ones((4, 3), complex),
                              realizations=np.ones((7, 4, 3), complex))
        assert (ens.n_tx, ens.n_users, ens.n_draws) == (4, 3, 7)


class TestIidModel:
    def test_error_variance_tracks_power(self):
        model = IidCsitModel(n_tx=2, n_users=2, alpha=0.6)
        # 10 ** -0.6, hand value
        assert model.error_var(10.0) == pytest.approx(0.251188643150958,
                                                      rel=1e-12)
        assert model.error_var(1.0) == 1.0

    def test_error_power_override(self):
        model = IidCsitModel(n_tx=2, n_users=2, alpha=0.6, error_power=0.03)
        assert model.error_var(1000.0) == 0.03

    def test_draw_shapes_and_reproducibility(self):
        model = IidCsitModel(n_tx=4, n_users=3)
        e1 = model.draw(RngStream(5), 10.0, 20)
        e2 = model.draw(RngStream(5), 10.0, 20)
        assert e1.estimate.shape == (4, 3)
        assert e1.realizations.shape == (20, 4, 3)
        np.testing.assert_array_equal(e1.estimate, e2.estimate)
        np.testing.assert_array_equal(e1.realizations, e2.realizations)

    def test_realizations_center_on_estimate(self):
        model = IidCsitModel(n_tx=2, n_users=2, error_power=0.2)
        ens = model.draw(RngStream(11), 10.0, 4000)
        err = ens.realizations - ens.estimate[None]
        assert np.max(np.abs(np.mean(err, axis=0))) < 0.05
        assert np.mean(np.abs(err) ** 2) == pytest.approx(0.2, rel=0.1)

    def test_estimate_variance_shrinks_by_error_power(self):
        model = IidCsitModel(n_tx=60, n_users=60, error_power=0.36)
        ens = model.draw(RngStream(2), 10.0, 1)
        assert np.mean(np.abs(ens.estimate) ** 2) == pytest.approx(
            0.64, rel=0.1)

    def test_perfect_csit(self):
        model = IidCsitModel(n_tx=3, n_users=2, error_power=0.0)
        ens = model.draw(RngStream(4), 10.0, 5)
        np.testing.assert_array_equal(
            ens.realizations, np.broadcast_to(ens.estimate, (5, 3, 2)))

    def test_low_power_estimate_would_be_degenerate(self):
        model = IidCsitModel(n_tx=2, n_users=2, alpha=0.6)
        # p_t < 1 pushes the error variance above the channel variance
        with pytest.raises(ValueError):
            model.draw(RngStream(0), 0.5, 3)

    def test_draw_pair_shares_estimate(self):
        model = IidCsitModel(n_tx=3, n_users=2, error_power=0.1)
        a, b = model.draw_pair(RngStream(9), 10.0, 8, 6)
        np.testing.assert_array_equal(a.estimate, b.estimate)
        assert b.realizations.shape == (6, 3, 2)
        assert np.max(np.abs(a.realizations[:6] - b.realizations)) > 1e-8

    def test_draw_pair_first_batch_matches_plain_draw(self):
        model = IidCsitModel(n_tx=3, n_users=2, error_power=0.1)
        a, none = model.draw_pair(RngStream(9), 10.0, 8, 0)
        plain = model.draw(RngStream(9), 10.0, 8)
        assert none is None
        np.testing.assert_array_equal(a.realizations, plain.realizations)


class TestOneRingCorrelation:
    def test_unit_diagonal_exact(self):
        r = one_ring_correlation(5, 0.5, 0.7, np.pi / 8)
        np.testing.assert_array_equal(np.diag(r), np.ones(5, complex))

    def test_hermitian_toeplitz(self):
        r = one_ring_correlation(6, 0.5, -0.4, np.pi / 6)
        np.testing.assert_allclose(r, r.conj().T, atol=1e-15)
        for off in range(1, 6):
            d = np.diagonal(r, offset=off)
            np.testing.assert_allclose(d, np.full_like(d, d[0]), atol=1e-15)

    def test_entries_bounded_by_one(self):
        r = one_ring_correlation(8, 0.5, 1.1, np.pi / 4)
        assert np.max(np.abs(r)) <= 1.0 + 1e-12

    def test_broadside_ring_is_real(self):
        # symmetric angle interval around zero conjugates into itself
        r = one_ring_correlation(4, 0.5, 0.0, np.pi / 5)
        np.testing.assert_allclose(r.imag, np.zeros((4, 4)), atol=1e-15)

    def test_matches_adaptive_quadrature(self):
        # independent oracle: adaptive quadrature on each lag integral
        n, spacing, azimuth, spread = 4, 0.5, np.pi / 7, np.pi / 8
        r = one_ring_correlation(n, spacing, azimuth, spread)
        for ell in range(n):
            f = lambda phi: np.exp(-2j * np.pi * spacing * ell
                                   * np.sin(phi))
            re, _ = integrate.quad(lambda p: f(p).real, azimuth - spread,
                                   azimuth + spread, epsabs=1e-13)
            im, _ = integrate.quad(lambda p: f(p).imag, azimuth - spread,
                                   azimuth + spread, epsabs=1e-13)
            want = (re + 1j * im) / (2 * spread)
            assert abs(r[ell, 0] - want) < 1e-8

    def test_narrow_ring_approaches_rank_one(self):
        r = one_ring_correlation(6, 0.5, 0.3, 1e-4)
        w, _ = herm_eig(r)
        assert w[1] / w[0] <= 1e-6

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            one_ring_correlation(0, 0.5, 0.0, 0.1)
        with pytest.raises(ValueError):
            one_ring_correlation(4, 0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            one_ring_correlation(4, 0.5, 0.0, 0.0)
        # these used to return an all-NaN matrix without an error
        for spacing, azimuth, name in ((np.nan, 0.0, "spacing"),
                                       (np.inf, 0.0, "spacing"),
                                       (0.5, np.nan, "azimuth"),
                                       (0.5, np.inf, "azimuth")):
            with pytest.raises(ValueError, match=name):
                one_ring_correlation(4, spacing, azimuth, 0.3)

    @pytest.mark.parametrize("azimuth, spread", [
        (0.5, 1e-300), (1e300, 0.3), (1e16, 0.3), (0.0, 5e-324)])
    def test_interval_rounding_to_a_point_rejected(self, azimuth, spread):
        # the quadrature of an interval of no width is 0, which used to
        # raise ZeroDivisionError in the normalization
        with pytest.raises(ValueError, match="no width"):
            one_ring_correlation(4, 0.5, azimuth, spread)


class TestPsdSqrt:
    def test_square_root_property(self):
        r = one_ring_correlation(6, 0.5, 0.2, np.pi / 6)
        s = psd_sqrt(r)
        np.testing.assert_allclose(s @ s, r, atol=1e-10)
        np.testing.assert_allclose(s, s.conj().T, atol=1e-10)

    def test_tiny_negative_eigenvalue_clipped(self):
        v = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
        a = (v * np.array([2.0, 1.0, -5e-10])[None, :]) @ v.conj().T
        s = psd_sqrt(a)
        assert np.all(np.isfinite(s))

    def test_genuinely_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_sqrt(np.diag([1.0, -1e-6]))


class TestOneRingModel:
    def _model(self, tau2=0.4):
        return OneRingModel(n_tx=6, azimuths=(-0.8, 0.8), spread=np.pi / 8,
                            tau2=tau2)

    def _layout(self):
        return StreamLayout.hierarchical(6, 4, 2)

    def test_draw_shapes(self):
        ens = self._model().draw(RngStream(3), self._layout(), 12)
        assert ens.estimate.shape == (6, 4)
        assert ens.realizations.shape == (12, 6, 4)

    def test_perfect_csit_limit(self):
        ens = self._model(tau2=0.0).draw(RngStream(3), self._layout(), 5)
        np.testing.assert_allclose(
            ens.realizations, np.broadcast_to(ens.estimate, (5, 6, 4)),
            atol=1e-13)

    def test_reproducible(self):
        a = self._model().draw(RngStream(21), self._layout(), 7)
        b = self._model().draw(RngStream(21), self._layout(), 7)
        np.testing.assert_array_equal(a.realizations, b.realizations)

    def test_estimate_covariance_matches_ring(self):
        # many single-user scenes; the sample covariance of the estimate
        # should approach the ring correlation
        model = OneRingModel(n_tx=4, azimuths=(0.5,), spread=np.pi / 8,
                             tau2=0.3)
        layout = StreamLayout.hierarchical(4, 1, 1)
        cols = [model.draw(RngStream(1000 + i), layout, 1).estimate[:, 0]
                for i in range(600)]
        h = np.stack(cols, axis=1)
        cov = (h @ h.conj().T) / h.shape[1]
        np.testing.assert_allclose(cov, model.correlation(0), atol=0.15)

    def test_realization_mix_fractions(self):
        # tau2 controls how much of each realization is fresh randomness
        model = self._model(tau2=0.4)
        layout = self._layout()
        ens = model.draw(RngStream(8), layout, 3000)
        dev = ens.realizations - np.sqrt(0.6) * ens.estimate[None]
        # the deviation has covariance tau2 * R per user
        r0 = model.correlation(0)
        cov = np.einsum("mi,mj->ij", dev[:, :, 0], dev[:, :, 0].conj()) / 3000
        np.testing.assert_allclose(cov, 0.4 * r0, atol=0.08)

    def test_correlation_cached_read_only(self):
        # one quadrature per group and model, shared by every draw and the
        # fixed-direction search, so no caller may write into it
        model = self._model()
        r = model.correlation(1)
        assert model.correlation(1) is r
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 0.0
        for g, azimuth in enumerate(model.azimuths):
            np.testing.assert_array_equal(
                model.correlation(g),
                one_ring_correlation(6, 0.5, azimuth, np.pi / 8))

    def test_roots_cached_read_only(self):
        # every draw reads the root kept beside its group's correlation,
        # and the fixed-direction search the decomposition it is built from
        model = self._model()
        for g, (r, root, eig) in enumerate(model._correlations):
            assert r is model.correlation(g)
            assert eig is model.eigenbasis(g)
            assert not any(a.flags.writeable for a in (root, *eig))
            np.testing.assert_array_equal(root, psd_sqrt(r))
            for got, want in zip(eig, herm_eig(r)):
                np.testing.assert_array_equal(got, want)

    def test_one_decomposition_per_group(self, monkeypatch):
        # each group's root is taken from the decomposition the model keeps,
        # with the bits of a fresh psd_sqrt; the bench's ring, as in
        # configs/grouped_ring.cfg
        calls = []

        def counted(a, _real=channel.herm_eig):
            calls.append(a)
            return _real(a)

        monkeypatch.setattr(channel, "herm_eig", counted)
        model = OneRingModel(
            n_tx=16, azimuths=(-1.5707963, -0.5235988, 0.5235988, 1.5707963),
            spread=0.3926991, tau2=0.4)
        roots = [root for _, root, _ in model._correlations]
        assert len(calls) == model.n_groups == 4
        for g, root in enumerate(roots):
            np.testing.assert_array_equal(root, psd_sqrt(model.correlation(g)))

    def test_group_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._model().draw(RngStream(0), StreamLayout.hierarchical(6, 3, 3), 2)

    def test_tau2_range_enforced(self):
        with pytest.raises(ValueError):
            OneRingModel(n_tx=4, azimuths=(0.0,), spread=0.1, tau2=1.5)

    # a NaN azimuth used to fail only when drawing, with a LinAlgError from
    # the square root of an all-NaN correlation
    @pytest.mark.parametrize("field, value", [
        ("azimuths", (0.2, np.nan)), ("azimuths", (-np.inf, 0.2)),
        ("spacing", np.nan), ("spacing", np.inf), ("spacing", 0.0)])
    def test_nonfinite_settings_named(self, field, value):
        kw = dict(n_tx=4, azimuths=(-0.2, 0.2), spread=0.1, tau2=0.3)
        OneRingModel(**kw)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            OneRingModel(**kw)

    def test_draw_pair_shares_estimate(self):
        a, b = self._model().draw_pair(RngStream(5), self._layout(), 6, 4)
        np.testing.assert_array_equal(a.estimate, b.estimate)
        assert b.realizations.shape[0] == 4


class TestSceneBuilders:
    def test_iid_scene(self):
        layout, ens = draw_iid_scene(seed=3, n_tx=4, n_users=3, p_t=10.0,
                                     n_draws=6)
        assert layout == StreamLayout.one_layer(4, 3)
        assert ens.realizations.shape == (6, 4, 3)

    def test_one_ring_scene(self):
        layout, ens = draw_one_ring_scene(seed=3, n_tx=6, n_users=4,
                                          n_groups=2, azimuths=(-0.5, 0.5),
                                          spread=0.3, tau2=0.2, n_draws=5)
        assert layout == StreamLayout.hierarchical(6, 4, 2)
        assert ens.realizations.shape == (5, 6, 4)


def _iid_reference(model, seed, p_t, sizes):
    """The i.i.d. model's batches, in drawing order, summed C-ordered."""
    rng = RngStream(seed)
    sig_e2 = model.error_var(p_t)
    est = gaussian_matrix(rng, model.n_tx, model.n_users, 1.0) \
        * np.sqrt(1.0 - sig_e2)
    out = []
    for n in sizes:
        shape = (n, model.n_tx, model.n_users)
        out.append(est[None] + np.sqrt(sig_e2 / 2.0) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    return out


def _ring_reference(model, layout, seed, n_draws, n_eval):
    """The one-ring model's two batches, mixed user by user into one
    C-ordered stack."""
    rng = RngStream(seed)
    keep, tau = np.sqrt(1.0 - model.tau2), np.sqrt(model.tau2)
    real = np.empty((n_draws + n_eval, model.n_tx, layout.n_users), complex)
    for k in range(layout.n_users):
        root = model._correlations[layout.group_of[k]][1]
        ghat = gaussian_matrix(rng, model.n_tx, 1, 1.0)[:, 0]
        shape = (n_draws + n_eval, model.n_tx)
        w = np.sqrt(0.5) * (rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
        real[:, :, k] = (keep * ghat[None, :] + tau * w) @ root.T
    return real[:n_draws], real[n_draws:]


class TestStackLayout:
    """Both models draw C-ordered stacks with the values of the C-ordered
    references, and an ensemble keeps any complex stack it is given."""

    def test_iid_draws(self):
        model = IidCsitModel(n_tx=4, n_users=3)
        ens = model.draw(RngStream(8), 20.0, 9)
        a, b = model.draw_pair(RngStream(8), 20.0, 9, 5)
        ref, ref_b = _iid_reference(model, 8, 20.0, (9, 5))
        for got, want in ((ens, ref), (a, ref), (b, ref_b)):
            assert got.realizations.flags.c_contiguous
            np.testing.assert_array_equal(got.realizations, want)

    def test_one_ring_draws(self):
        model = OneRingModel(n_tx=6, azimuths=(-0.8, 0.8), spread=np.pi / 8,
                             tau2=0.4)
        layout = StreamLayout.hierarchical(6, 4, 2)
        ens = model.draw(RngStream(9), layout, 7)
        a, b = model.draw_pair(RngStream(9), layout, 7, 5)
        ref, _ = _ring_reference(model, layout, 9, 7, 0)
        ref_a, ref_b = _ring_reference(model, layout, 9, 7, 5)
        for got, want in ((ens, ref), (a, ref_a), (b, ref_b)):
            assert got.realizations.flags.c_contiguous
            np.testing.assert_array_equal(got.realizations, want)

    @pytest.mark.parametrize("order", ["C", "F", "user-major"])
    def test_complex_input_kept(self, order):
        rng = RngStream(4)
        stack = rng.standard_normal((5, 3, 2)) \
            + 1j * rng.standard_normal((5, 3, 2))
        stack = {"C": stack, "F": np.asfortranarray(stack),
                 "user-major": np.ascontiguousarray(
                     stack.transpose(0, 2, 1)).transpose(0, 2, 1)}[order]
        ens = ChannelEnsemble(estimate=stack[0], realizations=stack)
        assert ens.realizations is stack
