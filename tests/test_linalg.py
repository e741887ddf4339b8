import numpy as np
import pytest

from rsmeta.baselines import _fixed_directions
from rsmeta.channel import OneRingModel
from rsmeta.gradients import _columns, precoder_to_view
from rsmeta.linalg import (ProjectionWorkspace, RngStream, channel_project,
                           gaussian_matrix, herm_eig, svd_dominant)
from rsmeta.metaopt import init_precoder

from scenes import draw_iid_scene, draw_one_ring_scene


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(123).standard_normal(50)
        b = RngStream(123).standard_normal(50)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1).standard_normal(50)
        b = RngStream(2).standard_normal(50)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_child_is_reproducible_and_independent(self):
        r = RngStream(77)
        r.standard_normal(1000)  # consuming the parent must not matter
        c1 = r.child(0, 5)
        c2 = RngStream(77).child(0, 5)
        assert c1.seed == c2.seed
        np.testing.assert_array_equal(c1.standard_normal(20),
                                      c2.standard_normal(20))
        assert r.child(0, 5).seed != r.child(0, 6).seed

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)


class TestGaussianMatrix:
    def test_shape_and_dtype(self):
        m = gaussian_matrix(RngStream(3), 4, 6, 2.0)
        assert m.shape == (4, 6)
        assert m.dtype == complex

    def test_variance_split_between_parts(self):
        m = gaussian_matrix(RngStream(9), 200, 200, 3.0)
        # total variance 3, half in each part
        assert np.var(m.real) == pytest.approx(1.5, rel=0.05)
        assert np.var(m.imag) == pytest.approx(1.5, rel=0.05)
        assert np.mean(np.abs(m) ** 2) == pytest.approx(3.0, rel=0.05)

    def test_zero_variance_gives_zeros(self):
        m = gaussian_matrix(RngStream(1), 3, 3, 0.0)
        np.testing.assert_array_equal(m, np.zeros((3, 3)))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_matrix(RngStream(1), 2, 2, -0.1)


class TestHermEig:
    def test_known_real_symmetric(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1
        w, v = herm_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(v[:, 0]),
                                   np.full(2, 1 / np.sqrt(2)), atol=1e-12)

    def test_known_complex_hermitian(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        w, _ = herm_eig(a)
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)

    def test_reconstruction_on_random_matrices(self):
        rng = RngStream(42)
        for n in (2, 5, 9):
            b = gaussian_matrix(rng, n, n, 1.0)
            a = b + b.conj().T
            w, v = herm_eig(a)
            err = np.linalg.norm(a - (v * w[None, :]) @ v.conj().T)
            assert err <= 1e-8 * np.linalg.norm(a)
            assert np.all(np.diff(w) <= 1e-12)  # descending
            np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            herm_eig(np.zeros((2, 3)))


def _power_iteration_dominant(a, iters=2000, seed=0):
    """Independent route to the dominant left singular vector."""
    gram = a @ a.conj().T
    v = gaussian_matrix(RngStream(seed), a.shape[0], 1, 1.0)[:, 0]
    for _ in range(iters):
        v = gram @ v
        v = v / np.linalg.norm(v)
    return v


class TestSvdDominant:
    def test_unit_norm(self):
        a = gaussian_matrix(RngStream(5), 6, 4, 1.0)
        u = svd_dominant(a)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_matches_power_iteration(self):
        rng = RngStream(8)
        for _ in range(5):
            a = gaussian_matrix(rng, 5, 7, 1.0)
            u = svd_dominant(a)
            ref = _power_iteration_dominant(a)
            # agreement up to a phase
            assert abs(np.vdot(ref, u)) >= 1.0 - 1e-8

    def test_rank_one_recovers_direction(self):
        rng = RngStream(4)
        x = gaussian_matrix(rng, 5, 1, 1.0)[:, 0]
        y = gaussian_matrix(rng, 3, 1, 1.0)[:, 0]
        u = svd_dominant(np.outer(x, y.conj()))
        assert abs(np.vdot(x / np.linalg.norm(x), u)) == pytest.approx(
            1.0, abs=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            svd_dominant(np.zeros((3, 3)))


class TestChannelProject:
    """The real, stream-major projection against the complex one written
    out as an einsum over the conjugate channels."""

    @staticmethod
    def _inputs(hierarchical):
        """The channel stack and the three kinds of precoder matrix the
        package projects: the column-major matrix a view's memory is, a
        C-ordered copy of it, and the C-ordered matrix that the start
        point or the fixed search builds."""
        if hierarchical:
            lay, ens = draw_one_ring_scene(
                5, 8, 4, 2, azimuths=(-0.6, 0.6), spread=0.4, tau2=0.3,
                n_draws=40)
            full = _fixed_directions(lay, ens.estimate, OneRingModel(
                n_tx=8, azimuths=(-0.6, 0.6), spread=0.4, tau2=0.3),
                10.0)
        else:
            lay, ens = draw_iid_scene(6, 4, 3, 10.0, n_draws=40)
            full = init_precoder(lay, ens.estimate, 10.0).matrix
        mat = gaussian_matrix(RngStream(7), lay.n_tx, lay.n_streams, 1.0)
        mat += full
        cols = _columns(precoder_to_view(mat, lay), lay)
        assert not cols.flags.c_contiguous
        return ens.realizations, (cols, np.ascontiguousarray(cols), full)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_matches_complex_einsum(self, hierarchical):
        h, mats = self._inputs(hierarchical)
        for p in mats:
            ref_z = np.einsum("mik,is->mks", h.conj(), p)
            ref = np.abs(ref_z) ** 2
            powers, z, _ = channel_project(h, p)
            assert powers.T.shape == ref.shape and powers.flags.c_contiguous
            np.testing.assert_allclose(powers.T, ref, rtol=1e-13,
                                       atol=1e-13 * np.max(ref))
            got_z = (z[0] + 1j * z[1]).T
            np.testing.assert_allclose(got_z, ref_z, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(ref_z)))

    def test_channel_copy_takes_the_stack_bytes(self):
        h, mats = self._inputs(True)
        ws = ProjectionWorkspace(h, mats[0].shape[1])
        assert ws.hr.dtype == np.float64 and ws.hr.nbytes == h.nbytes
        assert not np.shares_memory(ws.hr, h)
        assert channel_project(h, mats[0], ws)[2] is ws
