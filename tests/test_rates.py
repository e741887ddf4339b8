import numpy as np
import pytest

from rsmeta.channel import ChannelEnsemble, IidCsitModel
from rsmeta.layout import StreamLayout
from rsmeta.linalg import RngStream, gaussian_matrix
from rsmeta.rates import PrecoderMatrix, saf_report, sinr_triplet


class TestStreamLayout:
    def test_one_layer_columns(self):
        lay = StreamLayout.one_layer(4, 3)
        assert lay.n_streams == 4          # common + 3 private
        assert lay.n_groups == 0 and lay.group_of == ()
        assert lay.col_common == 0
        with pytest.raises(IndexError):
            lay.col_group(0)
        assert [lay.col_private(k) for k in range(3)] == [1, 2, 3]

    def test_hierarchical_columns(self):
        lay = StreamLayout.hierarchical(4, 4, 2)
        assert lay.n_streams == 7
        assert lay.group_of == (0, 0, 1, 1)
        assert lay.group_members(1) == (2, 3)

    def test_index_arrays_compiled_once(self):
        lay = StreamLayout.hierarchical(4, 4, 2)
        twin = StreamLayout.hierarchical(4, 4, 2)
        hash_before = hash(lay)
        assert lay.layer_rows is lay.layer_rows
        np.testing.assert_array_equal(lay.user_rows, range(4))
        np.testing.assert_array_equal(lay.own_group_cols, [1, 1, 2, 2])
        assert [m.tolist() for m in lay.member_rows] == [[0, 1], [2, 3]]
        # column c of user k is row c * n_users + k
        np.testing.assert_array_equal(
            lay.layer_rows, [[0, 1, 2, 3], [4, 5, 10, 11],
                             [12, 17, 22, 27]])
        for arr in (lay.user_rows, lay.own_group_cols,
                    lay.layer_rows, *lay.member_rows):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 5
        # compiled values are not fields: equality and hash ignore them
        assert lay == twin and hash(lay) == hash(twin) == hash_before
        one = StreamLayout.one_layer(4, 3)
        assert one.member_rows == () and one.own_group_cols.size == 0
        np.testing.assert_array_equal(one.layer_rows,
                                      [[0, 1, 2], [3, 7, 11]])

    def test_uneven_split_needs_explicit_groups(self):
        with pytest.raises(ValueError):
            StreamLayout.hierarchical(4, 5, 2)
        lay = StreamLayout.hierarchical(4, 5, 2, group_of=(0, 0, 0, 1, 1))
        assert lay.group_members(0) == (0, 1, 2)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            StreamLayout.hierarchical(4, 4, 2, group_of=(0, 0, 0, 0))

    @pytest.mark.parametrize("build, name", [
        (lambda: StreamLayout.hierarchical(4, 4, 0), "n_groups"),
        (lambda: StreamLayout.hierarchical(4, 4, 2, group_of=(0, 0, 1, 1.5)),
         "group_of"),
        (lambda: StreamLayout(n_tx=4, n_users=4, n_groups=2,
                              group_of=(0, 0, 1, 1.5)), "group_of"),
        (lambda: StreamLayout(n_tx=4, n_users=4, n_groups=0,
                              group_of=(0, 0, 0, 0)), "group_of"),
    ], ids=["zero-groups", "fractional-group", "fractional-group-direct",
            "groups-without-a-group-count"])
    def test_bad_argument_named(self, build, name):
        with pytest.raises(ValueError, match=name):
            build()


class TestPrecoderMatrix:
    def test_shape_enforced(self):
        lay = StreamLayout.one_layer(2, 2)
        with pytest.raises(ValueError):
            PrecoderMatrix(matrix=np.zeros((2, 4), complex), layout=lay)

    def test_transposed_matrix_accepted(self):
        lay = StreamLayout.hierarchical(3, 2, 1)
        cols = gaussian_matrix(RngStream(32), lay.n_streams, 3, 1.0)
        pm = PrecoderMatrix(matrix=cols.T, layout=lay)
        np.testing.assert_array_equal(pm.matrix, cols.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_nonfinite_part_rejected_in_transposed_matrix(self, bad, part):
        lay = StreamLayout.hierarchical(3, 2, 1)
        mat = np.ones((lay.n_streams, 3), complex).T
        getattr(mat, part)[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PrecoderMatrix(matrix=mat, layout=lay)

    def test_power_helpers(self):
        lay = StreamLayout.hierarchical(2, 2, 1)
        mat = np.zeros((2, 4), complex)
        mat[:, 0] = [3.0, 4.0]
        pm = PrecoderMatrix(matrix=mat, layout=lay)
        assert pm.stream_power(0) == pytest.approx(25.0)
        assert pm.total_power == pytest.approx(25.0)


class TestSinrTriplet:
    def test_hand_instance(self):
        # single antenna, single user, unit entries everywhere, unit noise:
        # successive cancellation peels 1/3 -> 1/2 -> 1
        lay = StreamLayout.hierarchical(1, 1, 1)
        p = np.ones((1, 3), complex)
        h = np.ones((1, 1, 1), complex)
        sc, sg, sp = sinr_triplet(p, h, lay)
        np.testing.assert_allclose(sc, [[1.0 / 3.0]])
        np.testing.assert_allclose(sg, [[0.5]])
        np.testing.assert_allclose(sp, [[1.0]])

    def test_one_layer_hand_instance(self):
        lay = StreamLayout.one_layer(1, 1)
        p = np.array([[1.0, 1.0]], dtype=complex)
        h = np.ones((1, 1, 1), complex)
        sc, sg, sp = sinr_triplet(p, h, lay)
        np.testing.assert_allclose(sc, [[0.5]])
        np.testing.assert_allclose(sg, [[0.0]])
        np.testing.assert_allclose(sp, [[1.0]])

    def test_single_channel_rejected(self):
        # one channel is the one-draw stack h[None]
        lay = StreamLayout.hierarchical(1, 1, 1)
        with pytest.raises(ValueError, match="channel shape"):
            sinr_triplet(np.ones((1, 3), complex), np.ones((1, 1), complex),
                         lay)

    def test_precoder_shape_checked(self):
        # a one-layer precoder has no group column
        lay = StreamLayout.one_layer(1, 1)
        with pytest.raises(ValueError, match="precoder shape"):
            sinr_triplet(np.ones((1, 3), complex), np.ones((1, 1, 1), complex),
                         lay)

    def test_stack_matches_per_realization(self):
        lay = StreamLayout.hierarchical(3, 4, 2)
        rng = RngStream(6)
        p = gaussian_matrix(rng, 3, lay.n_streams, 1.0)
        h = gaussian_matrix(rng, 3, 4 * 5, 1.0).reshape(3, 4, 5)
        h = np.moveaxis(h, 2, 0)  # (5, 3, 4)
        sc, sg, sp = sinr_triplet(p, h, lay)
        for m in range(5):
            a, b, c = sinr_triplet(p, h[m:m + 1], lay)
            np.testing.assert_array_equal(sc[m:m + 1], a)
            np.testing.assert_array_equal(sg[m:m + 1], b)
            np.testing.assert_array_equal(sp[m:m + 1], c)


def _one_draw(h):
    """The one-draw ensemble of the single channel ``h``."""
    return ChannelEnsemble(estimate=h, realizations=h[None])


class TestSafReport:
    def test_hand_sum_rate_exact(self):
        lay = StreamLayout.hierarchical(1, 1, 1)
        rep = saf_report(np.ones((1, 3), complex),
                         _one_draw(np.ones((1, 1), complex)), lay)
        # log2(4/3) + log2(3/2) + log2(2) telescopes to exactly 2, and the
        # mean of one draw is that draw
        assert rep.avg_sum_rate == 2.0

    def test_one_layer_sum(self):
        lay = StreamLayout.one_layer(1, 1)
        rep = saf_report(np.array([[1.0, 1.0]], complex),
                         _one_draw(np.ones((1, 1), complex)), lay)
        assert rep.avg_sum_rate == pytest.approx(np.log2(1.5) + 1.0,
                                                 rel=1e-14)
        assert rep.group_rates.shape == (0,)

    def test_sum_rate_composition(self):
        lay = StreamLayout.hierarchical(3, 4, 2)
        rng = RngStream(9)
        p = gaussian_matrix(rng, 3, lay.n_streams, 1.0)
        h = gaussian_matrix(rng, 3, 4, 1.0)
        rep = saf_report(p, _one_draw(h), lay)
        assert rep.common_rate == np.min(rep.avg_per_user_common)
        for g in range(2):
            members = list(lay.group_members(g))
            assert rep.group_rates[g] == \
                np.min(rep.avg_per_user_group[members])
        assert rep.avg_sum_rate == pytest.approx(
            rep.common_rate + np.sum(rep.group_rates)
            + np.sum(rep.avg_per_user_private), rel=1e-14)

    def _scene(self, seed=12, n_draws=30):
        lay = StreamLayout.hierarchical(3, 4, 2)
        model = IidCsitModel(n_tx=3, n_users=4, error_power=0.3)
        ens = model.draw(RngStream(seed), 10.0, n_draws)
        p = gaussian_matrix(RngStream(seed + 1), 3, lay.n_streams, 1.0)
        return lay, ens, p

    def test_matches_direct_recomputation(self):
        lay, ens, p = self._scene()
        rep = saf_report(p, ens, lay)
        sc, sg, sp = sinr_triplet(p, ens.realizations, lay)
        rc = np.mean(np.log2(1 + sc), axis=0)
        rg = np.mean(np.log2(1 + sg), axis=0)
        rp = np.mean(np.log2(1 + sp), axis=0)
        np.testing.assert_allclose(rep.avg_per_user_common, rc, rtol=1e-12)
        want = (np.min(rc) + np.sum(rp)
                + sum(np.min(rg[list(lay.group_members(g))]) for g in (0, 1)))
        assert rep.avg_sum_rate == pytest.approx(want, rel=1e-12)

    def test_average_before_minimum(self):
        # min of the averaged rates is at least the average of per-draw
        # minima, strictly when the worst user changes across draws
        lay, ens, p = self._scene(seed=4, n_draws=50)
        rep = saf_report(p, ens, lay)
        per_draw_min = np.min(np.log2(
            1 + sinr_triplet(p, ens.realizations, lay)[0]), axis=1)
        assert rep.common_rate >= np.mean(per_draw_min) - 1e-12
        argmins = np.argmin(np.log2(
            1 + sinr_triplet(p, ens.realizations, lay)[0]), axis=1)
        if len(set(argmins.tolist())) > 1:
            assert rep.common_rate > np.mean(per_draw_min)

    def test_per_column_phase_invariance(self):
        lay, ens, p = self._scene(seed=5)
        base = saf_report(p, ens, lay).avg_sum_rate
        phases = np.exp(1j * RngStream(77).uniform(0, 2 * np.pi,
                                                   lay.n_streams))
        rotated = saf_report(p * phases[None, :], ens, lay).avg_sum_rate
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_accepts_precoder_matrix(self):
        lay, ens, p = self._scene(seed=3)
        pm = PrecoderMatrix(matrix=p, layout=lay)
        assert saf_report(pm, ens, lay).avg_sum_rate == \
            saf_report(p, ens, lay).avg_sum_rate
