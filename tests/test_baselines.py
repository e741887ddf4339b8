import numpy as np
import pytest

from rsmeta.adam import AdamState, adam_step
from rsmeta import baselines, metaopt
from rsmeta.baselines import (PowerSplit, _fixed_directions,
                              run_direct_adam, run_fixed_direction)
from rsmeta.channel import IidCsitModel, OneRingModel
from rsmeta.gradients import (grad_wrt_precoder, loss_from_view,
                              precoder_to_view, project_view,
                              view_to_precoder)
from rsmeta.layout import StreamLayout
from rsmeta.linalg import RngStream, herm_eig
from rsmeta.metaopt import init_precoder
from rsmeta.rates import saf_report

from fixed_loop import loop_fixed_direction, power_split_grid, stream_powers


class TestPowerSplit:
    def test_private_is_remainder(self):
        s = PowerSplit(common=0.5, group=0.3)
        assert s.private == pytest.approx(0.2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSplit(common=-0.1, group=0.0)
        with pytest.raises(ValueError):
            PowerSplit(common=0.7, group=0.4)

    def test_boundary_remainder_never_negative(self):
        # 0.2 + 0.8 lands a hair above 1.0 in binary; the remainder must
        # clamp to zero, not go negative and poison a square root later
        s = PowerSplit(common=0.2, group=0.8)
        assert s.private == 0.0
        for s in power_split_grid(0.05, with_group=True):
            assert s.private >= 0.0


class TestPowerSplitGrid:
    def test_counts_frozen(self):
        # triangular lattice: (21 * 22) / 2 points with groups, one row
        # of 21 without
        assert len(power_split_grid(0.05, with_group=True)) == 231
        assert len(power_split_grid(0.05, with_group=False)) == 21
        assert len(power_split_grid(0.25, with_group=True)) == 15

    def test_canonical_order(self):
        grid = power_split_grid(0.25, with_group=True)
        pairs = [(s.common, s.group) for s in grid]
        assert pairs[0] == (0.0, 0.0)
        assert pairs[-1] == (1.0, 0.0)
        assert pairs == sorted(pairs)

    def test_lattice_exact(self):
        grid = power_split_grid(0.05, with_group=False)
        assert [s.common for s in grid] == [i / 20 for i in range(21)]
        assert all(s.group == 0.0 for s in grid)

    def test_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            power_split_grid(0.3)

    @pytest.mark.parametrize("step", [1e-300, 5e-324])
    def test_step_beyond_any_index_rejected(self, step):
        # 1e-300 divides 1 into more splits than an np.intp counts, and
        # 1 / 5e-324 overflows; neither may reach an allocation
        with pytest.raises(ValueError, match="step"):
            baselines.lattice_size(step)


def _iid_scene(seed=400, n_tx=3, n_users=2, n_draws=10, p_t=10.0):
    lay = StreamLayout.one_layer(n_tx, n_users)
    model = IidCsitModel(n_tx=n_tx, n_users=n_users, error_power=0.2)
    return lay, model.draw(RngStream(seed), p_t, n_draws), p_t


class TestDirectAdam:
    def test_improves_and_matches_report(self):
        lay, ens, p_t = _iid_scene()
        res = run_direct_adam(lay, ens, p_t, n_iters=80, lr=0.05)
        assert res.best_asr >= res.start_asr
        assert res.best_asr > res.start_asr * 1.001
        rep = saf_report(res.best_precoder, ens, lay)
        assert rep.avg_sum_rate == pytest.approx(res.best_asr, rel=1e-12)
        assert res.best_precoder.total_power <= p_t * (1 + 1e-9)
        assert res.params is None

    def test_reproducible_and_history(self):
        lay, ens, p_t = _iid_scene(seed=401)
        a = run_direct_adam(lay, ens, p_t, n_iters=30, lr=0.05)
        b = run_direct_adam(lay, ens, p_t, n_iters=30, lr=0.05)
        np.testing.assert_array_equal(a.asr_history, b.asr_history)
        np.testing.assert_array_equal(a.best_precoder.matrix,
                                      b.best_precoder.matrix)
        assert a.asr_history.shape == (31,)
        assert a.best_asr == pytest.approx(np.max(a.asr_history), rel=1e-12)

    def test_bad_iters(self):
        lay, ens, p_t = _iid_scene(seed=403)
        with pytest.raises(ValueError):
            run_direct_adam(lay, ens, p_t, n_iters=0)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_equals_one_shot_reference_loop(self, hierarchical):
        # the run reuses one projection workspace; the reference projects
        # afresh on every call, so any state left in the workspace shows.
        # 8 users put 8 private columns into the gathered sums
        self._replay(hierarchical, 0.05)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_best_survives_later_steps(self, hierarchical):
        # at a large rate the best view comes before the last, and the run
        # steps its one view in place after it: a record that kept the
        # view rather than a copy would return the last one
        res = self._replay(hierarchical, 1.0)
        assert np.argmax(res.asr_history) < len(res.asr_history) - 1

    @staticmethod
    def _replay(hierarchical, lr, n_iters=40):
        """The run against a loop of workspace-free gradient calls, each
        on the precoder of the loop's own view, bit for bit."""
        if hierarchical:
            lay = StreamLayout.hierarchical(6, 8, 2)
        else:
            lay = StreamLayout.one_layer(4, 8)
        model = IidCsitModel(n_tx=lay.n_tx, n_users=lay.n_users,
                             error_power=0.2)
        p_t = 10.0
        ens = model.draw(RngStream(404), p_t, 24)
        res = run_direct_adam(lay, ens, p_t, n_iters=n_iters, lr=lr)

        p0 = init_precoder(lay, ens.estimate, p_t)
        v = precoder_to_view(p0, lay)
        loss, g = grad_wrt_precoder(p0, ens, lay)
        history = [-loss]
        best = v.copy()
        opt = AdamState(v.size)
        for _ in range(n_iters):
            adam_step(opt, g, lr, v)
            v = project_view(v, p_t)
            loss, g = grad_wrt_precoder(view_to_precoder(v, lay), ens, lay)
            history.append(-loss)
            if history[-1] > max(history[:-1]):
                best = v.copy()
        np.testing.assert_array_equal(res.asr_history, history)
        np.testing.assert_array_equal(res.best_precoder.matrix,
                                      view_to_precoder(best, lay))
        assert res.best_asr == max(history)
        return res

    @pytest.mark.parametrize("lr", [float("inf"), float("nan"), 0.0, -1.0])
    def test_bad_lr_rejected_before_any_work(self, monkeypatch, lr):
        # Adam no longer checks the rate on every step, so the run checks
        # it once, in the config check's words, before its first gradient
        # the start point's gradient is metaopt's, the steps' baselines'
        calls = []
        for module in (baselines, metaopt):
            monkeypatch.setattr(module, "grad_wrt_precoder",
                                lambda *a, **k: calls.append(a))
        lay, ens, p_t = _iid_scene(seed=406)
        with pytest.raises(ValueError, match="lr must be a number > 0"):
            run_direct_adam(lay, ens, p_t, n_iters=5, lr=lr)
        assert calls == []

    @pytest.mark.parametrize("n_iters", [2.5, 3.0, True, 0])
    def test_bad_iters_rejected_before_any_work(self, monkeypatch, n_iters):
        # a fractional, float or boolean count, or none, is rejected before
        # the start point's gradient, not by range() after it
        calls = []
        for module in (baselines, metaopt):
            monkeypatch.setattr(module, "grad_wrt_precoder",
                                lambda *a, **k: calls.append(a))
        lay, ens, p_t = _iid_scene(seed=407)
        with pytest.raises(ValueError,
                           match="n_iters must be an integer >= 1"):
            run_direct_adam(lay, ens, p_t, n_iters=n_iters)
        assert calls == []

    def test_numpy_integer_iters_run(self):
        lay, ens, p_t = _iid_scene(seed=407)
        res = run_direct_adam(lay, ens, p_t, n_iters=np.int64(3))
        assert res.n_iters == 3 and res.asr_history.shape == (4,)


def _ring_scene(seed=500, n_tx=8, n_users=4, n_groups=2, n_draws=12,
                p_t=10.0):
    lay = StreamLayout.hierarchical(n_tx, n_users, n_groups)
    model = OneRingModel(n_tx=n_tx, azimuths=(-np.pi / 4, np.pi / 4),
                         spread=np.pi / 6, tau2=0.3)
    return lay, model.draw(RngStream(seed), lay, n_draws), model, p_t


class TestFixedDirection:
    def test_result_consistency(self):
        lay, ens, model, p_t = _ring_scene()
        res = run_fixed_direction(lay, ens, model, p_t, step=0.1)
        rep = saf_report(res.best_precoder, ens, lay)
        assert rep.avg_sum_rate == pytest.approx(res.best_asr, rel=1e-12)
        assert res.n_evaluated == len(power_split_grid(0.1))
        assert res.best_precoder.total_power <= p_t * (1 + 1e-9)

    def test_column_powers_match_split(self):
        lay, ens, model, p_t = _ring_scene(seed=501)
        res = run_fixed_direction(lay, ens, model, p_t, step=0.1)
        s = res.best_split
        pm = res.best_precoder
        assert pm.stream_power(0) == pytest.approx(s.common * p_t, abs=1e-10)
        for g in range(lay.n_groups):
            assert pm.stream_power(lay.col_group(g)) == pytest.approx(
                s.group * p_t / lay.n_groups, abs=1e-10)
        for k in range(lay.n_users):
            assert pm.stream_power(lay.col_private(k)) == pytest.approx(
                s.private * p_t / lay.n_users, abs=1e-10)

    def test_picks_brute_force_saf_split(self, monkeypatch):
        # score every lattice split on the reference rate code, with the
        # directions the search projects, and take the first maximizer
        seen = []

        def spy(*args):
            seen.append(_fixed_directions(*args))
            return seen[-1]

        monkeypatch.setattr(baselines, "_fixed_directions", spy)
        lay, ens, model, p_t = _ring_scene(seed=504, n_draws=40)
        res = run_fixed_direction(lay, ens, model, p_t, step=0.05)
        dirs, = seen
        rates = [saf_report(dirs * np.sqrt(stream_powers(s, lay, p_t)),
                            ens, lay).avg_sum_rate
                 for s in power_split_grid(0.05)]
        assert res.best_split == power_split_grid(0.05)[np.argmax(rates)]
        assert res.best_asr == pytest.approx(max(rates), rel=1e-13)

    @pytest.mark.parametrize("kind, seed, p_t", [
        ("ring", 11, 10.0), ("ring", 12, 10.0 ** 2.8),
        ("uneven", 13, 10.0), ("uneven", 14, 10.0 ** 2.8)])
    def test_picks_brute_force_saf_split_at_bench_shapes(
            self, monkeypatch, kind, seed, p_t):
        # the same check on the benchmark's ring shape and the uneven
        # layout, whose sums run over 4 group and 8 private columns
        make = _bench_ring_scene if kind == "ring" else _uneven_scene
        lay, ens, model, p_t = make(seed, p_t)
        seen = []

        def spy(*args):
            seen.append(_fixed_directions(*args))
            return seen[-1]

        monkeypatch.setattr(baselines, "_fixed_directions", spy)
        res = run_fixed_direction(lay, ens, model, p_t, step=0.1)
        dirs, = seen
        grid = power_split_grid(0.1)
        rates = [saf_report(dirs * np.sqrt(stream_powers(s, lay, p_t)),
                            ens, lay).avg_sum_rate for s in grid]
        assert res.best_split == grid[np.argmax(rates)]
        assert res.best_asr == pytest.approx(max(rates), rel=1e-13)

    def test_beats_no_search_split(self):
        # the searched split can never do worse than any single grid point
        lay, ens, model, p_t = _ring_scene(seed=502)
        res = run_fixed_direction(lay, ens, model, p_t, step=0.2)
        finer = run_fixed_direction(lay, ens, model, p_t, step=0.1)
        assert finer.best_asr >= res.best_asr - 1e-12

    def test_reproducible(self):
        lay, ens, model, p_t = _ring_scene(seed=503)
        a = run_fixed_direction(lay, ens, model, p_t, step=0.2)
        b = run_fixed_direction(lay, ens, model, p_t, step=0.2)
        np.testing.assert_array_equal(a.best_precoder.matrix,
                                      b.best_precoder.matrix)
        assert a.best_asr == b.best_asr

    def test_default_rank(self):
        # sixteen antennas in two groups take rank ceil(16 / 4) = 4: each
        # private column lies in the span of its group's top four
        # eigenvectors, and not in that of the top three
        lay = StreamLayout.hierarchical(16, 4, 2)
        model = OneRingModel(n_tx=16, azimuths=(-np.pi / 4, np.pi / 4),
                             spread=np.pi / 6, tau2=0.3)
        ens = model.draw(RngStream(504), lay, 6)
        dirs = _fixed_directions(lay, ens.estimate, model, 10.0)
        for k in range(lay.n_users):
            vecs = model.eigenbasis(lay.group_of[k])[1]
            c = np.abs(vecs.conj().T @ dirs[:, lay.col_private(k)])
            assert np.linalg.norm(c[4:]) < 1e-12
            assert c[3] > 1e-2

    def test_rank_one_runs(self):
        # four antennas in two groups take rank ceil(4 / 4) = 1: each
        # private column is its group's top eigenvector, up to a phase
        lay, ens, model, p_t = _ring_scene(seed=505, n_tx=4)
        res = run_fixed_direction(lay, ens, model, p_t, step=0.2)
        assert np.isfinite(res.best_asr)
        dirs = _fixed_directions(lay, ens.estimate, model, p_t)
        for k in range(lay.n_users):
            top = model.eigenbasis(lay.group_of[k])[1][:, 0]
            assert abs(np.vdot(top, dirs[:, lay.col_private(k)])) == \
                pytest.approx(1.0, abs=1e-12)

    def test_directions_scale_free_in_power(self):
        # the zero-forcing columns shrink with the power, down to norms
        # near 1e-31 at 1e-30; each normalized column keeps its direction
        lay = StreamLayout.hierarchical(8, 4, 2)
        model = OneRingModel(n_tx=8, azimuths=(-0.5, 0.5), spread=np.pi / 6)
        est = model.draw(RngStream(508), lay, 1).estimate
        tiny = _fixed_directions(lay, est, model, 1e-30)
        np.testing.assert_allclose(np.linalg.norm(tiny, axis=0), 1.0,
                                   rtol=1e-12)
        big = _fixed_directions(lay, est, model, 1e-3)
        assert np.max(np.abs(tiny - big)) < 1e-2

    def test_directions_unit_at_extreme_power(self):
        # at 1e-300 the zero-forcing columns have norms near 1e-301, whose
        # squares underflow; at 1e300 the regularization is 4e-300. Every
        # column stays finite and of unit norm at both
        lay = StreamLayout.hierarchical(8, 4, 2)
        model = OneRingModel(n_tx=8, azimuths=(-0.5, 0.5), spread=np.pi / 6)
        est = model.draw(RngStream(508), lay, 1).estimate
        for p_t in (1e-300, 1e300):
            dirs = _fixed_directions(lay, est, model, p_t)
            assert np.all(np.isfinite(dirs))
            np.testing.assert_allclose(np.linalg.norm(dirs, axis=0), 1.0,
                                       rtol=1e-12)

    def test_search_reuses_the_model_eigenbasis(self, monkeypatch):
        # once the model has drawn, its groups' decompositions are kept on
        # it: the search makes none, counted at np.linalg.eigh, which every
        # herm_eig call looks up when it runs, and its directions have the
        # bits of ones built from fresh herm_eig calls
        lay, ens, model, p_t = _bench_ring_scene(9, 10.0)
        calls = []

        def counted(a, *args, _real=np.linalg.eigh, **kwargs):
            calls.append(a)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        res = run_fixed_direction(lay, ens, model, p_t)
        cached = _fixed_directions(lay, ens.estimate, model, p_t)
        assert calls == []
        monkeypatch.setattr(OneRingModel, "eigenbasis",
                            lambda self, g: herm_eig(self.correlation(g)))
        fresh = _fixed_directions(lay, ens.estimate, model, p_t)
        assert len(calls) == lay.n_groups
        np.testing.assert_array_equal(fresh, cached)
        best = run_fixed_direction(lay, ens, model, p_t)
        np.testing.assert_array_equal(best.best_precoder.matrix,
                                      res.best_precoder.matrix)

    def test_user_outside_rank_rejected(self):
        # user 0's estimate lies in the span of its group's eigenvectors
        # beyond the top two, eight antennas in two groups taking rank
        # ceil(8 / 4) = 2, so its compressed estimate is rounding
        # next to the other users'; at high power the solve would scale
        # that rounding up to their size, so it is rejected at every power
        lay = StreamLayout.hierarchical(8, 4, 2)
        model = OneRingModel(n_tx=8, azimuths=(-0.5, 0.5), spread=np.pi / 6)
        est = model.draw(RngStream(509), lay, 1).estimate.copy()
        vecs = herm_eig(model.correlation(lay.group_of[0]))[1]
        est[:, 0] = vecs[:, 2:] @ np.arange(1.0, 7.0)
        for p_t in (1e-30, 1.0, 10.0, 1e3, 1e6):
            with pytest.raises(ValueError, match="degenerated for user 0"):
                _fixed_directions(lay, est, model, p_t)

    def test_one_layer_rejected(self):
        lay, ens, p_t = _iid_scene(seed=506)
        model = OneRingModel(n_tx=3, azimuths=(0.0,), spread=np.pi / 6)
        with pytest.raises(ValueError, match="hierarchical"):
            run_fixed_direction(lay, ens, model, p_t)

    def test_group_count_mismatch_rejected(self):
        lay = StreamLayout.hierarchical(8, 4, 2)
        good = OneRingModel(n_tx=8, azimuths=(-0.5, 0.5), spread=np.pi / 6)
        ens = good.draw(RngStream(507), lay, 4)
        lone = OneRingModel(n_tx=8, azimuths=(0.0,), spread=np.pi / 6)
        with pytest.raises(ValueError):
            run_fixed_direction(lay, ens, lone, 10.0)


# the benchmark's ring shape: 16 antennas, 8 users on 4 rings, 200 draws
_RING_AZIMUTHS = (-np.pi / 2, -np.pi / 6, np.pi / 6, np.pi / 2)


def _bench_ring_scene(seed, p_t):
    lay = StreamLayout.hierarchical(16, 8, 4)
    model = OneRingModel(n_tx=16, azimuths=_RING_AZIMUTHS, spread=np.pi / 8,
                         tau2=0.4)
    return lay, model.draw(RngStream(seed), lay, 200), model, p_t


def _uneven_scene(seed, p_t):
    # five users on two rings, members interleaved and unequal in number
    lay = StreamLayout.hierarchical(10, 5, 2, group_of=(1, 0, 0, 1, 0))
    model = OneRingModel(n_tx=10, azimuths=(-0.6, 0.5), spread=np.pi / 7,
                         tau2=0.3)
    return lay, model.draw(RngStream(seed), lay, 400), model, p_t


def _chunk(lay, ens):
    """Splits the search scores per batched call on this scene: six
    (n_users, n_draws) float64 rows of terms per split."""
    split_bytes = 8 * 6 * lay.n_users * ens.n_draws
    return max(1, baselines._CHUNK_BYTES // split_bytes)


class TestLatticeArrays:
    """The search's array lattice is, row by row and bit for bit,
    ``fixed_loop.stream_powers`` of ``power_split_grid``'s splits: its
    common, group and private powers are every such column's."""

    @pytest.mark.parametrize("layout", [
        StreamLayout.hierarchical(16, 8, 4),
        StreamLayout.hierarchical(10, 5, 2, group_of=(1, 0, 0, 1, 0))])
    @pytest.mark.parametrize("step", [0.05, 0.1, 0.25])
    def test_rows_match_stream_powers(self, layout, step):
        p_t = 10.0 ** 1.4
        n = baselines.lattice_size(step)
        i, j, w = baselines._lattice_powers(n, layout, p_t)
        grid = power_split_grid(step)
        assert w.shape == (len(grid), 3)
        layer = np.repeat([0, 1, 2], (1, layout.n_groups, layout.n_users))
        for row, a, b, split in zip(w, i, j, grid):
            assert PowerSplit(common=int(a) / n, group=int(b) / n) == split
            np.testing.assert_array_equal(
                row[layer], stream_powers(split, layout, p_t))


def _longdouble_rates(lay, ens, dirs, p_t, grid):
    """Every split's averaged sum rate in ``np.longdouble``, with none of
    the package's rate code: the directions' gains |h^H d|^2 are projected
    in extended precision, and each layer's denominator at each user is
    the sum of every interfering column's power times its gain, plus the
    unit noise; nothing is subtracted."""
    ld = np.longdouble
    h = ens.realizations.conj().astype(np.clongdouble)
    z = np.einsum("mnk,ns->skm", h, dirs.astype(np.clongdouble))
    gain = z.real ** 2 + z.imag ** 2                    # (n_streams, K, M)
    users = np.arange(lay.n_users)
    own_grp = [lay.col_group(g) for g in lay.group_of]
    own_prv = [lay.col_private(k) for k in users]
    # each user's own column and interfering columns per layer, after
    # decoding the layers before it
    sig = [np.zeros(lay.n_users, int), own_grp, own_prv]
    hear = np.ones((3, lay.n_users, lay.n_streams), bool)
    hear[:, :, lay.col_common] = False
    hear[1:, users, own_grp] = False
    hear[2, users, own_prv] = False
    pw = np.array([stream_powers(s, lay, p_t) for s in grid], dtype=ld)
    rates = np.empty((len(grid), 3, lay.n_users), dtype=ld)
    for layer in range(3):
        num = pw[:, sig[layer], None] * gain[sig[layer], users]
        den = np.einsum("ps,ks,skm->pkm", pw, hear[layer].astype(ld), gain)
        den += ld(1)
        rates[:, layer] = np.mean(np.log1p(num / den), axis=-1) / np.log(ld(2))
    asr = rates[:, 0].min(axis=-1) + rates[:, 2].sum(axis=-1)
    for g in range(lay.n_groups):
        asr += rates[:, 1, list(lay.group_members(g))].min(axis=-1)
    return asr


class TestSearchMatchesLongDouble:
    """Every lattice split's rate, as the search scores it, matches an
    extended-precision reference that shares no rate code with the
    package, and the chosen split is that reference's maximum."""

    @pytest.mark.parametrize("kind, seed", [("ring", 21), ("uneven", 22)])
    @pytest.mark.parametrize("snr_db", [0.0, 35.0, 50.0])
    def test_every_split(self, monkeypatch, kind, seed, snr_db):
        make = _bench_ring_scene if kind == "ring" else _uneven_scene
        lay, ens, model, p_t = make(seed, 10.0 ** (snr_db / 10.0))
        real = baselines._asr_of_rates
        scored = []

        def spy(rates, layout):
            scored.append(real(rates, layout))
            return scored[-1]

        monkeypatch.setattr(baselines, "_asr_of_rates", spy)
        res = run_fixed_direction(lay, ens, model, p_t, step=0.05)
        grid = power_split_grid(0.05)
        dirs = _fixed_directions(lay, ens.estimate, model, p_t)
        want = _longdouble_rates(lay, ens, dirs, p_t, grid)
        # the whole lattice is scored in one call
        assert len(scored) == 1
        got = scored[0]
        assert len(got) == len(grid)
        np.testing.assert_allclose(got, want.astype(float), rtol=1e-13)
        chosen = want[grid.index(res.best_split)]
        assert (want.max() - chosen) / want.max() <= 1e-13


class TestTrainingRateMatchesLongDouble:
    """The training loss's rate, which the plain loss
    :func:`rsmeta.gradients.loss_from_view` negates bit for bit, at every
    lattice split's precoder matches the same extended-precision reference
    to a relative 1e-15: its denominators are summed up from the
    interference, so none of them cancels at high power."""

    @pytest.mark.parametrize("kind, seed", [("ring", 21), ("uneven", 22)])
    @pytest.mark.parametrize("snr_db", [0.0, 35.0, 50.0])
    def test_every_split(self, kind, seed, snr_db):
        make = _bench_ring_scene if kind == "ring" else _uneven_scene
        lay, ens, model, p_t = make(seed, 10.0 ** (snr_db / 10.0))
        grid = power_split_grid(0.05)
        dirs = _fixed_directions(lay, ens.estimate, model, p_t)
        got = []
        for split in grid:
            mat = dirs * np.sqrt(stream_powers(split, lay, p_t))
            got.append(-loss_from_view(precoder_to_view(mat, lay), ens, lay))
        want = _longdouble_rates(lay, ens, dirs, p_t, grid)
        np.testing.assert_allclose(got, want.astype(float), rtol=1e-15)


class TestBatchedSearchMatchesLoop:
    """The batched lattice search returns, bit for bit, what the per-split
    loop of ``fixed_loop`` returns."""

    STEPS = (0.05, 0.1, 0.2, 1.0)
    SCENES = [("ring", 1, 1.0), ("ring", 2, 10.0 ** 1.4), ("ring", 3, 1e3),
              ("uneven", 4, 10.0), ("uneven", 5, 1e3)]

    def test_steps_cover_partial_and_short_chunks(self):
        # at the ring shape the last chunk of some lattice is partial and
        # some lattice is smaller than one chunk
        lay, ens, _, _ = _bench_ring_scene(1, 1.0)
        chunk = _chunk(lay, ens)
        sizes = [len(power_split_grid(step)) for step in self.STEPS]
        assert any(n > chunk and n % chunk for n in sizes)
        assert any(n < chunk for n in sizes)

    @pytest.mark.parametrize("kind, seed, p_t", SCENES)
    def test_bitwise(self, kind, seed, p_t):
        make = _bench_ring_scene if kind == "ring" else _uneven_scene
        lay, ens, model, p_t = make(seed, p_t)
        for step in self.STEPS:
            res = run_fixed_direction(lay, ens, model, p_t, step=step)
            asr, split, mat, n_eval = loop_fixed_direction(lay, ens, model,
                                                           p_t, step=step)
            assert res.best_split == split
            assert res.best_asr == asr
            np.testing.assert_array_equal(res.best_precoder.matrix, mat)
            assert res.n_evaluated == n_eval == len(power_split_grid(step))

    @staticmethod
    def _poisoned(monkeypatch, poison):
        """Let ``poison(asr)`` overwrite the lattice's rates before the
        search sees them; returns the rates of each scoring call as the
        search saw them, one call per search."""
        real = baselines._asr_of_rates
        seen = []

        def lattice_asr(rates, layout):
            asr = real(rates, layout)
            poison(asr)
            seen.append(asr)
            return asr

        monkeypatch.setattr(baselines, "_asr_of_rates", lattice_asr)
        return seen

    def test_nan_split_never_wins(self, monkeypatch):
        lay, ens, model, p_t = _bench_ring_scene(7, 10.0)
        grid = power_split_grid(0.05)
        top = grid.index(run_fixed_direction(lay, ens, model, p_t).best_split)

        def poison(asr):
            asr[top] = np.nan

        seen = self._poisoned(monkeypatch, poison)
        res = run_fixed_direction(lay, ens, model, p_t)
        # the lattice spans more than one chunk, and its rates are scored
        # in one call
        assert len(grid) > _chunk(lay, ens) and len(seen) == 1
        scores = seen[0]
        assert np.isnan(scores[top])
        scores[top] = -np.inf
        assert res.best_split == grid[int(np.argmax(scores))]
        assert res.best_asr == np.max(scores)

    def test_all_nan_rejected(self, monkeypatch):
        lay, ens, model, p_t = _ring_scene(seed=508)
        self._poisoned(monkeypatch, lambda asr: asr.fill(np.nan))
        with pytest.raises(ValueError, match="NaN"):
            run_fixed_direction(lay, ens, model, p_t, step=0.2)
