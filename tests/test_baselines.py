import numpy as np
import pytest

from rsmeta.adam import AdamState, adam_step
from rsmeta import baselines
from rsmeta.baselines import (PowerSplit, _stream_powers, power_split_grid,
                              run_direct_adam, run_fixed_direction)
from rsmeta.channel import IidCsitModel, OneRingModel
from rsmeta.gradients import (grad_wrt_precoder, loss_from_view,
                              precoder_to_view, project_view,
                              view_to_precoder)
from rsmeta.layout import StreamLayout
from rsmeta.linalg import RngStream, channel_project
from rsmeta.metaopt import init_precoder
from rsmeta.rates import saf_report

from fixed_loop import loop_fixed_direction


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

    def test_smooth_variant_reports_hard_rates(self):
        lay, ens, p_t = _iid_scene(seed=402)
        res = run_direct_adam(lay, ens, p_t, n_iters=40, lr=0.05,
                              smooth_temp=0.3)
        rep = saf_report(res.best_precoder, ens, lay)
        assert rep.avg_sum_rate == pytest.approx(res.best_asr, rel=1e-12)

    def test_bad_iters(self):
        lay, ens, p_t = _iid_scene(seed=403)
        with pytest.raises(ValueError):
            run_direct_adam(lay, ens, p_t, n_iters=0)

    @pytest.mark.parametrize("smooth_temp", [0.0, -0.3])
    def test_nonpositive_smooth_temp_rejected(self, smooth_temp):
        # 0.0 would train on the hard minimum while still paying for the
        # smoothed rescoring
        lay, ens, p_t = _iid_scene(seed=406)
        with pytest.raises(ValueError, match="smooth_temp"):
            run_direct_adam(lay, ens, p_t, n_iters=2, smooth_temp=smooth_temp)

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("smooth_temp", [None, 0.3])
    def test_equals_one_shot_reference_loop(self, hierarchical, smooth_temp):
        # the run reuses one projection workspace; the reference projects
        # afresh on every call, so any state left in the workspace shows.
        # 8 users put 8 private columns into the gathered sums
        if hierarchical:
            lay = StreamLayout.hierarchical(6, 8, 2)
        else:
            lay = StreamLayout.one_layer(4, 8)
        model = IidCsitModel(n_tx=lay.n_tx, n_users=lay.n_users,
                             error_power=0.2)
        p_t = 10.0
        ens = model.draw(RngStream(404), p_t, 24)
        res = run_direct_adam(lay, ens, p_t, n_iters=40, lr=0.05,
                              smooth_temp=smooth_temp)

        def hard_asr(v, loss):
            return -loss if smooth_temp is None else \
                -loss_from_view(v, ens, lay)

        p0 = init_precoder(lay, ens.estimate, p_t)
        v = precoder_to_view(p0, lay)
        loss, g = grad_wrt_precoder(p0, ens, lay, smooth_temp)
        history = [hard_asr(v, loss)]
        best = v
        opt = AdamState.zeros(v.size)
        for _ in range(40):
            v = project_view(v + adam_step(opt, g, 0.05), p_t)
            loss, g = grad_wrt_precoder(view_to_precoder(v, lay), ens, lay,
                                        smooth_temp)
            history.append(hard_asr(v, loss))
            if history[-1] > max(history[:-1]):
                best = v
        np.testing.assert_array_equal(res.asr_history, history)
        np.testing.assert_array_equal(res.best_precoder.matrix,
                                      view_to_precoder(best, lay))
        assert res.best_asr == max(history)


def _ring_scene(seed=500, n_tx=8, n_users=4, n_groups=2, n_draws=12,
                p_t=10.0):
    lay = StreamLayout.hierarchical(n_tx, n_users, n_groups)
    model = OneRingModel(n_tx=n_tx, azimuths=(-np.pi / 4, np.pi / 4),
                         spread=np.pi / 6, tau2=0.3)
    ens = model.draw(RngStream(seed), lay, n_draws)
    return lay, ens, model, p_t


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
        lay, ens, model, p_t = _ring_scene(seed=504, n_draws=40)
        seen = []

        def spy(h, p, workspace=None):
            seen.append(p.copy())
            return channel_project(h, p, workspace)

        monkeypatch.setattr(baselines, "channel_project", spy)
        res = run_fixed_direction(lay, ens, model, p_t, step=0.05)
        dirs, = seen
        rates = [saf_report(dirs * np.sqrt(_stream_powers(s, lay, p_t)),
                            ens, lay).avg_sum_rate
                 for s in power_split_grid(0.05)]
        assert res.best_split == power_split_grid(0.05)[np.argmax(rates)]
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
        # sixteen antennas in two groups defaults to rank four
        lay = StreamLayout.hierarchical(16, 4, 2)
        model = OneRingModel(n_tx=16, azimuths=(-np.pi / 4, np.pi / 4),
                             spread=np.pi / 6, tau2=0.3)
        ens = model.draw(RngStream(504), lay, 6)
        res = run_fixed_direction(lay, ens, model, 10.0, step=0.2)
        explicit = run_fixed_direction(lay, ens, model, 10.0, step=0.2,
                                       rank=4)
        assert res.best_asr == explicit.best_asr
        np.testing.assert_array_equal(res.best_precoder.matrix,
                                      explicit.best_precoder.matrix)

    def test_rank_one_runs(self):
        lay, ens, model, p_t = _ring_scene(seed=505)
        res = run_fixed_direction(lay, ens, model, p_t, step=0.2, rank=1)
        assert np.isfinite(res.best_asr)

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
    """Splits the search scores per batched call on this scene."""
    gain_bytes = 8 * lay.n_streams * lay.n_users * ens.n_draws
    return max(1, baselines._CHUNK_BYTES // gain_bytes)


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
        """Let ``poison(asr, lo)`` overwrite the rates of each scored chunk,
        ``lo`` the lattice index of its first split, before the search sees
        them; returns the chunks' rates as the search saw them."""
        real = baselines._batch_asr
        seen = []

        def batch_asr(powers, layout, noise):
            asr = real(powers, layout, noise)
            poison(asr, sum(map(len, seen)))
            seen.append(asr)
            return asr

        monkeypatch.setattr(baselines, "_batch_asr", batch_asr)
        return seen

    def test_nan_split_never_wins(self, monkeypatch):
        lay, ens, model, p_t = _bench_ring_scene(7, 10.0)
        grid = power_split_grid(0.05)
        top = grid.index(run_fixed_direction(lay, ens, model, p_t).best_split)

        def poison(asr, lo):
            if lo <= top < lo + len(asr):
                asr[top - lo] = np.nan

        seen = self._poisoned(monkeypatch, poison)
        res = run_fixed_direction(lay, ens, model, p_t)
        scores = np.concatenate(seen)
        assert len(seen) > 1 and np.isnan(scores[top])
        scores[top] = -np.inf
        assert res.best_split == grid[int(np.argmax(scores))]
        assert res.best_asr == np.max(scores)

    def test_all_nan_rejected(self, monkeypatch):
        lay, ens, model, p_t = _ring_scene(seed=508)
        self._poisoned(monkeypatch, lambda asr, lo: asr.fill(np.nan))
        with pytest.raises(ValueError, match="NaN"):
            run_fixed_direction(lay, ens, model, p_t, step=0.2)
