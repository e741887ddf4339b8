"""Acceptance battery: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; add ``-s`` for the measured numbers behind each verdict.
Everything here is seeded, so the verdicts are reproducible bit for bit.
"""
import time

import numpy as np
import pytest

from rsmeta.baselines import run_fixed_direction
from rsmeta.channel import (ChannelEnsemble, IidCsitModel, OneRingModel,
                            one_ring_correlation)
from rsmeta.gradcheck import gradcheck_suite
from rsmeta.gradients import (grad_wrt_precoder, loss_from_view,
                              precoder_to_view, project_view,
                              view_to_precoder)
from rsmeta.harness import ExperimentConfig, run_sweep
from rsmeta.layout import StreamLayout
from rsmeta.linalg import (ProjectionWorkspace, RngStream, gaussian_matrix,
                           herm_eig)
from rsmeta.metaopt import MetaOptConfig, init_precoder, run_meta_opt
from rsmeta.rates import saf_report, sinr_triplet


def test_criterion_1_gradient_battery():
    # 50 random instances within the small-size envelope, both gradient
    # paths checked against central differences, under a minute
    t0 = time.perf_counter()
    report = gradcheck_suite(seed=0, n_instances=50)
    elapsed = time.perf_counter() - t0
    assert report["n_instances"] == 50
    assert report["precoder_max_relerr"] <= 1e-4
    assert report["theta_max_relerr"] <= 1e-4
    assert report["passed"]
    assert elapsed < 60.0
    print(f"\n[criterion 1] 50 instances, precoder relerr "
          f"{report['precoder_max_relerr']:.2e}, network relerr "
          f"{report['theta_max_relerr']:.2e}, {elapsed:.1f} s -> PASS")


def _shared_columns(v, layout):
    """The common and private columns of the precoder a view encodes."""
    cols = [layout.col_common] + [layout.col_private(u)
                                  for u in range(layout.n_users)]
    return view_to_precoder(v, layout)[:, cols]


def test_criterion_2_layer_reduction():
    # hand-solvable single-user instance first
    lay = StreamLayout.hierarchical(1, 1, 1)
    p = np.ones((1, 3), complex)
    h = np.ones((1, 1), complex)
    one_draw = ChannelEnsemble(estimate=h, realizations=h[None])
    sc, sg, sp = sinr_triplet(p, h[None], lay)
    assert sc[0, 0] == 1.0 / 3.0
    assert sg[0, 0] == 0.5
    assert sp[0, 0] == 1.0
    # the mean over one draw is exact
    assert saf_report(p, one_draw, lay).avg_sum_rate == 2.0
    # the same instance on the training core: the loss of both paths, and
    # the SINRs its kept rate pass holds, stacked common, group, private
    v = precoder_to_view(p, lay)
    ws = ProjectionWorkspace(one_draw.realizations, lay.n_streams)
    assert loss_from_view(v, one_draw, lay) == -2.0
    assert grad_wrt_precoder(v, one_draw, lay, workspace=ws)[0] == -2.0
    np.testing.assert_array_equal(ws.rate_pass.num[:, 0, 0],
                                  [1.0 / 3.0, 0.5, 1.0])

    # grouped mode with all-zero group columns must reproduce the single
    # layer bit for bit: summing exact zeros changes nothing
    rng = RngStream(2024)
    for i in range(100):
        n_tx = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        g = int(rng.integers(1, min(k, 2) + 1))
        group_of = tuple(int(rng.integers(0, g)) for _ in range(k))
        if len(set(group_of)) != g:
            group_of = tuple(j % g for j in range(k))
        m = int(rng.integers(1, 9))
        one = StreamLayout.one_layer(n_tx, k)
        hier = StreamLayout.hierarchical(n_tx, k, g, group_of=group_of)
        est = gaussian_matrix(rng, n_tx, k, 1.0)
        err = gaussian_matrix(rng, m * n_tx, k, 0.3).reshape(m, n_tx, k)
        ens = ChannelEnsemble(estimate=est, realizations=est[None] + err)

        p_one = np.zeros((n_tx, one.n_streams), complex)
        p_one[:, 0] = gaussian_matrix(rng, n_tx, 1, 1.0)[:, 0]
        privates = gaussian_matrix(rng, n_tx, k, 1.0)
        for u in range(k):
            p_one[:, one.col_private(u)] = privates[:, u]
        p_hier = np.zeros((n_tx, hier.n_streams), complex)
        p_hier[:, 0] = p_one[:, 0]
        for u in range(k):
            p_hier[:, hier.col_private(u)] = privates[:, u]

        ra = saf_report(p_one, ens, one)
        rb = saf_report(p_hier, ens, hier)
        assert ra.avg_sum_rate == rb.avg_sum_rate        # bitwise
        np.testing.assert_array_equal(ra.avg_per_user_common,
                                      rb.avg_per_user_common)
        np.testing.assert_array_equal(ra.avg_per_user_private,
                                      rb.avg_per_user_private)
        np.testing.assert_array_equal(rb.group_rates, np.zeros(g))
        # and on the training core: the loss of both paths, and the
        # gradient on the columns both layouts share, common and private
        v_one = precoder_to_view(p_one, one)
        v_hier = precoder_to_view(p_hier, hier)
        loss_one, g_one = grad_wrt_precoder(v_one, ens, one)
        loss_hier, g_hier = grad_wrt_precoder(v_hier, ens, hier)
        assert loss_from_view(v_one, ens, one) == loss_one
        assert loss_from_view(v_hier, ens, hier) == loss_hier
        assert loss_one == loss_hier                      # bitwise
        np.testing.assert_array_equal(_shared_columns(g_one, one),
                                      _shared_columns(g_hier, hier))
    print("\n[criterion 2] hand rates exact (1/3, 1/2, 1; sum 2.0), also "
          "on the core; 100/100 zero-group reductions bitwise equal, loss "
          "and shared-column gradient included -> PASS")


def test_criterion_3_single_layer_parity():
    # the network-driven runs must match long direct Adam runs on the
    # single-layer scenario and always beat their own starting point
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="iid", n_tx=4, n_users=4,
        snr_db=(10.0, 20.0, 30.0), n_csit=20, n_realizations=100,
        master_seed=901, methods=("meta", "direct"),
        meta_iters=300, meta_lr=1e-3, meta_hidden=(50, 50),
        direct_iters=2000, direct_lr=0.02, n_threads=1)
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - t0

    lines = []
    for idx, snr in enumerate(cfg.snr_db):
        meta = [c for c in result.cells
                if c.method == "meta" and c.snr_idx == idx]
        direct = [c for c in result.cells
                  if c.method == "direct" and c.snr_idx == idx]
        esr_meta = float(np.mean([c.asr for c in meta]))
        esr_direct = float(np.mean([c.asr for c in direct]))
        esr_start = float(np.mean([c.start_asr for c in meta]))
        ratio = esr_meta / esr_direct
        lines.append(f"{snr:.0f} dB: meta {esr_meta:.3f}, "
                     f"direct {esr_direct:.3f} (ratio {ratio:.4f}), "
                     f"start {esr_start:.3f}")
        assert abs(ratio - 1.0) <= 0.05
        assert esr_meta >= esr_start
    assert elapsed < 15 * 60
    print(f"\n[criterion 3] {'; '.join(lines)}; {elapsed:.0f} s -> PASS")


def test_criterion_4_grouped_dominance():
    # wide angular spread, strong grouping: the free optimizer must beat
    # the statistics-locked direction baseline by a clear margin
    t0 = time.perf_counter()
    lay = StreamLayout.hierarchical(16, 4, 2)
    model = OneRingModel(n_tx=16, azimuths=(-np.pi / 4, np.pi / 4),
                         spread=np.pi / 3, tau2=0.4)
    p_t = 10.0 ** 2.5
    meta_vals, fixed_vals = [], []
    for draw in range(10):
        ens = model.draw(RngStream(7000 + draw), lay, 200)
        res = run_meta_opt(lay, ens, p_t, MetaOptConfig(
            n_iters=500, lr=1e-3, hidden=(50, 50), seed=100 + draw))
        fx = run_fixed_direction(lay, ens, model, p_t, step=0.05)
        meta_vals.append(res.best_asr)
        fixed_vals.append(fx.best_asr)
    elapsed = time.perf_counter() - t0
    ratio = float(np.mean(meta_vals) / np.mean(fixed_vals))
    assert ratio >= 1.10
    assert elapsed < 20 * 60
    print(f"\n[criterion 4] meta {np.mean(meta_vals):.3f} vs fixed "
          f"{np.mean(fixed_vals):.3f}, ratio {ratio:.3f} (need >= 1.10), "
          f"{elapsed:.0f} s -> PASS")


def test_criterion_5_group_power_trend():
    # narrow spread at low SNR: optimized precoders should put more power
    # on group streams than on the global common stream
    lay = StreamLayout.hierarchical(16, 4, 2)
    model = OneRingModel(n_tx=16, azimuths=(-np.pi / 4, np.pi / 4),
                         spread=np.pi / 8, tau2=0.4)

    def fractions(p_t, draw):
        ens = model.draw(RngStream(8100 + draw), lay, 200)
        res = run_meta_opt(lay, ens, p_t, MetaOptConfig(
            n_iters=500, lr=1e-3, hidden=(50, 50), seed=200 + draw))
        pm = res.best_precoder
        total = pm.total_power
        qc = pm.stream_power(0) / total
        qg = sum(pm.stream_power(lay.col_group(g)) for g in range(2)) / total
        return qc, qg

    wins_low = 0
    for draw in range(10):
        qc, qg = fractions(10.0 ** 0.5, draw)
        wins_low += int(qg > qc)
    assert wins_low >= 7

    wins_high = 0
    for draw in range(10):
        qc, qg = fractions(10.0 ** 3.0, draw)
        wins_high += int(qg > qc)
    # high SNR is informational only: private streams take over there and
    # the common layers shrink, so no hard requirement is imposed
    print(f"\n[criterion 5] group > common in {wins_low}/10 draws at 5 dB "
          f"(need >= 7); informational at 30 dB: {wins_high}/10 -> PASS")


def test_criterion_6_invariants():
    detail = []

    # projection feasibility on random views and on optimizer output
    rng = RngStream(60)
    p_t = 7.0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        v = rng.standard_normal(n) * float(rng.uniform(0.1, 5.0))
        out = project_view(v, p_t)
        assert np.dot(out, out) <= p_t * (1 + 1e-9)
    lay = StreamLayout.one_layer(3, 2)
    model = IidCsitModel(n_tx=3, n_users=2, error_power=0.3)
    ens = model.draw(RngStream(61), 10.0, 20)
    res = run_meta_opt(lay, ens, 10.0, MetaOptConfig(n_iters=40, lr=5e-3,
                                                     hidden=(12,)))
    assert res.best_precoder.total_power <= 10.0 * (1 + 1e-9)
    detail.append("projection feasible")

    # per-column phase rotation leaves every reported rate unchanged
    base = saf_report(res.best_precoder, ens, lay)
    phases = np.exp(1j * RngStream(62).uniform(0, 2 * np.pi, lay.n_streams))
    mat = res.best_precoder.matrix * phases[None, :]
    rot = saf_report(mat, ens, lay)
    np.testing.assert_allclose(rot.avg_sum_rate, base.avg_sum_rate,
                               rtol=1e-12)
    np.testing.assert_allclose(rot.avg_per_user_common,
                               base.avg_per_user_common, rtol=1e-12)
    detail.append("phase invariant")

    # averaging variance drops about linearly in the batch size
    est = gaussian_matrix(RngStream(63), 4, 4, 0.7)
    lay4 = StreamLayout.one_layer(4, 4)
    p0 = init_precoder(lay4, est, 10.0)
    err_rng = RngStream(64)

    def asr_on_fresh_batch(m):
        err = gaussian_matrix(err_rng, m * 4, 4, 0.3).reshape(m, 4, 4)
        ens_m = ChannelEnsemble(estimate=est, realizations=est[None] + err)
        return saf_report(p0, ens_m, lay4).avg_sum_rate

    v100 = np.var([asr_on_fresh_batch(100) for _ in range(50)], ddof=1)
    v200 = np.var([asr_on_fresh_batch(200) for _ in range(50)], ddof=1)
    ratio = v100 / v200
    assert 1.0 <= ratio <= 4.0
    detail.append(f"variance ratio {ratio:.2f}")

    # reported layer rates are exactly the minima they claim to be
    model4 = IidCsitModel(n_tx=4, n_users=4, error_power=0.3)
    rep = saf_report(p0, model4.draw(RngStream(65), 10.0, 30), lay4)
    assert rep.common_rate == np.min(rep.avg_per_user_common)
    assert rep.common_rate in rep.avg_per_user_common
    detail.append("min tight")

    # the running best over a tracked run never decreases and ends at the
    # reported optimum
    res_t = run_meta_opt(lay4, model4.draw(RngStream(66), 10.0, 20), 10.0,
                         MetaOptConfig(n_iters=60, lr=5e-3, hidden=(16,)))
    best_trace = np.maximum.accumulate(res_t.asr_history)
    assert np.all(np.diff(best_trace) >= 0)
    assert best_trace[-1] == res_t.best_asr
    detail.append("best trace monotone")

    # same seeds, same bits
    twin = run_meta_opt(lay4, model4.draw(RngStream(66), 10.0, 20), 10.0,
                        MetaOptConfig(n_iters=60, lr=5e-3, hidden=(16,)))
    np.testing.assert_array_equal(twin.asr_history, res_t.asr_history)
    np.testing.assert_array_equal(twin.best_precoder.matrix,
                                  res_t.best_precoder.matrix)
    cfg = ExperimentConfig(scenario="iid", n_tx=2, n_users=2,
                           snr_db=(10.0,), n_csit=2, n_realizations=10,
                           master_seed=67, methods=("meta", "direct"),
                           error_power=0.3, meta_iters=5, meta_hidden=(8,),
                           direct_iters=5)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert [c.asr for c in a.cells] == [c.asr for c in b.cells]
    detail.append("bit reproducible")

    print(f"\n[criterion 6] {'; '.join(detail)} -> PASS")


def test_criterion_7_iteration_scaling():
    # doubling antennas and users together may grow the per-iteration cost
    # by at most 6x at fixed batch size
    def per_iter_seconds(n_tx, k, seed):
        lay = StreamLayout.one_layer(n_tx, k)
        model = IidCsitModel(n_tx=n_tx, n_users=k, error_power=0.3)
        ens = model.draw(RngStream(seed), 10.0, 100)
        short = MetaOptConfig(n_iters=30, hidden=(50, 50))
        long = MetaOptConfig(n_iters=230, hidden=(50, 50))
        run_meta_opt(lay, ens, 10.0, short)          # warm-up
        t_short = run_meta_opt(lay, ens, 10.0, short).wall_time_s
        t_long = run_meta_opt(lay, ens, 10.0, long).wall_time_s
        return (t_long - t_short) / 200.0

    small = per_iter_seconds(4, 4, 70)
    big = per_iter_seconds(8, 8, 71)
    ratio = big / small
    assert ratio <= 6.0
    print(f"\n[criterion 7] {small * 1e3:.2f} ms -> {big * 1e3:.2f} ms "
          f"per iteration, ratio {ratio:.2f} (cap 6) -> PASS")


def test_criterion_8_ring_correlation():
    # exact unit diagonal
    r = one_ring_correlation(8, 0.5, np.pi / 5, np.pi / 8)
    np.testing.assert_array_equal(np.real(np.diag(r)), np.ones(8))
    np.testing.assert_array_equal(np.imag(np.diag(r)), np.zeros(8))

    # positive semidefinite across a sweep of geometries
    worst = 0.0
    for az in (-1.2, -0.3, 0.0, 0.7, 1.4):
        for spread in (0.05, np.pi / 8, np.pi / 3):
            w, _ = herm_eig(one_ring_correlation(8, 0.5, az, spread))
            worst = min(worst, float(w[-1]))
    assert worst >= -1e-9

    # vanishing spread collapses onto a single steering direction
    w, _ = herm_eig(one_ring_correlation(6, 0.5, 0.3, 1e-4))
    leak = float(w[1] / w[0])
    assert leak <= 1e-6

    # the default quadrature already agrees with a much finer one
    coarse = one_ring_correlation(4, 0.5, np.pi / 4, np.pi / 8)
    fine = one_ring_correlation(4, 0.5, np.pi / 4, np.pi / 8, nodes=8193)
    quad_err = float(np.max(np.abs(coarse - fine)))
    assert quad_err <= 1e-8
    print(f"\n[criterion 8] diag exact, min eig {worst:.1e}, rank-1 leak "
          f"{leak:.1e}, quadrature err {quad_err:.1e} -> PASS")
