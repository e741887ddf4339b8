"""The benchmark's workloads: inputs made from the seed, one measured pass
over a workload's cells, and the checks every returned cell must pass.

A cell is one optimizer run on one channel estimate. Sweeps go through the
package the way ``rsmeta run`` does (``run_sweep`` then ``write_reports``);
``long-cell`` drives the library API as the README quick start does.
"""
from __future__ import annotations

import functools
import inspect
import math
import time
import traceback
from dataclasses import dataclass

import rsmeta

# Scaled copies of configs/single_layer.cfg and configs/grouped_ring.cfg:
# every cell keeps the shipped shape (sizes, batch, iterations, network),
# only the grid is thinned so one pass takes seconds, not minutes.
CONFIGS = {
    "iid-sweep": """\
scenario = iid
n_tx = 4
n_users = 4
snr_db = 5, 15, 25, 35
csit_draws = 2
realizations = 200
master_seed = {seed}
methods = meta, direct
iid.alpha = 0.6
meta.iters = 300
meta.lr = 0.001
meta.hidden = 50, 50
direct.iters = 600
direct.lr = 0.02
threads = 1
""",
    "ring-sweep": """\
scenario = one_ring
n_tx = 16
n_users = 8
n_groups = 4
snr_db = 0, 7, 14, 21, 28, 35
csit_draws = 1
realizations = 200
master_seed = {seed}
methods = meta, fixed
ring.azimuths = -1.5707963, -0.5235988, 0.5235988, 1.5707963
ring.spread = 0.3926991
ring.tau2 = 0.4
ring.spacing = 0.5
meta.iters = 300
meta.lr = 0.001
meta.hidden = 50, 50
fixed.step = 0.05
threads = 1
""",
    # one estimate, ten times the batch, scored on a held-out batch of the
    # same size; direct runs half criterion 3's 2000 iterations so that a
    # run holds several passes
    "long-cell": """\
scenario = iid
n_tx = 4
n_users = 4
snr_db = 20
csit_draws = 1
realizations = 2000
master_seed = {seed}
methods = meta, direct
iid.alpha = 0.6
meta.iters = 300
meta.lr = 0.001
meta.hidden = 50, 50
direct.iters = 1000
direct.lr = 0.02
eval.redraw = true
threads = 1
""",
}

CHECKS = ("asr_finite", "power_budget", "best_ge_start", "asr_matches_saf")
SAF_RTOL = 1e-9
POWER_RTOL = 1e-9

# harness binding of each optimizer -> method name in the sweep's cells
_OPTIMIZERS = (("run_meta_opt", "meta"), ("run_direct_adam", "direct"),
               ("run_fixed_direction", "fixed"))


@dataclass
class Cell:
    """One optimizer result on one channel estimate, with what checks need."""

    method: str
    asr: float              # the rate the user is given for this cell
    fit_asr: float          # the rate reported on ``ens``, the fitted batch
    start_asr: float        # None for the fixed-direction search
    precoder: object
    p_t: float
    ens: object
    layout: object
    call_s: float
    history: object = None  # per-iteration ASRs where the run tracked them


@dataclass
class Pass:
    """One measured pass over all of a workload's cells."""

    seconds: float
    cells: list
    n_expected: int
    error: str = None


def _capture(fn, method, calls):
    """Wrap an optimizer so each call's inputs, result and time are kept."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        arg = sig.bind(*args, **kwargs).arguments
        calls.append((method, arg["layout"], arg["ens"], arg["p_t"], result,
                      seconds))
        return result
    return call


def sweep_pass(cfg, out_dir, patches) -> Pass:
    """``run_sweep`` plus ``write_reports``, timed together."""
    calls = []
    for name, method in _OPTIMIZERS:
        patches.replace(f"rsmeta.harness:{name}",
                        functools.partial(_capture, method=method, calls=calls))
    n_expected = len(cfg.snr_db) * cfg.n_csit * len(cfg.methods)
    t0 = time.perf_counter()
    try:
        result = rsmeta.run_sweep(cfg)
        rsmeta.write_reports(result, out_dir)
    except Exception:
        return Pass(time.perf_counter() - t0, [], n_expected,
                    traceback.format_exc(limit=4))
    seconds = time.perf_counter() - t0
    if [c.method for c in result.cells] != [c[0] for c in calls]:
        return Pass(seconds, [], n_expected,
                    "sweep cells do not pair up with the optimizer calls")
    cells = [Cell(method, c.asr, c.asr, getattr(r, "start_asr", None),
                  r.best_precoder, p_t, ens, layout, call_s)
             for c, (method, layout, ens, p_t, r, call_s)
             in zip(result.cells, calls)]
    return Pass(seconds, cells, n_expected)


def long_cell_pass(cfg, out_dir, patches) -> Pass:
    """Draw, both optimizers and held-out scoring on one estimate."""
    t0 = time.perf_counter()
    try:
        layout = rsmeta.StreamLayout.one_layer(cfg.n_tx, cfg.n_users)
        model = rsmeta.IidCsitModel(n_tx=cfg.n_tx, n_users=cfg.n_users,
                                    alpha=cfg.alpha)
        p_t = 10.0 ** (cfg.snr_db[0] / 10.0)
        root = rsmeta.RngStream(cfg.master_seed)
        ens, held_out = model.draw_pair(root.child(0), p_t,
                                        cfg.n_realizations, cfg.n_realizations)
        runs = []
        tc = time.perf_counter()
        meta = rsmeta.run_meta_opt(layout, ens, p_t, rsmeta.MetaOptConfig(
            n_iters=cfg.meta_iters, lr=cfg.meta_lr,
            hidden=tuple(cfg.meta_hidden), seed=root.child(1).seed))
        runs.append(("meta", meta, time.perf_counter() - tc))
        tc = time.perf_counter()
        direct = rsmeta.run_direct_adam(layout, ens, p_t,
                                        n_iters=cfg.direct_iters,
                                        lr=cfg.direct_lr)
        runs.append(("direct", direct, time.perf_counter() - tc))
        scored = [rsmeta.saf_report(r.best_precoder, held_out,
                                    layout).avg_sum_rate for _, r, _ in runs]
    except Exception:
        return Pass(time.perf_counter() - t0, [], 2,
                    traceback.format_exc(limit=4))
    seconds = time.perf_counter() - t0
    cells = [Cell(method, asr, r.best_asr, r.start_asr, r.best_precoder, p_t,
                  ens, layout, call_s, history=r.asr_history)
             for (method, r, call_s), asr in zip(runs, scored)]
    return Pass(seconds, cells, 2)


PASSES = {"iid-sweep": sweep_pass, "ring-sweep": sweep_pass,
          "long-cell": long_cell_pass}


def failed_checks(cell: Cell) -> list:
    """Names of the checks in :data:`CHECKS` that the cell fails."""
    failed = []
    if not (math.isfinite(cell.asr) and math.isfinite(cell.fit_asr)):
        failed.append("asr_finite")
    if not cell.precoder.total_power <= cell.p_t * (1.0 + POWER_RTOL):
        failed.append("power_budget")
    if cell.start_asr is not None and not cell.fit_asr >= cell.start_asr:
        failed.append("best_ge_start")
    ref = rsmeta.saf_report(cell.precoder, cell.ens, cell.layout).avg_sum_rate
    if not abs(cell.fit_asr - ref) <= SAF_RTOL * abs(ref):
        failed.append("asr_matches_saf")
    return failed


def esr_by_method(cells) -> dict:
    """Mean reported ASR per method, in the order methods first appear."""
    out = {}
    for cell in cells:
        out.setdefault(cell.method, []).append(cell.asr)
    return {m: math.fsum(v) / len(v) for m, v in out.items()}

