"""Sweep runner: many channel estimates per operating point, reported flat.

A sweep walks an SNR grid; at each point it draws several independent
channel estimates, runs the requested optimizers on each (all methods see
the same ensemble, so comparisons are paired), and aggregates the achieved
average sum rates into an effective sum rate per method and SNR.

Config files are flat ``key = value`` text with dotted keys; see
:data:`KEYMAP` for the full vocabulary. Reports land as one CSV of
aggregates plus one JSON of every individual cell. Seeding is hierarchical
(master seed, SNR index, estimate index), so any single cell can be
reproduced in isolation and adding SNR points never reshuffles the others.

Every cell is assembled the same way whatever the method: its reported
rate and, where the optimizer has one, its start rate (both on the
held-out batch when ``eval.redraw`` asks for one), and the power fractions
the returned precoder spends. Nothing here reads the environment; the
command line applies its flag overrides before calling in.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .adam import check_lr
from .baselines import lattice_size, run_direct_adam, run_fixed_direction
from .channel import IidCsitModel, OneRingModel
from .layout import StreamLayout
from .linalg import RngStream
from .metaopt import MetaOptConfig, check_iters, check_power, \
    init_precoder, run_meta_opt
from .rates import PrecoderMatrix, saf_report

__all__ = ["ExperimentConfig", "CellResult", "SweepResult",
           "load_config", "run_sweep", "write_reports"]

SCHEMA_VERSION = 1

@dataclass
class ExperimentConfig:
    """Everything a sweep needs; field names mirror the config-file keys."""

    scenario: str = "iid"            # "iid" (single layer) or "one_ring" (grouped)
    n_tx: int = 4
    n_users: int = 4
    n_groups: int = 2                # one_ring only
    snr_db: tuple = (10.0, 20.0)
    n_csit: int = 4                  # channel estimates per SNR point
    n_realizations: int = 200        # realizations averaged per estimate
    master_seed: int = 1234
    methods: tuple = ("meta", "direct")

    alpha: float = 0.6               # iid error exponent
    error_power: float = None        # iid override; None tracks SNR

    azimuths: tuple = None           # one_ring, radians, one per group
    spread: float = 0.3927           # one_ring angular half-spread
    tau2: float = 0.4                # one_ring estimation error fraction
    spacing: float = 0.5             # antenna spacing in wavelengths

    meta_iters: int = 300
    meta_lr: float = 1e-3
    meta_hidden: tuple = (50, 50)

    direct_iters: int = 1000
    direct_lr: float = 0.02

    fixed_step: float = 0.05

    redraw_eval: bool = False        # score on a held-out realization batch
    out_dir: str = "results"
    n_threads: int = 1


# config-file key -> dataclass field
KEYMAP = {
    "scenario": "scenario",
    "n_tx": "n_tx",
    "n_users": "n_users",
    "n_groups": "n_groups",
    "snr_db": "snr_db",
    "csit_draws": "n_csit",
    "realizations": "n_realizations",
    "master_seed": "master_seed",
    "methods": "methods",
    "iid.alpha": "alpha",
    "iid.error_power": "error_power",
    "ring.azimuths": "azimuths",
    "ring.spread": "spread",
    "ring.tau2": "tau2",
    "ring.spacing": "spacing",
    "meta.iters": "meta_iters",
    "meta.lr": "meta_lr",
    "meta.hidden": "meta_hidden",
    "direct.iters": "direct_iters",
    "direct.lr": "direct_lr",
    "fixed.step": "fixed_step",
    "eval.redraw": "redraw_eval",
    "out.dir": "out_dir",
    "threads": "n_threads",
}

_TUPLE_FIELDS = {"snr_db", "methods", "azimuths", "meta_hidden"}


def _parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return tuple(_parse_scalar(p.strip()) for p in text.split(",")
                     if p.strip() != "")
    return _parse_scalar(text)


def load_config(path) -> ExperimentConfig:
    """Parse a flat key-value config file and validate it as written."""
    cfg = _read_config(path)
    validate_config(cfg)
    return cfg


def _read_config(path) -> ExperimentConfig:
    """Parse a flat key-value config file, unchecked: an unknown key, a
    line without ``=``, or a key given twice (with both of its lines) is
    rejected with the file and line."""
    cfg = ExperimentConfig()
    seen = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', "
                                 f"got {raw.strip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in KEYMAP:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: key {key!r} given "
                                 f"again, first on line {seen[key]}")
            seen[key] = lineno
            value = _parse_value(text)
            name = KEYMAP[key]
            if name in _TUPLE_FIELDS and value is not None \
                    and not isinstance(value, tuple):
                value = (value,)
            setattr(cfg, name, value)
    return cfg


# config keys that count something: each must be an integer >= 1
_COUNT_KEYS = ("n_tx", "n_users", "n_groups", "csit_draws", "realizations",
               "threads")


def validate_config(cfg: ExperimentConfig):
    """Raise ValueError, naming the config key, for a config a sweep could
    not run; otherwise return the sweep's channel model, built and, for
    one_ring, with every group's correlation computed."""
    if cfg.scenario not in ("iid", "one_ring"):
        raise ValueError(f"scenario must be 'iid' or 'one_ring', "
                         f"got {cfg.scenario!r}")
    # a config file's true, yes or on reads as a bool, which numbers accept
    for key, name in KEYMAP.items():
        value = getattr(cfg, name)
        if key != "eval.redraw" and any(isinstance(v, bool) for v in (
                value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{key} takes no true or false, got {value!r}")
    for key in _COUNT_KEYS:
        value = getattr(cfg, KEYMAP[key])
        _require(_is_int(value) and value >= 1, key, value, "an integer >= 1")
    _require(_is_int(cfg.master_seed) and cfg.master_seed >= 0,
             "master_seed", cfg.master_seed, "an integer >= 0")
    if not cfg.snr_db:
        raise ValueError("snr_db must list at least one point")
    _require(all(_is_real(snr) for snr in cfg.snr_db), "snr_db", cfg.snr_db,
             "a list of finite numbers")
    # each point's power must be one the optimizers accept
    powers = []
    for snr in cfg.snr_db:
        try:
            p_t = 10.0 ** (snr / 10.0)
        except OverflowError:
            p_t = np.inf
        powers.append(_require_accepted(
            f"snr_db = {snr:g} gives the transmit power {p_t:g}",
            check_power, p_t))
    _require(isinstance(cfg.redraw_eval, bool), "eval.redraw",
             cfg.redraw_eval, "true or false")
    bad = [m for m in cfg.methods if m not in ("meta", "direct", "fixed")]
    if bad:
        raise ValueError(f"unknown methods {bad}; choose from meta, direct, fixed")
    if not cfg.methods:
        raise ValueError("methods must list at least one optimizer")
    _require(len(set(cfg.methods)) == len(cfg.methods), "methods",
             cfg.methods, "a list without repeats")
    if cfg.scenario == "iid":
        if "fixed" in cfg.methods:
            raise ValueError("the fixed-direction search needs the one_ring "
                             "scenario")
        _require(_is_real(cfg.alpha), "iid.alpha", cfg.alpha, "a finite number")
        model = _build_model(cfg)
        _require_accepted("iid.error_power", model.error_var, 1.0)
        for snr, p_t in zip(cfg.snr_db, powers):
            try:
                sig_e2 = model.error_var(p_t)
            except OverflowError:
                raise ValueError(
                    f"iid.alpha = {cfg.alpha:g} overflows the CSI error "
                    f"variance at snr_db = {snr:g}") from None
            if sig_e2 >= 1.0:
                raise ValueError(
                    f"snr_db = {snr:g} is degenerate: the CSI error variance "
                    f"{sig_e2:.4g} is not below the unit channel variance, "
                    f"so the channel estimate is zero")
    else:
        if cfg.azimuths is None:
            raise ValueError("one_ring scenario needs ring.azimuths")
        if len(cfg.azimuths) != cfg.n_groups:
            raise ValueError(f"ring.azimuths lists {len(cfg.azimuths)} angles "
                             f"for {cfg.n_groups} groups")
        if cfg.n_users % cfg.n_groups != 0:
            raise ValueError("n_users must split evenly across n_groups")
        _require(all(_is_real(a) for a in cfg.azimuths), "ring.azimuths",
                 cfg.azimuths, "a list of finite numbers")
        _require(_is_real(cfg.spread) and 0 < cfg.spread <= np.pi,
                 "ring.spread", cfg.spread, "a number in (0, pi]")
        _require(_is_positive(cfg.spacing), "ring.spacing", cfg.spacing,
                 "a number > 0")
        model = _require_accepted("ring.tau2", _build_model, cfg)
        # every group's correlation, which the sweep reuses
        _require_accepted("ring.spread", model.correlation, 0)
    _validate_optimizers(cfg)
    return model


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) \
        and abs(x) < float("inf")


def _is_positive(x) -> bool:
    return _is_real(x) and x > 0


def _require(ok: bool, key: str, value, what: str) -> None:
    if not ok:
        raise ValueError(f"{key} must be {what}, got {value!r}")


def _require_accepted(key: str, check, *args):
    """Run a library check, naming ``key`` in the error it raises; return
    what the check returns."""
    try:
        return check(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _validate_optimizers(cfg: ExperimentConfig) -> None:
    """Reject the settings of the requested optimizers that would otherwise
    fail only once the sweep reaches them, naming the config key."""
    methods = set(cfg.methods)
    for method in ("meta", "direct"):
        if method in methods:
            iters = getattr(cfg, f"{method}_iters")
            lr = getattr(cfg, f"{method}_lr")
            check_iters(iters, f"{method}.iters")
            check_lr(lr, f"{method}.lr")
    if "meta" in methods:
        hidden = cfg.meta_hidden
        _require(isinstance(hidden, (tuple, list))
                 and all(_is_int(h) and h >= 1 for h in hidden),
                 "meta.hidden", hidden, "a list of layer sizes >= 1")
    if "fixed" in methods:
        _require_accepted("fixed.step", lattice_size, cfg.fixed_step)


@dataclass
class CellResult:
    """One optimizer on one channel estimate at one SNR point."""

    method: str
    snr_idx: int
    snr_db: float
    csit_idx: int
    asr: float
    wall_time_s: float
    q_common: float
    q_group: float
    q_private: float
    start_asr: float = None


@dataclass
class SweepResult:
    config: ExperimentConfig
    cells: list

    def summary_rows(self):
        """Aggregate cells into one row per (method, SNR point)."""
        rows = []
        for method in self.config.methods:
            for idx, snr in enumerate(self.config.snr_db):
                sel = [c for c in self.cells
                       if c.method == method and c.snr_idx == idx]
                if not sel:
                    continue
                asr = np.array([c.asr for c in sel])
                rows.append({
                    "method": method,
                    "snr_db": float(snr),
                    "esr_mean": float(np.mean(asr)),
                    "esr_std": float(np.std(asr, ddof=1)) if len(sel) > 1 else 0.0,
                    "time_mean_s": float(np.mean([c.wall_time_s for c in sel])),
                    "q_common": float(np.mean([c.q_common for c in sel])),
                    "q_group": float(np.mean([c.q_group for c in sel])),
                    "q_private": float(np.mean([c.q_private for c in sel])),
                })
        return rows


def _build_layout(cfg: ExperimentConfig) -> StreamLayout:
    if cfg.scenario == "iid":
        return StreamLayout.one_layer(cfg.n_tx, cfg.n_users)
    return StreamLayout.hierarchical(cfg.n_tx, cfg.n_users, cfg.n_groups)


def _build_model(cfg: ExperimentConfig):
    """The sweep's channel model; every cell of a sweep draws from one."""
    if cfg.scenario == "iid":
        return IidCsitModel(n_tx=cfg.n_tx, n_users=cfg.n_users,
                            alpha=cfg.alpha, error_power=cfg.error_power)
    return OneRingModel(n_tx=cfg.n_tx, azimuths=cfg.azimuths,
                        spread=cfg.spread, tau2=cfg.tau2, spacing=cfg.spacing)


def _spent_splits(p: PrecoderMatrix, p_t: float) -> tuple:
    """Power fractions (common, group, private) of ``p_t`` that the
    precoder's columns spend."""
    col = np.sum(np.abs(p.matrix) ** 2, axis=0) / p_t
    first_prv = 1 + p.layout.n_groups
    return (float(col[0]), float(np.sum(col[1:first_prv])),
            float(np.sum(col[first_prv:])))


def _run_cell(cfg: ExperimentConfig, layout: StreamLayout, model,
              snr_idx: int, csit_idx: int) -> list:
    """All requested methods on one estimate freshly drawn from model."""
    p_t = 10.0 ** (cfg.snr_db[snr_idx] / 10.0)
    cell = RngStream(cfg.master_seed).child(snr_idx, csit_idx)
    ens_rng = cell.child(0)
    net_seed = cell.child(1).seed

    n_eval = cfg.n_realizations if cfg.redraw_eval else 0
    given = p_t if cfg.scenario == "iid" else layout
    ens, eval_ens = model.draw_pair(ens_rng, given, cfg.n_realizations, n_eval)

    out = []
    snr = float(cfg.snr_db[snr_idx])
    held_out_start = None  # meta and direct share one start point
    for method in cfg.methods:
        if method == "meta":
            r = run_meta_opt(layout, ens, p_t, MetaOptConfig(
                n_iters=cfg.meta_iters, lr=cfg.meta_lr,
                hidden=tuple(cfg.meta_hidden), seed=net_seed))
        elif method == "direct":
            r = run_direct_adam(layout, ens, p_t, n_iters=cfg.direct_iters,
                                lr=cfg.direct_lr)
        else:
            r = run_fixed_direction(layout, ens, model, p_t,
                                    step=cfg.fixed_step)
        asr, start = r.best_asr, getattr(r, "start_asr", None)
        if eval_ens is not None:
            # the start point too is scored on the held-out batch
            asr = saf_report(r.best_precoder, eval_ens, layout).avg_sum_rate
            if start is not None:
                if held_out_start is None:
                    p0 = init_precoder(layout, ens.estimate, p_t)
                    held_out_start = saf_report(p0, eval_ens,
                                                layout).avg_sum_rate
                start = held_out_start
        out.append(CellResult(method, snr_idx, snr, csit_idx, float(asr),
                              r.wall_time_s,
                              *_spent_splits(r.best_precoder, p_t),
                              start_asr=start))
    return out


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run every (SNR point, estimate) cell, optionally across threads.

    The config is validated first and is the one the result records.
    """
    model = validate_config(cfg)  # every group's root before any worker
    layout = _build_layout(cfg)
    jobs = [(s, c) for s in range(len(cfg.snr_db)) for c in range(cfg.n_csit)]
    if cfg.n_threads > 1:
        # imported here: concurrent.futures pulls in logging, which a
        # single-threaded sweep, and every import of the package, never uses
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.n_threads) as pool:
            chunks = list(pool.map(
                lambda sc: _run_cell(cfg, layout, model, *sc), jobs))
    else:
        chunks = [_run_cell(cfg, layout, model, s, c) for s, c in jobs]
    cells = [cell for chunk in chunks for cell in chunk]
    cells.sort(key=lambda c: (c.snr_idx, c.csit_idx,
                              cfg.methods.index(c.method)))
    return SweepResult(config=cfg, cells=cells)


def write_reports(result: SweepResult, out_dir=None) -> dict:
    """Write results.csv (aggregates) and results.json (all cells).

    Returns the paths written. ``out_dir`` falls back to the config value;
    the config in results.json records the directory actually written.
    """
    out_dir = os.fspath(out_dir or result.config.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "results.json")

    rows = result.summary_rows()
    fields = ["method", "snr_db", "esr_mean", "esr_std", "time_mean_s",
              "q_common", "q_group", "q_private"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)

    # the config records where its reports went, not where it said to
    config = dict(dataclasses.asdict(result.config), out_dir=out_dir)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "cells": [dataclasses.asdict(c) for c in result.cells],
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return {"csv": csv_path, "json": json_path}
