"""Command-line front end.

Subcommands:

* ``run``        sweep from a config file, reports to CSV and JSON
* ``gradcheck``  finite-difference verification of both gradient paths
* ``demo-1lrs``  preset single-layer sweep (i.i.d. channels, SNR-tracking CSI error)
* ``demo-hrs``   preset grouped sweep (one-ring channels, fixed-direction baseline)
* ``validate``   parse and check a config file without running anything

``run`` and the demos take ``--out-dir`` and ``--threads``; the environment
variables RSMETA_OUT_DIR and RSMETA_THREADS override those flags and the
config alike, for ``validate`` too. The library itself reads no
environment.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .gradcheck import gradcheck_suite
from .harness import (ExperimentConfig, load_config, run_sweep,
                      validate_config, write_reports)

__all__ = ["main", "entry"]

ENV_OUT_DIR = "RSMETA_OUT_DIR"
ENV_THREADS = "RSMETA_THREADS"


def _print_summary(result) -> None:
    rows = result.summary_rows()
    if not rows:
        print("no cells were run")
        return
    hdr = f"{'method':<8} {'snr_db':>7} {'esr_mean':>10} {'esr_std':>9} " \
          f"{'time_s':>9}"
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        print(f"{r['method']:<8} {r['snr_db']:>7.1f} {r['esr_mean']:>10.4f} "
              f"{r['esr_std']:>9.4f} {r['time_mean_s']:>9.3f}")


def _with_overrides(cfg: ExperimentConfig, out_dir=None,
                    threads=None) -> ExperimentConfig:
    """``cfg`` with the flag overrides, then the environment's, applied.

    RSMETA_OUT_DIR and RSMETA_THREADS win over ``--out-dir`` and
    ``--threads``, which win over the config. This is the only place the
    package reads the environment.
    """
    changes = {}
    if out_dir:
        changes["out_dir"] = out_dir
    if threads is not None:
        changes["n_threads"] = threads
    if ENV_OUT_DIR in os.environ:
        changes["out_dir"] = os.environ[ENV_OUT_DIR]
    raw = os.environ.get(ENV_THREADS)
    if raw is not None:
        try:
            changes["n_threads"] = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, "
                             f"got {raw!r}") from None
    return dataclasses.replace(cfg, **changes)


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    """``run`` and the demos: override, sweep (which validates), report."""
    result = run_sweep(_with_overrides(cfg, args.out_dir, args.threads))
    paths = write_reports(result)
    _print_summary(result)
    print(f"\nwrote {paths['csv']} and {paths['json']}")
    return 0


def _cmd_gradcheck(args) -> int:
    report = gradcheck_suite(seed=args.seed, n_instances=args.instances)
    print(f"checked {report['n_instances']} random instances")
    print(f"precoder gradient: max relerr {report['precoder_max_relerr']:.3e} "
          f"(tol {report['precoder_tol']:.0e})")
    print(f"network gradient:  max relerr {report['theta_max_relerr']:.3e} "
          f"(tol {report['theta_tol']:.0e})")
    print("PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def _demo_single_layer(quick: bool) -> ExperimentConfig:
    # 0 dB is excluded: there the SNR-tracking error variance equals the
    # channel variance, the estimate collapses to zero, and no direction
    # can be built from it.
    cfg = ExperimentConfig(
        scenario="iid",
        n_tx=4, n_users=4, n_groups=1,
        snr_db=tuple(float(s) for s in range(5, 36, 5)),
        n_csit=5, n_realizations=200,
        master_seed=20240,
        methods=("meta", "direct"),
        meta_iters=300, meta_lr=1e-3, meta_hidden=(50, 50),
        direct_iters=600, direct_lr=0.02,
        out_dir="results-demo-1lrs",
    )
    if quick:
        cfg.snr_db = (5.0, 20.0, 35.0)
        cfg.n_csit = 2
        cfg.n_realizations = 50
        cfg.meta_iters = 60
        cfg.direct_iters = 150
    return cfg


def _demo_grouped(quick: bool) -> ExperimentConfig:
    cfg = ExperimentConfig(
        scenario="one_ring",
        n_tx=16, n_users=8, n_groups=4,
        snr_db=tuple(float(s) for s in range(0, 36, 5)),
        n_csit=4, n_realizations=200,
        master_seed=20241,
        methods=("meta", "fixed"),
        azimuths=(-np.pi / 2, -np.pi / 6, np.pi / 6, np.pi / 2),
        spread=np.pi / 8, tau2=0.4,
        meta_iters=300, meta_lr=1e-3, meta_hidden=(50, 50),
        out_dir="results-demo-hrs",
    )
    if quick:
        cfg.snr_db = (0.0, 15.0, 30.0)
        cfg.n_csit = 2
        cfg.n_realizations = 50
        cfg.meta_iters = 60
    return cfg


def _cmd_validate(args) -> int:
    cfg = _with_overrides(load_config(args.config))
    validate_config(cfg)
    print(f"{args.config}: ok")
    for f in dataclasses.fields(cfg):
        print(f"  {f.name} = {getattr(cfg, f.name)!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rsmeta",
        description="Rate-splitting precoder optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--threads", type=int, default=None)
    p_run.set_defaults(func=lambda a: _cmd_sweep(a, load_config(a.config)))

    p_gc = sub.add_parser("gradcheck",
                          help="finite-difference gradient verification")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--instances", type=int, default=50)
    p_gc.set_defaults(func=_cmd_gradcheck)

    for name, builder, blurb in (
            ("demo-1lrs", _demo_single_layer,
             "preset single-layer sweep on i.i.d. channels"),
            ("demo-hrs", _demo_grouped,
             "preset grouped sweep on one-ring channels")):
        p_demo = sub.add_parser(name, help=blurb)
        p_demo.add_argument("--quick", action="store_true",
                            help="much smaller preset, for smoke testing")
        p_demo.add_argument("--out-dir", default=None)
        p_demo.add_argument("--threads", type=int, default=None)
        p_demo.set_defaults(
            func=lambda a, b=builder: _cmd_sweep(a, b(a.quick)))

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
