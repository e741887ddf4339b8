"""Command-line front end.

Subcommands:

* ``run``        sweep from a config file, reports to CSV and JSON
* ``gradcheck``  finite-difference verification of both gradient paths
* ``validate``   parse and check a config file without running anything

A sweep is defined by its config file; ``configs/`` ships the presets
(``single_layer.cfg``, ``grouped_ring.cfg``) and two quick smoke runs
(``smoke.cfg``, ``smoke_ring.cfg``). ``run`` takes ``--out-dir`` and
``--threads`` over the config's ``out.dir`` and ``threads`` and checks
once, the config it runs: the file with its flags applied. ``validate``
checks the file as written. Nothing in the package reads the environment.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .gradcheck import gradcheck_suite
from .harness import _read_config, load_config, run_sweep, write_reports

__all__ = ["main", "entry"]


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


def _cmd_run(args) -> int:
    """Parse, apply ``--out-dir`` and ``--threads``, sweep (which
    validates, once), report."""
    changes = {}
    if args.out_dir:
        changes["out_dir"] = args.out_dir
    if args.threads is not None:
        changes["n_threads"] = args.threads
    cfg = dataclasses.replace(_read_config(args.config), **changes)
    result = run_sweep(cfg)
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


def _cmd_validate(args) -> int:
    """Load, which validates, and print the config."""
    cfg = load_config(args.config)
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
    p_run.set_defaults(func=_cmd_run)

    p_gc = sub.add_parser("gradcheck",
                          help="finite-difference gradient verification")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--instances", type=int, default=50)
    p_gc.set_defaults(func=_cmd_gradcheck)

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
