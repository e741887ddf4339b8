"""rsmeta benchmark: sweep, per-call and quality metrics, or a traced run.

Run from the root of a checkout (it imports the package from ``src/``):

    python3 perfbench/run.py --workload iid-sweep --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` measures untraced and traced passes in turn and reports the
per-layer metrics. Either way, passes repeat until the next one would end
after ``--seconds``. A table goes to standard output first; its last line
is one JSON object whose metrics are the ones BENCHMARK.json names. Files
land in ``.bench_out/`` of the checkout. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One process runs one cell at a time; a second BLAS thread would only add
# scheduling noise on the small products here. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# The benchmark fixes output directory and thread count itself.
for _var in ("RSMETA_OUT_DIR", "RSMETA_THREADS"):
    os.environ.pop(_var, None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import rsmeta

    import layers
    import tracer
    import workloads
except ImportError as exc:
    sys.exit(f"cannot import rsmeta from {SRC}: {exc}")
if Path(rsmeta.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"rsmeta was imported from {rsmeta.__file__}, not from {SRC}")

HELD_OUT_SEED = 7919      # never used while tuning; gains must re-check on it
SETUPS_PER_PASS = 2

# Times `import rsmeta` plus loading the workload config in a fresh
# interpreter; load_config validates what it loads.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rsmeta
rsmeta.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""

# per-layer values that must be identical in every traced pass
_REPEATING = (".calls", "projection_flops", "projection_bytes", "iterations",
              "splits_evaluated", "useful_iter_frac")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unresolved ({ref})"


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(BLAS_THREADS)},
        "rsmeta": getattr(rsmeta, "__version__", "unknown"),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(cfg_path: Path) -> list:
    """Set-up times of :data:`SETUPS_PER_PASS` fresh interpreters."""
    times = []
    for _ in range(SETUPS_PER_PASS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(cfg_path)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.split()[-1]))
    return times


def repeat(seconds: float, once) -> None:
    """Call ``once`` until the next call would end after ``seconds``, or
    until it returns False; always at least once."""
    t0 = time.perf_counter()
    n = 0
    while True:
        ok = once()
        n += 1
        elapsed = time.perf_counter() - t0
        if not ok or elapsed * (n + 1) / n > seconds:
            return


def measure(name, cfg, out_dir, trace=None):
    """One pass, with the tracer's wrappers installed when one is given.

    Returns the pass, the targets absent from the package, and whether
    every patched attribute holds its original again.
    """
    patches = tracer.Patches()
    absent = layers.install(patches, trace) if trace is not None else []
    try:
        result = workloads.PASSES[name](cfg, out_dir / "reports", patches)
    finally:
        patches.undo()
    return result, absent, not patches.unrestored()


def score_cells(passes):
    """Cells attempted and failed, and failures per check name."""
    attempted = sum(p.n_expected for p in passes)
    failed = 0
    per_check = Counter()
    for p in passes:
        failed += p.n_expected - len(p.cells)
        for cell in p.cells:
            bad = workloads.failed_checks(cell)
            per_check.update(bad)
            failed += bool(bad)
    return attempted, failed, per_check


def _median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(cfg, passes, setups):
    """(rows for the table, values keyed by BENCHMARK.json name)."""
    base = next(m for m in cfg.methods if m != "meta")
    esr = workloads.esr_by_method(passes[0].cells)
    calls = {m: [1e3 * c.call_s for p in passes for c in p.cells
                 if c.method == m] for m in ("meta", base)}
    n_cells = {m: sum(c.method == m for c in passes[0].cells)
               for m in ("meta", base)}
    attempted, failed, _ = score_cells(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # (table name, value, unit, samples, BENCHMARK.json name)
    rows = [
        ("setup_s", statistics.median(setups), "s", f"{len(setups)} setups",
         "setup_s"),
        ("sweep_s", statistics.median(p.seconds for p in passes), "s",
         f"{len(passes)} passes", "sweep_s"),
        ("meta_call_ms_p50", _median_or_nan(calls["meta"]), "ms",
         f"{len(calls['meta'])} calls", "meta_call_ms_p50"),
        (f"{base}_call_ms_p50", _median_or_nan(calls[base]), "ms",
         f"{len(calls[base])} calls", "baseline_call_ms_p50"),
        ("esr_meta", esr.get("meta", float("nan")), "bits/s/Hz",
         f"{n_cells['meta']} cells", "esr_meta"),
        (f"esr_{base}", esr.get(base, float("nan")), "bits/s/Hz",
         f"{n_cells[base]} cells", "esr_baseline"),
        ("failed_frac", failed / attempted, "ratio", f"{attempted} cells",
         None),
        ("peak_rss_mb", rss_mb, "MB", "1 process", "peak_rss_mb"),
    ]
    values = {key: value for _, value, _, _, key in rows if key}
    values["cells_ok_frac"] = 1.0 - failed / attempted
    return rows, values


def run_untraced(args, cfg, cfg_path, out_dir):
    passes, setups = [], []

    def once():
        result, _, _ = measure(args.workload, cfg, out_dir)
        passes.append(result)
        # set-ups between passes meet the same machine states the passes do
        setups.extend(setup_seconds(cfg_path))
        return result.error is None

    repeat(args.seconds, once)
    rows, values = end_to_end(cfg, passes, setups)
    samples = {"pass_s": [p.seconds for p in passes], "setup_s": setups,
               "call_ms": [[c.method, 1e3 * c.call_s]
                           for p in passes for c in p.cells]}
    return passes, rows, values, {}, samples


def run_traced(args, cfg, cfg_path, out_dir):
    checks = {"self_time_selftest": layers.self_time_selftest()}
    plain, traced, per_pass = [], [], []
    last = {"absent": [], "spans": []}

    def note(name, ok):
        checks[name] = checks.get(name, True) and ok

    def once():
        result, _, restored = measure(args.workload, cfg, out_dir)
        plain.append(result)
        note("patches_restored", restored)
        if result.error is not None:
            return False
        trace = tracer.Tracer()
        result, absent, restored = measure(args.workload, cfg, out_dir, trace)
        traced.append(result)
        note("patches_restored", restored)
        if result.error is not None:
            return False
        metrics = layers.layer_metrics(trace.spans)
        per_pass.append(metrics)
        for name, ok in layers.trace_checks(trace.spans, metrics).items():
            note(name, ok)
        note("useful_iter_matches_history",
             layers.history_matches_trace(trace.spans, result.cells))
        last["absent"], last["spans"] = absent, trace.spans
        return True

    repeat(args.seconds, once)
    values = {}
    for key in per_pass[0] if per_pass else ():
        series = [m[key] for m in per_pass]
        if key.endswith(_REPEATING):
            note("counts_repeat", len(set(series)) == 1)
            values[key] = series[0]
        else:
            values[key] = statistics.median(series)
    if plain and traced:
        values["trace.overhead_frac"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in plain) - 1.0)
    write_spans(out_dir / "spans.json", last["spans"])
    rows = [(key, value, _layer_unit(key), f"{len(per_pass)} traced passes",
             key) for key, value in values.items()]
    rows += [(f"absent: {t}", float("nan"), "", "", None)
             for t in last["absent"]]
    samples = {"untraced_pass_s": [p.seconds for p in plain],
               "traced_pass_s": [p.seconds for p in traced]}
    return plain + traced, rows, values, checks, samples


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_ms", "ms"), ("_frac", "ratio"),
                         ("_bytes", "bytes"), ("_flops", "flop")):
        if name.endswith(suffix):
            return unit
    return "count"


def write_spans(path: Path, spans) -> None:
    """Spans of the last traced pass: [name, parent, start_ms, end_ms]."""
    t0 = spans[0].start if spans else 0.0
    rows = [[s.name, s.parent, round(1e3 * (s.start - t0), 4),
             round(1e3 * (s.end - t0), 4)] for s in spans]
    path.write_text(json.dumps({"spans": rows}, separators=(",", ":")))


def _number(value):
    return None if value != value else value   # NaN is not JSON


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".bench_out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "workload.cfg"
    cfg_path.write_text(workloads.CONFIGS[args.workload].format(seed=args.seed))
    cfg = rsmeta.load_config(cfg_path)

    prov = provenance(args)
    runner = run_traced if args.trace else run_untraced
    passes, rows, values, checks, samples = runner(args, cfg, cfg_path,
                                                   out_dir)
    attempted, failed, per_check = score_cells(passes)
    first = workloads.esr_by_method(passes[0].cells)
    checks["esr_bit_identical_across_passes"] = all(
        workloads.esr_by_method(p.cells) == first for p in passes)
    errors = [p.error for p in passes if p.error]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = failed == 0 and all(checks.values()) and not missing

    print("provenance " + json.dumps(prov))
    print(f"{args.workload}: {len(passes)} passes, {attempted} cells "
          f"attempted, {failed} failed")
    n_checked = sum(len(p.cells) for p in passes)
    for name in workloads.CHECKS:
        print(f"  check {name:<36} failed {per_check[name]} of {n_checked}")
    for name, ok in checks.items():
        print(f"  check {name:<36} {'ok' if ok else 'FAILED'}")
    for err in errors[:1]:
        print("  pass raised:\n" + err)
    for name in missing:
        print(f"  metric {name} was not measured")
    print(f"{'metric':<44} {'value':>16} {'unit':<10} samples")
    for name, value, unit, n, _ in rows:
        print(f"{name:<44} {value:>16.6g} {unit:<10} {n}")

    metrics = {m["name"]: {"value": _number(values.get(m["name"], float("nan"))),
                           "unit": m["unit"]} for m in wanted}
    (out_dir / "result.json").write_text(json.dumps({
        "provenance": prov, "checks": checks, "check_failures": per_check,
        "rows": [[n, _number(v), u, s] for n, v, u, s, _ in rows],
        "metrics": metrics, "errors": errors, "samples": samples},
        indent=1))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
