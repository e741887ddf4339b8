"""The functions the traced run wraps, and the per-layer numbers it reports.

Each metric is named ``<layer>.<function>`` after the module that defines
the function; iid and one-ring methods of the same name share one metric.
A target missing from the package is reported as absent: its calls read 0.
"""
from __future__ import annotations

import math
import os

from tracer import Span, children_of, self_times


def _loss(args, kwargs, result):
    return float(result[0])


def _n_iters(args, kwargs, result):
    return int(result.n_iters)


def _n_evaluated(args, kwargs, result):
    return int(result.n_evaluated)


def _report_bytes(args, kwargs, result):
    return sum(os.path.getsize(path) for path in result.values())


def _projection(args, kwargs, result):
    """Computed work of one |h^H p|^2 projection: (flops, bytes).

    8 flops per complex multiply-add over (m, n_tx, k, s); bytes are the
    channel stack and precoder read plus the powers written, as computed
    from array sizes, not measured.
    """
    n_tx, s = args[0].value.shape
    m, _, k = args[2].shape
    return (8 * m * n_tx * k * s,
            16 * m * n_tx * k + 16 * n_tx * s + 8 * m * k * s)


# (metric name, target, hook keeping one value per call)
TARGETS = (
    ("channel.draw_pair", "rsmeta.channel:IidCsitModel.draw_pair", None),
    ("channel.draw_pair", "rsmeta.channel:OneRingModel.draw_pair", None),
    ("channel.draw", "rsmeta.channel:IidCsitModel.draw", None),
    ("channel.draw", "rsmeta.channel:OneRingModel.draw", None),
    ("channel.correlation", "rsmeta.channel:OneRingModel.correlation", None),
    ("metaopt.run_meta_opt", "rsmeta.metaopt:run_meta_opt", _n_iters),
    ("metaopt.init_precoder", "rsmeta.metaopt:init_precoder", None),
    ("gradients.grad_wrt_precoder", "rsmeta.gradients:grad_wrt_precoder",
     _loss),
    ("gradients.grad_wrt_theta", "rsmeta.gradients:grad_wrt_theta", _loss),
    ("gradients.loss_from_view", "rsmeta.gradients:loss_from_view", None),
    ("autodiff.csq_project", "rsmeta.autodiff:csq_project", _projection),
    ("autodiff.backward", "rsmeta.autodiff:backward", None),
    ("network.from_vector", "rsmeta.network:MetaNetParams.from_vector", None),
    ("adam.adam_step", "rsmeta.adam:adam_step", None),
    ("baselines.run_direct_adam", "rsmeta.baselines:run_direct_adam",
     _n_iters),
    ("baselines.run_fixed_direction", "rsmeta.baselines:run_fixed_direction",
     _n_evaluated),
    ("rates.saf_report", "rsmeta.rates:saf_report", None),
    ("harness.run_sweep", "rsmeta.harness:run_sweep", None),
    ("harness.write_reports", "rsmeta.harness:write_reports", _report_bytes),
)

NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
_BASELINES = ("baselines.run_direct_adam", "baselines.run_fixed_direction")


def install(patches, tracer) -> list:
    """Wrap every target; return the targets the package does not have."""
    return [target for name, target, hook in TARGETS
            if not patches.replace(target, tracer.wrapper(name, hook))]


def last_improvement(start: float, values) -> int:
    """1-based index of the last value that beat every earlier one and
    ``start``; 0 when none did."""
    best, last = start, 0
    for i, value in enumerate(values, start=1):
        if value > best:
            best, last = value, i
    return last


def improvements(spans, kids, run_name: str) -> list:
    """(iteration of the last improvement, iterations) per optimizer run.

    Rates come from the losses the gradient calls returned: the run's first
    ``grad_wrt_precoder`` is its start point; each later gradient call (of
    the network for meta, of the precoder for direct) is one iteration. A
    run without a traced start point is left out.
    """
    step = "gradients.grad_wrt_theta" if run_name == "metaopt.run_meta_opt" \
        else "gradients.grad_wrt_precoder"
    out = []
    for i, span in enumerate(spans):
        if span.name != run_name:
            continue
        start = next((spans[c].extra for c in kids[i]
                      if spans[c].name == "gradients.grad_wrt_precoder"), None)
        if start is None:
            continue
        losses = [spans[c].extra for c in kids[i] if spans[c].name == step]
        if step == "gradients.grad_wrt_precoder":
            losses = losses[1:]
        out.append((last_improvement(-start, [-x for x in losses]),
                    span.extra))
    return out


def layer_metrics(spans) -> dict:
    """Per-layer counts, times (ms) and ratios from one traced pass."""
    kids = children_of(spans)
    own = self_times(spans, kids)
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_ms"] = 0.0
        out[f"{name}.self_ms"] = 0.0
    out["baselines.run.total_ms"] = 0.0
    out["baselines.run.self_ms"] = 0.0
    for span, self_s in zip(spans, own):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.total_ms"] += 1e3 * (span.end - span.start)
        out[f"{span.name}.self_ms"] += 1e3 * self_s
        if span.name in _BASELINES:
            out["baselines.run.total_ms"] += 1e3 * (span.end - span.start)
            out["baselines.run.self_ms"] += 1e3 * self_s

    def extras(name):
        return [s.extra for s in spans if s.name == name]

    work = extras("autodiff.csq_project")
    out["gradients.projection_flops"] = sum(f for f, _ in work)
    out["gradients.projection_bytes"] = sum(b for _, b in work)
    out["metaopt.iterations"] = sum(extras("metaopt.run_meta_opt"))
    out["baselines.fixed_splits_evaluated"] = sum(
        extras("baselines.run_fixed_direction"))
    out["harness.report_bytes"] = sum(extras("harness.write_reports"))
    for key, run in (("metaopt.useful_iter_frac", "metaopt.run_meta_opt"),
                     ("baselines.direct_useful_iter_frac",
                      "baselines.run_direct_adam")):
        runs = improvements(spans, kids, run)
        if runs:
            out[key] = sum(a for a, _ in runs) / sum(n for _, n in runs)
    return out


def trace_checks(spans, metrics) -> dict:
    """Self-tests of one traced pass: call counts match the iterations."""
    kids = children_of(spans)
    direct_ok = all(
        sum(spans[c].name == "gradients.grad_wrt_precoder" for c in kids[i])
        == span.extra + 1
        for i, span in enumerate(spans)
        if span.name == "baselines.run_direct_adam")
    return {
        "theta_calls_eq_meta_iters": metrics["gradients.grad_wrt_theta.calls"]
        == metrics["metaopt.iterations"] > 0,
        "direct_grad_calls_eq_iters_plus_1": direct_ok,
    }


def history_matches_trace(spans, cells) -> bool:
    """Trace-derived last improvements equal those of the runs' histories.

    Only cells that tracked their history take part; True when none did.
    """
    kids = children_of(spans)
    for method, run in (("meta", "metaopt.run_meta_opt"),
                        ("direct", "baselines.run_direct_adam")):
        hist = [(last_improvement(c.history[0], c.history[1:]),
                 len(c.history) - 1)
                for c in cells if c.method == method and c.history is not None]
        if hist and hist != improvements(spans, kids, run):
            return False
    return True


def self_time_selftest() -> bool:
    """Self time on a fixed span tree equals duration minus child cover.

    root [0, 10] has children a [1, 3], b [2, 5] (overlapping a) and
    c [8, 12] (running past the root's end); a has child d [1.5, 2].
    """
    spans = [Span("root", -1, 0.0, 10.0), Span("a", 0, 1.0, 3.0),
             Span("b", 0, 2.0, 5.0), Span("c", 0, 8.0, 12.0),
             Span("d", 1, 1.5, 2.0)]
    expected = [10.0 - (4.0 + 2.0), 2.0 - 0.5, 3.0, 4.0, 0.5]
    return all(math.isclose(got, want, abs_tol=1e-12)
               for got, want in zip(self_times(spans), expected))
