"""Run one workload: repeated set-up, a closed loop of units, and its metrics.

Untraced mode times the set-up several times, then cycles through the
workload's units, one after another, until the time is up and every unit
has run once, and reports the end-to-end metrics.  Unit times are
summarised by the fastest unit of each kind, summed over the kinds of one
pass: the host's speed drifts by tens of percent over minutes, which moves
a run's median and tail but hardly its minimum (see README.md).  The
median and tail of each kind are kept in the details.

Traced mode runs every unit twice in a row, untraced and then traced, so the
tracing overhead is measured on identical work at nearly the same time, and
reports the per-layer metrics.  Layers that run only during set-up (writing
the data, saving the checkpoint) are read from one extra traced set-up.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
import traceback
from pathlib import Path

from bench.tracing import Tracer, assert_clean
from bench.workloads import FULL, WORKLOADS, Outcome, Settings

END_TO_END = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "run_s_min": "s",
    "rmse_p50": "label",
    "pbcor_p50": "corr",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rows(t: Tracer, span: str) -> int:
    return t.stat(span).counts.get("rows", 0)


# name -> (unit, span whose calls show the layer ran, value from a tracer and a pass count)
_SPECIAL = {
    "network.forward_batch.calls_per_step": (
        "calls/step", "network.adam_step",
        lambda t, n: _ratio(t.stat("network.forward_batch").calls,
                            t.stat("network.adam_step").calls)),
    "network.rows_forwarded_per_step_row": (
        "ratio", "network.backward",
        lambda t, n: _ratio(_rows(t, "network.forward_batch") + _rows(t, "network.backward"),
                            _rows(t, "network.backward"))),
    "network.adam_step.calls": (
        "calls", "network.adam_step", lambda t, n: t.stat("network.adam_step").calls / n),
    "priors.prior_log_density.calls_per_run": (
        "calls", "priors.prior_log_density",
        lambda t, n: t.stat("priors.prior_log_density").calls / n),
    "priors.em_fit.iters": (
        "iters", "priors.em_fit",
        lambda t, n: _ratio(t.stat("priors.em_fit").counts.get("iters", 0),
                            t.stat("priors.em_fit").calls)),
    "engine.select.entries_per_s": (
        "1/s", "engine.joint_log_scores",
        lambda t, n: _ratio(t.stat("engine.joint_log_scores").counts.get("entries", 0),
                            t.stat("engine.joint_log_scores").seconds)),
}

# seconds per pass: inclusive (".s") or self (".self_s") time of the named span
_TIMED = (
    "network.forward_batch.s", "network.backward.s", "network.adam_step.s",
    "network.save_checkpoint.s", "network.load_checkpoint.s",
    "priors.prior_log_density.s", "priors.em_fit.s",
    "engine.joint_log_scores.self_s", "engine.craft_loss_and_grad.self_s", "engine.fit.self_s",
    "data.stratified_label_mask.s", "data.apply_scaler.s", "data.load_csv.s",
    "data.write_csv.s", "data.generate_synthetic.s",
    "metrics.evaluate.s",
    "harness.adapt_in_memory.self_s", "harness.run_sweep.self_s",
    "harness.train_source_in_memory.self_s",
)


def _timed(name: str):
    span, _, kind = name.rpartition(".")
    if kind == "self_s":
        return "s", span, lambda t, n: t.stat(span).self_seconds / n
    return "s", span, lambda t, n: t.stat(span).seconds / n


LAYER_METRICS = {**{name: _timed(name) for name in _TIMED}, **_SPECIAL}


def _quality_cells(settings: Settings):
    for method in settings.methods:
        for fraction in settings.fractions:
            yield method, fraction, f"quality.{method}.lf{round(fraction * 100):02d}"


def quality_names(settings: Settings) -> dict:
    """The quality table's metric names and units, source-only RMSE first."""
    names = {"quality.source.rmse": "label"}
    for method, _, stem in _quality_cells(settings):
        names[f"{stem}.rmse_p50"] = "label"
        if method != "naive":  # a constant predictor has no correlation
            names[f"{stem}.pbcor_p50"] = "corr"
    return names


def per_layer_units(settings: Settings = FULL) -> dict:
    units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    units.update(quality_names(settings))
    units["trace.overhead_frac"] = "frac"
    return units


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    above it.  Below twenty samples that percentile would not exceed the
    median, so the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            settings: Settings = FULL):
    """Run one workload and return (result, details).

    ``result`` is the JSON object the benchmark prints last; ``details``
    holds the run order, sample counts and everything absent or failed.
    Per-layer figures are per pass: per adaptation or source training, or
    per grid of cells swept for one run seed.
    """
    workload = WORKLOADS[name](settings, workdir)
    keys = workload.unit_keys()
    order = random.Random(seed).sample(keys, len(keys))
    passes_per_unit = len(settings.run_seeds) / len(keys)
    setup_times = []
    while len(setup_times) < settings.min_setups or sum(setup_times) < settings.min_setup_s:
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    details = {"workload": name, "seed": seed, "trace": int(trace), "units": order,
               "setups": len(setup_times)}
    reference: dict = {}
    if trace:
        source_only = workload.source_only_rmse()
        outcomes, metrics = _traced(workload, order, seconds, reference, details,
                                    passes_per_unit)
    else:
        outcomes = []
        start = time.perf_counter()
        i = 0
        while i < len(order) or time.perf_counter() - start < seconds:
            outcomes.append(_unit(workload, order[i % len(order)], reference))
            i += 1
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if trace:
        metrics.update(_quality(reference, settings, source_only))
        units = per_layer_units(settings)
        details["absent"] = sorted(k for k in units if metrics.get(k) is None)
        metrics = {k: metrics.get(k) or 0.0 for k in units}  # absent layers did no work
    else:
        by_kind: dict = {}
        for o in outcomes:
            if o.seconds is not None:
                by_kind.setdefault(o.kind, []).append(o)
        fastest = [min(runs, key=lambda o: o.seconds) for runs in by_kind.values()]
        run_s_min = sum(o.seconds for o in fastest) or None
        details["run_s"] = {kind: _summary([o.seconds for o in runs])
                            for kind, runs in by_kind.items()}
        headline = [r for r in reference.values() if r.method == workload.headline]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "train_rows_per_s": run_s_min and sum(o.train_rows for o in fastest) / run_s_min,
            "run_s_min": run_s_min,
            "rmse_p50": _median([r.rmse for r in headline]),
            "pbcor_p50": _median([r.pbcor for r in headline]),
            "ok_frac": 1.0 - _ratio(failed, attempted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    details["problems"] = [p for o in outcomes for p in o.problems][:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    return result, details


def _summary(run_s: list) -> dict:
    tail_s, tail_pct = tail(run_s)
    return {"samples": len(run_s), "min": min(run_s), "p50": statistics.median(run_s),
            "tail": tail_s, "tail_percentile": tail_pct}


def _unit(workload, key, reference: dict) -> Outcome:
    """One unit, with the reproducibility check: a run repeated with the same
    seed must give bit-identical quality."""
    try:
        out = workload.unit(key)
    except Exception as exc:  # a failed unit is counted, and the loop goes on
        out = Outcome(None, 0, attempted=1, failed=1,
                      problems=[f"unit {key}: {type(exc).__name__}: {exc}",
                                traceback.format_exc(limit=3)])
    for run in out.runs:
        cell = (run.method, run.fraction, run.seed)
        first = reference.setdefault(cell, run)
        if (first.rmse, first.pbcor) != (run.rmse, run.pbcor):
            out.failed += 1
            out.problems.append(f"{cell} not reproducible: {first.rmse!r} then {run.rmse!r}")
    return out


def _traced(workload, order, seconds, reference, details, passes_per_unit):
    setup_tracer = Tracer()
    with setup_tracer.installed():
        workload.setup()
    untraced, traced = [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        for key in order:
            assert_clean()
            untraced.append(_unit(workload, key, reference))
            with tracer.installed():
                traced.append(_unit(workload, key, reference))
        if time.perf_counter() - start >= seconds:
            break
    assert_clean()
    metrics = {}
    from_setup = []
    for name, (_, span, value) in LAYER_METRICS.items():
        if tracer.stat(span).calls:
            metrics[name] = value(tracer, len(traced) * passes_per_unit)
        elif setup_tracer.stat(span).calls:
            metrics[name] = value(setup_tracer, 1)
            from_setup.append(name)
    pairs = [(u.seconds, t.seconds) for u, t in zip(untraced, traced)
             if u.seconds is not None and t.seconds is not None]
    traced_s, untraced_s = sum(t for _, t in pairs), sum(u for u, _ in pairs)
    metrics["trace.overhead_frac"] = _ratio(traced_s, untraced_s) - 1.0
    details["traced_units"] = len(traced)
    details["from_setup"] = from_setup
    details["missing_wrap_points"] = sorted(set(tracer.absent) | set(setup_tracer.absent))
    return untraced + traced, metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _quality(reference: dict, settings: Settings, source_only) -> dict:
    out = {"quality.source.rmse": source_only}
    for method, fraction, stem in _quality_cells(settings):
        runs = [r for r in reference.values() if (r.method, r.fraction) == (method, fraction)]
        out[f"{stem}.rmse_p50"] = _median([r.rmse for r in runs])
        if method != "naive":
            out[f"{stem}.pbcor_p50"] = _median([r.pbcor for r in runs])
    return out
