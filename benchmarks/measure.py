"""The timed part of a run: untraced end-to-end figures or traced layer figures."""

import json
import os
import resource
import statistics
from time import perf_counter

from spans import Recorder, self_times, tail_percentile
from speed import calibration_s, to_reference
from workloads import Failures

# layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "families.instance_s": ("families.swh_instance", "families.three_monomial_instance",
                            "families.puiseux_spectrum", "families.puiseux_instance"),
    "spectra.make_spectrum_s": ("spectra.make_spectrum",),
    "spectra.stats_s": ("spectra.stats_of_values", "spectra.subset_stats"),
    "conjecture.thm31_s": ("conjecture.thm31_verdict",),
    "rational.render_s": ("rational.format_ratio", "rational.decimal_str"),
    "cli.output_s": ("cli.cmd_sweep",),
    "cli.sweep_row_s": ("cli.sweep_row",),
    "poly.parse_s": ("poly.parse_poly",),
    "localg.std_basis_s": ("localg.local_std_basis",),
    "localg.oracle_s": ("localg.colength_oracle",),
}
EXACT_COUNTS = ("families.values", "spectra.stats_calls", "spectra.values_summed",
                "localg.std_basis_calls", "localg.basis_size")


def _run_pass(work, rec, errors):
    """Run every call once; a call that raises leaves None (its items fail).

    Returns the outputs and each call's time.  Each call's time, and the
    durations of the items and spans it recorded, are rescaled to reference
    speed by the calibration kernel run right after the call.
    """
    outputs, times = [], []
    for call in work.calls:
        first_item, first_span = len(rec.items), len(rec.spans)
        start = perf_counter()
        try:
            outputs.append(work.run_call(call, rec))
        except Exception as exc:
            outputs.append(None)
            errors.append(repr(exc))
        secs = perf_counter() - start
        cal = calibration_s()
        times.append(to_reference(secs, cal))
        rec.items[first_item:] = [(key, to_reference(item_s, cal), produced)
                                  for key, item_s, produced in rec.items[first_item:]]
        rec.spans[first_span:] = [(sid, parent, name, t0, t0 + to_reference(t1 - t0, cal), item)
                                  for sid, parent, name, t0, t1, item in rec.spans[first_span:]]
    return outputs, times


def _gate(work, passes, errors):
    fails = Failures()
    try:
        work.check(passes, fails)
    except Exception as exc:  # a check that cannot run fails the run
        fails.item(False, f"check raised {exc!r}")
    return {"attempted": fails.attempted, "failed": len(fails.failed),
            "failures": (errors + fails.failed)[:20], "work": work.work()}


def untraced(work, seconds):
    """Run whole passes until ``seconds`` have passed; time every call and item
    at reference speed."""
    rec = Recorder()
    passes, errors = [], []
    call_times = [[] for _ in work.calls]
    with rec.patch():
        start = perf_counter()
        while True:
            outputs, times = _run_pass(work, rec, errors)
            passes.append(outputs)
            for per_call, secs in zip(call_times, times):
                per_call.append(secs)
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                break

    # Every time is at reference speed (see speed.py); each call and each
    # item is represented by the median of its repetitions in the run.
    repeats = {}
    for key, secs, produced in rec.items:
        if produced:
            repeats.setdefault(key, []).append(secs)
    done = sum(1 for _, _, produced in rec.items if produced)
    item_ms = [1e3 * statistics.median(secs) for secs in repeats.values()]
    pct, tail = tail_percentile(item_ms)
    return {
        "passes": len(passes), "elapsed_s": elapsed, "items_done": done,
        "distinct_items": len(item_ms), "tail_percentile": pct,
        "metrics": {
            "items_per_s": done / len(passes) / sum(map(statistics.median, call_times)),
            "item_p50_ms": statistics.median(item_ms),
            "item_tail_ms": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        **_gate(work, passes, errors),
    }


def _layers(rec, rows):
    st = self_times(rec.spans)
    out = {name: sum(st.get(s, 0.0) for s in spans)
           for name, spans in SELF_TIME_METRICS.items()}
    out["families.values"] = rec.counts["families.values"]
    out["spectra.stats_calls_per_row"] = rec.counts["spectra.stats_calls"] / rows if rows else 0
    out["spectra.values_summed"] = rec.counts["spectra.values_summed"]
    out["localg.std_basis_calls"] = rec.counts["localg.std_basis_calls"]
    out["localg.basis_size"] = rec.counts["localg.basis_size"]
    return out


def traced(work, seconds, out_dir):
    """Alternate untraced and traced passes over the same inputs until
    ``seconds`` have passed (two rounds at least).

    Layer figures are medians over the traced passes, at reference speed
    like the untraced ones, and the exact counts must agree between them.
    """
    passes, errors = [], []
    walls = {False: [], True: []}
    layers, counts = [], []
    start = perf_counter()
    while len(layers) < 2 or perf_counter() - start < seconds:
        for trace in (False, True):
            rec = Recorder(trace=trace)
            with rec.patch():
                outputs, times = _run_pass(work, rec, errors)
            passes.append(outputs)
            walls[trace].append(sum(times))
            if trace:
                rows = sum(1 for _, _, produced in rec.items if produced)
                layers.append(_layers(rec, rows))
                counts.append({k: rec.counts[k] for k in EXACT_COUNTS})

    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{work.name}-seed{work.seed}.jsonl")
    with open(path, "w") as fh:
        for span in rec.spans:
            fh.write(json.dumps(span) + "\n")
    gate = _gate(work, passes, errors)
    if any(c != counts[0] for c in counts):
        gate["failed"] += 1
        gate["failures"].append(f"exact counts differ between traced passes: {counts}")
    return {"passes": len(passes), "counts": counts[0], "spans_file": path,
            "metrics": metrics, **gate}
