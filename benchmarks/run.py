"""Benchmark of tjspectra's sweeps and local standard-basis engine.

    python3 benchmarks/run.py --workload swh-sweep --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is there): swh-sweep,
puiseux-sweep and engine-corpus; without ``--workload`` all of them run one
after another.  Every run works on the package under src/
of the checkout this file sits in; nothing is installed.

With ``--trace 0`` a run measures set-up time in fresh interpreters, then
runs whole passes of the workload in one more fresh interpreter for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
All times are at reference speed: each is rescaled by a fixed kernel
timed right next to it (speed.py), so that the shared host's changes of
speed cancel; in an untraced run each call and item counts as the median
of its repetitions.
Either way every output is checked; the last line of stdout is one JSON
object, and the exit code is 1 when any item failed its check.  A traced
run prints, beside each layer metric, the end-to-end metric it should move.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_START_S, interpreter_start_s, to_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# layer metric -> the end-to-end metrics and workloads it should move
LAYER_TARGETS = {
    "families.instance_s": "items_per_s on swh-sweep and puiseux-sweep; 0 on engine-corpus",
    "families.values": "exact count (sum of mu generated); repeats exactly",
    "spectra.make_spectrum_s": "items_per_s and item_p50_ms on both sweeps",
    "spectra.stats_s": "items_per_s and item_p50_ms on both sweeps",
    "spectra.stats_calls_per_row": "exact count per output row; one pass of statistics "
                                   "per result would make it 1",
    "spectra.values_summed": "exact count; total length of stats_of_values inputs",
    "conjecture.thm31_s": "items_per_s and item_p50_ms on both sweeps",
    "rational.render_s": "items_per_s on the sweeps",
    "cli.output_s": "items_per_s on the sweeps",
    "cli.sweep_row_s": "items_per_s on the sweeps",
    "poly.parse_s": "items_per_s on puiseux-sweep and engine-corpus",
    "localg.std_basis_s": "items_per_s and item_tail_ms on engine-corpus, items_per_s on "
                          "puiseux-sweep; 0 on swh-sweep",
    "localg.std_basis_calls": "exact count; 0 on swh-sweep",
    "localg.basis_size": "exact count (generators returned); 0 on swh-sweep",
    "localg.oracle_s": "items_per_s on engine-corpus",
    "trace.overhead_s": "traced minus untraced wall time of the same passes",
}


def _child(role, workload, args):
    cmd = [sys.executable, CHILD, "--role", role, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark {role} process exited {proc.returncode}")
    return start, json.loads(proc.stdout.splitlines()[-1])


def _environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "git_sha": sha}


def run_workload(workload, args):
    """Measure one workload, print its report, and return whether it passed."""
    metrics = {}
    if not args.trace:
        setups = []
        for _ in range(SETUP_SAMPLES):
            bare = interpreter_start_s(ROOT)
            start, out = _child("setup", workload, args)
            setups.append(to_reference(out["ready"] - start, bare, REFERENCE_START_S))
        metrics["setup_s"] = statistics.median(setups)
    _, result = _child("measure", workload, args)
    metrics.update(result.pop("metrics"))

    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(_environment()))
    print(f"work per pass {json.dumps(result['work'])}  passes {result['passes']}")
    for name, value in metrics.items():
        line = f"  {name:30s} {value:14.6f} {UNITS[name]}"
        if name == "setup_s":
            line += f"  (median of {SETUP_SAMPLES} fresh interpreters, at reference speed)"
        elif name == "item_tail_ms":
            line += (f"  (p{result['tail_percentile']} of {result['distinct_items']} "
                     f"distinct items, each the median of its repetitions)")
        elif name == "item_p50_ms":
            line += (f"  ({result['items_done']} item runs; items_per_s uses each "
                     f"call's median repetition)")
        elif args.trace:
            line += f"  -> {LAYER_TARGETS[name]}"
        print(line)
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_ratio':30s} {ratio:14.6f} ratio  "
          f"({result['failed']} of {result['attempted']} items)")
    for why in result["failures"]:
        print(f"  FAILED {why}")
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }), flush=True)
    return correct


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload; all of them, one after another, when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tjspectra", "__init__.py")):
        print(f"no tjspectra package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    passed = [run_workload(w, args) for w in workloads]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
