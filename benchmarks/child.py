"""One fresh interpreter of a benchmark run (started by run.py).

``--role setup`` imports tjspectra, builds the workload's inputs and prints
the CLOCK_MONOTONIC reading at the point where the first call into the work
would be made; run.py subtracts the reading it took before starting this
process.  ``--role measure`` then does the work and prints one JSON object:
with ``--trace 0`` the end-to-end figures, with ``--trace 1`` the per-layer
ones.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402  (imports tjspectra)


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def main():
    args = _args()
    work = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    import measure  # only the measuring process pays for importing the harness
    if args.trace:
        result = measure.traced(work, args.seconds, os.path.join(ROOT, ".bench_out"))
    else:
        result = measure.untraced(work, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
