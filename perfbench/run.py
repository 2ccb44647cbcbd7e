"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload record --seed 1 --seconds 25 --trace 0

Run from anywhere; it works in the checkout that holds it.  Report
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured through the
entry points users call.  With ``--trace 1`` they are the per-layer
ones, from a traced run (see README.md).  A failed check is printed on
standard error and counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("record", "resynth", "live")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_non_negative, default=1)
    parser.add_argument("--seconds", type=_positive, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # relative paths, the server socket's among them
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import traced, workloads

    if args.trace:
        run = getattr(traced, f"trace_{args.workload}")
    else:
        run = getattr(workloads, f"run_{args.workload}")
    work = workloads.fresh_dir(
        os.path.join(".perfbench_work", f"{args.workload}-{os.getpid()}")
    )
    try:
        result = run(args.seed, args.seconds, work, workloads.CORPORA[args.workload])
    except Exception:  # a crashed pass has no metrics to print
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in result.ops.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for line in result.report:
        print(line)
    rate = result.ops.failed / result.ops.attempted
    print(
        f"ops: {result.ops.attempted} attempted, {result.ops.failed} failed "
        f"(error_rate {rate:g})"
    )
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<28} {value:14.6g} {unit}")
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
