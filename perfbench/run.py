"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 --trace 0

Prints one ``name = value unit`` line per metric, then diagnostic lines
starting with ``#``, and as the last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload untraced and
then traced, and reports the per-layer breakdown.  The exit code is 1 when
any job failed or any routed output failed the correctness check, and 2
(with no result line) when the benchmark cannot run at all: the program's
``src/`` tree is absent, or a frozen input differs from its manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig8_sweep", "serve_cold", "serve_hot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(run, trace: bool) -> dict:
    """Print the human-readable lines; returns the result object."""
    from perfbench.workloads import (END_TO_END, PER_LAYER, UNGATED, UNITS,
                                     layer_unit)

    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name in wanted:
        if name in run.metrics:
            unit = layer_unit(name) if trace else UNITS[name]
            metrics[name] = {"value": run.metrics[name], "unit": unit}
            print(f"{name} = {run.metrics[name]:.6g} {unit}")
    for name in () if trace else UNGATED:
        if name in run.metrics:
            print(f"{name} = {run.metrics[name]:.6g} {UNITS[name]} "
                  "(printed, not gated)")
    failed = len(run.failures)
    ratio = failed / run.attempted if run.attempted else 1.0
    print(f"error_ratio = {ratio:.6g} ratio ({failed} of {run.attempted} "
          f"jobs failed or were refused, timed out or routed incorrectly)")
    print("# diagnostics " + json.dumps(run.diagnostics, sort_keys=True))
    absent = [name for name in wanted if name not in metrics]
    if absent:
        print("# missing " + json.dumps(
            {"metrics": absent, "reasons": run.missing}, sort_keys=True))
    for index in sorted(run.failures)[:10]:
        print(f"# failure job {index}: {run.failures[index]}")
    return {"correct": failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's source tree src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import inputs
    from perfbench.workloads import WORKLOADS

    try:
        inputs.verify()
    except inputs.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: the {args.workload} run could not complete: {exc}",
              file=sys.stderr)
        return 2
    result = report(run, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
