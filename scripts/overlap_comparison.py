#!/usr/bin/env python3
"""Run a config and print one row per method: the mean final train loss and
accuracy over the seeds that finished, the logical seconds and bits of the
run, and how many seeds finished.

--sweep FIELD reruns the config at every value of FIELD's grid, each point
writing under <output_dir>/<FIELD>=<value> with a manifest that
`overlap-sgd run` replays:

  comm_seconds     the communication window; the overlap advantage grows with
                   it (at zero delay the three sparse methods coincide)
  compute_periods  the local compute window, in base periods
  sparsity         the communicated fraction; the bit axis shifts while the
                   loss changes only mildly
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from overlap_sgd.cli import _load_or_complain, _with_dataset
from overlap_sgd.config import validate_config
from overlap_sgd.runner import run_suite

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "overlap_comparison.yaml"
GRIDS = {
    "comm_seconds": (12, 48),
    "compute_periods": (1, 4, 16, 64),
    "sparsity": (0.001, 0.01, 0.1, 1.0),
}


def grid(config, field):
    """(label, config) per grid point; exits, having run nothing, if any point is invalid."""
    if field is None:
        return [(config.name, config)]
    points = []
    for value in GRIDS[field]:
        label = f"{field}={value}"
        point, issues = validate_config(
            {**config.to_dict(), field: value, "output_dir": f"{config.output_dir}/{label}"}
        )
        for issue in issues:
            print(f"invalid config at {label}: {issue}", file=sys.stderr)
        points.append((label, point))
    if any(point is None for _, point in points):
        sys.exit(1)
    return points


def print_table(label, config, runs):
    print(f"\n{label}: {config.rounds} rounds, metrics under {config.output_dir}")
    print(f"  {'method':26s} {'train_loss':>10s} {'train_acc':>9s} {'time_s':>8s} {'comm_bits':>12s}  seeds ok")
    for method in config.methods:
        tried = [r for r in runs if r.method == method]
        finals = [r.records[-1] for r in tried if r.status == "ok" and r.records]
        ok = f"{len(finals)}/{len(tried)}"
        if not finals:
            print(f"  {method:26s} {'no seed finished':>43s}  {ok}")
            continue
        loss = np.mean([f.train_loss for f in finals])
        acc = np.mean([f.train_accuracy for f in finals])
        last = finals[-1]
        print(f"  {method:26s} {loss:10.6f} {acc:9.4f} {last.logical_time:8d} {last.comm_bits:12d}  {ok}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=str(DEFAULT_CONFIG))
    parser.add_argument("--sweep", choices=sorted(GRIDS))
    args = parser.parse_args()

    config, failed = _load_or_complain(args.config)
    if failed:
        sys.exit(1)
    for label, point in grid(config, args.sweep):
        result = _with_dataset(run_suite, point)  # one error line, not a traceback
        if result is None:
            sys.exit(1)
        print_table(label, point, result.runs)


if __name__ == "__main__":
    main()
