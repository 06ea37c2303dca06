#!/usr/bin/env python3
"""Run a config and print one row per method: the mean final train loss and
accuracy over the seeds that finished, the logical seconds and bits of the
run, and how many seeds finished, read back from the manifest and JSONL files
the suite wrote.

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
import json
from pathlib import Path

import numpy as np

from overlap_sgd.cli import load_config, reject, with_dataset
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
    points, problems = [], []
    for value in GRIDS[field]:
        label = f"{field}={value}"
        point, issues = validate_config(
            {**config.to_dict(), field: value, "output_dir": f"{config.output_dir}/{label}"}
        )
        problems += [f"invalid config at {label}: {issue}" for issue in issues]
        points.append((label, point))
    reject(problems)
    return points


def print_table(label, manifest_path):
    """The table of the suite whose manifest is at ``manifest_path`` (a Path), read from the files it names."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    config = manifest["config"]
    print(f"\n{label}: {config['rounds']} rounds, metrics under {config['output_dir']}")
    print(f"  {'method':26s} {'train_loss':>10s} {'train_acc':>9s} {'time_s':>8s} {'comm_bits':>12s}  seeds ok")
    for method in config["methods"]:
        tried = [r for r in manifest["runs"] if r["method"] == method]
        logs = [(manifest_path.parent / r["jsonl"]).read_text(encoding="utf-8") for r in tried if r["status"] == "ok"]
        finals = [json.loads(log.splitlines()[-1]) for log in logs if log]  # a run of 0 rounds has an empty log
        ok = f"{len(finals)}/{len(tried)}"
        if not finals:
            print(f"  {method:26s} {'no seed finished':>43s}  {ok}")
            continue
        loss = np.mean([f["train_loss"] for f in finals])
        acc = np.mean([f["train_accuracy"] for f in finals])
        last = finals[-1]
        print(f"  {method:26s} {loss:10.6f} {acc:9.4f} {last['logical_time']:8d} {last['comm_bits']:12d}  {ok}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=str(DEFAULT_CONFIG))
    parser.add_argument("--sweep", choices=sorted(GRIDS))
    args = parser.parse_args()

    # an input problem exits 1 with the lines `overlap-sgd run` prints for it
    for label, point in grid(load_config(args.config), args.sweep):
        print_table(label, with_dataset(run_suite, point))


if __name__ == "__main__":
    main()
