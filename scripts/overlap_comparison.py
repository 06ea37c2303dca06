#!/usr/bin/env python3
"""Run the matched-round sparse-method comparison and print the loss table."""

import argparse
import collections
from pathlib import Path

import numpy as np

from overlap_sgd.config import load_config_file
from overlap_sgd.runner import run_suite

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "overlap_comparison.yaml"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(DEFAULT_CONFIG))
    args = parser.parse_args()

    config, issues = load_config_file(args.config)
    if issues:
        raise SystemExit("\n".join(str(i) for i in issues))

    result = run_suite(config)
    finals = collections.defaultdict(list)
    for run in result.runs:
        finals[run.method].append(run.records[-1].train_loss)

    print(f"\nfinal train loss over {len(config.seeds)} seeds "
          f"({config.rounds} rounds, round duration "
          f"{config.compute_periods}*lcm + {config.comm_seconds}s):")
    for method in config.methods:
        vals = finals[method]
        print(f"  {method:26s} mean {np.mean(vals):.6f}  (per seed: "
              + ", ".join(f"{v:.6f}" for v in vals) + ")")
    print(f"\nmetrics written under {config.output_dir}")


if __name__ == "__main__":
    main()
