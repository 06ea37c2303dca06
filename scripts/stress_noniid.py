#!/usr/bin/env python3
"""Non-i.i.d. stress test: long communication window over Dirichlet shards.

Diagnostic, not a benchmark: with strongly heterogeneous worker objectives
the many extra overlap steps pull workers toward their local optima, and
blocking sparse averaging can end up ahead.
"""

import argparse
import collections
from pathlib import Path

import numpy as np

from overlap_sgd.config import load_config_file
from overlap_sgd.runner import run_suite

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "stress_noniid.yaml"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(DEFAULT_CONFIG))
    args = parser.parse_args()

    config, issues = load_config_file(args.config)
    if issues:
        raise SystemExit("\n".join(str(i) for i in issues))

    result = run_suite(config)
    acc = collections.defaultdict(list)
    skipped = set()
    for run in result.runs:
        if run.status == "ok":
            acc[run.method].append(run.records[-1].train_accuracy)
        else:
            skipped.add(run.seed)
    if skipped:
        print(f"note: seeds {sorted(skipped)} skipped (a worker received no examples)")
    print(f"\nfinal train accuracy over {len(config.seeds) - len(skipped)} seeds "
          f"(dirichlet alpha {config.partition.alpha}, window {config.comm_seconds}s):")
    for method in config.methods:
        print(f"  {method:26s} mean {np.mean(acc[method]):.4f}")


if __name__ == "__main__":
    main()
