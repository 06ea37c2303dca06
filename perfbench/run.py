"""Repository benchmark for overlap-sgd: times ``overlap_sgd.runner.run_suite``.

Run from the repository root:

    python3 perfbench/run.py --workload w1_overlap_comparison --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all     # every workload, each in a fresh process

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any output check fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, ROOT, WORKLOADS  # no NumPy import, so safe before the BLAS pin

# One BLAS thread: all load comes from this one process, and timings stay
# steadier when other processes compete for the cores.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed; the default has recorded digests")
    p.add_argument("--seconds", type=float, default=60.0, help="how long to measure suites")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    codes = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "overlap_sgd" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'overlap_sgd'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before anything imports NumPy
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
