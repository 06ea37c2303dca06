"""Measurement loops, environment record and result report.

Imported by ``run.py`` only after it has pinned the BLAS thread count, so
NumPy starts with that setting.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import overlap_sgd
from overlap_sgd.config import ExperimentConfig, validate_config
from overlap_sgd.runner import prepare_seed_artifacts, resolve_dataset, run_suite

from spans import PER_LAYER_UNITS, ROOT_SPAN, Tracer, layer_metrics
from workloads import DEFAULT_SEED, EXPECTED_DIGESTS, ROOT, expectation, check_suite, workload_config

SUITE_DIRS = ROOT / ".perfbench_tmp"  # one directory per suite, removed after it is checked
RESULTS = ROOT / ".perfbench_out"  # result reports and span dumps

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_steps_per_s": "1/s", "peak_rss_mb": "MB"}

MIN_SUITES = 3  # untraced suites per run, however long they take
SETUP_SHARE = 0.12  # set-up reps fill at least this share of suite time, and one runs per suite


def room_for_another(start: float, seconds: float, done: int) -> bool:
    """Whether one more iteration, as long as the mean so far, still ends within ``seconds``.

    Stopping short of the deadline rather than past it keeps every run at
    ``seconds`` whatever one suite costs, so the time budget for all runs holds.
    """
    elapsed = perf_counter() - start
    return done == 0 or elapsed + elapsed / done <= seconds


class CpuRotation:
    """Pins each repetition to the next allowed CPU in turn.

    On a shared host, load from outside can slow one core for minutes while
    another runs free.  Left to the scheduler, a run stays on the core it
    started on, so whole runs split into a fast and a slow group (up to 25%
    apart on a 2-vCPU virtual machine).  Rotating samples every core in
    every run.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self, rep: int) -> None:
        os.sched_setaffinity(0, {self.cpus[rep % len(self.cpus)]})

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def to_config(raw: dict) -> ExperimentConfig:
    config, issues = validate_config(raw)
    if config is None:
        raise ValueError("; ".join(map(str, issues)))
    return config


@dataclass
class Tally:
    """Runs attempted and failed, the output digests seen, and the first few problems."""

    attempted: int = 0
    failed: int = 0
    digests: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def add(self, runs: int, failed: int, problems) -> None:
        self.attempted += runs
        self.failed += failed
        self.problems.extend(list(problems)[: max(0, 20 - len(self.problems))])


def run_suite_checked(config: ExperimentConfig, exp, digest, tally: Tally, tracer: Tracer | None = None):
    """Time one ``run_suite`` call in a fresh temporary directory and check its outputs.

    Returns (wall seconds, bytes written), or None if the suite raised.
    The config's ``output_dir`` is relative and the call runs inside the
    temporary directory, so the manifest bytes do not depend on where that is.
    """
    SUITE_DIRS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=SUITE_DIRS))
    cwd = os.getcwd()
    call = run_suite if tracer is None else tracer.wrap(ROOT_SPAN, run_suite)
    try:
        os.chdir(work)
        gc.collect()
        start = perf_counter()
        try:
            call(config)
        except Exception:  # a suite that raises counts as failed runs, not a crash
            traceback.print_exc()
            tally.add(len(exp.methods) * len(exp.seeds), len(exp.methods) * len(exp.seeds), ["suite raised"])
            return None
        wall = perf_counter() - start
        check = check_suite(work / config.output_dir, exp, digest)
        tally.add(check.runs, check.failed, check.problems)
        tally.digests.add(check.digest)
        return wall, check.bytes_written
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)


def set_up_once(config: ExperimentConfig) -> float:
    """Seconds for the data set-up ``run_suite`` does: dataset plus every seed's artifacts."""
    gc.collect()
    start = perf_counter()
    dataset = resolve_dataset(config)
    for seed in config.seeds:
        prepare_seed_artifacts(dataset, config, seed)
    return perf_counter() - start


def measure_untraced(config, exp, digest, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Alternate set-ups and suites for ``seconds``, so both sample the whole run."""
    setups, walls = [], []
    cpus = CpuRotation()
    start = perf_counter()
    try:
        while len(walls) < MIN_SUITES or room_for_another(start, seconds, len(walls)):
            cpus.pin(len(setups))
            setups.append(set_up_once(config))
            while sum(setups) < SETUP_SHARE * sum(walls):
                cpus.pin(len(setups))
                setups.append(set_up_once(config))
            cpus.pin(len(walls))
            result = run_suite_checked(config, exp, digest, tally)
            if result is None:
                return {}, {}
            walls.append(result[0])
    finally:
        cpus.release()
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "sim_steps_per_s": exp.local_steps() / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"wall_s": walls, "setup_s": setups}


def measure_traced(config, exp, digest, seconds: float, tally: Tally, span_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced suites; per-layer metrics are medians over traced suites."""
    plain, traced, layers = [], [], []
    cpus = CpuRotation()
    start = perf_counter()
    try:
        while not traced or room_for_another(start, seconds, len(traced)):
            cpus.pin(len(plain))
            base = run_suite_checked(config, exp, digest, tally)
            tracer = Tracer()
            with tracer.installed():
                result = run_suite_checked(config, exp, digest, tally, tracer)
            if base is None or result is None:
                return {}, {}
            plain.append(base[0])
            traced.append(result[0])
            layers.append(layer_metrics(tracer.spans) | {"metrics.bytes_written": result[1]})
    finally:
        cpus.release()
    tracer.dump(span_path)
    values = {}
    for name in layers[0]:
        # counts repeat exactly; the low median keeps them integers
        pick = statistics.median_low if PER_LAYER_UNITS[name] in ("count", "bytes") else statistics.median
        values[name] = pick(m[name] for m in layers)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values, {"wall_s": plain, "traced_wall_s": traced}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy older than 1.25 has no dict form
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "overlap_sgd": overlap_sgd.__version__,
        "commit": git_commit(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    raw = workload_config(workload, seed)
    exp = expectation(raw)
    config = to_config(raw)
    digest = EXPECTED_DIGESTS[workload] if seed == DEFAULT_SEED else None
    tally = Tally()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        values, samples = measure_traced(config, exp, digest, seconds, tally, RESULTS / f"spans-{stem}.json")
        units = PER_LAYER_UNITS
    else:
        values, samples = measure_untraced(config, exp, digest, seconds, tally)
        units = END_TO_END_UNITS
    correct = tally.failed == 0 and tally.attempted > 0 and set(values) == set(units)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "failed_share": tally.failed / max(1, tally.attempted),
        "output_digests": sorted(tally.digests),
        "problems": tally.problems,
        "samples": samples,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    (RESULTS / f"result-{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{workload} seed={seed} trace={int(trace)}  environment: {json.dumps(report['environment'])}")
    for problem in tally.problems:
        print(f"  output check failed: {problem}")
    for name, sample in samples.items():
        print(f"  {name}: {len(sample)} samples, min {min(sample):.4f}, max {max(sample):.4f}")
    print(f"  output digests: {' '.join(report['output_digests'])}")
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<30} {shown} {metric['unit']}")
    print(f"  {'failed_share':<30} {report['failed_share']:>16.6f} of {tally.attempted} runs")
    result = {"correct": correct, "attempted": max(1, tally.attempted), "failed": tally.failed, "metrics": report["metrics"]}
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else 1
