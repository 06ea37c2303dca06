"""The benchmark's workloads and the check of what a suite wrote.

Each workload is a raw config mapping, the same schema ``overlap-sgd run``
reads, derived from a workload seed.  The expected record values are
derived here from that mapping alone, independently of the simulator's own
plan code, so the check can catch a simulator that miscounts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
W1_CONFIG = ROOT / "configs" / "overlap_comparison.yaml"

DEFAULT_SEED = 0
SPARSE_METHODS = ["local_sparse", "overlap_overwrite", "overlap_delay_corrected"]
OVERLAP_METHODS = {"overlap_overwrite", "overlap_delay_corrected"}

WORKLOADS = ("w1_overlap_comparison", "w2_highdim_eval", "w3_mask_merge")

# SHA-256 over every output byte of one suite at DEFAULT_SEED (see
# output_digest), recorded with NumPy 2.4.6, scipy-openblas 0.3.31 and one
# BLAS thread.  A change that moves any byte must say why and re-record.
EXPECTED_DIGESTS = {
    "w1_overlap_comparison": "6903b5c60a61848bf0819ebfae47adeeb14195c4f2de0882b91dbee4980897b3",
    "w2_highdim_eval": "ba0cd4822068bbc26e39eacd8e1fbc33900f858e4b85f1a7ac4961c60049ecdd",
    "w3_mask_merge": "fa5afa42408078b4d42b141eb8e90c0a071bab4f788fce859894bcc37a8a7729",
}


def workload_config(name: str, seed: int = DEFAULT_SEED) -> dict:
    """Raw config of workload ``name``; ``seed`` shifts the dataset and run seeds.

    At DEFAULT_SEED, w1 is ``configs/overlap_comparison.yaml`` unchanged
    apart from its output directory.
    """
    if name == "w1_overlap_comparison":
        raw = yaml.safe_load(W1_CONFIG.read_text(encoding="utf-8"))
        n_seeds = len(raw["seeds"])
        raw["seeds"] = [s + n_seeds * seed for s in raw["seeds"]]
    elif name == "w2_highdim_eval":
        raw = {
            "name": name,
            "dataset": {"synthetic": {"dim": 5000, "n_examples": 10000, "separation": 2.0, "seed": 7}},
            "normalize": True,
            "val_fraction": 0.1,
            "partition": {"mode": "shared"},
            "step_times": [1, 1, 2, 2, 3, 3, 6, 6],
            "compute_periods": 1,
            "comm_seconds": 6,
            "methods": list(SPARSE_METHODS),
            "stepsize": 0.1,
            "batch_size": 256,
            "sparsity": 0.3,
            "rounds": 8,
            "seeds": [1 + seed],
        }
    elif name == "w3_mask_merge":
        raw = {
            "name": name,
            "dataset": {"synthetic": {"dim": 100000, "n_examples": 64, "separation": 2.0, "seed": 7}},
            "normalize": True,
            "val_fraction": 0.0,
            "partition": {"mode": "shared"},
            "step_times": [1, 1, 1, 1],
            "compute_periods": 1,
            "comm_seconds": 1,
            "methods": list(SPARSE_METHODS),
            "stepsize": 0.1,
            "batch_size": 8,
            "sparsity": 0.3,
            "rounds": 6,
            "eval_every": 6,
            "seeds": [1 + seed],
        }
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    raw["dataset"]["synthetic"]["seed"] += seed
    raw["output_dir"] = "out"
    return raw


@dataclass(frozen=True)
class Expectation:
    """Exact record values every run of a suite must reproduce."""

    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    rows: tuple[int, ...]  # the rounds that get a record, 0 first
    round_seconds: int
    n_workers: int
    mask_size: int
    value_bit_width: int
    batch_size: int
    steps_per_round: dict  # method -> local steps summed over workers

    @property
    def rounds(self) -> int:
        return self.rows[-1]

    def local_steps(self) -> int:
        """Local SGD steps the whole suite simulates."""
        per_seed = sum(self.steps_per_round[m] for m in self.methods) * self.rounds
        return per_seed * len(self.seeds)


def expectation(raw: dict) -> Expectation:
    taus = [int(t) for t in raw["step_times"]]
    periods = raw.get("compute_periods", 1)
    comm = raw.get("comm_seconds", 0)
    base = math.lcm(*taus)
    pre = sum(periods * base // t for t in taus)
    overlap = sum(comm // t for t in taus)
    rounds = raw["rounds"]
    every = raw.get("eval_every", 1)
    dim = raw["dataset"]["synthetic"]["dim"]
    return Expectation(
        methods=tuple(raw["methods"]),
        seeds=tuple(raw["seeds"]),
        rows=(0,) + tuple(r + 1 for r in range(rounds) if (r + 1) % every == 0 or r == rounds - 1),
        round_seconds=periods * base + comm,
        n_workers=len(taus),
        mask_size=max(1, int(math.floor(raw["sparsity"] * dim + 0.5))),
        value_bit_width=raw.get("value_bit_width", 32),
        batch_size=raw["batch_size"],
        steps_per_round={m: pre + overlap if m in OVERLAP_METHODS else pre for m in raw["methods"]},
    )


def output_digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over every file's name and bytes, in name order; and the byte total."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        name = path.relative_to(out_dir).as_posix().encode("utf-8")
        h.update(len(name).to_bytes(8, "little") + name)
        h.update(len(data).to_bytes(8, "little") + data)
        total += len(data)
    return h.hexdigest(), total


def record_problems(row: dict, expected_round: int, method: str, exp: Expectation) -> list[str]:
    """Closed-form identities one metrics record must satisfy exactly."""
    r = expected_round
    want = {
        "round": r,
        "logical_time": r * exp.round_seconds,
        "comm_bits": 2 * exp.n_workers * exp.mask_size * exp.value_bit_width * r,
        "processed_examples": exp.batch_size * exp.steps_per_round[method] * r,
    }
    return [f"{k}={row.get(k)!r}, expected {v}" for k, v in want.items() if row.get(k) != v]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: int(v) if v.lstrip("-").isdigit() else float(v) for k, v in row.items()} for row in rows]


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_problems(out_dir: Path, run: dict, exp: Expectation) -> list[str]:
    """Every way one manifest run entry departs from the expectation."""
    if run.get("status") != "ok":
        return [f"status {run.get('status')!r}"]
    try:
        csv_rows = _read_csv(out_dir / run["csv"])
        json_rows = _read_jsonl(out_dir / run["jsonl"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
    # compared as JSON text so that NaN (no validation split) equals NaN
    if json.dumps(csv_rows) != json.dumps(json_rows):
        return ["CSV and JSONL records differ"]
    if len(json_rows) != len(exp.rows):
        return [f"{len(json_rows)} records, expected {len(exp.rows)}"]
    problems = []
    for row, r in zip(json_rows, exp.rows):
        problems += [f"row {r}: {p}" for p in record_problems(row, r, run["method"], exp)]
    return problems


@dataclass(frozen=True)
class SuiteCheck:
    runs: int
    failed: int  # every run when a suite-wide check fails
    problems: tuple[str, ...]
    digest: str
    bytes_written: int


def check_suite(out_dir: Path, exp: Expectation, expected_digest: str | None) -> SuiteCheck:
    """Check one suite's outputs against ``exp`` and, if given, a digest."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    runs = manifest["runs"]
    want = sorted((m, s) for m in exp.methods for s in exp.seeds)
    suite_problems = []
    if sorted((r["method"], r["seed"]) for r in runs) != want:
        suite_problems.append(f"manifest runs differ from {want}")
    digest, written = output_digest(out_dir)
    if expected_digest is not None and digest != expected_digest:
        suite_problems.append(f"output digest {digest}, expected {expected_digest}")
    failed_runs = 0
    problems = list(suite_problems)
    for run in runs:
        found = run_problems(out_dir, run, exp)
        failed_runs += bool(found)
        problems += [f"{run['method']} seed {run['seed']}: {p}" for p in found]
    failed = len(want) if suite_problems else failed_runs
    return SuiteCheck(len(want), failed, tuple(problems), digest, written)
