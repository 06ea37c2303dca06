"""Command-line driver.

Subcommands:
  run <config>       run every (method, seed) pair and write metrics + manifest
  validate <config>  check a config and report every problem
  theory <config>    print bound constants, terms, and complexities as JSON
  gen-data <spec>    write a synthetic two-blob dataset as LIBSVM text

Exit codes: 0 success, 1 validation error, 2 at least one run diverged.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import yaml

from .config import load_config_file, read_synthetic_spec
from .data import serialize_libsvm, synthetic_blobs
from .errors import ConfigurationError, DatasetError
from .metrics import atomic_write_bytes
from .runner import run_suite, theory_report

logger = logging.getLogger(__name__)


def _load_or_complain(path) -> tuple:
    try:
        config, issues = load_config_file(path)
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        return None, True
    except yaml.YAMLError as exc:
        print(f"error: could not parse {path}: {exc}", file=sys.stderr)
        return None, True
    if issues:
        for issue in issues:
            print(f"invalid config: {issue}", file=sys.stderr)
        return None, True
    return config, False


def _with_dataset(action, config):
    """``action(config)``, or None once a dataset error is reported on stderr."""
    try:
        return action(config)
    except ConfigurationError as exc:
        # rules that need the loaded data, e.g. a libsvm file without 'dimension'
        print(f"invalid config: {exc}", file=sys.stderr)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_run(args) -> int:
    config, failed = _load_or_complain(args.config)
    if failed:
        return 1
    result = _with_dataset(run_suite, config)
    if result is None:
        return 1
    for run in result.runs:
        print(f"{run.method} seed={run.seed}: {run.status} -> {run.csv_path}")
    print(f"manifest: {result.manifest_path}")
    return 2 if result.any_diverged else 0


def cmd_validate(args) -> int:
    config, failed = _load_or_complain(args.config)
    if failed:
        return 1
    print(f"config ok: {config.name} ({len(config.methods)} methods, {len(config.seeds)} seeds)")
    return 0


def cmd_theory(args) -> int:
    config, failed = _load_or_complain(args.config)
    if failed:
        return 1
    report = _with_dataset(theory_report, config)
    if report is None:
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_gen_data(args) -> int:
    try:
        raw = yaml.safe_load(Path(args.spec).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: spec file not found: {args.spec}", file=sys.stderr)
        return 1
    except yaml.YAMLError as exc:
        print(f"error: could not parse {args.spec}: {exc}", file=sys.stderr)
        return 1
    out = raw.get("out") if isinstance(raw, dict) else None
    if not isinstance(out, str) or not out:
        print("error: gen-data spec needs at least an 'out' path", file=sys.stderr)
        return 1
    # the same reader as a config's dataset.synthetic, plus the 'out' key
    spec, issues = read_synthetic_spec({k: v for k, v in raw.items() if k != "out"})
    for issue in issues:
        print(f"invalid spec: {issue}", file=sys.stderr)
    if issues:
        return 1
    dataset = synthetic_blobs(spec.dim, spec.n_examples, spec.separation, spec.seed)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(out, serialize_libsvm(dataset).encode("utf-8"))
    print(f"wrote {dataset.n_examples} examples (dim {dataset.dim}) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlap-sgd",
        description="Deterministic logical-time simulator for local SGD with sparse overlapped averaging",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment suite from a config or manifest")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_theory = sub.add_parser("theory", help="print bound constants and complexities as JSON")
    p_theory.add_argument("config")
    p_theory.set_defaults(func=cmd_theory)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset as LIBSVM text")
    p_gen.add_argument("spec", help="YAML with dim, n_examples, separation, seed, out")
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING, format="%(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
