"""Command-line driver.

Subcommands:
  run <config>       run every (method, seed) pair and write metrics + manifest
  validate <config>  check a config and report every problem
  theory <config>    print bound constants, terms, and complexities as JSON

Exit codes: 0 success, 1 an input problem or an output that cannot be written
(reported on stderr), 2 at least one run diverged.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import yaml

from .config import ExperimentConfig, validate_config
from .errors import ConfigurationError, DatasetError, DivergenceError
from .runner import run_suite, theory_report


class InputError(SystemExit):
    """An input problem, worded as its stderr report: ``main`` prints it and
    returns 1, and a script that lets it escape prints it and exits 1."""


def reject(lines) -> None:
    """Raise InputError with ``lines`` as its report, if there are any."""
    if lines:
        raise InputError("\n".join(lines))


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated in one mapping instead of keeping its last value."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        self.flatten_mapping(node)  # pairs merged in by '<<' go first, and own keys override them
        keys = [self.construct_object(key, deep=True) for key in own]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise yaml.constructor.ConstructorError(None, None, f"duplicate key {key!r}", own[i].start_mark)
        return super().construct_mapping(node, deep)


def load_config(path) -> ExperimentConfig:
    """The config in a config file or a manifest, whose ``config`` block is replayed;
    InputError if the file is missing, unreadable, not YAML, repeats a key or is no valid config."""
    try:
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_UniqueKeyLoader)
    except FileNotFoundError:
        message = f"config file not found: {path}"
    except (OSError, UnicodeDecodeError) as exc:
        message = f"could not read {path}: {exc}"
    except yaml.YAMLError as exc:
        message = f"could not parse {path}: {exc}"
    except RecursionError:  # the parser recurses once per nesting level
        message = f"could not parse {path}: nested too deeply"
    else:
        if isinstance(raw, dict) and "config" in raw and "runs" in raw:
            raw = raw["config"]
        config, issues = (None, ["<root>: empty config file"]) if raw is None else validate_config(raw)
        reject([f"invalid config: {issue}" for issue in issues])
        return config
    raise InputError(f"error: {message}")


def with_dataset(action, config):
    """``action(config)``, with a dataset that fails to load, a rule that needs
    it loaded (e.g. a libsvm file without 'dimension'), data whose constants
    are not finite, or an output that cannot be written, as InputError."""
    try:
        return action(config)
    except (DatasetError, DivergenceError, OSError) as exc:
        raise InputError(f"error: {exc}") from None
    except ConfigurationError as exc:  # one line per rule, as validate prints them
        raise InputError("\n".join(f"invalid config: {line}" for line in str(exc).splitlines())) from None


def cmd_run(args) -> int:
    manifest_path = with_dataset(run_suite, load_config(args.config))
    runs = json.loads(manifest_path.read_text(encoding="utf-8"))["runs"]
    for run in runs:
        print(f"{run['method']} seed={run['seed']}: {run['status']} -> {manifest_path.parent / run['csv']}")
    print(f"manifest: {manifest_path}")
    return 2 if any(run["status"].startswith("diverged") for run in runs) else 0


def cmd_validate(args) -> int:
    config = load_config(args.config)
    print(f"config ok: {config.name} ({len(config.methods)} methods, {len(config.seeds)} seeds)")
    return 0


def cmd_theory(args) -> int:
    report = with_dataset(theory_report, load_config(args.config))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlap-sgd",
        description="Deterministic logical-time simulator for local SGD with sparse overlapped averaging",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("run", cmd_run, "run an experiment suite from a config or manifest"),
        ("validate", cmd_validate, "validate a config file"),
        ("theory", cmd_theory, "print bound constants and complexities as JSON"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("config")
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING, format="%(message)s")
    try:
        return args.func(args)
    except InputError as exc:
        print(exc, file=sys.stderr)
        return 1
