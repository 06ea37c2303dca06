import errno
import gzip
import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import base_config_dict, manifest_runs, serialize_libsvm
from overlap_sgd.cli import _UniqueKeyLoader, main
from overlap_sgd.config import (
    ConfigIssue,
    ExperimentConfig,
    PartitionSpec,
    SyntheticSpec,
    TheoryOptions,
    rand_k_size,
    validate_config,
)
from overlap_sgd.data import synthetic_blobs
from overlap_sgd.errors import DivergenceError
from overlap_sgd.metrics import render_csv
from overlap_sgd.runner import run_suite
from overlap_sgd.theory import BoundParams, ProblemConstants, RateBound
from overlap_sgd.timing import TimingPlan


def write_config(tmp_path, **overrides) -> Path:
    raw = base_config_dict(**overrides)
    if "output_dir" not in overrides:
        raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


# A valid value other than the default for every field that carries a rule,
# and where each dataclass sits in a config; partition is read in dirichlet mode.
NON_DEFAULTS = {
    ExperimentConfig: {
        "step_times": [1, 1, 2],
        "methods": ["local_sparse", "overlap_overwrite"],
        "name": "other-run",
        "normalize": False,
        "val_fraction": 0.2,
        "compute_periods": 2,
        "comm_seconds": 4,
        "stepsize": 0.05,
        "batch_size": 8,
        "sparsity": 0.25,
        "rounds": 2,
        "seeds": [3, 4],
        "value_bit_width": 16,
        "eval_every": 2,
        "eval_per_worker": True,
    },
    SyntheticSpec: {"dim": 10, "n_examples": 250, "separation": 2.5, "seed": 11},
    PartitionSpec: {"alpha": 0.25, "min_examples": 3},
    TheoryOptions: {"c_round": 6.0, "epsilon": 0.05, "estimate_draws": 50},
}
PLACES = {
    ExperimentConfig: (),
    SyntheticSpec: ("dataset", "synthetic"),
    PartitionSpec: ("partition",),
    TheoryOptions: ("theory",),
}
RULED_FIELDS = [(cls, f) for cls in NON_DEFAULTS for f in fields(cls) if f.metadata]


class TestValidateConfig:
    def test_misaligned_comm_window(self):
        raw = base_config_dict(step_times=[1, 2, 3, 6], comm_seconds=5)
        config, issues = validate_config(raw)
        assert config is None
        assert any("multiple of 6" in str(i) for i in issues)

    def test_sync_sgd_constraints(self):
        raw = base_config_dict(methods=["sync_sgd"], step_times=[1, 2], comm_seconds=0)
        config, issues = validate_config(raw)
        assert config is None
        msg = " ".join(str(i) for i in issues)
        assert "sync_sgd requires" in msg
        assert "equal step_times" in msg

    def test_mask_size_conversion(self):
        assert rand_k_size(0.3, 123) == 37
        assert rand_k_size(0.001, 100) == 1
        assert rand_k_size(1.0, 50) == 50
        assert rand_k_size(0.5, 5) == 3  # half rounds up

    def test_collects_multiple_issues(self):
        raw = base_config_dict(stepsize=-1, sparsity=2.0, rounds=-3)
        config, issues = validate_config(raw)
        assert config is None
        fields = {i.field for i in issues}
        assert {"stepsize", "sparsity", "rounds"} <= fields

    def test_unknown_key_is_flagged(self):
        raw = base_config_dict(lerning_rate=0.1)
        config, issues = validate_config(raw)
        assert config is None
        assert any(i.field == "lerning_rate" for i in issues)
        # a YAML key need not be a string: `1: 2`, `null: 2` or `true: 2`, at the root or in a nested block
        synthetic = base_config_dict()["dataset"]["synthetic"]
        for key in (1, None, True):
            for raw, field in (
                ({**base_config_dict(), key: 2}, f"{key}"),
                (base_config_dict(dataset={"synthetic": {**synthetic, key: 2}}), f"dataset.synthetic.{key}"),
            ):
                assert [str(i) for i in validate_config(raw)[1]] == [f"{field}: unknown configuration key"]

    def test_min_examples_only_for_dirichlet(self):
        for key, value in (("min_examples", 5), ("alpha", 0.1)):
            raw = base_config_dict(partition={"mode": "shard", key: value})
            config, issues = validate_config(raw)
            assert config is None
            assert [str(i) for i in issues] == [f"partition.{key}: only meaningful for dirichlet mode"]
        raw = base_config_dict(partition={"mode": "dirichlet", "alpha": 0.1, "min_examples": 5})
        config, issues = validate_config(raw)
        assert not issues
        assert config.partition.min_examples == 5
        again, issues2 = validate_config(config.to_dict())
        assert not issues2 and again == config

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"batch_size": True}, "batch_size"),
            ({"rounds": False}, "rounds"),
            ({"value_bit_width": True}, "value_bit_width"),
            ({"eval_every": True}, "eval_every"),
            ({"stepsize": True}, "stepsize"),
            ({"sparsity": True}, "sparsity"),
            ({"stepsize": float("nan")}, "stepsize"),
            ({"val_fraction": float("inf")}, "val_fraction"),
            ({"stepsize": 10**400}, "stepsize"),
            ({"dataset": {"synthetic": {"dim": "100"}}}, "dataset.synthetic.dim"),
            ({"dataset": {"synthetic": {"n_examples": 8000.9}}}, "dataset.synthetic.n_examples"),
            ({"dataset": {"synthetic": {"separtion": 3}}}, "dataset.synthetic.separtion"),
            ({"methods": [["local_sparse"]]}, "methods"),
            ({"methods": "local_sparse"}, "methods"),
            ({"seeds": 3}, "seeds"),
            ({"step_times": 2}, "step_times"),
            ({"dataset": [1]}, "dataset"),
            ({"dataset": {"synthetic": 5}}, "dataset.synthetic"),
            ({"partition": "shared"}, "partition"),
            ({"regularizer": 3}, "regularizer"),
            ({"theory": [1]}, "theory"),
            ({"compute_periods": 0}, "compute_periods"),
            ({"comm_seconds": -2}, "comm_seconds"),
            ({"normalize": "yes"}, "normalize"),
            ({"eval_per_worker": 1}, "eval_per_worker"),
            ({"dataset": {"synthetic": {"separation": "far"}}}, "dataset.synthetic.separation"),
            ({"dataset": {"synthetic": {"seed": 7.5}}}, "dataset.synthetic.seed"),
            ({"partition": {"mode": "dirichlet", "alpha": "0.5"}}, "partition.alpha"),
            ({"partition": {"mode": "dirichlet", "alpha": 0.5, "min_examples": -1}}, "partition.min_examples"),
            # this test file stands in for a dataset file: validate only checks that it exists
            ({"dataset": {"path": __file__, "dimension": True}}, "dataset.dimension"),
            ({"n_workers": True}, "n_workers"),
        ],
    )
    def test_rejects_wrong_types_and_non_finite_numbers(self, overrides, field):
        config, issues = validate_config(base_config_dict(**overrides))
        assert config is None
        assert [i.field for i in issues] == [field]

    @pytest.mark.parametrize(
        "theory, message",
        [
            ({"epsilon": float("nan")}, "theory.epsilon: must be a positive number"),
            ({"c_round": float("inf")}, "theory.c_round: must be a positive number"),
            ({"estimate_draws": 1}, "theory.estimate_draws: must be an integer >= 2"),
            ({"alpha": 0.2}, "theory: pin both alpha and beta, or neither"),
            ({"beta": 0.2, "alpha": None}, "theory: pin both alpha and beta, or neither"),
            # d=12, k=6: contraction 0.5 * 3 * 3 >= 1
            ({"alpha": 2.0, "beta": 2.0}, "theory: contraction 4.5 >= 1; decrease alpha/beta or residual"),
        ],
    )
    def test_theory_block_rules(self, theory, message):
        config, issues = validate_config(base_config_dict(theory=theory))
        assert config is None
        assert [str(i) for i in issues] == [message]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"dataset": {"path": "a.svm", "synthetic": {}}}, "dataset: provide exactly one of 'path' or 'synthetic'"),
            ({"dataset": {}}, "dataset: provide exactly one of 'path' or 'synthetic'"),
            ({"partition": {}}, "partition: must be a mapping with a 'mode' key"),
            (
                {"partition": {"mode": "random"}},
                "partition.mode: unknown mode 'random' (use shared, shard, or dirichlet)",
            ),
            ({"name": ""}, "name: must be a non-empty string"),
            ({"output_dir": ""}, "output_dir: must be a non-empty path string"),
            ({"output_dir": "o\0b"}, "output_dir: must not contain a NUL byte"),
            ({"dataset": {"path": "d\0.svm"}}, "dataset.path: must not contain a NUL byte"),
            (
                {"dataset": {"synthetic": {"dim": 12, "n_examples": 300}, "dimension": 5}},
                "dataset.dimension: only meaningful with 'path'",
            ),
        ],
    )
    def test_outside_input_rules(self, overrides, message):
        config, issues = validate_config(base_config_dict(**overrides))
        assert config is None
        assert [str(i) for i in issues] == [message]

    @pytest.mark.parametrize("cls, f", RULED_FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in RULED_FIELDS])
    def test_every_ruled_field_is_read_and_round_trips(self, cls, f):
        value = NON_DEFAULTS[cls][f.name]
        assert value != f.default
        raw = base_config_dict(partition={"mode": "dirichlet", "alpha": 0.5})
        block = raw
        for key in PLACES[cls]:
            block = block.setdefault(key, {})
        block[f.name] = value
        config, issues = validate_config(raw)
        assert issues == []
        parsed = config
        for key in PLACES[cls]:
            parsed = getattr(parsed, key)
        expected = tuple(value) if isinstance(value, list) else value
        assert getattr(parsed, f.name) == expected and type(getattr(parsed, f.name)) is type(expected)
        assert validate_config(config.to_dict()) == (config, [])

    def test_root_must_be_a_mapping(self):
        assert validate_config([base_config_dict()]) == (None, [ConfigIssue("<root>", "config must be a mapping")])

    @pytest.mark.parametrize(
        "seeds", [[4, 4], [1, 2**64 + 1], [1, 2, -(2**64) + 1], [1, 18446744073709551617, -18446744073709551615]]
    )
    def test_seeds_that_name_the_same_streams_are_duplicates(self, seeds):
        config, issues = validate_config(base_config_dict(seeds=seeds))
        assert config is None
        assert [str(i) for i in issues] == ["seeds: must not contain duplicates (a seed is taken modulo 2**64)"]
        assert validate_config(base_config_dict(seeds=[1, 2**64 - 1, 2**64 + 2]))[1] == []

    def test_missing_partition_reads_as_shared_and_round_trips(self):
        raw = base_config_dict()
        del raw["partition"]
        config, issues = validate_config(raw)
        assert not issues
        assert config.partition == PartitionSpec(mode="shared")
        assert config.to_dict()["partition"] == {"mode": "shared"}
        assert validate_config(config.to_dict()) == (config, [])

    def test_rejects_duplicate_methods(self):
        config, issues = validate_config(base_config_dict(methods=["local_sparse", "local_sparse"]))
        assert config is None
        assert [str(i) for i in issues] == ["methods: must not contain duplicates"]

    def test_invalid_step_times_is_one_issue(self):
        config, issues = validate_config(base_config_dict(step_times=[0, 1]))
        assert config is None
        assert [i.field for i in issues] == ["step_times"]
        config, issues = validate_config(base_config_dict(step_times=[1, 2], n_workers=3))
        assert [str(i) for i in issues] == ["n_workers: is 3 but step_times lists 2 workers"]

    def test_fedavg_accepts_sparsity_that_rounds_to_a_full_mask(self, tmp_path):
        # k = rand_k_size(0.999, 100) == 100 == d: the engine's k == d rule holds
        raw = base_config_dict(
            dataset={"synthetic": {"dim": 100, "n_examples": 200, "separation": 1.5, "seed": 3}},
            methods=["fedavg_full"],
            sparsity=0.999,
            rounds=1,
            output_dir=str(tmp_path / "out"),
        )
        config, issues = validate_config(raw)
        assert not issues, issues
        assert [r.status for r in manifest_runs(run_suite(config))] == ["ok"]

    def test_fedavg_rejects_partial_mask_at_fixed_dimension(self):
        raw = base_config_dict(methods=["fedavg_full"], sparsity=0.9)
        config, issues = validate_config(raw)
        assert config is None
        assert any("fedavg_full requires a full mask" in str(i) for i in issues)

    def test_rejects_step_times_whose_lcm_is_too_large(self, tmp_path, capsys):
        raw = base_config_dict(step_times=[65521, 65519, 65497], comm_seconds=0)
        config, issues = validate_config(raw)
        assert config is None
        assert any("above the supported maximum" in str(i) for i in issues)
        path = tmp_path / "lcm.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "above the supported maximum" in capsys.readouterr().err

    def test_valid_config_round_trips(self):
        raw = base_config_dict()
        config, issues = validate_config(raw)
        assert not issues
        assert config.n_workers == config.to_dict()["n_workers"] == 2
        again, issues2 = validate_config(config.to_dict())
        assert not issues2
        assert again == config


class TestRunCommand:
    def test_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path)
        assert main(["run", str(good)]) == 0
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(base_config_dict(stepsize=-1)), encoding="utf-8")
        assert main(["run", str(bad)]) == 1
        assert main(["run", str(tmp_path / "missing.yaml")]) == 1
        capsys.readouterr()

    def test_run_twice_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=2, seeds=[0, 1])
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg)]) == 0
        first = snapshot(out_dir)
        assert main(["run", str(cfg)]) == 0
        second = snapshot(out_dir)
        assert first == second
        assert any(name.endswith(".csv") for name in first)
        assert "manifest.json" in first
        capsys.readouterr()

    def test_manifest_replay_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=2)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg)]) == 0
        first = snapshot(out_dir)
        assert main(["run", str(out_dir / "manifest.json")]) == 0
        assert snapshot(out_dir) == first
        capsys.readouterr()

    def test_mask_rule_on_loaded_libsvm_dimension_is_a_config_error(self, tmp_path, capsys):
        # without 'dimension' the width is known only after loading, so
        # validate passes and run reports the rule without writing anything
        data_path = tmp_path / "blobs.libsvm"
        data_path.write_text(serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["fedavg_full"])
        assert main(["validate", str(cfg)]) == 0
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "invalid config: methods: fedavg_full requires a full mask" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_zero_rounds_writes_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=0)
        assert main(["run", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        csvs = list(out_dir.glob("*.csv"))
        assert csvs
        assert csvs[0].read_text(encoding="utf-8") == render_csv([])
        assert (out_dir / "manifest.json").exists()
        capsys.readouterr()

    def test_divergence_exit_code(self, tmp_path, capsys, monkeypatch):
        import overlap_sgd.runner as runner_mod

        class ExplodingOracle:
            def __init__(self, **kwargs):
                self.dim = None

            def gradient(self, w, worker, round_index, step):
                return np.full(w.size, 1e200)

        monkeypatch.setattr(runner_mod, "LogisticOracle", ExplodingOracle)
        cfg = write_config(tmp_path, rounds=2)
        assert main(["run", str(cfg)]) == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert any(r["status"].startswith("diverged") for r in manifest["runs"])
        capsys.readouterr()

    @pytest.mark.parametrize(
        "failing_call, status, n_records",
        # round 0 evaluates each method's initial model and then its model after the round, one
        # method after another (calls 1-6); round 1 evaluates each method once more (calls 7-9)
        [(3, "diverged:round=0", 0), (8, "diverged:round=1", 2)],
        ids=["initial", "after-round-1"],
    )
    def test_a_divergence_found_by_an_evaluation_stops_that_run_alone(
        self, tmp_path, capsys, monkeypatch, failing_call, status, n_records
    ):
        import overlap_sgd.metrics as metrics_mod

        methods = ["local_sparse", "overlap_overwrite", "overlap_delay_corrected"]
        clean = write_config(tmp_path, methods=methods, eval_per_worker=True, output_dir=str(tmp_path / "clean"))
        assert main(["run", str(clean)]) == 0
        clean_runs = manifest_runs(tmp_path / "clean" / "manifest.json")
        full_gradient, calls = metrics_mod.full_gradient, []

        def diverges_on_one_call(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise DivergenceError("non-finite values in full gradient")
            return full_gradient(*args)

        monkeypatch.setattr(metrics_mod, "full_gradient", diverges_on_one_call)
        assert main(["run", str(write_config(tmp_path, methods=methods, eval_per_worker=True))]) == 2
        runs = manifest_runs(tmp_path / "out" / "manifest.json")
        assert [(r.method, r.seed) for r in runs] == [(r.method, r.seed) for r in clean_runs]
        for run, alone in zip(runs, clean_runs):
            if run.method == "overlap_overwrite":
                assert (run.status, run.records) == (status, alone.records[:n_records])
                sidecar = run.csv.with_name("overlap_overwrite_seed0_workers.jsonl")
                assert len(sidecar.read_text(encoding="utf-8").splitlines()) == 2 * n_records
            else:
                assert (run.status, run.records) == (alone.status, alone.records)
        assert f"overlap_overwrite seed=0: {status} -> " in capsys.readouterr().out

    def test_prints_one_line_per_manifest_run_in_manifest_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, methods=["overlap_overwrite", "local_sparse"], seeds=[2, 0])
        assert main(["run", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        runs = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["runs"]
        assert [(r["method"], r["seed"]) for r in runs] == [
            ("overlap_overwrite", 2), ("local_sparse", 2), ("overlap_overwrite", 0), ("local_sparse", 0)
        ]
        assert capsys.readouterr().out.splitlines() == [
            *(f"{r['method']} seed={r['seed']}: ok -> {out_dir / r['csv']}" for r in runs),
            f"manifest: {out_dir / 'manifest.json'}",
        ]

    def test_starved_worker_skips_seed_without_failing_suite(self, tmp_path, capsys):
        # 3 examples over 4 workers: some pool is empty by pigeonhole
        cfg = write_config(
            tmp_path,
            dataset={"synthetic": {"dim": 4, "n_examples": 3, "separation": 1.0, "seed": 0}},
            val_fraction=0.0,
            partition={"mode": "dirichlet", "alpha": 1.0},
            step_times=[1, 1, 1, 1],
            comm_seconds=0,
            batch_size=2,
            rounds=1,
        )
        assert main(["run", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert all(r["status"].startswith("skipped") for r in manifest["runs"])
        csvs = list((tmp_path / "out").glob("*.csv"))
        assert csvs and csvs[0].read_text(encoding="utf-8") == render_csv([])
        capsys.readouterr()

    def test_fairness_hashes_do_not_depend_on_method_list(self, tmp_path):
        raw_a = base_config_dict(methods=["local_sparse"], output_dir=str(tmp_path / "a"))
        raw_b = base_config_dict(
            methods=["overlap_delay_corrected", "overlap_overwrite"], output_dir=str(tmp_path / "b")
        )
        cfg_a, issues_a = validate_config(raw_a)
        cfg_b, issues_b = validate_config(raw_b)
        assert not issues_a and not issues_b
        hashes_a = json.loads(run_suite(cfg_a).read_text())["artifacts"]
        hashes_b = json.loads(run_suite(cfg_b).read_text())["artifacts"]
        assert hashes_a == hashes_b

    def test_per_worker_sidecar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=2, eval_per_worker=True)
        assert main(["run", str(cfg)]) == 0
        sidecars = list((tmp_path / "out").glob("*_workers.jsonl"))
        assert sidecars
        rows = [json.loads(ln) for ln in sidecars[0].read_text().splitlines()]
        assert len(rows) == 3 * 2  # (initial + 2 rounds) x 2 workers
        assert {"round", "worker", "train_loss", "train_accuracy"} <= set(rows[0])
        capsys.readouterr()

    def test_an_output_that_cannot_be_written_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "out" / "overlap_delay_corrected_seed0.csv"
        blocker.mkdir(parents=True)
        assert main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: failed writing {blocker}: "), err
        assert captured.out == ""
        assert [p.name for p in blocker.parent.iterdir()] == [blocker.name]

    def test_theory_respects_pinned_analysis_params(self, tmp_path):
        raw = base_config_dict(
            sparsity=0.5,
            theory={"alpha": 0.2, "beta": 0.3},
            output_dir=str(tmp_path / "t"),
        )
        config, issues = validate_config(raw)
        assert not issues
        from overlap_sgd.runner import theory_report

        report = theory_report(config)
        assert report["bound_params"]["alpha"] == 0.2
        assert report["bound_params"]["beta"] == 0.3

    def test_manifest_records_derived_quantities(self, tmp_path, capsys):
        cfg = write_config(tmp_path, step_times=[1, 2, 3, 6], compute_periods=3, comm_seconds=6,
                           sparsity=0.3, rounds=1)
        assert main(["run", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        derived = manifest["derived"]
        assert derived["pre_steps"] == [18, 9, 6, 3]
        assert derived["overlap_steps"] == [6, 3, 2, 1]
        assert derived["round_seconds"] == 24
        assert derived["mask_size"] == rand_k_size(0.3, derived["dim"])
        capsys.readouterr()


class TestConfigFileErrors:
    @pytest.mark.parametrize("case", ["not-utf8", "directory"])
    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys, case):
        path = tmp_path / "config.yaml"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"name: caf\xe9\n")
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: could not read {path}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["validate", "run", "theory"])
    def test_a_repeated_config_key_is_a_parse_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, rounds=2)
        path.write_text(path.read_text(encoding="utf-8") + "rounds: 700\n", encoding="utf-8")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: could not parse {path}: duplicate key 'rounds'\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run", "theory"])
    def test_a_non_positive_pinned_analysis_parameter_is_one_config_error_line(self, tmp_path, capsys, command):
        # BoundParams states the rule; every command reaches it through the config layer
        cfg = write_config(tmp_path, theory={"alpha": -0.5, "beta": 1.0})
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["invalid config: theory: alpha and beta must be positive"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_a_repeated_nested_key_is_a_parse_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        text = path.read_text(encoding="utf-8") + "regularizer: {strength: 0.0, strength: 0.1}\n"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "duplicate key 'strength'" in capsys.readouterr().err

    def test_merge_keys_still_load_and_own_keys_override_them(self, tmp_path):
        path = tmp_path / "merge.yaml"
        path.write_text("base: &b {x: 1, y: 2}\nm: {<<: *b, x: 3}\n", encoding="utf-8")
        loaded = yaml.load(path.read_text(encoding="utf-8"), Loader=_UniqueKeyLoader)
        assert loaded == {"base": {"x": 1, "y": 2}, "m": {"x": 3, "y": 2}}

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    def test_output_dir_at_or_below_a_file_is_a_config_error(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        cfg = write_config(tmp_path, output_dir=str(blocker / "out" if below else blocker))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"invalid config: output_dir: not a directory: {blocker}"
            ]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"methods": ["sync_sgd"], "step_times": [1, 1], "comm_seconds": 0},
                "methods: sync_sgd requires a full mask (k == d, got k=3, d=6)",
            ),
            # d=6, k=3: contraction 0.5 * 6 * 6
            ({"theory": {"alpha": 5.0, "beta": 5.0}}, "theory: contraction 18 >= 1; decrease alpha/beta or residual"),
            # floor(40 * 0.99999999999) takes all 40 examples for validation
            *(
                (
                    {"val_fraction": 0.99999999999, "normalize": normalize},
                    "val_fraction: val_fraction 0.99999999999 leaves none of the 40 examples for training",
                )
                for normalize in (True, False)
            ),
            # 40 - floor(40 * 0.1) = 36 training examples cannot give 4 workers 10 each
            (
                {"partition": {"mode": "dirichlet", "alpha": 0.5, "min_examples": 10}, "step_times": [1, 1, 1, 1]},
                "partition.min_examples: min_examples=10 is unsatisfiable with 36 examples over 4 workers",
            ),
            ({"batch_size": 257}, "batch_size: 257 exceeds both the dataset's 40 examples and the default 256"),
        ],
        ids=[
            "sync-partial-mask",
            "pinned-contraction",
            "no-training-example",
            "no-training-example-raw",
            "unsatisfiable-min-examples",
            "batch-beyond-the-data",
        ],
    )
    def test_run_and_theory_check_the_same_rules_once_d_is_loaded(self, tmp_path, capsys, overrides, message):
        data_path = tmp_path / "blobs.libsvm"
        data_path.write_text(serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, sparsity=0.5, **overrides)
        # without 'dimension', d is unknown until the file is loaded
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        for command in ("run", "theory"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"invalid config: {message}"]
            assert captured.out == ""
            assert not (tmp_path / "out").exists()


    def test_run_and_theory_print_one_line_per_rule_once_d_is_loaded(self, tmp_path, capsys):
        # the same data as a synthetic block, where validate sees both rules, prints the same lines
        expected = [
            "invalid config: methods: fedavg_full requires a full mask (k == d, got k=3, d=6)",
            "invalid config: batch_size: 257 exceeds both the dataset's 40 examples and the default 256",
        ]
        data_path = tmp_path / "blobs.libsvm"
        data_path.write_text(serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8")
        rules = {"methods": ["fedavg_full"], "sparsity": 0.5, "batch_size": 257}
        blobs = {"synthetic": {"dim": 6, "n_examples": 40, "separation": 1.5, "seed": 0}}
        for dataset, commands in (({"path": str(data_path)}, ("run", "theory")), (blobs, ("validate",))):
            cfg = write_config(tmp_path, dataset=dataset, **rules)
            for command in commands:
                assert main([command, str(cfg)]) == 1
                captured = capsys.readouterr()
                assert (captured.err.splitlines(), captured.out) == (expected, "")
                assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("normalize", [True, False])
    def test_val_fraction_leaving_no_training_example_is_a_config_error(self, tmp_path, capsys, normalize):
        # n is fixed by the config, so validate sees the rule too
        blobs = {"dim": 6, "n_examples": 10, "separation": 1.5, "seed": 0}
        cfg = write_config(
            tmp_path, dataset={"synthetic": blobs}, val_fraction=0.99999999999, normalize=normalize
        )
        for command in ("validate", "run", "theory"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "invalid config: val_fraction: "
                "val_fraction 0.99999999999 leaves none of the 10 examples for training"
            ]
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_unsatisfiable_min_examples_is_a_config_error(self, tmp_path, capsys):
        # n is fixed by the config, so validate sees the rule too; 40 - 4 = 36 examples train
        cfg = write_config(
            tmp_path,
            dataset={"synthetic": {"dim": 6, "n_examples": 40, "separation": 1.5, "seed": 0}},
            partition={"mode": "dirichlet", "alpha": 0.5, "min_examples": 10},
            step_times=[1, 1, 1, 1],
        )
        for command in ("validate", "run", "theory"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "invalid config: partition.min_examples: "
                "min_examples=10 is unsatisfiable with 36 examples over 4 workers"
            ]
            assert captured.out == ""
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("batch_size", [2**62, 10**12])
    def test_a_batch_larger_than_the_dataset_and_the_default_is_a_config_error(self, tmp_path, capsys, batch_size):
        # n is fixed by the config, so validate sees the rule too; neither batch can be gathered
        blobs = {"dim": 6, "n_examples": 80, "separation": 2.0, "seed": 7}
        cfg = write_config(tmp_path, dataset={"synthetic": blobs}, batch_size=batch_size)
        for command in ("validate", "run", "theory"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"invalid config: batch_size: {batch_size} exceeds both the dataset's 80 examples and the default 256"
            ]
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strength, scale", [(0.5, 1.0e200), (0.5, 1.0e-200), (1.0e308, 1.0)])
    def test_a_regularizer_whose_arithmetic_leaves_float_range_is_a_config_error(
        self, tmp_path, capsys, strength, scale
    ):
        # scale**2 overflowed or underflowed in the penalty, or 2 * strength overflowed in its curvature bound
        blobs = {"dim": 6, "n_examples": 80, "separation": 2.0, "seed": 7}
        cfg = write_config(tmp_path, dataset={"synthetic": blobs}, regularizer={"strength": strength, "scale": scale})
        for command in ("validate", "run", "theory"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"invalid config: regularizer: strength {strength} with scale {scale} puts the penalty's"
                " arithmetic out of float range"
            ]
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_examples, largest", [(40, 256), (300, 300)])
    def test_a_batch_may_hold_the_dataset_or_the_default(self, n_examples, largest):
        dataset = {"synthetic": {"dim": 6, "n_examples": n_examples}}
        assert validate_config(base_config_dict(dataset=dataset, batch_size=largest))[1] == []
        _, issues = validate_config(base_config_dict(dataset=dataset, batch_size=largest + 1))
        assert [issue.field for issue in issues] == ["batch_size"]

    def test_dirichlet_redraw_failure_leaves_no_output_dir(self, tmp_path, capsys):
        # 180 training examples could give 4 workers 20 each, so validate passes, but
        # alpha this small piles nearly all of them on one worker in every redraw
        cfg = write_config(
            tmp_path,
            dataset={"synthetic": {"dim": 6, "n_examples": 200, "separation": 1.5, "seed": 0}},
            partition={"mode": "dirichlet", "alpha": 0.001, "min_examples": 20},
            step_times=[1, 1, 1, 1],
        )
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid config: could not satisfy min_examples=20 within 1000 redraws")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestDatasetFileErrors:
    def test_validate_reports_missing_dataset_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset={"path": str(tmp_path / "missing.libsvm")})
        config, issues = validate_config(yaml.safe_load(cfg.read_text(encoding="utf-8")))
        assert config is None
        assert [i.field for i in issues] == ["dataset.path"]
        assert main(["validate", str(cfg)]) == 1
        assert "invalid config: dataset.path: no such file" in capsys.readouterr().err

    def test_relative_dataset_path_is_resolved_from_the_working_directory(self, tmp_path, monkeypatch):
        (tmp_path / "blobs.libsvm").write_text(
            serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8"
        )
        raw = base_config_dict(dataset={"path": "blobs.libsvm"}, methods=["local_sparse"])
        monkeypatch.chdir(tmp_path)
        assert validate_config(raw)[1] == []
        monkeypatch.chdir(tmp_path.parent)
        assert [i.field for i in validate_config(raw)[1]] == ["dataset.path"]

    @pytest.mark.parametrize("path", [5, True, ""])
    def test_dataset_path_must_be_a_path_string(self, tmp_path, monkeypatch, path):
        # files that a non-string path would name once converted to text
        for name in ("5", "True"):
            (tmp_path / name).write_text(serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        config, issues = validate_config(base_config_dict(dataset={"path": path}, methods=["local_sparse"]))
        assert config is None
        assert [str(i) for i in issues] == ["dataset.path: must be a non-empty path string"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_output_dir_with_a_nul_byte_is_one_config_error_line(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "o\0b"))
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["invalid config: output_dir: must not contain a NUL byte"]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["validate", "run", "theory"])
    @pytest.mark.parametrize("key", ["output_dir", "dataset.path"])
    def test_a_path_too_long_for_the_os_is_one_config_error_line(self, tmp_path, capsys, monkeypatch, command, key):
        long_path = {"output_dir": "a" * 5000} if key == "output_dir" else {"dataset": {"path": "p" * 5000}}
        cfg = write_config(tmp_path, **long_path)
        monkeypatch.chdir(tmp_path)
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        problem = f"unusable path: {os.strerror(errno.ENAMETOOLONG)}"
        assert captured.err.splitlines() == [f"invalid config: {key}: {problem}"]
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("command", ["run", "theory"])
    def test_missing_dataset_file_is_one_error_line(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, dataset={"path": str(tmp_path / "missing.libsvm")})
        assert main([command, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "dataset.path: no such file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "theory"])
    def test_malformed_dataset_file_is_one_error_line(self, tmp_path, capsys, command):
        data_path = tmp_path / "bad.libsvm"
        data_path.write_text("+1 1:0.5\nnot-a-label 2:1.0\n", encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"])
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: could not load dataset {data_path}: line 2: bad label 'not-a-label'"
        ]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    def test_non_finite_label_is_one_error_line(self, tmp_path, capsys, command):
        data_path = tmp_path / "nan.libsvm"
        data_path.write_text("1 1:0.5\nnan 1:0.3\n1 1:0.2\n", encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"])
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: could not load dataset {data_path}: line 2: bad label 'nan'"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    @pytest.mark.parametrize(
        "name, payload",
        [
            ("latin1.libsvm", b"+1 1:0.5\n-1 2:1.0 3:\xff\n"),
            ("plain.libsvm.gz", b"+1 1:0.5\n-1 2:1.0\n"),
            ("truncated.libsvm.gz", gzip.compress(b"+1 1:0.5\n-1 2:1.0\n" * 50, mtime=0)[:40]),
            # a valid gzip header, then a deflate block of the reserved type 3
            ("corrupt.libsvm.gz", gzip.compress(b"+1 1:0.5\n", mtime=0)[:10] + b"\xff" * 16),
        ],
        ids=["not-utf8", "not-gzip", "truncated-gzip", "corrupt-gzip"],
    )
    def test_undecodable_dataset_file_is_one_error_line(self, tmp_path, capsys, command, name, payload):
        data_path = tmp_path / name
        data_path.write_bytes(payload)
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"])
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: could not load dataset {data_path}: unreadable file: ")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    @pytest.mark.parametrize(
        "text, problem",
        [
            ("1 1:0.5\n2 1:1.0\n3 2:1.0\n", "labels must form a binary set, got 3 distinct values: [1.0, 2.0, 3.0]"),
            ("+1 1:0.5\n-1 1:nan\n", "features contain non-finite values"),
            ("+1\n-1\n", "dataset has no features"),
            ("+1 1:0.5\n-1 1:inf\n", "features contain non-finite values"),
            ("+1 1:0.5\n-1 1:-inf\n", "features contain non-finite values"),
            ("+1 1:0.5\n-1 1:1e400\n", "features contain non-finite values"),
        ],
        ids=["non-binary-labels", "nan-feature", "labels-only", "inf-feature", "minus-inf-feature", "1e400-feature"],
    )
    def test_bad_dataset_content_is_one_error_line(self, tmp_path, capsys, command, text, problem):
        data_path = tmp_path / "bad.libsvm"
        data_path.write_text(text, encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"])
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: could not load dataset {data_path}: {problem}"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    def test_a_feature_index_too_large_to_hold_densely_is_one_error_line(self, tmp_path, capsys, command):
        # 2**62 columns fail before any allocation, whatever the overcommit setting
        data_path = tmp_path / "wide.libsvm"
        data_path.write_text(f"+1 1:0.5 {2**62}:1\n-1 1:0.2\n", encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"], sparsity=1.0)
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: could not load dataset {data_path}: 2 examples of {2**62} features are too large to hold densely"
        ]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    @pytest.mark.parametrize("n_examples, dim", [(2**62, 3), (40, 2**62)], ids=["examples", "features"])
    def test_a_synthetic_dataset_too_large_to_hold_densely_is_one_error_line(
        self, tmp_path, capsys, command, n_examples, dim
    ):
        # 2**62 rows or columns fail before any allocation, whatever the overcommit setting
        spec = {"dim": dim, "n_examples": n_examples, "separation": 1.0, "seed": 0}
        path = write_config(tmp_path, dataset={"synthetic": spec}, methods=["local_sparse"], sparsity=1.0)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {n_examples} examples of {dim} features are too large to hold densely"
        ]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    @pytest.mark.parametrize(
        "huge_rows, seed, problem",
        [
            # +-1e307 with the label's sign: the training variance overflows
            ([f"{s:+d} 1:{s}e307" for s in (-1, 1) * 50], 0, "its training stdev overflows"),
            # seed 5 puts the one non-zero value of feature 1 in the validation
            # split, where dividing by the floored training stdev overflows
            (["+1 1:1e308"], 5, "a standardized value overflows"),
        ],
        ids=["train-stdev", "validation-value"],
    )
    def test_standardization_that_overflows_is_one_error_line(
        self, tmp_path, capsys, command, huge_rows, seed, problem
    ):
        # warnings are errors in this suite, so an overflow warning fails the test
        normal_rows = [f"{s:+d} 2:{0.01 * i!r}" for i, s in enumerate((-1, 1) * 100)]
        data_path = tmp_path / "huge.libsvm"
        data_path.write_text("\n".join((huge_rows + normal_rows)[:200]) + "\n", encoding="utf-8")
        cfg = write_config(
            tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"], sparsity=1.0,
            val_fraction=0.5, seeds=[seed],
        )
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: feature 1 cannot be standardized: {problem}"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    @pytest.mark.parametrize(
        "error",
        [OSError(5, "Input/output error"), PermissionError(13, "Permission denied")],
        ids=["io-error", "permission-denied"],
    )
    def test_unreadable_dataset_file_is_one_error_line(self, tmp_path, capsys, monkeypatch, command, error):
        import overlap_sgd.data as data_mod

        data_path = tmp_path / "blobs.libsvm"
        data_path.write_text(serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"])

        def failing_open(*args, **kwargs):
            raise error

        monkeypatch.setattr(data_mod, "open", failing_open, raising=False)  # shadows the builtin
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: could not load dataset {data_path}: {error}"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    def test_dimension_below_the_largest_feature_index_stays_a_config_error(self, tmp_path, capsys, command):
        data_path = tmp_path / "wide.libsvm"
        data_path.write_text("+1 5:1\n-1 1:1\n", encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path), "dimension": 3}, methods=["local_sparse"])
        assert main([command, str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid config: dimension override 3 smaller than max feature index 5"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "theory"])
    def test_dataset_file_vanishing_after_validation_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, command
    ):
        import overlap_sgd.runner as runner_mod

        data_path = tmp_path / "blobs.libsvm"
        data_path.write_text(serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"])

        load = runner_mod.load_libsvm

        def vanished(path, dimension=None):
            data_path.unlink()
            return load(path, dimension=dimension)

        monkeypatch.setattr(runner_mod, "load_libsvm", vanished)
        assert main([command, str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: could not load dataset {data_path}:")

    def test_failed_output_write_is_not_blamed_on_the_dataset(self, tmp_path, capsys, monkeypatch):
        import overlap_sgd.runner as runner_mod

        def output_dir_gone(*args, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", str(tmp_path / "out"))

        monkeypatch.setattr(runner_mod, "write_metrics", output_dir_gone)
        cfg = write_config(tmp_path, methods=["local_sparse"])
        assert main(["run", str(cfg)]) == 1
        assert "could not load dataset" not in capsys.readouterr().err


class TestOtherCommands:
    def test_validate_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(base_config_dict(comm_seconds=3)), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1

    def test_theory_rejects_a_non_finite_epsilon_in_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text(encoding="utf-8") + "theory: {epsilon: .nan}\n", encoding="utf-8")
        assert main(["theory", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["invalid config: theory.epsilon: must be a positive number"]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # the dispersion term overflows: epsilon**1.5 is far below float range
            ({"theory": {"epsilon": 1.0e-300}}, "epsilon=1e-300, c_round=12.0"),
            # the round count overflows to inf
            ({"theory": {"c_round": 1.0e308}}, "epsilon=0.01, c_round=1e+308"),
            # 200 squared gradient norms whose sum overflows: their mean is finite, so this is the rule met
            (
                {"dataset": {"synthetic": {"dim": 2, "n_examples": 20, "separation": 1.0e154}}, "normalize": False},
                "epsilon=0.01, c_round=12.0",
            ),
        ],
        ids=["underflow", "overflow", "gradient-sum"],
    )
    def test_theory_rejects_an_unbounded_round_count_in_one_line(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["theory", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"invalid config: round complexity is not a finite number at {message}"
        ]
        assert captured.out == ""

    def test_theory_on_data_with_a_non_finite_gradient_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        import overlap_sgd.theory as theory_mod

        def diverges(*args):
            raise DivergenceError("non-finite values in full gradient")

        monkeypatch.setattr(theory_mod, "full_gradient", diverges)
        assert main(["theory", str(write_config(tmp_path))]) == 1
        captured = capsys.readouterr()
        assert (captured.err.splitlines(), captured.out) == (["error: non-finite values in full gradient"], "")

    @pytest.mark.parametrize("seed, pools", [(2, [0, 72, 0, 0]), (1, [33, 0, 0, 39])])
    def test_theory_constants_do_not_depend_on_the_partition(self, tmp_path, capsys, seed, pools):
        # alpha this small piles each class on one worker, or none on worker 0; the estimate draws come
        # from the whole training split, so every partition of it gives the same constants
        common = {
            "dataset": {"synthetic": {"dim": 6, "n_examples": 80, "separation": 2.0, "seed": 7}},
            "step_times": [1, 2, 3, 6],
            "comm_seconds": 6,
            "seeds": [seed],
        }
        cfg = write_config(tmp_path, partition={"mode": "dirichlet", "alpha": 0.001}, **common)
        starved = [w for w, size in enumerate(pools) if size == 0]
        assert main(["run", str(cfg)]) == 0
        statuses = {run.status for run in manifest_runs(tmp_path / "out" / "manifest.json")}
        assert statuses == {f"skipped:workers-without-examples={starved}"}
        capsys.readouterr()
        constants = []
        for partition in ({"mode": "dirichlet", "alpha": 0.001}, {"mode": "shard"}, {"mode": "shared"}):
            assert main(["theory", str(write_config(tmp_path, partition=partition, **common))]) == 0
            constants.append(json.loads(capsys.readouterr().out)["constants"])
        assert constants[0] == constants[1] == constants[2] and constants[0]["noise_var"] > 0

    def test_theory_draws_no_partition(self, tmp_path, capsys):
        # alpha this small leaves a worker of seed 1 without examples in every redraw, so run stops at
        # the partition, but theory reads only the training split and reports
        cfg = write_config(
            tmp_path,
            dataset={"synthetic": {"dim": 6, "n_examples": 80, "separation": 2.0, "seed": 7}},
            partition={"mode": "dirichlet", "alpha": 0.001, "min_examples": 1},
            step_times=[1, 2, 3, 6],
            comm_seconds=6,
            seeds=[1],
        )
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "invalid config: could not satisfy min_examples=1 within 1000 redraws "
            "(alpha=0.001 is too extreme for this class balance)"
        ]
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert main(["theory", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["complexity"]["rounds"] >= 1

    def test_theory_reports_a_training_split_with_zero_curvature(self, tmp_path, capsys):
        # one training row standardizes to all-zero features, so L = 0 and G = 0: the loss is flat,
        # any stepsize is admissible, and no round is needed; validate and run accept the same config
        cfg = write_config(
            tmp_path,
            dataset={"synthetic": {"dim": 2, "n_examples": 10}},
            val_fraction=0.9,
            normalize=True,
            step_times=[1],
            methods=["local_sparse"],
            sparsity=0.5,
            rounds=2,
        )
        assert main(["validate", str(cfg)]) == 0
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["theory", str(cfg)]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert captured.err == "" and '"max_stepsize": Infinity' in captured.out
        assert (report["constants"]["smoothness"], report["constants"]["grad_bound"]) == (0.0, 0.0)
        assert report["rate_bound"]["total"] == report["rate_bound"]["opt_term"] > 0
        assert report["complexity"]["rounds"] == 0

    def test_theory_bounds_a_flat_loss_at_a_stepsize_whose_square_overflows(self, tmp_path, capsys):
        # the one training row standardizes to zeros, so L = 0 and any stepsize is admissible, 1e308 too
        cfg = write_config(
            tmp_path,
            dataset={"synthetic": {"dim": 1, "n_examples": 7, "separation": 5.0, "seed": 2}},
            step_times=[3],
            comm_seconds=6,
            methods=["fedavg_full"],
            val_fraction=0.9,
            sparsity=0.01,
            batch_size=4,
            rounds=3,
            seeds=[1],
            stepsize=1.0e308,
        )
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["theory", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "NaN" not in captured.out
        bound = json.loads(captured.out)["rate_bound"]
        assert (bound["noise_term"], bound["drift_term"], bound["staleness_term"]) == (0.0, 0.0, 0.0)
        assert bound["total"] == bound["opt_term"]

    def test_theory_drops_the_dispersion_term_at_an_epsilon_whose_power_overflows(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dataset={"synthetic": {"dim": 1, "n_examples": 7, "separation": 5.0, "seed": 2}},
            step_times=[3],
            comm_seconds=6,
            methods=["fedavg_full"],
            sparsity=0.01,
            batch_size=4,
            rounds=3,
            seeds=[1],
        )
        cfg.write_text(cfg.read_text(encoding="utf-8") + "theory: {epsilon: 1.0e+300}\n", encoding="utf-8")
        assert main(["theory", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["complexity"] == {"c_round": 12.0, "epsilon": 1e300, "rounds": 1, "seconds": 9}

    @pytest.mark.parametrize(
        "separation, least",
        # 1e100: gap * L * noise_var overflows before epsilon divides it, for a count of about 2e66;
        # 1e154: the sum of the 200 squared gradient norms overflows, while their mean is finite
        [(1.0e100, 1e66), (1.0e154, 1e100)],
        ids=["noise-term", "gradient-sum"],
    )
    def test_theory_reaches_a_finite_count_whose_factors_overflow(self, tmp_path, capsys, separation, least):
        synthetic = {"dim": 2, "n_examples": 20, "separation": separation, "seed": 1}
        cfg = write_config(
            tmp_path, dataset={"synthetic": synthetic}, normalize=False, rounds=2, theory={"epsilon": 1.0e300}
        )
        assert main(["theory", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert all(math.isfinite(v) for v in report["constants"].values() if not isinstance(v, str))
        assert isinstance(report["complexity"]["rounds"], int) and report["complexity"]["rounds"] > least
        # at 1e154, L = 6.25e306 and 8 L max_total overflows, but the ceiling is still a positive number
        ceiling = report["max_stepsize"]
        assert ceiling > 0.0
        assert report["rate_bound"]["violation"] == f"stepsize exceeds the admissible maximum {ceiling}"

    def test_an_initial_gradient_that_overflows_ends_the_run_without_a_warning(self, tmp_path, capsys, caplog):
        # the features reach 1e308, so the initial full gradient's backward product overflows
        cfg = write_config(
            tmp_path,
            dataset={"synthetic": {"dim": 3, "n_examples": 17, "separation": 1.0e308, "seed": 2}},
            step_times=[1],
            comm_seconds=2,
            methods=["overlap_delay_corrected"],
            val_fraction=0.5,
            normalize=False,
            batch_size=1,
            sparsity=1.0,
            rounds=2,
            seeds=[2],
            eval_every=2,
        )
        assert main(["run", str(cfg)]) == 2  # warnings are errors under pytest, so none was emitted
        assert capsys.readouterr().err == ""
        (run,) = manifest_runs(tmp_path / "out" / "manifest.json")
        assert (run.status, run.records) == ("diverged:round=0", [])
        assert "seed 2: non-finite values in full gradient" in caplog.text

    @pytest.mark.parametrize("stepsize", [1.0e-6, 0.1], ids=["bound", "violation"])
    def test_theory_blocks_are_their_dataclasses(self, tmp_path, capsys, stepsize):
        # each block holds one dataclass under its own field names, plus the named extras
        assert main(["theory", str(write_config(tmp_path, stepsize=stepsize))]) == 0
        report = json.loads(capsys.readouterr().out)

        def names(cls, *extra):
            return {f.name for f in fields(cls)} | set(extra)

        bounded = stepsize <= report.pop("max_stepsize")
        assert {block: set(keys) for block, keys in report.items()} == {
            "constants": names(ProblemConstants, "note"),
            "timing": {f.name for f in fields(TimingPlan) if not f.init} | {"round_seconds"},
            "bound_params": names(BoundParams, "contraction", "pre_weight", "overlap_weight"),
            "rate_bound": names(RateBound, "stepsize", "rounds") if bounded else {"stepsize", "violation"},
            "complexity": {"epsilon", "c_round", "rounds", "seconds"},
        }
        assert bounded == (stepsize == 1.0e-6)

    def test_theory_at_zero_rounds_prints_the_documented_violation(self, tmp_path, capsys):
        # an admissible stepsize, so the round count is the one rule the bound breaks
        assert main(["theory", str(write_config(tmp_path, rounds=0, stepsize=1.0e-6))]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["rate_bound"] == {"stepsize": 1e-06, "violation": "rounds must be >= 1"}

    def test_theory_on_data_whose_smoothness_bound_overflows_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "huge.libsvm"
        data.write_text("1 1:1e308 2:1e308\n-1 1:-1e308 2:1\n1 1:2 2:3\n-1 1:1 2:1\n", encoding="utf-8")
        cfg = write_config(
            tmp_path, dataset={"path": str(data), "dimension": 2}, normalize=False, val_fraction=0.0, batch_size=2
        )
        assert main(["theory", str(cfg)]) == 1  # warnings are errors under pytest, so none was emitted
        captured = capsys.readouterr()
        assert (captured.err.splitlines(), captured.out) == (["error: non-finite values in smoothness bound"], "")

    def test_a_gradient_norm_that_overflows_ends_the_run_without_an_infinite_row(self, tmp_path, caplog):
        # the same data: the initial full gradient is finite, but its norm overflows
        data = tmp_path / "huge.libsvm"
        data.write_text("1 1:1e308 2:1e308\n-1 1:-1e308 2:1\n1 1:2 2:3\n-1 1:1 2:1\n", encoding="utf-8")
        cfg = write_config(
            tmp_path, dataset={"path": str(data), "dimension": 2}, normalize=False, val_fraction=0.0, batch_size=2
        )
        assert main(["run", str(cfg)]) == 2  # warnings are errors under pytest, so none was emitted
        (run,) = manifest_runs(tmp_path / "out" / "manifest.json")
        assert (run.status, run.records) == ("diverged:round=0", [])
        assert "Infinity" not in run.jsonl.read_text(encoding="utf-8")
        assert "inf" not in run.csv.read_text(encoding="utf-8")
        assert "seed 0: non-finite values in full gradient norm" in caplog.text

    def test_theory_command_emits_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, stepsize=0.001)
        assert main(["theory", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "constants" in report and "complexity" in report
        assert report["complexity"]["rounds"] >= 1

    def test_theory_accepts_a_one_coordinate_mask_in_ten_thousand(self, tmp_path, capsys):
        synthetic = {"dim": 10000, "n_examples": 40, "separation": 1.5, "seed": 3}
        cfg = write_config(tmp_path, dataset={"synthetic": synthetic}, sparsity=0.0001, stepsize=0.001)
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["theory", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bound_params"]["contraction"] < 1.0
