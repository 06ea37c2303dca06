import gzip
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import base_config_dict
from overlap_sgd.cli import main
from overlap_sgd.config import rand_k_size, validate_config
from overlap_sgd.data import load_libsvm, serialize_libsvm, synthetic_blobs
from overlap_sgd.metrics import render_csv
from overlap_sgd.runner import run_suite


def write_config(tmp_path, **overrides) -> Path:
    raw = base_config_dict(**overrides)
    if "output_dir" not in overrides:
        raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


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
        result = run_suite(config)
        assert [r.status for r in result.runs] == ["ok"]

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
        assert "invalid config: fedavg_full requires a full mask" in err
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

    @pytest.mark.filterwarnings("ignore:worker .* received zero examples")
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
        res_a = run_suite(cfg_a)
        res_b = run_suite(cfg_b)
        hashes_a = json.loads(Path(res_a.manifest_path).read_text())["artifacts"]
        hashes_b = json.loads(Path(res_b.manifest_path).read_text())["artifacts"]
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
    def test_dataset_file_vanishing_after_validation_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, command
    ):
        import overlap_sgd.runner as runner_mod

        data_path = tmp_path / "blobs.libsvm"
        data_path.write_text(serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8")
        cfg = write_config(tmp_path, dataset={"path": str(data_path)}, methods=["local_sparse"])

        def vanished(path, dimension=None):
            raise FileNotFoundError(2, "No such file or directory", str(path))

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
        with pytest.raises(FileNotFoundError):
            main(["run", str(cfg)])
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
        "theory, message",
        [
            # epsilon**1.5 underflows to 0.0
            ("{epsilon: 1.0e-300}", "epsilon=1e-300, c_round=12.0"),
            # the round count overflows to inf
            ("{c_round: 1.0e+308}", "epsilon=0.01, c_round=1e+308"),
        ],
        ids=["underflow", "overflow"],
    )
    def test_theory_rejects_an_unbounded_round_count_in_one_line(self, tmp_path, capsys, theory, message):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text(encoding="utf-8") + f"theory: {theory}\n", encoding="utf-8")
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["theory", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"invalid config: round complexity is not a finite number at {message}"
        ]
        assert captured.out == ""

    def test_theory_command_emits_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, stepsize=0.001)
        assert main(["theory", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "constants" in report and "complexity" in report
        assert report["complexity"]["rounds"] >= 1

    def test_gen_data_writes_loadable_libsvm(self, tmp_path, capsys):
        spec = tmp_path / "blobs.yaml"
        out_file = tmp_path / "data" / "blobs.libsvm"
        spec.write_text(
            yaml.safe_dump({"dim": 6, "n_examples": 30, "separation": 2.0, "seed": 1, "out": str(out_file)}),
            encoding="utf-8",
        )
        assert main(["gen-data", str(spec)]) == 0
        data = load_libsvm(out_file)
        assert data.n_examples == 30
        assert data.dim == 6
        capsys.readouterr()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("dim: abc", "invalid spec: dim: must be a positive integer"),
            ("dim: 0", "invalid spec: dim: must be a positive integer"),
            ("separtion: 3", "invalid spec: separtion: unknown configuration key"),
        ],
    )
    def test_gen_data_reports_a_bad_spec_in_one_line(self, tmp_path, capsys, line, message):
        spec = tmp_path / "blobs.yaml"
        out_file = tmp_path / "blobs.libsvm"
        spec.write_text(f"{line}\nout: {out_file}\n", encoding="utf-8")
        assert main(["gen-data", str(spec)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out_file.exists()

    def test_gen_data_requires_out(self, tmp_path, capsys):
        spec = tmp_path / "nospec.yaml"
        spec.write_text("dim: 3\n", encoding="utf-8")
        assert main(["gen-data", str(spec)]) == 1
        capsys.readouterr()
