"""Every script runs on a tiny config and on its manifest; the comparison
script's sweeps write one replayable suite per grid point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import overlap_sgd
from conftest import base_config_dict
from overlap_sgd.cli import main
from overlap_sgd.data import serialize_libsvm, synthetic_blobs

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))
COMPARISON = SCRIPT_DIR / "overlap_comparison.py"
GRIDS = {
    "comm_seconds": ["12", "48"],
    "compute_periods": ["1", "4", "16", "64"],
    "sparsity": ["0.001", "0.01", "0.1", "1.0"],
}


def run_script(script: Path, config: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    paths = [str(Path(overlap_sgd.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, str(script), "--config", str(config), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def write_config(tmp_path: Path, **overrides) -> Path:
    raw = {
        **base_config_dict(methods=["local_sparse", "overlap_delay_corrected"], rounds=2, seeds=[0, 1]),
        "output_dir": "out",
        **overrides,
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def method_rows(stdout: str) -> list[str]:
    return [line.strip() for line in stdout.splitlines() if line.startswith("  ") and "method" not in line]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_on_a_config_and_on_its_manifest(tmp_path, script):
    first = run_script(script, write_config(tmp_path), tmp_path)
    assert first.returncode == 0, first.stderr
    # a manifest is accepted as `overlap-sgd run` accepts it, and replays the same results
    replay = run_script(script, tmp_path / "out" / "manifest.json", tmp_path)
    assert replay.returncode == 0, replay.stderr
    assert replay.stdout == first.stdout


@pytest.mark.parametrize(
    "overrides, row_end",
    [
        ({}, "2/2"),
        ({"partition": {"mode": "dirichlet", "alpha": 0.5, "min_examples": 5}}, "2/2"),
        # 3 examples over 4 workers: some pool is empty by pigeonhole, so every seed is skipped
        (
            {
                "dataset": {"synthetic": {"dim": 4, "n_examples": 3, "separation": 1.0, "seed": 0}},
                "val_fraction": 0.0,
                "partition": {"mode": "dirichlet", "alpha": 1.0},
                "step_times": [1, 1, 1, 1],
                "comm_seconds": 0,
                "batch_size": 2,
            },
            "no seed finished  0/2",
        ),
    ],
    ids=["shared", "dirichlet", "starved"],
)
def test_one_row_per_method(tmp_path, overrides, row_end):
    result = run_script(COMPARISON, write_config(tmp_path, **overrides), tmp_path)
    assert result.returncode == 0, result.stderr
    rows = method_rows(result.stdout)
    assert [row.split()[0] for row in rows] == ["local_sparse", "overlap_delay_corrected"]
    assert all(row.endswith(row_end) for row in rows), rows


@pytest.mark.parametrize("field", sorted(GRIDS))
def test_sweep_writes_a_replayable_suite_per_grid_point(tmp_path, monkeypatch, capsys, field):
    result = run_script(COMPARISON, write_config(tmp_path), tmp_path, "--sweep", field)
    assert result.returncode == 0, result.stderr
    labels = [f"{field}={value}" for value in GRIDS[field]]
    assert [line.split(":")[0] for line in result.stdout.splitlines() if line[:1].isalpha()] == labels
    assert len(method_rows(result.stdout)) == 2 * len(labels)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(labels)
    monkeypatch.chdir(tmp_path)  # output_dir is relative, as the script saw it
    for label, value in zip(labels, GRIDS[field]):
        point = tmp_path / "out" / label
        manifest = json.loads((point / "manifest.json").read_text(encoding="utf-8"))
        assert str(manifest["config"][field]) == value
        assert manifest["config"]["output_dir"] == f"out/{label}"
        first = snapshot(point)
        assert main(["run", str(point / "manifest.json")]) == 0
        assert snapshot(point) == first
    capsys.readouterr()


def test_sweep_with_a_rejected_grid_point_runs_nothing(tmp_path):
    cfg = write_config(tmp_path, methods=["fedavg_full"], sparsity=1.0)
    result = run_script(COMPARISON, cfg, tmp_path, "--sweep", "sparsity")
    assert result.returncode != 0
    assert "invalid config at sparsity=0.001: methods: fedavg_full requires a full mask" in result.stderr
    assert "sparsity=1.0" not in result.stderr
    assert result.stdout == ""
    assert not (tmp_path / "out").exists()


def bad_input(tmp_path: Path, case: str) -> Path:
    """A config path that fails as ``case`` says: before, while or after loading data."""
    if case == "missing-config":
        return tmp_path / "nope.yaml"
    if case == "yaml-error":
        path = tmp_path / "config.yaml"
        path.write_text("methods: [local_sparse\n", encoding="utf-8")
        return path
    data_path = tmp_path / "data.libsvm"
    if case == "bad-dataset":
        data_path.write_text("+1 1:0.5\nnot-a-label 2:1.0\n", encoding="utf-8")
        return write_config(tmp_path, dataset={"path": str(data_path)})
    # without 'dimension' the mask rule can only be checked once the data is loaded
    data_path.write_text(serialize_libsvm(synthetic_blobs(6, 40, 1.5, 0)), encoding="utf-8")
    return write_config(tmp_path, dataset={"path": str(data_path)}, methods=["fedavg_full"])


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing-config", "error: config file not found: "),
        ("yaml-error", "error: could not parse "),
        ("bad-dataset", "error: could not load dataset "),
        ("post-load-rule", "invalid config: fedavg_full requires a full mask"),
    ],
)
def test_bad_input_fails_as_overlap_sgd_run_does(tmp_path, capsys, case, message):
    config = bad_input(tmp_path, case)
    assert main(["run", str(config)]) == 1
    expected = capsys.readouterr().err
    assert expected.startswith(message) and "Traceback" not in expected
    result = run_script(COMPARISON, config, tmp_path)
    assert (result.returncode, result.stderr, result.stdout) == (1, expected, "")
    assert not (tmp_path / "out").exists()
