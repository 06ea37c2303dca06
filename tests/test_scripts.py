"""Smoke test: the scripts that take ``--config`` run on a tiny config and on its manifest."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import overlap_sgd
from conftest import base_config_dict

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, config: Path, cwd: Path) -> subprocess.CompletedProcess:
    paths = [str(Path(overlap_sgd.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--config", str(config)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "script, overrides, expected",
    [
        ("overlap_comparison.py", {}, "final train loss over 2 seeds"),
        (
            "stress_noniid.py",
            {"partition": {"mode": "dirichlet", "alpha": 0.5, "min_examples": 5}},
            "dirichlet alpha 0.5",
        ),
    ],
)
def test_script_runs_on_a_config_and_on_its_manifest(tmp_path, script, overrides, expected):
    raw = base_config_dict(
        methods=["local_sparse", "overlap_delay_corrected"],
        rounds=2,
        seeds=[0, 1],
        output_dir="out",
        **overrides,
    )
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    first = run_script(script, config, tmp_path)
    assert first.returncode == 0, first.stderr
    assert expected in first.stdout
    # a manifest is accepted as `overlap-sgd run` accepts it, and replays the same results
    replay = run_script(script, tmp_path / "out" / "manifest.json", tmp_path)
    assert replay.returncode == 0, replay.stderr
    assert replay.stdout == first.stdout
