"""Every call the benchmark's tracer wraps is still made: a refactor that
bypasses a wrapped name would leave its per-layer metric at 0."""

from pathlib import Path

from conftest import base_config_dict, manifest_runs
from overlap_sgd.config import validate_config
from overlap_sgd.runner import run_suite

SPARSE = ["local_sparse", "overlap_overwrite", "overlap_delay_corrected"]


def load_spans() -> dict:
    # executed from its source, not imported, so nothing is written under perfbench/
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans)
    return spans


def tiny_suites(tmp_path) -> list:
    """Each partition mode, the sparse methods and ``fedavg_full``, with per-worker rows."""
    dirichlet = {"mode": "dirichlet", "alpha": 0.5, "min_examples": 4}
    overrides = [
        {"partition": {"mode": "shared"}, "methods": SPARSE},
        {"partition": {"mode": "shard"}, "methods": SPARSE, "eval_every": 2},
        {"partition": dirichlet, "methods": ["fedavg_full"], "sparsity": 1.0},
    ]
    configs = []
    for i, extra in enumerate(overrides):
        raw = base_config_dict(rounds=3, seeds=[0, 1], eval_per_worker=True, output_dir=str(tmp_path / str(i)))
        config, issues = validate_config({**raw, **extra})
        assert issues == []
        configs.append(config)
    return configs


def test_every_traced_layer_records_spans(tmp_path):
    spans = load_spans()
    layers, targets = spans["Tracer"](), spans["Tracer"]()
    # the second tracer names each wrapped attribute apart, so no layer name hides one that went unused
    own_names = [(owner, attr, f"{owner.__name__}.{attr}") for owner, attr, _ in spans["TARGETS"]]
    configs = tiny_suites(tmp_path)
    with layers.installed(), targets.installed(own_names):
        results = layers.wrap(spans["ROOT_SPAN"], lambda: [run_suite(c) for c in configs])()
    assert {s.name for s in layers.spans} == {name for *_, name in spans["TARGETS"]} | {spans["ROOT_SPAN"]}
    assert {s.name for s in targets.spans} == {name for *_, name in own_names}
    metrics = spans["layer_metrics"](layers.spans)
    runs = [run for manifest_path in results for run in manifest_runs(manifest_path)]
    written = sum(len(run.jsonl.read_text(encoding="utf-8").splitlines()) for run in runs)
    assert metrics["metrics.evaluate_calls"] == written == sum(len(run.records) for run in runs) > 0
