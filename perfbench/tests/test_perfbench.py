"""Tests of the benchmark itself, at tiny sizes."""

import dataclasses
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import splitflow  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(name, seed=3):
    """The named workload at sizes that run in well under a second."""
    workload = workloads.make(name, seed)
    workload.config = dataclasses.replace(
        workload.config, dataset_size=256, model_hidden=16,
        teacher_iterations=6, teacher_batch_size=16,
        stage1_iterations=6, stage1_batch_size=16,
        stage2_iterations=3, stage2_batch_size=8,
        eval_n_seeds=2, eval_sample_count=32)
    return workload


def snapshot():
    return {(id(holder), name): value
            for holder in tracing._bindings_holders()
            for name, value in vars(holder).items()}


def test_workload_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 5).config == workloads.make(name, 5).config
        assert workloads.make(name, 5).config != workloads.make(name, 6).config
    first, again = workloads.make("sample-serve", 5), workloads.make("sample-serve", 5)
    assert first.requests == again.requests
    assert first.requests != workloads.make("sample-serve", 6).requests


def test_tracer_restores_every_patched_attribute():
    before = snapshot()
    original_main = splitflow.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # names bound by `from .x import y` are wrapped as well
        assert splitflow.distill.time_embedding is splitflow.flow.time_embedding
        assert splitflow.cli.load_checkpoint is splitflow.checkpoint.load_checkpoint
        assert splitflow.pipeline.train_teacher.__wrapped__ is before[
            (id(splitflow.flow), "train_teacher")]
        assert splitflow.nn.Mlp.__call__ is splitflow.nn.Mlp.forward
        assert splitflow.cli.main is not original_main
        assert len(tracer._patched) > len(tracing.SPAN_TARGETS)
    finally:
        tracer.restore()
    assert snapshot() == before
    assert splitflow.cli.main is original_main


def test_corrupted_sample_fails_the_check(tmp_path):
    workload = workloads.make("sample-serve", 4)
    workload.setup(tmp_path / "setup")
    request = workloads.Request("sample", 16, 4, seed=11)
    result = workload.run_request(request)
    assert result.problems == [] and result.wall_s > 0
    path = tmp_path / "setup" / "samples.csv"
    assert workload.check_sample(request, path) == []
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 0.01)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert workload.check_sample(request, path)


def test_ode_request_matches_the_numpy_reference(tmp_path):
    workload = workloads.make("sample-serve", 4)
    workload.setup(tmp_path / "setup")
    result = workload.run_request(workloads.Request("ode", 8, 10, seed=2))
    assert result.problems == [] and result.rows == 8


def test_stale_artifact_guard(tmp_path):
    workload = tiny("moons-distill")
    workload.setup(tmp_path / "setup")
    config = dataclasses.replace(workload.config, output_dir=str(tmp_path / "run"))
    started = time.time_ns()
    splitflow.run_pipeline(config, ["teacher"])
    assert checks.check_stage("teacher", config, started, *workload.dims) == []
    # a rerun skips the stage because its files exist: the guard must see it
    time.sleep(0.2)
    started = time.time_ns()
    splitflow.run_pipeline(config, ["teacher"])
    assert any("stale" in p for p in checks.check_stage(
        "teacher", config, started, *workload.dims))
    # a checkpoint from a different iteration count is caught by its header
    longer = dataclasses.replace(config, teacher_iterations=config.teacher_iterations + 1)
    assert any("iteration" in p for p in checks.check_stage(
        "teacher", longer, 0, *workload.dims))


def test_malformed_output_is_a_failed_operation(tmp_path, monkeypatch):
    workload = tiny("moons-distill")
    workload.setup(tmp_path / "setup")
    config = dataclasses.replace(workload.config, output_dir=str(tmp_path / "run"))
    started = time.time_ns()
    splitflow.run_pipeline(config, ["teacher"])
    losses = tmp_path / "run" / "losses_teacher.csv"
    lines = losses.read_text().splitlines()
    losses.write_text("\n".join([*lines[:2], lines[2].split(",")[0], *lines[3:]]) + "\n")
    assert any("not finite" in p for p in checks.check_stage(
        "teacher", config, started, *workload.dims))

    def unreadable(config):
        raise FileNotFoundError("metrics_summary.csv")
    monkeypatch.setattr(checks, "read_quality", unreadable)
    rnd = workload.run_round(tmp_path / "round")
    assert [op.kind for op in rnd.ops] == ["teacher", "distill", "eval"]
    assert rnd.ops[-1].wall_s is None and rnd.ops[-1].problems
    assert not rnd.complete


def test_serve_mix_gives_each_class_a_similar_share():
    shares = [count * workloads.SERVE_LATENCY_MS[cls] for cls, count in workloads.SERVE_MIX]
    assert {cls for cls, _ in workloads.SERVE_MIX} == set(workloads.SERVE_LATENCY_MS)
    assert max(shares) / min(shares) < 1.25


@pytest.mark.parametrize("name, adamw_per_step", [
    ("moons-distill", 1.0),
    ("patches-refine", (6 + 6 + 3 * 3) / 15),
])
def test_count_metrics_repeat_exactly(tmp_path, name, adamw_per_step):
    workload = tiny(name)
    workload.setup(tmp_path / "setup")
    results = []
    for i in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rnd = workload.run_round(tmp_path / f"round-{i}", tracer)
        finally:
            tracer.restore()
        assert all(op.problems == [] for op in rnd.ops)
        results.append(tracing.layer_metrics(tracer))
    first, second = results
    for key in ("autodiff.nodes_per_step", "nn.adamw_step.calls_per_step",
                "nn.mlp_forward.calls_per_step", "data.generate_dataset.calls"):
        assert first[key] == second[key]
    assert first["nn.adamw_step.calls_per_step"][0] == pytest.approx(adamw_per_step)
    assert first["autodiff.nodes_per_step"][0] > 25


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct, n = workloads.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert workloads.tail([3.0, 1.0])[0] == 3.0


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


def test_raw_forward_matches_taped_forward():
    net = splitflow.Mlp([5, 7, 3], rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((4, 5))
    got = net.forward(x.astype(np.float32)).values
    assert checks.compare("mlp", got, checks.raw_mlp(checks.mlp_layers(net), x)) == []


def test_benchmark_json_lists_exactly_the_per_layer_metrics():
    listed = {m["name"]: m["unit"]
              for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = tracing.Tracer()
    with tracer.op("sample", 1):
        pass
    produced = {name: unit for name, (_, unit) in tracing.layer_metrics(tracer).items()}
    produced.update({"nn.taped_over_raw": "ratio", "trace.overhead": "ratio"})
    assert produced == listed
