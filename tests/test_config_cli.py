import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitflow import (Discriminator, ExperimentConfig, StudentModel,
                       TeacherModel, dump_config, load_checkpoint, make_rng,
                       run_pipeline, save_checkpoint, stage_seed)
from splitflow import cli, pipeline
from splitflow.cli import main
from splitflow.config import ConfigError, parse_config
from splitflow.pipeline import STAGES, PipelineError, emit_report


# ---- config parsing ------------------------------------------------------------

def test_parse_defaults_from_empty_text():
    config = parse_config("")
    assert config == ExperimentConfig()


def test_parse_overrides_and_comments():
    text = """
    # experiment
    dataset_size = 128
    teacher_lr = 5e-4
    stage1_guidance_scale = none
    emit_svg = true
    """
    config = parse_config(text)
    assert config.dataset_size == 128
    assert config.teacher_lr == 5e-4
    assert config.stage1_guidance_scale is None
    assert config.emit_svg is True


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("learning_rate = 0.1")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2")


def test_parse_rejects_bad_value_with_location():
    with pytest.raises(ConfigError, match=":2"):
        parse_config("seed = 1\ndataset_size = many")


@pytest.mark.parametrize("line, key", [
    ("eval_n_seeds = 1", "eval_n_seeds"),
    ("stage1_branch_probability = 1.5", "stage1_branch_probability"),
    ("teacher_iterations = -3", "teacher_iterations"),
    ("dataset_name = foo", "dataset_name"),
    ("stage2_batch_size = 0", "stage2_batch_size"),
    ("teacher_condition_dropout = -0.1", "teacher_condition_dropout"),
    ("stage2_vsd_t_min = 0.99", "stage2_vsd_t_min"),
    ("stage2_vsd_t_max = 1.5", "stage2_vsd_t_max"),
    ("model_time_embed_dim = 7", "model_time_embed_dim"),
    ("model_time_embed_dim = 0", "model_time_embed_dim"),
    ("dataset_name = tiny-patches\ndegrade_factor = 3", "degrade_factor"),
    ("stage2_lambda1 = -1", "stage2_lambda1"),
    ("stage2_lambda2 = -0.5", "stage2_lambda2"),
    ("stage2_lambda3 = -1e-3", "stage2_lambda3"),
    ("stage2_lambda4 = -2", "stage2_lambda4"),
    ("degrade_noise_std = -0.02", "degrade_noise_std"),
    ("seed = -3", "seed"),
    (f"seed = {2 ** 128}", "seed"),
    ("dataset_seed_offset = -1", "dataset_seed_offset"),
    (f"dataset_seed_offset = {2 ** 128 - 2 ** 64 + 1}", "dataset_seed_offset"),
], ids=["one-seed", "probability-above-1", "negative-iterations", "unknown-dataset",
        "zero-batch", "negative-dropout", "vsd-t-min-above-max", "vsd-t-max-above-1",
        "odd-time-embed-dim", "zero-time-embed-dim",
        "patch-side-not-divisible", "negative-lambda1", "negative-lambda2",
        "negative-lambda3", "negative-lambda4", "negative-noise-std", "negative-seed",
        "seed-2**128", "negative-seed-offset", "seed-offset-past-the-key-range"])
def test_parse_rejects_out_of_range_value_with_location(line, key):
    lineno = 1 + len(line.splitlines())    # the last line read names the error
    with pytest.raises(ConfigError, match=rf"exp\.cfg:{lineno}: bad values? for .*'{key}'"):
        parse_config(f"dataset_size = 64\n{line}", path="exp.cfg")


def test_parse_checks_degrade_factor_against_the_patch_side():
    # the later of the two lines is named, whichever comes first
    with pytest.raises(ConfigError, match=r"c:3: .*'dataset_name' and 'degrade_factor'"):
        parse_config("degrade_factor = 3\nseed = 1\ndataset_name = tiny-patches", path="c")
    assert parse_config("dataset_name = tiny-patches\ndegrade_factor = 4").degrade_factor == 4
    assert parse_config("degrade_factor = 3").degrade_factor == 3    # moons: no patch side


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words")


def test_dump_parse_round_trip():
    config = ExperimentConfig(dataset_size=77, stage1_guidance_scale=7.5,
                              emit_svg=True)
    assert parse_config(dump_config(config)) == config


def test_fingerprint_tracks_content_not_formatting():
    a = parse_config("seed = 3\ndataset_size = 64")
    b = parse_config("dataset_size =   64   # comment\n\nseed=3")
    assert a.fingerprint() == b.fingerprint()
    c = parse_config("seed = 4\ndataset_size = 64")
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 16


def test_parse_accepts_philox_keys_up_to_their_bounds(tmp_path):
    # the largest master seed and offset still make keys, with any stage seed
    config = parse_config(f"seed = {2 ** 128 - 1}\ndataset_seed_offset = {2 ** 128 - 2 ** 64}")
    assert (config.seed, config.dataset_seed_offset) == (2 ** 128 - 1, 2 ** 128 - 2 ** 64)
    make_rng(config.seed)
    make_rng(2 ** 64 - 1 + config.dataset_seed_offset)
    config = tiny_config(tmp_path, seed=config.seed, dataset_seed_offset=config.dataset_seed_offset)
    assert pipeline._dataset_arrays(*pipeline._dataset_args(config))[0].shape == (64, 2)
    eval_set = pipeline._dataset_args(config, "eval-dataset")
    assert pipeline._dataset_arrays(*eval_set)[0].shape == (32, 2)


def test_stage_seed_is_stable_and_stage_dependent():
    assert stage_seed(0, "teacher") == stage_seed(0, "teacher")
    assert stage_seed(0, "teacher") != stage_seed(0, "distill")
    assert stage_seed(0, "teacher") != stage_seed(1, "teacher")
    assert 0 <= stage_seed(12345, "eval") < 2 ** 64


# ---- report emission --------------------------------------------------------------

def test_emit_report_empty_records(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], path, columns=["iteration", "loss"])
    assert path.read_text() == "iteration,loss\n"


def test_emit_report_single_record(tmp_path):
    path = tmp_path / "one.csv"
    emit_report([{"iteration": 0, "loss": 0.123456789}], path,
                columns=["iteration", "loss"])
    assert path.read_text() == "iteration,loss\n0,0.123457\n"


def test_emit_report_byte_identical_re_emission(tmp_path):
    records = [{"iteration": i, "loss": 1.0 / (i + 1)} for i in range(5)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(records, p1, columns=["iteration", "loss"])
    emit_report(records, p2, columns=["iteration", "loss"])
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_emit_report_array_matches_per_value_formatting(tmp_path, dtype):
    def reference(values, path, columns):
        lines = [",".join(columns)]
        lines.extend(",".join(f"{v:.6g}" for v in row) for row in values.tolist())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-45, 3.4e38,
               1.7976931348623157e308, 123456.5, 1234567.0, -1e-7, 0.1]
    rng = make_rng(3)
    for values in (np.array(special).reshape(7, 2),
                   rng.standard_normal((2048, 4)) * 10.0 ** rng.integers(-9, 9, (2048, 4)),
                   rng.standard_normal((33, 256)), rng.standard_normal((3, 5)).T,
                   np.zeros((0, 3)), np.array([[np.nan]])):
        with np.errstate(over="ignore"):    # float64 extremes become float32 infinities
            values = values.astype(dtype)
        columns = [f"x{j}" for j in range(values.shape[1])]
        emit_report(values, tmp_path / "got.csv", columns)
        reference(values, tmp_path / "want.csv", columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---- pipeline ----------------------------------------------------------------------

def tiny_config(tmp_path, **overrides):
    base = dict(
        dataset_size=64, model_hidden=8, model_layers=2,
        model_time_embed_dim=8,
        teacher_iterations=5, teacher_batch_size=16,
        stage1_iterations=5, stage1_batch_size=16,
        stage2_iterations=3, stage2_batch_size=8,
        eval_n_seeds=2, eval_sample_count=32,
        seed=0, output_dir=str(tmp_path / "run"))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_pipeline_produces_all_artifacts(tmp_path):
    config = tiny_config(tmp_path)
    run_pipeline(config, ["teacher", "distill", "refine", "eval"])
    expected = ["teacher.ckpt", "losses_teacher.csv",
                "student_stage1.ckpt", "losses_stage1.csv",
                "student_stage2.ckpt", "regularizer.ckpt",
                "discriminator.ckpt", "losses_stage2.csv",
                "metrics.csv", "metrics_summary.csv"]
    for name in expected:
        assert os.path.exists(os.path.join(config.output_dir, name)), name
    _, meta = load_checkpoint(os.path.join(config.output_dir, "teacher.ckpt"))
    assert meta["config_fingerprint"] == config.fingerprint()


def test_pipeline_rerun_is_idempotent(tmp_path):
    config = tiny_config(tmp_path)
    run_pipeline(config, ["teacher"])
    path = os.path.join(config.output_dir, "teacher.ckpt")
    before = open(path, "rb").read()
    mtime = os.path.getmtime(path)
    run_pipeline(config, ["teacher"])    # skipped: outputs exist
    assert open(path, "rb").read() == before
    assert os.path.getmtime(path) == mtime


def test_pipeline_builds_the_training_set_once_per_call(tmp_path, monkeypatch):
    sizes = []
    build = pipeline.generate_dataset

    def counting_build(name, n, seed, degradation=None):
        sizes.append(n)
        return build(name, n, seed, degradation=degradation)

    monkeypatch.setattr(pipeline, "generate_dataset", counting_build)
    config = tiny_config(tmp_path)
    run_pipeline(config, STAGES)
    # one training set for teacher, distill and refine, then the eval set
    assert sizes == [config.dataset_size, config.eval_sample_count]
    run = Path(config.output_dir)
    together = {path.name: path.read_bytes() for path in run.iterdir()}
    shutil.rmtree(config.output_dir)
    sizes.clear()
    for stage in STAGES:
        run_pipeline(config, [stage])
    # a call that runs eval alone builds no training set
    assert sizes == [config.dataset_size] * 3 + [config.eval_sample_count]
    for name, data in together.items():
        assert (run / name).read_bytes() == data, name


def test_stage_commands_in_separate_processes_match_one_pipeline_call(tmp_path):
    # the criterion-9 config; each stage command reads its inputs from disk only
    config = ExperimentConfig(
        dataset_size=128, model_hidden=16, model_layers=2, model_time_embed_dim=8,
        teacher_iterations=40, teacher_batch_size=32, stage1_iterations=40,
        stage1_batch_size=32, stage2_iterations=10, stage2_batch_size=16,
        eval_n_seeds=3, eval_sample_count=64, seed=7, output_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "c9.cfg"
    cfg_path.write_text(dump_config(config))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*commands):
        for command in commands:
            subprocess.run([sys.executable, "-m", "splitflow.cli", command,
                            "--config", str(cfg_path)], env=env, check=True,
                           capture_output=True)
        run_dir = Path(config.output_dir)
        files = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        shutil.rmtree(run_dir)
        return files

    together = run("pipeline")
    apart = run("train-teacher", "distill", "refine", "eval")
    assert len(together) == 10
    assert sorted(apart) == sorted(together)
    for name, data in together.items():
        assert apart[name] == data, name


def test_pipeline_training_set_is_read_only(tmp_path):
    x, cond = pipeline._dataset_arrays(*pipeline._dataset_args(tiny_config(tmp_path)))
    with pytest.raises(ValueError, match="read-only"):
        x[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cond[0, 0] = 1.0


def test_pipeline_missing_prior_stage_named(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(PipelineError, match="teacher"):
        run_pipeline(config, ["distill"])
    run_pipeline(config, ["teacher"])
    with pytest.raises(PipelineError, match="distill"):
        run_pipeline(config, ["refine"])


def test_pipeline_rejects_unknown_stage(tmp_path):
    with pytest.raises(PipelineError, match="unknown stages"):
        run_pipeline(tiny_config(tmp_path), ["deploy"])


def test_pipeline_svg_emission(tmp_path):
    config = tiny_config(tmp_path, emit_svg=True)
    run_pipeline(config, ["teacher"])
    svg = os.path.join(config.output_dir, "losses_teacher.svg")
    assert os.path.exists(svg)
    assert open(svg).read().startswith("<svg")


# ---- CLI ------------------------------------------------------------------------

def write_tiny_config_file(tmp_path, **overrides):
    config = tiny_config(tmp_path, **overrides)
    path = tmp_path / "exp.cfg"
    path.write_text(dump_config(config))
    return str(path), config


@pytest.mark.parametrize("command", ["train-teacher", "distill", "refine",
                                     "eval", "pipeline", "sample",
                                     "diagnose-isc"])
def test_cli_dry_run_touches_nothing(tmp_path, capsys, command):
    cfg_path, config = write_tiny_config_file(tmp_path)
    # sample's dry run still needs a checkpoint path to report
    argv = [command, "--config", cfg_path, "--dry-run"]
    if command == "sample":
        argv += ["--checkpoint", "whatever.ckpt"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert config.fingerprint() in out
    assert not os.path.exists(config.output_dir)


def test_cli_pipeline_then_sample_and_diagnose(tmp_path, capsys):
    cfg_path, config = write_tiny_config_file(tmp_path)
    assert main(["pipeline", "--config", cfg_path]) == 0
    capsys.readouterr()

    assert main(["sample", "--config", cfg_path, "--num", "4"]) == 0
    sample_path = capsys.readouterr().out.strip()
    lines = open(sample_path).read().strip().splitlines()
    assert len(lines) == 5    # header + 4 samples

    assert main(["sample", "--config", cfg_path, "--num", "4",
                 "--steps", "4"]) == 0
    capsys.readouterr()

    assert main(["diagnose-isc", "--config", cfg_path, "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "splitting-identity residual" in out
    assert "0.375" in out


def test_cli_sample_without_checkpoint_fails_cleanly(tmp_path, capsys):
    cfg_path, _ = write_tiny_config_file(tmp_path)
    assert main(["sample", "--config", cfg_path]) == 2
    assert capsys.readouterr() == ("", "splitflow: error: missing input checkpoint "
                                   "'student_stage1.ckpt'; run the 'distill' stage first\n")


@pytest.mark.parametrize("kind", ["teacher", "discriminator"])
def test_cli_sample_rejects_non_student_checkpoint(tmp_path, capsys, kind):
    cfg_path, _ = write_tiny_config_file(tmp_path)
    model = (TeacherModel(2, 1, hidden_sizes=(8,), time_embed_dim=8, rng=make_rng(0))
             if kind == "teacher" else Discriminator(2, hidden=8, rng=make_rng(0)))
    ckpt = str(tmp_path / f"{kind}.ckpt")
    save_checkpoint(model, {"iteration": 0}, ckpt)
    out = tmp_path / "samples.csv"
    assert main(["sample", "--config", cfg_path, "--checkpoint", ckpt,
                 "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", f"splitflow: error: {ckpt} is a {kind} checkpoint, "
                                   "not a student one\n")
    assert not out.exists()


def test_cli_sample_rejects_student_that_does_not_fit_the_dataset(tmp_path, capsys):
    cfg_path, _ = write_tiny_config_file(tmp_path)
    ckpt = str(tmp_path / "wide.ckpt")
    save_checkpoint(StudentModel(256, 64, hidden_sizes=(8,), time_embed_dim=8, rng=make_rng(0)),
                    {"iteration": 0}, ckpt)
    out = tmp_path / "samples.csv"
    assert main(["sample", "--config", cfg_path, "--checkpoint", ckpt,
                 "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", f"splitflow: error: {ckpt}: the student takes "
                                   "state_dim 256 and cond_dim 64, but two-moons-conditional "
                                   "has state_dim 2 and cond_dim 1\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--steps", "0"],
    ["sample", "--num", "-1"],
    ["sample", "--num", "0"],
    ["diagnose-isc", "--trials", "-5"],
], ids=["steps-0", "num-negative", "num-0", "trials-negative"])
def test_cli_rejects_non_positive_counts(tmp_path, capsys, argv):
    cfg_path, config = write_tiny_config_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", cfg_path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"{argv[1]}: expected a positive integer, got {argv[2]}" in err
    assert not os.path.exists(config.output_dir)


@pytest.mark.parametrize("command", ["sample", "diagnose-isc"])
def test_cli_force_only_on_stage_commands(tmp_path, capsys, command):
    cfg_path, config = write_tiny_config_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err
    assert not os.path.exists(config.output_dir)


def test_cli_seed_override(tmp_path, capsys):
    cfg_path, config = write_tiny_config_file(tmp_path)
    assert main(["train-teacher", "--config", cfg_path, "--seed", "9",
                 "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert config.fingerprint() not in out    # seed changes the fingerprint


def test_cli_rejects_bad_config_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_speed = 9\n")
    assert main(["train-teacher", "--config", str(path), "--dry-run"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"splitflow: error: {path}:1: unknown key 'warp_speed'\n"


def test_cli_config_file_not_utf8_exits_2_naming_the_byte(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 3\n\xff\n")
    assert main(["train-teacher", "--config", str(path), "--dry-run"]) == 2
    assert capsys.readouterr() == ("", f"splitflow: error: {path}: not UTF-8 text at byte 9\n")


@pytest.mark.parametrize("key", ["sampler_steps", "sampler_scheme", "sampler_guidance_scale",
                                 "stage2_schedule"])
def test_cli_rejects_deleted_keys_as_unknown(tmp_path, capsys, key):
    # keys that no stage read; a file that still sets one is refused, not ignored
    path = tmp_path / "old.cfg"
    path.write_text(f"seed = 1\n{key} = 5\n")
    assert main(["pipeline", "--config", str(path), "--dry-run"]) == 2
    assert capsys.readouterr() == ("", f"splitflow: error: {path}:2: unknown key {key!r}\n")


@pytest.mark.parametrize("command", ["diagnose-isc", "sample", "train-teacher"])
def test_cli_rejects_negative_seed(tmp_path, capsys, command):
    cfg_path, config = write_tiny_config_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--seed: expected a nonnegative integer, got -1" in err
    path = tmp_path / "negative.cfg"
    path.write_text(f"output_dir = {config.output_dir}\nseed = -3\n")
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"splitflow: error: {path}:2: bad value for 'seed': "
                                   "-3 is out of range\n")
    assert not os.path.exists(config.output_dir)


@pytest.mark.parametrize("command", ["diagnose-isc", "train-teacher"])
def test_cli_seeds_at_the_philox_key_bounds(tmp_path, capsys, command):
    # the largest master seed and offset run; one past either exits 2
    cfg_path, config = write_tiny_config_file(tmp_path, dataset_seed_offset=2 ** 128 - 2 ** 64)
    trials = ["--trials", "3"] if command == "diagnose-isc" else []
    assert main([command, "--config", cfg_path, "--seed", str(2 ** 128 - 1), *trials]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, "--seed", str(2 ** 128)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"--seed: expected an integer below 2**128, got {2 ** 128}" in err
    path = tmp_path / "bad.cfg"
    for key, value in [("seed", 2 ** 128), ("dataset_seed_offset", -1),
                       ("dataset_seed_offset", 2 ** 128 - 2 ** 64 + 1)]:
        path.write_text(f"output_dir = {config.output_dir}\n{key} = {value}\n")
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"splitflow: error: {path}:2: bad value for "
                                       f"{key!r}: {value} is out of range\n")


def test_cli_bad_config_value_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 1\nmodel_time_embed_dim = 7\n")
    assert main(["train-teacher", "--config", str(path), "--dry-run"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"splitflow: error: {path}:2: bad value for "
                   "'model_time_embed_dim': 7 is not even\n")


@pytest.mark.parametrize("line, key, why", [
    ("stage2_lambda1 = nan", "stage2_lambda1", "nan is not finite"),
    ("degrade_noise_std = nan", "degrade_noise_std", "nan is not finite"),
    ("stage1_guidance_scale = inf", "stage1_guidance_scale", "inf is not finite"),
    ("stage2_vsd_t_max = nan", "stage2_vsd_t_max", "nan is not finite"),
    ("teacher_lr = -1", "teacher_lr", "-1.0 is not positive"),
    ("stage1_lr = 0", "stage1_lr", "0.0 is not positive"),
    ("stage2_discriminator_lr = nan", "stage2_discriminator_lr", "nan is not finite"),
    ("teacher_weight_decay = -1e-4", "teacher_weight_decay", "-0.0001 is out of range"),
], ids=["nan-lambda1", "nan-noise-std", "inf-guidance-scale", "nan-vsd-t-max",
        "negative-lr", "zero-lr", "nan-lr", "negative-weight-decay"])
def test_cli_rejects_non_finite_and_non_positive_values(tmp_path, capsys, line, key, why):
    path = tmp_path / "bad.cfg"
    path.write_text(f"seed = 1\n{line}\n")
    assert main(["pipeline", "--config", str(path), "--dry-run"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"splitflow: error: {path}:2: bad value for {key!r}: {why}\n"


def test_cli_stage_without_its_input_exits_2_with_one_line(tmp_path, capsys):
    cfg_path, config = write_tiny_config_file(tmp_path)
    assert main(["distill", "--config", cfg_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("splitflow: error: missing input checkpoint 'teacher.ckpt'; "
                   "run the 'teacher' stage first\n")


# a numpy RuntimeWarning raised on the way to the divergence fails the test
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_diverging_stage_exits_2_with_one_line_and_writes_nothing(tmp_path, capsys):
    cfg_path, config = write_tiny_config_file(tmp_path, teacher_lr=1e30)
    assert main(["train-teacher", "--config", cfg_path]) == 2
    assert capsys.readouterr() == ("", "splitflow: error: teacher iteration 1: "
                                   "non-finite flow-matching loss\n")
    assert os.listdir(config.output_dir) == []


@pytest.mark.parametrize("command, stage, artifact", [
    ("train-teacher", "teacher", "teacher.ckpt"),
    ("refine", "refine", "discriminator.ckpt")])
def test_cli_truncated_stage_output_is_not_a_finished_stage(tmp_path, capsys, command,
                                                             stage, artifact):
    cfg_path, config = write_tiny_config_file(tmp_path)
    stages = STAGES[:STAGES.index(stage) + 1]
    run_pipeline(config, stages)
    ckpt = Path(config.output_dir) / artifact
    whole = ckpt.read_bytes()
    ckpt.write_bytes(whole[:100])
    assert main([command, "--config", cfg_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"splitflow: error: stage {stage!r} cannot reuse {ckpt}: "
                   f"truncated checkpoint metadata in {ckpt}; "
                   "rerun with --force to rebuild it\n")
    assert len(ckpt.read_bytes()) == 100
    assert main([command, "--config", cfg_path, "--force"]) == 0
    # the rebuilt stage writes the bytes the first run wrote
    assert ckpt.read_bytes() == whole
    load_checkpoint(str(ckpt))


@pytest.mark.parametrize("command, producer, artifact", [
    ("distill", "teacher", "teacher.ckpt"),
    ("eval", "distill", "student_stage1.ckpt")])
def test_cli_corrupt_stage_input_names_the_reader_and_the_stage_to_rerun(
        tmp_path, capsys, command, producer, artifact):
    cfg_path, config = write_tiny_config_file(tmp_path)
    run_pipeline(config, STAGES[:STAGES.index(producer) + 1])
    ckpt = Path(config.output_dir) / artifact
    whole = ckpt.read_bytes()
    ckpt.write_bytes(whole[:20])
    assert main([command, "--config", cfg_path]) == 2
    assert capsys.readouterr() == ("", (
        f"splitflow: error: stage {command!r} cannot read {ckpt}: "
        f"truncated checkpoint metadata in {ckpt}; "
        f"rerun the {producer!r} stage with --force to rebuild it\n"))
    rerun = "train-teacher" if producer == "teacher" else producer
    assert main([rerun, "--config", cfg_path, "--force"]) == 0
    assert ckpt.read_bytes() == whole
    assert main([command, "--config", cfg_path]) == 0


def test_cli_sample_truncated_checkpoint_exits_2_with_one_line(tmp_path, capsys):
    cfg_path, _ = write_tiny_config_file(tmp_path)
    ckpt = tmp_path / "student.ckpt"
    save_checkpoint(StudentModel(2, 1, hidden_sizes=(8,), time_embed_dim=8, rng=make_rng(0)),
                    {"iteration": 0}, str(ckpt))
    ckpt.write_bytes(ckpt.read_bytes()[:40])
    out_csv = tmp_path / "samples.csv"
    assert main(["sample", "--config", cfg_path, "--checkpoint", str(ckpt),
                 "--output", str(out_csv)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"splitflow: error: truncated checkpoint metadata in {ckpt}\n"
    assert not out_csv.exists()


def forge_header(path, **changes):
    """Rewrite the JSON header of the checkpoint at `path` with `changes`,
    keeping its payload."""
    data = Path(path).read_bytes()
    (meta_len,) = struct.unpack("<I", data[8:12])
    meta = {**json.loads(data[12:12 + meta_len]), **changes}
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                           + data[12 + meta_len:])


# A header naming an architecture that cannot be built: (kind, header changes,
# a word of the reason). The 400 TB layer exceeds a 47-bit address space, so
# its allocation fails whatever the host's overcommit policy.
MALFORMED_HEADERS = {
    "layers-too-large-to-allocate": ("student", {"layer_sizes": [7, 10 ** 7, 10 ** 7, 2]},
                                     "MemoryError"),
    "odd-time-embedding": ("student", {"time_embed_dim": 3}, "time_embed_dim"),
    "zero-pooled-side": ("discriminator", {"pool_to": 0}, "pooled side"),
}


@pytest.mark.parametrize("case", list(MALFORMED_HEADERS))
def test_cli_sample_malformed_header_exits_2_with_one_line(tmp_path, capsys, case):
    kind, changes, reason = MALFORMED_HEADERS[case]
    cfg_path, _ = write_tiny_config_file(tmp_path)
    model = (StudentModel(2, 1, hidden_sizes=(8,), time_embed_dim=8, rng=make_rng(0))
             if kind == "student" else
             Discriminator(256, hidden=8, rng=make_rng(0), pool_from=16, pool_to=4))
    ckpt = tmp_path / f"{kind}.ckpt"
    save_checkpoint(model, {"iteration": 0}, str(ckpt))
    forge_header(ckpt, **changes)
    assert main(["sample", "--config", cfg_path, "--checkpoint", str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"splitflow: error: malformed checkpoint header in {ckpt}: ")
    assert reason in err and err.count("\n") == 1


def test_cli_stage_over_a_malformed_header_names_the_stage_and_force(tmp_path, capsys):
    cfg_path, config = write_tiny_config_file(tmp_path, dataset_name="tiny-patches")
    run_pipeline(config, STAGES[:STAGES.index("refine") + 1])
    ckpt = Path(config.output_dir) / "discriminator.ckpt"
    whole = ckpt.read_bytes()
    forge_header(ckpt, pool_to=0)
    assert main(["refine", "--config", cfg_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"splitflow: error: stage 'refine' cannot reuse {ckpt}: "
                          f"malformed checkpoint header in {ckpt}: ")
    assert err.endswith("; rerun with --force to rebuild it\n") and err.count("\n") == 1
    assert main(["refine", "--config", cfg_path, "--force"]) == 0
    assert ckpt.read_bytes() == whole


@pytest.mark.parametrize("command", ["sample", "train-teacher"])
def test_cli_missing_file_exits_2_with_one_line(tmp_path, capsys, command):
    cfg_path, _ = write_tiny_config_file(tmp_path)
    if command == "sample":
        missing = tmp_path / "nope.ckpt"
        argv = ["sample", "--config", cfg_path, "--checkpoint", str(missing)]
    else:
        missing = tmp_path / "nope.cfg"
        argv = ["train-teacher", "--config", str(missing), "--dry-run"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"splitflow: error: [Errno 2] No such file or directory: '{missing}'\n"


def test_cli_calls_share_no_state_through_the_cached_parser(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_stage", lambda args, stages: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "cmd_sample", lambda args: seen.append(vars(args)) or 0)
    assert cli.build_parser() is cli.build_parser()
    for argv in (["train-teacher", "--seed", "5", "--force"], ["train-teacher"],
                 ["sample", "--num", "7", "--seed", "3"], ["sample"]):
        assert main(argv) == 0
    forced, plain, seven, default = seen
    assert (forced["seed"], forced["force"]) == (5, True)
    assert (plain["seed"], plain["force"]) == (None, False)
    assert (seven["seed"], seven["num"]) == (3, 7)
    assert (default["seed"], default["num"]) == (None, 16)
    assert "force" not in default


def test_cli_sample_csv_matches_emit_report_formatting(tmp_path, capsys, monkeypatch):
    cfg_path, _ = write_tiny_config_file(tmp_path)
    student = StudentModel(2, 1, hidden_sizes=(8,), time_embed_dim=8, rng=make_rng(0))
    ckpt = str(tmp_path / "student.ckpt")
    save_checkpoint(student, {"iteration": 0}, ckpt)
    # negative, tiny, large and integer-valued floats
    values = np.array([[-1.5, 1e-7], [1e6, 3.0], [-2.0, 123456.789], [-1e-7, 0.0]],
                      dtype=np.float32)
    monkeypatch.setattr(cli, "multi_step_sample", lambda *args: values)
    out = tmp_path / "samples.csv"
    assert main(["sample", "--config", cfg_path, "--checkpoint", ckpt,
                 "--num", "4", "--output", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    ref = tmp_path / "ref.csv"
    columns = [f"x{j}" for j in range(values.shape[1])]
    emit_report([dict(zip(columns, map(float, row))) for row in values], str(ref), columns)
    assert out.read_bytes() == ref.read_bytes()
    assert out.read_text().splitlines()[1:3] == ["-1.5,1e-07", "1e+06,3"]
