"""Pipeline orchestration: train-teacher -> distill -> refine -> eval, with
checkpoint persistence, CSV reports, and optional SVG loss plots."""

import functools
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .config import stage_seed
from .data import PATCH_SIZE, generate_dataset, DegradationParams, make_rng
from .distill import Stage1Config, one_step_sample, train_student
from .flow import TeacherTrainConfig, train_teacher
from .metrics import (feature_distance, metric_stability, psnr,
                      sliced_wasserstein)
from .refine import (Discriminator, FeatureNet, LossWeights, Stage2Config,
                     Stage2Trainer)


class PipelineError(RuntimeError):
    pass


def emit_report(records, path, columns):
    """CSV with a header row, 6-significant-digit floats, stable column order;
    `records` is a list of dicts holding every column or a 2-D float array, and
    `columns` names the columns."""
    lines = [",".join(columns)]
    if isinstance(records, np.ndarray):
        # one template for the whole array: `%.6g` formats a float as `{:.6g}` does;
        # a zero-row array writes the header alone
        if records.shape[0]:
            row = ",".join(["%.6g"] * records.shape[1])
            lines.append("\n".join([row] * records.shape[0]) % tuple(records.ravel().tolist()))
    else:
        rows = ([rec[c] for c in columns] for rec in records)
        lines.extend(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row)
                     for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_svg_plot(records, x_key, y_key, path):
    """Pure-emission 640x320 SVG polyline of a loss curve."""
    width, height = 640, 320
    xs = [float(r[x_key]) for r in records]
    ys = [float(r[y_key]) for r in records]
    if not xs:
        xs, ys = [0.0], [0.0]
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    pts = " ".join(
        f"{40 + (x - x0) / span_x * (width - 60):.1f},"
        f"{height - 30 - (y - y0) / span_y * (height - 60):.1f}"
        for x, y in zip(xs, ys))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{pts}"/>'
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">{x_key} vs {y_key}</text></svg>'
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _dataset_for(config, name, size):
    """The `size`-row dataset keyed by the stage seed of `name`, shifted by
    `dataset_seed_offset`."""
    seed = stage_seed(config.seed, name) + config.dataset_seed_offset
    degradation = None
    if config.dataset_name == "tiny-patches":
        degradation = DegradationParams(downsample_factor=config.degrade_factor,
                                        noise_std=config.degrade_noise_std)
    return generate_dataset(config.dataset_name, size, seed, degradation=degradation)


def _train_data(config):
    """The training set `(x, cond)`, read-only: the stages of one
    `run_pipeline` call share it, so an in-place write must not leak."""
    ds = _dataset_for(config, "dataset", config.dataset_size)
    x, cond = ds.flat_x(), ds.cond_array()
    x.flags.writeable = False
    cond.flags.writeable = False
    return x, cond


def _eval_data(config):
    ds = _dataset_for(config, "eval-dataset", config.eval_sample_count)
    return ds.flat_x(), ds.cond_array()


def _run_teacher(config, train_data):
    x, cond = train_data()
    tc = TeacherTrainConfig(
        iterations=config.teacher_iterations,
        batch_size=config.teacher_batch_size,
        learning_rate=config.teacher_lr,
        weight_decay=config.teacher_weight_decay,
        condition_dropout=config.teacher_condition_dropout,
        hidden_sizes=tuple([config.model_hidden] * config.model_layers),
        time_embed_dim=config.model_time_embed_dim,
        seed=stage_seed(config.seed, "teacher"))
    teacher, records = train_teacher(x, cond, tc)
    return {"teacher.ckpt": (teacher, {"iteration": tc.iterations}),
            "losses_teacher.csv": (records, ["iteration", "loss"])}


def _run_distill(config, train_data, teacher):
    x, cond = train_data()
    sc = Stage1Config(
        branch_probability=config.stage1_branch_probability,
        guidance_scale=config.stage1_guidance_scale,
        iterations=config.stage1_iterations,
        batch_size=config.stage1_batch_size,
        learning_rate=config.stage1_lr,
        full_interval_probability=config.stage1_full_interval_probability,
        condition_dropout=config.stage1_condition_dropout,
        seed=stage_seed(config.seed, "distill"))
    student, records = train_student(teacher, x, cond, sc)
    return {"student_stage1.ckpt": (student, {"iteration": sc.iterations}),
            "losses_stage1.csv": (records, ["iteration", "loss", "branch"])}


def _run_refine(config, train_data, teacher, student):
    x, cond = train_data()
    state_dim = x.shape[1]
    disc = Discriminator(
        state_dim, rng=make_rng(stage_seed(config.seed, "discriminator")),
        pool_from=PATCH_SIZE if config.dataset_name == "tiny-patches" else None)
    regularizer = teacher.copy()
    s2 = Stage2Config(
        weights=LossWeights(config.stage2_lambda1, config.stage2_lambda2,
                            config.stage2_lambda3, config.stage2_lambda4),
        iterations=config.stage2_iterations,
        batch_size=config.stage2_batch_size,
        learning_rate=config.stage2_lr,
        regularizer_lr=config.stage2_regularizer_lr,
        discriminator_lr=config.stage2_discriminator_lr,
        branch_probability=config.stage1_branch_probability,
        full_interval_probability=config.stage1_full_interval_probability,
        vsd_t_min=config.stage2_vsd_t_min,
        vsd_t_max=config.stage2_vsd_t_max,
        seed=stage_seed(config.seed, "refine"))
    trainer = Stage2Trainer(student, teacher, regularizer, disc, s2,
                            feature_net=FeatureNet(state_dim))
    records = trainer.train(x, cond)
    return {"student_stage2.ckpt": (student, {"iteration": s2.iterations}),
            "regularizer.ckpt": (regularizer, {"role": "regularizer"}),
            "discriminator.ckpt": (disc, {}),
            "losses_stage2.csv": (records, ["iteration", "isc", "rec", "adv_g",
                                            "vsd_grad_norm", "reg_diff", "adv_d"])}


def _run_eval(config, train_data, student):
    report = evaluate_student(student, config)
    return {"metrics.csv": (report.rows(), ["metric", "seed", "value"]),
            "metrics_summary.csv": (report.summary_rows(), ["metric", "mean", "std"])}


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    `needs` holds one tuple per input checkpoint: the candidate file names,
    the first one present being loaded. `run(config, train_data, *inputs)`
    returns, for each name in `outputs`, a `(model, header)` pair for a
    checkpoint or a `(records, columns)` pair for a CSV. `train_data()`
    returns the training set `(x, cond)`: it is built at the first call, and
    every stage of one `run_pipeline` call gets the same read-only arrays.
    `plot` is the loss column drawn to an SVG next to the stage's CSV when
    `emit_svg` is set.

    The `run` functions look the training functions up as module globals at
    call time, so a caller that rebinds them (a tracer, a test) sees them.
    """
    name: str
    needs: tuple
    outputs: tuple
    run: Callable
    plot: str | None = None


STAGE_TABLE = (
    Stage("teacher", (), ("teacher.ckpt", "losses_teacher.csv"),
          _run_teacher, plot="loss"),
    Stage("distill", (("teacher.ckpt",),),
          ("student_stage1.ckpt", "losses_stage1.csv"),
          _run_distill, plot="loss"),
    Stage("refine", (("teacher.ckpt",), ("student_stage1.ckpt",)),
          ("student_stage2.ckpt", "regularizer.ckpt", "discriminator.ckpt",
           "losses_stage2.csv"),
          _run_refine, plot="rec"),
    Stage("eval", (("student_stage2.ckpt", "student_stage1.ckpt"),),
          ("metrics.csv", "metrics_summary.csv"), _run_eval),
)

STAGES = tuple(stage.name for stage in STAGE_TABLE)

ARTIFACTS = {stage.name: stage.outputs for stage in STAGE_TABLE}


def _input_path(config, candidates):
    """Path of the first of the `candidates` checkpoints present in `output_dir`."""
    for name in candidates:
        path = os.path.join(config.output_dir, name)
        if os.path.exists(path):
            return path
    producer = next(stage.name for stage in STAGE_TABLE if name in stage.outputs)
    raise PipelineError(f"missing input checkpoint {name!r}; "
                        f"run the {producer!r} stage first")


def _write_outputs(config, stage, outputs):
    """Write every output of `stage`; checkpoint headers gain the config
    fingerprint."""
    fingerprint = config.fingerprint()
    for name in stage.outputs:
        value, extra = outputs[name]
        path = os.path.join(config.output_dir, name)
        if name.endswith(".ckpt"):
            save_checkpoint(value, {**extra, "config_fingerprint": fingerprint}, path)
            continue
        emit_report(value, path, columns=extra)
        if stage.plot and config.emit_svg:
            emit_svg_plot(value, "iteration", stage.plot, path[:-len(".csv")] + ".svg")


def _check_finished(stage, paths):
    """A stage whose outputs exist is finished only if its checkpoints load:
    a truncated or corrupt one raises a PipelineError naming the stage."""
    for path in paths:
        if path.endswith(".ckpt"):
            try:
                load_checkpoint(path)
            except CheckpointFormatError as exc:
                raise PipelineError(f"stage {stage.name!r} cannot reuse {path}: {exc}; "
                                    f"rerun with --force to rebuild it") from exc


def run_pipeline(config, stages, force=False):
    """Execute the requested stages in canonical order; returns artifact paths.

    Each stage is skipped when its outputs already exist and its checkpoints
    load (unless `force`); a stage whose input checkpoint is missing raises a
    PipelineError naming the prior stage that would produce it.
    """
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise PipelineError(f"unknown stages {sorted(unknown)}")
    os.makedirs(config.output_dir, exist_ok=True)
    train_data = functools.cache(lambda: _train_data(config))
    produced = []
    for stage in STAGE_TABLE:
        if stage.name not in stages:
            continue
        paths = [os.path.join(config.output_dir, name) for name in stage.outputs]
        if force or not all(os.path.exists(path) for path in paths):
            inputs = [load_checkpoint(_input_path(config, candidates))[0]
                      for candidates in stage.needs]
            _write_outputs(config, stage, stage.run(config, train_data, *inputs))
        else:
            _check_finished(stage, paths)
        produced.extend(paths)
    return produced


def evaluate_student(student, config):
    """Seed-stability report for a trained student on the configured task."""
    x_ref, cond_ref = _eval_data(config)
    is_patches = config.dataset_name == "tiny-patches"
    eval_seed_base = stage_seed(config.seed, "eval")

    def sample_fn(seed):
        eps = make_rng(eval_seed_base + seed).standard_normal(x_ref.shape)
        return one_step_sample(student, eps.astype(np.float32), cond_ref)

    if is_patches:
        feature_net = FeatureNet(x_ref.shape[1])
        metric_fns = {
            "psnr": lambda s, ref: psnr(s, ref),
            "feature_distance": lambda s, ref: feature_distance(feature_net, s, ref),
        }
    else:
        metric_fns = {
            "sliced_wasserstein": lambda s, ref: sliced_wasserstein(
                s, ref, n_projections=config.eval_n_projections,
                rng=make_rng(stage_seed(config.seed, "projections"))),
        }
    return metric_stability(sample_fn, x_ref, metric_fns,
                            n_seeds=config.eval_n_seeds)
