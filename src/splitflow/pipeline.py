"""Pipeline orchestration: train-teacher -> distill -> refine -> eval, with
checkpoint persistence, CSV reports, and optional SVG loss plots."""

import functools
import os
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, stage_seed
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


def _dataset_args(config, key="dataset"):
    """`generate_dataset`'s arguments for the training set, or for the eval set
    with `key="eval-dataset"`; the seed is the stage seed of `key`, shifted by
    `dataset_seed_offset`."""
    rows = config.eval_sample_count if key == "eval-dataset" else config.dataset_size
    degradation = None
    if config.dataset_name == "tiny-patches":
        degradation = DegradationParams(config.degrade_factor, config.degrade_noise_std)
    seed = stage_seed(config.seed, key) + config.dataset_seed_offset
    return config.dataset_name, rows, seed, degradation


def _dataset_arrays(name, rows, seed, degradation):
    """`(x, cond)` of one dataset, read-only: the stages of one `run_pipeline`
    call share it, so an in-place write must not leak."""
    ds = generate_dataset(name, rows, seed, degradation=degradation)
    x, cond = ds.flat_x(), ds.cond_array()
    x.flags.writeable = False
    cond.flags.writeable = False
    return x, cond


def _stage_config(cls, config, prefixes, **given):
    """`cls` built from `config` by the naming rule: each field not in `given`
    takes the value of the first config key `<prefix><field>` over
    `prefixes`, a `learning_rate` field being spelled `lr` in keys."""
    keys = {f.name for f in fields(ExperimentConfig)}
    for f in fields(cls):
        if f.name not in given:
            name = "lr" if f.name == "learning_rate" else f.name
            key = next((prefix + name for prefix in prefixes if prefix + name in keys), None)
            if key is None:
                raise TypeError(f"{cls.__name__}.{f.name} matches no config key "
                                f"with a prefix in {prefixes}")
            given[f.name] = getattr(config, key)
    return cls(**given)


def _plan_teacher(config):
    tc = _stage_config(TeacherTrainConfig, config, ("teacher_", "model_"),
                       hidden_sizes=(config.model_hidden,) * config.model_layers,
                       seed=stage_seed(config.seed, "teacher"))
    return _dataset_args(config), tc


def _run_teacher(tc, x, cond):
    teacher, records = train_teacher(x, cond, tc)
    return (teacher, {"iteration": tc.iterations}), (records, ["iteration", "loss"])


def _plan_distill(config):
    return _dataset_args(config), _stage_config(
        Stage1Config, config, ("stage1_",), seed=stage_seed(config.seed, "distill"))


def _run_distill(sc, x, cond, teacher):
    student, records = train_student(teacher, x, cond, sc)
    return (student, {"iteration": sc.iterations}), (records, ["iteration", "loss", "branch"])


def _plan_refine(config):
    # refine keeps training the splitting objective with stage 1's branch keys
    s2 = _stage_config(Stage2Config, config, ("stage2_", "stage1_"),
                       weights=_stage_config(LossWeights, config, ("stage2_",)),
                       seed=stage_seed(config.seed, "refine"))
    pool_from = PATCH_SIZE if config.dataset_name == "tiny-patches" else None
    return _dataset_args(config), (s2, stage_seed(config.seed, "discriminator"), pool_from)


def _run_refine(values, x, cond, teacher, student):
    s2, discriminator_seed, pool_from = values
    state_dim = x.shape[1]
    disc = Discriminator(state_dim, rng=make_rng(discriminator_seed), pool_from=pool_from)
    regularizer = teacher.copy()
    trainer = Stage2Trainer(student, teacher, regularizer, disc, s2,
                            feature_net=FeatureNet(state_dim))
    records = trainer.train(x, cond)
    return ((student, {"iteration": s2.iterations}), (regularizer, {"role": "regularizer"}),
            (disc, {}), (records, ["iteration", "isc", "rec", "adv_g", "vsd_grad_norm",
                                   "reg_diff", "adv_d"]))


def _plan_eval(config):
    projections = None if config.dataset_name == "tiny-patches" else (
        config.eval_n_projections, stage_seed(config.seed, "projections"))
    return _dataset_args(config, "eval-dataset"), dict(
        sample_seed=stage_seed(config.seed, "eval"), n_seeds=config.eval_n_seeds,
        projections=projections)


def _run_eval(values, x, cond, student):
    report = evaluate_student(student, x, cond, **values)
    return ((report.rows(), ["metric", "seed", "value"]),
            (report.summary_rows(), ["metric", "mean", "std"]))


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    `needs` holds one tuple per input checkpoint: the candidate file names,
    the first one present being loaded. `plan(config)` is pure: it reads
    config values and nothing else, and returns `(dataset, values)`: the
    dataset as `generate_dataset`'s arguments, and everything else the stage
    runs with. `run(values, x, cond, *inputs)` never sees the config: it
    trains on the dataset's read-only arrays and returns one pair per name in
    `outputs`, in that order: `(model, header)` for a checkpoint or
    `(records, columns)` for a CSV. `plot` is the loss column drawn to an SVG
    next to the stage's CSV when `emit_svg` is set.

    The `run` functions look the training functions up as module globals at
    call time, so a caller that rebinds them (a tracer, a test) sees them.
    """
    name: str
    needs: tuple
    outputs: tuple
    plan: Callable
    run: Callable
    plot: str | None = None


STAGE_TABLE = (
    Stage("teacher", (), ("teacher.ckpt", "losses_teacher.csv"),
          _plan_teacher, _run_teacher, plot="loss"),
    Stage("distill", (("teacher.ckpt",),),
          ("student_stage1.ckpt", "losses_stage1.csv"),
          _plan_distill, _run_distill, plot="loss"),
    Stage("refine", (("teacher.ckpt",), ("student_stage1.ckpt",)),
          ("student_stage2.ckpt", "regularizer.ckpt", "discriminator.ckpt",
           "losses_stage2.csv"),
          _plan_refine, _run_refine, plot="rec"),
    Stage("eval", (("student_stage2.ckpt", "student_stage1.ckpt"),),
          ("metrics.csv", "metrics_summary.csv"), _plan_eval, _run_eval),
)

STAGES = tuple(stage.name for stage in STAGE_TABLE)

ARTIFACTS = {stage.name: stage.outputs for stage in STAGE_TABLE}

# the stage that writes each output
_PRODUCER = {name: stage.name for stage in STAGE_TABLE for name in stage.outputs}


def _input_path(config, candidates):
    """Path of the first of the `candidates` checkpoints present in `output_dir`."""
    for name in candidates:
        path = os.path.join(config.output_dir, name)
        if os.path.exists(path):
            return path
    raise PipelineError(f"missing input checkpoint {name!r}; "
                        f"run the {_PRODUCER[name]!r} stage first")


def _load_for(stage, path):
    """The model in checkpoint `path`, which `stage` reads or reuses; a
    truncated or corrupt file raises a PipelineError naming `stage` and the
    stage that rebuilds the file."""
    try:
        return load_checkpoint(path)[0]
    except CheckpointFormatError as exc:
        producer = _PRODUCER[os.path.basename(path)]
        verb, rerun = ("reuse", "rerun") if producer == stage.name else (
            "read", f"rerun the {producer!r} stage")
        raise PipelineError(f"stage {stage.name!r} cannot {verb} {path}: {exc}; "
                            f"{rerun} with --force to rebuild it") from exc


def _write_outputs(config, stage, outputs):
    """Write every output of `stage`; checkpoint headers gain the config
    fingerprint."""
    fingerprint = config.fingerprint()
    for name, (value, extra) in zip(stage.outputs, outputs, strict=True):
        path = os.path.join(config.output_dir, name)
        if name.endswith(".ckpt"):
            save_checkpoint(value, {**extra, "config_fingerprint": fingerprint}, path)
            continue
        emit_report(value, path, columns=extra)
        if stage.plot and config.emit_svg:
            emit_svg_plot(value, "iteration", stage.plot, path[:-len(".csv")] + ".svg")


def run_pipeline(config, stages, force=False):
    """Execute the requested stages in canonical order; returns artifact paths.

    Each stage is skipped when its outputs already exist and its checkpoints
    load (unless `force`); a stage whose input checkpoint is missing raises a
    PipelineError naming the prior stage that would produce it. Each distinct
    dataset is built once per call and shared by the stages that train on it.
    """
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise PipelineError(f"unknown stages {sorted(unknown)}")
    os.makedirs(config.output_dir, exist_ok=True)
    dataset = functools.cache(_dataset_arrays)
    produced = []
    for stage in STAGE_TABLE:
        if stage.name not in stages:
            continue
        paths = [os.path.join(config.output_dir, name) for name in stage.outputs]
        if force or not all(os.path.exists(path) for path in paths):
            inputs = [_load_for(stage, _input_path(config, candidates))
                      for candidates in stage.needs]
            data_args, values = stage.plan(config)
            _write_outputs(config, stage, stage.run(values, *dataset(*data_args), *inputs))
        else:
            for path in paths:
                if path.endswith(".ckpt"):
                    _load_for(stage, path)
        produced.extend(paths)
    return produced


def evaluate_student(student, x_ref, cond_ref, sample_seed, n_seeds, projections):
    """Seed-stability report for a trained student over the eval set: sliced
    Wasserstein over `projections`, a (count, seed) pair, or else PSNR and
    feature distance; seed k's noise is keyed by `sample_seed + k`."""

    def sample_fn(seed):
        eps = make_rng(sample_seed + seed).standard_normal(x_ref.shape)
        return one_step_sample(student, eps.astype(np.float32), cond_ref)

    if projections is None:
        feature_net = FeatureNet(x_ref.shape[1])
        metric_fns = {
            "psnr": lambda s, ref: psnr(s, ref),
            "feature_distance": lambda s, ref: feature_distance(feature_net, s, ref),
        }
    else:
        n_projections, projection_seed = projections
        metric_fns = {
            "sliced_wasserstein": lambda s, ref: sliced_wasserstein(
                s, ref, n_projections=n_projections, rng=make_rng(projection_seed)),
        }
    return metric_stability(sample_fn, x_ref, metric_fns, n_seeds=n_seeds)
