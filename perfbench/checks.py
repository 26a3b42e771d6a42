"""Correctness checks for the benchmark's operations.

Each check returns a list of problems; an empty list means the operation
passed. The reference forward passes here are the benchmark's own float64
numpy code over the loaded weights, independent of splitflow's tape.
"""

import csv
import math
import os

import numpy as np

import splitflow

# Generated values are compared with the float64 reference within
# ATOL + RTOL * |reference|. Float32 arithmetic and the CSV's six significant
# digits stay below 1e-5 here; a real defect moves outputs by far more.
ATOL = 1e-4
RTOL = 1e-4

# A file counts as written by the stage if its timestamp is no earlier than
# the stage start, less this slack for coarse file-system clocks.
MTIME_SLACK_NS = 100_000_000


# ---- expected shapes --------------------------------------------------------

def mlp_param_count(sizes):
    return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


def velocity_layer_sizes(config, state_dim, cond_dim):
    return [state_dim + config.model_time_embed_dim + cond_dim,
            *[config.model_hidden] * config.model_layers, state_dim]


def expected_param_counts(config, state_dim, cond_dim):
    """Parameter count of each checkpoint file the pipeline writes."""
    velocity = mlp_param_count(velocity_layer_sizes(config, state_dim, cond_dim))
    student = velocity + 2 * config.model_time_embed_dim ** 2
    disc_in = 16 if config.dataset_name == "tiny-patches" else state_dim
    return {
        "teacher.ckpt": velocity,
        "student_stage1.ckpt": student,
        "student_stage2.ckpt": student,
        "regularizer.ckpt": velocity,
        "discriminator.ckpt": mlp_param_count([disc_in, 64, 64, 1]),
    }


# ---- pipeline stages --------------------------------------------------------

# The config key that holds the iteration count each training checkpoint's
# header must carry. Which files a stage writes comes from
# `splitflow.pipeline.ARTIFACTS`, the list `run_pipeline` itself checks to
# decide whether to skip a stage.
ITERATIONS_KEYS = {
    "teacher.ckpt": "teacher_iterations",
    "student_stage1.ckpt": "stage1_iterations",
    "student_stage2.ckpt": "stage2_iterations",
}


def stage_files(stage):
    """(checkpoints, CSVs) that `run_pipeline` writes for `stage`."""
    names = splitflow.pipeline.ARTIFACTS[stage]
    return ([n for n in names if n.endswith(".ckpt")],
            [n for n in names if n.endswith(".csv")])


def stage_iterations(stage, config):
    """Configured iterations of a training stage; 0 for eval."""
    keys = [ITERATIONS_KEYS[n] for n in stage_files(stage)[0] if n in ITERATIONS_KEYS]
    return getattr(config, keys[0]) if keys else 0


QUALITY_METRICS = {
    "two-moons-conditional": ("sliced_wasserstein",),
    "tiny-patches": ("psnr", "feature_distance"),
}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _fresh(path, started_ns):
    return os.stat(path).st_mtime_ns >= started_ns - MTIME_SLACK_NS


def check_stage(stage, config, started_ns, state_dim, cond_dim):
    """Stale-artifact guard plus output checks for one `run_pipeline` stage.

    The stage must have written each output file after `started_ns`, its
    checkpoint header must carry the configured iteration count, every
    checkpoint must reload with the expected parameter count, and every
    number in its CSVs must be finite.
    """
    problems = []
    checkpoints, csvs = stage_files(stage)
    counts = expected_param_counts(config, state_dim, cond_dim)
    out = config.output_dir
    for name in [*checkpoints, *csvs]:
        path = os.path.join(out, name)
        if not os.path.exists(path):
            problems.append(f"{stage}: {name} missing")
        elif not _fresh(path, started_ns):
            problems.append(f"{stage}: {name} predates the stage (stale artifact reused)")
    if problems:
        return problems
    for name in checkpoints:
        try:
            model, meta = splitflow.load_checkpoint(os.path.join(out, name))
        except (OSError, ValueError) as exc:
            problems.append(f"{stage}: {name} does not reload: {exc}")
            continue
        loaded = sum(p.values.size for _, p in model.named_parameters())
        if loaded != counts[name] or meta.get("param_count") != counts[name]:
            problems.append(f"{stage}: {name} holds {loaded} parameters "
                            f"(header {meta.get('param_count')}), expected {counts[name]}")
        if name in ITERATIONS_KEYS:
            want = getattr(config, ITERATIONS_KEYS[name])
            if meta.get("iteration") != want:
                problems.append(f"{stage}: {name} header iteration "
                                f"{meta.get('iteration')}, expected {want} (stage skipped?)")
    for name in csvs:
        rows = read_csv(os.path.join(out, name))
        if not rows:
            problems.append(f"{stage}: {name} has no rows")
        for row in rows:
            for key, value in row.items():
                if key in ("branch", "metric"):
                    continue
                try:
                    finite = math.isfinite(float(value))
                except (TypeError, ValueError):
                    finite = False
                if not finite:
                    problems.append(f"{stage}: {name} {key}={value!r} is not finite")
                    break
    if stage == "eval":
        means = read_quality(config)
        problems.extend(f"eval: quality metric {name!r} missing from metrics_summary.csv"
                        for name in QUALITY_METRICS[config.dataset_name]
                        if name not in means)
    return problems


def read_quality(config):
    """Quality means from the eval stage, as the exact strings written."""
    rows = read_csv(os.path.join(config.output_dir, "metrics_summary.csv"))
    return {row["metric"]: row["mean"] for row in rows}


# ---- raw numpy reference ----------------------------------------------------

def mlp_layers(model, dtype=np.float64):
    """[(weight, bias), ...] of a model's trunk, read through named_parameters."""
    params = dict(model.named_parameters())
    layers = []
    i = 0
    while f"layer{i}.weight" in params:
        layers.append((params[f"layer{i}.weight"].values.astype(dtype),
                       params[f"layer{i}.bias"].values.astype(dtype)))
        i += 1
    return layers


def raw_mlp(layers, x):
    """Dense layers with SiLU between them, in the dtype of the arrays."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = h / (1.0 + np.exp(-h))
    return h


def raw_time_embedding(t, dim, batch):
    half = dim // 2
    freqs = 64.0 ** (np.arange(half) / max(half - 1, 1))
    angles = np.full((batch, 1), float(t)) * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def raw_teacher_velocity(teacher, z, t, cond):
    emb = raw_time_embedding(t, teacher.time_embed_dim, z.shape[0])
    return raw_mlp(mlp_layers(teacher), np.concatenate([z, emb, cond], axis=-1))


def raw_student_velocity(student, z, r, t, cond):
    params = dict(student.named_parameters())
    d, n = student.time_embed_dim, z.shape[0]
    fused = (raw_time_embedding(r, d, n) @ params["proj_r"].values.astype(np.float64)
             + raw_time_embedding(t, d, n) @ params["proj_t"].values.astype(np.float64))
    return raw_mlp(mlp_layers(student), np.concatenate([z, fused, cond], axis=-1))


def raw_student_sample(student, eps, cond, steps):
    """k equal jumps from t=1 to t=0 with the student's average velocity."""
    z = np.asarray(eps, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    for i in range(steps):
        t = 1.0 - i / steps
        s = 0.0 if i == steps - 1 else t - 1.0 / steps
        z = z - (t - s) * raw_student_velocity(student, z, s, t, cond)
    return z


def raw_euler(teacher, z_start, cond, num_steps):
    """Euler integration of the teacher velocity from t=1 down to t=0."""
    z = np.asarray(z_start, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    dt = -1.0 / num_steps
    for i in range(num_steps):
        z = z + dt * raw_teacher_velocity(teacher, z, 1.0 + i * dt, cond)
    return z


def compare(name, got, want):
    """Problems if `got` differs from the float64 reference beyond tolerance."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    excess = np.abs(got - want) - (ATOL + RTOL * np.abs(want))
    if not np.all(np.isfinite(got)) or np.any(excess > 0):
        worst = float(np.nanmax(np.abs(got - want)))
        return [f"{name}: differs from the numpy reference by up to {worst:.3g}"]
    return []


def read_samples(path):
    """Sample rows written by `splitflow sample` (a header, then floats)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
