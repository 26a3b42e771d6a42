"""Run fixed small experiments and print the sha256 of every artifact.

A change that claims to keep behaviour byte-identical runs this script at the
commit before it and at the change, and compares the two listings:

    python3 tools/hash_artifacts.py > hashes.txt

It imports splitflow from the `src/` next to this script. The runs are:

- `c9`: the acceptance suite's criterion-9 config (moons, all four stages);
- `sf_patches`: tiny-patches with SVG loss plots (13 artifacts);
- `sf_guided`: the criterion-9 config with `stage1_guidance_scale = 2.5`;
- `sample`: `splitflow sample --num 33` from the `c9` run at 1, 2, 3 and 7
  steps;
- `data`: the acceptance suite's four datasets, built straight by
  `generate_dataset` (moons 8192 rows at seed 1001 and 4096 at 2002, patches
  4096 at 100 and 512 at 200). Each line hashes the bytes of `x_h`, `x_l`
  and `labels`, in that order. The patch sets span many row blocks of the
  patch generator, where the 64-row `sf_patches` run fills only part of one;
- `probe`: paths no pipeline run reaches, on fixed small inputs, in about a
  second. `probe/criterion2-<loss>` rebuilds the acceptance suite's
  criterion-2 models and inputs for its first 5 trials, with its seeds and
  draws, and differentiates each of the six losses once at float32 by a full
  `Tensor.backward()` sweep, every leaf's gradient cleared first. The line
  hashes the loss values and the gradients of the leaves criterion 2 checks.
  `probe/fm_loss-<t>` hashes `fm_loss`'s value and full-sweep teacher
  gradients with one scalar time and with one time per row, and
  `probe/ode_sample-<k>` the trajectory of `ode_sample` through `model_field`
  at 1 and 10 steps; both on 64 rows. `probe/time_embedding-<t>` hashes
  the 16-wide embedding of one scalar time and of 64 row times;
  `probe/isc_residual_scan` the worst residuals of a constant, an exact
  average and a wrong field over 200 intervals each; `probe/gradient_magnitudes`
  the magnitudes of 8 uniform patches; `probe/seed_diversity` the mean
  distance and distance matrix of 4 seeds' 64-row samples from a random
  student under one condition. `probe/grad_check-<loss>` runs `grad_check`
  on each of criterion 2's six losses for its first trial and hashes what
  the float64 path computes: the loss value and each checked leaf's analytic
  gradient, taken at the one backward sweep `grad_check` runs, then the
  worst relative error against its finite-difference oracle, the quantity
  criterion 2 prints. Each hashed array adds its dtype and its bytes, and a
  missing gradient adds `none`.

Each checkpoint gets a second line, `<run>/<artifact>#no-fingerprint`: the
sha256 of the file with `config_fingerprint` dropped from its JSON header and
the header re-serialized as `save_checkpoint` writes it. A change to the
config key set moves every fingerprint, and so every full-file line; these
lines show whether anything else in the checkpoints moved.

Each run writes to a fixed directory under /tmp, because every checkpoint
header records the config fingerprint and the fingerprint covers
`output_dir`. A run directory is removed before its run and after hashing,
so two copies running at once delete each other's runs: produce the parent
and the change listings one after the other.
Output lines are `<run>/<artifact> <sha256>`,
`data/<name>-<n>-<seed> <sha256>` for the datasets, and
`probe/<path> <sha256>` for the probes.
"""

import contextlib
import hashlib
import json
import os
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splitflow import (Discriminator, ExperimentConfig,  # noqa: E402
                       FeatureNet, SamplerConfig, StudentModel, TeacherModel,
                       Tensor, boundary_loss, dump_config, fm_loss,
                       gan_discriminator_loss, gan_generator_loss,
                       generate_dataset, grad_check, gradient_magnitudes, isc_residual_scan,
                       make_rng, model_field, ode_sample, reconstruction_loss,
                       run_pipeline, seed_diversity)
from splitflow.cli import main as cli_main  # noqa: E402
from splitflow.data import PATCH_SIZE  # noqa: E402
from splitflow.distill import _eval_field  # noqa: E402
from splitflow.flow import time_embedding  # noqa: E402
from splitflow.pipeline import STAGES  # noqa: E402

CRITERION_9 = dict(
    dataset_size=128, model_hidden=16, model_layers=2, model_time_embed_dim=8,
    teacher_iterations=40, teacher_batch_size=32,
    stage1_iterations=40, stage1_batch_size=32,
    stage2_iterations=10, stage2_batch_size=16,
    eval_n_seeds=3, eval_sample_count=64, seed=7)

RUNS = {
    "c9": ExperimentConfig(**CRITERION_9, output_dir="/tmp/c9"),
    "sf_patches": ExperimentConfig(
        dataset_name="tiny-patches", dataset_size=64, model_hidden=16,
        model_layers=2, model_time_embed_dim=8,
        teacher_iterations=20, teacher_batch_size=16,
        stage1_iterations=20, stage1_batch_size=16, stage1_condition_dropout=0.2,
        stage2_iterations=5, stage2_batch_size=8,
        eval_n_seeds=2, eval_sample_count=32, emit_svg=True, seed=3,
        output_dir="/tmp/sf_patches"),
    "sf_guided": ExperimentConfig(**CRITERION_9, stage1_guidance_scale=2.5,
                                  output_dir="/tmp/sf_guided"),
}

SAMPLE_FROM = "c9"
SAMPLE_STEPS = (1, 2, 3, 7)

DATASETS = (("two-moons-conditional", 8192, 1001),
            ("two-moons-conditional", 4096, 2002),
            ("tiny-patches", 4096, 100),
            ("tiny-patches", 512, 200))

PROBE_TRIALS = 5
PROBE_ROWS = 64
PROBE_SEED = 4242


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_without_fingerprint(path):
    """sha256 of a checkpoint whose header has no `config_fingerprint`: magic,
    version, header length, header JSON (sorted keys, no spaces) and payload."""
    with open(path, "rb") as fh:
        data = fh.read()
    (meta_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + meta_len].decode("utf-8"))
    del header["config_fingerprint"]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data[:8] + struct.pack("<I", len(blob)) + blob
                          + data[12 + meta_len:]).hexdigest()


def hash_samples(config, scratch):
    """`splitflow sample --num 33 --steps k` from the run of `config`."""
    cfg_path = os.path.join(scratch, "sample.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(config))
    for steps in SAMPLE_STEPS:
        out = os.path.join(scratch, f"steps{steps}.csv")
        code = cli_main(["sample", "--config", cfg_path, "--num", "33",
                         "--steps", str(steps), "--output", out])
        if code != 0:
            raise SystemExit(f"sample --steps {steps} exited with {code}")
        yield f"sample/steps={steps}", sha256(out)


def hash_datasets():
    """sha256 of each dataset's `x_h`, `x_l` and `labels` bytes."""
    for name, n, seed in DATASETS:
        ds = generate_dataset(name, n, seed)
        digest = hashlib.sha256()
        for array in (ds.x_h, ds.x_l, ds.labels):
            digest.update(array.tobytes())
        yield f"data/{name}-{n}-{seed}", digest.hexdigest()


def hash_arrays(arrays):
    """sha256 over each array's dtype and bytes; `None` hashes as `none`."""
    digest = hashlib.sha256()
    for array in arrays:
        if array is None:
            digest.update(b"none")
        else:
            array = np.asarray(array)
            digest.update(array.dtype.str.encode() + array.tobytes())
    return digest.hexdigest()


def criterion_2_trial(trial):
    """Criterion 2's models, inputs and six losses for one trial: a dict of
    loss name -> (loss function, the leaves it checks), and every leaf."""
    rng = np.random.default_rng(10_000 + trial)
    data_rng = make_rng(20_000 + trial)
    teacher = TeacherModel(2, 1, hidden_sizes=(4,), time_embed_dim=4, rng=rng)
    student = StudentModel.from_teacher(teacher)
    x = data_rng.standard_normal((3, 2)).astype(np.float32)
    eps = data_rng.standard_normal((3, 2)).astype(np.float32)
    cond = data_rng.standard_normal((3, 1)).astype(np.float32)
    t = float(data_rng.uniform(0.05, 0.95))
    r, s = sorted(data_rng.uniform(0.0, t, size=2))
    lam = (t - s) / (t - r) if t > r else 0.0
    z_t = ((1.0 - t) * x + t * eps).astype(np.float32)
    u2 = _eval_field(student, z_t, s, t, cond)
    u1 = _eval_field(student, z_t - (t - s) * u2, r, s, cond)
    target = (1.0 - lam) * u1 + lam * u2

    def frozen_isc():
        pred = student.average_velocity(Tensor(z_t), r, t, cond)
        return (pred - Tensor(target.astype(pred.values.dtype))).square().mean()

    fnet = FeatureNet(2, feature_dim=4)
    x_hat = Tensor(data_rng.standard_normal((3, 2)).astype(np.float32))
    disc = Discriminator(2, hidden=4, rng=rng)
    fake = Tensor(data_rng.standard_normal((3, 2)).astype(np.float32))
    losses = {
        "fm": (lambda: fm_loss(teacher, x, eps, t, cond), teacher.parameters()),
        "isc": (frozen_isc, student.parameters()),
        "boundary": (lambda: boundary_loss(student, teacher, z_t, t, cond),
                     student.parameters()),
        "rec": (lambda: reconstruction_loss(x_hat, x, fnet), [x_hat]),
        "gan_g": (lambda: gan_generator_loss(disc, fake), [fake]),
        "gan_d": (lambda: gan_discriminator_loss(disc, x, fake.values), disc.parameters()),
    }
    leaves = [*teacher.parameters(), *student.parameters(), *disc.parameters(), x_hat, fake]
    return losses, leaves


@contextlib.contextmanager
def recording_backward(leaves, into):
    """While open, every `Tensor.backward` call appends the value it sweeps
    from and the gradient each of `leaves` then holds to `into`."""
    backward = Tensor.backward

    def recorded(self, *args, **kwargs):
        backward(self, *args, **kwargs)
        into.extend([np.array(self.values), *(None if p.grad is None else np.array(p.grad)
                                              for p in leaves)])

    Tensor.backward = recorded
    try:
        yield
    finally:
        Tensor.backward = backward


def hash_probes():
    """The `probe/*` lines: criterion 2's losses under a full sweep, then
    `fm_loss`, `ode_sample`, `time_embedding`, `isc_residual_scan`,
    `gradient_magnitudes` and `seed_diversity` on small fixed inputs, then
    criterion 2's float64 `grad_check` path."""
    arrays = {}
    for trial in range(PROBE_TRIALS):
        losses, leaves = criterion_2_trial(trial)
        for name, (loss_fn, checked) in losses.items():
            for p in leaves:
                p.grad = None
            loss = loss_fn()
            loss.backward()
            arrays.setdefault(name, []).extend([loss.values, *(p.grad for p in checked)])
    for name, listed in arrays.items():
        yield f"probe/criterion2-{name}", hash_arrays(listed)

    rng = make_rng(PROBE_SEED)
    teacher = TeacherModel(2, 1, hidden_sizes=(16, 16), time_embed_dim=8, rng=rng)
    x, eps = (rng.standard_normal((PROBE_ROWS, 2)).astype(np.float32) for _ in range(2))
    cond = rng.standard_normal((PROBE_ROWS, 1)).astype(np.float32)
    for name, t in (("scalar-t", float(rng.random())), ("row-t", rng.random(PROBE_ROWS))):
        for p in teacher.parameters():
            p.grad = None
        loss = fm_loss(teacher, x, eps, t, cond)
        loss.backward()
        yield f"probe/fm_loss-{name}", hash_arrays(
            [loss.values, *(p.grad for p in teacher.parameters())])
    for steps in (1, 10):
        _, trajectory = ode_sample(model_field(teacher, cond), eps,
                                   SamplerConfig(num_steps=steps))
        yield f"probe/ode_sample-{steps}", hash_arrays(trajectory)

    rng = make_rng(PROBE_SEED + 1)
    for name, t in (("scalar-t", float(rng.random())), ("row-t", rng.random(PROBE_ROWS))):
        yield f"probe/time_embedding-{name}", hash_arrays([time_embedding(t, 16)])
    scan_fields = (lambda z, r, t: np.full_like(z, 1.7),
                   lambda z, r, t: np.full_like(z, t + r),
                   lambda z, r, t: np.sin(3.0 * z) * t * t)
    yield "probe/isc_residual_scan", hash_arrays(
        [np.array([isc_residual_scan(field, 200, rng) for field in scan_fields])])
    patches = rng.random((8, PATCH_SIZE * PATCH_SIZE)).astype(np.float32)
    yield "probe/gradient_magnitudes", hash_arrays([gradient_magnitudes(patches)])
    student = StudentModel(2, 1, hidden_sizes=(16, 16), time_embed_dim=8, rng=rng)
    cond = np.full((PROBE_ROWS, 1), 0.5, dtype=np.float32)
    mean, matrix = seed_diversity(student, cond, seeds=[1, 2, 3, 4],
                                  sample_shape=(PROBE_ROWS, 2))
    yield "probe/seed_diversity", hash_arrays([np.float64(mean), matrix])

    losses, _ = criterion_2_trial(0)
    for name, (loss_fn, checked) in losses.items():
        recorded = []
        with recording_backward(checked, recorded):
            worst = grad_check(lambda params: loss_fn(), checked)
        yield f"probe/grad_check-{name}", hash_arrays([*recorded, np.float64(worst)])


def main():
    lines = []
    try:
        with tempfile.TemporaryDirectory() as scratch, \
                contextlib.redirect_stdout(sys.stderr):
            for name, config in RUNS.items():
                shutil.rmtree(config.output_dir, ignore_errors=True)
                run_pipeline(config, STAGES)
                for artifact in sorted(os.listdir(config.output_dir)):
                    path = os.path.join(config.output_dir, artifact)
                    lines.append(f"{name}/{artifact} {sha256(path)}")
                    if artifact.endswith(".ckpt"):
                        lines.append(f"{name}/{artifact}#no-fingerprint "
                                     f"{sha256_without_fingerprint(path)}")
            lines.extend(f"{name} {digest}" for name, digest
                         in hash_samples(RUNS[SAMPLE_FROM], scratch))
            lines.extend(f"{name} {digest}" for name, digest in hash_datasets())
            lines.extend(f"{name} {digest}" for name, digest in hash_probes())
    finally:
        for config in RUNS.values():
            shutil.rmtree(config.output_dir, ignore_errors=True)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
