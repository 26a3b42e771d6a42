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
  patch generator, where the 64-row `sf_patches` run fills only part of one.

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
Output lines are `<run>/<artifact> <sha256>`, and
`data/<name>-<n>-<seed> <sha256>` for the datasets.
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splitflow import (ExperimentConfig, dump_config,  # noqa: E402
                       generate_dataset, run_pipeline)
from splitflow.cli import main as cli_main  # noqa: E402
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
    finally:
        for config in RUNS.values():
            shutil.rmtree(config.output_dir, ignore_errors=True)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
