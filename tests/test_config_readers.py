"""Which config keys each reader takes: the key-ownership record.

Every reader runs on a tiny config, once per dataset, with a config object
that records which `ExperimentConfig` fields are read. The record must match
`READS`, and every field must have a reader: a key that nothing reads changes
nothing, and a config file that sets it would be silently ignored.
"""

from dataclasses import fields

import pytest

from splitflow import ExperimentConfig, cli, dump_config, run_pipeline
from splitflow.pipeline import STAGES

FIELDS = {f.name for f in fields(ExperimentConfig)}

# How any dataset is built: the master seed keys it, and `degrade_*` shape
# the tiny-patches low-resolution inputs (see `ONLY_ON`).
DATASET = {"seed", "dataset_name", "dataset_seed_offset", "degrade_factor",
           "degrade_noise_std"}
# The training stages build the training set, write checkpoints and a CSV
# into `output_dir`, and plot the CSV when `emit_svg` is set.
TRAINING = DATASET | {"dataset_size", "output_dir", "emit_svg"}

READS = {
    # only the teacher reads `model_*`: the student copies its architecture
    "teacher": TRAINING | {"model_hidden", "model_layers", "model_time_embed_dim",
                           "teacher_iterations", "teacher_batch_size", "teacher_lr",
                           "teacher_weight_decay", "teacher_condition_dropout"},
    "distill": TRAINING | {"stage1_iterations", "stage1_batch_size", "stage1_lr",
                           "stage1_branch_probability", "stage1_guidance_scale",
                           "stage1_full_interval_probability", "stage1_condition_dropout"},
    # refine keeps training the splitting objective with stage 1's branch keys
    "refine": TRAINING | {"stage1_branch_probability", "stage1_full_interval_probability",
                          "stage2_iterations", "stage2_batch_size", "stage2_lr",
                          "stage2_regularizer_lr", "stage2_discriminator_lr",
                          "stage2_lambda1", "stage2_lambda2", "stage2_lambda3",
                          "stage2_lambda4", "stage2_vsd_t_min", "stage2_vsd_t_max"},
    "eval": DATASET | {"output_dir", "eval_sample_count", "eval_n_seeds",
                       "eval_n_projections"},
    # `sample` draws its conditions from the eval set
    "sample": DATASET | {"output_dir", "eval_sample_count"},
    "diagnose-isc": {"seed"},
}

# Keys that only one dataset reads: the degradation of tiny-patches, and the
# sliced-Wasserstein projection count of the moons eval.
ONLY_ON = {"tiny-patches": {"degrade_factor", "degrade_noise_std"},
           "two-moons-conditional": {"eval_n_projections"}}


class ReadRecorder:
    """Forwards every attribute to `config`, recording the fields read.
    Methods run on `config` itself, so `fingerprint()` and `as_dict()` are
    not recorded."""

    def __init__(self, config):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "reads", set())

    def __getattr__(self, name):
        if name in FIELDS:
            self.reads.add(name)
        return getattr(self.config, name)

    def __setattr__(self, name, value):
        setattr(self.config, name, value)


def reads_per_reader(tmp_path, dataset_name, monkeypatch):
    config = ExperimentConfig(
        dataset_name=dataset_name, dataset_size=32, model_hidden=8, model_layers=1,
        model_time_embed_dim=4, teacher_iterations=2, teacher_batch_size=8,
        stage1_iterations=2, stage1_batch_size=8, stage2_iterations=2,
        stage2_batch_size=8, eval_n_seeds=2, eval_sample_count=16,
        eval_n_projections=8, output_dir=str(tmp_path / "run"))
    reads = {}
    for stage in STAGES:
        recorder = ReadRecorder(config)
        run_pipeline(recorder, [stage])
        reads[stage] = recorder.reads
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(dump_config(config))
    load = cli.load_config
    for argv in (["sample", "--num", "2", "--output", str(tmp_path / "s.csv")],
                 ["diagnose-isc", "--trials", "2"]):
        recorder = None

        def load_recorded(path):
            nonlocal recorder
            recorder = ReadRecorder(load(path))
            return recorder

        monkeypatch.setattr(cli, "load_config", load_recorded)
        assert cli.main([*argv, "--config", str(cfg_path)]) == 0
        reads[argv[0]] = recorder.reads
    return reads


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {name: reads_per_reader(tmp_path_factory.mktemp(name), name, monkeypatch)
                for name in ONLY_ON}


def test_every_config_key_has_a_reader(observed):
    read = set().union(*(r for per_reader in observed.values() for r in per_reader.values()))
    assert sorted(FIELDS - read) == []
    assert set().union(*READS.values()) == FIELDS


@pytest.mark.parametrize("reader", list(READS))
@pytest.mark.parametrize("dataset_name", list(ONLY_ON))
def test_each_reader_reads_the_keys_in_its_table(observed, dataset_name, reader):
    other = next(keys for name, keys in ONLY_ON.items() if name != dataset_name)
    assert sorted(observed[dataset_name][reader]) == sorted(READS[reader] - other)
