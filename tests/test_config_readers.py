"""Which config keys each reader takes: the key-ownership record.

Every reader runs on a tiny config, once per dataset, with a config object
that records which `ExperimentConfig` fields are read. The record must match
`READS`, and every field must have a reader: a key that nothing reads changes
nothing, and a config file that sets it would be silently ignored.

`FIELD_KEYS` records which stage-config field each stage key lands in: the
configs the training functions receive must hold each key's value in its
field, and each stage-config default must be its key's default.
"""

from dataclasses import fields

import pytest

from splitflow import (ExperimentConfig, LossWeights, Stage1Config, Stage2Config,
                       TeacherTrainConfig, cli, dump_config, run_pipeline, stage_seed)
from splitflow import pipeline
from splitflow.pipeline import STAGE_TABLE, STAGES

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
    Methods run on `config` itself, so `fingerprint()` is not recorded."""

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


# The stage-config field each stage key lands in, written out by hand: the
# pipeline derives it from the key names, and a field that took another
# stage key (say `stage2_lr` for `regularizer_lr`) must fail here. The other
# fields are built from several keys.
FIELD_KEYS = {
    TeacherTrainConfig: {"iterations": "teacher_iterations",
                         "batch_size": "teacher_batch_size",
                         "learning_rate": "teacher_lr",
                         "weight_decay": "teacher_weight_decay",
                         "condition_dropout": "teacher_condition_dropout",
                         "time_embed_dim": "model_time_embed_dim"},
    Stage1Config: {"branch_probability": "stage1_branch_probability",
                   "guidance_scale": "stage1_guidance_scale",
                   "iterations": "stage1_iterations",
                   "batch_size": "stage1_batch_size",
                   "learning_rate": "stage1_lr",
                   "full_interval_probability": "stage1_full_interval_probability",
                   "condition_dropout": "stage1_condition_dropout"},
    Stage2Config: {"iterations": "stage2_iterations",
                   "batch_size": "stage2_batch_size",
                   "learning_rate": "stage2_lr",
                   "regularizer_lr": "stage2_regularizer_lr",
                   "discriminator_lr": "stage2_discriminator_lr",
                   "branch_probability": "stage1_branch_probability",
                   "full_interval_probability": "stage1_full_interval_probability",
                   "vsd_t_min": "stage2_vsd_t_min",
                   "vsd_t_max": "stage2_vsd_t_max"},
    LossWeights: {f"lambda{i}": f"stage2_lambda{i}" for i in range(1, 5)},
}
BUILT = {TeacherTrainConfig: {"hidden_sizes", "seed"}, Stage1Config: {"seed"},
         Stage2Config: {"weights", "seed"}, LossWeights: set()}

# each stage key at a value that no other stage key holds
DISTINCT = dict(
    teacher_iterations=2, teacher_batch_size=5, teacher_lr=1.1e-3,
    teacher_weight_decay=0.013, teacher_condition_dropout=0.21, model_time_embed_dim=10,
    stage1_iterations=3, stage1_batch_size=6, stage1_lr=1.2e-3,
    stage1_branch_probability=0.61, stage1_guidance_scale=1.5,
    stage1_full_interval_probability=0.26, stage1_condition_dropout=0.05,
    stage2_iterations=4, stage2_batch_size=7, stage2_lr=2.1e-4,
    stage2_regularizer_lr=2.2e-4, stage2_discriminator_lr=2.3e-4,
    stage2_lambda1=1.1, stage2_lambda2=1.2, stage2_lambda3=1.3, stage2_lambda4=0.4,
    stage2_vsd_t_min=0.03, stage2_vsd_t_max=0.97)


def test_each_stage_config_field_holds_its_own_key():
    config = ExperimentConfig(**DISTINCT, dataset_size=32, model_hidden=8, model_layers=1,
                              seed=5)
    assert sorted(DISTINCT) == sorted({key for keys in FIELD_KEYS.values()
                                       for key in keys.values()})
    assert len(set(DISTINCT.values())) == len(DISTINCT)
    values = {stage.name: stage.plan(config)[1] for stage in STAGE_TABLE}
    received = {TeacherTrainConfig: values["teacher"], Stage1Config: values["distill"],
                Stage2Config: values["refine"][0], LossWeights: values["refine"][0].weights}
    for cls, keys in FIELD_KEYS.items():
        for name, key in keys.items():
            assert (cls.__name__, name, getattr(received[cls], name)) == \
                (cls.__name__, name, getattr(config, key))
    assert received[TeacherTrainConfig].hidden_sizes == (8,)
    for cls, stage in ((TeacherTrainConfig, "teacher"), (Stage1Config, "distill"),
                       (Stage2Config, "refine")):
        assert received[cls].seed == stage_seed(5, stage)


@pytest.mark.parametrize("stage", STAGE_TABLE, ids=lambda stage: stage.name)
@pytest.mark.parametrize("dataset_name", list(ONLY_ON))
def test_each_plan_reads_its_keys_and_builds_and_opens_nothing(tmp_path, monkeypatch,
                                                                 dataset_name, stage):
    # a plan reads config values alone: every key its stage reads except
    # where the stage writes, and no file or dataset
    def refuse(*args, **kwargs):
        raise AssertionError(f"the {stage.name} plan built a dataset or opened a file")

    monkeypatch.setattr(pipeline, "generate_dataset", refuse)
    monkeypatch.chdir(tmp_path)
    config = ExperimentConfig(dataset_name=dataset_name, output_dir="run")
    recorder = ReadRecorder(config)
    with monkeypatch.context() as patched:
        patched.setattr("builtins.open", refuse)
        plan = stage.plan(recorder)
    other = next(keys for name, keys in ONLY_ON.items() if name != dataset_name)
    assert sorted(recorder.reads) == sorted(READS[stage.name] - {"output_dir", "emit_svg"}
                                            - other)
    assert list(tmp_path.iterdir()) == []
    assert plan == stage.plan(config)


@pytest.mark.parametrize("cls", list(FIELD_KEYS), ids=lambda cls: cls.__name__)
def test_each_stage_config_default_is_its_keys_default(cls):
    assert set(FIELD_KEYS[cls]) | BUILT[cls] == {f.name for f in fields(cls)}
    default, config = cls(), ExperimentConfig()
    for name, key in FIELD_KEYS[cls].items():
        assert (name, getattr(default, name)) == (name, getattr(config, key))


def test_built_stage_config_defaults_are_the_config_defaults():
    config = ExperimentConfig()
    assert TeacherTrainConfig().hidden_sizes == (config.model_hidden,) * config.model_layers
    assert Stage2Config().weights == LossWeights()


def test_a_field_no_key_names_is_an_error_naming_it():
    with pytest.raises(TypeError, match=r"Stage1Config\.branch_probability matches no config key"):
        pipeline._stage_config(Stage1Config, ExperimentConfig(), ("stage2_",), seed=0)
