"""Experiment configuration: a flat `key = value` file with a closed key set.

Unknown keys are hard errors; silent hyperparameter typos are the dominant
failure mode in reproduction work, so the parser refuses them outright.
"""

import hashlib
import math
from dataclasses import dataclass, fields

from .data import DATASET_NAMES, KEY_LIMIT, PATCH_SIZE


def _opt_float(text):
    return None if text == "none" else float(text)


def _bool(text):
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true/false, got {text!r}")


@dataclass
class ExperimentConfig:
    # dataset
    dataset_name: str = "two-moons-conditional"
    dataset_size: int = 8192
    dataset_seed_offset: int = 0
    degrade_factor: int = 2
    degrade_noise_std: float = 0.02
    # model
    model_hidden: int = 128
    model_layers: int = 2
    model_time_embed_dim: int = 16
    # teacher stage
    teacher_iterations: int = 4000
    teacher_batch_size: int = 256
    teacher_lr: float = 1e-3
    teacher_weight_decay: float = 0.0
    teacher_condition_dropout: float = 0.2
    # stage 1 (distillation)
    stage1_iterations: int = 4000
    stage1_batch_size: int = 256
    stage1_lr: float = 1e-3
    stage1_branch_probability: float = 0.6
    stage1_guidance_scale: float | None = None
    stage1_full_interval_probability: float = 0.25
    stage1_condition_dropout: float = 0.0
    # stage 2 (refinement)
    stage2_iterations: int = 1000
    stage2_batch_size: int = 64
    stage2_lr: float = 2e-4
    stage2_regularizer_lr: float = 2e-4
    stage2_discriminator_lr: float = 2e-4
    stage2_lambda1: float = 1.0
    stage2_lambda2: float = 1.0
    stage2_lambda3: float = 1.0
    stage2_lambda4: float = 0.5
    stage2_vsd_t_min: float = 0.02
    stage2_vsd_t_max: float = 0.98
    # evaluation
    eval_n_seeds: int = 20
    eval_sample_count: int = 2048
    eval_n_projections: int = 256
    # orchestration
    seed: int = 0
    output_dir: str = "runs/default"
    emit_svg: bool = False

    def fingerprint(self):
        """Stable hash of `dump_config`'s text without its final newline."""
        text = dump_config(self)[:-1]
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def as_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                v = "none"
            elif isinstance(v, bool):
                v = "true" if v else "false"
            out[f.name] = v
        return out


# The closed key set: one value parser per field, chosen by its annotation.
_PARSERS = {f.name: {int: int, float: float, str: str, bool: _bool,
                     float | None: _opt_float}[f.type]
            for f in fields(ExperimentConfig)}

# The least value of each bounded count, weight and seed; probability and dropout
# keys lie in [0, 1], learning rates (`*_lr`) are positive and every float is finite.
_LEAST = {"dataset_size": 1, "degrade_factor": 1, "degrade_noise_std": 0, "model_hidden": 1,
          "model_layers": 1, "model_time_embed_dim": 2, "teacher_weight_decay": 0,
          "stage2_lambda1": 0, "stage2_lambda2": 0, "stage2_lambda3": 0, "stage2_lambda4": 0,
          "teacher_iterations": 0, "teacher_batch_size": 1, "stage1_iterations": 0,
          "stage1_batch_size": 1, "stage2_iterations": 0, "stage2_batch_size": 1,
          "eval_n_seeds": 2, "eval_sample_count": 1, "eval_n_projections": 1, "seed": 0,
          "dataset_seed_offset": 0}

# Exclusive upper bounds that keep every Philox key in [0, 2**128): the master
# seed is a key itself, and a dataset key is `stage_seed(...) + dataset_seed_offset`
# with a stage seed below 2**64.
_BELOW = {"seed": KEY_LIMIT, "dataset_seed_offset": KEY_LIMIT - 2 ** 64 + 1}


class ConfigError(ValueError):
    pass


def parse_config(text, path="<string>"):
    """Parse and range-check `key = value` lines ('#' comments, blank lines allowed)."""
    config = ExperimentConfig()
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen[key] = lineno
        try:
            value = _PARSERS[key](value)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{value!r} is not finite")
            if key.endswith("_lr") and value <= 0:
                raise ValueError(f"{value!r} is not positive")
            if (key in _LEAST and value < _LEAST[key]
                    or key in _BELOW and value >= _BELOW[key]
                    or key == "dataset_name" and value not in DATASET_NAMES
                    or key.endswith(("_probability", "_dropout")) and not 0 <= value <= 1):
                raise ValueError(f"{value!r} is out of range")
            if key == "model_time_embed_dim" and value % 2:
                raise ValueError(f"{value!r} is not even")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        setattr(config, key, value)
    if not 0 <= config.stage2_vsd_t_min <= config.stage2_vsd_t_max <= 1:
        line = max(seen.get("stage2_vsd_t_min", 0), seen.get("stage2_vsd_t_max", 0))
        raise ConfigError(f"{path}:{line}: bad values for 'stage2_vsd_t_min' and "
                          "'stage2_vsd_t_max': expected 0 <= t_min <= t_max <= 1")
    if config.dataset_name == "tiny-patches" and PATCH_SIZE % config.degrade_factor:
        line = max(seen.get("dataset_name", 0), seen.get("degrade_factor", 0))
        raise ConfigError(f"{path}:{line}: bad values for 'dataset_name' and "
                          f"'degrade_factor': tiny-patches needs a factor dividing {PATCH_SIZE}")
    return config


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), path=str(path))


def dump_config(config):
    return "\n".join(f"{k} = {v}" for k, v in sorted(config.as_dict().items())) + "\n"


def stage_seed(master_seed, stage_name):
    """Derive a stable per-stage 64-bit seed from the master seed."""
    digest = hashlib.sha256(f"{master_seed}:{stage_name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
