"""Desk-scale laboratory for one-step generative distillation via
interval-splitting consistency, with flow-matching teachers, score
distillation, and adversarial refinement on synthetic tasks."""

from .autodiff import Tensor, backward_multi, concat, grad_check, stop_gradient
from .nn import AdamW, Mlp
from .flow import (SamplerConfig, TeacherModel, TeacherTrainConfig,
                   cfg_velocity, fm_loss, interpolate, model_field, ode_sample,
                   time_embedding, train_teacher)
from .distill import (Interval, Stage1Config, StudentModel, backward_integrate,
                      boundary_loss, isc_loss, isc_residual, isc_residual_scan,
                      multi_step_sample, one_step_sample, sample_interval,
                      stage1_train_step, train_student)
from .data import (DegradationParams, ToyDataset, degrade, generate_dataset,
                   make_rng)
from .refine import (Discriminator, FeatureNet, LossWeights, Stage2Config,
                     Stage2Trainer, WeightSchedule, gan_discriminator_loss,
                     gan_generator_loss, reconstruction_loss, regularizer_loss,
                     vsd_gradient)
from .metrics import (MetricReport, feature_distance, gradient_magnitudes,
                      metric_stability, psnr, seed_diversity,
                      sliced_wasserstein)
from .checkpoint import (CheckpointFormatError, load_checkpoint,
                         save_checkpoint)
from .config import (ConfigError, ExperimentConfig, dump_config, load_config,
                     parse_config, stage_seed)
from .pipeline import PipelineError, emit_report, evaluate_student, run_pipeline

__version__ = "0.1.0"
