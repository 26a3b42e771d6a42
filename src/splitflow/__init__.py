"""Desk-scale laboratory for one-step generative distillation via
interval-splitting consistency, with flow-matching teachers, score
distillation, and adversarial refinement on synthetic tasks.

The root exports what the acceptance suite, perfbench and tools/ import;
everything else is imported from its module."""

from .autodiff import Tensor, grad_check
from .nn import Mlp
from .flow import (SamplerConfig, TeacherModel, TeacherTrainConfig, fm_loss,
                   model_field, ode_sample, train_teacher)
from .distill import (Interval, Stage1Config, StudentModel, boundary_loss,
                      isc_loss, isc_residual, isc_residual_scan,
                      multi_step_sample, one_step_sample, stage1_train_step,
                      train_student)
from .data import DegradationParams, generate_dataset, make_rng
from .refine import (Discriminator, FeatureNet, LossWeights, Stage2Config,
                     Stage2Trainer, gan_discriminator_loss, gan_generator_loss,
                     reconstruction_loss, regularizer_loss, vsd_gradient)
from .metrics import (gradient_magnitudes, metric_stability, psnr,
                      seed_diversity, sliced_wasserstein)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, dump_config, stage_seed
from .pipeline import run_pipeline

__version__ = "0.1.0"
