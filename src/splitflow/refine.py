"""Stage-2 detail refinement: score-distillation gradient against a trainable
regularizer, hinge adversarial losses with a small discriminator, and the
weighted total objective with alternating updates."""

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .data import make_rng
from .distill import distill
from .flow import interpolate
from .nn import AdamW, Mlp, Model, descend, fit, mse

# Frozen feature network seed; published so the perceptual distance is
# reproducible everywhere.
FEATURE_NET_SEED = 7151


@dataclass
class LossWeights:
    lambda1: float = 1.0    # interval-splitting consistency
    lambda2: float = 1.0    # reconstruction
    lambda3: float = 1.0    # score distillation
    lambda4: float = 0.5    # adversarial (generator side)

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


class WeightSchedule:
    """Time weighting for the score-distillation gradient, by name; the one
    schedule, "constant-1", weights every time by one."""

    def __init__(self, name="constant-1"):
        if name != "constant-1":
            raise ValueError(f"unknown weight schedule {name!r}")

    def __call__(self, t):
        return 1.0


class FeatureNet(Mlp):
    """Frozen randomly-initialized 2-layer feature map (perceptual-distance
    stand-in), deterministic for a given input dimension; no optimizer owns it."""

    def __init__(self, in_dim, feature_dim=32):
        super().__init__([in_dim, 64, feature_dim], rng=make_rng(FEATURE_NET_SEED))


class Discriminator(Model):
    """Small realness scorer: an MLP on raw 2D samples, or on block-averaged
    patch features for image tasks (`pool_from` is the flattened patch side)."""

    kind = "discriminator"

    def __init__(self, in_dim, hidden=64, rng=None, pool_from=None, pool_to=4):
        self.pool_from = pool_from
        self.pool_to = pool_to
        if pool_from is not None:
            if pool_to < 1 or pool_from % pool_to != 0:
                raise ValueError(f"pooled side must be >= 1 and divide the patch side, "
                                 f"got {pool_to!r}")
            in_dim = pool_to * pool_to
        self.in_dim = in_dim
        self.net = Mlp([in_dim, hidden, hidden, 1], rng=rng)

    def score(self, x):
        """Realness scores of a sample Tensor, one row per sample."""
        if self.pool_from is not None:
            side, out = self.pool_from, self.pool_to
            f = side // out
            n = x.values.shape[0]
            x = x.reshape(n, out, f, out, f).mean(axis=(2, 4))
            x = x.reshape(n, out * out)
        return self.net.forward(x)

    def spec(self):
        """The architecture, as stored in a checkpoint header."""
        return {"kind": self.kind, "in_dim": self.in_dim, "pool_from": self.pool_from,
                "pool_to": self.pool_to, "layer_sizes": self.net.layer_sizes}

    @classmethod
    def from_spec(cls, spec):
        """A discriminator of the architecture `spec` describes; weights to be loaded."""
        return cls(spec["in_dim"], hidden=spec["layer_sizes"][1],
                   pool_from=spec["pool_from"], pool_to=spec["pool_to"])


def gan_generator_loss(disc, fake_batch):
    """Negative mean discriminator score on the generated sample Tensor; the
    student's `descend` sweeps only to its own parameters (`wanted`)."""
    return -disc.score(fake_batch).mean()


def gan_discriminator_loss(disc, real_batch, fake_batch):
    """Hinge loss E[max(0, 1-D(real))] + E[max(0, 1+D(fake))] on two sample
    arrays; the discriminator's `descend` sweeps to its parameters (`wanted`)."""
    real_scores = disc.score(Tensor(real_batch))
    fake_scores = disc.score(Tensor(fake_batch))
    real_term = (1.0 - real_scores).relu().mean()
    fake_term = (1.0 + fake_scores).relu().mean()
    return real_term + fake_term


def reconstruction_loss(x_hat, x, feature_net):
    """Pixel MSE plus feature-space MSE under the feature network, taped on the
    generated Tensor `x_hat` and bare on the data array `x`; no `descend`
    wants the feature network's parameters, so they stay frozen."""
    if x_hat.values.shape != x.shape:
        raise ValueError(f"shape mismatch: {x_hat.values.shape} vs {x.shape}")
    target = x.astype(x_hat.values.dtype)
    return mse(x_hat, target) + mse(feature_net.forward(x_hat), feature_net.apply(target))


def vsd_gradient(z_hat, teacher, regularizer, cond, schedule, rng,
                 t_bounds=(0.02, 0.98)):
    """Score-distillation gradient with respect to the generated latent array.

    Noises z_hat to a time drawn from `rng` (t first, then the noise),
    evaluates the frozen teacher and the trainable regularizer there, and
    returns w(t) * (v_teacher - v_reg) carried back through the latent's
    (1-t) dependence. Returns (grad, t); seeded into the latent's Tensor, the
    student's `descend` carries it only to its own parameters (`wanted`).
    """
    lo, hi = t_bounds
    t = lo + (hi - lo) * rng.random()
    eps = rng.standard_normal(z_hat.shape).astype(np.float32)
    z_t = interpolate(z_hat, eps, t)
    v_teacher = teacher.velocity_values(z_t, t, cond)
    v_reg = regularizer.velocity_values(z_t, t, cond)
    weight = schedule(t)
    return ((1.0 - t) * weight * (v_teacher - v_reg)).astype(np.float32), t


def regularizer_loss(regularizer, z_hat, cond, rng):
    """Diffusion objective on a detached student sample array, updating only
    the regularizer: || v_reg(z_t, t) - (eps - z_hat) ||^2, with t and then
    eps drawn from `rng`."""
    t = rng.random()
    eps = rng.standard_normal(z_hat.shape).astype(np.float32)
    z_t = interpolate(z_hat, eps, t)
    return mse(regularizer.velocity(z_t, t, cond), eps - z_hat)


@dataclass
class Stage2Config:
    weights: LossWeights = field(default_factory=LossWeights)
    iterations: int = 1000
    batch_size: int = 64
    learning_rate: float = 2e-4
    regularizer_lr: float = 2e-4
    discriminator_lr: float = 2e-4
    branch_probability: float = 0.6
    full_interval_probability: float = 0.25
    vsd_t_min: float = 0.02
    vsd_t_max: float = 0.98
    seed: int = 0


class Stage2Trainer:
    """Owns the three optimizer states and runs the fixed alternating update:
    student, then regularizer, then discriminator."""

    def __init__(self, student, teacher, regularizer, disc, config, feature_net):
        self.student = student
        self.teacher = teacher
        self.regularizer = regularizer
        self.disc = disc
        self.config = config
        self.feature_net = feature_net
        self.opt_student = AdamW(student.named_parameters(),
                                 learning_rate=config.learning_rate)
        self.opt_reg = AdamW(regularizer.named_parameters(),
                             learning_rate=config.regularizer_lr)
        self.opt_disc = AdamW(disc.named_parameters(),
                              learning_rate=config.discriminator_lr)

    def step(self, x_batch, cond_batch, rng):
        """One alternating refinement step; returns the component-loss breakdown.

        (a) student: weighted splitting/boundary + reconstruction + generator
            hinge as a scalar loss, with the score-distillation gradient
            injected directly into the generated latent's backward seed;
        (b) regularizer: diffusion objective on detached student samples;
        (c) discriminator: hinge loss on real vs detached fake batches.
        """
        config = self.config
        student, teacher, disc = self.student, self.teacher, self.disc
        weights = config.weights
        x = np.asarray(x_batch, dtype=np.float32)
        cond = np.asarray(cond_batch, dtype=np.float32)
        n = x.shape[0]

        # --- student sub-step ---------------------------------------------
        eps_gen = rng.standard_normal(x.shape).astype(np.float32)
        u_full = student.average_velocity(eps_gen, 0.0, 1.0, cond)
        z_hat = Tensor(eps_gen) - u_full

        l_isc, _ = distill(student, teacher, x, cond, rng,
                           config.branch_probability,
                           config.full_interval_probability)
        l_rec = reconstruction_loss(z_hat, x, self.feature_net)
        l_gen = gan_generator_loss(disc, z_hat)
        vsd_grad, _ = vsd_gradient(z_hat.values, teacher, self.regularizer, cond,
                                   WeightSchedule(), rng,
                                   t_bounds=(config.vsd_t_min, config.vsd_t_max))

        breakdown = {
            "isc": float(l_isc.values),
            "rec": float(l_rec.values),
            "adv_g": float(l_gen.values),
            "vsd_grad_norm": float(np.linalg.norm(vsd_grad) / np.sqrt(n)),
        }
        for name in ("isc", "rec", "adv_g", "vsd_grad_norm"):
            if not np.isfinite(breakdown[name]):
                raise FloatingPointError(f"non-finite loss component {name!r}")

        scalar = (l_isc * weights.lambda1 + l_rec * weights.lambda2
                  + l_gen * weights.lambda4)
        vsd_seed = [(z_hat, (weights.lambda3 / n) * vsd_grad)] if weights.lambda3 else []
        descend(self.opt_student, scalar, "student loss", *vsd_seed)

        # --- regularizer sub-step -------------------------------------------
        l_reg = regularizer_loss(self.regularizer, z_hat.values, cond, rng)
        breakdown["reg_diff"] = descend(self.opt_reg, l_reg, "loss component 'reg_diff'")

        # --- discriminator sub-step -------------------------------------------
        l_disc = gan_discriminator_loss(disc, x, z_hat.values)
        breakdown["adv_d"] = descend(self.opt_disc, l_disc, "loss component 'adv_d'")

        return breakdown

    def train(self, x_data, cond_data):
        """`config.iterations` steps on batches drawn from the dataset by a
        generator keyed by `config.seed`; returns the breakdowns logged every
        50 iterations and at the last one."""
        config = self.config
        return fit("refine", self.step, x_data, cond_data,
                   iterations=config.iterations, batch_size=config.batch_size,
                   seed=config.seed, log_every=50)
