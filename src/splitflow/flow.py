"""Flow-matching primitives: linear interpolation paths, the teacher
objective, the Euler ODE sampler, and guidance mixing.

Time convention throughout: t=1 is pure noise, t=0 is data. Samplers
integrate from t=1 down to t=0.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat
from .data import make_rng
from .nn import AdamW, Mlp, Model, descend, fit, mse


def time_embedding(t, dim, dtype=np.float32):
    """Sinusoidal features of a time scalar or batch of times.

    Frequencies are geometrically spaced in [1, 64] so that both slow and
    fast variation over [0, 1] is resolvable.
    """
    if dim % 2 != 0:
        raise ValueError("time embedding dimension must be even")
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = 64.0 ** (np.arange(half) / max(half - 1, 1))
    angles = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1).astype(dtype)


def interpolate(x, eps, t):
    """Point on the linear noise-data path, (1-t)*x + t*eps, for arrays `x`
    and `eps` and a time scalar or one time per row.

    A scalar time stays a Python float: `1 - t` is taken in double precision
    and rounded to `x`'s dtype only in the product. Casting it first would
    move the low bits of every noised state the training stages draw.
    """
    if isinstance(t, (int, float)):
        t = float(t)
        inside = 0.0 <= t <= 1.0
    else:
        t = np.asarray(t)
        inside = np.all((t >= 0.0) & (t <= 1.0))
        t = (t[:, None] if t.ndim == 1 else t).astype(x.dtype)
    if not inside:
        raise ValueError(f"interpolation time must lie in [0, 1], got {t}")
    return (1.0 - t) * x + t * eps


@dataclass
class SamplerConfig:
    num_steps: int = 100

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")


class ConditionedModel(Model):
    """An MLP over concatenated (state, time embedding, condition); the shape
    the teacher and the student share, described by `spec()`. The trunk has a
    taped form on Tensors and a bit-identical value twin on arrays."""

    def __init__(self, state_dim, cond_dim, hidden_sizes=(128, 128),
                 time_embed_dim=16, rng=None):
        if time_embed_dim < 2 or time_embed_dim % 2:
            raise ValueError(f"time_embed_dim must be even and >= 2, got {time_embed_dim!r}")
        self.state_dim = state_dim
        self.cond_dim = cond_dim
        self.time_embed_dim = time_embed_dim
        in_dim = state_dim + time_embed_dim + cond_dim
        self.net = Mlp([in_dim, *hidden_sizes, state_dim], rng=rng)

    def spec(self):
        """The architecture, as stored in a checkpoint header."""
        return {"kind": self.kind, "state_dim": self.state_dim,
                "cond_dim": self.cond_dim, "time_embed_dim": self.time_embed_dim,
                "layer_sizes": self.net.layer_sizes}

    @classmethod
    def from_spec(cls, spec):
        """A model of the architecture `spec` describes; weights to be loaded."""
        return cls(spec["state_dim"], spec["cond_dim"],
                   hidden_sizes=spec["layer_sizes"][1:-1],
                   time_embed_dim=spec["time_embed_dim"])

    def _embed(self, z, t):
        """Embedding array of a time scalar or one time per row, for each row of `z`."""
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            # one row, copied: the rows of an embedding are computed
            # independently, so this is bit-identical to embedding each row;
            # a stride-0 `broadcast_to` view would take the matmul off BLAS
            row = time_embedding(t, self.time_embed_dim, dtype=z.dtype)
            return np.repeat(row, z.shape[0], axis=0)
        t = np.broadcast_to(t, (z.shape[0],))
        return time_embedding(t, self.time_embed_dim, dtype=z.dtype)

    def _inputs(self, z, emb, cond):
        """(z, time embedding, condition) for the trunk; `None` means zeros."""
        cond = np.zeros((z.shape[0], self.cond_dim)) if cond is None else cond
        return [z, emb, np.asarray(cond, dtype=z.dtype)]

    def _trunk_values(self, z, emb, cond):
        return self.net.apply(np.concatenate(self._inputs(z, emb, cond), axis=-1))

    def _trunk(self, z, emb, cond):
        return self.net.forward(concat(self._inputs(z, emb, cond), axis=-1))


class TeacherModel(ConditionedModel):
    """Velocity network over concatenated (state, time embedding, condition)."""

    kind = "teacher"

    def velocity(self, z, t, cond):
        if not isinstance(z, Tensor):
            z = Tensor(z)
        return self._trunk(z, Tensor(self._embed(z, t)), cond)

    def velocity_values(self, z, t, cond):
        """`velocity(z, t, cond).values` without a tape, for a float array `z`."""
        return self._trunk_values(z, self._embed(z, t), cond)


def fm_loss(model, x, eps, t, cond):
    """Mean over the batch of the squared velocity-prediction error."""
    x = np.asarray(x)
    if x.shape[0] == 0:
        raise ValueError("fm_loss requires a nonempty batch")
    z_t = interpolate(x, eps, t)
    pred = model.velocity(z_t, t, cond)
    return mse(pred, np.asarray(eps) - x)


def cfg_velocity(model, z, t, cond, w):
    """Classifier-free-guided velocity array: w*v_cond + (1-w)*v_uncond."""
    v_cond = model.velocity_values(z, t, cond)
    v_uncond = model.velocity_values(z, t, None)
    return v_cond * w + v_uncond * (1.0 - w)


def ode_sample(field, z_start, config):
    """Integrate dz/dt = field(z, t) from t=1 down to t=0 with uniform steps.

    `field` maps (z: array, t: float) -> velocity array. Returns the final
    state and the list of visited states (including both endpoints).
    """
    z = np.array(z_start, dtype=np.float64 if np.asarray(z_start).dtype == np.float64
                 else np.float32, copy=True)
    n = config.num_steps
    dt = -1.0 / n
    trajectory = [z.copy()]
    for i in range(n):
        t = 1.0 + i * dt
        z = z + dt * np.asarray(field(z, t))
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"non-finite state at integration step {i}")
        trajectory.append(z.copy())
    return z, trajectory


def model_field(model, cond):
    """Wrap a velocity model as a plain (z, t) -> v field for the sampler."""

    def field(z, t):
        return model.velocity_values(z, t, cond)

    return field


@dataclass
class TeacherTrainConfig:
    iterations: int = 4000
    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    condition_dropout: float = 0.2
    hidden_sizes: tuple = (128, 128)
    time_embed_dim: int = 16
    seed: int = 0


def train_teacher(x_data, cond_data, config, model=None):
    """Standard flow-matching training of the teacher.

    `x_data` is the clean sample array, `cond_data` the per-sample encoded
    condition array. The condition is dropped (zeroed) with probability
    `condition_dropout` to support classifier-free guidance downstream.
    Returns (model, loss_records) where each record is a dict.
    """
    x_data = np.asarray(x_data, dtype=np.float32)
    cond_data = np.asarray(cond_data, dtype=np.float32)
    if x_data.shape[0] == 0:
        raise ValueError("training dataset is empty")
    if model is None:
        model = TeacherModel(x_data.shape[1], cond_data.shape[1],
                             hidden_sizes=tuple(config.hidden_sizes),
                             time_embed_dim=config.time_embed_dim,
                             rng=make_rng(config.seed + 1))
    opt = AdamW(model.named_parameters(), learning_rate=config.learning_rate,
                weight_decay=config.weight_decay)

    def step(x, cond, rng):
        eps = rng.standard_normal(x.shape).astype(np.float32)
        t = rng.random(x.shape[0])
        loss = fm_loss(model, x, eps, t, cond)
        return {"loss": descend(opt, loss, "flow-matching loss")}

    records = fit("teacher", step, x_data, cond_data,
                  iterations=config.iterations, batch_size=config.batch_size,
                  seed=config.seed, condition_dropout=config.condition_dropout)
    return model, records
