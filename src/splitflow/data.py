"""Toy conditional datasets and the degradation operator.

All randomness flows through numpy's Philox counter-based generator keyed by
an explicit 64-bit seed, so regeneration with the same (name, size, seed) is
bit-identical across platforms.
"""

from dataclasses import dataclass

import numpy as np

DATASET_NAMES = ("two-moons-conditional", "gaussian-mixture-conditional", "tiny-patches")
PATCH_SIZE = 16

# Fixed projection direction used to build the 1D observation for 2D tasks.
PROJECTION_DIRECTION = np.array([0.8, 0.6], dtype=np.float64)
OBSERVATION_NOISE_STD = 0.05


def make_rng(seed):
    """Counter-based generator with documented constants: Philox4x64 keyed by `seed`."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass
class DegradationParams:
    downsample_factor: int = 2
    noise_std: float = 0.0


@dataclass
class ToyDataset:
    name: str
    x_h: np.ndarray     # clean samples, (n, d) or (n, 16, 16)
    x_l: np.ndarray     # degraded/projected observations
    seed: int
    labels: np.ndarray | None = None

    def cond_array(self):
        """Flattened observations, one row per sample."""
        return self.x_l.reshape(self.x_l.shape[0], -1).astype(np.float32)

    def flat_x(self):
        return self.x_h.reshape(self.x_h.shape[0], -1).astype(np.float32)


def degrade(x_h, params, rng):
    """Block-average downsample, add Gaussian noise, clamp to [0,1]."""
    x = np.asarray(x_h, dtype=np.float64)
    f = params.downsample_factor
    if x.shape[-1] % f != 0 or x.shape[-2] % f != 0:
        raise ValueError(
            f"patch sides {x.shape[-2:]} not divisible by downsample factor {f}")
    h, w = x.shape[-2] // f, x.shape[-1] // f
    blocks = x.reshape(*x.shape[:-2], h, f, w, f)
    out = blocks.mean(axis=(-3, -1))
    if params.noise_std > 0:
        out = out + rng.normal(0.0, params.noise_std, size=out.shape)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def _two_moons(n, rng):
    labels = rng.integers(0, 2, size=n)
    theta = rng.random(n) * np.pi
    noise = rng.normal(0.0, 0.08, size=(n, 2))
    x = np.empty((n, 2))
    outer = labels == 0
    x[outer, 0] = np.cos(theta[outer])
    x[outer, 1] = np.sin(theta[outer])
    x[~outer, 0] = 1.0 - np.cos(theta[~outer])
    x[~outer, 1] = 0.5 - np.sin(theta[~outer])
    return x + noise, labels


def _gaussian_mixture(n, rng, k=8, radius=2.0, std=0.15):
    labels = rng.integers(0, k, size=n)
    angles = 2.0 * np.pi * labels / k
    centers = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
    return centers + rng.normal(0.0, std, size=(n, 2)), labels


def _procedural_patches(n, rng):
    """Band-limited noise, stripes, and checkers at random phase/frequency."""
    side = PATCH_SIZE
    yy, xx = np.mgrid[0:side, 0:side] / side
    patches = np.empty((n, side, side))
    kinds = rng.integers(0, 3, size=n)
    for i in range(n):
        kind = kinds[i]
        if kind == 0:
            freq = rng.uniform(2.0, 6.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            angle = rng.uniform(0.0, np.pi)
            proj = np.cos(angle) * xx + np.sin(angle) * yy
            p = 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * proj + phase)
        elif kind == 1:
            fx = rng.integers(1, 5)
            fy = rng.integers(1, 5)
            px = rng.uniform(0.0, 1.0)
            py = rng.uniform(0.0, 1.0)
            p = ((np.floor((xx + px) * fx * 2) + np.floor((yy + py) * fy * 2)) % 2)
        else:
            spectrum = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            fy = np.fft.fftfreq(side)[:, None]
            fx = np.fft.fftfreq(side)[None, :]
            cutoff = rng.uniform(0.15, 0.45)
            mask = np.sqrt(fx ** 2 + fy ** 2) <= cutoff
            img = np.real(np.fft.ifft2(spectrum * mask))
            lo, hi = img.min(), img.max()
            p = (img - lo) / (hi - lo + 1e-12)
        patches[i] = p
    return np.clip(patches, 0.0, 1.0), kinds


def generate_dataset(name, n, seed, degradation=None):
    """Deterministic toy dataset of (clean, observation) pairs."""
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    if name not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r}; choose one of {DATASET_NAMES}")
    rng = make_rng(seed)
    if name == "tiny-patches":
        if degradation is None:
            degradation = DegradationParams(downsample_factor=2, noise_std=0.02)
        x_h, labels = _procedural_patches(n, rng)
        x_l = degrade(x_h, degradation, rng)
        return ToyDataset(name, x_h.astype(np.float32), x_l, seed, labels=labels)
    if name == "two-moons-conditional":
        x_h, labels = _two_moons(n, rng)
    else:
        x_h, labels = _gaussian_mixture(n, rng)
    obs = x_h @ PROJECTION_DIRECTION + rng.normal(0.0, OBSERVATION_NOISE_STD, size=n)
    return ToyDataset(name, x_h.astype(np.float32),
                      obs.astype(np.float32)[:, None], seed, labels=labels)
