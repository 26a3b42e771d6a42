"""Toy conditional datasets and the degradation operator.

All randomness flows through numpy's Philox counter-based generator keyed by
an explicit 64-bit seed, so regeneration with the same (name, size, seed) is
bit-identical across platforms.
"""

from dataclasses import dataclass

import numpy as np

DATASET_NAMES = ("two-moons-conditional", "tiny-patches")
PATCH_SIZE = 16
# Rows of patches computed together by `_procedural_patches`.
PATCH_BLOCK = 256

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
        return self.x_l.reshape(self.x_l.shape[0], -1).astype(np.float32, copy=False)

    def flat_x(self):
        return self.x_h.reshape(self.x_h.shape[0], -1).astype(np.float32, copy=False)


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
    # cos and sin of every angle once, then a select: elementwise, so each
    # entry is what a computation over its own moon's rows gives
    cos, sin = np.cos(theta), np.sin(theta)
    outer = labels == 0
    x = np.stack([np.where(outer, cos, 1.0 - cos), np.where(outer, sin, 0.5 - sin)], axis=1)
    return x + noise, labels


def _patch_block(kinds, rng, out):
    """Fill `out` (one row per kind) with patches: each row's parameters are
    drawn in row order, as one row at a time would draw them, then each kind
    is computed for all of its rows at once."""
    side = PATCH_SIZE
    yy, xx = np.mgrid[0:side, 0:side] / side
    n = len(kinds)
    # stripes: frequency, phase, angle; checkers: fx, fy, px, py;
    # noise: real and imaginary spectrum planes, cutoff
    stripe = np.empty((n, 3))
    checker_f = np.empty((n, 2), dtype=np.int64)
    checker_p = np.empty((n, 2))
    spectrum = np.empty((n, 2, side, side))
    cutoff = np.empty(n)
    for i, kind in enumerate(kinds):
        if kind == 0:
            stripe[i] = (rng.uniform(2.0, 6.0), rng.uniform(0.0, 2.0 * np.pi),
                         rng.uniform(0.0, np.pi))
        elif kind == 1:
            checker_f[i] = (rng.integers(1, 5), rng.integers(1, 5))
            checker_p[i] = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        else:
            spectrum[i, 0] = rng.normal(size=(side, side))
            spectrum[i, 1] = rng.normal(size=(side, side))
            cutoff[i] = rng.uniform(0.15, 0.45)
    rows = kinds == 0
    freq, phase, angle = (col[:, None, None] for col in stripe[rows].T)
    proj = np.cos(angle) * xx + np.sin(angle) * yy
    out[rows] = 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * proj + phase)
    rows = kinds == 1
    fx, fy = (col[:, None, None] for col in checker_f[rows].T)
    px, py = (col[:, None, None] for col in checker_p[rows].T)
    out[rows] = (np.floor((xx + px) * fx * 2) + np.floor((yy + py) * fy * 2)) % 2
    rows = kinds == 2
    planes = spectrum[rows]
    radius = np.sqrt(np.fft.fftfreq(side)[None, :] ** 2 + np.fft.fftfreq(side)[:, None] ** 2)
    mask = radius <= cutoff[rows, None, None]
    img = np.real(np.fft.ifft2((planes[:, 0] + 1j * planes[:, 1]) * mask))
    lo = img.min(axis=(1, 2), keepdims=True)
    hi = img.max(axis=(1, 2), keepdims=True)
    out[rows] = (img - lo) / (hi - lo + 1e-12)


def _procedural_patches(n, rng):
    """Band-limited noise, stripes, and checkers at random phase/frequency.

    All kinds are drawn first, then each row's parameters in row order; the
    patches are computed PATCH_BLOCK rows at a time, so temporaries stay
    bounded by the block whatever `n` is.
    """
    patches = np.empty((n, PATCH_SIZE, PATCH_SIZE))
    kinds = rng.integers(0, 3, size=n)
    for start in range(0, n, PATCH_BLOCK):
        stop = start + PATCH_BLOCK
        _patch_block(kinds[start:stop], rng, patches[start:stop])
    np.clip(patches, 0.0, 1.0, out=patches)
    return patches, kinds


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
    x_h, labels = _two_moons(n, rng)
    obs = x_h @ PROJECTION_DIRECTION + rng.normal(0.0, OBSERVATION_NOISE_STD, size=n)
    return ToyDataset(name, x_h.astype(np.float32),
                      obs.astype(np.float32)[:, None], seed, labels=labels)
