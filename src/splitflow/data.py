"""Toy conditional datasets and the degradation operator.

All randomness flows through numpy's Philox counter-based generator keyed by
an explicit integer seed below `KEY_LIMIT` (2**128), so regeneration with the
same (name, size, seed) is bit-identical across platforms.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

DATASET_NAMES = ("two-moons-conditional", "tiny-patches")
PATCH_SIZE = 16
# Rows of patches computed together by `_procedural_patches`.
PATCH_BLOCK = 256

# Fixed projection direction used to build the 1D observation for 2D tasks.
PROJECTION_DIRECTION = np.array([0.8, 0.6], dtype=np.float64)
OBSERVATION_NOISE_STD = 0.05
# A Philox key lies in [0, KEY_LIMIT).
KEY_LIMIT = 2 ** 128


def make_rng(seed):
    """Counter-based generator with documented constants: Philox4x64 keyed by `seed`."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass
class DegradationParams:
    downsample_factor: int = 2
    noise_std: float = 0.0

    def __post_init__(self):
        f = self.downsample_factor
        if not isinstance(f, numbers.Integral) or isinstance(f, bool) or f < 1:
            raise ValueError(f"downsample_factor must be an integer >= 1, got {f!r}")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std!r}")


@dataclass
class ToyDataset:
    x_h: np.ndarray     # clean samples, (n, d) or (n, 16, 16)
    x_l: np.ndarray     # degraded/projected observations
    labels: np.ndarray | None = None

    def cond_array(self):
        """Flattened observations, one row per sample."""
        return self.x_l.reshape(self.x_l.shape[0], -1).astype(np.float32, copy=False)

    def flat_x(self):
        return self.x_h.reshape(self.x_h.shape[0], -1).astype(np.float32, copy=False)


def _check_factor(shape, f):
    if shape[-1] % f != 0 or shape[-2] % f != 0:
        raise ValueError(
            f"patch sides {shape[-2:]} not divisible by downsample factor {f}")


def _block_mean(x, f, out=None):
    """Mean of each f x f block of the last two axes of float64 `x`, equal
    byte for byte to `x.reshape(..., h, f, w, f).mean(axis=(-3, -1))`."""
    blocks = x.reshape(*x.shape[:-2], x.shape[-2] // f, f, x.shape[-1] // f, f)
    if f >= 8:
        # numpy sums an 8-long block row pairwise and a 16 x 16 block as one
        # coalesced 256-long axis; at these lengths its own reduction is fast
        return blocks.mean(axis=(-3, -1), out=out)
    # Below 8, numpy reduces the view in inner loops of length f: it sums
    # each block row left to right, from 0 (so -0.0 becomes +0.0), and adds
    # the row sums in row order. The same order over whole arrays:
    rows = blocks[..., 0] + 0.0
    for j in range(1, f):
        rows += blocks[..., j]
    total = rows[..., 0, :]
    for i in range(1, f):
        total += rows[..., i, :]
    return np.divide(total, f * f, out=out)


def _observe(means, noise_std, rng, out):
    """Add N(0, noise_std^2) noise to `means` in place, clamp them to [0, 1],
    and cast them into `out`."""
    if noise_std > 0:
        means += rng.normal(0.0, noise_std, size=means.shape)
    out[...] = np.clip(means, 0.0, 1.0, out=means)
    return out


def degrade(x_h, params, rng):
    """Block-average downsample, add Gaussian noise, clamp to [0,1]."""
    x = np.asarray(x_h, dtype=np.float64)
    f = params.downsample_factor
    _check_factor(x.shape, f)
    means = _block_mean(x, f)
    return _observe(means, params.noise_std, rng, np.empty(means.shape, np.float32))


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


def _stripes(u, xx, yy):
    """Stripe rows from their (frequency, phase, angle) uniforms on [0, 1)."""
    low, high = np.array([2.0, 0.0, 0.0]), np.array([6.0, 2.0 * np.pi, np.pi])
    freq, phase, angle = (col[:, None, None] for col in (low + (high - low) * u).T)
    t = np.cos(angle) * xx
    t += np.sin(angle) * yy
    t *= 2.0 * np.pi * freq
    t += phase
    np.sin(t, out=t)
    t *= 0.5
    t += 0.5
    return t


def _checkers(freqs, phases, xx, yy):
    """Checker rows from their integer (fx, fy) and (px, py) uniforms on
    [0, 1), which are the phases themselves: 0 + 1 * u is u."""
    fx, fy = (col[:, None, None] for col in freqs.T)
    px, py = (col[:, None, None] for col in phases.T)
    c = xx + px
    c *= fx
    c *= 2
    np.floor(c, out=c)
    t = yy + py
    t *= fy
    t *= 2
    np.floor(t, out=t)
    c += t
    # c % 2, exactly, for the whole numbers c holds: c / 2 - floor(c / 2) is
    # 0 or 0.5. numpy's float remainder takes about three times as long.
    c *= 0.5
    np.floor(c, out=t)
    c -= t
    c *= 2
    return c


def _band_limited_noise(planes, u):
    """Noise rows from their real and imaginary spectrum planes and their
    cutoff uniforms on [0, 1), each low-passed and stretched to [0, 1]."""
    side = planes.shape[-1]
    radius = np.sqrt(np.fft.fftfreq(side)[None, :] ** 2 + np.fft.fftfreq(side)[:, None] ** 2)
    mask = radius <= (0.15 + (0.45 - 0.15) * u)[:, None, None]
    img = np.fft.ifft2((planes[:, 0] + 1j * planes[:, 1]) * mask).real
    lo = img.min(axis=(1, 2), keepdims=True)
    hi = img.max(axis=(1, 2), keepdims=True)
    img -= lo
    img /= hi - lo + 1e-12
    return img


def _patch_block(kinds, rng, out):
    """Fill `out` (one row per kind) with patches: each row's parameters are
    drawn in row order, as one row at a time would draw them, then each kind
    is computed for all of its rows at once.

    A row takes one RNG call per parameter group (the two checker
    frequencies take two: one `size=2` call costs more). Uniforms are drawn
    on [0, 1) and mapped to their ranges by the kind's function, as
    `Generator.uniform` maps them: low + (high - low) * u."""
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
    for i, kind in enumerate(kinds.tolist()):
        if kind == 0:
            rng.random(out=stripe[i])
        elif kind == 1:
            checker_f[i] = (rng.integers(1, 5), rng.integers(1, 5))
            rng.random(out=checker_p[i])
        else:
            spectrum[i] = rng.normal(size=(2, side, side))
            cutoff[i] = rng.random()
    rows = kinds == 0
    out[rows] = _stripes(stripe[rows], xx, yy)
    rows = kinds == 1
    out[rows] = _checkers(checker_f[rows], checker_p[rows], xx, yy)
    rows = kinds == 2
    out[rows] = _band_limited_noise(spectrum[rows], cutoff[rows])


def _procedural_patches(n, rng, f):
    """Band-limited noise, stripes, and checkers at random phase/frequency:
    float32 patches, the float64 means of their f x f blocks, and the kinds.

    All kinds are drawn first, then each row's parameters in row order; the
    patches are computed PATCH_BLOCK rows at a time into one float64 block,
    which is clipped, rounded into its rows of the patches and averaged into
    its rows of the means, so temporaries stay bounded by the block whatever
    `n` is.
    """
    patches = np.empty((n, PATCH_SIZE, PATCH_SIZE), dtype=np.float32)
    means = np.empty((n, PATCH_SIZE // f, PATCH_SIZE // f))
    block = np.empty((min(n, PATCH_BLOCK), PATCH_SIZE, PATCH_SIZE))
    kinds = rng.integers(0, 3, size=n)
    for start in range(0, n, PATCH_BLOCK):
        stop = min(start + PATCH_BLOCK, n)
        rows = block[:stop - start]
        _patch_block(kinds[start:stop], rng, rows)
        np.clip(rows, 0.0, 1.0, out=rows)
        patches[start:stop] = rows
        _block_mean(rows, f, out=means[start:stop])
    return patches, means, kinds


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
        f = degradation.downsample_factor
        _check_factor((PATCH_SIZE, PATCH_SIZE), f)
        x_h, means, labels = _procedural_patches(n, rng, f)
        # the noise is drawn after every patch, block by block: chunked
        # `normal` calls continue one stream, as one call over all rows would
        x_l = np.empty(means.shape, np.float32)
        for start in range(0, n, PATCH_BLOCK):
            stop = start + PATCH_BLOCK
            _observe(means[start:stop], degradation.noise_std, rng, x_l[start:stop])
        return ToyDataset(x_h, x_l, labels=labels)
    x_h, labels = _two_moons(n, rng)
    obs = x_h @ PROJECTION_DIRECTION + rng.normal(0.0, OBSERVATION_NOISE_STD, size=n)
    return ToyDataset(x_h.astype(np.float32),
                      obs.astype(np.float32)[:, None], labels=labels)
