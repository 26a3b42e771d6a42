"""Distributional and fidelity metrics plus the seed stability/diversity
protocols, at desk scale."""

from dataclasses import dataclass, field

import numpy as np

from .data import PATCH_SIZE, make_rng
from .distill import one_step_sample

DEFAULT_N_PROJECTIONS = 256
PROJECTION_SEED = 314159
# Projection columns `sliced_wasserstein` projects, sorts and reduces at once.
SW_BLOCK = 32


def sliced_wasserstein(a, b, n_projections=DEFAULT_N_PROJECTIONS, rng=None):
    """Mean over random unit projections of the 1D 2-Wasserstein distance
    between the projected empirical distributions (sorted matching).

    For states of 16 or more dimensions the last bits depend on BLAS:
    `a @ dirs` can round a column differently with the BLAS thread count and
    with the number of columns in the block, and the distance moves with it.
    The pipeline passes only 2-D states and 1-D gradient magnitudes, for
    which no difference has shown.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("point sets must be nonempty")
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if rng is None:
        rng = make_rng(PROJECTION_SEED)
    dim = a.shape[1]
    dirs = rng.standard_normal((dim, n_projections))
    dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    # A block of columns at a time, so memory does not grow with
    # `n_projections`. The last block takes the remainder too: numpy sums a
    # one-column block pairwise instead of row by row, and its distance would
    # move in the last bit.
    starts = range(0, max(n_projections - SW_BLOCK, 0) + 1, SW_BLOCK)
    stops = [*starts[1:], n_projections]
    w2 = np.concatenate([_projected_w2(a, b, dirs[:, lo:hi])
                         for lo, hi in zip(starts, stops)])
    return float(w2.mean())


def _projected_w2(a, b, dirs):
    """1D 2-Wasserstein distance along each column of `dirs`."""
    pa = a @ dirs
    pb = b @ dirs
    pa.sort(axis=0)
    pb.sort(axis=0)
    if pa.shape[0] != pb.shape[0]:
        # different sample counts: compare matched quantiles on a common grid
        m = max(pa.shape[0], pb.shape[0])
        grid = (np.arange(m) + 0.5) / m
        pa = np.quantile(pa, grid, axis=0)
        pb = np.quantile(pb, grid, axis=0)
    pa -= pb
    return np.sqrt(np.mean(np.square(pa, out=pa), axis=0))


def psnr(a, b):
    """10*log10(1 / MSE) in dB for values on a unit peak; identical inputs
    report +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def feature_distance(feature_net, a, b):
    """Mean squared distance in the frozen feature space (perceptual term)."""
    fa = feature_net.apply(np.asarray(a, dtype=np.float32))
    fb = feature_net.apply(np.asarray(b, dtype=np.float32))
    return float(np.mean((fa - fb) ** 2))


def seed_diversity(student, cond, seeds, sample_shape):
    """Per-seed one-step samples under a fixed condition; distances taken to
    the first seed's output as reference.

    Returns (mean distance to reference over the remaining seeds, full
    pairwise mean-squared distance matrix).
    """
    if len(seeds) < 2:
        raise ValueError("seed diversity needs at least 2 seeds")
    outputs = []
    for seed in seeds:
        eps = make_rng(seed).standard_normal(sample_shape).astype(np.float32)
        outputs.append(one_step_sample(student, eps, cond))

    k = len(outputs)
    matrix = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = float(np.mean((outputs[i] - outputs[j]) ** 2))
    mean_to_ref = float(matrix[0, 1:].mean())
    return mean_to_ref, matrix


@dataclass
class MetricReport:
    """Per-metric mean and std across seeds."""
    metrics: dict = field(default_factory=dict)   # name -> (mean, std)
    values: dict = field(default_factory=dict)    # name -> [per-seed values]
    seeds: list = field(default_factory=list)

    def rows(self):
        out = []
        for name in sorted(self.values):
            for seed, value in zip(self.seeds, self.values[name]):
                out.append({"metric": name, "seed": seed, "value": value})
        return out

    def summary_rows(self):
        return [{"metric": name, "mean": m, "std": s}
                for name, (m, s) in sorted(self.metrics.items())]


def metric_stability(sample_fn, reference, metric_fns, n_seeds=20):
    """Evaluate metrics for seeds 1..n_seeds and report mean and std.

    `sample_fn(seed)` generates one batch of samples; each entry of
    `metric_fns` maps (samples, reference) -> float.
    """
    seeds = list(range(1, n_seeds + 1))
    if len(seeds) < 2:
        raise ValueError("stability protocol needs at least 2 seeds")
    values = {name: [] for name in metric_fns}
    for seed in seeds:
        samples = sample_fn(seed)
        for name, fn in metric_fns.items():
            values[name].append(float(fn(samples, reference)))
    metrics = {name: (float(np.mean(v)), float(np.std(v)))
               for name, v in values.items()}
    return MetricReport(metrics=metrics, values=values, seeds=seeds)


def gradient_magnitudes(patches):
    """Pooled distribution of finite-difference gradient magnitudes over a
    patch batch; the high-frequency statistic compared via sliced_wasserstein."""
    p = np.asarray(patches, dtype=np.float64).reshape(-1, PATCH_SIZE, PATCH_SIZE)
    gx = np.diff(p, axis=2)
    gy = np.diff(p, axis=1)
    mags = np.concatenate([np.abs(gx).reshape(-1), np.abs(gy).reshape(-1)])
    return mags[:, None]
