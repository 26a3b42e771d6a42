import numpy as np
import pytest

from splitflow import DegradationParams, degrade, generate_dataset, make_rng
from splitflow.data import DATASET_NAMES


def test_generation_is_bitwise_deterministic():
    for name in DATASET_NAMES:
        a = generate_dataset(name, 64, seed=5)
        b = generate_dataset(name, 64, seed=5)
        assert np.array_equal(a.x_h, b.x_h)
        assert np.array_equal(a.x_l, b.x_l)
        assert np.array_equal(a.cond_array(), b.cond_array())


def test_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        generate_dataset("two-moons-conditional", 0, seed=1)
    with pytest.raises(ValueError, match="unknown dataset"):
        generate_dataset("swiss-cheese", 16, seed=1)


def test_two_moons_class_balance():
    ds = generate_dataset("two-moons-conditional", 10_000, seed=9)
    frac = np.mean(ds.labels)
    assert abs(frac - 0.5) <= 0.02


def test_two_moons_geometry():
    ds = generate_dataset("two-moons-conditional", 2000, seed=2)
    assert ds.x_h.shape == (2000, 2)
    assert ds.x_l.shape == (2000, 1)
    assert np.all(np.isfinite(ds.x_h))
    assert np.abs(ds.x_h).max() < 3.0


def test_gaussian_mixture_modes_populated():
    ds = generate_dataset("gaussian-mixture-conditional", 4000, seed=3)
    assert len(np.unique(ds.labels)) == 8


def test_observation_is_lossy_projection():
    # a 2D point maps to a 1D observation, so distinct points can share one
    ds = generate_dataset("two-moons-conditional", 100, seed=4)
    assert ds.x_l.shape[1] < ds.x_h.shape[1]


# ---- degradation ------------------------------------------------------------

def test_block_mean_example():
    # 2x2 patch [1, 2; 0, -0.5] averaged by factor 2 gives 0.625
    patch = np.array([[[1.0, 2.0], [0.0, -0.5]]])
    params = DegradationParams(downsample_factor=2, noise_std=0.0)
    out = degrade(patch, params, make_rng(0))
    assert out.shape == (1, 1, 1)
    assert np.allclose(out, 0.625)


def test_degrade_constant_patch_noise_free():
    patch = np.full((2, 4, 4), 0.3)
    params = DegradationParams(downsample_factor=2, noise_std=0.0)
    assert np.allclose(degrade(patch, params, make_rng(1)), 0.3)


def test_degrade_output_clamped():
    patch = np.full((1, 4, 4), 0.5)
    params = DegradationParams(downsample_factor=1, noise_std=50.0)
    out = degrade(patch, params, make_rng(3))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_degrade_rejects_indivisible_shape():
    patch = np.zeros((1, 5, 5))
    params = DegradationParams(downsample_factor=2, noise_std=0.0)
    with pytest.raises(ValueError, match="divisible"):
        degrade(patch, params, make_rng(0))


def test_degradation_contracts_information():
    # two distinct patches that collapse to the same degraded observation
    a = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    b = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    params = DegradationParams(downsample_factor=2, noise_std=0.0)
    da = degrade(a, params, make_rng(7))
    db = degrade(b, params, make_rng(7))
    assert not np.array_equal(a, b)
    assert np.array_equal(da, db)
