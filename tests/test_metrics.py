import tracemalloc

import numpy as np
import pytest

from splitflow import (StudentModel, TeacherModel,
                       gradient_magnitudes, make_rng, metric_stability, psnr,
                       seed_diversity, sliced_wasserstein)


# ---- sliced Wasserstein ---------------------------------------------------------

def test_sw_identical_sets_zero():
    a = make_rng(0).standard_normal((100, 2))
    assert sliced_wasserstein(a, a.copy()) == 0.0


def test_sw_point_masses_unit_apart_1d():
    # 1D point masses at 0 and 1: every unit projection is +/-1, and the 1D
    # W2 between the projections is exactly 1
    a = np.zeros((50, 1))
    b = np.ones((50, 1))
    assert np.isclose(sliced_wasserstein(a, b), 1.0)


def test_sw_shifted_gaussians_match_dense_reference():
    # distance estimated with the default 256 projections agrees with a
    # 10000-projection reference within 5%
    rng = make_rng(1)
    a = rng.standard_normal((2000, 2))
    b = rng.standard_normal((2000, 2)) + np.array([1.0, 0.0])
    coarse = sliced_wasserstein(a, b)
    dense = sliced_wasserstein(a, b, n_projections=10_000, rng=make_rng(99))
    assert abs(coarse - dense) / dense <= 0.05


def test_sw_symmetry():
    rng = make_rng(2)
    a = rng.standard_normal((200, 3))
    b = rng.standard_normal((300, 3)) * 1.5
    assert abs(sliced_wasserstein(a, b) - sliced_wasserstein(b, a)) <= 1e-9


def test_sw_unequal_sizes_quantile_path():
    rng = make_rng(3)
    a = rng.standard_normal((128, 2))
    assert sliced_wasserstein(a, a[:64]) < sliced_wasserstein(a, a[:64] + 5.0)


def test_sw_input_validation():
    with pytest.raises(ValueError, match="dimension mismatch"):
        sliced_wasserstein(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="nonempty"):
        sliced_wasserstein(np.zeros((0, 2)), np.zeros((4, 2)))


def test_sw_default_projection_basis_is_fixed():
    rng = make_rng(4)
    a = rng.standard_normal((50, 2))
    b = rng.standard_normal((50, 2))
    assert sliced_wasserstein(a, b) == sliced_wasserstein(a, b)


# Exact values recorded when every projection column was handled at once:
# (equal counts 300/300, unequal counts 300/77). 33, 65 and 100 are not
# multiples of the projection block, and 1 is the one-column case.
SW_VALUES = {
    1: (0.1421279508456826, 0.21193161973050592),
    33: (0.34477055860467093, 0.2136706020086852),
    65: (0.4587562697021202, 0.20920331634849137),
    100: (0.43665836784176393, 0.20818670781696283),
    256: (0.4338207800800518, 0.20544299554242798),
}


@pytest.mark.parametrize("n_projections", sorted(SW_VALUES))
def test_sw_keeps_its_exact_values(n_projections):
    rng = make_rng(11)
    a = rng.standard_normal((300, 5))
    b = rng.standard_normal((300, 5)) + 0.5
    c = rng.standard_normal((77, 5))
    got = (sliced_wasserstein(a, b, n_projections=n_projections),
           sliced_wasserstein(a, c, n_projections=n_projections))
    assert got == SW_VALUES[n_projections]


def test_sw_memory_does_not_grow_with_projections():
    # the projected arrays stay a block of columns wide: 1024 projections of
    # 2048 points would take 16 MiB per projected set at once
    rng = make_rng(6)
    a = rng.standard_normal((2048, 2))
    b = rng.standard_normal((2048, 2))
    tracemalloc.start()
    try:
        sliced_wasserstein(a, b, n_projections=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# ---- PSNR -----------------------------------------------------------------------

def test_psnr_identical_is_infinite():
    x = make_rng(0).random((4, 8))
    assert psnr(x, x.copy()) == float("inf")


def test_psnr_hand_value():
    # MSE 0.01 at peak 1 -> 20 dB
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)
    assert np.isclose(psnr(a, b), 20.0)


def test_psnr_monotone_in_noise():
    rng = make_rng(1)
    x = rng.random((16, 16))
    noisy = [x + rng.normal(0, s, x.shape) for s in (0.01, 0.05, 0.2)]
    values = [psnr(x, y) for y in noisy]
    assert values[0] > values[1] > values[2]


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        psnr(np.zeros((2, 2)), np.zeros((3, 2)))


# ---- seed diversity ---------------------------------------------------------------

def make_student(seed=0):
    teacher = TeacherModel(2, 1, hidden_sizes=(8, 8), time_embed_dim=8,
                           rng=np.random.default_rng(seed))
    return StudentModel.from_teacher(teacher)


def test_seed_diversity_positive_for_distinct_seeds():
    student = make_student()
    cond = np.zeros((16, 1), dtype=np.float32)
    mean_dist, matrix = seed_diversity(student, cond, seeds=[1, 2, 3, 4],
                                       sample_shape=(16, 2))
    assert mean_dist > 0.0
    assert matrix.shape == (4, 4)
    assert np.allclose(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)


def test_seed_diversity_zero_for_repeated_seed():
    student = make_student()
    cond = np.zeros((8, 1), dtype=np.float32)
    mean_dist, _ = seed_diversity(student, cond, seeds=[5, 5, 5],
                                  sample_shape=(8, 2))
    assert mean_dist == 0.0


def test_seed_diversity_needs_two_seeds():
    with pytest.raises(ValueError, match="at least 2"):
        seed_diversity(make_student(), np.zeros((4, 1), dtype=np.float32),
                       seeds=[1], sample_shape=(4, 2))


# ---- stability protocol --------------------------------------------------------------

def test_metric_stability_deterministic_sampler_has_zero_std():
    fixed = make_rng(0).standard_normal((64, 2))
    reference = make_rng(1).standard_normal((64, 2))
    report = metric_stability(lambda seed: fixed, reference,
                              {"sw": sliced_wasserstein}, n_seeds=5)
    mean, std = report.metrics["sw"]
    assert std == 0.0
    assert mean == sliced_wasserstein(fixed, reference)


def test_metric_stability_default_seed_count():
    calls = []

    def sample(seed):
        calls.append(seed)
        return make_rng(seed).standard_normal((16, 2))

    reference = make_rng(0).standard_normal((16, 2))
    report = metric_stability(sample, reference, {"sw": sliced_wasserstein})
    assert len(calls) == 20
    assert report.seeds == list(range(1, 21))
    assert len(report.values["sw"]) == 20


def test_metric_stability_order_invariant_summary():
    reference = make_rng(0).standard_normal((32, 2))

    def sample(seed):
        return make_rng(seed).standard_normal((32, 2))

    report = metric_stability(sample, reference, {"sw": sliced_wasserstein},
                              n_seeds=3)
    reordered = report.values["sw"][::-1]
    assert np.isclose(report.metrics["sw"][0], np.mean(reordered))
    assert np.isclose(report.metrics["sw"][1], np.std(reordered))


def test_metric_report_rows():
    report = metric_stability(lambda s: make_rng(s).standard_normal((8, 2)),
                              make_rng(0).standard_normal((8, 2)),
                              {"sw": sliced_wasserstein}, n_seeds=2)
    rows = report.rows()
    assert len(rows) == 2
    assert {r["seed"] for r in rows} == {1, 2}
    summary = report.summary_rows()
    assert summary[0]["metric"] == "sw"


# ---- high-frequency statistic -----------------------------------------------------------

def test_gradient_magnitudes_constant_patch_is_zero():
    flat = np.full((3, 16, 16), 0.4)
    mags = gradient_magnitudes(flat)
    assert mags.shape == (3 * 2 * 16 * 15, 1)
    assert np.all(mags == 0.0)


def test_gradient_magnitudes_step_edge():
    patch = np.zeros((1, 16, 16))
    patch[0, :, 8:] = 1.0   # one vertical edge: 16 horizontal diffs of 1
    mags = gradient_magnitudes(patch)
    assert np.sum(mags == 1.0) == 16
    assert np.sum(mags) == 16.0


def test_gradient_magnitudes_separate_sharp_from_smooth():
    rng = make_rng(5)
    sharp = (rng.random((32, 16, 16)) > 0.5).astype(np.float64)
    smooth = np.full((32, 16, 16), 0.5) + rng.normal(0, 0.01, (32, 16, 16))
    d_sharp = sliced_wasserstein(gradient_magnitudes(sharp),
                                 gradient_magnitudes(smooth))
    assert d_sharp > 0.1
