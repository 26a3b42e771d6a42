import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from splitflow import DegradationParams, generate_dataset, make_rng
from splitflow import data
from splitflow.data import DATASET_NAMES, PATCH_SIZE, _two_moons


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


def test_observation_is_lossy_projection():
    # a 2D point maps to a 1D observation, so distinct points can share one
    ds = generate_dataset("two-moons-conditional", 100, seed=4)
    assert ds.x_l.shape[1] < ds.x_h.shape[1]


# ---- degradation ------------------------------------------------------------

def test_block_mean_example():
    # without noise each observation pixel is the mean of its f x f block
    ds = generate_dataset("tiny-patches", 64, 0, DegradationParams(2, 0.0))
    assert ds.x_l.shape == (64, 8, 8)
    blocks = ds.x_h.astype(np.float64).reshape(64, 8, 2, 8, 2)
    assert np.allclose(ds.x_l, blocks.mean(axis=(2, 4)), rtol=0, atol=1e-6)


def test_degrade_output_clamped():
    ds = generate_dataset("tiny-patches", 64, 3, DegradationParams(1, 50.0))
    assert ds.x_l.min() == 0.0 and ds.x_l.max() == 1.0


def test_degradation_contracts_information():
    # the whole-patch mean of a checker whose x or y frequency is 1, 2 or 4
    # is 0.5 whatever its phase, so distinct patches share one observation
    ds = generate_dataset("tiny-patches", 64, 7, DegradationParams(16, 0.0))
    assert len(np.unique(ds.x_h, axis=0)) == 64
    assert len(np.unique(ds.x_l, axis=0)) < 64


@pytest.mark.parametrize("field, value", [
    ("downsample_factor", 0), ("downsample_factor", -2), ("downsample_factor", 2.0),
    ("downsample_factor", True), ("noise_std", float("nan")), ("noise_std", -0.1),
    ("noise_std", float("inf"))])
def test_degradation_params_reject_what_degrade_cannot_honour(field, value):
    with pytest.raises(ValueError, match=re.escape(field) + ".*" + re.escape(repr(value))):
        DegradationParams(**{field: value})


def test_degradation_params_take_numpy_integers():
    want = generate_dataset("tiny-patches", 8, 5, DegradationParams(2, 0.1))
    got = generate_dataset("tiny-patches", 8, 5, DegradationParams(np.int64(2), 0.1))
    assert got.x_l.tobytes() == want.x_l.tobytes()


# ---- patch generator --------------------------------------------------------

# sha256 of the x_h, x_l and labels bytes of generate_dataset("tiny-patches",
# n, seed), recorded from the generator that built one patch per loop pass.
# n = 1, 2 and 257 leave a block without some kind; 255/256/257 sit on the
# block edge; (4096, 100) and (512, 200) are the acceptance suite's sets.
PATCH_DIGESTS = {
    (1, 0): ("a572cf3cee8c8b5fc9433c1c850318826c995503c2ec20a0587c143bd21e1557",
             "7aaa309c2d5f0bcf8479ae675d35a91a46c0cfdb8b16be0061d7b9dd1ce4e3ba",
             "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    (2, 1): ("f1edd81c422c653de5bfe68b451562628c584669a03c79223202cdbf179266b4",
             "b3d250509518428c0f5db66c668204c0a3179573319e5e4bd409299407a748b9",
             "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
    (255, 2): ("4ed468010dadf1aa994db87f49e7d06584a44da4bb17650cc36d013c180aa15e",
               "6f5cd40b81e7c273e701ba93d5ba5c0f478bc3c90a73207d37bc355d12e9e02a",
               "e47dfa0912cb340ff50dc233c9ad23711c2c491792abdc6595ee2c9a1a96121e"),
    (256, 3): ("4041e7406f1e0d5e4305cf51fa46ae3610e4f1bf694338a21d6b2cd924674b8c",
               "6a43db3e0a692efca42301ab395011892969e4a4d069e6482a9dda4bca98794a",
               "e2e589d638c6efda0fb03a4169d97dba9eb483c4f92dee4fe40b82ecfdc23367"),
    (257, 4): ("afb09d1e5a4cf3728eaccac725274b51042d2e05959af584e6f0f39f24a39aa2",
               "1eb2668de6b54ed73308df6fa4ae960bea78c5ed8b27554329efdf31d7f0edf6",
               "1ccdb14ef079190a09ab65b4bfc89bbfc0268e79df9fa2b88f5197e235585412"),
    (4096, 100): ("3aed53bc05e3b568445192329a24dc47a42f11a246714f5392cca4573d0eebd9",
                  "1f26e7db1232be773e5272f2f8f724c9a901dc37ca351b483281edac6d7daec3",
                  "8108adf8ab0705b424a28a084ca3de3ef55c375ddda7bb905e95ccac3bae60e2"),
    (512, 200): ("2d0808c21bf4a80c45f8d2d6ecb591a6d8d23bf481a3114b20a761149c58274a",
                 "41b21db6c036a4d531497287dc6ab7d8a741edc0a2011725d3190ce0cab9fad8",
                 "86d55aa4bacf4746d9493cab796db22cf2a4bdadba914d584eacc98d25fa8d31"),
}


@pytest.mark.parametrize("n, seed", sorted(PATCH_DIGESTS))
def test_patches_keep_their_bytes(n, seed):
    ds = generate_dataset("tiny-patches", n, seed)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (ds.x_h, ds.x_l, ds.labels))
    assert got == PATCH_DIGESTS[n, seed]


def test_patch_build_temporaries_are_bounded_by_the_block():
    # beyond the returned arrays, only the float64 block means (512 B a row
    # at f = 2) grow with the row count; a float64 copy of every patch grows
    # by 2 KiB a row
    beyond = {}
    for n in (4096, 8192):
        tracemalloc.start()
        try:
            ds = generate_dataset("tiny-patches", n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beyond[n] = peak - ds.x_h.nbytes - ds.x_l.nbytes - ds.labels.nbytes
    assert beyond[4096] <= 4.5 * 2**20
    assert beyond[8192] - beyond[4096] <= 512 * 4096


def test_patch_build_checks_the_factor_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("patches drawn before the factor was checked")
    monkeypatch.setattr(data, "_patch_block", no_draws)
    with pytest.raises(ValueError, match=re.escape(
            "patch sides (16, 16) not divisible by downsample factor 3")):
        generate_dataset("tiny-patches", 4096, 1, DegradationParams(3))


# the oracles for `_patch_block` and the degradation: the block builder with one
# `uniform` call per parameter and one `normal` call per spectrum plane, each
# kind computed out of place, and the degradation that adds and clips out of
# place
def reference_patch_block(kinds, rng, out):
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


def reference_degrade(x_h, params, rng):
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


def reference_patch_build(n, seed, degradation):
    """x_h, x_l and labels built over whole arrays: every patch into one
    float64 array, clipped, degraded, then rounded to float32."""
    if degradation is None:
        degradation = DegradationParams(2, 0.02)
    rng = make_rng(seed)
    kinds = rng.integers(0, 3, size=n)
    patches = np.empty((n, PATCH_SIZE, PATCH_SIZE))
    reference_patch_block(kinds, rng, patches)
    np.clip(patches, 0.0, 1.0, out=patches)
    x_l = reference_degrade(patches, degradation, rng)
    return patches.astype(np.float32), x_l, kinds


@pytest.mark.parametrize("seed", [0, 11, 2**64 + 17])
@pytest.mark.parametrize("degradation", [(2, 0.02), (4, 0.0), (1, 0.1), None, (8, 0.05),
                                         (16, 0.2)])
def test_patch_build_matches_its_reference_byte_for_byte(seed, degradation):
    if degradation is not None:
        degradation = DegradationParams(*degradation)
    for n in (1, 2, 255, 256, 257, 600, 4096):
        ds = generate_dataset("tiny-patches", n, seed, degradation)
        got = ds.x_h, ds.x_l, ds.labels
        want = reference_patch_build(n, seed, degradation)
        for name, a, b in zip(("x_h", "x_l", "labels"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, (n, name)
            assert a.tobytes() == b.tobytes(), (n, name)


def _random_patches(lead, rng):
    """Float64 patches over many magnitudes of both signs, with signed zeros
    and a 4 x 4 corner of -0.0."""
    x = rng.normal(size=lead + (PATCH_SIZE, PATCH_SIZE))
    x *= 10.0 ** rng.integers(-8, 300, size=x.shape)
    x[rng.random(x.shape) < 0.05] = -0.0
    x[..., :4, :4] = -0.0
    return x


@pytest.mark.parametrize("f", [1, 2, 4, 8, 16])
def test_block_mean_is_numpys_mean_byte_for_byte(f):
    rng = make_rng(f)
    side = PATCH_SIZE // f
    for lead in [(), (1,), (255,), (256,), (257,), (4096,)]:
        x = _random_patches(lead, rng)
        want = x.reshape(*lead, side, f, side, f).mean(axis=(-3, -1))
        got = data._block_mean(x, f)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), lead
        into = np.empty_like(want)
        data._block_mean(x, f, out=into)
        assert into.tobytes() == want.tobytes(), lead


@pytest.mark.parametrize("f", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_degrade_matches_its_reference_byte_for_byte(f, noise_std):
    params = DegradationParams(f, noise_std)
    got = generate_dataset("tiny-patches", 300, 9, params).x_l
    want = reference_patch_build(300, 9, params)[1]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_flat_views_do_not_copy_float32_data():
    ds = generate_dataset("tiny-patches", 8, seed=1)
    assert np.shares_memory(ds.flat_x(), ds.x_h)
    assert np.shares_memory(ds.cond_array(), ds.x_l)


def reference_two_moons(n, rng):
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


@pytest.mark.parametrize("seed", [0, 9, 1001, 2**63 + 5])
def test_two_moons_matches_the_scatter_form_byte_for_byte(seed):
    for n in (1, 2, 3, 7, 255, 256, 1000, 2048, 4097, 8193):
        x, labels = _two_moons(n, make_rng(seed))
        want_x, want_labels = reference_two_moons(n, make_rng(seed))
        assert x.dtype == want_x.dtype and x.shape == (n, 2)
        assert x.tobytes() == want_x.tobytes()
        assert labels.tobytes() == want_labels.tobytes()
