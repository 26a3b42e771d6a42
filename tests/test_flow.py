import numpy as np
import pytest

from splitflow import (SamplerConfig, TeacherModel, TeacherTrainConfig,
                       fm_loss, make_rng, ode_sample, train_teacher)
from splitflow.flow import cfg_velocity, interpolate, model_field, time_embedding


def make_teacher(seed=0, state_dim=2, cond_dim=1, hidden=(8, 8)):
    return TeacherModel(state_dim, cond_dim, hidden_sizes=hidden,
                        time_embed_dim=8, rng=np.random.default_rng(seed))


# ---- interpolation path ----------------------------------------------------

def test_path_endpoints_exact():
    x = np.array([[1.0, -2.0]], dtype=np.float32)
    eps = np.array([[0.5, 3.0]], dtype=np.float32)
    assert np.array_equal(interpolate(x, eps, 0.0), x)
    assert np.array_equal(interpolate(x, eps, 1.0), eps)


def test_interpolate_quarter():
    out = interpolate(np.array([[2.0]], dtype=np.float32),
                      np.array([[0.0]], dtype=np.float32), 0.25)
    assert np.allclose(out, 1.5)


def test_interpolate_rejects_out_of_range_t():
    x = np.ones((1, 2), dtype=np.float32)
    for t in (1.5, -0.25, float("nan"), np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            interpolate(x, x, t)


def test_interpolate_scalar_time_is_the_inline_expression_bit_for_bit():
    """The training stages noise with a Python-float time; the path must be
    `(1.0 - t) * x + t * eps` to the bit, not a float32-rounded time."""
    rng = make_rng(11)
    x = rng.standard_normal((16, 2)).astype(np.float32)
    eps = rng.standard_normal((16, 2)).astype(np.float32)
    for t in rng.random(2000).tolist():
        out = interpolate(x, eps, t)
        assert out.dtype == np.float32
        assert out.tobytes() == ((1.0 - t) * x + t * eps).tobytes()


# ---- flow-matching loss ----------------------------------------------------

class PerfectModel:
    """Predicts eps - x exactly (cheats by closing over the batch)."""

    def __init__(self, x, eps):
        self.target = np.asarray(eps) - np.asarray(x)

    def velocity(self, z, t, cond):
        from splitflow import Tensor
        return Tensor(self.target.astype(np.float32))


class ZeroModel:
    def velocity(self, z, t, cond):
        from splitflow import Tensor
        return Tensor(np.zeros(z.shape if hasattr(z, "shape") else np.asarray(z).shape,
                               dtype=np.float32))


def test_fm_loss_zero_for_perfect_predictor():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 2)).astype(np.float32)
    eps = rng.normal(size=(4, 2)).astype(np.float32)
    t = rng.random(4)
    loss = fm_loss(PerfectModel(x, eps), x, eps, t, None)
    assert float(loss.values) == 0.0


def test_fm_loss_zero_model_unit_target():
    x = np.array([[1.0]], dtype=np.float32)
    eps = np.array([[0.0]], dtype=np.float32)
    loss = fm_loss(ZeroModel(), x, eps, np.array([0.5]), None)
    assert np.isclose(float(loss.values), 1.0)


def test_fm_loss_batch_is_mean_of_per_sample():
    teacher = make_teacher()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2)).astype(np.float32)
    eps = rng.normal(size=(2, 2)).astype(np.float32)
    t = rng.random(2)
    cond = rng.normal(size=(2, 1)).astype(np.float32)
    full = float(fm_loss(teacher, x, eps, t, cond).values)
    parts = [float(fm_loss(teacher, x[i:i + 1], eps[i:i + 1], t[i:i + 1],
                           cond[i:i + 1]).values) for i in range(2)]
    assert np.isclose(full, np.mean(parts), rtol=1e-5)


def test_fm_loss_rejects_empty_batch():
    with pytest.raises(ValueError, match="nonempty"):
        fm_loss(make_teacher(), np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), None)


# ---- ODE sampler -----------------------------------------------------------

def test_single_euler_step_constant_field():
    c = np.array([2.0, -1.0])
    eps = np.array([[1.0, 1.0]])
    z, traj = ode_sample(lambda z, t: c, eps, SamplerConfig(num_steps=1))
    assert np.allclose(z, eps - c)
    assert len(traj) == 2


def test_exact_linear_flow_reaches_data_any_step_count():
    x0 = np.array([[0.7, -0.3]])
    eps = np.array([[2.0, 1.0]])
    field = lambda z, t: eps - x0
    for steps in (1, 3, 10, 57):
        z, _ = ode_sample(field, eps, SamplerConfig(num_steps=steps))
        assert np.allclose(z, x0, atol=1e-6)


def test_euler_first_order_convergence():
    # analytic field v(z, t) = z * t has smooth time dependence
    field = lambda z, t: z * t
    z0 = np.array([[1.0]])
    ref, _ = ode_sample(field, z0.astype(np.float64), SamplerConfig(num_steps=10_000))
    errs = []
    for steps in (50, 100):
        z, _ = ode_sample(field, z0.astype(np.float64), SamplerConfig(num_steps=steps))
        errs.append(float(np.abs(z - ref).max()))
    ratio = errs[0] / errs[1]
    assert 1.6 < ratio < 2.4


def test_sampler_nan_abort_names_step():
    calls = {"n": 0}

    def field(z, t):
        calls["n"] += 1
        return np.full_like(z, np.nan) if calls["n"] >= 3 else np.zeros_like(z)

    with pytest.raises(FloatingPointError, match="step 2"):
        ode_sample(field, np.zeros((1, 1)), SamplerConfig(num_steps=10))


def test_sampler_determinism_bitwise():
    teacher = make_teacher()
    eps = np.random.default_rng(0).normal(size=(8, 2)).astype(np.float32)
    cond = np.zeros((8, 1), dtype=np.float32)
    a, traj_a = ode_sample(model_field(teacher, cond), eps, SamplerConfig(num_steps=20))
    b, traj_b = ode_sample(model_field(teacher, cond), eps, SamplerConfig(num_steps=20))
    assert np.array_equal(a, b)
    assert all(np.array_equal(u, v) for u, v in zip(traj_a, traj_b))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(num_steps=0)


# ---- classifier-free guidance ------------------------------------------------

def test_cfg_w1_is_conditional():
    teacher = make_teacher()
    z = np.random.default_rng(1).normal(size=(4, 2)).astype(np.float32)
    cond = np.random.default_rng(2).normal(size=(4, 1)).astype(np.float32)
    guided = cfg_velocity(teacher, z, 0.4, cond, 1.0)
    assert np.allclose(guided, teacher.velocity(z, 0.4, cond).values, atol=1e-6)


def test_cfg_w0_is_unconditional():
    teacher = make_teacher()
    z = np.random.default_rng(1).normal(size=(4, 2)).astype(np.float32)
    cond = np.random.default_rng(2).normal(size=(4, 1)).astype(np.float32)
    guided = cfg_velocity(teacher, z, 0.4, cond, 0.0)
    assert np.allclose(guided, teacher.velocity(z, 0.4, None).values, atol=1e-6)


@pytest.mark.parametrize("w", [-1.0, 0.0, 0.5, 1.0, 4.5, 7.5])
def test_cfg_affine_identity_when_branches_agree(w):
    # null condition in both branches -> v_cond == v_uncond -> result w-free
    teacher = make_teacher()
    z = np.random.default_rng(3).normal(size=(4, 2)).astype(np.float32)
    base = teacher.velocity(z, 0.3, None).values
    guided = cfg_velocity(teacher, z, 0.3, None, w)
    assert np.allclose(guided, base, atol=1e-5)


# ---- value path ----------------------------------------------------------------

def same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def value_path_inputs(times, with_cond, dtype, n=33):
    rng = np.random.default_rng(7)
    z = rng.normal(size=(n, 2)).astype(dtype)
    t = 0.37 if times == "scalar" else rng.random(n)
    cond = rng.normal(size=(n, 1)).astype(np.float32) if with_cond else None
    return z, t, cond


@pytest.mark.parametrize("times", ["scalar", "per-row"])
@pytest.mark.parametrize("with_cond", [True, False], ids=["cond", "no-cond"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_teacher_velocity_values_is_byte_equal_to_taped(times, with_cond, dtype):
    teacher = make_teacher(seed=4, hidden=(16, 16))
    z, t, cond = value_path_inputs(times, with_cond, dtype)
    assert same_bytes(teacher.velocity_values(z, t, cond),
                      teacher.velocity(z, t, cond).values)
    field = model_field(teacher, cond)
    assert same_bytes(field(z, t), teacher.velocity(z, t, cond).values)


@pytest.mark.parametrize("times", ["scalar", "per-row"])
@pytest.mark.parametrize("w", [0.0, 2.5, 7.5])
def test_cfg_velocity_is_byte_equal_to_taped_mix(times, w):
    teacher = make_teacher(seed=4, hidden=(16, 16))
    z, t, cond = value_path_inputs(times, True, np.float32)
    taped = teacher.velocity(z, t, cond) * w + teacher.velocity(z, t, None) * (1.0 - w)
    assert same_bytes(cfg_velocity(teacher, z, t, cond, w), taped.values)


# ---- flow identity diagnostic ----------------------------------------------

def test_flow_identity_residual_analytic_field():
    # v(z, t) = a*t with known average u(z, r, t) = a*(t+r)/2;
    # identity: u = v - (t-r) * du/dt, du/dt taken by central differences
    a = 1.7
    rng = np.random.default_rng(4)
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        r = rng.random()
        t = r + (1.0 - r) * rng.random()
        u = a * (t + r) / 2.0
        v = a * t
        du_dt = (a * (t + h + r) / 2.0 - a * (t - h + r) / 2.0) / (2.0 * h)
        residual = abs(u - (v - (t - r) * du_dt))
        worst = max(worst, residual)
    assert worst <= 1e-4


# ---- teacher training -----------------------------------------------------

def test_teacher_default_condition_dropout():
    assert TeacherTrainConfig().condition_dropout == 0.2


def test_zero_iterations_returns_initialization():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(32, 2)).astype(np.float32)
    cond = rng.normal(size=(32, 1)).astype(np.float32)
    config = TeacherTrainConfig(iterations=0, hidden_sizes=(8,), seed=5)
    model, records = train_teacher(x, cond, config)
    fresh = TeacherModel(2, 1, hidden_sizes=(8,), time_embed_dim=16,
                         rng=np.random.Generator(np.random.Philox(key=6)))
    for a, b in zip(model.parameters(), fresh.parameters()):
        assert np.array_equal(a.values, b.values)
    assert records == []


def test_teacher_training_deterministic():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(64, 2)).astype(np.float32)
    cond = rng.normal(size=(64, 1)).astype(np.float32)
    config = TeacherTrainConfig(iterations=30, batch_size=16, hidden_sizes=(8,), seed=3)
    m1, r1 = train_teacher(x, cond, config)
    m2, r2 = train_teacher(x, cond, config)
    assert r1 == r2
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.values, b.values)


def test_teacher_divergence_names_stage_and_iteration():
    x = np.full((16, 2), np.nan, dtype=np.float32)
    cond = np.zeros((16, 1), dtype=np.float32)
    config = TeacherTrainConfig(iterations=3, batch_size=4, hidden_sizes=(8,))
    with pytest.raises(FloatingPointError, match=r"^teacher iteration 0: non-finite"):
        train_teacher(x, cond, config)


def test_teacher_learns_point_mass():
    # closed-form optimum for point-mass data: v = eps - x0 along every path
    x0 = np.array([0.4, -0.8], dtype=np.float32)
    x = np.tile(x0, (256, 1))
    cond = np.zeros((256, 1), dtype=np.float32)
    config = TeacherTrainConfig(iterations=3000, batch_size=64, learning_rate=2e-3,
                                hidden_sizes=(64, 64), condition_dropout=0.0, seed=0)
    model, _ = train_teacher(x, cond, config)
    eps = np.random.default_rng(12).normal(size=(64, 2)).astype(np.float32)
    z, _ = ode_sample(model_field(model, np.zeros((64, 1), dtype=np.float32)),
                      eps, SamplerConfig(num_steps=100))
    err = np.linalg.norm(z - x0, axis=1).mean()
    assert err <= 0.05


# ---- the time embedding of a scalar time, pinned to the per-row form --------------

@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
def test_embed_matches_the_per_row_form_byte_for_byte(dim):
    def reference(z, t):
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (z.shape[0],))
        return time_embedding(t, dim, dtype=z.dtype)

    model = TeacherModel(2, 1, hidden_sizes=(4,), time_embed_dim=dim, rng=make_rng(0))
    rng = make_rng(dim)
    for rows in (1, 2, 255, 256, 2048):
        for dtype in (np.float32, np.float64):
            z = np.zeros((rows, 2), dtype=dtype)
            for t in (0.0, 1.0, rng.random(), np.float64(rng.random()), rng.random(rows)):
                got, want = model._embed(z, t), reference(z, t)
                assert got.dtype == want.dtype == dtype
                assert got.shape == (rows, dim) and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()
