import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import (Interval, Stage1Config, StudentModel, TeacherModel,
                       Tensor, boundary_loss, isc_loss, isc_residual,
                       isc_residual_scan, make_rng, multi_step_sample,
                       one_step_sample, stage1_train_step, train_student)
from splitflow.distill import backward_integrate, sample_interval
from splitflow.nn import AdamW


def make_pair(seed=0, state_dim=2, cond_dim=1, hidden=(8, 8)):
    teacher = TeacherModel(state_dim, cond_dim, hidden_sizes=hidden,
                           time_embed_dim=8, rng=np.random.default_rng(seed))
    return teacher, StudentModel.from_teacher(teacher)


class AnalyticField:
    """Wraps u(z, r, t) as a student-like object for the loss functions."""

    def __init__(self, fn):
        self.fn = fn

    def average_velocity(self, z, r, t, cond=None):
        z = np.asarray(z.values if isinstance(z, Tensor) else z)
        return Tensor(np.asarray(self.fn(z, r, t), dtype=np.float64))

    def __call__(self, z, r, t):
        return np.asarray(self.fn(z, r, t), dtype=np.float64)


# ---- Interval --------------------------------------------------------------

def test_interval_rejects_bad_ordering():
    with pytest.raises(ValueError, match="ordering"):
        Interval(r=0.5, s=0.2, t=0.8, lam=0.5)


def test_interval_rejects_inconsistent_lambda():
    with pytest.raises(ValueError, match="inconsistent"):
        Interval(r=0.0, s=0.5, t=1.0, lam=0.9)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sampled_interval_invariants(seed):
    itv = sample_interval(make_rng(seed))
    assert 0.0 <= itv.r <= itv.s <= itv.t <= 1.0
    assert abs(itv.s - ((1.0 - itv.lam) * itv.t + itv.lam * itv.r)) <= 1e-9
    if itv.t > itv.r:
        assert abs(itv.lam - (itv.t - itv.s) / (itv.t - itv.r)) <= 1e-7


def test_interval_ordering_10k_draws():
    rng = make_rng(123)
    for _ in range(10_000):
        itv = sample_interval(rng)
        assert 0.0 <= itv.r <= itv.s <= itv.t <= 1.0


def test_lambda_degenerate_values():
    assert Interval(r=0.2, s=0.9, t=0.9, lam=0.0).s == 0.9       # lam=0 -> s=t
    assert Interval(r=0.2, s=0.2, t=0.9, lam=1.0).s == 0.2       # lam=1 -> s=r


def test_lambda_uniform_mean():
    rng = make_rng(77)
    lams = [sample_interval(rng).lam for _ in range(10_000)]
    assert 0.49 <= np.mean(lams) <= 0.51


# ---- backward integration ----------------------------------------------------

def test_backward_integrate_zero_width():
    z = np.array([[1.0, 2.0]])
    field = AnalyticField(lambda z, r, t: np.ones_like(z))
    assert np.array_equal(backward_integrate(z, 0.7, 0.7, field), z)


def test_backward_integrate_zero_field():
    z = np.array([[1.0, 2.0]])
    field = AnalyticField(lambda z, r, t: np.zeros_like(z))
    assert np.array_equal(backward_integrate(z, 0.2, 0.9, field), z)


def test_backward_integrate_direct_case():
    field = AnalyticField(lambda z, r, t: np.full_like(z, 2.0))
    out = backward_integrate(np.array([[1.0]]), 0.5, 1.0, field)
    assert np.allclose(out, 0.0)


def test_backward_integrate_rejects_reversed_interval():
    field = AnalyticField(lambda z, r, t: np.zeros_like(z))
    with pytest.raises(ValueError, match="s <= t"):
        backward_integrate(np.zeros((1, 1)), 0.9, 0.2, field)


# ---- splitting-consistency loss -----------------------------------------------

def test_isc_loss_zero_for_constant_field():
    field = AnalyticField(lambda z, r, t: np.full_like(z, 1.3))
    rng = make_rng(0)
    for _ in range(20):
        itv = sample_interval(rng)
        z_t = rng.standard_normal((4, 2))
        assert float(isc_loss(field, z_t, itv, None).values) <= 1e-12


def test_isc_loss_zero_for_degenerate_split():
    # s = t (lam = 0): z_s = z_t and the target collapses to the detached
    # long-interval prediction
    teacher, student = make_pair()
    itv = Interval(r=0.2, s=0.9, t=0.9, lam=0.0)
    z_t = np.random.default_rng(1).normal(size=(4, 2)).astype(np.float32)
    cond = np.zeros((4, 1), dtype=np.float32)
    assert float(isc_loss(student, z_t, itv, cond).values) <= 1e-12


def test_isc_loss_exact_average_field():
    # u(z, r, t) = t + r is the exact average of v = 2*tau:
    # (t-r)(t+r) = (s-r)(s+r) + (t-s)(t+s)
    field = AnalyticField(lambda z, r, t: np.full_like(z, t + r))
    rng = make_rng(5)
    worst = 0.0
    for _ in range(1000):
        itv = sample_interval(rng)
        z_t = rng.standard_normal((1, 2))
        worst = max(worst, float(isc_loss(field, z_t, itv, None).values))
    assert worst <= 1e-10


def test_isc_gradient_flows_only_through_long_interval():
    # perturbing only the detached target computation must not change grads
    teacher, student = make_pair(seed=4)
    rng = make_rng(9)
    itv = Interval(r=0.1, s=0.4, t=0.8, lam=0.5714285714285715)
    z_t = rng.standard_normal((4, 2)).astype(np.float32)
    cond = np.zeros((4, 1), dtype=np.float32)

    loss = isc_loss(student, z_t, itv, cond)
    loss.backward()
    grads = [p.grad.copy() if p.grad is not None else None
             for p in student.parameters()]

    # recompute with the target replaced by the same values built by hand:
    # gradient must be identical because the target carries no tape linkage
    from splitflow.distill import _eval_field
    u2 = _eval_field(student, z_t, itv.s, itv.t, cond)
    z_s = z_t - (itv.t - itv.s) * u2
    u1 = _eval_field(student, z_s, itv.r, itv.s, cond)
    target = (1.0 - itv.lam) * u1 + itv.lam * u2
    for p in student.parameters():
        p.grad = None
    pred = student.average_velocity(Tensor(z_t), itv.r, itv.t, cond)
    (pred - Tensor(target.astype(np.float32))).square().mean().backward()
    for p, g in zip(student.parameters(), grads):
        if g is None:
            assert p.grad is None or not p.grad.any()
        else:
            assert np.allclose(p.grad, g, atol=1e-7)


# ---- boundary loss ------------------------------------------------------------

def test_boundary_loss_zero_at_teacher_initialization():
    teacher, student = make_pair(seed=2)
    rng = make_rng(3)
    z_t = rng.standard_normal((8, 2)).astype(np.float32)
    cond = rng.standard_normal((8, 1)).astype(np.float32)
    for t in (0.0, 0.3, 1.0):
        assert float(boundary_loss(student, teacher, z_t, t, cond).values) <= 1e-12


def test_boundary_loss_cfg_sweep_runnable():
    teacher, student = make_pair(seed=2)
    z_t = np.random.default_rng(0).normal(size=(4, 2)).astype(np.float32)
    cond = np.random.default_rng(1).normal(size=(4, 1)).astype(np.float32)
    values = [float(boundary_loss(student, teacher, z_t, 0.5, cond, w=w).values)
              for w in (None, 4.5, 7.5)]
    assert all(np.isfinite(values))
    # guided targets differ from the plain conditional one
    assert values[1] != values[0]


def test_stage1_default_config():
    config = Stage1Config()
    assert config.branch_probability == 0.6
    assert config.guidance_scale is None


# ---- stage-1 training step ------------------------------------------------------

def _run_steps(p, seed, n_steps=50):
    teacher, student = make_pair(seed=1)
    config = Stage1Config(branch_probability=p, iterations=n_steps,
                          batch_size=8, learning_rate=1e-3, seed=seed)
    rng = make_rng(seed)
    opt = AdamW(student.named_parameters(), learning_rate=config.learning_rate)
    x = make_rng(2).standard_normal((64, 2)).astype(np.float32)
    cond = make_rng(3).standard_normal((64, 1)).astype(np.float32)
    out = []
    for _ in range(n_steps):
        idx = rng.integers(0, 64, size=8)
        out.append(stage1_train_step(student, teacher, x[idx], cond[idx],
                                     config, rng, opt))
    return out


def test_degenerate_branch_probabilities():
    assert all(branch == "splitting" for _, branch in _run_steps(1.0, seed=4))
    assert all(branch == "boundary" for _, branch in _run_steps(0.0, seed=4))


def test_fixed_seed_reproduces_loss_sequence():
    a = _run_steps(0.6, seed=11)
    b = _run_steps(0.6, seed=11)
    assert a == b


def test_train_student_divergence_names_stage_and_iteration():
    teacher, _ = make_pair(seed=1)
    x = np.full((16, 2), np.nan, dtype=np.float32)
    cond = np.zeros((16, 1), dtype=np.float32)
    config = Stage1Config(iterations=3, batch_size=4)
    with pytest.raises(FloatingPointError,
                       match=r"^distill iteration 0: non-finite loss in \w+ branch"):
        train_student(teacher, x, cond, config)


def test_train_student_self_consistent_at_init():
    # student copied from teacher satisfies the boundary anchor before training
    teacher, student = make_pair(seed=6)
    rng = make_rng(1)
    z = rng.standard_normal((16, 2)).astype(np.float32)
    cond = rng.standard_normal((16, 1)).astype(np.float32)
    t = 0.37
    assert float(boundary_loss(student, teacher, z, t, cond, w=None).values) == 0.0


# ---- sampling ---------------------------------------------------------------

def test_one_step_zero_field_returns_noise():
    field = AnalyticField(lambda z, r, t: np.zeros_like(z))
    eps = np.random.default_rng(0).normal(size=(4, 2))
    assert np.array_equal(one_step_sample(field, eps, None), eps)


def test_one_step_exact_point_mass_field():
    x0 = np.array([0.3, -0.6])
    field = AnalyticField(lambda z, r, t: z - x0)   # u = eps - x0 when z = eps at t=1
    eps = np.random.default_rng(1).normal(size=(16, 2))
    assert np.allclose(one_step_sample(field, eps, None), x0, atol=1e-12)


def test_one_step_equals_two_segment_composition_for_consistent_field():
    # field satisfying the splitting identity exactly: u(z, r, t) = t + r
    field = AnalyticField(lambda z, r, t: np.full_like(z, t + r))
    eps = np.random.default_rng(2).normal(size=(8, 2))
    direct = one_step_sample(field, eps, None)
    s = 0.5
    z_s = backward_integrate(eps, s, 1.0, field)
    composed = z_s - (s - 0.0) * field(z_s, 0.0, s)
    assert np.allclose(direct, composed, atol=1e-6)


def test_multi_step_k1_equals_one_step():
    teacher, student = make_pair(seed=8)
    eps = np.random.default_rng(3).normal(size=(8, 2)).astype(np.float32)
    cond = np.zeros((8, 1), dtype=np.float32)
    assert np.array_equal(multi_step_sample(student, eps, cond, 1),
                          one_step_sample(student, eps, cond))


def test_multi_step_constant_field_k_invariant():
    field = AnalyticField(lambda z, r, t: np.full_like(z, 0.7))
    eps = np.random.default_rng(4).normal(size=(4, 2))
    results = [multi_step_sample(field, eps, None, k) for k in (1, 2, 4, 8)]
    for res in results[1:]:
        assert np.allclose(res, results[0], atol=1e-12)


def test_multi_step_rejects_zero_steps():
    field = AnalyticField(lambda z, r, t: np.zeros_like(z))
    with pytest.raises(ValueError):
        multi_step_sample(field, np.zeros((1, 1)), None, 0)


@pytest.mark.parametrize("times", ["scalar", "per-row"])
@pytest.mark.parametrize("with_cond", [True, False], ids=["cond", "no-cond"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_student_value_path_is_byte_equal_to_taped(times, with_cond, dtype):
    _, student = make_pair(seed=4, hidden=(16, 16))
    rng = make_rng(5)
    student.load_parameters([rng.standard_normal(p.values.shape)
                             for p in student.parameters()])
    n = 33
    z = rng.standard_normal((n, 2)).astype(dtype)
    r, t = (0.2, 0.7) if times == "scalar" else (0.5 * rng.random(n), 0.5 + 0.5 * rng.random(n))
    cond = rng.standard_normal((n, 1)).astype(np.float32) if with_cond else None
    want = student.average_velocity(z, r, t, cond).values
    got = student.average_velocity_values(z, r, t, cond)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if times == "scalar":
        jumped = backward_integrate(z, r, t, student, cond)
        assert jumped.tobytes() == (z - (t - r) * want).tobytes()


# ---- splitting-identity diagnostics ---------------------------------------------

def test_residual_zero_for_constant_field():
    field = lambda z, r, t: np.full_like(np.asarray(z), 2.5)
    assert isc_residual_scan(field, 100, make_rng(0)) <= 1e-12


def test_residual_exact_average_field():
    field = lambda z, r, t: np.full_like(np.asarray(z), t + r)
    assert isc_residual_scan(field, 1000, make_rng(1)) <= 1e-10


def test_residual_detects_wrong_field():
    # u = t^2 violates the identity: at (0, 0.5, 1) the defect is
    # 1 - 0.125 - 0.5 = 0.375
    field = lambda z, r, t: np.full_like(np.asarray(z), t * t)
    probe = isc_residual(field, np.zeros((1, 1)), Interval(0.0, 0.5, 1.0, 0.5))
    assert np.isclose(probe, 0.375)
    rng = make_rng(2)
    assert isc_residual_scan(field, 200, rng) > 0.01


def test_splitting_to_composition_equivalence():
    # for a field with residual <= eps0, |one-step - two-step| <= 2*eps0
    field = AnalyticField(lambda z, r, t: np.full_like(z, t + r))
    eps0 = isc_residual_scan(field, 500, make_rng(3))
    eps = np.random.default_rng(5).normal(size=(8, 2))
    one = one_step_sample(field, eps, None)
    for s in (0.25, 0.5, 0.75):
        z_s = backward_integrate(eps, s, 1.0, field)
        two = z_s - s * field(z_s, 0.0, s)
        assert np.max(np.abs(one - two)) <= 2.0 * eps0 + 1e-9
