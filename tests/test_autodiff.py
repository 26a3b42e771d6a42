import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitflow import (Discriminator, FeatureNet, Interval, Stage1Config,
                       Stage2Config, Stage2Trainer, StudentModel, TeacherModel, Tensor,
                       fm_loss, generate_dataset, grad_check, isc_loss,
                       make_rng, stage1_train_step)
from splitflow import nn
from splitflow.autodiff import backward_multi, concat, sigmoid_values
from splitflow.nn import AdamW


def test_chain_rule_square():
    x = Tensor(np.array([1.0], dtype=np.float32))
    y = (x * 2.0).square()
    y.backward()
    assert np.allclose(x.grad, [8.0])


def test_sum_grad_all_ones():
    v = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    v.sum().backward()
    assert np.array_equal(v.grad, np.ones((2, 3), dtype=np.float32))


def test_non_scalar_backward_rejected():
    v = Tensor(np.ones(3, dtype=np.float32))
    with pytest.raises(ValueError, match="scalar"):
        (v * 2.0).backward()


def test_unreachable_tensor_grad_is_zero():
    x = Tensor(np.ones(2, dtype=np.float32))
    y = Tensor(np.ones(2, dtype=np.float32))
    loss = (x * 3.0).sum()
    loss.backward()
    assert y.grad is None or not y.grad.any()


def test_x_times_detached_x():
    # a Tensor of x's values is a constant with no tape link to x
    x = Tensor(np.array([3.0], dtype=np.float32))
    (x * Tensor(x.values)).sum().backward()
    assert np.allclose(x.grad, [3.0])


def test_tape_single_use():
    x = Tensor(np.array([1.0], dtype=np.float32))
    y = x.square()
    y.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        y.backward()


def test_backward_linearity():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(5,)).astype(np.float32)
    a, b = 2.5, -1.25

    def grad_of(scale1, scale2):
        x = Tensor(values.copy())
        loss = x.square().sum() * scale1 + x.silu().sum() * scale2
        loss.backward()
        return x.grad.copy()

    combined = grad_of(a, b)
    expected = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    assert np.allclose(combined, expected, atol=1e-6)


def test_backward_multi_matches_combined_scalar():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(4,)).astype(np.float32)

    x = Tensor(values.copy())
    shared = x.square()
    l1 = shared.sum()
    l2 = (shared * 3.0).sum()
    backward_multi([(l1, np.ones(())), (l2, np.ones(()))])
    got = x.grad.copy()

    y = Tensor(values.copy())
    s = y.square()
    (s.sum() + (s * 3.0).sum()).backward()
    assert np.allclose(got, y.grad, atol=1e-6)


def test_shared_gradient_takes_later_contributions_out_of_place():
    # a and b both store y's gradient as their first contribution, one array;
    # each then gets a second contribution that must not reach the other
    a = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float32))
    b = Tensor(np.array([0.25, 3.0, -1.0], dtype=np.float32))
    w = np.array([2.0, -1.0, 4.0], dtype=np.float32)
    y = a + b
    loss = (y * w).sum() + (a * a).sum() + (b * 3.0).sum()
    loss.backward()
    assert np.array_equal(y.grad, w)
    assert np.array_equal(a.grad, w + 2.0 * a.values)    # [4, -5, 5]
    assert np.array_equal(b.grad, w + 3.0)               # [5, 2, 7]


def test_isc_loss_gradients_are_contiguous_arrays_of_their_dtype():
    # the concat into the fused embedding hands its inputs column views
    student = StudentModel(2, 1, hidden_sizes=(8, 8), time_embed_dim=8, rng=make_rng(0))
    z_t = make_rng(1).standard_normal((4, 2)).astype(np.float32)
    cond = np.ones((4, 1), dtype=np.float32)
    loss = isc_loss(student, z_t, Interval(r=0.1, s=0.4, t=0.8, lam=0.5714285714285715), cond)
    tape, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in tape:
            tape[id(node)] = node
            stack.extend(node._parents)
    loss.backward()
    params = student.parameters()
    assert all(any(p is node for node in tape.values()) for p in params)
    for node in tape.values():
        assert node.grad.flags.c_contiguous and node.grad.dtype == node.values.dtype


def test_grad_check_square():
    x = Tensor(np.array([3.0], dtype=np.float32))
    assert grad_check(lambda ps: ps[0].square().sum(), [x]) < 1e-6


def test_grad_check_linear_is_exact():
    x = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float32))
    assert grad_check(lambda ps: (ps[0] * 4.0).sum(), [x]) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
    w = Tensor(rng.normal(size=(2, 2)).astype(np.float32))

    def f(params):
        xx, ww = params
        h = (xx @ ww).silu()
        return (h.sigmoid() + h.square()).mean()

    assert grad_check(f, [x, w]) < 1e-3


def test_finite_difference_property_many_ops():
    # randomized 100-trial sweep over the differentiable op set
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        x = Tensor(rng.normal(size=(4,)).astype(np.float32))

        def f(params):
            p = params[0]
            a = p.silu().sum()
            b = p.sigmoid().mean()
            c = (p * p).sum()
            d = concat([p.reshape(2, 2), p.reshape(2, 2) * 2.0], axis=1).mean()
            return a + b + c + d

        worst = max(worst, grad_check(f, [x]))
    assert worst < 1e-3


def test_matmul_and_broadcast_bias_grads():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
    w = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
    b = Tensor(rng.normal(size=(2,)).astype(np.float32))
    assert grad_check(lambda ps: ((ps[0] @ ps[1] + ps[2]).square()).mean(), [x, w, b]) < 1e-3


def test_relu_grad_away_from_kink():
    x = Tensor(np.array([2.0, -3.0], dtype=np.float32))
    x.relu().sum().backward()
    assert np.array_equal(x.grad, [1.0, 0.0])


def test_mean_over_axes():
    x = Tensor(np.arange(16, dtype=np.float32).reshape(2, 2, 2, 2))
    m = x.mean(axis=(1, 3))
    assert m.shape == (2, 2)
    m.sum().backward()
    assert np.allclose(x.grad, 0.25)


# ---- the in-place sigmoid, pinned to the form it replaced ------------------------

def reference_sigmoid_values(v):
    e = np.exp(-np.abs(v))
    return np.maximum(e, v >= 0) / (1.0 + e)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_values_matches_reference_byte_for_byte(dtype):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]
    magnitudes = np.logspace(-8, 2, 301)
    rng = make_rng(11)
    inputs = [
        np.array(special + list(magnitudes) + list(-magnitudes), dtype=dtype),
        (rng.standard_normal((128, 256)) * 8.0).astype(dtype),
        (rng.standard_normal((16, 128)) * 30.0).astype(dtype),
        rng.standard_normal(33).astype(dtype),    # a length off the SIMD width
        np.asarray(rng.standard_normal((7, 5)).astype(dtype).T),    # not C-contiguous
        np.array(-3.5, dtype=dtype),
    ]
    for v in inputs:
        before = v.copy()
        got, want = sigmoid_values(v), reference_sigmoid_values(v)
        assert np.asarray(got).dtype == np.asarray(want).dtype == dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert v.tobytes() == before.tobytes()    # the input is left alone


# ---- pruned sweeps: only the gradients an optimizer reads --------------------------

def _teacher_step():
    teacher = TeacherModel(2, 1, hidden_sizes=(16, 16), time_embed_dim=8, rng=make_rng(1))
    rng = make_rng(2)
    x = rng.standard_normal((32, 2)).astype(np.float32)
    cond = rng.standard_normal((32, 1)).astype(np.float32)
    opt = AdamW(teacher.named_parameters(), learning_rate=1e-3, weight_decay=1e-2)
    nn.descend(opt, fm_loss(teacher, x, rng.standard_normal((32, 2)).astype(np.float32),
                            rng.random(32), cond), "loss")
    return [teacher]


def _stage1_step(branch_probability, guidance_scale):
    teacher = TeacherModel(2, 1, hidden_sizes=(16, 16), time_embed_dim=8, rng=make_rng(3))
    student = StudentModel.from_teacher(teacher)
    student.proj_r.values[:] = make_rng(4).standard_normal((8, 8)) * 0.1
    rng = make_rng(5)
    x = rng.standard_normal((32, 2)).astype(np.float32)
    cond = rng.standard_normal((32, 1)).astype(np.float32)
    config = Stage1Config(branch_probability=branch_probability,
                          guidance_scale=guidance_scale)
    opt = AdamW(student.named_parameters(), learning_rate=1e-3)
    stage1_train_step(student, teacher, x, cond, config, rng, opt)
    return [teacher, student]


def _refine_step(dataset):
    pool = dataset == "tiny-patches"
    data = generate_dataset(dataset, 16, seed=6)
    x, cond = data.flat_x(), data.cond_array()
    teacher = TeacherModel(x.shape[1], cond.shape[1], hidden_sizes=(16, 16),
                           time_embed_dim=8, rng=make_rng(7))
    student = StudentModel.from_teacher(teacher)
    regularizer = teacher.copy()
    disc = Discriminator(x.shape[1], hidden=8, rng=make_rng(8),
                         pool_from=16 if pool else None)
    trainer = Stage2Trainer(student, teacher, regularizer, disc,
                            Stage2Config(batch_size=8), feature_net=FeatureNet(x.shape[1]))
    trainer.step(x[:8], cond[:8], make_rng(9))
    return [teacher, student, regularizer, disc]


@pytest.mark.parametrize("step", [
    _teacher_step,
    lambda: _stage1_step(1.0, None),
    lambda: _stage1_step(0.0, None),
    lambda: _stage1_step(0.0, 2.5),
    lambda: _refine_step("two-moons-conditional"),
    lambda: _refine_step("tiny-patches"),
], ids=["teacher", "stage1-splitting", "stage1-boundary", "stage1-guided",
        "refine-moons", "refine-patches"])
def test_pruned_sweep_leaves_every_parameter_as_a_full_sweep_does(monkeypatch, step):
    def state(models):
        return [(name, None if p.grad is None else (p.grad.dtype, p.grad.tobytes()),
                 p.values.tobytes())
                for model in models for name, p in model.named_parameters()]

    pruned = state(step())
    monkeypatch.setattr(nn, "backward_multi",
                        lambda seeds, wanted=None: backward_multi(seeds))
    full = state(step())
    assert pruned == full
    assert any(grad is not None for _, grad, _ in pruned)


def test_pruned_sweep_skips_what_leads_to_no_wanted_leaf():
    w = Tensor(np.array([[2.0, -1.0]], dtype=np.float32))
    frozen = Tensor(w.values)
    x = Tensor(np.array([[1.0], [3.0]], dtype=np.float32))
    h, g = x @ w, x @ frozen
    both = concat([h, g], axis=-1)
    loss = (both * both).sum() + (x * h).sum()
    backward_multi([(loss, np.ones_like(loss.values))], wanted=[w])
    assert np.array_equal(w.grad, [[50.0, -10.0]])    # x.T @ (2h + x)
    assert x.grad is None and frozen.grad is None and g.grad is None
