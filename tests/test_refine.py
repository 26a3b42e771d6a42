import numpy as np
import pytest

from splitflow import (Discriminator, FeatureNet, LossWeights, Mlp,
                       Stage2Config, Stage2Trainer, StudentModel, TeacherModel,
                       Tensor, gan_discriminator_loss, gan_generator_loss,
                       make_rng, reconstruction_loss, regularizer_loss,
                       vsd_gradient)
from splitflow.autodiff import backward_multi
from splitflow.refine import WeightSchedule


class ConstantScorer:
    """disc stand-in returning a fixed per-sample score."""

    def __init__(self, value):
        self.value = value

    def score(self, x):
        n = x.values.shape[0]
        ones = Tensor(np.ones((n, 1), dtype=np.float32))
        return (x.sum() * 0.0) + ones * self.value


class ConstantField:
    """velocity-model stand-in returning a fixed array."""

    def __init__(self, value):
        self.value = value

    def velocity(self, z, t, cond):
        z = np.asarray(z.values if isinstance(z, Tensor) else z)
        return Tensor(np.full_like(z, self.value, dtype=np.float32))

    def velocity_values(self, z, t, cond):
        return self.velocity(z, t, cond).values


def make_models(seed=0, state_dim=2, cond_dim=1):
    teacher = TeacherModel(state_dim, cond_dim, hidden_sizes=(8, 8),
                           time_embed_dim=8, rng=np.random.default_rng(seed))
    student = StudentModel.from_teacher(teacher)
    regularizer = teacher.copy()
    disc = Discriminator(state_dim, hidden=8, rng=np.random.default_rng(seed + 1))
    return teacher, student, regularizer, disc


# ---- weight configuration -----------------------------------------------------

def test_default_loss_weights():
    w = LossWeights()
    assert (w.lambda1, w.lambda2, w.lambda3, w.lambda4) == (1.0, 1.0, 1.0, 0.5)


def test_loss_weights_reject_negative():
    with pytest.raises(ValueError, match="lambda3"):
        LossWeights(lambda3=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_loss_weights_reject_non_finite(value):
    with pytest.raises(ValueError, match="lambda1 must be finite"):
        LossWeights(lambda1=value)


def test_weight_schedule_constant():
    s = WeightSchedule("constant-1")
    assert all(s(t) == 1.0 for t in (0.0, 0.37, 1.0))


def test_weight_schedule_validation():
    with pytest.raises(ValueError, match="unknown"):
        WeightSchedule("cosine")


# ---- score-distillation gradient -----------------------------------------------

def test_vsd_gradient_exact_zero_at_fixed_point():
    # regularizer is a bit-identical teacher copy, so the score difference
    # vanishes exactly, whatever t and noise are drawn
    teacher, _, regularizer, _ = make_models(seed=3)
    rng = make_rng(0)
    cond = np.zeros((4, 1), dtype=np.float32)
    schedule = WeightSchedule("constant-1")
    for _ in range(100):
        z_hat = rng.standard_normal((4, 2)).astype(np.float32)
        grad, t = vsd_gradient(z_hat, teacher, regularizer, cond, schedule, rng)
        assert np.all(grad == 0.0)
        assert 0.02 <= t <= 0.98


def test_vsd_gradient_zero_weight_schedule():
    teacher = ConstantField(1.0)
    regularizer = ConstantField(0.0)
    grad, _ = vsd_gradient(np.zeros((2, 2)), teacher, regularizer, None,
                           lambda t: 0.0, make_rng(1))
    assert np.all(grad == 0.0)


def replay_draws(seed, shape, t_bounds=(0.0, 1.0)):
    """The t and eps a refine loss draws from make_rng(seed): t, then eps."""
    rng = make_rng(seed)
    lo, hi = t_bounds
    t = lo + (hi - lo) * rng.random()
    return t, rng.standard_normal(shape).astype(np.float32)


def test_vsd_gradient_hand_value():
    # w(t)=1, v_teacher=1, v_reg=0 -> grad = (1-t)*1*(1-0) at the drawn t
    grad, t = vsd_gradient(np.zeros((3, 2)), ConstantField(1.0),
                           ConstantField(0.0), None, WeightSchedule("constant-1"),
                           make_rng(2))
    drawn, _ = replay_draws(2, (3, 2), t_bounds=(0.02, 0.98))
    assert t == drawn
    assert np.array_equal(grad, np.full((3, 2), 1.0 - t, dtype=np.float32))


def test_vsd_gradient_scales_with_schedule():
    args = (np.ones((2, 2)), ConstantField(2.0), ConstantField(-1.0), None)
    g1, t1 = vsd_gradient(*args, WeightSchedule("constant-1"), make_rng(3))
    g3, t3 = vsd_gradient(*args, lambda t: 3.0, make_rng(3))
    assert t1 == t3
    assert np.allclose(g3, 3.0 * g1)


# ---- regularizer objective ----------------------------------------------------

def test_regularizer_loss_zero_when_prediction_exact():
    z_hat = np.full((4, 2), 0.5, dtype=np.float32)
    _, eps = replay_draws(0, z_hat.shape)

    class Exact:
        def velocity(self, z, t, cond):
            return Tensor(eps - z_hat)

    value = regularizer_loss(Exact(), z_hat, None, make_rng(0))
    assert float(value.values) == 0.0


def test_regularizer_loss_hand_value():
    # prediction 0 against target eps - z_hat = eps -> mean(eps**2)
    z_hat = np.zeros((4, 2), dtype=np.float32)
    _, eps = replay_draws(0, z_hat.shape)
    value = regularizer_loss(ConstantField(0.0), z_hat, None, make_rng(0))
    assert float(value.values) == pytest.approx(float(np.mean(eps ** 2)), rel=1e-6)


def test_regularizer_loss_routes_gradient_to_regularizer_only():
    teacher, student, regularizer, _ = make_models(seed=5)
    z_hat = make_rng(1).standard_normal((4, 2)).astype(np.float32)
    cond = np.zeros((4, 1), dtype=np.float32)
    loss = regularizer_loss(regularizer, z_hat, cond, make_rng(2))
    loss.backward()
    assert any(p.grad is not None and np.abs(p.grad).sum() > 0
               for p in regularizer.parameters())
    assert all(p.grad is None for p in teacher.parameters())
    assert all(p.grad is None for p in student.parameters())


# ---- adversarial losses --------------------------------------------------------

def test_generator_loss_is_negative_mean_score():
    fake = Tensor(np.zeros((5, 2), dtype=np.float32))
    assert float(gan_generator_loss(ConstantScorer(2.0), fake).values) == -2.0
    assert float(gan_generator_loss(ConstantScorer(-0.5), fake).values) == 0.5


def test_discriminator_hinge_arithmetic():
    real = np.zeros((4, 2), dtype=np.float32)
    fake = np.zeros((4, 2), dtype=np.float32)
    # D=2 on both: real term max(0, 1-2)=0, fake term max(0, 1+2)=3
    assert float(gan_discriminator_loss(ConstantScorer(2.0), real, fake).values) == 3.0
    # D=-3: real term 4, fake term 0
    assert float(gan_discriminator_loss(ConstantScorer(-3.0), real, fake).values) == 4.0
    # D=0.5: 0.5 + 1.5
    assert float(gan_discriminator_loss(ConstantScorer(0.5), real, fake).values) == 2.0


def test_discriminator_loss_nonnegative_property():
    teacher, _, _, disc = make_models(seed=9)
    rng = make_rng(4)
    for _ in range(50):
        real = rng.standard_normal((8, 2)).astype(np.float32)
        fake = rng.standard_normal((8, 2)).astype(np.float32)
        assert float(gan_discriminator_loss(disc, real, fake).values) >= 0.0


def test_generator_update_leaves_discriminator_grads_empty():
    # the generator's sweep wants only what leads to the generated batch
    _, _, _, disc = make_models(seed=2)
    fake = Tensor(make_rng(0).standard_normal((8, 2)).astype(np.float32))
    loss = gan_generator_loss(disc, fake)
    backward_multi([(loss, np.ones_like(loss.values))], wanted=[fake])
    assert all(p.grad is None for p in disc.parameters())
    assert fake.grad is not None and np.abs(fake.grad).sum() > 0


def test_discriminator_update_leaves_fake_batch_grads_empty():
    _, _, _, disc = make_models(seed=2)
    fake = Tensor(make_rng(1).standard_normal((8, 2)).astype(np.float32))
    real = make_rng(2).standard_normal((8, 2)).astype(np.float32)
    # the loss takes the fake batch's values, so a full sweep cannot reach it
    gan_discriminator_loss(disc, real, fake.values).backward()
    assert fake.grad is None
    assert any(p.grad is not None and np.abs(p.grad).sum() > 0
               for p in disc.parameters())


def test_patch_discriminator_pools_blocks():
    disc = Discriminator(256, hidden=8, rng=np.random.default_rng(0),
                         pool_from=16, pool_to=4)
    # constant patch pools to a constant; score must equal the score of the
    # already-pooled constant input fed through the same trunk
    patch = np.full((3, 256), 0.7, dtype=np.float32)
    direct = disc.score(Tensor(patch)).values
    pooled = disc.net.forward(Tensor(np.full((3, 16), 0.7, dtype=np.float32))).values
    assert np.allclose(direct, pooled, atol=1e-6)


def test_patch_discriminator_rejects_indivisible_pooling():
    with pytest.raises(ValueError, match="divide"):
        Discriminator(256, pool_from=16, pool_to=5)


# ---- reconstruction -------------------------------------------------------------

def test_reconstruction_zero_when_identical():
    x = make_rng(0).standard_normal((4, 8)).astype(np.float32)
    assert float(reconstruction_loss(Tensor(x.copy()), x, FeatureNet(8)).values) == 0.0


def test_reconstruction_pixel_term_is_mean_square():
    x_hat = Tensor(np.array([[1.0, 3.0]], dtype=np.float32))
    x = np.array([[0.0, 1.0]], dtype=np.float32)
    # (1 + 4) / 2, under a feature map that sends everything to zero: an Mlp
    # built without an rng has zero weights and biases
    assert float(reconstruction_loss(x_hat, x, Mlp([2, 2])).values) == 2.5


def test_reconstruction_with_linear_feature_map():
    # for a linear map F the loss is mean(delta^2) + mean((delta F)^2)
    rng = make_rng(3)
    F = rng.standard_normal((4, 6)).astype(np.float32)
    linear_net = Mlp([4, 6])    # one linear layer, zero bias
    linear_net.weights[0].values = F
    x_hat = rng.standard_normal((5, 4)).astype(np.float32)
    x = rng.standard_normal((5, 4)).astype(np.float32)
    got = float(reconstruction_loss(Tensor(x_hat), x, linear_net).values)
    delta = x_hat - x
    want = np.mean(delta ** 2) + np.mean((delta @ F) ** 2)
    assert np.isclose(got, want, rtol=1e-5)


def test_reconstruction_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        reconstruction_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)), FeatureNet(3))


def test_feature_net_is_deterministic_and_frozen():
    a = FeatureNet(8)
    b = FeatureNet(8)
    x = make_rng(5).standard_normal((3, 8)).astype(np.float32)
    assert np.array_equal(a.apply(x), b.apply(x))
    # frozen: a sweep that wants what leads to the input leaves its parameters alone
    x_in = Tensor(x)
    loss = a.forward(x_in).mean()
    backward_multi([(loss, np.ones_like(loss.values))], wanted=[x_in])
    assert x_in.grad is not None
    assert all(p.grad is None for p in a.parameters())


# ---- full refinement step ---------------------------------------------------------

class GradCapture:
    """Optimizer stand-in that records gradients instead of updating."""

    def __init__(self, named_params, probe=None):
        self.params = [p for _, p in named_params]
        self.captured = None
        self.probe = probe

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.captured = [None if p.grad is None else p.grad.copy()
                         for p in self.params]
        if self.probe is not None:
            self.probe()


def run_capture_step(weights, seed=7, probe=None):
    """The student gradients of one trainer step, read by a GradCapture in place
    of the student's optimizer; `probe(trainer)` runs when it steps."""
    teacher, student, regularizer, disc = make_models(seed=1)
    config = Stage2Config(weights=weights, batch_size=8)
    rng = make_rng(seed)
    x = make_rng(10).standard_normal((8, 2)).astype(np.float32)
    cond = make_rng(11).standard_normal((8, 1)).astype(np.float32)
    trainer = Stage2Trainer(student, teacher, regularizer, disc, config,
                            feature_net=FeatureNet(2))
    trainer.opt_student = cap = GradCapture(
        student.named_parameters(),
        probe=None if probe is None else lambda: probe(trainer))
    trainer.step(x, cond, rng)
    return cap.captured


def test_stage2_doubling_weights_doubles_student_gradient():
    w1 = LossWeights(1.0, 1.0, 1.0, 0.5)
    w2 = LossWeights(2.0, 2.0, 2.0, 1.0)
    g1 = run_capture_step(w1)
    g2 = run_capture_step(w2)
    for a, b in zip(g1, g2):
        if a is None:
            assert b is None or not np.abs(b).any()
            continue
        assert np.allclose(b, 2.0 * a, atol=1e-5)


def test_stage2_teacher_and_disc_grads_untouched_during_student_substep():
    # read at the student's update: the discriminator's own sub-step comes later
    seen = {}

    def probe(trainer):
        for name in ("teacher", "regularizer", "disc", "feature_net"):
            seen[name] = [p.grad for p in getattr(trainer, name).parameters()]

    captured = run_capture_step(LossWeights(), probe=probe)
    assert any(g is not None and np.abs(g).sum() > 0 for g in captured)
    # the student's `descend` sweeps only toward the student's parameters,
    # though the discriminator and the feature network are on its tape
    for name, grads in seen.items():
        assert all(g is None for g in grads), name


def test_stage2_zero_weights_leave_student_unchanged():
    teacher, student, regularizer, disc = make_models(seed=4)
    before = [p.values.copy() for p in student.parameters()]
    config = Stage2Config(weights=LossWeights(0.0, 0.0, 0.0, 0.0), batch_size=4)
    trainer = Stage2Trainer(student, teacher, regularizer, disc, config,
                            feature_net=FeatureNet(2))
    rng = make_rng(0)
    x = make_rng(1).standard_normal((4, 2)).astype(np.float32)
    cond = np.zeros((4, 1), dtype=np.float32)
    for _ in range(3):
        trainer.step(x, cond, rng)
    for p, b in zip(student.parameters(), before):
        assert np.array_equal(p.values, b)


def test_stage2_breakdown_fields_and_determinism():
    def run():
        teacher, student, regularizer, disc = make_models(seed=6)
        config = Stage2Config(batch_size=8, learning_rate=1e-3)
        trainer = Stage2Trainer(student, teacher, regularizer, disc, config,
                                feature_net=FeatureNet(2))
        rng = make_rng(42)
        x = make_rng(2).standard_normal((8, 2)).astype(np.float32)
        cond = make_rng(3).standard_normal((8, 1)).astype(np.float32)
        records = [trainer.step(x, cond, rng) for _ in range(5)]
        return records, [p.values.copy() for p in student.parameters()]

    rec_a, params_a = run()
    rec_b, params_b = run()
    assert rec_a == rec_b
    for a, b in zip(params_a, params_b):
        assert np.array_equal(a, b)
    assert set(rec_a[0]) == {"isc", "rec", "adv_g", "vsd_grad_norm",
                             "reg_diff", "adv_d"}


def test_stage2_updates_all_three_networks():
    teacher, student, regularizer, disc = make_models(seed=8)
    snaps = [[p.values.copy() for p in net.parameters()]
             for net in (student, regularizer, disc)]
    config = Stage2Config(batch_size=8, learning_rate=1e-3)
    trainer = Stage2Trainer(student, teacher, regularizer, disc, config,
                            feature_net=FeatureNet(2))
    rng = make_rng(1)
    x = make_rng(4).standard_normal((8, 2)).astype(np.float32)
    cond = make_rng(5).standard_normal((8, 1)).astype(np.float32)
    trainer.step(x, cond, rng)
    for net, before in zip((student, regularizer, disc), snaps):
        assert any(not np.array_equal(p.values, b)
                   for p, b in zip(net.parameters(), before))


def test_stage2_train_is_a_loop_keyed_by_config_seed():
    def make_trainer():
        teacher, student, regularizer, disc = make_models(seed=3)
        config = Stage2Config(iterations=4, batch_size=4, seed=9)
        return Stage2Trainer(student, teacher, regularizer, disc, config,
                             feature_net=FeatureNet(2))

    x = make_rng(1).standard_normal((16, 2)).astype(np.float32)
    cond = make_rng(2).standard_normal((16, 1)).astype(np.float32)
    records = make_trainer().train(x, cond)
    trainer, rng, expected = make_trainer(), make_rng(9), []
    for it in range(4):
        idx = rng.integers(0, 16, size=4)
        breakdown = trainer.step(x[idx], cond[idx], rng)
        if it in (0, 3):
            expected.append({"iteration": it, **breakdown})
    assert records == expected


def test_stage2_divergence_names_stage_iteration_and_component():
    teacher, student, regularizer, disc = make_models(seed=2)
    trainer = Stage2Trainer(student, teacher, regularizer, disc,
                            Stage2Config(iterations=3, batch_size=4),
                            feature_net=FeatureNet(2))
    x = np.full((16, 2), np.nan, dtype=np.float32)
    cond = np.zeros((16, 1), dtype=np.float32)
    with pytest.raises(FloatingPointError,
                       match=r"^refine iteration 0: non-finite loss component 'isc'"):
        trainer.train(x, cond)
