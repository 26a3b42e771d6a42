import numpy as np
import pytest

from splitflow import Mlp, Tensor
from splitflow.autodiff import backward_multi
from splitflow.nn import AdamW, descend, mse


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def test_zero_weights_output_is_bias():
    net = Mlp([3, 2], rng=np.random.default_rng(0))
    net.weights[0].values[:] = 0.0
    net.biases[0].values[:] = [1.5, -0.5]
    out = net.forward(np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32))
    assert np.allclose(out.values, [1.5, -0.5])


def test_identity_layer():
    net = Mlp([2, 2], rng=np.random.default_rng(0))
    net.weights[0].values[:] = np.eye(2, dtype=np.float32)
    net.biases[0].values[:] = 0.0
    x = np.array([[0.3, -0.7]], dtype=np.float32)
    assert np.allclose(net.forward(x).values, x)


def test_two_layer_hand_evaluation():
    # 2-2-1 net evaluated by hand: h = silu(x W1 + b1), y = h W2 + b2
    net = Mlp([2, 2, 1], rng=np.random.default_rng(0))
    w1 = np.array([[0.5, -1.0], [0.25, 0.75]], dtype=np.float32)
    b1 = np.array([0.1, -0.2], dtype=np.float32)
    w2 = np.array([[2.0], [-0.5]], dtype=np.float32)
    b2 = np.array([0.05], dtype=np.float32)
    net.weights[0].values[:] = w1
    net.biases[0].values[:] = b1
    net.weights[1].values[:] = w2
    net.biases[1].values[:] = b2
    x = np.array([[1.0, -2.0]], dtype=np.float32)
    pre = x @ w1 + b1
    h = pre * sigmoid(pre)
    expected = h @ w2 + b2
    assert np.allclose(net.forward(x).values, expected, atol=1e-6)


def test_shape_mismatch_names_layer():
    net = Mlp([3, 2], rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="layer 0"):
        net.forward(np.ones((1, 4), dtype=np.float32))


def test_param_count():
    net = Mlp([2, 8, 8, 1], rng=np.random.default_rng(0))
    sizes = [p.values.size for p in net.parameters()]
    assert sizes == [2 * 8, 8, 8 * 8, 8, 8 * 1, 1]


def test_forward_deterministic():
    net = Mlp([2, 4, 1], rng=np.random.default_rng(5))
    x = np.random.default_rng(2).normal(size=(3, 2)).astype(np.float32)
    a = net.forward(x).values
    b = net.forward(x).values
    assert np.array_equal(a, b)


def test_adamw_zero_lr_no_change():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32))
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    opt = AdamW([("p", p)], learning_rate=0.0, weight_decay=0.1)
    opt.step()
    assert np.array_equal(p.values, [1.0, 2.0])


def test_adamw_decoupled_decay_only():
    start = np.array([2.0, -4.0], dtype=np.float32)
    p = Tensor(start.copy())
    p.grad = np.zeros(2, dtype=np.float32)
    lr, wd = 0.1, 0.05
    opt = AdamW([("p", p)], learning_rate=lr, weight_decay=wd)
    opt.step()
    assert np.allclose(p.values, start * (1.0 - lr * wd), rtol=0, atol=0)


def test_adamw_single_step_sign_update():
    # hand recurrence: one step with wd=0 and eps=1e-8 << |g| moves by ~ -lr*sign(g)
    g = np.array([0.3, -0.7], dtype=np.float32)
    p = Tensor(np.zeros(2, dtype=np.float32))
    p.grad = g.copy()
    lr = 1e-2
    opt = AdamW([("p", p)], learning_rate=lr)
    opt.step()
    b1, b2 = 0.9, 0.999
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expected = -lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.values, expected, rtol=0.01)
    assert np.allclose(p.values, -lr * np.sign(g), rtol=0.01)


def test_adamw_nan_grad_names_parameter():
    a = Tensor(np.ones(2, dtype=np.float32))
    b = Tensor(np.zeros(2, dtype=np.float32))
    opt = AdamW([("layer2.weight", a), ("layer3.weight", b)], learning_rate=0.1)
    a.grad = np.array([1.0, -2.0], dtype=np.float32)
    b.grad = np.array([0.5, 0.25], dtype=np.float32)
    opt.step()    # nonzero moments, so that an update in place would show
    before = [x.tobytes() for x in (a.values, b.values, *opt.m, *opt.v)]
    b.grad = np.array([np.nan, 0.0], dtype=np.float32)
    with pytest.raises(FloatingPointError, match="layer3.weight"):
        opt.step()
    # the check runs before any update: the parameter ahead of 'b' is untouched too
    assert [x.tobytes() for x in (a.values, b.values, *opt.m, *opt.v)] == before
    assert opt.step_count == 1


@pytest.mark.parametrize("sizes", [[3, 1], [3, 16, 4], [5, 32, 32, 2]])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_apply_is_byte_equal_to_taped_forward(sizes, dtype):
    net = Mlp(sizes, rng=np.random.default_rng(3))
    for p in net.parameters():     # nonzero biases too
        p.values[...] = np.random.default_rng(4).normal(size=p.values.shape)
    x = (6.0 * np.random.default_rng(5).normal(size=(37, sizes[0]))).astype(dtype)
    want = net.forward(x).values
    got = net.apply(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_optimizer_runs_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        net = Mlp([2, 8, 1], rng=np.random.default_rng(42))
        opt = AdamW(net.named_parameters(), learning_rate=1e-3, weight_decay=1e-2)
        for _ in range(20):
            x = rng.normal(size=(8, 2)).astype(np.float32)
            loss = net.forward(x).square().mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return [p.values.copy() for p in net.parameters()]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


# ---- the layer node: one tape node per dense layer --------------------------------

def unfused_forward(net, x):
    """`Mlp.forward` as the chain of engine nodes the layer node replaces."""
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = (h @ w) + b
        if i != last:
            h = h.silu()
    return h


def layer_net(sizes, dtype=np.float32):
    net = Mlp(sizes)
    rng = np.random.default_rng(7)
    for p in net.parameters():    # nonzero biases, pre-activations of both signs
        p.values = rng.normal(size=p.values.shape).astype(dtype)
    return net


def grad_bytes(tensor):
    return None if tensor.grad is None else tensor.grad.tobytes()


def tape_nodes(roots):
    """Every tensor reachable from `roots` through parent links."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize("sizes", [[3, 3], [4, 16, 4], [4, 32, 32, 4]],
                         ids=["last-layer-only", "one-hidden", "two-hidden"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# "detached": the sweep wants only the inputs, so the parameters take no gradient
@pytest.mark.parametrize("params_wanted", [True, False], ids=["params", "detached"])
@pytest.mark.parametrize("uses", [1, 3])
def test_layer_node_matches_the_unfused_chain_byte_for_byte(sizes, dtype, params_wanted, uses):
    # uses=3 runs the net on one input and twice in a row on another, so every
    # parameter takes three contributions in one sweep, one through a layer
    # node's input gradient
    net = layer_net(sizes, dtype)
    rng = np.random.default_rng(8)
    xs = [(3.0 * rng.normal(size=(33, sizes[0]))).astype(dtype) for _ in range(2)]
    seeds = [rng.normal(size=(33, sizes[-1])).astype(dtype) for _ in range(2)]

    def run(forward):
        for p in net.parameters():
            p.grad = None
        inputs = [Tensor(x) for x in xs]
        outs = [forward(net, inputs[0])]
        if uses == 3:
            outs.append(forward(net, forward(net, inputs[1])))
        # every leaf wanted, as in grad_check, or only the inputs
        backward_multi(list(zip(outs, seeds)), wanted=None if params_wanted else inputs)
        return ([o.values.tobytes() for o in outs], [grad_bytes(x) for x in inputs],
                [grad_bytes(p) for p in net.parameters()])

    want = run(unfused_forward)
    got = run(Mlp.forward)
    assert got == want
    values, input_grads, param_grads = got
    assert all(g is not None for g in input_grads[:len(values)])
    if params_wanted:
        assert None not in param_grads
    else:
        assert param_grads == [None] * len(param_grads)


def test_layer_node_records_one_node_per_layer():
    net = layer_net([4, 16, 16, 4])
    out = net.forward(np.ones((2, 4), dtype=np.float32))
    interior = [t for t in tape_nodes([out]) if t._backward is not None]
    assert len(interior) == 3
    assert len(tape_nodes([out])) == 10    # the input, three layer nodes and six parameters


class CountingSwapaxes(np.ndarray):
    """An array that counts calls to its `swapaxes`."""
    calls = 0

    def swapaxes(self, *axes):
        CountingSwapaxes.calls += 1
        return super().swapaxes(*axes)


@pytest.mark.parametrize("behind_stop_gradient", [True, False])
def test_layer_node_computes_no_input_gradient_behind_stop_gradient(behind_stop_gradient):
    # `g @ w.T` reads the transposed weight; the first layer's weight counts
    # the transposes taken of it
    net = layer_net([4, 16, 4])
    x = np.random.default_rng(9).normal(size=(8, 4)).astype(np.float32)
    target = np.zeros((8, 4), dtype=np.float32)
    for p in net.parameters():
        p.grad = None
    backward_multi([(mse(unfused_forward(net, Tensor(x)), target), np.float32(1.0))],
                   wanted=net.parameters())
    want = [grad_bytes(p) for p in net.parameters()]
    for p in net.parameters():
        p.grad = None

    w0 = net.weights[0]
    w0.values = w0.values.view(CountingSwapaxes)
    x_in = Tensor(x)
    loss = mse(net.forward(x_in), target)
    CountingSwapaxes.calls = 0
    # behind a stop-gradient, the input is a constant the sweep does not want
    wanted = net.parameters() + ([] if behind_stop_gradient else [x_in])
    backward_multi([(loss, np.float32(1.0))], wanted=wanted)
    assert CountingSwapaxes.calls == (0 if behind_stop_gradient else 1)
    assert (x_in.grad is None) == behind_stop_gradient
    assert [grad_bytes(p) for p in net.parameters()] == want


def test_descend_leaves_every_node_value_as_the_forward_pass_made_it():
    # the backward overwrites a hidden layer's private arrays; no node's output
    # may be among them
    net = layer_net([4, 16, 16, 4])
    opt = AdamW(net.named_parameters(), learning_rate=1e-2)
    x = Tensor(np.random.default_rng(10).normal(size=(8, 4)).astype(np.float32))
    out = net.forward(net.forward(x))
    loss = mse(out, np.zeros((8, 4), dtype=np.float32))
    params = {id(p) for p in net.parameters()}
    nodes = [t for t in tape_nodes([loss]) if id(t) not in params]
    before = [t.values.tobytes() for t in nodes]
    descend(opt, loss, "test loss")
    assert [t.values.tobytes() for t in nodes] == before


# ---- descend: the one update step ------------------------------------------------

def descend_setup(seed=0):
    net = Mlp([2, 8, 1], rng=np.random.default_rng(seed))
    opt = AdamW(net.named_parameters(), learning_rate=1e-2, weight_decay=1e-2)
    x = np.random.default_rng(seed + 1).normal(size=(8, 2)).astype(np.float32)
    return net, opt, x


def test_descend_non_finite_loss_changes_nothing():
    net, opt, x = descend_setup()
    descend(opt, net.forward(x).square().mean(), "test loss")
    state = [a.copy() for a in [p.values for p in net.parameters()] + opt.m + opt.v]
    loss = net.forward(x).square().mean() * float("nan")
    with pytest.raises(FloatingPointError, match="^non-finite test loss$"):
        descend(opt, loss, "test loss")
    assert opt.step_count == 1
    after = [p.values for p in net.parameters()] + opt.m + opt.v
    for a, b in zip(state, after, strict=True):
        assert np.array_equal(a, b)


def test_descend_clears_leftover_gradients():
    def run(leftover):
        net, opt, x = descend_setup()
        if leftover:
            net.forward(x).sum().backward()
        value = descend(opt, net.forward(x).square().mean(), "test loss")
        return value, [p.values.copy() for p in net.parameters()]

    (v_clean, clean), (v_stale, stale) = run(False), run(True)
    assert v_clean == v_stale
    for a, b in zip(clean, stale, strict=True):
        assert a.tobytes() == b.tobytes()


def test_descend_extra_seed_matches_backward_multi_then_step():
    def run(use_descend):
        net, opt, x = descend_setup()
        out = net.forward(x)
        loss = out.square().mean()
        seed = np.full(out.values.shape, 0.25, dtype=np.float32)
        if use_descend:
            descend(opt, loss, "test loss", (out, seed))
        else:
            backward_multi([(loss, np.ones_like(loss.values)), (out, seed)])
            opt.step()
        return [p.values.copy() for p in net.parameters()]

    for a, b in zip(run(True), run(False), strict=True):
        assert a.tobytes() == b.tobytes()
