"""Feed-forward networks, a decoupled-weight-decay adaptive optimizer, the
regression loss and update step every training stage ends with, and the
minibatch loop every training stage runs."""

import numpy as np

from .autodiff import Tensor, backward_multi, sigmoid_values
from .data import make_rng

# AdamW's moment decay rates and denominator floor.
BETA1, BETA2 = 0.9, 0.999
EPSILON = 1e-8


class Mlp:
    """Dense float32 network: linear layers with SiLU between them.

    `layer_sizes` lists [in, hidden..., out]; the final layer is linear.
    Weights use fan-in-scaled uniform initialization from the given seeded
    rng, or start at zero (to be loaded) without one; biases start at zero.
    """

    def __init__(self, layer_sizes, rng=None):
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output size")
        self.layer_sizes = list(layer_sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            w = (np.zeros((fan_in, fan_out), dtype=np.float32) if rng is None else
                 rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32))
            self.weights.append(Tensor(w))
            self.biases.append(Tensor(np.zeros(fan_out, dtype=np.float32)))

    def forward(self, x):
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.values.shape[-1] != self.layer_sizes[0]:
            raise ValueError(
                f"layer 0 expects input size {self.layer_sizes[0]}, "
                f"got {x.values.shape[-1]}"
            )
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = _layer(x, w, b, i != last)
        return x

    __call__ = forward

    def apply(self, x):
        """`forward(x).values` without a tape: the layer node's arithmetic, with
        the SiLU product taken in place in the pre-activation."""
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = _affine(x, w.values, b.values)
            if i != last:
                x *= sigmoid_values(x)
        return x

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_parameters(self):
        named = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            named.append((f"layer{i}.weight", w))
            named.append((f"layer{i}.bias", b))
        return named


def _affine(h, w, b):
    """`h @ w + b` on arrays, the bias added in place: the pre-activation of
    every layer, taped or not."""
    a = h @ w
    a += b
    return a


def _layer(h, w, b, hidden):
    """One tape node for a dense layer: `(h @ w + b).silu()`, or `h @ w + b`
    for the last layer.

    The backward replays the arithmetic of that chain of engine nodes in the
    order the sweep would run it, so every gradient is bit-identical to the
    chain's. A hidden layer's `a` and `s` are read by no other node and the
    tape is single-use, so the backward overwrites them as scratch; the last
    layer's `a` is its output and is never written.
    """
    a = _affine(h.values, w.values, b.values)
    s = sigmoid_values(a) if hidden else None
    out = a * s if hidden else a

    def backward(grad):
        g = grad
        if hidden:
            # silu's two contributions to the pre-activation, product first:
            # grad * s, then ((grad * a) * s) * (1 - s) computed in a and s
            g = grad * s
            t = np.multiply(grad, a, out=a)
            t *= s
            np.subtract(1.0, s, out=s)
            t *= s
            g += t
        b._accumulate(g)
        if h._live:
            h._accumulate(g @ w.values.swapaxes(-1, -2))
        if w._live:
            w._accumulate(h.values.swapaxes(-1, -2) @ g)

    return Tensor(out, (h, w, b), backward)


class Model:
    """Base of the checkpointable networks: `spec()` describes the architecture,
    the classmethod `from_spec(spec)` rebuilds it, and the parameters are those
    of the `Mlp` in `net` unless a subclass overrides `named_parameters`."""

    def named_parameters(self):
        return self.net.named_parameters()

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def load_parameters(self, arrays):
        """Set each parameter, in declared order, to a float32 copy of its array (reshaped)."""
        for (_, p), values in zip(self.named_parameters(), arrays, strict=True):
            p.values = np.array(values, dtype=np.float32).reshape(p.values.shape)

    def copy(self):
        clone = type(self).from_spec(self.spec())
        clone.load_parameters([p.values for p in self.parameters()])
        return clone


class AdamW:
    """Adam with decoupled weight decay: decay is applied to the parameter
    directly, never through the moment estimates. `named_params` is a list
    of (name, Tensor) pairs."""

    def __init__(self, named_params, learning_rate, weight_decay=0.0):
        self.names = [n for n, _ in named_params]
        self.params = [p for _, p in named_params]
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        """Update every parameter; a non-finite gradient raises before anything changes."""
        for name, p in zip(self.names, self.params):
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
        self.step_count += 1
        bias1 = 1.0 - BETA1 ** self.step_count
        bias2 = 1.0 - BETA2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            # In place through two scratch arrays, but the same operations in
            # the same order as `p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)`,
            # so every result is bit-identical to that form.
            t = np.multiply(g, 1.0 - BETA1)
            m *= BETA1
            m += t
            np.square(g, out=t)
            t *= 1.0 - BETA2
            v *= BETA2
            v += t
            if self.weight_decay:
                p.values -= (self.learning_rate * self.weight_decay) * p.values
            np.divide(m, bias1, out=t)
            t *= self.learning_rate
            u = np.divide(v, bias2)
            np.sqrt(u, out=u)
            u += EPSILON
            t /= u
            p.values -= t

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def mse(pred, target):
    """Mean squared error of the Tensor `pred` against a constant array `target`."""
    return (pred - Tensor(target.astype(pred.values.dtype))).square().mean()


def descend(opt, loss, what, *seeds):
    """One update of `opt` down the scalar `loss`; returns the loss value.

    A non-finite value raises `FloatingPointError("non-finite <what>")` before
    any state changes. Otherwise gradients are cleared, one backward sweep runs
    from `loss` and from each extra `(tensor, gradient)` seed, computing only
    the gradients that lead to `opt`'s parameters, and `opt` steps. Gradients
    are left in place after the step; the next update clears them.
    """
    value = float(loss.values)
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite {what}")
    opt.zero_grad()
    backward_multi([(loss, np.ones_like(loss.values)), *seeds], wanted=opt.params)
    opt.step()
    return value


def fit(stage, step, x_data, cond_data, *, iterations, batch_size, seed,
        condition_dropout=0.0, log_every=100):
    """Minibatch training loop shared by every stage; returns the logged records.

    Each iteration draws batch indices from a Philox generator keyed by
    `seed`, zeroes each condition row with probability `condition_dropout`
    (drawing only when it is positive), and calls
    `step(x_batch, cond_batch, rng) -> dict`. Every `log_every`-th iteration
    and the last one are logged as `{"iteration": it, **record}`. A
    `FloatingPointError` from `step` is re-raised naming the stage and the
    iteration.
    """
    rng = make_rng(seed)
    records = []
    for it in range(iterations):
        idx = rng.integers(0, x_data.shape[0], size=batch_size)
        cond = cond_data[idx]
        if condition_dropout > 0.0:
            cond[rng.random(batch_size) < condition_dropout] = 0.0
        try:
            record = step(x_data[idx], cond, rng)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{stage} iteration {it}: {exc}") from exc
        if it % log_every == 0 or it == iterations - 1:
            records.append({"iteration": it, **record})
    return records
