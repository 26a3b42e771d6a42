"""Minimal dense-tensor reverse-mode autodiff on numpy arrays.

Graphs are recorded implicitly through parent links and replayed once by a
topological backward sweep. A graph is single-use: after a backward pass the
visited interior nodes are consumed and a fresh forward pass is required for
another differentiation.
"""

import numpy as np

DEFAULT_DTYPE = np.float32


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def sigmoid_values(v):
    """Logistic sigmoid of an array, as a new array of its dtype."""
    # e = exp(-|v|) never overflows; s is 1/(1+e) where v >= 0 and
    # e/(1+e) elsewhere, and since e <= 1 the numerator is max(e, v >= 0).
    # Mask-free whole-array ops: boolean gathers, scatters and np.where
    # cost several times the arithmetic.
    e = np.exp(-np.abs(v))
    return np.maximum(e, v >= 0) / (1.0 + e)


class Tensor:
    """Array with a gradient accumulator and a link into the recording tape."""

    __slots__ = ("values", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, values, _parents=(), _backward=None):
        self.values = np.asarray(values)
        if self.values.dtype.kind != "f":
            self.values = self.values.astype(DEFAULT_DTYPE)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._consumed = False

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype})"

    def _ensure_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        return self.grad

    # ---- graph construction helpers -------------------------------------

    def _coerce(self, x):
        if isinstance(x, Tensor):
            return x
        return Tensor(np.asarray(x, dtype=self.values.dtype))

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = Tensor(self.values + other.values, _parents=(self, other))

        def backward(grad):
            self._ensure_grad()
            other._ensure_grad()
            self.grad += _unbroadcast(grad, self.values.shape)
            other.grad += _unbroadcast(grad, other.values.shape)

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.values, _parents=(self,))

        def backward(grad):
            self._ensure_grad()
            self.grad += _unbroadcast(-grad, self.values.shape)

        out._backward = backward
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = Tensor(self.values * other.values, _parents=(self, other))

        def backward(grad):
            self._ensure_grad()
            other._ensure_grad()
            self.grad += _unbroadcast(grad * other.values, self.values.shape)
            other.grad += _unbroadcast(grad * self.values, other.values.shape)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / other)

    def __matmul__(self, other):
        other = self._coerce(other)
        out = Tensor(self.values @ other.values, _parents=(self, other))

        def backward(grad):
            self._ensure_grad()
            other._ensure_grad()
            self.grad += grad @ other.values.swapaxes(-1, -2)
            other.grad += self.values.swapaxes(-1, -2) @ grad

        out._backward = backward
        return out

    # ---- reductions and shaping -------------------------------------------

    def sum(self, axis=None):
        out = Tensor(self.values.sum(axis=axis), _parents=(self,))

        def backward(grad):
            self._ensure_grad()
            if axis is None:
                self.grad += grad
            else:
                self.grad += np.expand_dims(grad, axis)

        out._backward = backward
        return out

    def mean(self, axis=None):
        if axis is None:
            n = self.values.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            n = 1
            for a in axes:
                n *= self.values.shape[a]
        out = Tensor(self.values.mean(axis=axis), _parents=(self,))

        def backward(grad):
            self._ensure_grad()
            g = grad / n
            if axis is None:
                self.grad += g
            else:
                self.grad += np.expand_dims(g, axis)

        out._backward = backward
        return out

    def reshape(self, *shape):
        out = Tensor(self.values.reshape(shape), _parents=(self,))

        def backward(grad):
            self._ensure_grad()
            self.grad += grad.reshape(self.values.shape)

        out._backward = backward
        return out

    # ---- nonlinearities ----------------------------------------------------

    def sigmoid(self):
        s = sigmoid_values(self.values)
        out = Tensor(s, _parents=(self,))

        def backward(grad):
            self._ensure_grad()
            self.grad += grad * s * (1.0 - s)

        out._backward = backward
        return out

    def silu(self):
        sig = self.sigmoid()
        return self * sig

    def relu(self):
        mask = self.values > 0
        out = Tensor(np.where(mask, self.values, 0.0), _parents=(self,))

        def backward(grad):
            self._ensure_grad()
            self.grad += grad * mask

        out._backward = backward
        return out

    def square(self):
        return self * self

    # ---- backward ------------------------------------------------------------

    def backward(self):
        if self.values.size != 1:
            raise ValueError(
                f"backward requires a scalar-shaped loss, got shape {self.values.shape}"
            )
        backward_multi([(self, np.ones_like(self.values))])


def concat(tensors, axis=-1):
    """Differentiable concatenation along `axis`."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis), _parents=tuple(tensors))
    sizes = [t.values.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        pieces = np.split(grad, splits, axis=axis)
        for t, g in zip(tensors, pieces):
            t._ensure_grad()
            t.grad += g

    out._backward = backward
    return out


def stop_gradient(x):
    """Identity in value; blocks all gradient flow (no tape linkage)."""
    if isinstance(x, Tensor):
        return Tensor(x.values)
    return Tensor(x)


def backward_multi(seeds):
    """Run one backward sweep from several roots at once.

    `seeds` is a list of (tensor, gradient-array) pairs; each root's gradient
    is seeded before the single topological traversal, so contributions from
    all roots accumulate correctly through shared subgraphs.
    """
    roots = []
    for tensor, seed in seeds:
        seed = np.asarray(seed, dtype=tensor.values.dtype)
        if seed.shape != tensor.values.shape:
            seed = np.broadcast_to(seed, tensor.values.shape).copy()
        tensor._ensure_grad()
        tensor.grad = tensor.grad + seed
        roots.append(tensor)

    order = []
    visited = set()
    stack = [(r, False) for r in roots]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    for node in reversed(order):
        if node._backward is None:
            continue
        if node._consumed:
            raise RuntimeError("tape already consumed; re-record the forward pass")
        node._backward(node.grad)
        node._consumed = True


def grad_check(f, params, h=1e-3):
    """Compare reverse-mode gradients of a scalar function against central differences.

    `f` maps the list of parameter Tensors to a scalar Tensor. Both the
    autodiff and finite-difference evaluations run with parameters upcast to
    64-bit so the oracle stays trustworthy. Returns the max over all
    parameter entries of |autodiff - central| / (|central| + 1e-8).
    """
    originals = [p.values for p in params]
    try:
        for p in params:
            p.values = p.values.astype(np.float64)
            p.grad = None
        out = f(params)
        out.backward()
        auto = [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]
        for p in params:
            p.grad = None

        worst = 0.0
        for p, g in zip(params, auto):
            flat = p.values.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]

                def at(offset):
                    flat[i] = keep + offset
                    return float(f(params).values)

                # 4th-order central rule: truncation ~h^4 keeps the oracle
                # trustworthy even for small-magnitude gradient entries
                central = (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12.0 * h)
                flat[i] = keep
                err = abs(g.reshape(-1)[i] - central) / (abs(central) + 1e-8)
                worst = max(worst, err)
        return worst
    finally:
        for p, v in zip(params, originals):
            p.values = v
            p.grad = None
