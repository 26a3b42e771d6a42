"""Minimal dense-tensor reverse-mode autodiff on numpy arrays.

Graphs are recorded implicitly through parent links and replayed once by a
topological backward sweep. A graph is single-use: after a backward pass the
visited interior nodes are consumed and a fresh forward pass is required for
another differentiation.

One gradient rule: `Tensor._accumulate` is the only writer of `.grad`. The
first contribution is stored as is (a C-contiguous array of the tensor's
dtype, so it may be shared with another node); later ones are added out of
place, never in place. A sweep told which leaves are wanted computes only the
gradients that lead to them.
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


def _spread(grad, axis, shape):
    """A reduction's gradient broadcast back over the reduced axes (a stride-0 view)."""
    return np.broadcast_to(grad if axis is None else np.expand_dims(grad, axis), shape)


def sigmoid_values(v):
    """Logistic sigmoid of an array, as a new array of its dtype."""
    # e = exp(-|v|) never overflows; s is 1/(1+e) where v >= 0 and
    # e/(1+e) elsewhere, and since e <= 1 the numerator is max(e, v >= 0).
    # Mask-free whole-array ops on one scratch array: boolean gathers,
    # scatters, np.where and temporaries cost several times the arithmetic.
    # Each step is the operation of `maximum(e, v >= 0) / (1.0 + e)`, so the
    # result is bit-identical to that form.
    e = np.asarray(np.abs(v))      # a 0-d input gives a scalar; `out=` needs an array
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, v >= 0)
    e += 1.0
    s /= e
    return s


class Tensor:
    """Array with a gradient accumulator and a link into the recording tape."""

    __slots__ = ("values", "grad", "_parents", "_backward", "_consumed", "_live")

    def __init__(self, values, _parents=(), _backward=None):
        self.values = np.asarray(values)
        if self.values.dtype.kind != "f":
            self.values = self.values.astype(DEFAULT_DTYPE)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._consumed = False
        self._live = True      # leads to a wanted leaf; set by each backward sweep

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype})"

    def _accumulate(self, grad):
        """Add one gradient contribution: the only code that writes `grad`.
        A tensor that leads to no wanted leaf takes none."""
        if not self._live:
            return
        grad = _unbroadcast(grad, self.values.shape)
        if self.grad is None:
            # stored as is; a stride-0 or column view is copied, because a
            # non-contiguous operand makes the next matmul leave BLAS
            self.grad = np.asarray(grad, dtype=self.values.dtype, order="C")
        else:
            # out of place: a stored gradient may be another node's
            self.grad = (self.grad + grad).astype(self.values.dtype, copy=False)

    # ---- graph construction helpers -------------------------------------

    def _coerce(self, x):
        if isinstance(x, Tensor):
            return x
        return Tensor(np.asarray(x, dtype=self.values.dtype))

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)

        def backward(grad):
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor(self.values + other.values, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            self._accumulate(-grad)

        return Tensor(-self.values, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)

        def backward(grad):
            if self._live:
                self._accumulate(grad * other.values)
            if other._live:
                other._accumulate(grad * self.values)

        return Tensor(self.values * other.values, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / other)

    def __matmul__(self, other):
        other = self._coerce(other)

        def backward(grad):
            if self._live:
                self._accumulate(grad @ other.values.swapaxes(-1, -2))
            if other._live:
                other._accumulate(self.values.swapaxes(-1, -2) @ grad)

        return Tensor(self.values @ other.values, (self, other), backward)

    # ---- reductions and shaping -------------------------------------------

    def sum(self, axis=None):
        def backward(grad):
            self._accumulate(_spread(grad, axis, self.values.shape))

        return Tensor(self.values.sum(axis=axis), (self,), backward)

    def mean(self, axis=None):
        values = self.values.mean(axis=axis)
        n = self.values.size // max(values.size, 1)    # entries averaged into each output

        def backward(grad):
            self._accumulate(_spread(grad / n, axis, self.values.shape))

        return Tensor(values, (self,), backward)

    def reshape(self, *shape):
        def backward(grad):
            self._accumulate(grad.reshape(self.values.shape))

        return Tensor(self.values.reshape(shape), (self,), backward)

    # ---- nonlinearities ----------------------------------------------------

    def sigmoid(self):
        s = sigmoid_values(self.values)

        def backward(grad):
            self._accumulate(grad * s * (1.0 - s))

        return Tensor(s, (self,), backward)

    def silu(self):
        sig = self.sigmoid()
        return self * sig

    def relu(self):
        mask = self.values > 0

        def backward(grad):
            self._accumulate(grad * mask)

        return Tensor(np.where(mask, self.values, 0.0), (self,), backward)

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
    splits = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]

    def backward(grad):
        for t, g in zip(tensors, np.split(grad, splits, axis=axis)):
            t._accumulate(g)

    return Tensor(np.concatenate([t.values for t in tensors], axis=axis), tuple(tensors), backward)


def backward_multi(seeds, wanted=None):
    """Run one backward sweep from several roots at once.

    `seeds` is a list of (tensor, gradient-array) pairs; each root's gradient
    is seeded before the single sweep in topological order, so contributions
    from all roots accumulate correctly through shared subgraphs.

    `wanted` lists the leaves whose gradients are read, every leaf when it is
    None. The sweep first marks the nodes that lead to a wanted leaf, then
    runs no closure for an unmarked node and gives an unmarked tensor no
    gradient. A marked node's children are all marked, so each wanted leaf
    takes the same contributions in the same order as in a full sweep.
    """
    order = []
    visited = set()
    stack = [(tensor, False) for tensor, _ in seeds]
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

    # `order` lists every node after its parents
    wanted_ids = None if wanted is None else {id(p) for p in wanted}
    for node in order:
        node._live = (wanted_ids is None or id(node) in wanted_ids
                      or any(p._live for p in node._parents))

    for tensor, seed in seeds:
        seed = np.asarray(seed, dtype=tensor.values.dtype)
        tensor._accumulate(np.broadcast_to(seed, tensor.values.shape))

    for node in reversed(order):
        if node._backward is None:
            continue
        if node._consumed:
            raise RuntimeError("tape already consumed; re-record the forward pass")
        if node._live:
            node._backward(node.grad)
        node._consumed = True


def grad_check(f, params):
    """Compare reverse-mode gradients of a scalar function against central differences.

    `f` maps the list of parameter Tensors to a scalar Tensor. Both the
    autodiff and finite-difference evaluations run with parameters upcast to
    64-bit so the oracle stays trustworthy. Returns the max over all
    parameter entries of |autodiff - central| / (|central| + 1e-8).
    """
    h = 1e-3
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
