"""Dense-tensor reverse-mode autodiff over numpy arrays.

Only the operations the episode model actually needs are implemented.
Values are float32 by default. Precision contract:

- `sliding_window_conv`, the model's hottest kernel, contracts in its
  operands' dtype: float32 BLAS for the model, float64 when gradcheck feeds
  float64. Its bias gradient sums in float64.
- `matmul`, sums, means, norms, softmax, cross-entropy and layer norm
  accumulate in float64 and cast back to the input dtype. `matmul` stays
  there because attention's `attn @ v` sums over keys in the order of an
  episode's posts: in float64 that order does not reach the float32 result,
  so transformer pooling is exactly invariant to permuting posts. It is a
  small share of training time.
"""

from __future__ import annotations

import numpy as np

_DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    pass


class Tensor:
    """An n-d array with an optional gradient buffer and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray):
        g = g.astype(self.data.dtype, copy=False)
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # A closure gets its output as the argument rather than capturing it,
        # so no op output references itself and a finished graph is freed by
        # reference counting, without waiting for the cyclic collector.
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    tracked = tuple(p for p in parents if p.requires_grad or p._parents)
    if tracked:
        out.requires_grad = True
        out._parents = tracked
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


# ---------------------------------------------------------------- arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "add")
    data = a.data + b.data

    def backward(out):
        g = out.grad
        if a.requires_grad or a._parents:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad or b._parents:
            b._accumulate(_unbroadcast(g, b.shape))

    out = _result(data, (a, b), backward)
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "sub")
    data = a.data - b.data

    def backward(out):
        g = out.grad
        if a.requires_grad or a._parents:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad or b._parents:
            b._accumulate(-_unbroadcast(g, b.shape))

    out = _result(data, (a, b), backward)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "mul")
    data = a.data * b.data

    def backward(out):
        g = out.grad
        if a.requires_grad or a._parents:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad or b._parents:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    out = _result(data, (a, b), backward)
    return out


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    data = a.data * a.data.dtype.type(c)

    def backward(out):
        a._accumulate(out.grad * c)

    out = _result(data, (a,), backward)
    return out


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def backward(out):
        a._accumulate(out.grad * data)

    out = _result(data, (a,), backward)
    return out


def log(a) -> Tensor:
    a = _as_tensor(a)
    data = np.log(a.data)

    def backward(out):
        a._accumulate(out.grad / a.data)

    out = _result(data, (a,), backward)
    return out


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    data = np.sqrt(a.data)

    def backward(out):
        a._accumulate(out.grad * (0.5 / data))

    out = _result(data, (a,), backward)
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = np.maximum(a.data, 0)

    def backward(out):
        a._accumulate(out.grad * (a.data > 0))

    out = _result(data, (a,), backward)
    return out


# ---------------------------------------------------------------- structure


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[-1] != b.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    dt = np.result_type(a.dtype, b.dtype)
    data = np.matmul(a.data.astype(np.float64), b.data.astype(np.float64)).astype(dt)

    def backward(out):
        g = out.grad.astype(np.float64)
        if a.requires_grad or a._parents:
            ga = np.matmul(g, np.swapaxes(b.data.astype(np.float64), -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad or b._parents:
            gb = np.matmul(np.swapaxes(a.data.astype(np.float64), -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    out = _result(data, (a, b), backward)
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(out):
        pieces = np.split(out.grad, splits, axis=axis)
        for t, g in zip(tensors, pieces):
            if t.requires_grad or t._parents:
                t._accumulate(g)

    out = _result(data, tuple(tensors), backward)
    return out


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def backward(out):
        a._accumulate(out.grad.reshape(a.shape))

    out = _result(data, (a,), backward)
    return out


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(out):
        a._accumulate(out.grad.transpose(inverse))

    out = _result(data, (a,), backward)
    return out


def embedding_lookup(table, ids) -> Tensor:
    """Row lookup: ids of any shape, output shape ids.shape + (dim,)."""
    table = _as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: id out of range [0, {table.shape[0]}), got "
            f"[{idx.min()}, {idx.max()}]"
        )
    data = table.data[idx]

    def backward(out):
        g = out.grad.reshape(-1, table.shape[1])
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx.ravel(), g)

    out = _result(data, (table,), backward)
    return out


def scatter_rows(pieces, n_rows: int, dim: int) -> Tensor:
    """Assemble (n_rows, dim) from (row-index array, Tensor rows) pieces.

    Every output row must be covered exactly once; used to stitch per-market
    lookups into one batch.
    """
    dt = np.result_type(*[t.dtype for _, t in pieces]) if pieces else _DEFAULT_DTYPE
    data = np.zeros((n_rows, dim), dtype=dt)
    covered = np.zeros(n_rows, dtype=bool)
    for idx, t in pieces:
        data[idx] = t.data
        covered[idx] = True
    if not covered.all():
        raise ShapeError("scatter_rows: some output rows were not assigned")

    def backward(out):
        for idx, t in pieces:
            if t.requires_grad or t._parents:
                t._accumulate(out.grad[idx])

    out = _result(data, tuple(t for _, t in pieces), backward)
    return out


# ---------------------------------------------------------------- reductions


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)

    def backward(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    out = _result(data, (a,), backward)
    return out


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)
    if axis is None:
        count = a.data.size
    else:
        count = a.shape[axis]

    def backward(out):
        g = out.grad / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    out = _result(data, (a,), backward)
    return out


def max_over_time(a, axis: int = 0) -> Tensor:
    """Max along one axis; the gradient routes to the first argmax."""
    a = _as_tensor(a)
    idx = np.argmax(a.data, axis=axis)
    data = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def backward(out):
        g = np.zeros_like(a.data)
        np.put_along_axis(
            g, np.expand_dims(idx, axis), np.expand_dims(out.grad, axis), axis=axis
        )
        a._accumulate(g)

    out = _result(data, (a,), backward)
    return out


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    x = a.data.astype(np.float64)
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    data = (e / e.sum(axis=axis, keepdims=True)).astype(a.dtype)

    def backward(out):
        g = out.grad
        y = data
        dot = (g * y).sum(axis=axis, keepdims=True, dtype=np.float64).astype(a.dtype)
        a._accumulate(y * (g - dot))

    out = _result(data, (a,), backward)
    return out


def l2_normalize(a, axis: int = -1, eps: float = 1e-12) -> Tensor:
    a = _as_tensor(a)
    norm = np.sqrt((a.data.astype(np.float64) ** 2).sum(axis=axis, keepdims=True))
    norm = np.maximum(norm, eps)
    data = (a.data / norm).astype(a.dtype)

    def backward(out):
        g = out.grad
        y = data
        dot = (g * y).sum(axis=axis, keepdims=True, dtype=np.float64)
        a._accumulate(((g - y * dot.astype(a.dtype)) / norm).astype(a.dtype))

    out = _result(data, (a,), backward)
    return out


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood, stabilized by max-logit subtraction.

    logits: (B, C); labels: int array (B,).
    """
    logits = _as_tensor(logits)
    y = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    n, c = logits.shape
    if y.shape != (n,):
        raise ShapeError(f"cross_entropy: labels shape {y.shape} != ({n},)")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ShapeError(f"cross_entropy: label out of range [0, {c})")
    x = logits.data.astype(np.float64)
    x = x - x.max(axis=1, keepdims=True)
    logz = np.log(np.exp(x).sum(axis=1, keepdims=True))
    logp = x - logz
    data = np.asarray(-logp[np.arange(n), y].mean(), dtype=logits.dtype)

    def backward(out):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        logits._accumulate((out.grad * p / n).astype(logits.dtype))

    out = _result(data, (logits,), backward)
    return out


# ---------------------------------------------------------------- layers


def linear(x, w, b=None) -> Tensor:
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


def dropout(x, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: kept units scaled by 1/(1-p) in training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    x = _as_tensor(x)
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: training mode requires an rng")
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)

    def backward(out):
        x._accumulate(out.grad * keep)

    out = _result(x.data * keep, (x,), backward)
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True, dtype=np.float64)
    xc = x.data.astype(np.float64) - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = (xhat * gain.data + bias.data).astype(x.dtype)

    def backward(out):
        g = out.grad.astype(np.float64)
        if gain.requires_grad or gain._parents:
            axes = tuple(range(g.ndim - 1))
            gain._accumulate((g * xhat).sum(axis=axes))
        if bias.requires_grad or bias._parents:
            axes = tuple(range(g.ndim - 1))
            bias._accumulate(g.sum(axis=axes))
        if x.requires_grad or x._parents:
            gh = g * gain.data.astype(np.float64)
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((inv * (gh - m1 - xhat * m2)).astype(x.dtype))

    out = _result(data, (x, gain, bias), backward)
    return out


def sliding_window_conv(x, filt, bias=None) -> Tensor:
    """Width-w convolution over the time axis, as w shifted GEMMs.

    x: (B, n, d_in) or (n, d_in); filt: (w, d_in, f); output (B, n-w+1, f).
    No padding; the caller guarantees n >= w. Tap j contributes
    x[:, j:j+t] @ filt[j], so no im2col copy is built; every GEMM runs in
    the operands' dtype.
    """
    x, filt = _as_tensor(x), _as_tensor(filt)
    squeeze = x.data.ndim == 2
    b_, n, d_in = (1, *x.shape) if squeeze else x.shape
    w, d_f, f = filt.shape
    if d_f != d_in:
        raise ShapeError(f"conv: input dim {d_in} != filter dim {d_f}")
    if n < w:
        raise ShapeError(f"conv: sequence length {n} < filter width {w}")
    t = n - w + 1
    dt = np.result_type(x.dtype, filt.dtype)
    xd = x.data.reshape(b_, n, d_in).astype(dt, copy=False)
    fd = filt.data.astype(dt, copy=False)
    data = xd[:, :t] @ fd[0]
    for j in range(1, w):
        data += xd[:, j : j + t] @ fd[j]
    if bias is not None:
        bias = _as_tensor(bias)
        data = data + bias.data
    if squeeze:
        data = data[0]

    def backward(out):
        g = out.grad.reshape(b_, t, f)
        if bias is not None and (bias.requires_grad or bias._parents):
            bias._accumulate(g.sum(axis=(0, 1), dtype=np.float64))
        if filt.requires_grad or filt._parents:
            g2 = g.reshape(-1, f)
            filt._accumulate(
                np.stack([xd[:, j : j + t].reshape(-1, d_in).T @ g2 for j in range(w)])
            )
        if x.requires_grad or x._parents:
            gx = np.zeros((b_, n, d_in), dtype=dt)
            for j in range(w):
                gx[:, j : j + t] += g @ fd[j].T
            x._accumulate(gx.reshape(x.shape))

    parents = (x, filt) if bias is None else (x, filt, bias)
    out = _result(data, parents, backward)
    return out


def multihead_attention(x, wq, wk, wv, wo, bq, bv, bo, heads: int) -> Tensor:
    """Self-attention over (B, L, d); composed from primitives.

    There is no key bias: softmax scores are invariant to a constant shift
    per query row, so it would be a dead parameter.
    """
    x = _as_tensor(x)
    b_, length, d = x.shape
    if d % heads:
        raise ShapeError(f"attention: model dim {d} not divisible by {heads} heads")
    dh = d // heads

    def split(t: Tensor) -> Tensor:
        return transpose(reshape(t, (b_, length, heads, dh)), (0, 2, 1, 3))

    q = split(linear(x, wq, bq))
    k = split(linear(x, wk))
    v = split(linear(x, wv, bv))
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = softmax(scores, axis=-1)
    ctx = matmul(attn, v)  # (B, H, L, dh)
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (b_, length, d))
    return linear(merged, wo, bo)
