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

Gradient lifetime: after `backward()` only leaves (tensors without a
backward closure, such as parameters and inputs) keep `.grad`. Each op
output's gradient is dropped as soon as its closure has passed it on, so a
pass holds the gradients still in flight, not one per op. Read gradients
from leaves; a caller that wants an intermediate's gradient makes that
intermediate a leaf.

Packed rows. The text CNN's input is one 2-D array of token rows, the posts
back to back, each padded only up to the widest filter. `sliding_window_conv`
runs down all the rows at once, and `max_over_time(a, starts, lengths)` pools
segment i, rows starts[i] .. starts[i] + lengths[i] - 1: exactly post i's
windows, none of which reaches the next post. The gradient goes to each
segment's first argmax, rows outside every segment get exactly zero, and
`a.data` is never written. ReLU applied after it equals ReLU before it, bit
for bit, values and gradients.

Sparse backward. Max pooling leaves most rows of the conv's upstream
gradient zero, all but each post's argmax windows, so the conv and embedding
backwards work only on the packed rows holding a nonzero (NaN counts):

- Embedding scatter, bit for bit. A .grad never holds -0.0: a first
  gradient is stored as g + 0, and x + y is -0.0 only when both are. So
  adding a row of +-0.0 changes nothing, and the scatter, which adds into
  each element in the dense order, gives the dense bits. The max backward,
  one put into a zero buffer, gives them too.
- Conv, over the gathered rows. Gradient row r meets input row r + j in
  tap j. Per tap, the filter gradient is one GEMM over the gathered input
  rows and the input gradient one GEMM added at those rows; the bias
  gradient sums them in float64. BLAS rounds a GEMM over fewer rows
  differently, so these are bounded against a float64 reference in the
  tests, not pinned to a dense route's bits.
- Hand-over. A backward that fills a fresh buffer with no -0.0 in it hands
  the buffer to an input that has no gradient yet, instead of copying it
  (`Tensor._accumulate_owned`): the conv's input gradient and the max's.
"""

from __future__ import annotations

import numpy as np

_DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    pass


class Tensor:
    """An n-d array with an optional gradient buffer and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

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
            # g + 0 copies g in one pass (g may be a view or a reused buffer)
            # and, like adding into zeros, turns -0.0 into +0.0
            self.grad = np.add(g, 0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def _accumulate_owned(self, g: np.ndarray):
        """`_accumulate` for a buffer the op made and no longer needs: with no
        gradient yet, g itself becomes `.grad`, saving the copy. g holds no
        -0.0, so this stores what the copy would."""
        if self.grad is None and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self._accumulate(g)

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
        # reference counting, without waiting for the cyclic collector. An op
        # output's gradient is spent once its closure has run, so it is freed
        # there; only leaves keep theirs.
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    tracked = tuple(p for p in parents if p.requires_grad)
    if tracked:
        # the only place _parents is set: a tensor with parents requires grad
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


def _nonzero_rows(g: np.ndarray) -> np.ndarray:
    """Indices of the rows of 2-D g that hold anything but +-0.0 (NaN counts)."""
    flags = g != 0
    # numpy reduces a short last axis slowly, so OR the row's flags column by
    # column over whole arrays, eight flags per word where the width allows
    words = flags.shape[1] % 8 == 0 and flags.flags.c_contiguous
    cols = flags.view(np.uint64) if words else flags
    hit = np.zeros(len(cols), dtype=cols.dtype)
    for c in range(cols.shape[1]):
        hit |= cols[:, c]
    return np.flatnonzero(hit)


# Elements per np.add.at call in `scatter_add`, which bounds its index arrays.
_SCATTER_CHUNK = 1 << 18


def scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """table[rows] += values in place for a 2-D C-contiguous table (else
    ValueError), summing repeated rows.

    np.add.at on flat element indices takes numpy's one-dimensional fast
    path, about 4x faster than on row blocks or a sorted np.add.reduceat. The
    chunks run in row order, so every element receives its adds in the order
    a row-by-row np.add.at gives them, bit for bit.
    """
    flat = table.reshape(-1, copy=False)
    dim = table.shape[1]
    values = values.reshape(len(rows), dim)
    cols = np.arange(dim)
    step = max(1, _SCATTER_CHUNK // max(1, dim))
    for lo in range(0, len(rows), step):
        index = rows[lo : lo + step, None] * dim + cols
        np.add.at(flat, index.reshape(-1), values[lo : lo + step].reshape(-1))


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
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    out = _result(data, (a, b), backward)
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "sub")
    data = a.data - b.data

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.shape))

    out = _result(data, (a, b), backward)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape(a, b, "mul")
    data = a.data * b.data

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
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
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data.astype(np.float64), -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
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
            if t.requires_grad:
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
        rows = _nonzero_rows(g)
        scatter_add(table.grad, idx.ravel()[rows], g[rows])

    out = _result(data, (table,), backward)
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


def max_over_time(a, starts, lengths) -> Tensor:
    """Output row i is the column-wise max of a's rows starts[i] ..
    starts[i] + lengths[i] - 1 (module docstring, "Packed rows"). The
    segments must be in order, disjoint and nonempty, else `ShapeError`.
    With a gradient to route, each segment's rows are gathered out to the
    longest segment, a step past its end reading its last row again, for the
    first argmax; without, they are folded in step by step."""
    a = _as_tensor(a)
    x = a.data
    starts, lengths = _check_segments(x, starts, lengths)
    if not a.requires_grad:
        return Tensor(_running_max(x, starts, lengths))  # no gradient to route, so no argmax
    # (segment, step) -> row; a step past the segment's end repeats its last
    # row, which can only tie with that row's first copy, so never wins
    steps = np.arange(lengths.max())
    rows = starts[:, None] + np.minimum(steps, lengths[:, None] - 1)
    windows = np.take(x, rows, axis=0)
    best = np.take_along_axis(rows, np.argmax(windows, axis=1), axis=1)  # (segments, columns)
    cols = np.arange(x.shape[1])
    data = x[best, cols]

    def backward(out):
        g = np.zeros_like(x)
        # + 0 turns -0.0 into +0.0, as a first _accumulate would
        g[best, cols] = out.grad + 0
        a._accumulate_owned(g)

    out = _result(data, (a,), backward)
    return out


def _check_segments(x: np.ndarray, starts, lengths) -> tuple[np.ndarray, np.ndarray]:
    s, n = np.asarray(starts), np.asarray(lengths)
    ok = (x.ndim == 2 and s.ndim == 1 and n.shape == s.shape and s.size > 0
          and s.dtype.kind in "iu" and n.dtype.kind in "iu")
    if ok:
        s, n = s.astype(np.int64, copy=False), n.astype(np.int64, copy=False)
        ends = s + n
        ok = n.min() >= 1 and s[0] >= 0 and ends[-1] <= len(x) and bool((ends[:-1] <= s[1:]).all())
    if not ok:
        raise ShapeError(f"max_over_time: starts ({s.dtype} {s.shape}) and lengths ({n.dtype} "
                         f"{n.shape}) must be 1-d integers giving in-order, disjoint segments of "
                         f"one or more of the rows {x.shape}")
    return s, n


def _running_max(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each segment's max, time-major: step s takes every segment still that
    long in one np.take and folds it in with np.maximum, which propagates NaN
    as np.max does."""
    order = np.argsort(-lengths, kind="stable")  # longest first: step s's segments are a prefix
    first, longest = starts[order], lengths[order]
    acc = x[first]
    buf = np.empty_like(acc)
    for step, count in enumerate(np.searchsorted(-longest, -np.arange(1, longest[0])), 1):
        np.take(x, first[:count] + step, axis=0, out=buf[:count])
        np.maximum(acc[:count], buf[:count], out=acc[:count])
    out = np.empty_like(acc)
    out[order] = acc
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
        if gain.requires_grad:
            axes = tuple(range(g.ndim - 1))
            gain._accumulate((g * xhat).sum(axis=axes))
        if bias.requires_grad:
            axes = tuple(range(g.ndim - 1))
            bias._accumulate(g.sum(axis=axes))
        if x.requires_grad:
            gh = g * gain.data.astype(np.float64)
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((inv * (gh - m1 - xhat * m2)).astype(x.dtype))

    out = _result(data, (x, gain, bias), backward)
    return out


# Multiply-adds per tap in a block of the conv forward's rows. Measured on
# a 2-core Xeon with OpenBLAS for d_in and f from 8 to 64: smaller blocks
# pay more GEMM calls, larger ones fall out of cache.
_CONV_BLOCK_MACS = 1 << 19


def sliding_window_conv(x, filt, bias=None) -> Tensor:
    """Width-w convolution down the rows, as w shifted GEMMs.

    x: (n, d_in); filt: (w, d_in, f); output (n-w+1, f), row r from x rows
    r .. r+w-1. No padding; the caller guarantees n >= w. Tap j contributes
    x[r+j] @ filt[j], added in tap order, then the bias; no im2col copy is
    built, every GEMM runs in the operands' dtype, and the rows run in
    cache-sized blocks. The backward works only on the nonzero rows of the
    output gradient (module docstring).
    """
    x, filt = _as_tensor(x), _as_tensor(filt)
    w, d_f, f = filt.shape
    if x.data.ndim != 2 or x.shape[1] != d_f:
        raise ShapeError(f"conv: input {x.shape} is not (rows, {d_f}) for filter {filt.shape}")
    n, d_in = x.shape
    if n < w:
        raise ShapeError(f"conv: sequence length {n} < filter width {w}")
    dt = np.result_type(x.dtype, filt.dtype)
    xd = x.data.astype(dt, copy=False)
    fd = filt.data.astype(dt, copy=False)
    if bias is not None:
        bias = _as_tensor(bias)
    # a one-row product takes a matrix-vector route, which rounds otherwise:
    # a lone window is computed as the first row of two, and the last block
    # takes in a row that would be left alone
    if n == w:
        xd = np.concatenate([xd, xd[-1:]])
    t = len(xd) - w + 1
    step = max(2, _CONV_BLOCK_MACS // (d_in * f))
    data = np.empty((t, f), dtype=dt)
    tap = np.empty((min(t, step + 1), f), dtype=dt)
    lo = 0
    while lo < t:
        hi = t if t - lo <= step + 1 else lo + step
        block = np.matmul(xd[lo:hi], fd[0], out=data[lo:hi])
        for j in range(1, w):
            block += np.matmul(xd[lo + j : hi + j], fd[j], out=tap[: hi - lo])
        if bias is not None:
            block += bias.data
        lo = hi

    def backward(out):
        g2 = out.grad
        # max pooling leaves most rows of g zero; the backward skips them.
        # Row r of g meets x row r + j in tap j
        rows = _nonzero_rows(g2)
        gz = g2[rows]
        if filt.requires_grad:
            filt._accumulate(np.stack([xd[rows + j].T @ gz for j in range(w)]))
        if bias is not None and bias.requires_grad:
            bias._accumulate(gz.sum(axis=0, dtype=np.float64))
        if x.requires_grad:
            gx = np.zeros((n, d_in), dtype=dt)
            for j in range(w):
                gx[rows + j] += gz @ fd[j].T
            x._accumulate_owned(gx)

    parents = (x, filt) if bias is None else (x, filt, bias)
    out = _result(data[: n - w + 1], parents, backward)
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
