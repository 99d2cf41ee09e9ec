"""Reference code that only the tests use: a central-difference gradient
checker, a walk over an autodiff graph, the per-pair skip-gram loss the
batched one is tested against, the total-variation distance between two
synthetic authors' word distributions, the per-character encoder the batch
`encode` is tested against, the `-inf`-padded max over time the tracked
`max_over_time` is tested against, and the batched matmul, layer norm and
dropout routes that `matmul`'s weight route and the slimmer `layer_norm` and
`dropout` closures are tested against."""

from __future__ import annotations

import math

import numpy as np

from epistyle.numcore import Tensor
from epistyle.tokenization import _iter_segments


def grad_check(fn, inputs, eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients of a scalar function against central
    differences; returns the max elementwise relative error.

    `fn` takes len(inputs) Tensors and returns a scalar Tensor. Inputs are
    promoted to float64 so the finite differences stay meaningful at eps=1e-5.
    """
    if isinstance(inputs, (Tensor, np.ndarray)):
        inputs = [inputs]
    arrays = [
        (t.data if isinstance(t, Tensor) else np.asarray(t)).astype(np.float64)
        for t in inputs
    ]

    def run(arrs) -> tuple[float, list[Tensor]]:
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrs]
        out = fn(*ts)
        val = float(out.data)
        if not np.isfinite(val):
            raise FloatingPointError(f"grad_check: non-finite output {val}")
        return val, ts, out

    _, leaves, out = run(arrays)
    out.backward()
    analytic = [
        np.zeros_like(a) if t.grad is None else t.grad.astype(np.float64)
        for a, t in zip(arrays, leaves)
    ]

    max_err = 0.0
    for i, base in enumerate(arrays):
        flat = base.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp, _, _ = run(arrays)
            flat[j] = orig - eps
            fm, _, _ = run(arrays)
            flat[j] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = analytic[i].ravel()[j]
            if not (np.isfinite(numeric) and np.isfinite(a)):
                raise FloatingPointError("grad_check: non-finite gradient entry")
            denom = max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, abs(a - numeric) / denom)
    return max_err


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Every tensor of root's autodiff graph, root and leaves included."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def sgns_pair_loss_and_grads(v_center: np.ndarray, u_context: np.ndarray, u_negs: np.ndarray):
    """Loss and gradients for one positive pair plus its negative samples.

    loss = -log sigmoid(u_c . v_w) - sum_n log sigmoid(-u_n . v_w)
    Returns (loss, grad_v_center, grad_u_context, grad_u_negs).
    """
    pos_score = float(u_context @ v_center)
    neg_scores = u_negs @ v_center
    # log sigmoid via softplus for stability
    loss = math.log1p(math.exp(-abs(pos_score))) + max(-pos_score, 0.0)
    loss += float(np.sum(np.log1p(np.exp(-np.abs(neg_scores))) + np.maximum(neg_scores, 0.0)))
    g_pos = _sigmoid(pos_score) - 1.0
    g_negs = _sigmoid(neg_scores)
    grad_v = g_pos * u_context + g_negs @ u_negs
    grad_uc = g_pos * v_center
    grad_un = np.outer(g_negs, v_center)
    return loss, grad_v, grad_uc, grad_un


def total_variation(p, q) -> float:
    """Total-variation distance between two `AuthorProfile`s' word weights."""
    return 0.5 * sum(abs(a - b) for a, b in zip(p.word_weights, q.word_weights))


def encode_chars(vocab, text: str) -> list[int]:
    """A char vocabulary's token ids for one text, one character at a time:
    the oracle for the table lookup of `tokenization.encode`."""
    ids: list[int] = []
    for is_special, piece in _iter_segments(text):
        if is_special:
            ids.append(vocab.special_ids[piece])
        else:
            ids.extend(vocab.token_to_id.get(ch, vocab.unk_id) for ch in piece)
    return ids


def max_over_time_sentinel(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray, g: np.ndarray):
    """The tracked max over packed row segments with a -inf row: each
    segment's rows are gathered out to the longest segment, a step past its
    end reading a -inf row appended after the last, and the first argmax
    wins; g, the upstream gradient, is put at the winners into zeros, +0.0
    for -0.0 as a first gradient is stored. Returns (output, dL/dx)."""
    steps = np.arange(lengths.max())
    rows = np.where(steps < lengths[:, None], starts[:, None] + steps, len(x))
    padded = np.concatenate([x, np.full((1, x.shape[1]), -np.inf, dtype=x.dtype)])
    windows = np.take(padded, rows, axis=0)
    best = np.take_along_axis(rows, np.argmax(windows, axis=1), axis=1)
    cols = np.arange(x.shape[1])
    gx = np.zeros_like(x)
    gx[best, cols] = g + 0
    return x[best, cols], gx


def _first(g: np.ndarray, dtype) -> np.ndarray:
    """g as a first gradient is stored: cast to dtype, +0.0 for -0.0."""
    return g.astype(dtype) + 0


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def matmul_batched(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """a @ b by numpy's batched matmul in float64, cast back, with upstream
    gradient g: one product per batch of a, and b's gradient summed from a
    per-batch stack. Returns (output, dL/da, dL/db) as `matmul` stores them."""
    dt = np.result_type(a.dtype, b.dtype)
    a64, b64, g64 = a.astype(np.float64), b.astype(np.float64), g.astype(np.float64)
    out = np.matmul(a64, b64).astype(dt)
    ga = _unbroadcast(np.matmul(g64, np.swapaxes(b64, -1, -2)), a.shape)
    gb = _unbroadcast(np.matmul(np.swapaxes(a64, -1, -2), g64), b.shape)
    return out, _first(ga, a.dtype), _first(gb, b.dtype)


def layer_norm_xhat(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, g: np.ndarray,
                    eps: float = 1e-5):
    """Layer norm whose backward reads the forward's float64 normalized
    input. Returns (output, dL/dx, dL/dgain, dL/dbias) as `layer_norm`
    stores them."""
    mu = x.mean(axis=-1, keepdims=True, dtype=np.float64)
    xc = x.astype(np.float64) - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = (xhat * gain + bias).astype(x.dtype)
    g64 = g.astype(np.float64)
    axes = tuple(range(g.ndim - 1))
    gh = g64 * gain.astype(np.float64)
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    gx = (inv * (gh - m1 - xhat * m2)).astype(x.dtype)
    return (out, _first(gx, x.dtype), _first((g64 * xhat).sum(axis=axes), gain.dtype),
            _first(g64.sum(axis=axes), bias.dtype))


def dropout_scaled(x: np.ndarray, p: float, rng: np.random.Generator, g: np.ndarray):
    """Inverted dropout that keeps its scaled mask for the backward. Returns
    (output, dL/dx) as `dropout` stores them."""
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * keep, _first(g * keep, x.dtype)
