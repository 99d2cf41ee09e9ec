import gc
import weakref

import numpy as np
import pytest

import epistyle.numcore as nc
from epistyle.numcore import AdamState, PlateauScheduler, Tensor, adam_step, grad_check


def test_max_over_time_forward_and_grad_routing():
    x = Tensor(np.array([[1.0, 3.0], [2.0, 0.0]]), requires_grad=True)
    y = nc.max_over_time(x, axis=0)
    assert np.allclose(y.data, [2.0, 3.0])
    loss = nc.sum_(y)
    loss.backward()
    # gradient goes to the argmax positions only
    assert np.array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_l2_normalize_345():
    y = nc.l2_normalize(Tensor(np.array([3.0, 4.0])))
    assert np.allclose(y.data, [0.6, 0.8], atol=1e-7)


def test_dropout_p_zero_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    y = nc.dropout(x, p=0.0, train=True, rng=np.random.default_rng(0))
    assert np.array_equal(y.data, x.data)


def test_dropout_eval_is_identity_train_scales():
    rng = np.random.default_rng(7)
    x = Tensor(np.ones((200, 10)))
    assert np.array_equal(nc.dropout(x, 0.4, train=False).data, x.data)
    y = nc.dropout(x, 0.4, train=True, rng=rng)
    kept = y.data[y.data > 0]
    assert np.allclose(kept, 1.0 / 0.6)
    # kept fraction close to 1-p
    assert abs((y.data > 0).mean() - 0.6) < 0.03


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(8, 11)).astype(np.float32) * 10)
    y = nc.softmax(x, axis=-1)
    assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-6)


def test_layer_norm_statistics():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(2.0, 3.0, size=(6, 32)).astype(np.float32))
    y = nc.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)))
    mu = y.data.mean(axis=-1)
    var = y.data.var(axis=-1)
    assert np.all(np.abs(mu) < 1e-6)
    assert np.all(np.abs(var - 1.0) < 1e-4)


def test_attention_single_position_reduces_to_projections():
    rng = np.random.default_rng(5)
    d, h = 16, 4
    ws = {k: Tensor(rng.normal(size=(d, d)) * 0.3) for k in "qkvo"}
    bs = {k: Tensor(rng.normal(size=d) * 0.1) for k in "qvo"}
    x = Tensor(rng.normal(size=(2, 1, d)))
    y = nc.multihead_attention(
        x, ws["q"], ws["k"], ws["v"], ws["o"], bs["q"], bs["v"], bs["o"], heads=h
    )
    expected = (x.data @ ws["v"].data + bs["v"].data) @ ws["o"].data + bs["o"].data
    assert np.allclose(y.data, expected, atol=1e-10)


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(nc.ShapeError) as exc:
        nc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_concat_and_backward_split():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
    y = nc.concat([a, b], axis=1)
    assert y.shape == (2, 5)
    nc.sum_(nc.mul(y, y)).backward()
    assert np.allclose(a.grad, 2.0)
    assert np.allclose(b.grad, 4.0)


def test_embedding_lookup_out_of_range():
    table = Tensor(np.zeros((4, 8)))
    with pytest.raises(nc.ShapeError):
        nc.embedding_lookup(table, np.array([0, 4]))


# ------------------------------------------------------------- grad checks


def _rand(rng, *shape):
    return rng.normal(size=shape)


GRAD_CASES = {}


def gradcase(fn):
    GRAD_CASES[fn.__name__.removeprefix("gc_")] = fn
    return fn


@gradcase
def gc_matmul(rng):
    a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
    return lambda x, y: nc.sum_(nc.mul(nc.matmul(x, y), nc.matmul(x, y))), [a, b]


@gradcase
def gc_matmul_batched(rng):
    a, b = _rand(rng, 2, 3, 4), _rand(rng, 4, 5)
    return lambda x, y: nc.sum_(nc.exp(nc.scale(nc.matmul(x, y), 0.1))), [a, b]


@gradcase
def gc_add_broadcast(rng):
    a, b = _rand(rng, 3, 5), _rand(rng, 5)
    return lambda x, y: nc.sum_(nc.mul(nc.add(x, y), nc.add(x, y))), [a, b]


@gradcase
def gc_concat(rng):
    a, b = _rand(rng, 2, 3), _rand(rng, 2, 2)
    return lambda x, y: nc.sum_(nc.sqrt(nc.exp(nc.concat([x, y], axis=1)))), [a, b]


@gradcase
def gc_embedding(rng):
    table = _rand(rng, 6, 4)
    ids = np.array([0, 2, 2, 5])
    return lambda t: nc.sum_(nc.mul(nc.embedding_lookup(t, ids), 1.5)), [table]


@gradcase
def gc_conv(rng):
    x, f, b = _rand(rng, 7, 3), _rand(rng, 2, 3, 4), _rand(rng, 4)
    return lambda a, w, c: nc.sum_(nc.relu(nc.sliding_window_conv(a, w, c))), [x, f, b]


@gradcase
def gc_conv_batched(rng):
    x, f = _rand(rng, 2, 6, 3), _rand(rng, 3, 3, 5)
    return lambda a, w: nc.sum_(nc.mul(nc.sliding_window_conv(a, w), 0.7)), [x, f]


@gradcase
def gc_max_over_time(rng):
    x = _rand(rng, 5, 4)
    return lambda a: nc.sum_(nc.mul(nc.max_over_time(a, axis=0), 2.0)), [x]


@gradcase
def gc_relu(rng):
    x = _rand(rng, 4, 4) + 0.05  # keep away from the kink
    return lambda a: nc.sum_(nc.mul(nc.relu(a), nc.relu(a))), [x]


@gradcase
def gc_linear(rng):
    x, w, b = _rand(rng, 3, 4), _rand(rng, 4, 2), _rand(rng, 2)
    return lambda a, c, d: nc.sum_(nc.exp(nc.scale(nc.linear(a, c, d), 0.2))), [x, w, b]


@gradcase
def gc_layer_norm(rng):
    x, g, b = _rand(rng, 3, 8), _rand(rng, 8) + 1.0, _rand(rng, 8)
    return lambda a, c, d: nc.sum_(nc.mul(nc.layer_norm(a, c, d), 0.5)), [x, g, b]


@gradcase
def gc_attention(rng):
    d, h = 8, 2
    x = _rand(rng, 2, 3, d)
    mats = [_rand(rng, d, d) * 0.4 for _ in range(4)]
    vecs = [_rand(rng, d) * 0.1 for _ in range(3)]

    def fn(a, wq, wk, wv, wo, bq, bv, bo):
        return nc.sum_(nc.mul(nc.multihead_attention(a, wq, wk, wv, wo, bq, bv, bo, h), 0.3))

    return fn, [x, *mats, *vecs]


@gradcase
def gc_softmax(rng):
    x = _rand(rng, 3, 5)
    return lambda a: nc.sum_(nc.mul(nc.softmax(a, axis=-1), np.arange(5.0))), [x]


@gradcase
def gc_mean(rng):
    x = _rand(rng, 4, 3)
    return lambda a: nc.mean(nc.mul(a, a)), [x]


@gradcase
def gc_l2_normalize(rng):
    x = _rand(rng, 3, 6) + 0.4
    return lambda a: nc.sum_(nc.mul(nc.l2_normalize(a), np.arange(6.0))), [x]


@gradcase
def gc_cross_entropy(rng):
    x = _rand(rng, 4, 3) * 3
    y = np.array([0, 2, 1, 2])
    return lambda a: nc.cross_entropy(a, y), [x]


@gradcase
def gc_dropout(rng):
    x = _rand(rng, 5, 5)

    def fn(a):
        return nc.sum_(nc.dropout(a, 0.3, train=True, rng=np.random.default_rng(11)))

    return fn, [x]


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_primitive_gradients_match_finite_differences(name):
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        fn, inputs = GRAD_CASES[name](rng)
        assert grad_check(fn, inputs) <= 1e-4


def test_grad_check_quadratic_is_tight():
    x = np.random.default_rng(0).normal(size=(3, 3))
    err = grad_check(lambda a: nc.sum_(nc.mul(a, a)), [x])
    assert err < 1e-6


def test_grad_check_detects_corrupted_backward():
    def bad_square(a):
        out = nc.mul(a, a)

        def backward(out):
            a._accumulate(out.grad * 3.0 * a.data)  # deliberately wrong factor

        out._backward = backward
        return nc.sum_(out)

    x = np.random.default_rng(1).normal(size=(4,)) + 2.0
    assert grad_check(bad_square, [x]) > 1e-1


def test_backward_frees_graph_without_cyclic_gc():
    # backward closures receive their output as an argument instead of
    # capturing it, so a forward graph is freed by reference counting alone
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True)
    filt = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = nc.sliding_window_conv(x, filt)
        ref = weakref.ref(out.data)
        loss = nc.sum_(out)
        del out
        loss.backward()
        del loss
        assert ref() is None
        assert filt.grad is not None
    finally:
        if was_enabled:
            gc.enable()


def _im2col_conv_reference(x, filt, bias, g):
    """The float64 im2col/einsum conv kernel: output and input, filter and
    bias gradients for output gradient g."""
    squeeze = x.ndim == 2
    xd = (x[None] if squeeze else x).astype(np.float64)
    b_, n, d_in = xd.shape
    w, _, f = filt.shape
    t = n - w + 1
    win = np.lib.stride_tricks.sliding_window_view(xd, w, axis=1)
    cols = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(b_, t, w * d_in)
    flat = filt.reshape(w * d_in, f).astype(np.float64)
    out = cols @ flat + bias
    g64 = (g[None] if squeeze else g).astype(np.float64)
    gf = np.einsum("btc,btf->cf", cols, g64).reshape(w, d_in, f)
    gcols = (g64 @ flat.T).reshape(b_, t, w, d_in)
    gx = np.zeros_like(xd)
    for j in range(w):
        gx[:, j : j + t] += gcols[:, :, j]
    gb = g64.sum(axis=(0, 1))
    if squeeze:
        out, gx = out[0], gx[0]
    return out, gx, gf, gb


@pytest.mark.parametrize("shape", [(4, 30, 16), (30, 16)], ids=["batched", "2d"])
@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)],
                         ids=["float32", "float64"])
def test_conv_matches_im2col_reference(shape, dtype, tol):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape).astype(dtype)
    filt = rng.normal(size=(5, 16, 8)).astype(dtype)
    bias = rng.normal(size=8).astype(dtype)
    xt, ft, bt = (Tensor(a, requires_grad=True) for a in (x, filt, bias))
    out = nc.sliding_window_conv(xt, ft, bt)
    g = rng.normal(size=out.shape).astype(dtype)
    nc.sum_(nc.mul(out, Tensor(g))).backward()
    want = _im2col_conv_reference(x, filt, bias, g)
    for got, ref in zip((out.data, xt.grad, ft.grad, bt.grad), want):
        assert got.dtype == dtype and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())


# ------------------------------------------------------------------ adam


def test_adam_zero_gradient_leaves_params():
    p = {"w": np.ones(3, dtype=np.float32)}
    st = {"w": AdamState.for_param(p["w"])}
    adam_step(p, {"w": np.zeros(3, dtype=np.float32)}, st, lr=1e-3)
    assert np.array_equal(p["w"], np.ones(3, dtype=np.float32))


def test_adam_first_step_closed_form():
    p = {"w": np.zeros((), dtype=np.float64)}
    st = {"w": AdamState.for_param(p["w"])}
    adam_step(p, {"w": np.array(1.0)}, st, lr=1e-3)
    # bias-corrected first step: -lr * g / (|g| + eps)
    assert abs(float(p["w"]) + 1e-3) < 1e-9


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(42)
        p = {"w": rng.normal(size=8).astype(np.float32)}
        st = {"w": AdamState.for_param(p["w"])}
        for _ in range(25):
            adam_step(p, {"w": rng.normal(size=8).astype(np.float32)}, st, lr=1e-2)
        return p["w"]

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    p = {"w": np.ones(2, dtype=np.float32)}
    st = {"w": AdamState.for_param(p["w"])}
    with pytest.raises(FloatingPointError, match="w"):
        adam_step(p, {"w": np.array([1.0, np.nan], dtype=np.float32)}, st, lr=1e-3)


def test_plateau_scheduler_halves_after_patience():
    sched = PlateauScheduler(lr=1.0, patience=5)
    sched.step(1.0)
    for _ in range(4):
        assert sched.step(2.0) == 1.0
    assert sched.step(2.0) == 0.5  # 5th non-improving epoch
    assert sched.best == 1.0


# ------------------------------------------------------------ checkpoints


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    params = {
        "emb.tok": rng.normal(size=(7, 4)).astype(np.float32),
        "fc.w": rng.normal(size=(4, 2)).astype(np.float32),
        "fc.b": rng.normal(size=2).astype(np.float32),
    }
    path = tmp_path / "model.bin"
    nc.save_checkpoint(path, params)
    assert path.read_bytes()[:5] == b"EPST1"
    loaded = nc.load_checkpoint(path)
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "model.bin"
    nc.save_checkpoint(path, {"emb.tok": np.ones((7, 4), dtype=np.float32)})
    raw = path.read_bytes()
    # magic 0-4, count 5-8, name length 9-10, name 11-17, ndim 18, shape 19-26, data 27-138
    for cut in (3, 7, 10, 14, 18, 22, 60, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="model.bin"):
            nc.load_checkpoint(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        nc.load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        nc.load_checkpoint(path)
