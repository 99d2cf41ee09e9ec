import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epistyle.numcore as nc
from epistyle.numcore import (
    AdamState, PlateauScheduler, Tensor, adam_step, clip_global_norm,
)
from reference import grad_check, max_over_time_sentinel


def test_max_over_time_forward_and_grad_routing():
    x = Tensor(np.array([[1.0, 3.0], [2.0, 0.0]]), requires_grad=True)
    y = nc.max_over_time(x, np.array([0]), np.array([2]))
    assert np.allclose(y.data, [[2.0, 3.0]])
    loss = nc.sum_(y)
    loss.backward()
    # gradient goes to the argmax positions only
    assert np.array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def _relu_mask_max_reference(x, lengths, g):
    """The unfused text-CNN pooling in plain numpy: ReLU, an additive float32
    -1e30 mask on padded steps, then max over axis 1 with the gradient g
    routed to the first argmax; each op's input gradient starts from zeros,
    as the autodiff core's accumulation does. Returns (output, dL/dx)."""
    t = x.shape[1]
    r = np.maximum(x, 0)
    mask = np.where(np.arange(t)[None, :] < lengths[:, None], 0.0, -1e30)
    m = r + mask.astype(np.float32)[..., None]
    idx = np.expand_dims(np.argmax(m, axis=1), 1)
    out = np.take_along_axis(m, idx, axis=1).squeeze(1)
    g_m = np.zeros_like(m)
    np.put_along_axis(g_m, idx, np.expand_dims(g, 1), axis=1)
    g_r = np.zeros_like(r) + g_m
    return out, np.zeros_like(x) + g_r * (x > 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_masked_max_then_relu_equals_relu_mask_max_bit_for_bit(dtype):
    rng = np.random.default_rng(21)
    b, t, f = 12, 7, 5
    x = rng.normal(size=(b, t, f))
    x[1] = -np.abs(x[1])  # every step <= 0
    x[2, :, :2] = 0.0  # exact zeros
    x[3, 1:4] = -np.abs(x[3, 1:4])
    x[3, 1, 0] = x[3, 2, 0] = x[3, 3, 0] = 0.0  # a tie at 0 below the real max
    x[4] = np.round(x[4])  # ties between steps
    x[5, :, 1] = 1.5  # a positive tie over every step
    lengths = np.array([1, t, t, 4, 5, 3, 1, 2, 6, t, 3, 2])
    pad = np.arange(t)[None, :] >= lengths[:, None]
    x[pad] = 1e6  # padding that would win an unmasked max
    x = x.astype(dtype)
    g = rng.normal(size=(b, f)).astype(dtype)
    want_y, want_gx = _relu_mask_max_reference(x, lengths, g)
    # packed: row i's steps are rows i*t .. i*t + t - 1, its padding the rows
    # past its segment
    xt = Tensor(x.reshape(b * t, f).copy(), requires_grad=True)
    y = nc.relu(nc.max_over_time(xt, np.arange(b) * t, lengths))
    nc.sum_(nc.mul(y, Tensor(g))).backward()
    got_y, got_gx = y.data, xt.grad.reshape(b, t, f)
    assert np.array_equal(xt.data, x.reshape(b * t, f))  # the input is never written
    for got, want in ((got_y, want_y), (got_gx, want_gx)):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert not got_gx[pad].any()


@pytest.mark.parametrize("lengths", [
    np.array([2, 3]),  # one length too few
    np.array([[2, 3, 3]]),  # not 1-d
    np.array([2, 0, 3]),  # zero steps
    np.array([2, -1, 3]),
    np.array([2, 5, 3]),  # past its post, into the next one's rows
    np.array([2.0, 3.0, 3.0]),  # not integers
], ids=["short", "2d", "zero", "negative", "too-long", "float"])
def test_max_over_time_rejects_bad_lengths(lengths):
    x = Tensor(np.ones((12, 2)), requires_grad=True)
    with pytest.raises(nc.ShapeError, match="lengths"):
        nc.max_over_time(x, np.array([0, 4, 8]), lengths)


@pytest.mark.parametrize("rows, starts", [
    ((12, 2), np.array([0, 8, 4])),  # out of order
    ((12, 2), np.array([0, 3, 8])),  # overlapping
    ((12, 2), np.array([-1, 4, 8])),
    ((12, 2), np.array([0, 4, 10])),  # past the last row
    ((12, 2), np.array([0.0, 4.0, 8.0])),  # not integers
    ((12, 2), np.array([], dtype=np.int64)),  # no segment
    ((12,), np.array([0, 4, 8])),  # rows without columns
    ((3, 4, 2), np.array([0, 4, 8])),  # not packed rows
], ids=["unordered", "overlap", "negative", "past-end", "float", "empty", "1d", "3d"])
def test_max_over_time_rejects_bad_starts(rows, starts):
    lengths = np.full(starts.shape, 4, dtype=np.int64)
    with pytest.raises(nc.ShapeError, match="lengths"):
        nc.max_over_time(Tensor(np.ones(rows)), starts, lengths)


def _bits(a):
    """The float bits of a as unsigned integers, so NaNs and zeros compare
    by their payload and sign."""
    a = np.asarray(a)
    return a.view(f"u{a.dtype.itemsize}")


def _first_gradient(g, like):
    """A first gradient as the autodiff core stores it: cast, copied, and
    -0.0 turned into +0.0."""
    return np.add(g.astype(like.dtype), 0, out=np.empty_like(like))


def _upstream_with_zero_signs(rng, shape, dtype):
    """An upstream gradient with -0.0 and +0.0 entries and a NaN."""
    g = rng.normal(size=shape).astype(dtype)
    g[rng.random(shape) < 0.3] = -0.0
    g[rng.random(shape) < 0.2] = 0.0
    g.reshape(-1)[3] = np.nan
    return g


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("preset", [False, True], ids=["handed-over", "accumulated"])
def test_max_over_time_backward_equals_the_dense_route_bit_for_bit(dtype, preset):
    # the dense route: a zero array with out.grad put at the first argmax,
    # then accumulated as a copy
    rng = np.random.default_rng(22)
    x = rng.normal(size=(6, 9, 4)).astype(dtype)
    lengths = np.array([9, 1, 4, 9, 2, 7])
    a = Tensor(x.reshape(54, 4), requires_grad=True)  # packed, segment i at row 9i
    out = nc.max_over_time(a, np.arange(6) * 9, lengths)
    g = _upstream_with_zero_signs(rng, out.shape, dtype)
    idx = np.expand_dims(np.argmax(np.where((np.arange(9) < lengths[:, None])[..., None], x, -np.inf),
                                   axis=1), 1)
    dense = np.zeros_like(x)
    np.put_along_axis(dense, idx, np.expand_dims(g, 1), axis=1)
    dense = dense.reshape(54, 4)
    pre = rng.normal(size=dense.shape).astype(dtype)
    if preset:
        a.grad = pre.copy()
        want = pre + dense
    else:
        want = _first_gradient(dense, dense)
    out.grad = g
    out._backward(out)
    assert a.grad.dtype == dtype and np.array_equal(_bits(a.grad), _bits(want))


_AWKWARD_CELLS = st.one_of(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan]),
                           st.floats(-2.0, 2.0, width=32))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       layout=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6)), min_size=1, max_size=6),
       cols=st.integers(1, 4), tail=st.integers(0, 2))
def test_tracked_max_over_time_equals_the_sentinel_route_bit_for_bit(data, dtype, layout, cols, tail):
    # (gap before, length) per segment and a gap after the last; cells drawn
    # with ties, +-0.0, NaN and infinities, and maybe a column all -inf
    gaps, lengths = (np.array(v) for v in zip(*layout))
    starts = np.cumsum(gaps) + np.cumsum(lengths) - lengths
    n = int(starts[-1] + lengths[-1]) + tail
    x = np.array(data.draw(st.lists(_AWKWARD_CELLS, min_size=n * cols, max_size=n * cols)),
                 dtype=dtype).reshape(n, cols)
    if data.draw(st.booleans()):
        x[:, data.draw(st.integers(0, cols - 1))] = -np.inf
    shape = (len(starts), cols)
    signed = np.array(data.draw(st.lists(st.sampled_from([-0.0, 0.0, np.nan, 1.5, -2.0]),
                                         min_size=shape[0] * cols, max_size=shape[0] * cols)),
                      dtype=dtype).reshape(shape)
    # distinct nonzero upstream values make the input gradient name the winners
    distinct = np.arange(1, signed.size + 1, dtype=dtype).reshape(shape)
    for g in (distinct, signed):
        a = Tensor(x.copy(), requires_grad=True)
        out = nc.max_over_time(a, starts, lengths)
        want_y, want_gx = max_over_time_sentinel(x, starts, lengths, g)
        out.grad = g
        out._backward(out)
        assert out.dtype == dtype and np.array_equal(_bits(out.data), _bits(want_y))
        assert a.grad.dtype == dtype and np.array_equal(_bits(a.grad), _bits(want_gx))
        assert np.array_equal(_bits(a.data), _bits(x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_untracked_max_over_time_equals_tracked_values(dtype):
    # np.max may return either zero of a +-0.0 tie, so values, not bits
    rng = np.random.default_rng(23)
    x = rng.normal(size=(7, 6, 3)).astype(dtype)
    x[0, :, 0] = [-0.0, 0.0, -1.0, -0.0, 0.0, -2.0]  # a +-0.0 tie, -0.0 first
    x[1, :, 1] = [0.0, -0.0, -3.0, 0.0, -0.0, -1.0]  # a +-0.0 tie, +0.0 first
    x[2] = -0.0  # every step -0.0
    x[3, 2, :] = np.nan  # a NaN window
    x[4, :, 2] = np.nan
    packed, starts = x.reshape(42, 3), np.arange(7) * 6
    for lengths in (np.array([6, 6, 3, 6, 5, 1, 2]), np.full(7, 6)):
        untracked = nc.max_over_time(Tensor(packed), starts, lengths)
        tracked = nc.max_over_time(Tensor(packed, requires_grad=True), starts, lengths)
        assert untracked._backward is None and untracked.dtype == dtype
        assert np.array_equal(untracked.data, tracked.data, equal_nan=True)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("chunk", [None, 7], ids=["one-chunk", "7-element-chunks"])
@pytest.mark.parametrize("preset", [False, True], ids=["fresh", "accumulated"])
def test_embedding_backward_equals_row_wise_add_at_bit_for_bit(dtype, chunk, preset, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(nc.tensor, "_SCATTER_CHUNK", chunk)  # 2 rows of 3 per chunk
    rng = np.random.default_rng(26)
    table = Tensor(rng.normal(size=(5, 3)).astype(dtype), requires_grad=True)
    ids = rng.integers(0, 5, size=(4, 6))  # 24 rows, every id repeated
    out = nc.embedding_lookup(table, ids)
    g = _upstream_with_zero_signs(rng, out.shape, dtype)
    g[1, 2] = 0.0  # all-zero rows
    g[2, :3] = -0.0
    pre = rng.normal(size=table.shape).astype(dtype)
    want = pre.copy() if preset else np.zeros_like(table.data)
    np.add.at(want, ids.ravel(), g.reshape(-1, 3))
    table.grad = pre.copy() if preset else None
    out.grad = g
    out._backward(out)
    assert np.array_equal(_bits(table.grad), _bits(want))


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
    x, f = _rand(rng, 12, 3), _rand(rng, 3, 3, 5)  # two posts' rows packed
    return lambda a, w: nc.sum_(nc.mul(nc.sliding_window_conv(a, w), 0.7)), [x, f]


@gradcase
def gc_max_over_time(rng):
    x = _rand(rng, 5, 4)
    return lambda a: nc.sum_(nc.mul(nc.max_over_time(a, np.array([0]), np.array([5])), 2.0)), [x]


@gradcase
def gc_max_over_time_lengths(rng):
    x = _rand(rng, 3, 5, 2)
    lengths = np.array([2, 5, 1])
    x[np.arange(5)[None, :] >= lengths[:, None]] += 50.0  # padding that must not win
    x = x.reshape(15, 2)
    return lambda a: nc.sum_(nc.mul(nc.max_over_time(a, np.array([0, 5, 10]), lengths), 2.0)), [x]


@gradcase
def gc_conv_max_over_time(rng):
    # max pooling after the conv leaves most rows of the conv's upstream
    # gradient zero, the case its backward skips; three posts of 9 rows
    # packed, each with 7 windows, of which the first 7, 2 and 5 are pooled
    x, f, b = _rand(rng, 27, 4), _rand(rng, 3, 4, 5), _rand(rng, 5)
    starts, lengths = np.array([0, 9, 18]), np.array([7, 2, 5])

    def fn(a, w, c):
        pooled = nc.max_over_time(nc.sliding_window_conv(a, w, c), starts, lengths)
        return nc.sum_(nc.mul(pooled, np.linspace(0.5, 2.0, 5)))

    return fn, [x, f, b]


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
    x = Tensor(rng.normal(size=(12, 4)), requires_grad=True)
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
    """The float64 im2col/einsum conv kernel over 2-d rows: output and input,
    filter and bias gradients for output gradient g."""
    xd = x.astype(np.float64)
    n, d_in = xd.shape
    w, _, f = filt.shape
    t = n - w + 1
    win = np.lib.stride_tricks.sliding_window_view(xd, w, axis=0)
    cols = np.ascontiguousarray(win.transpose(0, 2, 1)).reshape(t, w * d_in)
    flat = filt.reshape(w * d_in, f).astype(np.float64)
    out = cols @ flat + bias
    g64 = g.astype(np.float64)
    gf = (cols.T @ g64).reshape(w, d_in, f)
    gcols = (g64 @ flat.T).reshape(t, w, d_in)
    gx = np.zeros_like(xd)
    for j in range(w):
        gx[j : j + t] += gcols[:, j]
    return out, gx, gf, g64.sum(axis=0)


# "batched" packs four posts' rows; "blocks" runs past one block of rows
@pytest.mark.parametrize("shape", [(4 * 30, 16), (30, 16), (9000, 16)],
                         ids=["batched", "2d", "blocks"])
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


@pytest.mark.parametrize("d_in, f", [(32, 32), (16, 16), (4, 4)])
def test_packed_conv_rows_equal_each_post_alone_bit_for_bit(d_in, f):
    # every output row is the same GEMM row per tap whatever block it runs
    # in; the posts span several blocks, and the last block would be one row
    rng = np.random.default_rng(26)
    w = 3
    lengths = rng.integers(w + 1, 200, size=40)  # each post alone has 2 or more windows
    step = max(2, nc.tensor._CONV_BLOCK_MACS // (d_in * f))
    lengths[-1] += (1 - (lengths.sum() - w + 1)) % step
    x = rng.normal(size=(lengths.sum(), d_in)).astype(np.float32)
    filt, bias = rng.normal(size=(w, d_in, f)).astype(np.float32), rng.normal(size=f).astype(np.float32)
    packed = nc.sliding_window_conv(Tensor(x), Tensor(filt), Tensor(bias)).data
    assert len(packed) % step == 1 or len(packed) < step
    for start, n in zip(np.cumsum(lengths) - lengths, lengths):
        alone = nc.sliding_window_conv(Tensor(x[start : start + n]), Tensor(filt), Tensor(bias)).data
        assert alone.tobytes() == packed[start : start + n - w + 1].tobytes()


def _dense_conv_backward(x, filt, g):
    """The conv backward over every row of g, as plain numpy in float64:
    (dL/dx, dL/dfilt, dL/dbias) before their first accumulation."""
    x, filt, g = (a.astype(np.float64) for a in (x, filt, g))
    w = filt.shape[0]
    t = len(x) - w + 1
    gf = np.stack([x[j : j + t].T @ g for j in range(w)])
    gx = np.zeros_like(x)
    for j in range(w):
        gx[j : j + t] += g @ filt[j].T
    return gx, gf, g.sum(axis=0)


# The gathered-row backward sums in another order than the dense route, so
# each gradient is held to this share of its float64 reference's largest |entry|.
_CONV_GRAD_RTOL = 1e-5


def _assert_conv_gradient(got, ref, dtype):
    assert got.dtype == dtype and got.shape == ref.shape
    assert not np.signbit(got[got == 0]).any()  # a .grad never holds -0.0
    bound = _CONV_GRAD_RTOL * np.nanmax(np.abs(ref), initial=0.0)
    np.testing.assert_allclose(got, ref, rtol=0, atol=bound, equal_nan=True)


def _pooled_gradient(rng, posts, n, w, f, dtype):
    """A max-pool gradient for `posts` posts of n rows packed: one nonzero
    window per (post, filter), early windows more often, so most rows of g
    are zero."""
    g = np.zeros((posts * n - w + 1, f), dtype=dtype)
    t = n - w + 1
    steps = rng.integers(0, t, size=(posts, f)) % rng.integers(1, t + 1, size=(posts, 1))
    g[np.arange(posts)[:, None] * n + steps, np.arange(f)] = rng.normal(size=(posts, f))
    return g


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("posts, n, d_in, w, f", [
    (1, 40, 8, 3, 6),  # one post
    (5, 70, 16, 4, 12),
    (3, 40, 32, 5, 32),  # the model's widths, few rows
    (3, 20, 6, 2, 32),  # an input width that is not a multiple of 4
    (20, 30, 4, 2, 1),  # one filter
], ids=["2d", "batched", "model-widths", "width-6", "one-filter"])
@pytest.mark.parametrize("pattern", ["pooled", "signed-zeros", "nan-row", "dense", "zero"])
def test_conv_backward_matches_the_float64_dense_route(dtype, posts, n, d_in, w, f, pattern):
    rng = np.random.default_rng(24)
    x = rng.normal(size=(posts * n, d_in)).astype(dtype)
    filt = (rng.normal(size=(w, d_in, f)) * 0.3).astype(dtype)
    bias = rng.normal(size=f).astype(dtype)
    xt, ft, bt = (Tensor(a, requires_grad=True) for a in (x, filt, bias))
    out = nc.sliding_window_conv(xt, ft, bt)
    g = _pooled_gradient(rng, posts, n, w, f, dtype)
    if pattern == "signed-zeros":
        g[g == 0] = -0.0
        g[1 : n - w + 1 : 2] = 0.0
    elif pattern == "nan-row":
        g[-(n - w + 1) // 2, 0] = np.nan
    elif pattern == "dense":
        g = rng.normal(size=g.shape).astype(dtype)
    elif pattern == "zero":
        g[:] = 0.0
    out.grad = g
    out._backward(out)
    for got, ref in zip((xt.grad, ft.grad, bt.grad), _dense_conv_backward(x, filt, g)):
        _assert_conv_gradient(got, ref, dtype)


def test_conv_input_gradient_adds_to_an_existing_gradient():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(6 * 30, 8)).astype(np.float32)
    filt = rng.normal(size=(3, 8, 4)).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    out = nc.sliding_window_conv(xt, Tensor(filt))
    g = _pooled_gradient(rng, 6, 30, 3, 4, np.float32)
    pre = rng.normal(size=x.shape).astype(np.float32)
    xt.grad = pre.copy()
    out.grad = g
    out._backward(out)
    _assert_conv_gradient(xt.grad, pre + _dense_conv_backward(x, filt, g)[0], np.float32)


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


def test_clip_global_norm_ignores_dict_order():
    # summed front to back the two 1.0 squares vanish into 1e16; summed
    # back to front they do not
    grads = {"a": np.array([1e8]), "b": np.array([1.0]), "c": np.array([1.0])}
    backwards = dict(reversed(grads.items()))
    assert clip_global_norm(grads, np.inf) == clip_global_norm(backwards, np.inf)


def test_plateau_scheduler_halves_after_patience():
    sched = PlateauScheduler(lr=1.0)
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


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_checkpoint_rejects_a_non_finite_block(tmp_path, value):
    path = tmp_path / "model.bin"
    bad = np.ones((2, 3), dtype=np.float32)
    bad[1, 2] = value
    nc.save_checkpoint(path, {"emb.tok": np.ones(4, dtype=np.float32), "text_fc.w": bad})
    with pytest.raises(ValueError, match="model.bin: block 'text_fc.w' holds a non-finite value"):
        nc.load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        nc.load_checkpoint(path)
