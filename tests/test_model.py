import math

import numpy as np
import pytest

import epistyle.numcore as nc
from epistyle.corpus import Episode, Post
from epistyle.model import (
    EpisodeModel,
    MetricHead,
    ModelConfig,
    PostEncoder,
    day_of_week,
    make_episode_batch,
)
from epistyle.numcore import Tensor
from epistyle.tokenization import train_char_vocab
from reference import grad_check


def tiny_config(pooling="mean", **kw):
    defaults = dict(
        d_token=4, d_text=8, d_time=4, d_context=6,
        filter_sizes=(2, 3), filters_per_size=4, dropout=0.1,
        pooling=pooling, tf_layers=1, tf_heads=2, tf_ff=8,
        tf_model_dim=8, tf_out_dim=4, tokenizer_kind="char", max_tokens=64,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def make_post(body, author="alice", market="m1", subforum="s1", ts=1356998400.0, pid="p1"):
    return Post(market=market, subforum=subforum, thread_id="t1", post_id=pid,
                author=author, timestamp=ts, is_thread_start=False, body=body)


@pytest.fixture()
def setup():
    vocab = train_char_vocab(["hello world this is text abcdef"], size=40)
    cfg = tiny_config(vocab_size=len(vocab))
    model = EpisodeModel.build(cfg, markets={"m1": ["s1", "s2"]}, seed=0)
    encoder = PostEncoder(vocab, cfg.max_tokens)
    return vocab, cfg, model, encoder


# ----------------------------------------------------------------- config


def test_config_dims_bookkeeping():
    cfg = ModelConfig(vocab_size=100)
    assert cfg.post_dim == 128 + 64 + 128 == 320
    assert cfg.episode_dim == 320
    assert ModelConfig(vocab_size=100, pooling="transformer").episode_dim == 32
    assert cfg.conv_width == 4 * 32 == 128


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d_text=0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, pooling="attention")
    with pytest.raises(ValueError, match="max_tokens"):
        ModelConfig(vocab_size=10, max_tokens=4)  # below the widest default filter, 5


def episode(*posts):
    return Episode(market=posts[0].market, author=posts[0].author, posts=posts)


def embed(model, encoder, *episodes):
    """Eval-mode episode embeddings as an array, (len(episodes), E)."""
    return model.embed_episodes(make_episode_batch(list(episodes), encoder, model)).data


# ------------------------------------------------------------------- text
# A one-post episode under mean pooling is its post embedding:
# [text (d_text) | time (d_time) | context (d_context)].


def test_embed_text_short_sequence_padded_finite(setup):
    vocab, cfg, model, encoder = setup
    ep = episode(make_post("hi"))
    batch = make_episode_batch([ep], encoder, model)
    assert batch.pad_lengths.tolist() == [cfg.max_filter]
    text = model.embed_episodes(batch).data[0, : cfg.d_text]
    assert text.shape == (cfg.d_text,)
    assert np.all(np.isfinite(text))


def test_embed_text_deterministic_eval(setup):
    vocab, cfg, model, encoder = setup
    ep = episode(make_post("hello world", subforum="s2"))
    assert np.array_equal(embed(model, encoder, ep), embed(model, encoder, ep))


def test_embed_text_order_sensitivity(setup):
    # reversal shares no bigrams/trigrams, so the window maxima must differ
    vocab, cfg, model, encoder = setup
    out = embed(model, encoder, episode(make_post("abcdef", pid="fwd")),
                episode(make_post("fedcba", pid="rev")))
    assert not np.array_equal(out[0, : cfg.d_text], out[1, : cfg.d_text])


def test_embed_text_out_of_range_id(setup):
    vocab, cfg, model, encoder = setup
    batch = make_episode_batch([episode(make_post("hello"))], encoder, model)
    batch.token_ids[1] = len(vocab) + 5
    with pytest.raises(nc.ShapeError):
        model.embed_episodes(batch)


def test_batch_text_features_equal_each_post_alone_bit_for_bit():
    # a post's windows never reach the next post's rows, so its text
    # features do not depend on the batch around it, even for a post whose
    # whole packed input is one window ("abc", "" and "[QUOTE][QUOTE]")
    vocab = train_char_vocab(["hello world this is text abcdef"], size=40)
    bodies = ["ab", "a much longer body of text here", "hello [LINK] world", "abc",
              "this is text this is text this is text", "", "[QUOTE][QUOTE]"]
    eps = [episode(make_post(body, pid=f"p{i}")) for i, body in enumerate(bodies)]
    for d_token in (4, 32):
        cfg = tiny_config(vocab_size=len(vocab), d_token=d_token)
        model = EpisodeModel.build(cfg, markets={"m1": ["s1", "s2"]}, seed=0)
        encoder = PostEncoder(vocab, cfg.max_tokens)
        batch = make_episode_batch(eps, encoder, model)
        assert batch.pad_lengths.min() == cfg.max_filter
        both = model.embed_episodes(batch).data[:, : cfg.d_text]
        for i, ep in enumerate(eps):
            alone = model.embed_episodes(make_episode_batch([ep], encoder, model)).data
            assert alone[0, : cfg.d_text].tobytes() == both[i].tobytes(), (d_token, bodies[i])


def test_post_encoder_ids_equal_for_a_post_twice_in_one_call_and_across_calls(setup):
    vocab, cfg, model, encoder = setup
    posts = [make_post("hello [LINK] world", pid="p1"),
             make_post("abc", ts=1356998400.0 + 86400 * 3 - 4e-7, pid="p2")]
    first = encoder.ids(posts + posts[:1])
    second = encoder.ids(posts)
    for got, want in ((first[2], first[0]), (second[0], first[0]), (second[1], first[1])):
        assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
        assert got[1] == want[1]
    assert [day for _, day in first] == [day_of_week(p.timestamp) for p in posts + posts[:1]]


# ------------------------------------------------------------------- time


def time_slice(cfg, out):
    return out[:, cfg.d_text : cfg.d_text + cfg.d_time]


def test_embed_time_calendar_oracle(setup):
    vocab, cfg, model, encoder = setup
    jan1_2013 = 1356998400.0  # a Tuesday
    assert day_of_week(jan1_2013) == 1
    out = embed(model, encoder, episode(make_post("hello", ts=jan1_2013)))
    assert np.array_equal(time_slice(cfg, out)[0], model.params["time_emb"].data[1])


def test_batch_day_of_week_is_day_of_week_at_midnight_and_just_before(setup):
    # day_of_week rounds to the microsecond first, so 0.4 us before a
    # midnight is already the next day there
    vocab, cfg, model, encoder = setup
    stamps = [t for day in (1, 10, 15706, 15707, 20000) for t in (day * 86400.0, day * 86400.0 - 4e-7)]
    posts = [make_post("hello", ts=t, pid=f"p{i}") for i, t in enumerate(stamps)]
    batch = make_episode_batch([episode(p) for p in posts], encoder, model)
    assert batch.dow.tolist() == [day_of_week(t) for t in stamps]
    assert day_of_week(863999.9999996) == 6  # Sunday 11 January 1970, not Saturday


def test_embed_time_weekly_periodicity(setup):
    vocab, cfg, model, encoder = setup
    t = 1356998400.0
    out = embed(model, encoder, episode(make_post("hello", ts=t, pid="a")),
                episode(make_post("hello", ts=t + 7 * 86400, pid="b")))
    assert np.array_equal(time_slice(cfg, out)[0], time_slice(cfg, out)[1])


def test_time_rows_distinct_after_init(setup):
    vocab, cfg, model, encoder = setup
    rows = model.params["time_emb"].data
    for i in range(7):
        for j in range(i + 1, 7):
            assert not np.array_equal(rows[i], rows[j])


# ---------------------------------------------------------------- context


def test_context_pretrained_init_identity():
    vocab = train_char_vocab(["abc"], size=20)
    cfg = tiny_config(vocab_size=len(vocab))
    init = {"m1": {"s1": np.arange(cfg.d_context, dtype=np.float32)}}
    model = EpisodeModel.build(cfg, markets={"m1": ["s1", "s2"]}, seed=1, context_init=init)
    encoder = PostEncoder(vocab, cfg.max_tokens)
    out = embed(model, encoder, episode(make_post("abc", subforum="s1")))
    assert np.array_equal(out[0, -cfg.d_context :], init["m1"]["s1"])


def test_context_unknown_subforum_uses_unk_row(setup):
    vocab, cfg, model, encoder = setup
    out = embed(model, encoder, episode(make_post("hello", subforum="never-seen")))
    assert np.array_equal(out[0, -cfg.d_context :], model.params["context.m1"].data[0])


def test_context_same_subforum_equal(setup):
    vocab, cfg, model, encoder = setup
    out = embed(model, encoder, episode(make_post("hello", subforum="s2", pid="a")),
                episode(make_post("other text", subforum="s2", pid="b")))
    assert np.array_equal(out[0, -cfg.d_context :], out[1, -cfg.d_context :])


def test_context_mixed_markets_take_their_own_rows_and_gradients():
    # one lookup over the batch's stacked tables: each post reads its own
    # market's row, and each table's gradient is its posts' rows added in
    # batch order; m3, absent from the batch, gets no gradient
    vocab = train_char_vocab(["hello world abc"], size=30)
    cfg = tiny_config(vocab_size=len(vocab))
    model = EpisodeModel.build(cfg, markets={"m1": ["s1", "s2"], "m2": ["s1", "s2", "s3"],
                                             "m3": ["s1"]}, seed=4)
    encoder = PostEncoder(vocab, cfg.max_tokens)
    keys = [("m2", "s3"), ("m1", "s2"), ("m2", "never-seen"), ("m1", "s2"), ("m2", "s3"),
            ("m1", "s1"), ("m2", "s1")]
    posts = [make_post("hello world"[i:], market=m, subforum=sf, pid=f"p{i}")
             for i, (m, sf) in enumerate(keys)]
    batch = make_episode_batch([episode(p) for p in posts], encoder, model)
    assert batch.ctx_markets == ["m1", "m2"]
    out = model.embed_episodes(batch)
    g = np.random.default_rng(0).normal(size=out.shape).astype(np.float32)
    nc.sum_(nc.mul(out, Tensor(g))).backward()

    want = {m: np.zeros_like(model.params[f"context.{m}"].data) for m in ("m1", "m2")}
    for i, (m, sf) in enumerate(keys):
        row = model.subforum_maps[m].get(sf, 0)
        assert np.array_equal(out.data[i, -cfg.d_context:], model.params[f"context.{m}"].data[row])
        np.add.at(want[m], row, g[i, -cfg.d_context:])
    for m, w in want.items():
        got = model.params[f"context.{m}"].grad
        assert (got.dtype, got.tobytes()) == (w.dtype, w.tobytes())
    assert model.params["context.m3"].grad is None


# ------------------------------------------------------------------- post


def test_embed_post_dimension_and_locality(setup):
    vocab, cfg, model, encoder = setup
    ep = episode(make_post("hello"))
    before = embed(model, encoder, ep)[0]
    assert before.shape == (cfg.post_dim,)
    model.params["token_emb"].data = np.zeros_like(model.params["token_emb"].data)
    model.params["text_fc.w"].data = np.zeros_like(model.params["text_fc.w"].data)
    after = embed(model, encoder, ep)[0]
    tail = cfg.d_time + cfg.d_context
    assert np.array_equal(before[-tail:], after[-tail:])
    assert not np.array_equal(before[: cfg.d_text], after[: cfg.d_text])


def test_equal_posts_equal_rows(setup):
    vocab, cfg, model, encoder = setup
    ep = episode(make_post("same text"))
    out = embed(model, encoder, ep, ep)
    assert np.array_equal(out[0], out[1])


# ---------------------------------------------------------------- pooling


def _same_time_posts(n):
    # one timestamp, so every order of the posts is a valid episode
    subforums = ["s1", "s2", "never-seen"]
    return [make_post(f"post {i} " + "abcdef"[: i + 1], subforum=subforums[i % 3], pid=f"p{i}")
            for i in range(n)]


def test_pool_mean_identity_and_cancellation(setup):
    vocab, cfg, model, encoder = setup
    posts = _same_time_posts(2)
    rows = embed(model, encoder, *(episode(p) for p in posts))
    pooled = embed(model, encoder, episode(*posts))[0]
    assert np.allclose(pooled, rows.mean(axis=0), atol=1e-7)


def test_pool_mean_permutation_invariant(setup):
    vocab, cfg, model, encoder = setup
    posts = _same_time_posts(5)
    out = embed(model, encoder, episode(*posts), episode(*posts[::-1]))
    assert np.array_equal(out[0], out[1])


def test_pool_transformer_shape_and_single_post():
    vocab = train_char_vocab(["abc"], size=20)
    cfg = tiny_config(pooling="transformer", vocab_size=len(vocab))
    model = EpisodeModel.build(cfg, markets={"m1": ["s1"]}, seed=2)
    out = embed(model, PostEncoder(vocab, cfg.max_tokens), episode(make_post("abc")))
    assert out.shape == (1, cfg.tf_out_dim)
    assert np.all(np.isfinite(out))


def test_pool_transformer_permutation_invariant_eval():
    vocab = train_char_vocab(["post abcdef"], size=20)
    cfg = tiny_config(pooling="transformer", vocab_size=len(vocab), tf_layers=2)
    model = EpisodeModel.build(cfg, markets={"m1": ["s1", "s2"]}, seed=4)
    posts = _same_time_posts(5)
    perm = np.random.default_rng(5).permutation(5)
    out = embed(model, PostEncoder(vocab, cfg.max_tokens), episode(*posts),
                episode(*(posts[i] for i in perm)))
    assert np.array_equal(out[0], out[1])


def test_episode_dim_reported_matches_config(setup):
    vocab, cfg, model, encoder = setup
    ep = Episode(market="m1", author="alice", posts=(make_post("hello"),))
    batch = make_episode_batch([ep], encoder, model)
    assert model.embed_episodes(batch).shape == (1, cfg.episode_dim)


# ------------------------------------------------------------------ losses


def _head(kind, n=2, dim=4, **kw):
    return MetricHead.build(kind, "t", n_labels=n, dim=dim, seed=0, **kw)


def test_loss_softmax_uniform_when_w_zero():
    head = _head("sm", n=5)
    head.weight.data = np.zeros_like(head.weight.data)
    emb = Tensor(np.random.default_rng(0).normal(size=(1, 4)).astype(np.float32))
    loss = head.loss(emb, np.array([0]))
    assert math.isclose(loss.item(), math.log(5), rel_tol=1e-6)


def test_loss_softmax_closed_form():
    head = _head("sm", n=2, dim=2)
    head.weight.data = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
    emb = Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
    loss = head.loss(emb, np.array([0]))
    assert math.isclose(loss.item(), -math.log(math.e / (math.e + 1)), rel_tol=1e-6)


def test_loss_softmax_label_out_of_range():
    head = _head("sm", n=2)
    emb = Tensor(np.ones((1, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        head.loss(emb, np.array([3]))


def test_cosface_margin_free_reduces_to_softmax_on_cosines():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n, d, b = 5, 6, 4
        head = _head("cf", n=n, dim=d, cf_margin=0.0, logit_scale=1.0)
        head.weight.data = rng.normal(size=(n, d)).astype(np.float32)
        emb = rng.normal(size=(b, d)).astype(np.float32)
        labels = rng.integers(0, n, size=b)
        cf = head.loss(Tensor(emb), labels).item()
        # oracle: plain cross-entropy over cosine similarities
        xn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        wn = head.weight.data / np.linalg.norm(head.weight.data, axis=1, keepdims=True)
        logits = xn @ wn.T
        logz = np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1))
        ref = float(np.mean(logz - (logits - logits.max(1, keepdims=True))[np.arange(b), labels]))
        assert abs(cf - ref) < 1e-6


def test_arcface_zero_margin_equals_cosface_zero_margin():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n, d, b = 4, 5, 3
        w = rng.normal(size=(n, d)).astype(np.float32)
        emb = Tensor(rng.normal(size=(b, d)).astype(np.float32))
        labels = rng.integers(0, n, size=b)
        cf = _head("cf", n=n, dim=d, cf_margin=0.0)
        cf.weight.data = w.copy()
        af = _head("af", n=n, dim=d, af_margin_deg=0.0)
        af.weight.data = w.copy()
        assert abs(cf.loss(emb, labels).item() - af.loss(emb, labels).item()) < 1e-6


def test_cosface_closed_form_tiny():
    head = _head("cf", n=2, dim=2)  # defaults m=0.35, s=64
    head.weight.data = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    emb = Tensor(np.array([[1.0, 0.0]], dtype=np.float32))  # cosines (1, 0)
    loss = head.loss(emb, np.array([0])).item()
    expected = -math.log(math.exp(64 * 0.65) / (math.exp(64 * 0.65) + 1.0))
    assert abs(loss - expected) < 1e-12


def test_cosface_zero_norm_embedding_rejected():
    head = _head("cf")
    with pytest.raises(ValueError, match="zero-norm"):
        head.loss(Tensor(np.zeros((1, 4), dtype=np.float32)), np.array([0]))


def test_ms_no_mined_pairs_returns_zero():
    head = _head("ms", n=3)
    emb = Tensor(np.eye(3, 4, dtype=np.float32))  # all distinct labels: no positives
    assert head.loss(emb, np.array([0, 1, 2])).item() == 0.0


def test_ms_single_positive_at_lambda():
    # wide mining margin so the positive pair at cos = lambda is mined
    head = _head("ms", n=2, dim=3, ms_mining_eps=1.0)
    lam = head.ms_lambda
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([lam, math.sqrt(1 - lam**2), 0.0])
    c = np.array([0.0, 0.0, 1.0])
    emb = Tensor(np.stack([a, b, c]).astype(np.float32))
    loss = head.loss(emb, np.array([0, 0, 1])).item()
    # anchors 0 and 1 each contribute (1/alpha) ln 2 from their positive at
    # cos = lambda; their mined negative at cos 0 adds (1/beta) ln(1+e^-25),
    # which is ~3e-13. anchor 2 has no positive. mean over 2 anchors.
    expected = (1.0 / head.ms_alpha) * math.log(2.0)
    assert abs(loss - expected) < 1e-5


def test_ms_well_separated_positive_not_mined():
    # a positive far above every negative plus the mining margin is skipped
    head = _head("ms", n=2, dim=3)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.5, math.sqrt(0.75), 0.0])
    c = np.array([0.0, 0.0, 1.0])
    emb = Tensor(np.stack([a, b, c]).astype(np.float32))
    assert head.loss(emb, np.array([0, 0, 1])).item() == 0.0


def test_ms_scale_invariance():
    rng = np.random.default_rng(9)
    head = _head("ms", n=3, dim=5)
    emb = rng.normal(size=(6, 5)).astype(np.float32)
    labels = np.array([0, 0, 1, 1, 2, 2])
    a = head.loss(Tensor(emb), labels).item()
    b = head.loss(Tensor(emb * 7.3), labels).item()
    assert abs(a - b) < 1e-5


def _ms_loss_per_anchor(head, embeddings, labels):
    """multisimilarity_loss with its mining written as a loop over anchors."""
    n = len(labels)
    xn = nc.l2_normalize(embeddings, axis=-1)
    sims = nc.matmul(xn, nc.transpose(xn, (1, 0)))
    s = sims.data
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(n, dtype=bool)
    neg = ~same
    mined_pos = np.zeros((n, n), dtype=np.float32)
    mined_neg = np.zeros((n, n), dtype=np.float32)
    contributes = np.zeros(n, dtype=bool)
    eps = head.ms_mining_eps
    for i in range(n):
        if not pos[i].any() or not neg[i].any():
            continue
        mp = pos[i] & (s[i] < s[i, neg[i]].max() + eps)
        mn = neg[i] & (s[i] > s[i, pos[i]].min() - eps)
        if mp.any() or mn.any():
            contributes[i] = True
            mined_pos[i, mp] = 1.0
            mined_neg[i, mn] = 1.0
    if not contributes.any():
        return Tensor(np.float32(0.0))
    lam = head.ms_lambda
    pos_e = nc.mul(nc.exp(nc.scale(nc.sub(sims, lam), -head.ms_alpha)), Tensor(mined_pos))
    neg_e = nc.mul(nc.exp(nc.scale(nc.sub(sims, lam), head.ms_beta)), Tensor(mined_neg))
    pos_term = nc.scale(nc.log(nc.add(nc.sum_(pos_e, axis=1), 1.0)), 1.0 / head.ms_alpha)
    neg_term = nc.scale(nc.log(nc.add(nc.sum_(neg_e, axis=1), 1.0)), 1.0 / head.ms_beta)
    total = nc.sum_(nc.mul(nc.add(pos_term, neg_term), Tensor(contributes.astype(np.float32))))
    return nc.scale(total, 1.0 / float(contributes.sum()))


@pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
def test_ms_mining_matches_a_per_anchor_loop_bit_for_bit(eps):
    # small integer embeddings and repeated rows give tied similarities;
    # few labels over small batches give anchors without a positive or a
    # negative, and batches where no anchor has both
    rng = np.random.default_rng(17)
    head = _head("ms", n=4, dim=3, ms_mining_eps=eps)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        emb = rng.integers(-2, 3, size=(n, 3)).astype(np.float32)
        emb[rng.random(n) < 0.3] = emb[0]
        emb[~emb.any(axis=1)] = 1.0
        if rng.random() < 0.5:
            emb += rng.normal(scale=0.3, size=emb.shape).astype(np.float32)
        labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
        got = []
        for loss_fn in (head.multisimilarity_loss, lambda e, y: _ms_loss_per_anchor(head, e, y)):
            x = Tensor(emb.copy(), requires_grad=True)
            loss = loss_fn(x, labels)
            if loss.requires_grad:
                loss.backward()
            # dtype and raw bytes: equal bits, zeros by sign and NaNs by payload
            got.append([(a.dtype, a.tobytes()) for a in (np.asarray(loss.data), x.grad)
                        if a is not None])
        assert got[0] == got[1]


# ------------------------------------------------- end-to-end grad checks


def _toy_training_setup(pooling, head_kind, seed=0):
    vocab = train_char_vocab(["abcdef ghij"], size=24)
    cfg = tiny_config(pooling=pooling, vocab_size=len(vocab), dropout=0.0)
    model = EpisodeModel.build(cfg, markets={"m1": ["s1", "s2"]}, seed=seed)
    encoder = PostEncoder(vocab, cfg.max_tokens)
    rng = np.random.default_rng(seed)
    episodes, labels = [], []
    for ai, author in enumerate(["alice", "bob"]):
        for e in range(2):
            posts = tuple(
                make_post(
                    "".join(rng.choice(list("abcdef ghij"), size=7)),
                    author=author,
                    subforum=rng.choice(["s1", "s2"]),
                    ts=1356998400.0 + (e * 40 + k * 3 + int(rng.integers(0, 3))) * 86400,
                    pid=f"{author}{e}{k}",
                )
                for k in range(2)
            )
            episodes.append(Episode(market="m1", author=author, posts=posts))
            labels.append(ai)
    head = MetricHead.build(head_kind, "m1", n_labels=2, dim=cfg.episode_dim, seed=seed + 1)
    batch = make_episode_batch(episodes, encoder, model)
    return model, head, batch, np.array(labels)


@pytest.mark.parametrize("pooling", ["mean", "transformer"])
@pytest.mark.parametrize("head_kind", ["sm", "cf", "af", "ms"])
def test_full_model_loss_gradients(pooling, head_kind):
    model, head, batch, labels = _toy_training_setup(pooling, head_kind, seed=3)
    names = sorted(model.params)
    head_names = sorted(head.named_params())
    arrays = [model.params[n].data for n in names] + [
        head.named_params()[n].data for n in head_names
    ]

    def fn(*tensors):
        for name, t in zip(names, tensors):
            model.params[name] = t
        for name, t in zip(head_names, tensors[len(names):]):
            head.weight = t
        emb = model.embed_episodes(batch, train=False)
        return head.loss(emb, labels)

    assert grad_check(fn, arrays) <= 1e-3


# ------------------------------------------------------ graph memory


def _graph_nodes(root):
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_frees_op_gradients_and_leaves_keep_theirs():
    model, head, batch, labels = _toy_training_setup("transformer", "cf", seed=3)
    tokens = Tensor(model.params["token_emb"].data[batch.token_ids], requires_grad=True)
    loss = head.loss(model.embed_episodes(batch, token_embeddings=tokens), labels)
    nodes = _graph_nodes(loss)
    ops = [n for n in nodes if n._backward is not None]
    leaves = [n for n in nodes if n._backward is None]
    assert any(n is tokens for n in leaves) and any(n is head.weight for n in leaves)
    assert len(leaves) > 20 and len(ops) > 50
    loss.backward()
    assert all(n.grad is None for n in ops)
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_text_cnn_graph_holds_one_activation_per_filter_width():
    model, head, batch, labels = _toy_training_setup("mean", "sm", seed=3)
    loss = head.loss(model.embed_episodes(batch, train=False), labels)
    arrays = {}
    for node in _graph_nodes(loss):
        arrays[id(node.data)] = node.data
        for cell in (node._backward.__closure__ or ()) if node._backward else ():
            held = cell.cell_contents
            held = held.data if isinstance(held, Tensor) else held
            if isinstance(held, np.ndarray):
                arrays[id(held)] = held
    f = model.cfg.filters_per_size
    for w in model.cfg.filter_sizes:
        shape = (len(batch.token_ids) - w + 1, f)
        assert sum(a.shape == shape for a in arrays.values()) == 1, shape
