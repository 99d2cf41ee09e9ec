import gc
import math
import random
import weakref

import numpy as np
import pytest

from epistyle.corpus import MigrationLabel, Post
from epistyle.model import EpisodeModel, ModelConfig, PostEncoder, make_episode_batch
from epistyle.synth import SynthConfig, generate_corpus
from epistyle.tokenization import train_char_vocab
from epistyle.train import (
    TrainConfig,
    build_registry,
    load_best,
    sample_batch,
    sample_task,
    train_multitask,
    train_single,
)


def small_model_cfg(vocab_size, pooling="mean"):
    return ModelConfig(
        vocab_size=vocab_size, d_token=8, d_text=16, d_time=8, d_context=8,
        filter_sizes=(2, 3), filters_per_size=8, dropout=0.1, pooling=pooling,
        tf_layers=1, tf_heads=2, tf_ff=16, tf_model_dim=16, tf_out_dim=8,
        tokenizer_kind="char", max_tokens=96,
    )


def synth_train_posts(seed=0, markets=("alpha", "beta"), authors=6, posts=40, migrants=2):
    if len(markets) < 2:
        migrants = 0
    cfg = SynthConfig(markets=markets, authors_per_market=authors, posts_per_author=posts,
                      migrant_count=migrants, distinct_pair_count=min(2, authors - 2 * migrants),
                      subforums_per_market=4, communities=2, weeks=10, seed=seed)
    corpus = generate_corpus(cfg)
    # train on the first half of each market, like the chronological split
    train: dict[str, list[Post]] = {}
    for market, plist in corpus.posts.items():
        cut = sorted(p.timestamp for p in plist)[len(plist) // 2]
        train[market] = [p for p in plist if p.timestamp <= cut]
    return corpus, train


def make_setup(loss="sm", pooling="mean", markets=("alpha", "beta"), with_cross=True,
               seed=0, epochs=3, episode_len=2, batch_size=16):
    corpus, train_posts = synth_train_posts(seed=seed, markets=markets)
    texts = [p.body for posts in train_posts.values() for p in posts]
    vocab = train_char_vocab(texts, size=80)
    mcfg = small_model_cfg(len(vocab), pooling)
    subforums = {m: sorted({p.subforum for p in posts}) for m, posts in train_posts.items()}
    model = EpisodeModel.build(mcfg, subforums, seed=seed)
    encoder = PostEncoder(vocab, mcfg.max_tokens)
    tcfg = TrainConfig(batch_size=batch_size, epochs=epochs, episode_len=episode_len,
                       seed=seed, loss=loss, p_cross=0.25 if with_cross else 0.0)
    labels = corpus.labels if with_cross else None
    registry = build_registry(model, encoder, train_posts, tcfg, labels)
    return registry, tcfg


# ------------------------------------------------------------------ config


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(episode_len=0)
    with pytest.raises(ValueError):
        TrainConfig(episode_len=10)
    with pytest.raises(ValueError):
        TrainConfig(p_cross=1.5)
    TrainConfig(p_cross=0.0)
    TrainConfig(p_cross=1.0)


# ---------------------------------------------------------------- sampling


def test_sample_task_p_cross_one_always_cross():
    registry, tcfg = make_setup()
    rng = random.Random(0)
    for _ in range(50):
        assert sample_task(registry, 1.0, rng).kind == "cross"


def test_sample_task_proportional_to_episode_count():
    registry, _ = make_setup(with_cross=False)
    a, b = registry.market_tasks
    rng = random.Random(1)
    n = 100_000
    hits = sum(1 for _ in range(n) if sample_task(registry, 0.0, rng) is a)
    expected = a.train_episode_total / (a.train_episode_total + b.train_episode_total)
    assert abs(hits / n - expected) < 0.02


def test_sample_batch_basics():
    registry, tcfg = make_setup()
    task = registry.market_tasks[0]
    rng = random.Random(2)
    episodes, labels = sample_batch(task, 1, rng)
    assert len(episodes) == 1 and len(labels) == 1
    episodes, labels = sample_batch(task, 64, rng)
    assert all(lab < task.head.n_labels for lab in labels)
    assert all(len(e) == tcfg.episode_len for e in episodes)


def test_sample_batch_label_histogram_matches_weights():
    registry, tcfg = make_setup()
    task = registry.market_tasks[0]
    rng = random.Random(3)
    counts = np.zeros(task.head.n_labels)
    n = 100_000
    _, labels = sample_batch(task, n, rng)
    for lab in labels:
        counts[lab] += 1
    weights = np.array([p.weight for p in task.pools], dtype=float)
    weights /= weights.sum()
    assert np.all(np.abs(counts / n - weights) < 0.02)


def test_sampled_windows_never_touch_validation_posts():
    registry, tcfg = make_setup()
    rng = random.Random(4)
    for task in registry.all_tasks():
        val_ids = {(p.market, p.post_id) for e in task.val_episodes for p in e.posts}
        episodes, _ = sample_batch(task, 256, rng)
        train_ids = {(p.market, p.post_id) for e in episodes for p in e.posts}
        assert not (val_ids & train_ids)


def _linear_sample_task(registry, p_cross, rng):
    """Reference: the task draw as a linear scan over market-task totals."""
    r = rng.random()
    if registry.cross_task is not None and p_cross > 0.0 and r < p_cross:
        return registry.cross_task
    weights = [t.train_episode_total for t in registry.market_tasks]
    pick = rng.random() * sum(weights)
    acc = 0.0
    for task, w in zip(registry.market_tasks, weights):
        acc += w
        if pick < acc:
            return task
    return registry.market_tasks[-1]


def _linear_sample_episode(task, rng):
    """Reference: a label by its fixed-window weight, then a uniform sliding
    window over the label's segments, both found by linear scans."""
    pick = rng.random() * sum(p.weight for p in task.pools)
    acc = 0
    for pool in task.pools:
        acc += pool.weight
        if pick < acc:
            break
    length = task.episode_len
    sizes = [len(seg) - length + 1 for seg in pool.segments]
    pick = rng.randrange(sum(sizes))
    for seg, size in zip(pool.segments, sizes):
        if pick < size:
            return tuple(seg[pick : pick + length]), pool.label
        pick -= size
    raise AssertionError("window sampling fell off the end")


def test_samplers_match_linear_scan_reference():
    registry, tcfg = make_setup()
    assert registry.cross_task is not None
    for seed in (0, 1, 2):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        kinds = set()
        for _ in range(100):
            task = sample_task(registry, tcfg.p_cross, rng)
            assert task is _linear_sample_task(registry, tcfg.p_cross, ref_rng)
            kinds.add(task.kind)
            episodes, labels = sample_batch(task, 8, rng)
            expected = [_linear_sample_episode(task, ref_rng) for _ in range(8)]
            assert [e.posts for e in episodes] == [posts for posts, _ in expected]
            assert labels.tolist() == [label for _, label in expected]
        assert kinds == {"market", "cross"}
        assert rng.getstate() == ref_rng.getstate()


def test_task_labels_are_pool_order():
    registry, _ = make_setup()
    for task in registry.all_tasks():
        assert [p.label for p in task.pools] == list(range(len(task.pools)))
        assert task.head.n_labels == len(task.pools)
        assert set(task.val_labels.tolist()) <= set(range(len(task.pools)))


# ---------------------------------------------------------------- training


def test_train_single_runs_and_selects_best():
    registry, tcfg = make_setup(markets=("alpha",), with_cross=False, epochs=3)
    result = train_single(registry, tcfg)
    assert len(result.log) == 3
    vals = [r["val_loss"] for r in result.log]
    assert result.best_val_loss == min(vals)
    assert result.best_epoch == vals.index(min(vals))
    for record in result.log:
        assert set(record) == {"epoch", "task_losses", "val_loss", "lr", "grad_norm"}


def test_two_runs_same_seed_identical_logs():
    r1, c1 = make_setup(markets=("alpha",), with_cross=False, epochs=2, seed=5)
    a = train_single(r1, c1)
    r2, c2 = make_setup(markets=("alpha",), with_cross=False, epochs=2, seed=5)
    b = train_single(r2, c2)
    assert a.log == b.log
    for k in a.best_params:
        assert np.array_equal(a.best_params[k], b.best_params[k])


def test_single_vs_degenerate_multitask_bitwise_identical():
    r1, c1 = make_setup(markets=("alpha",), with_cross=False, epochs=2, seed=7)
    single = train_single(r1, c1)
    r2, c2 = make_setup(markets=("alpha",), with_cross=False, epochs=2, seed=7)
    multi = train_multitask(r2, c2)
    assert single.log == multi.log
    for k in single.best_params:
        assert np.array_equal(single.best_params[k], multi.best_params[k])


def test_plateau_halves_lr_after_patience():
    registry, tcfg = make_setup(markets=("alpha",), with_cross=False, epochs=1)
    # force the scheduler path deterministically
    from epistyle.numcore import PlateauScheduler

    sched = PlateauScheduler(lr=1e-3)
    sched.step(0.5)
    lrs = [sched.step(0.6) for _ in range(5)]
    assert lrs[:4] == [1e-3] * 4 and lrs[4] == 5e-4


def test_market_step_leaves_other_market_context_and_head_untouched():
    registry, tcfg = make_setup(with_cross=True, epochs=1, seed=9)
    model = registry.model
    task_a, task_b = registry.market_tasks
    before_ctx_b = model.params[f"context.{task_b.name}"].data.copy()
    before_head_b = task_b.head.weight.data.copy()
    rng = random.Random(10)
    episodes, labels = sample_batch(task_a, 8, rng)
    batch = make_episode_batch(episodes, registry.encoder, model)
    params = registry.all_params()
    for t in params.values():
        t.grad = None
    emb = model.embed_episodes(batch, train=False)
    loss = task_a.head.loss(emb, labels)
    loss.backward()
    # gradient partition: zero (absent) grads on the other market's params
    assert model.params[f"context.{task_b.name}"].grad is None
    assert task_b.head.weight.grad is None
    assert model.params[f"context.{task_a.name}"].grad is not None
    # and a full training step does not move them
    from epistyle.numcore import AdamState, adam_step

    allowed = registry.allowed_params(task_a)
    grads = {n: params[n].grad for n in allowed if params[n].grad is not None}
    state = {n: AdamState.for_param(params[n].data) for n in grads}
    adam_step({n: params[n].data for n in grads}, grads, state, 1e-3)
    assert np.array_equal(model.params[f"context.{task_b.name}"].data, before_ctx_b)
    assert np.array_equal(task_b.head.weight.data, before_head_b)


def test_multitask_with_cross_trains():
    registry, tcfg = make_setup(with_cross=True, epochs=2, seed=11)
    assert registry.cross_task is not None
    result = train_multitask(registry, tcfg)
    assert len(result.log) == 2
    load_best(registry, result)
    for name, arr in result.best_params.items():
        assert np.array_equal(registry.all_params()[name].data, arr)


def test_missing_cross_task_warns_and_trains(caplog):
    registry, tcfg = make_setup(with_cross=False, epochs=1)
    assert registry.cross_task is None
    with caplog.at_level("WARNING"):
        tcfg2 = TrainConfig(batch_size=8, epochs=1, episode_len=2, p_cross=0.5, seed=0)
        train_multitask(registry, tcfg2)
    assert any("p_cross" in r.message for r in caplog.records)


def test_training_improves_toy_separable_corpus():
    # two authors with disjoint vocabularies are separable quickly
    rng = random.Random(0)
    posts = []
    for ai, (author, words) in enumerate([("ann", "aaa bbb ccc"), ("bob", "xxx yyy zzz")]):
        for i in range(80):
            posts.append(
                Post(market="m1", subforum="s1", thread_id="t1", post_id=f"{author}{i}",
                     author=author, timestamp=1000.0 + i * 37 + ai,
                     is_thread_start=False,
                     body=" ".join(rng.choice(words.split()) for _ in range(6)))
            )
    vocab = train_char_vocab([p.body for p in posts], size=40)
    mcfg = small_model_cfg(len(vocab))
    model = EpisodeModel.build(mcfg, {"m1": ["s1"]}, seed=1)
    encoder = PostEncoder(vocab, mcfg.max_tokens)
    tcfg = TrainConfig(batch_size=8, epochs=30, episode_len=2, seed=1, p_cross=0.0,
                       loss="sm")
    registry = build_registry(model, encoder, {"m1": posts}, tcfg)
    result = train_single(registry, tcfg)
    assert result.best_val_loss < 0.1 * math.log(2)


@pytest.mark.parametrize("pooling", ["mean", "transformer"])
def test_each_forward_starts_after_the_previous_graph_is_freed(pooling):
    # with the cyclic collector off, only reference counting frees a graph
    registry, tcfg = make_setup(markets=("alpha",), with_cross=False, epochs=1, pooling=pooling,
                                batch_size=4)
    model = registry.model
    embed = model.embed_episodes
    calls = []  # (train mode, previous output still alive)
    last = [lambda: None]

    def recording(batch, train=False, **kw):
        calls.append((train, last[0]() is not None))
        out = embed(batch, train=train, **kw)
        last[0] = weakref.ref(out.data)
        return out

    model.embed_episodes = recording
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        train_multitask(registry, tcfg)
    finally:
        if was_enabled:
            gc.enable()
    assert sum(train for train, _ in calls) >= 2 and sum(not train for train, _ in calls) >= 2
    assert [alive for _, alive in calls] == [False] * len(calls)
