"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. Criteria 5, 6, and 8 drive the real CLI pipeline on
seeded synthetic corpora."""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import epistyle.numcore as nc
from epistyle.cli import main as cli_main
from epistyle.corpus import Episode, Post, assemble_episodes, load_migration_labels
from epistyle.evaluation import (
    RetrievalIndex,
    author_centroid,
    cosine_target,
    integrated_gradients,
    integrated_gradients_fn,
    topk_sybil,
    wmw_paired,
)
from epistyle.hetgraph import build_graph, sample_walks
from epistyle.model import EpisodeModel, MetricHead, ModelConfig, PostEncoder
from epistyle.numcore import Tensor
from epistyle.tokenization import train_char_vocab
from epistyle.train import TrainConfig, build_registry, train_single

import test_model
import test_numcore
from reference import grad_check
from test_evaluation import brute_force_ranks, wmw_enumeration_oracle


def report(criterion: int, message: str):
    print(f"\nPASS criterion {criterion}: {message}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst_primitive = 0.0
    for name, case in test_numcore.GRAD_CASES.items():
        for seed in range(10):
            fn, inputs = case(np.random.default_rng(5000 + seed))
            err = grad_check(fn, inputs)
            assert err <= 1e-3, f"primitive {name} seed {seed}: {err}"
            worst_primitive = max(worst_primitive, err)

    worst_model = 0.0
    for pooling in ("mean", "transformer"):
        for head_kind in ("sm", "cf", "af", "ms"):
            model, head, batch, labels = test_model._toy_training_setup(pooling, head_kind, seed=3)
            names = sorted(model.params)
            head_names = sorted(head.named_params())
            arrays = [model.params[n].data for n in names] + [
                head.named_params()[n].data for n in head_names
            ]

            def fn(*tensors, model=model, head=head, batch=batch, labels=labels,
                   names=names, head_names=head_names):
                for n, t in zip(names, tensors):
                    model.params[n] = t
                for n, t in zip(head_names, tensors[len(names):]):
                    head.weight = t
                emb = model.embed_episodes(batch, train=False)
                return head.loss(emb, labels)

            err = grad_check(fn, arrays)
            assert err <= 1e-3, f"{pooling}/{head_kind}: {err}"
            worst_model = max(worst_model, err)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"
    report(1, f"max rel err primitives {worst_primitive:.2e}, full model "
              f"{worst_model:.2e}, in {elapsed:.0f}s (< 2 min)")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(777)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(6, 501))
        n_authors = int(rng.integers(2, max(3, n // 2)))
        emb = rng.normal(size=(n, int(rng.integers(3, 9))))
        authors = [f"a{rng.integers(0, n_authors)}" for _ in range(n)]
        index = RetrievalIndex([f"e{i}" for i in range(n)], ["m"] * n, authors, emb)
        oracle = brute_force_ranks(emb, authors)
        queries = index.eligible_queries()
        assert set(int(q) for q in queries) == set(oracle)
        for q in queries:
            assert index.first_same_author_rank(int(q)) == oracle[int(q)]
        checked += len(queries)

    # worked example: ranks {1, 2, 4}
    ranks = [1, 2, 4]
    mrr_val = float(np.mean([1.0 / r for r in ranks]))
    assert math.isclose(mrr_val, 0.58333, abs_tol=5e-6)
    r3 = float(np.mean([1.0 if r <= 3 else 0.0 for r in ranks]))
    assert math.isclose(r3, 2 / 3, rel_tol=1e-12)
    report(2, f"{checked} queries over 200 random indices match the 64-bit "
              f"brute-force oracle exactly; ranks {{1,2,4}} -> MRR 0.58333, R@3 2/3")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_walk_semantics():
    from scipy import stats

    rng = np.random.default_rng(31)
    posts = []
    for i in range(300):
        posts.append(Post(
            market="m", subforum=f"s{int(rng.integers(0, 4))}",
            thread_id=f"t{int(rng.integers(0, 24))}", post_id=f"p{i}",
            author=f"u{int(rng.integers(0, 12))}", timestamp=float(i + 1),
            is_thread_start=bool(i < 24), body="x",
        ))
    graph = build_graph(posts)
    schemes = ("UPTSTPU", "UTSTPU", "UPTSTU", "UTSTU", "UPTPU", "UPTU", "UTPU")
    walks = sample_walks(graph, schemes, walks_per_user=180, walk_length=80, rng_seed=9)

    per_user = 180
    per_scheme = per_user // 7
    extra = per_user % 7
    counts = [per_scheme + (1 if i < extra else 0) for i in range(7)]
    steps = 0
    transitions: dict[tuple[str, str], dict[str, int]] = {}
    wi = 0
    for user in graph.labels_of_type("U"):
        for si, scheme in enumerate(schemes):
            for _ in range(counts[si]):
                walk = walks[wi]
                wi += 1
                expected = scheme
                while len(expected) < len(walk):
                    expected += scheme[1:]
                assert all(node[0] == expected[k] for k, node in enumerate(walk)), (
                    f"walk {wi} violates scheme {scheme}"
                )
                for k in range(len(walk) - 1):
                    steps += 1
                    key = (walk[k], expected[k + 1])
                    transitions.setdefault(key, {}).setdefault(walk[k + 1], 0)
                    transitions[key][walk[k + 1]] += 1
    assert wi == len(walks)
    assert steps >= 100_000, f"only {steps} steps sampled"

    chi2, dof = 0.0, 0
    for (node, want_type), observed in transitions.items():
        options = graph.typed_neighbors(node, want_type)
        if len(options) < 2:
            continue
        total = sum(observed.values())
        if total < 5 * len(options):
            continue
        expected_count = total / len(options)
        for opt in options:
            chi2 += (observed.get(opt, 0) - expected_count) ** 2 / expected_count
        dof += len(options) - 1
    p = float(stats.chi2.sf(chi2, dof))
    assert p > 0.01, f"uniformity rejected: chi2={chi2:.1f} dof={dof} p={p:.4f}"
    report(3, f"{steps} meta-path steps follow the cycled schemes; chi-square "
              f"p={p:.3f} (dof {dof}) does not reject uniform typed transitions")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_loss_reductions():
    rng = np.random.default_rng(44)
    worst_cf = worst_af = 0.0
    for _ in range(100):
        n, d, b = int(rng.integers(2, 7)), int(rng.integers(3, 8)), int(rng.integers(2, 9))
        w = rng.normal(size=(n, d)).astype(np.float32)
        emb = rng.normal(size=(b, d)).astype(np.float32)
        labels = rng.integers(0, n, size=b)

        cf = MetricHead.build("cf", "t", n, d, cf_margin=0.0, logit_scale=1.0)
        cf.weight.data = w.copy()
        loss_cf = cf.loss(Tensor(emb), labels).item()
        xn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        wn = w / np.linalg.norm(w, axis=1, keepdims=True)
        logits = (xn @ wn.T).astype(np.float64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        ref = float(np.mean(np.log(np.exp(shifted).sum(1)) - shifted[np.arange(b), labels]))
        worst_cf = max(worst_cf, abs(loss_cf - ref))

        af = MetricHead.build("af", "t", n, d, af_margin_deg=0.0)
        af.weight.data = w.copy()
        cf64 = MetricHead.build("cf", "t", n, d, cf_margin=0.0)
        cf64.weight.data = w.copy()
        worst_af = max(worst_af, abs(af.loss(Tensor(emb), labels).item()
                                     - cf64.loss(Tensor(emb), labels).item()))
    assert worst_cf < 1e-6
    assert worst_af < 1e-6

    ms = MetricHead.build("ms", "t", 3, 4)
    emb = Tensor(np.eye(3, 4, dtype=np.float32))
    assert ms.loss(emb, np.array([0, 1, 2])).item() == 0.0
    report(4, f"CF(m=0,s=1) matches softmax-over-cosines within {worst_cf:.1e}; "
              f"AF(m=0)=CF(m=0) within {worst_af:.1e}; unmined MS batch -> 0")


# ------------------------------------------------------- criteria 5 and 6


SYNTH_E2E_CONFIG = """\
[corpus]
authors_per_market = 20
posts_per_author = 100
migrant_count = 5
distinct_pair_count = 5
subforums_per_market = 6
communities = 3
weeks = 20
core_mass = 0.85

[tokenizer]
kind = char
size = 200

[graph]
walks_per_user = 40
walk_length = 20
dim = 128
window = 5
negatives = 3
epochs = 2

[model]
max_tokens = 256

[train]
batch_size = 128
epochs = 24
episode_len = 5

[eval]
kappa = 1000
"""

ABLATION_CONFIG = SYNTH_E2E_CONFIG.replace(
    "subforums_per_market = 6", "subforums_per_market = 12"
).replace(
    "core_mass = 0.85", "core_mass = 0.45\ncommunity_affinity = true"
).replace(
    "epochs = 24", "epochs = 8"
).replace(
    "walks_per_user = 40", "walks_per_user = 60"
)


def _prepare_pipeline(root: Path, config_text: str, corpus_seed: int, with_graph=True):
    cfg_path = root / "config.ini"
    cfg_path.write_text(config_text)
    c = ["--config", str(cfg_path)]
    assert cli_main(["synth", *c, "--seed", str(corpus_seed), "--out", str(root / "raw")]) == 0
    assert cli_main(["preprocess", *c, "--input", str(root / "raw"),
                     "--out", str(root / "processed")]) == 0
    assert cli_main(["split", *c, "--input", str(root / "processed"),
                     "--out", str(root / "split" / "split.csv")]) == 0
    assert cli_main(["train-tokenizer", *c, "--input", str(root / "processed"),
                     "--split", str(root / "split" / "split.csv"),
                     "--out", str(root / "vocab" / "vocab.txt")]) == 0
    if with_graph:
        for market in ("alpha", "beta"):
            assert cli_main(["build-graph", *c, "--input", str(root / "processed"),
                             "--split", str(root / "split" / "split.csv"),
                             "--market", market,
                             "--out", str(root / "graph" / market / "graph.json")]) == 0
            assert cli_main(["walk", *c, "--seed", str(corpus_seed),
                             "--graph", str(root / "graph" / market / "graph.json"),
                             "--out", str(root / "walks" / market / "walks.txt")]) == 0
            assert cli_main(["graph-embed", *c, "--seed", str(corpus_seed),
                             "--walks", str(root / "walks" / market / "walks.txt"),
                             "--graph", str(root / "graph" / market / "graph.json"),
                             "--out", str(root / "emb" / market)]) == 0
    return c


def _train_and_eval(root: Path, c, name: str, seed: int, markets=None, multitask=False,
                    graph_init="pretrained", p_cross=None, extra=()):
    cmd = ["train", *c, "--seed", str(seed), "--processed", str(root / "processed"),
           "--split", str(root / "split" / "split.csv"),
           "--vocab", str(root / "vocab" / "vocab.txt"),
           "--graph-init", graph_init, "--out", str(root / name)]
    if graph_init == "pretrained":
        for market in (markets or ["alpha", "beta"]):
            cmd += ["--context-init", f"{market}={root}/emb/{market}/context.tsv"]
    if multitask:
        cmd += ["--multitask", "--labels", str(root / "raw" / "labels.csv")]
        if p_cross is not None:
            cmd += ["--p-cross", str(p_cross)]
    else:
        cmd += ["--market", markets[0], "--p-cross", "0"]
    cmd += list(extra)
    assert cli_main(cmd) == 0
    assert cli_main(["eval", *c, "--seed", str(seed), "--run", str(root / name),
                     "--processed", str(root / "processed"),
                     "--split", str(root / "split" / "split.csv"),
                     "--vocab", str(root / "vocab" / "vocab.txt")]) == 0
    return json.loads((root / name / "metrics.json").read_text())


def test_criterion_5_synthetic_end_to_end(tmp_path):
    start = time.monotonic()
    root = tmp_path / "e2e"
    root.mkdir()
    c = _prepare_pipeline(root, SYNTH_E2E_CONFIG, corpus_seed=0)

    single = {}
    for market in ("alpha", "beta"):
        metrics = _train_and_eval(root, c, f"run-single-{market}", seed=0, markets=[market])
        block = metrics["markets"][market]["all"]
        single[market] = block
    multi = _train_and_eval(root, c, "run-multi", seed=0, multitask=True, p_cross=0.5)

    # (a) single-task MRR at least 5x the analytic random baseline
    ratios = {}
    for market, block in single.items():
        ratios[market] = block["mrr"] / block["random_baseline_mrr"]
        assert ratios[market] >= 5.0, f"{market}: ratio {ratios[market]:.2f} < 5"

    # (b) multitask lifts MRR on both markets
    for market in ("alpha", "beta"):
        m_mrr = multi["markets"][market]["all"]["mrr"]
        s_mrr = single[market]["mrr"]
        assert m_mrr >= s_mrr, f"{market}: multitask {m_mrr:.3f} < single {s_mrr:.3f}"

    # (c) top-k sybil search recovers at least 3 of the 5 planted migrants
    from epistyle.cli import _load_run, _test_episodes

    class Args:
        processed = str(root / "processed")
        split = str(root / "split" / "split.csv")

    meta, model, encoder = _load_run(root / "run-multi", root / "vocab" / "vocab.txt")
    episodes, _ = _test_episodes(meta, Args)
    all_eps = [e for m in sorted(episodes) for e in episodes[m]]
    index = RetrievalIndex.from_episodes(model, encoder, all_eps)
    migrants = [lab for lab in load_migration_labels(root / "raw" / "labels.csv")
                if lab.same_author]
    assert len(migrants) == 5
    hits = 0
    for lab in migrants:
        (ma, ua), (mb, ub) = lab.user_a, lab.user_b
        cand_author, cand_market, _ = topk_sybil(index, ma, ua, k=10)
        hits += (cand_market, cand_author) == (mb, ub)
    assert hits >= 3, f"sybil recovered only {hits}/5 migrants"

    elapsed = time.monotonic() - start
    assert elapsed < 900, f"end-to-end took {elapsed:.0f}s (> 15 min)"
    report(5, f"single/baseline MRR ratios {ratios['alpha']:.1f}x, {ratios['beta']:.1f}x; "
              f"multitask MRR {multi['markets']['alpha']['all']['mrr']:.3f}/"
              f"{multi['markets']['beta']['all']['mrr']:.3f} >= single "
              f"{single['alpha']['mrr']:.3f}/{single['beta']['mrr']:.3f}; "
              f"sybil {hits}/5; total {elapsed:.0f}s (< 15 min)")


def test_criterion_6_graph_context_ablation(tmp_path):
    root = tmp_path / "ablate"
    root.mkdir()
    c = _prepare_pipeline(root, ABLATION_CONFIG, corpus_seed=42)
    pre_files, rnd_files = [], []
    for seed in range(5):
        _train_and_eval(root, c, f"run-pre-{seed}", seed=seed, markets=["alpha"],
                        graph_init="pretrained")
        _train_and_eval(root, c, f"run-rnd-{seed}", seed=seed, markets=["alpha"],
                        graph_init="random")
        pre_files.append(str(root / f"run-pre-{seed}" / "metrics.json"))
        rnd_files.append(str(root / f"run-rnd-{seed}" / "metrics.json"))

    out_path = root / "compare.json"
    assert cli_main(["compare", "--metric", "mrr", "--group-a", *pre_files,
                     "--group-b", *rnd_files, "--out", str(out_path)]) == 0
    result = json.loads(out_path.read_text())
    assert result["n_pairs"] == 5
    assert result["mean_a"] >= result["mean_b"], (
        f"pretrained mean {result['mean_a']:.3f} < random {result['mean_b']:.3f}"
    )
    assert result["p_value"] < 0.1, f"p={result['p_value']:.4f} not < 0.1"
    diffs = [round(p["a"] - p["b"], 4) for p in result["pairs"]]
    report(6, f"pretrained graph init MRR {result['mean_a']:.3f} >= random "
              f"{result['mean_b']:.3f} on all 5 seeds (diffs {diffs}), "
              f"wmw p={result['p_value']:.4f} < 0.1")


# ---------------------------------------------------------------- criterion 7


def _trained_attribution_setup(seed=1):
    import random as pyrandom

    rng = pyrandom.Random(seed)
    posts = []
    for ai, (author, words) in enumerate([("ann", "aaa bbb ccc ddd"), ("bob", "xxx yyy zzz www")]):
        for i in range(80):
            posts.append(Post(
                market="m1", subforum=["s1", "s2"][i % 2], thread_id="t1",
                post_id=f"{author}{i}", author=author,
                timestamp=1356998400.0 + i * 86400 + ai * 3600, is_thread_start=False,
                body=" ".join(rng.choice(words.split()) for _ in range(2)),
            ))
    vocab = train_char_vocab([p.body for p in posts], size=40)
    cfg = ModelConfig(vocab_size=len(vocab), d_token=8, d_text=16, d_time=8, d_context=8,
                      filter_sizes=(2, 3), filters_per_size=8, dropout=0.1, pooling="mean",
                      tokenizer_kind="char", max_tokens=64)
    model = EpisodeModel.build(cfg, {"m1": ["s1", "s2"]}, seed=seed)
    encoder = PostEncoder(vocab, cfg.max_tokens)
    tcfg = TrainConfig(batch_size=8, epochs=20, episode_len=2, seed=seed, p_cross=0.0, loss="sm")
    registry = build_registry(model, encoder, {"m1": posts}, tcfg)
    train_single(registry, tcfg)  # leaves the selected epoch's parameters in the model
    return model, encoder, assemble_episodes(posts, 2)


def test_criterion_7_integrated_gradients_axioms():
    # completeness on a trained seeded model at 50 quadrature nodes
    model, encoder, episodes = _trained_attribution_setup(seed=1)
    index = RetrievalIndex.from_episodes(model, encoder, episodes)
    target = cosine_target(author_centroid(index, "m1", "ann"))
    episode = [e for e in episodes if e.author == "ann"][0]
    records, completeness = integrated_gradients(model, encoder, episode, target, steps=50)
    rel = completeness["gap"] / max(abs(completeness["delta"]), 1e-12)
    assert rel <= 1e-3, f"completeness rel gap {rel:.2e}"

    # linear model: closed form is exact for any number of nodes
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 6))
    x, baseline = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    for steps in (1, 3, 50):
        attr, comp = integrated_gradients_fn(
            lambda t: nc.sum_(nc.mul(t, Tensor(w))), x, baseline, steps=steps)
        assert np.allclose(attr, (x - baseline) * w, atol=1e-10)
        assert comp["gap"] < 1e-10

    # the all-[PAD] episode attributes exactly zero everywhere
    pad_posts = tuple(
        Post(market="m1", subforum="s1", thread_id="t", post_id=f"pad{k}", author="ann",
             timestamp=1356998400.0 + k * 86400, is_thread_start=False, body="")
        for k in range(2)
    )
    pad_episode = Episode(market="m1", author="ann", posts=pad_posts)
    pad_records, pad_comp = integrated_gradients(model, encoder, pad_episode, target, steps=5)
    assert pad_records == []  # no real tokens at all
    assert pad_comp["gap"] < 1e-12 and abs(pad_comp["delta"]) < 1e-12

    # a [PAD]-identical token inside a real episode scores exactly zero
    from epistyle.model import make_episode_batch
    batch = make_episode_batch([episode], encoder, model)
    table = model.params["token_emb"].data
    x_ep = table[batch.token_ids]
    base_ep = np.broadcast_to(table[encoder.vocab.pad_id], x_ep.shape).copy()
    x_ep[1] = base_ep[1]  # force the first post's second token onto the baseline

    def fn(t):
        return target(model.embed_episodes(batch, train=False, token_embeddings=t))

    attr, _ = integrated_gradients_fn(fn, x_ep, base_ep, steps=5)
    assert np.all(attr[1] == 0.0)
    report(7, f"completeness rel gap {rel:.2e} <= 1e-3 at 50 nodes; linear "
              f"closed form exact; baseline tokens attribute zero")


# ---------------------------------------------------------------- criterion 8

DETERMINISM_CONFIG = """\
[corpus]
authors_per_market = 8
posts_per_author = 40
migrant_count = 2
distinct_pair_count = 2
subforums_per_market = 4
communities = 2
weeks = 10

[tokenizer]
kind = char
size = 150

[graph]
walks_per_user = 10
walk_length = 9
dim = 16
window = 3
negatives = 2
epochs = 1

[model]
d_token = 8
d_text = 16
d_time = 8
d_context = 16
filter_sizes = 2, 3
filters_per_size = 8
max_tokens = 128

[train]
batch_size = 32
epochs = 3
episode_len = 3
p_cross = 0.3

[eval]
kappa = 300
"""


def test_criterion_8_determinism(tmp_path):
    payloads = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        c = _prepare_pipeline(root, DETERMINISM_CONFIG, corpus_seed=7, with_graph=False)
        metrics = _train_and_eval(root, c, "run", seed=7, multitask=True, p_cross=0.3,
                                  graph_init="random")
        payloads.append((root / "run" / "metrics.json").read_bytes())
        del metrics
    assert payloads[0] == payloads[1]
    report(8, f"two pipeline runs with identical config and seed produced "
              f"byte-identical metrics.json ({len(payloads[0])} bytes)")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_signed_rank_exactness():
    rng = np.random.default_rng(99)
    checked = 0
    for n in range(5, 11):
        for trial in range(25):
            a = rng.normal(size=n)
            b = a - rng.normal(size=n)
            if trial % 3 == 0:
                b[0] = a[0]  # zero difference
            if trial % 4 == 0 and n >= 6:
                b[1] = a[1] - abs(a[2] - b[2])  # tied |d|
            p = wmw_paired(a, b)
            oracle = wmw_enumeration_oracle(a, b)
            assert math.isclose(p, oracle, rel_tol=1e-12), (n, trial, p, oracle)
            checked += 1
    example = wmw_paired([2.0, 3.0, 4.0, 5.0, 6.0], [1.0] * 5)
    assert math.isclose(example, 0.0625, rel_tol=1e-12)
    report(9, f"{checked} exact signed-rank p-values match 2^n enumeration for "
              f"n in 5..10; all-positive n=5 example p = 0.0625")
