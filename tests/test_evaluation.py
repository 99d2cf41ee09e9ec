import itertools
import json
import math
import re

import numpy as np
import pytest

import epistyle.numcore as nc
from epistyle.evaluation import (
    RetrievalIndex,
    cosine_target,
    export_embeddings_tsv,
    gauss_legendre_unit,
    integrated_gradients,
    integrated_gradients_fn,
    market_metrics,
    metrics_report,
    random_baseline_mrr,
    read_embeddings_index,
    sample_queries,
    seen_novel_report,
    topk_sybil,
    wmw_paired,
)
from epistyle.corpus import Episode
from epistyle.model import EpisodeModel, PostEncoder
from epistyle.numcore import Tensor
from epistyle.tokenization import train_char_vocab
from test_model import make_post, tiny_config


def make_index(embeddings, authors, markets=None, seen=None):
    n = len(authors)
    markets = markets if markets is not None else ["m1"] * n
    ids = [f"e{i}" for i in range(n)]
    return RetrievalIndex(ids, markets, authors, np.asarray(embeddings, dtype=np.float64), seen)


# --------------------------------------------------------- rank oracle


def brute_force_ranks(embeddings, authors, markets=None):
    """O(n^2) float64 recompute of the first-same-author rank per query."""
    emb = np.asarray(embeddings, dtype=np.float64)
    n = len(emb)
    markets = markets if markets is not None else ["m1"] * n
    unit = emb / np.maximum(np.linalg.norm(emb, axis=1), 1e-12)[:, None]
    ranks = {}
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            sim = float(np.dot(unit[i], unit[j]))
            scored.append((-sim, j))
        scored.sort()
        rank = None
        for pos, (_, j) in enumerate(scored, start=1):
            if authors[j] == authors[i] and markets[j] == markets[i]:
                rank = pos
                break
        if rank is not None:
            ranks[i] = rank
    return ranks


def test_worked_example_ranks_1_2_4():
    # craft four queries whose first-hit ranks are exactly 1, 2, 4
    e = np.array(
        [
            [1.0, 0.0, 0.0],  # 0: a
            [0.99, 0.14, 0.0],  # 1: a  (rank-1 neighbor of 0)
            [0.0, 1.0, 0.0],  # 2: b
            [0.30, 0.95, 0.0],  # 3: x (distractor near b)
            [0.0, 0.90, 0.44],  # 4: b
            [0.0, 0.0, 1.0],  # 5: c
            [0.50, 0.0, 0.87],  # 6: y (cos to 5: .867)
            [0.44, 0.0, 0.90],  # 7: z (cos to 5: .898)
            [0.25, 0.25, 0.93],  # 8: w (cos to 5: .935)
            [0.0, 0.50, 0.86],  # 9: c (cos to 5: .865, below y/z/w)
        ]
    )
    authors = ["a", "a", "b", "x", "b", "c", "y", "z", "w", "c"]
    idx = make_index(e, authors)
    assert idx.first_same_author_rank(0) == 1
    assert idx.first_same_author_rank(2) == 2
    assert idx.first_same_author_rank(5) == 4
    report = metrics_report([idx.first_same_author_rank(i) for i in (0, 2, 5)], kappa=1000, ks=(3,))
    assert math.isclose(report["mrr"], (1 + 0.5 + 0.25) / 3, rel_tol=1e-12)
    assert math.isclose(report["mrr"], 0.58333, abs_tol=5e-6)
    assert math.isclose(report["recall"]["3"], 2 / 3, rel_tol=1e-12)


def test_perfect_index_mrr_one():
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(5, 8)) * 10
    emb, authors = [], []
    for a, c in enumerate(centers):
        for _ in range(3):
            emb.append(c + rng.normal(size=8) * 0.01)
            authors.append(f"a{a}")
    idx = make_index(np.array(emb), authors)
    assert market_metrics(idx, kappa=1000, ks=(1, 5, 10))["all"]["mrr"] == 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_an_index_rejects_non_finite_embeddings(value):
    emb = np.eye(3)
    emb[1, 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        make_index(emb, ["a", "a", "b"])


def test_all_queries_excluded_is_error():
    idx = make_index(np.eye(3), ["a", "b", "c"])
    with pytest.raises(ValueError, match="eligible"):
        sample_queries(idx, 10)


def test_kappa_larger_than_pool_uses_all():
    idx = make_index(np.eye(4), ["a", "a", "b", "b"])
    q = sample_queries(idx, 1000)["all"]
    assert len(q) == 4


def test_recall_monotone_in_k():
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(30, 6))
    authors = [f"a{i % 6}" for i in range(30)]
    idx = make_index(emb, authors)
    ranks = [idx.first_same_author_rank(i) for i in idx.eligible_queries().tolist()]
    recall = metrics_report(ranks, kappa=1000, ks=(1, 5, 10, 29))["recall"]
    values = [recall[k] for k in ("1", "5", "10", "29")]
    assert values == sorted(values)
    assert values[-1] == 1.0  # k >= n-1 and every author has >= 2 episodes


@pytest.mark.parametrize("seed", range(6))
def test_mrr_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(10, 60))
    n_authors = int(rng.integers(2, max(3, n // 3)))
    emb = rng.normal(size=(n, 5))
    authors = [f"a{rng.integers(0, n_authors)}" for _ in range(n)]
    idx = make_index(emb, authors)
    oracle = brute_force_ranks(emb, authors)
    queries = idx.eligible_queries()
    assert set(int(q) for q in queries) == set(oracle)
    for q in queries:
        assert idx.first_same_author_rank(int(q)) == oracle[int(q)]


def lexsort_rank(index, i):
    """The rank as a full stable sort gives it: cosine descending, ties by id."""
    sims = index.unit @ index.unit[i]
    order = np.lexsort((np.arange(len(sims)), -sims))
    order = order[order != i]
    hits = index.author_ids[order] == index.author_ids[i]
    return int(np.argmax(hits)) + 1


@pytest.mark.parametrize("seed", range(4))
def test_rank_count_matches_lexsort_under_ties(seed):
    rng = np.random.default_rng(300 + seed)
    base = np.round(rng.normal(size=(12, 3)), 0)  # few distinct directions: many exact ties
    emb = np.vstack([base, base[rng.integers(0, 12, size=28)]])  # duplicated rows
    authors = [f"a{rng.integers(0, 9)}" for _ in range(len(emb))]  # drawn apart from the rows
    idx = make_index(emb, authors)
    sims = idx.unit @ idx.unit.T
    assert len(np.unique(sims)) < sims.size // 4
    for q in idx.eligible_queries():
        assert idx.first_same_author_rank(int(q)) == lexsort_rank(idx, int(q))


def test_cosine_rank_invariant_to_positive_scaling():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(40, 7))
    authors = [f"a{i % 8}" for i in range(40)]
    idx1 = make_index(emb, authors)
    scaled = emb.copy()
    scaled[13] *= 7.3
    idx2 = make_index(scaled, authors)
    for q in idx1.eligible_queries():
        assert idx1.first_same_author_rank(int(q)) == idx2.first_same_author_rank(int(q))


def test_random_baseline_mrr_closed_form_small():
    # n=3, one other same-author episode (m=1): E[1/R] = (1/2)(1 + 1/2) = 0.75
    idx = make_index(np.eye(3), ["a", "a", "b"])
    assert math.isclose(random_baseline_mrr(idx, [0]), 0.75, rel_tol=1e-12)


def test_random_baseline_mrr_equals_per_query_sum():
    authors = ["a"] * 2 + ["b"] * 3 + ["c"] * 5 + ["d"] * 5 + [f"s{i}" for i in range(6)]
    idx = make_index(np.eye(len(authors)), authors)
    queries = idx.eligible_queries()
    n = len(idx)
    per_query = []
    for i in queries:
        m = authors.count(authors[i]) - 1
        total = math.comb(n - 1, m)
        per_query.append(sum((1.0 / r) * math.comb(n - 1 - r, m - 1) / total
                             for r in range(1, n - m + 1)))
    assert len({authors.count(authors[i]) for i in queries}) == 3
    assert random_baseline_mrr(idx, queries) == float(np.mean(per_query))


def test_random_baseline_mrr_matches_monte_carlo():
    rng = np.random.default_rng(3)
    n, m = 20, 4  # m same-author among n-1 candidates
    idx = make_index(np.eye(n), ["q"] * (m + 1) + [f"d{i}" for i in range(n - m - 1)])
    exact = random_baseline_mrr(idx, [0])
    sims = []
    for _ in range(20000):
        order = rng.permutation(n - 1)
        first = np.flatnonzero(order < m).min() + 1
        sims.append(1.0 / first)
    assert abs(exact - np.mean(sims)) < 0.01


# ------------------------------------------------------------- seen/novel


def test_seen_novel_disjoint_and_sizes():
    rng = np.random.default_rng(4)
    n_authors = 10
    emb, authors, seen = [], [], []
    for a in range(n_authors):
        for _ in range(4):
            emb.append(rng.normal(size=5))
            authors.append(f"a{a}")
            seen.append(a >= 3)  # 30% novel authors
    idx = make_index(np.array(emb), authors, seen=seen)
    groups = sample_queries(idx, kappa=1000, seed=0)
    assert not set(groups["seen"].tolist()) & set(groups["novel"].tolist())
    ranks = {i: idx.first_same_author_rank(i) for i in groups["all"].tolist()}
    reports = seen_novel_report(ranks, groups, kappa=1000, ks=(1, 5, 10), seed=0)
    assert reports["seen"]["n_queries"] == 28
    assert reports["novel"]["n_queries"] == 12


def test_seen_novel_all_seen_omits_novel():
    idx = make_index(np.eye(4), ["a", "a", "b", "b"])
    block = market_metrics(idx, kappa=1000, ks=(1, 5, 10))
    assert "novel" not in block and "seen" in block


def random_seen_index(seed):
    """An index of authors with 1 to 5 episodes each, about a third of them novel."""
    rng = np.random.default_rng(500 + seed)
    sizes = rng.integers(1, 6, size=int(rng.integers(8, 20)))
    novel = rng.random(len(sizes)) < 0.35
    authors = [f"a{a}" for a, size in enumerate(sizes) for _ in range(size)]
    seen = [not novel[a] for a, size in enumerate(sizes) for _ in range(size)]
    return make_index(rng.normal(size=(len(authors), 4)), authors, seen=seen)


def reference_block(index, kappa, ks, seed):
    """A market's metrics.json block computed group by group: "all" sampled
    under one default_rng(seed), seen then novel under a second, and every
    query of a group ranked anew."""
    authors = list(index.authors)
    eligible = np.array([i for i, a in enumerate(authors) if authors.count(a) >= 2])

    def sample(pool, rng):
        if kappa >= len(pool):
            return pool
        return pool[np.sort(rng.choice(len(pool), size=kappa, replace=False))]

    def summary(queries, group):
        ranks = [index.first_same_author_rank(int(i)) for i in queries]
        return {"group": group, "mrr": float(np.mean([1.0 / r for r in ranks])),
                "recall": {str(k): float(np.mean([1.0 if r <= k else 0.0 for r in ranks]))
                           for k in ks},
                "kappa": kappa, "n_queries": len(ranks), "seed": seed}

    queries = sample(eligible, np.random.default_rng(seed))
    n = len(authors)
    baseline = []
    for i in queries:
        m = authors.count(authors[i]) - 1
        baseline.append(sum((1.0 / r) * math.comb(n - 1 - r, m - 1) / math.comb(n - 1, m)
                            for r in range(1, n - m + 1)))
    block = {"all": {**summary(queries, "all"), "random_baseline_mrr": float(np.mean(baseline))}}
    rng = np.random.default_rng(seed)
    for group, flag in (("seen", True), ("novel", False)):
        pool = eligible[index.seen[eligible] == flag]
        if len(pool):
            block[group] = summary(sample(pool, rng), group)
    return block


@pytest.mark.parametrize("seed", range(4))
def test_market_metrics_match_per_group_reference_below_and_above_eligible(seed):
    idx = random_seen_index(seed)
    n_eligible = len(idx.eligible_queries())
    for kappa in (1, 3, n_eligible // 2, n_eligible - 1, n_eligible, n_eligible + 7):
        want = reference_block(idx, kappa, (1, 5, 10), seed)
        got = market_metrics(idx, kappa, (1, 5, 10), seed)
        assert json.dumps(got) == json.dumps(want), kappa


@pytest.mark.parametrize("seed", range(4))
def test_market_metrics_ranks_each_distinct_query_once(seed, monkeypatch):
    idx = random_seen_index(seed)
    calls = []
    rank = RetrievalIndex.first_same_author_rank
    monkeypatch.setattr(RetrievalIndex, "first_same_author_rank",
                        lambda self, i: calls.append(i) or rank(self, i))
    n_eligible = len(idx.eligible_queries())
    for kappa in (2, n_eligible // 2, n_eligible + 1):
        calls.clear()
        groups = sample_queries(idx, kappa, seed)
        market_metrics(idx, kappa, (1, 5, 10), seed)
        union = set().union(*(q.tolist() for q in groups.values()))
        assert sorted(calls) == sorted(union), kappa


# ---------------------------------------------------------------- wilcoxon


def wmw_enumeration_oracle(a, b):
    """Brute-force two-sided p: every sign pattern of the nonzero diffs."""
    diffs = np.asarray(a, float) - np.asarray(b, float)
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return 1.0
    absd = np.abs(diffs)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and absd[order[j]] == absd[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2
        i = j
    w_obs = ranks[diffs > 0].sum()
    n_le = n_ge = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        n_le += w <= w_obs + 1e-9
        n_ge += w >= w_obs - 1e-9
    total = 2.0**n
    return min(1.0, 2.0 * min(n_le / total, n_ge / total))


def test_wmw_identical_samples():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert wmw_paired(a, a) == 1.0


def test_wmw_all_positive_n5():
    a = [2.0, 3.0, 4.0, 5.0, 6.0]
    b = [1.0, 1.0, 1.0, 1.0, 1.0]
    assert math.isclose(wmw_paired(a, b), 0.0625, rel_tol=1e-12)


def test_wmw_sign_flip_symmetry():
    rng = np.random.default_rng(5)
    a = rng.normal(size=9)
    b = rng.normal(size=9)
    assert math.isclose(wmw_paired(a, b), wmw_paired(b, a), rel_tol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_wmw_exact_matches_enumeration(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(5, 11))
    a = rng.normal(size=n)
    b = a - rng.normal(size=n)
    if seed % 3 == 0:
        b[0] = a[0]  # inject a zero difference
    if seed % 4 == 0 and n >= 6:
        b[1] = a[1] - (a[2] - b[2])  # inject a tie in |d|
    assert math.isclose(wmw_paired(a, b), wmw_enumeration_oracle(a, b), rel_tol=1e-12)


def test_wmw_normal_approximation_reasonable():
    rng = np.random.default_rng(6)
    a = rng.normal(size=40) + 1.0
    b = rng.normal(size=40)
    p_large = wmw_paired(a, b)
    assert 0.0 <= p_large < 0.01
    c = rng.normal(size=40)
    d = c + rng.normal(size=40) * 0.01
    assert wmw_paired(c, d) > 0.05


def test_wmw_rejects_short_or_unequal():
    with pytest.raises(ValueError):
        wmw_paired([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        wmw_paired([1.0] * 6, [1.0] * 5)


# ------------------------------------------------------------------- sybil


def test_sybil_identical_style_recovers_alias():
    rng = np.random.default_rng(7)
    style = rng.normal(size=6)
    emb, authors, markets = [], [], []
    for i in range(3):
        emb.append(style + rng.normal(size=6) * 0.01)
        authors.append("alice")
        markets.append("m1")
        emb.append(style + rng.normal(size=6) * 0.01)
        authors.append("alicia")
        markets.append("m2")
    for i in range(5):
        emb.append(rng.normal(size=6) * 3)
        authors.append(f"noise{i}")
        markets.append("m2")
    idx = make_index(np.array(emb), authors, markets)
    cand_author, cand_market, count = topk_sybil(idx, "m1", "alice", k=2)
    assert (cand_author, cand_market) == ("alicia", "m2")
    assert count >= 3


def test_sybil_k1_single_episode():
    emb = np.array([[1.0, 0.0], [0.9, 0.44], [0.0, 1.0]])
    idx = make_index(emb, ["q", "near", "far"], markets=["m1", "m2", "m2"])
    cand_author, cand_market, count = topk_sybil(idx, "m1", "q", k=1)
    assert (cand_author, cand_market, count) == ("near", "m2", 1)


def test_sybil_candidate_never_own_market():
    rng = np.random.default_rng(8)
    emb = rng.normal(size=(12, 4))
    authors = [f"a{i}" for i in range(12)]
    markets = ["m1"] * 6 + ["m2"] * 6
    idx = make_index(emb, authors, markets)
    for a in range(6):
        _, cand_market, _ = topk_sybil(idx, "m1", f"a{a}", k=3)
        assert cand_market == "m2"


def test_sybil_requires_cross_market():
    idx = make_index(np.eye(3), ["a", "a", "b"])
    with pytest.raises(ValueError, match="cross-market"):
        topk_sybil(idx, "m1", "a", k=1)


# ------------------------------------------------------ integrated gradients


def test_gauss_legendre_weights_sum_to_one():
    for steps in (1, 5, 50):
        nodes, weights = gauss_legendre_unit(steps)
        assert math.isclose(weights.sum(), 1.0, rel_tol=1e-12)
        assert np.all((nodes > 0) & (nodes < 1))


def test_ig_linear_function_exact_any_steps():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(3, 4))
    x = rng.normal(size=(3, 4))
    baseline = rng.normal(size=(3, 4))

    def fn(t):
        return nc.sum_(nc.mul(t, Tensor(w)))

    for steps in (1, 2, 7):
        attr, completeness = integrated_gradients_fn(fn, x, baseline, steps=steps)
        assert np.allclose(attr, (x - baseline) * w, atol=1e-10)
        assert completeness["gap"] < 1e-10


def test_ig_completeness_nonlinear():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 5))
    baseline = np.zeros((2, 5))

    def fn(t):
        h = nc.relu(nc.matmul(t, Tensor(rngW)))
        return nc.sum_(nc.mul(h, h))

    global rngW
    rngW = rng.normal(size=(5, 3))
    attr, completeness = integrated_gradients_fn(fn, x, baseline, steps=50)
    denom = max(abs(completeness["delta"]), 1e-8)
    assert completeness["gap"] / denom < 1e-3


def test_ig_zero_baseline_input_gets_zero_attribution():
    x = np.zeros((2, 3))
    baseline = np.zeros((2, 3))

    def fn(t):
        return nc.sum_(nc.mul(t, t))

    attr, _ = integrated_gradients_fn(fn, x, baseline, steps=5)
    assert np.array_equal(attr, np.zeros_like(x))


def test_integrated_gradients_leaves_no_gradient_on_the_model():
    vocab = train_char_vocab(["hello world this is text abcdef"], size=40)
    cfg = tiny_config(vocab_size=len(vocab))
    model = EpisodeModel.build(cfg, markets={"m1": ["s1", "s2"]}, seed=0)
    encoder = PostEncoder(vocab, cfg.max_tokens)
    episode = Episode(market="m1", author="alice",
                      posts=(make_post("hello world", pid="p1"),
                             make_post("this is text", subforum="s2", pid="p2")))
    target = cosine_target(np.random.default_rng(3).normal(size=cfg.episode_dim))
    # a model loaded without gradients, as the CLI loads a run
    loaded = EpisodeModel(cfg, model.subforum_maps,
                          {name: Tensor(p.data) for name, p in model.params.items()})
    want = integrated_gradients(loaded, encoder, episode, target, steps=4)
    got = integrated_gradients(model, encoder, episode, target, steps=4)
    assert [name for name, p in model.params.items() if p.grad is not None] == []
    assert got == want


def test_cosine_target_gradient_sane():
    centroid = np.array([1.0, 0.0, 0.0, 0.0])
    fn = cosine_target(centroid)
    aligned = fn(Tensor(np.array([[2.0, 0.0, 0.0, 0.0]], dtype=np.float32)))
    assert math.isclose(aligned.item(), 1.0, abs_tol=1e-6)
    ortho = fn(Tensor(np.array([[0.0, 3.0, 0.0, 0.0]], dtype=np.float32)))
    assert abs(ortho.item()) < 1e-6


# ------------------------------------------------------------------ report


def test_metrics_report_and_export(tmp_path):
    rng = np.random.default_rng(11)
    emb = rng.normal(size=(20, 4))
    idx = make_index(emb, [f"a{i % 4}" for i in range(20)])
    d = market_metrics(idx, kappa=10, ks=(1, 5, 10), seed=1)["all"]
    assert set(d) == {"group", "mrr", "recall", "kappa", "n_queries", "seed",
                      "random_baseline_mrr"}
    assert d["n_queries"] == 10
    path = tmp_path / "emb.npy"
    export_embeddings_tsv(path, idx)
    rows = json.loads(path.with_suffix(".json").read_text())
    assert rows[0] == ["e0", "m1", "a0"]
    assert len(rows) == 20 and np.load(path).shape == (20, 4)


def test_embeddings_tsv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    emb = rng.normal(size=(7, 5)).astype(np.float32) * np.logspace(-30, 30, 7)[:, None]
    names = ["a\t0", "a\n1", "a\x002"]
    idx = RetrievalIndex([f"m{i % 2}/{names[i % 3]}/p{i}" for i in range(7)],
                         [f"m{i % 2}" for i in range(7)], [names[i % 3] for i in range(7)], emb)
    path = tmp_path / "emb.npy"
    export_embeddings_tsv(path, idx)
    back = read_embeddings_index(path)
    assert back.episode_ids == idx.episode_ids
    assert list(back.markets) == list(idx.markets)
    assert list(back.authors) == list(idx.authors)
    assert back.raw.dtype == np.float64 and back.raw.tobytes() == idx.raw.tobytes()


def test_embeddings_tsv_reader_names_the_bad_line(tmp_path):
    idx = make_index(np.eye(3), ["a", "b", "c"])
    path = tmp_path / "emb.npy"
    export_embeddings_tsv(path, idx)
    labels = path.with_suffix(".json")
    rows = json.loads(labels.read_text())
    labels.write_text(json.dumps(rows[:2]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        read_embeddings_index(path)
    labels.write_text(json.dumps(rows))
    np.save(path, np.zeros(3))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        read_embeddings_index(path)
    not_npy = np.random.default_rng(13).integers(0, 256, size=256, dtype=np.uint8).tobytes()
    for write in (lambda: path.write_bytes(b""), lambda: path.write_bytes(not_npy),
                  lambda: np.save(path, np.array([["a", 1]] * 3, dtype=object))):
        write()
        with pytest.raises(ValueError) as exc:
            read_embeddings_index(path)
        assert str(exc.value) == f"{path}: not a float .npy matrix"
        assert "allow_pickle" not in str(exc.value)
