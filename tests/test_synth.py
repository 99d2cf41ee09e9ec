import hashlib
from pathlib import Path

import pytest

from epistyle import corpus as corpus_mod
from epistyle.corpus import (
    SPECIAL_TOKENS,
    extract_pgp_candidate_pairs,
    load_migration_labels,
    preprocess_text,
)
from epistyle.synth import DEFAULT_START, SynthConfig, generate_corpus, total_variation, write_corpus


@pytest.fixture(scope="module")
def small_corpus():
    cfg = SynthConfig(authors_per_market=8, posts_per_author=40, migrant_count=2,
                      distinct_pair_count=2, weeks=10, seed=11)
    return cfg, generate_corpus(cfg)


def test_construction_arithmetic():
    cfg = SynthConfig(authors_per_market=20, posts_per_author=100, migrant_count=5, seed=1)
    corpus = generate_corpus(cfg)
    assert corpus.total_posts() == 2 * 20 * 100 == 4000
    positives = [lab for lab in corpus.labels if lab.same_author]
    assert len(positives) == 5


def test_seed_reproducibility(tmp_path):
    cfg = SynthConfig(authors_per_market=5, posts_per_author=10, migrant_count=1,
                      distinct_pair_count=1, seed=7)
    a = write_corpus(generate_corpus(cfg), tmp_path / "a")
    b = write_corpus(generate_corpus(cfg), tmp_path / "b")
    for key in a:
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()


def test_corpus_bytes_pinned(tmp_path):
    # every benchmark workload and end-to-end criterion starts from synth, so
    # its bytes must not move with a refactor; the digest is that of the
    # generator before its word draw became a bisect over a running sum
    cfg = SynthConfig(markets=("alpha", "beta", "gamma"), authors_per_market=6,
                      posts_per_author=30, migrant_count=2, distinct_pair_count=2, weeks=8,
                      archetypes=True, late_author_fraction=0.25, community_affinity=True,
                      seed=5)
    written = write_corpus(generate_corpus(cfg), tmp_path)
    digest = hashlib.sha256()
    for key in sorted(written):
        digest.update(Path(written[key]).read_bytes())
    assert sorted(written) == ["alpha", "beta", "gamma", "labels"]
    assert digest.hexdigest() == "8a9d25205d23670372a0fe565b2916fe3e4a35bc055bc285424457881fabfdcf"


def test_migrant_word_distributions_close_others_far(small_corpus):
    cfg, corpus = small_corpus
    migrants = [lab for lab in corpus.labels if lab.same_author]
    assert migrants
    for lab in migrants:
        tv = total_variation(corpus.profiles[lab.user_a], corpus.profiles[lab.user_b])
        assert tv < 0.05
    distinct = [lab for lab in corpus.labels if not lab.same_author]
    for lab in distinct:
        tv = total_variation(corpus.profiles[lab.user_a], corpus.profiles[lab.user_b])
        assert tv > 0.3


def test_post_invariants_hold(small_corpus):
    cfg, corpus = small_corpus
    for market, posts in corpus.posts.items():
        ids = [p.post_id for p in posts]
        assert len(ids) == len(set(ids))
        for p in posts:
            assert p.market == market
            assert p.timestamp > 0
            assert p.author


def test_every_special_token_trigger_present():
    cfg = SynthConfig(authors_per_market=12, posts_per_author=80, migrant_count=2,
                      distinct_pair_count=2, seed=3)
    corpus = generate_corpus(cfg)
    blob = "\n".join(p.body for posts in corpus.posts.values() for p in posts)
    processed = preprocess_text(blob)
    for token in SPECIAL_TOKENS:
        assert token in processed, f"{token} never triggered"


def test_labels_round_trip_through_loader(tmp_path, small_corpus):
    cfg, corpus = small_corpus
    paths = write_corpus(corpus, tmp_path)
    loaded = load_migration_labels(paths["labels"])
    want = {lab.key(): lab.same_author for lab in corpus.labels}
    got = {lab.key(): lab.same_author for lab in loaded}
    assert want == got


def test_pgp_candidates_cover_labeled_pairs(small_corpus):
    cfg, corpus = small_corpus
    all_posts = [p for posts in corpus.posts.values() for p in posts]
    candidates = {lab.key() for lab in extract_pgp_candidate_pairs(all_posts)}
    for lab in corpus.labels:
        assert lab.key() in candidates, f"labeled pair {lab.key()} not recoverable from keys"


def test_thread_structure_connects_users(small_corpus):
    cfg, corpus = small_corpus
    for posts in corpus.posts.values():
        threads: dict[str, set[str]] = {}
        for p in posts:
            threads.setdefault(p.thread_id, set()).add(p.author)
        multi = [t for t, users in threads.items() if len(users) >= 2]
        assert len(multi) > 0  # replies connect different users through threads


def test_late_authors_post_late():
    cfg = SynthConfig(authors_per_market=10, posts_per_author=20, migrant_count=0,
                      distinct_pair_count=0, late_author_fraction=0.3, weeks=10, seed=5)
    corpus = generate_corpus(cfg)
    for market, posts in corpus.posts.items():
        by_author: dict[str, list[float]] = {}
        for p in posts:
            by_author.setdefault(p.author, []).append(p.timestamp)
        late_threshold = DEFAULT_START + int(cfg.weeks * 0.55) * 7 * 86400
        n_late = sum(1 for ts_list in by_author.values() if min(ts_list) >= late_threshold)
        assert n_late >= 3


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(authors_per_market=3, migrant_count=4).validate()
    with pytest.raises(ValueError):
        SynthConfig(markets=("solo",), migrant_count=1).validate()
