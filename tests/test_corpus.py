import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistyle import corpus
from epistyle.corpus import (
    Episode,
    MigrationLabel,
    Post,
    assemble_episodes,
    build_cross_dataset,
    chronological_split,
    extract_pgp_candidate_pairs,
    load_migration_labels,
    load_posts,
    preprocess_text,
    write_posts,
)

PUBKEY_BLOCK = (
    "-----BEGIN PGP PUBLIC KEY BLOCK-----\n"
    "Version: GnuPG v1\n"
    "\n"
    "mQENBFexampleAAAQgjE5XkeyMaterial+base64/lines01\n"
    "cGF5bG9hZGNvbnRpbnVlc2hlcmU+anotherLine+stuff99\n"
    "=AbCd\n"
    "-----END PGP PUBLIC KEY BLOCK-----"
)


def make_post(pid="p1", market="m1", author="alice", ts=1000.0, body="hello",
              subforum="s1", thread="t1", start=False):
    return Post(
        market=market, subforum=subforum, thread_id=thread, post_id=pid,
        author=author, timestamp=ts, is_thread_start=start, body=body,
    )


# ------------------------------------------------------------------ ingest


def _write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _row(pid="p1", author="alice", ts=5.0):
    return {
        "market": "m1", "subforum": "s", "thread_id": "t", "post_id": pid,
        "author": author, "timestamp": ts, "is_thread_start": False, "body": "x",
    }


def test_load_posts_three_valid_lines(tmp_path):
    path = tmp_path / "posts.jsonl"
    _write_jsonl(path, [_row(pid=f"p{i}") for i in range(3)])
    posts, malformed = load_posts(path, "m1")
    assert len(posts) == 3 and malformed == 0
    assert all(p.market == "m1" for p in posts)
    write_posts(tmp_path / "copy.jsonl", posts)
    assert load_posts(tmp_path / "copy.jsonl", "m1") == (posts, 0)


def test_load_posts_empty_file(tmp_path):
    path = tmp_path / "posts.jsonl"
    path.write_text("")
    posts, malformed = load_posts(path, "m1")
    assert posts == [] and malformed == 0


def test_load_posts_missing_author_skipped(tmp_path):
    path = tmp_path / "posts.jsonl"
    rows = [_row(pid="p1"), _row(pid="p2")]
    bad = _row(pid="p3")
    del bad["author"]
    _write_jsonl(path, rows + [bad])
    posts, malformed = load_posts(path, "m1")
    assert len(posts) == 2 and malformed == 1


def test_load_posts_unreadable_is_fatal(tmp_path):
    with pytest.raises(OSError):
        load_posts(tmp_path / "missing.jsonl", "m1")


# -------------------------------------------------------------- preprocess


def test_preprocess_pubkey_block():
    assert preprocess_text(PUBKEY_BLOCK) == "[PGP PUBKEY]"


def test_preprocess_plain_text_untouched():
    assert preprocess_text("plain words only") == "plain words only"


def test_preprocess_url():
    assert preprocess_text("see http://x.onion/ab now") == "see [LINK] now"
    assert preprocess_text("go www.example.com/x!") == "go [LINK]"


def test_preprocess_quote_image_signature():
    text = "[quote=bob]whatever he said[/quote] i agree [img]http://a.png[/img]"
    assert preprocess_text(text) == "[QUOTE] i agree [IMAGE]"
    sig = "-----BEGIN PGP SIGNATURE-----\n\nabcd\n=xx\n-----END PGP SIGNATURE-----"
    assert preprocess_text(sig) == "[PGP SIGNATURE]"
    msg = "-----BEGIN PGP MESSAGE-----\n\nabcd\n-----END PGP MESSAGE-----"
    assert preprocess_text(msg) == "[PGP ENCMSG]"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.text(max_size=30),
            st.sampled_from(
                [
                    "http://foo.onion/abc",
                    "www.ref.to/xyz",
                    "[quote=a]inner text[/quote]",
                    "[img]http://i.png[/img]",
                    PUBKEY_BLOCK,
                    "-----BEGIN PGP MESSAGE-----\n\nQUJD\n-----END PGP MESSAGE-----",
                ]
            ),
        ),
        max_size=6,
    )
)
def test_preprocess_idempotent(parts):
    text = " ".join(parts)
    once = preprocess_text(text)
    assert preprocess_text(once) == once


# ------------------------------------------------------------------- split


def test_split_even_count():
    posts = [make_post(pid=f"p{t}", ts=t) for t in (1, 2, 3, 4)]
    spec = chronological_split(posts)
    assert spec.train_ids["m1"] == {"p1", "p2"}
    assert spec.test_ids["m1"] == {"p3", "p4"}


def test_split_singleton_degenerate():
    spec = chronological_split([make_post(ts=5)])
    assert spec.train_ids["m1"] == {"p1"}
    assert spec.test_ids == {}


def test_split_median_ties_go_to_train():
    posts = [make_post(pid=f"p{i}", ts=ts) for i, ts in enumerate([1, 1, 1, 9])]
    spec = chronological_split(posts)
    assert spec.train_ids["m1"] == {"p0", "p1", "p2"}
    assert spec.test_ids["m1"] == {"p3"}


def test_split_boundary_property():
    rng = random.Random(0)
    posts = [make_post(pid=f"p{i}", ts=rng.uniform(1, 1e6)) for i in range(101)]
    spec = chronological_split(posts)
    by_id = {p.post_id: p for p in posts}
    max_train = max(by_id[i].timestamp for i in spec.train_ids["m1"])
    min_test = min(by_id[i].timestamp for i in spec.test_ids["m1"])
    assert max_train <= min_test
    assert max_train <= spec.split_timestamp < min_test


def test_split_manifest_round_trip(tmp_path):
    posts = [make_post(pid=f"p{t}", ts=t) for t in range(1, 8)]
    spec = chronological_split(posts)
    path = tmp_path / "split.csv"
    corpus.write_split_manifest(path, spec)
    loaded = corpus.read_split_manifest(path)
    assert loaded.train_ids == spec.train_ids
    assert loaded.test_ids == spec.test_ids


def test_split_empty_errors():
    with pytest.raises(ValueError):
        chronological_split([])


# ---------------------------------------------------------------- episodes


def _author_posts(n, author="alice", market="m1"):
    return [make_post(pid=f"{author}{i}", author=author, market=market, ts=100 + i) for i in range(n)]


def test_fixed_episodes_ten_posts_l5():
    eps = assemble_episodes(_author_posts(10), length=5)
    assert len(eps) == 2
    assert all(len(e) == 5 for e in eps)


def test_author_below_threshold_excluded():
    assert assemble_episodes(_author_posts(9), length=5, min_episodes=2) == []


def test_unit_windows():
    eps = assemble_episodes(_author_posts(5), length=1)
    assert len(eps) == 5


def test_fixed_episodes_disjoint_property():
    posts = _author_posts(23) + _author_posts(17, author="bob")
    eps = assemble_episodes(posts, length=4)
    seen = set()
    for e in eps:
        assert len(e) == 4
        for p in e.posts:
            assert p.post_id not in seen
            seen.add(p.post_id)


def test_episode_invariant_enforced():
    with pytest.raises(ValueError):
        Episode(market="m1", author="alice", posts=(make_post(author="bob"),))


# --------------------------------------------------------------- pgp pairs


def _key_block(payload: str) -> str:
    return (
        "-----BEGIN PGP PUBLIC KEY BLOCK-----\n\n"
        f"{payload}\n=ChK5\n-----END PGP PUBLIC KEY BLOCK-----"
    )


def test_pgp_pair_cross_market():
    block = _key_block("sameKeyMaterial000")
    posts = [
        make_post(pid="a", market="M1", author="alice", body=f"hi {block}"),
        make_post(pid="b", market="M2", author="alicia", body=f"yo {block}"),
    ]
    pairs = extract_pgp_candidate_pairs(posts)
    assert len(pairs) == 1
    assert pairs[0].user_a == ("M1", "alice")
    assert pairs[0].user_b == ("M2", "alicia")
    assert pairs[0].same_author is None


def test_pgp_pair_same_market_excluded():
    block = _key_block("sameKeyMaterial000")
    posts = [
        make_post(pid="a", market="M1", author="alice", body=block),
        make_post(pid="b", market="M1", author="alice2", body=block),
    ]
    assert extract_pgp_candidate_pairs(posts) == []


def test_pgp_key_posted_once_no_pairs():
    posts = [make_post(body=_key_block("loneKey999"))]
    assert extract_pgp_candidate_pairs(posts) == []


def test_pgp_header_variants_fingerprint_equal():
    with_header = (
        "-----BEGIN PGP PUBLIC KEY BLOCK-----\nVersion: GnuPG v2\n\n"
        "QUJDREVG\n=q9Qk\n-----END PGP PUBLIC KEY BLOCK-----"
    )
    without_header = (
        "-----BEGIN PGP PUBLIC KEY BLOCK-----\n\nQUJDREVG\n"
        "-----END PGP PUBLIC KEY BLOCK-----"
    )
    assert corpus.pgp_key_fingerprint(with_header) == corpus.pgp_key_fingerprint(without_header)


# ------------------------------------------------------------------ labels


def _labels_csv(tmp_path, rows):
    path = tmp_path / "labels.csv"
    with open(path, "w") as fh:
        fh.write("market_a,user_a,market_b,user_b,same_author\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return path


def test_load_migration_labels_positive(tmp_path):
    rows = [("M1", f"u{i}", "M2", f"v{i}", "true") for i in range(33)]
    labels = load_migration_labels(_labels_csv(tmp_path, rows))
    assert len(labels) == 33
    assert all(lab.same_author for lab in labels)


def test_load_migration_labels_empty(tmp_path):
    assert load_migration_labels(_labels_csv(tmp_path, [])) == []


def test_load_migration_labels_conflict_fatal(tmp_path):
    rows = [("M1", "a", "M2", "b", "true"), ("M2", "b", "M1", "a", "false")]
    with pytest.raises(ValueError, match="conflict"):
        load_migration_labels(_labels_csv(tmp_path, rows))


def test_load_migration_labels_duplicates_collapse(tmp_path):
    rows = [("M1", "a", "M2", "b", "true"), ("M1", "a", "M2", "b", "true")]
    assert len(load_migration_labels(_labels_csv(tmp_path, rows))) == 1


# ----------------------------------------------------------- cross dataset


def _episodes_for(users, n=2):
    eps = []
    for market, author in users:
        posts = [
            make_post(pid=f"{market}{author}{i}", market=market, author=author, ts=10 + i)
            for i in range(n)
        ]
        eps.append(Episode(market=market, author=author, posts=tuple(posts)))
    return eps


def test_cross_dataset_transitive_cluster():
    users = [("M1", "a"), ("M2", "b"), ("M3", "c")]
    eps = _episodes_for(users)
    labels = [
        MigrationLabel(("M1", "a"), ("M2", "b"), True),
        MigrationLabel(("M2", "b"), ("M3", "c"), True),
    ]
    ds = build_cross_dataset(labels, eps)
    assert len(ds.classes) == 1
    assert set(ds.classes[0]) == set(users)
    assert len(ds.episodes) == 3 and set(ds.labels) == {0}


def test_cross_dataset_distinct_pair_two_classes():
    users = [("M1", "a"), ("M2", "b")]
    ds = build_cross_dataset([MigrationLabel(("M1", "a"), ("M2", "b"), False)], _episodes_for(users))
    assert len(ds.classes) == 2
    assert ds.class_of(("M1", "a")) != ds.class_of(("M2", "b"))


def test_cross_dataset_no_labels_empty():
    ds = build_cross_dataset([], _episodes_for([("M1", "a")]))
    assert ds.classes == [] and ds.episodes == []


def test_cross_dataset_unknown_user_skipped():
    eps = _episodes_for([("M1", "a")])
    ds = build_cross_dataset([MigrationLabel(("M1", "a"), ("M2", "ghost"), True)], eps)
    assert ds.classes == []


def test_cross_dataset_classes_partition_users():
    users = [("M1", "a"), ("M2", "b"), ("M1", "c"), ("M2", "d"), ("M3", "e")]
    labels = [
        MigrationLabel(("M1", "a"), ("M2", "b"), True),
        MigrationLabel(("M1", "c"), ("M2", "d"), False),
        MigrationLabel(("M2", "d"), ("M3", "e"), True),
    ]
    ds = build_cross_dataset(labels, _episodes_for(users))
    flat = [u for members in ds.classes for u in members]
    assert len(flat) == len(set(flat)) == 5
