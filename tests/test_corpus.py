import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistyle import corpus
from epistyle.corpus import (
    Episode,
    MigrationLabel,
    Post,
    assemble_episodes,
    chronological_split,
    extract_pgp_candidate_pairs,
    load_migration_labels,
    load_posts,
    preprocess_text,
    same_author_classes,
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


def _warned_lines(caplog) -> list[int]:
    return [r.args[1] for r in caplog.records
            if r.name == "epistyle.corpus" and "malformed post line" in r.msg]


def test_load_posts_skips_out_of_range_timestamps(tmp_path, caplog):
    # NaN passes a plain `timestamp <= 0` check and lands in a split;
    # Infinity and 1e20 make day_of_week raise OverflowError
    path = tmp_path / "posts.jsonl"
    lines = [json.dumps(_row(pid="ok1", ts=5.0)),
             json.dumps(_row(pid="nan", ts=math.nan)),
             json.dumps(_row(pid="inf", ts=math.inf)),
             json.dumps(_row(pid="big", ts=1e20)),
             json.dumps(_row(pid="ninf", ts=-math.inf)),
             json.dumps(_row(pid="huge", ts=10 ** 400)),
             json.dumps(_row(pid="last", ts=float(corpus.MAX_TIMESTAMP)))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING", logger="epistyle.corpus"):
        posts, malformed = load_posts(path, "m1")
    assert [p.post_id for p in posts] == ["ok1", "last"]
    assert malformed == 5
    assert _warned_lines(caplog) == [2, 3, 4, 5, 6]


def _reference_load_posts(path, market):
    """The per-line `json.loads` parser `load_posts` replaced, kept here as the
    oracle: (posts, malformed count, warned line numbers)."""
    posts, malformed, warned = [], 0, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                missing = [k for k in Post._fields[1:] if k not in obj]
                if missing:
                    raise KeyError(", ".join(missing))
                post = Post(
                    market=market, subforum=str(obj["subforum"]),
                    thread_id=str(obj["thread_id"]), post_id=str(obj["post_id"]),
                    author=str(obj["author"]), timestamp=float(obj["timestamp"]),
                    is_thread_start=bool(obj["is_thread_start"]), body=str(obj["body"]))
                if not post.author or not 0 < post.timestamp <= 253402300799:
                    raise ValueError("empty author or timestamp out of range")
                posts.append(post)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                malformed += 1
                warned.append(lineno)
    return posts, malformed, warned


def _fuzz_line(rng: random.Random, pid: str) -> str:
    row = _row(pid=pid, ts=rng.choice([5.0, 1.5e9, 7]))
    row["subforum"] = rng.choice(["s", 3, None])
    row["is_thread_start"] = rng.choice([False, True, 0, 1])

    def ws():
        return "".join(rng.choice(" \t\r") for _ in range(rng.randrange(3)))

    kind = rng.randrange(14)
    if kind == 0:
        return ws() + json.dumps(row) + ws()
    if kind == 1:
        return rng.choice(["\x0c", "\xa0", "\ufeff", " \ufeff"]) + json.dumps(row)
    if kind == 2:
        return json.dumps(row) + rng.choice(["", " "]) + json.dumps(_row(pid=pid + "b"))
    if kind == 3:  # one object over two lines: each half alone is malformed
        text = json.dumps(row, indent=rng.choice([None, 1]))
        cut = rng.randrange(1, len(text))
        return text[:cut] + "\n" + text[cut:]
    if kind == 4:
        return rng.choice(["[1, 2]", "[]", json.dumps(Post._fields[1:]),
                           '"x"', json.dumps(" ".join(Post._fields[1:])),
                           "null", "12", "true"])
    if kind == 5:
        row["timestamp"] = rng.choice([math.nan, math.inf, -math.inf, 1e20, 0, -3, "12.5", "x"])
        return json.dumps(row)
    if kind == 6:
        del row[rng.choice(Post._fields[1:])]
        return json.dumps(row)
    if kind == 7:
        row["author"] = ""
        return json.dumps(row)
    if kind == 8:
        return rng.choice(["", " ", "\t", "\x0c", "\xa0", " \x0c \xa0", "\u2028"])
    if kind == 9:
        return json.dumps(row)[: rng.randrange(len(json.dumps(row)))]
    if kind == 10:
        return json.dumps(row) + rng.choice(["\x0c", "\xa0", ",", "}", " x"])
    if kind == 11:
        return json.dumps(row, ensure_ascii=False) + ws()
    return json.dumps(row)


def test_load_posts_matches_the_per_line_json_loads_parser(tmp_path, caplog):
    rng = random.Random(20261018)
    path = tmp_path / "posts.jsonl"
    for trial in range(300):
        lines = [_fuzz_line(rng, f"p{trial}_{i}") for i in range(rng.randrange(1, 25))]
        end = rng.choice(["\n", "\r\n", ""])
        path.write_text("\n".join(lines) + end, encoding="utf-8", newline="")
        caplog.clear()
        with caplog.at_level("WARNING", logger="epistyle.corpus"):
            posts, malformed = load_posts(path, "m1")
        ref_posts, ref_malformed, ref_warned = _reference_load_posts(path, "m1")
        assert posts == ref_posts, trial
        assert malformed == ref_malformed, trial
        assert _warned_lines(caplog) == ref_warned, trial


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
    cut, split = chronological_split(posts)
    assert cut == 2.5
    assert split == {"m1": {"p1": "train", "p2": "train", "p3": "test", "p4": "test"}}


def test_split_singleton_degenerate():
    assert chronological_split([make_post(ts=5)]) == (5, {"m1": {"p1": "train"}})


def test_split_median_ties_go_to_train():
    posts = [make_post(pid=f"p{i}", ts=ts) for i, ts in enumerate([1, 1, 1, 9])]
    _, split = chronological_split(posts)
    assert split == {"m1": {"p0": "train", "p1": "train", "p2": "train", "p3": "test"}}


def test_split_boundary_property():
    rng = random.Random(0)
    posts = [make_post(pid=f"p{i}", ts=rng.uniform(1, 1e6)) for i in range(101)]
    cut, split = chronological_split(posts)
    train, test = corpus.split_posts({"m1": posts}, split)
    assert len(train["m1"]) + len(test["m1"]) == len(posts)
    max_train = max(p.timestamp for p in train["m1"])
    min_test = min(p.timestamp for p in test["m1"])
    assert max_train <= min_test
    assert max_train <= cut < min_test


def test_split_posts_keeps_file_order_and_drops_unlisted_posts():
    posts = [make_post(pid=pid, ts=1) for pid in ("p3", "p1", "p4", "p2", "p5")]
    split = {"m1": {"p1": "test", "p2": "train", "p3": "train", "p4": "test"}, "m2": {"p1": "train"}}
    train, test = corpus.split_posts({"m1": posts}, split)
    assert [p.post_id for p in train["m1"]] == ["p3", "p2"]
    assert [p.post_id for p in test["m1"]] == ["p1", "p4"]


def test_split_manifest_round_trip(tmp_path):
    split = {}
    for market, n in (("m1", 7), ("m0", 2)):
        posts = [make_post(market=market, pid=f"p{t}", ts=t) for t in range(n, 0, -1)]
        split.update(chronological_split(posts)[1])
    path = tmp_path / "split.csv"
    corpus.write_split_manifest(path, split)
    assert corpus.read_split_manifest(path) == split
    assert path.read_bytes() == (b"market,post_id,split\r\nm0,p1,train\r\nm0,p2,test\r\n"
                                 b"m1,p1,train\r\nm1,p2,train\r\nm1,p3,train\r\nm1,p4,train\r\n"
                                 b"m1,p5,test\r\nm1,p6,test\r\nm1,p7,test\r\n")


def test_split_manifest_reader_finds_columns_by_name_and_skips_blank_lines(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text("split,post_id,market\r\n\r\ntrain,p1,alpha\r\n\r\ntest,p2,beta\r\n")
    assert corpus.read_split_manifest(path) == {"alpha": {"p1": "train"}, "beta": {"p2": "test"}}


@pytest.mark.parametrize("rows, message", [
    ("alpha,p1,train\nalpha,p2\n", ":3: expected 3 fields, got 2"),
    ("alpha,p1,train,extra\n", ":2: expected 3 fields, got 4"),
    ("alpha,p1,train\nalpha,p2,Train\n", ":3: split 'Train' is not 'train' or 'test'"),
    ("alpha,p1,\n", ":2: split '' is not 'train' or 'test'"),
    ("alpha,p1,train\nbeta,p1,test\nalpha,p1,test\n",
     ":4: post 'p1' of market 'alpha' is listed twice"),
])
def test_split_manifest_bad_row_names_its_line(tmp_path, rows, message):
    # a short row or an unknown split used to land in the test split, and a
    # post listed twice in both splits
    path = tmp_path / "split.csv"
    path.write_text("market,post_id,split\n" + rows)
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        corpus.read_split_manifest(path)


@pytest.mark.parametrize("header, column", [("market,id,split", "post_id"), ("", "market")])
def test_split_manifest_bad_header_names_the_column(tmp_path, header, column):
    path = tmp_path / "split.csv"
    path.write_text(header + "\nalpha,p1,train\n" if header else "")
    with pytest.raises(ValueError, match=re.escape(f"{path}: split manifest header has no "
                                                   f"{column!r} column")):
        corpus.read_split_manifest(path)


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
    assert assemble_episodes(_author_posts(9), length=5) == []


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


def test_load_migration_labels_same_market_row_fails_naming_its_line(tmp_path):
    rows = [("M1", "a", "M2", "b", "true"), ("M1", "a", "M1", "c", "false")]
    path = _labels_csv(tmp_path, rows)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: migration label must pair users "
                                                   f"from different markets")):
        load_migration_labels(path)


def test_load_migration_labels_duplicates_collapse(tmp_path):
    rows = [("M1", "a", "M2", "b", "true"), ("M1", "a", "M2", "b", "true")]
    assert len(load_migration_labels(_labels_csv(tmp_path, rows))) == 1


# ----------------------------------------------------------- cross dataset


def test_cross_dataset_transitive_cluster():
    users = [("M1", "a"), ("M2", "b"), ("M3", "c")]
    labels = [
        MigrationLabel(("M1", "a"), ("M2", "b"), True),
        MigrationLabel(("M2", "b"), ("M3", "c"), True),
    ]
    assert same_author_classes(labels, set(users)) == [tuple(users)]


def test_cross_dataset_distinct_pair_two_classes():
    users = {("M1", "a"), ("M2", "b")}
    classes = same_author_classes([MigrationLabel(("M1", "a"), ("M2", "b"), False)], users)
    assert classes == [(("M1", "a"),), (("M2", "b"),)]


def test_cross_dataset_no_labels_empty():
    assert same_author_classes([], {("M1", "a")}) == []


def test_cross_dataset_unknown_user_skipped():
    labels = [MigrationLabel(("M1", "a"), ("M2", "ghost"), True)]
    assert same_author_classes(labels, {("M1", "a")}) == []


def test_cross_dataset_classes_partition_users():
    users = [("M1", "a"), ("M2", "b"), ("M1", "c"), ("M2", "d"), ("M3", "e")]
    labels = [
        MigrationLabel(("M1", "a"), ("M2", "b"), True),
        MigrationLabel(("M1", "c"), ("M2", "d"), False),
        MigrationLabel(("M2", "d"), ("M3", "e"), True),
    ]
    classes = same_author_classes(labels, set(users))
    flat = [u for members in classes for u in members]
    assert len(flat) == len(set(flat)) == 5
    assert classes == [(("M1", "a"), ("M2", "b")), (("M1", "c"),), (("M2", "d"), ("M3", "e"))]
