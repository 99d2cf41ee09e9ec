"""Forum post ingestion, text normalization, chronological splitting, and
episode assembly, plus the cross-market same-author classes built from PGP
key reuse and adjudicated migration labels."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
import statistics
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

from .atomic import atomic_write

log = logging.getLogger(__name__)

QUOTE_TOKEN = "[QUOTE]"
PGP_PUBKEY_TOKEN = "[PGP PUBKEY]"
PGP_SIGNATURE_TOKEN = "[PGP SIGNATURE]"
PGP_ENCMSG_TOKEN = "[PGP ENCMSG]"
LINK_TOKEN = "[LINK]"
IMAGE_TOKEN = "[IMAGE]"

SPECIAL_TOKENS = (
    QUOTE_TOKEN,
    PGP_PUBKEY_TOKEN,
    PGP_SIGNATURE_TOKEN,
    PGP_ENCMSG_TOKEN,
    LINK_TOKEN,
    IMAGE_TOKEN,
)

URL_RE = re.compile(r"(https?://|www\.)[^\s]+")

_PGP_BLOCKS = (
    ("PGP PUBLIC KEY BLOCK", PGP_PUBKEY_TOKEN),
    ("PGP SIGNATURE", PGP_SIGNATURE_TOKEN),
    ("PGP MESSAGE", PGP_ENCMSG_TOKEN),
)


def _pgp_re(kind: str) -> re.Pattern:
    return re.compile(
        rf"-----BEGIN {re.escape(kind)}-----.*?-----END {re.escape(kind)}-----",
        re.DOTALL,
    )


_PGP_RES = [(_pgp_re(kind), token) for kind, token in _PGP_BLOCKS]
_PUBKEY_RE = _pgp_re("PGP PUBLIC KEY BLOCK")

# BBCode quote and image blocks, tags matched case-insensitively
QUOTE_RE = re.compile(r"\[quote[^\]]*\].*?\[/quote\]", re.DOTALL | re.IGNORECASE)
IMAGE_RE = re.compile(r"\[img[^\]]*\].*?\[/img\]", re.DOTALL | re.IGNORECASE)

# Authors with fewer than MIN_EPISODES episodes' worth of posts are left out
# of the test episodes and of the training classes; two is the least that
# gives a test query a same-author episode to find.
MIN_EPISODES = 2

MAX_TIMESTAMP = 253402300799  # 9999-12-31T23:59:59Z, the last second `datetime` can hold


class Post(NamedTuple):
    """One forum post; `load_posts` checks those it reads."""

    market: str
    subforum: str
    thread_id: str
    post_id: str
    author: str
    timestamp: float
    is_thread_start: bool
    body: str


@dataclass(frozen=True)
class Episode:
    market: str
    author: str
    posts: tuple[Post, ...]

    def __post_init__(self):
        if not self.posts:
            raise ValueError("episode must contain at least one post")
        for p in self.posts:
            if p.author != self.author or p.market != self.market:
                raise ValueError("episode posts must share author and market")
        times = [p.timestamp for p in self.posts]
        if times != sorted(times):
            raise ValueError("episode posts must be sorted by timestamp")

    def __len__(self) -> int:
        return len(self.posts)


class MigrationLabel(NamedTuple):
    """Two users of different markets; `load_migration_labels` checks those it reads."""

    user_a: tuple[str, str]  # (market, username)
    user_b: tuple[str, str]
    same_author: bool | None

    def key(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return (self.user_a, self.user_b) if self.user_a <= self.user_b else (self.user_b, self.user_a)


# ------------------------------------------------------------------- ingest


_JSON_WHITESPACE = " \t\n\r"  # what `json.loads` skips; `str.strip()` drops more
_scan_once = json.JSONDecoder().scan_once  # the C scanner behind `json.loads`

# A processed market file, `{market}.columns.json`, is one JSON object of
# columns: each field of `Post` but `market` (the file name gives it) maps to
# a list of that field's values in file order. Any other suffix is JSONL.
COLUMNS_SUFFIX = ".columns.json"
POST_COLUMNS = Post._fields[1:]
_COLUMN_TYPES = {"subforum": {str}, "thread_id": {str}, "post_id": {str}, "author": {str},
                 "timestamp": {int, float}, "is_thread_start": {bool}, "body": {str}}


def load_posts(path, market: str) -> tuple[list[Post], int]:
    """The posts of a market file and the count of malformed lines skipped.

    A column document (a path ending in COLUMNS_SUFFIX) is read whole or not
    at all, by `_load_columns`. Any other file holds one JSON object per line.
    A line is malformed where `json.loads` would reject it, where it is not
    an object with every field of `Post` but `market`, where `author` is
    empty, or where `timestamp` is not in (0, MAX_TIMESTAMP]. Malformed lines
    are skipped with a warning; blank lines are skipped silently. An
    unreadable file, and a post_id that two posts share, raise.
    """
    if str(path).endswith(COLUMNS_SUFFIX):
        return _load_columns(path, market), 0
    posts: list[Post] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip(_JSON_WHITESPACE)
            try:
                obj, end = _scan_once(text, 0)
                if end != len(text):
                    raise json.JSONDecodeError("Extra data", text, end)
                p = Post(market, str(obj["subforum"]), str(obj["thread_id"]),
                         str(obj["post_id"]), str(obj["author"]), float(obj["timestamp"]),
                         bool(obj["is_thread_start"]), str(obj["body"]))
                if not p.author:
                    raise ValueError(f"post {p.post_id!r}: author must be nonempty")
                if not 0 < p.timestamp <= MAX_TIMESTAMP:  # also false for NaN
                    raise ValueError(f"post {p.post_id!r}: timestamp {p.timestamp!r} "
                                     f"not in (0, {MAX_TIMESTAMP}]")
                posts.append(p)
                continue
            except StopIteration as exc:
                if line.isspace():
                    continue
                error = json.JSONDecodeError("Expecting value", text, exc.value)
            except KeyError:
                error = KeyError(", ".join(k for k in Post._fields[1:] if k not in obj))
            except (TypeError, ValueError, OverflowError) as exc:
                error = exc
            malformed += 1
            log.warning("%s:%d: skipping malformed post line (%s)", path, lineno, error)
    _check_unique_ids(path, market, [p.post_id for p in posts])
    return posts, malformed


def _check_unique_ids(path, market: str, post_ids: list[str]) -> None:
    """Raise naming the first post_id that repeats an earlier one."""
    if len(set(post_ids)) == len(post_ids):
        return
    seen: set[str] = set()
    for pid in post_ids:
        if pid in seen:
            raise ValueError(f"{path}: duplicate post_id {pid!r} in market {market!r}")
        seen.add(pid)


def _load_columns(path, market: str) -> list[Post]:
    """The posts of a column document. The program wrote it, so any fault
    fails the whole file, naming it: a document that is not JSON or not an
    object of exactly the POST_COLUMNS lists of one length, a cell of the
    wrong type, an empty author, a timestamp not in (0, MAX_TIMESTAMP], or a
    post_id that two posts share."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a UnicodeDecodeError too
            raise ValueError(f"{path}: not a JSON column document ({exc})") from None
    if not isinstance(doc, dict) or doc.keys() != _COLUMN_TYPES.keys():
        raise ValueError(f"{path}: not a JSON object of exactly the columns "
                         f"{', '.join(POST_COLUMNS)}")
    if not all(type(doc[name]) is list for name in POST_COLUMNS):
        raise ValueError(f"{path}: every column must be a list")
    if len({len(doc[name]) for name in POST_COLUMNS}) != 1:
        raise ValueError(f"{path}: columns differ in length")
    for name, types in _COLUMN_TYPES.items():
        wrong = set(map(type, doc[name])) - types
        if wrong:
            raise ValueError(f"{path}: column {name!r} holds a value of type "
                             f"{wrong.pop().__name__}")
    timestamps = doc["timestamp"]
    bad = next((t for t in timestamps if not 0 < t <= MAX_TIMESTAMP), None)  # NaN is bad too
    if bad is not None:
        raise ValueError(f"{path}: timestamp {bad!r} not in (0, {MAX_TIMESTAMP}]")
    if not all(doc["author"]):
        raise ValueError(f"{path}: author must be nonempty")
    _check_unique_ids(path, market, doc["post_id"])
    return list(map(Post, repeat(market), doc["subforum"], doc["thread_id"], doc["post_id"],
                    doc["author"], map(float, timestamps), doc["is_thread_start"], doc["body"]))


def write_posts(path, posts: list[Post]) -> None:
    """The format `load_posts` reads at `path`: a column document under
    COLUMNS_SUFFIX, else one JSON object per line with sorted keys. Both
    escape every non-ASCII character, so lone surrogates round-trip."""
    with atomic_write(path, encoding="utf-8") as fh:
        if str(path).endswith(COLUMNS_SUFFIX):
            fh.write(json.dumps({name: list(map(attrgetter(name), posts))
                                 for name in POST_COLUMNS}) + "\n")
        else:
            for p in posts:
                fh.write(json.dumps(p._asdict(), sort_keys=True) + "\n")


# --------------------------------------------------------------- preprocess


def preprocess_text(raw: str) -> str:
    """Replace quoted posts, PGP armor blocks, links, and images with special
    tokens. Idempotent: the tokens themselves never re-match."""
    text = QUOTE_RE.sub(QUOTE_TOKEN, raw)
    for pgp_re, token in _PGP_RES:
        text = pgp_re.sub(token, text)
    text = IMAGE_RE.sub(IMAGE_TOKEN, text)
    return URL_RE.sub(LINK_TOKEN, text)


# -------------------------------------------------------------------- split


# a train/test split: market -> post id -> "train" or "test"
Split = dict[str, dict[str, str]]


def chronological_split(posts: list[Post]) -> tuple[float, Split]:
    """The median timestamp and the split it makes; median ties go to train."""
    if not posts:
        raise ValueError("chronological_split: empty post list")
    cut = statistics.median(p.timestamp for p in posts)
    split: Split = {}
    for p in posts:
        split.setdefault(p.market, {})[p.post_id] = "train" if p.timestamp <= cut else "test"
    n_test = sum(p.timestamp > cut for p in posts)
    if n_test in (0, len(posts)):
        log.warning("degenerate split: train=%d test=%d posts", len(posts) - n_test, n_test)
    return cut, split


def split_posts(posts_by_market: dict[str, list[Post]], split: Split, source):
    """Each market's train posts and test posts, in file order; a post the
    split does not list is in neither. A split that lists none of a market's
    posts is from another corpus: that fails, naming `source` and the market."""
    train, test = {}, {}
    for market, posts in posts_by_market.items():
        sides = split.get(market, {})
        train[market] = [p for p in posts if sides.get(p.post_id) == "train"]
        test[market] = [p for p in posts if sides.get(p.post_id) == "test"]
        if posts and not (train[market] or test[market]):
            raise ValueError(f"{source}: lists none of the {len(posts)} posts of market "
                             f"{market!r}")
    return train, test


SPLIT_COLUMNS = ("market", "post_id", "split")


def write_split_manifest(path, split: Split) -> None:
    """One row per post: by market, train before test, by post id."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPLIT_COLUMNS)
        for market in sorted(split):
            rows = sorted(split[market].items(), key=lambda row: (row[1] != "train", row[0]))
            writer.writerows([market, pid, side] for pid, side in rows)


def read_split_manifest(path) -> Split:
    """Read `write_split_manifest`'s CSV. Every row but a blank one has the
    header's field count, a split of `train` or `test`, and a (market,
    post_id) that no other row has."""
    split: Split = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        for name in SPLIT_COLUMNS:
            if name not in header:
                raise ValueError(f"{path}: split manifest header has no {name!r} column")
        m, p, s = (header.index(name) for name in SPLIT_COLUMNS)
        width = len(header)
        for row in rows:
            if len(row) != width or row[s] not in ("train", "test"):
                if not row:
                    continue
                if len(row) != width:
                    raise ValueError(f"{path}:{rows.line_num}: expected {width} fields, "
                                     f"got {len(row)}")
                raise ValueError(f"{path}:{rows.line_num}: split {row[s]!r} is not "
                                 f"'train' or 'test'")
            sides = split.setdefault(row[m], {})
            if row[p] in sides:
                raise ValueError(f"{path}:{rows.line_num}: post {row[p]!r} of market "
                                 f"{row[m]!r} is listed twice")
            sides[row[p]] = row[s]
    return split


# ----------------------------------------------------------------- episodes


def author_timelines(posts: list[Post]) -> dict[tuple[str, str], list[Post]]:
    """Each (market, author)'s posts, sorted by (timestamp, post_id)."""
    groups: dict[tuple[str, str], list[Post]] = {}
    for p in posts:
        groups.setdefault((p.market, p.author), []).append(p)
    for group in groups.values():
        group.sort(key=lambda p: (p.timestamp, p.post_id))
    return groups


def assemble_episodes(posts: list[Post], length: int) -> list[Episode]:
    """Bundle same-author posts into consecutive non-overlapping episodes of
    exactly `length` posts, dropping the trailing remainder. Authors with
    fewer than MIN_EPISODES * length posts are excluded.
    """
    if length < 1:
        raise ValueError(f"episode length must be >= 1, got {length}")
    episodes: list[Episode] = []
    for (market, author), group in sorted(author_timelines(posts).items()):
        if len(group) < MIN_EPISODES * length:
            continue
        for s in range(0, len(group) // length * length, length):
            episodes.append(Episode(market=market, author=author, posts=tuple(group[s : s + length])))
    return episodes


# -------------------------------------------------------- cross-market data


_ARMOR_HEADER_RE = re.compile(r"[A-Za-z][A-Za-z0-9-]*: ")


def _normalize_armor_payload(block: str) -> str | None:
    """Base64 payload of a PGP armor block, with headers and checksum removed."""
    payload: list[str] = []
    for ln in block.splitlines()[1:]:
        ln = ln.strip()
        if not ln or _ARMOR_HEADER_RE.match(ln):
            continue
        if ln.startswith("-----END"):
            break
        if ln.startswith("="):  # armor checksum
            continue
        payload.append(ln)
    joined = "".join(payload)
    if not joined or not re.fullmatch(r"[A-Za-z0-9+/=]+", joined):
        return None
    return joined


def pgp_key_fingerprint(block: str) -> str | None:
    payload = _normalize_armor_payload(block)
    if payload is None:
        return None
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def extract_pgp_candidate_pairs(posts: list[Post]) -> list[MigrationLabel]:
    """Candidate same-author pairs: identities in different markets that posted
    an identical PGP public key. Runs on raw bodies, before preprocessing."""
    key_owners: dict[str, set[tuple[str, str]]] = {}
    for p in posts:
        for match in _PUBKEY_RE.finditer(p.body):
            fp = pgp_key_fingerprint(match.group(0))
            if fp is None:
                log.warning("post %s: malformed PGP key block ignored", p.post_id)
                continue
            key_owners.setdefault(fp, set()).add((p.market, p.author))
    candidates: dict = {}
    for fp in sorted(key_owners):
        owners = sorted(key_owners[fp])
        for i in range(len(owners)):
            for j in range(i + 1, len(owners)):
                if owners[i][0] == owners[j][0]:
                    continue  # same market
                label = MigrationLabel(user_a=owners[i], user_b=owners[j], same_author=None)
                candidates.setdefault(label.key(), label)
    return [candidates[k] for k in sorted(candidates)]


LABEL_COLUMNS = ("market_a", "user_a", "market_b", "user_b", "same_author")


def write_labels_csv(path, labels: list[MigrationLabel]) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for lab in labels:
            flag = "" if lab.same_author is None else str(lab.same_author).lower()
            writer.writerow([lab.user_a[0], lab.user_a[1], lab.user_b[0], lab.user_b[1], flag])


def load_migration_labels(path) -> list[MigrationLabel]:
    """Read adjudicated labels; duplicates collapse, conflicts are fatal.
    Every row but a blank one has the header's field count and pairs two
    different markets."""
    by_key: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for name in LABEL_COLUMNS:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: labels header has no {name!r} column")
        for row in reader:
            # a short row fills in None values, a long one a None key
            if None in row or None in row.values():
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{len(reader.fieldnames)} fields")
            flag_raw = row["same_author"].strip().lower()
            if flag_raw not in ("true", "false"):
                raise ValueError(f"{path}:{reader.line_num}: bad same_author value "
                                 f"{row['same_author']!r}")
            if row["market_a"] == row["market_b"]:
                raise ValueError(f"{path}:{reader.line_num}: migration label must pair users "
                                 f"from different markets")
            label = MigrationLabel(
                user_a=(row["market_a"], row["user_a"]),
                user_b=(row["market_b"], row["user_b"]),
                same_author=flag_raw == "true",
            )
            prev = by_key.get(label.key())
            if prev is not None and prev.same_author != label.same_author:
                raise ValueError(
                    f"{path}: conflicting labels for pair {label.user_a} / {label.user_b}"
                )
            by_key.setdefault(label.key(), label)
    return [by_key[k] for k in sorted(by_key)]


def same_author_classes(labels: list[MigrationLabel],
                        users: set[tuple[str, str]]) -> list[tuple[tuple[str, str], ...]]:
    """Union-find over same-author pairs among `users`, as (market, author)
    keys. Each cluster is one class, users from distinct-author pairs become
    singleton classes; classes are ordered by their smallest member and list
    their members sorted. A label naming a user outside `users` is skipped."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller root for deterministic cluster naming
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    for lab in labels:
        missing = [u for u in (lab.user_a, lab.user_b) if u not in users]
        if missing:
            log.warning("migration label references unknown user(s) %s; pair skipped", missing)
            continue
        for u in (lab.user_a, lab.user_b):
            parent.setdefault(u, u)
        if lab.same_author:
            union(lab.user_a, lab.user_b)

    clusters: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for u in sorted(parent):
        clusters.setdefault(find(u), []).append(u)
    return [tuple(clusters[root]) for root in sorted(clusters)]
