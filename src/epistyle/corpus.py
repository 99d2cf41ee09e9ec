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


@dataclass
class SplitSpec:
    split_timestamp: float
    train_ids: dict[str, set[str]]  # market -> post ids
    test_ids: dict[str, set[str]]


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


def load_posts(path, market: str) -> tuple[list[Post], int]:
    """Parse a file of one JSON object per line; returns (posts, malformed
    line count).

    A line is malformed where `json.loads` would reject it, where it is not
    an object with every field of `Post` but `market`, where `author` is
    empty, or where `timestamp` is not in (0, MAX_TIMESTAMP]. Malformed lines
    are skipped with a warning; blank lines are skipped silently; an
    unreadable file raises.
    """
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
    seen: set[str] = set()
    for p in posts:
        if p.post_id in seen:
            raise ValueError(f"{path}: duplicate post_id {p.post_id!r} in market {market!r}")
        seen.add(p.post_id)
    return posts, malformed


def write_posts(path, posts: list[Post]) -> None:
    """One JSON object per line with sorted keys: the format `load_posts` reads."""
    with atomic_write(path, encoding="utf-8") as fh:
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


def chronological_split(posts: list[Post]) -> SplitSpec:
    """Split at the median timestamp; median ties go to train."""
    if not posts:
        raise ValueError("chronological_split: empty post list")
    cut = statistics.median(p.timestamp for p in posts)
    train: dict[str, set[str]] = {}
    test: dict[str, set[str]] = {}
    for p in posts:
        side = train if p.timestamp <= cut else test
        side.setdefault(p.market, set()).add(p.post_id)
    n_train = sum(len(v) for v in train.values())
    n_test = sum(len(v) for v in test.values())
    if n_train == 0 or n_test == 0:
        log.warning("degenerate split: train=%d test=%d posts", n_train, n_test)
    return SplitSpec(split_timestamp=cut, train_ids=train, test_ids=test)


SPLIT_COLUMNS = ("market", "post_id", "split")


def write_split_manifest(path, spec: SplitSpec) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPLIT_COLUMNS)
        for market in sorted(set(spec.train_ids) | set(spec.test_ids)):
            for pid in sorted(spec.train_ids.get(market, ())):
                writer.writerow([market, pid, "train"])
            for pid in sorted(spec.test_ids.get(market, ())):
                writer.writerow([market, pid, "test"])


def read_split_manifest(path) -> SplitSpec:
    """Read `write_split_manifest`'s CSV. Every row but a blank one has the
    header's field count and a split of `train` or `test`."""
    sides: dict[str, dict[str, set[str]]] = {"train": {}, "test": {}}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        for name in SPLIT_COLUMNS:
            if name not in header:
                raise ValueError(f"{path}: split manifest header has no {name!r} column")
        m, p, s = (header.index(name) for name in SPLIT_COLUMNS)
        width = len(header)
        for row in rows:
            if len(row) != width or row[s] not in sides:
                if not row:
                    continue
                if len(row) != width:
                    raise ValueError(f"{path}:{rows.line_num}: expected {width} fields, "
                                     f"got {len(row)}")
                raise ValueError(f"{path}:{rows.line_num}: split {row[s]!r} is not "
                                 f"'train' or 'test'")
            sides[row[s]].setdefault(row[m], set()).add(row[p])
    return SplitSpec(split_timestamp=float("nan"), train_ids=sides["train"],
                     test_ids=sides["test"])


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
