"""Forum post ingestion, text normalization, chronological splitting, and
episode assembly, plus the cross-market labeled dataset built from PGP
key reuse and adjudicated migration labels."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
import statistics
from dataclasses import dataclass, field

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

DEFAULT_QUOTE_PATTERNS = (r"\[quote[^\]]*\].*?\[/quote\]",)
DEFAULT_IMAGE_PATTERNS = (r"\[img[^\]]*\].*?\[/img\]",)

REQUIRED_POST_FIELDS = (
    "subforum",
    "thread_id",
    "post_id",
    "author",
    "timestamp",
    "is_thread_start",
    "body",
)


@dataclass(frozen=True)
class Post:
    market: str
    subforum: str
    thread_id: str
    post_id: str
    author: str
    timestamp: float
    is_thread_start: bool
    body: str

    def __post_init__(self):
        if not self.author:
            raise ValueError(f"post {self.post_id!r}: author must be nonempty")
        if self.timestamp <= 0:
            raise ValueError(f"post {self.post_id!r}: timestamp must be > 0")


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


@dataclass(frozen=True)
class MigrationLabel:
    user_a: tuple[str, str]  # (market, username)
    user_b: tuple[str, str]
    same_author: bool | None
    evidence: str = ""

    def __post_init__(self):
        if self.user_a[0] == self.user_b[0]:
            raise ValueError("migration label must pair users from different markets")

    def key(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return (self.user_a, self.user_b) if self.user_a <= self.user_b else (self.user_b, self.user_a)


# ------------------------------------------------------------------- ingest


def load_posts(path, market: str) -> tuple[list[Post], int]:
    """Parse a JSONL post file; returns (posts, malformed line count).

    Malformed lines are skipped with a warning; an unreadable file raises.
    """
    posts: list[Post] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                missing = [k for k in REQUIRED_POST_FIELDS if k not in obj]
                if missing:
                    raise KeyError(", ".join(missing))
                posts.append(
                    Post(
                        market=market,
                        subforum=str(obj["subforum"]),
                        thread_id=str(obj["thread_id"]),
                        post_id=str(obj["post_id"]),
                        author=str(obj["author"]),
                        timestamp=float(obj["timestamp"]),
                        is_thread_start=bool(obj["is_thread_start"]),
                        body=str(obj["body"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                malformed += 1
                log.warning("%s:%d: skipping malformed post line (%s)", path, lineno, exc)
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
            fh.write(json.dumps(vars(p), sort_keys=True) + "\n")


# --------------------------------------------------------------- preprocess


def preprocess_text(
    raw: str,
    quote_patterns=DEFAULT_QUOTE_PATTERNS,
    image_patterns=DEFAULT_IMAGE_PATTERNS,
) -> str:
    """Replace quoted posts, PGP armor blocks, links, and images with special
    tokens. Idempotent: the tokens themselves never re-match."""
    text = raw
    for pat in quote_patterns:
        text = re.sub(pat, QUOTE_TOKEN, text, flags=re.DOTALL | re.IGNORECASE)
    for pgp_re, token in _PGP_RES:
        text = pgp_re.sub(token, text)
    for pat in image_patterns:
        text = re.sub(pat, IMAGE_TOKEN, text, flags=re.DOTALL | re.IGNORECASE)
    text = URL_RE.sub(LINK_TOKEN, text)
    return text


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


def write_split_manifest(path, spec: SplitSpec) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["market", "post_id", "split"])
        for market in sorted(set(spec.train_ids) | set(spec.test_ids)):
            for pid in sorted(spec.train_ids.get(market, ())):
                writer.writerow([market, pid, "train"])
            for pid in sorted(spec.test_ids.get(market, ())):
                writer.writerow([market, pid, "test"])


def read_split_manifest(path) -> SplitSpec:
    train: dict[str, set[str]] = {}
    test: dict[str, set[str]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            side = train if row["split"] == "train" else test
            side.setdefault(row["market"], set()).add(row["post_id"])
    return SplitSpec(split_timestamp=float("nan"), train_ids=train, test_ids=test)


# ----------------------------------------------------------------- episodes


def _sorted_author_posts(posts: list[Post]) -> dict[tuple[str, str], list[Post]]:
    groups: dict[tuple[str, str], list[Post]] = {}
    for p in posts:
        groups.setdefault((p.market, p.author), []).append(p)
    for group in groups.values():
        group.sort(key=lambda p: (p.timestamp, p.post_id))
    return groups


def assemble_episodes(posts: list[Post], length: int, min_episodes: int = 2) -> list[Episode]:
    """Bundle same-author posts into consecutive non-overlapping episodes of
    exactly `length` posts, dropping the trailing remainder. Authors with
    fewer than min_episodes*length posts are excluded.
    """
    if length < 1:
        raise ValueError(f"episode length must be >= 1, got {length}")
    episodes: list[Episode] = []
    for (market, author), group in sorted(_sorted_author_posts(posts).items()):
        if len(group) < min_episodes * length:
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
                label = MigrationLabel(
                    user_a=owners[i],
                    user_b=owners[j],
                    same_author=None,
                    evidence=f"pgp:{fp[:12]}",
                )
                candidates.setdefault(label.key(), label)
    return [candidates[k] for k in sorted(candidates)]


def write_labels_csv(path, labels: list[MigrationLabel]) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["market_a", "user_a", "market_b", "user_b", "same_author"])
        for lab in labels:
            flag = "" if lab.same_author is None else str(lab.same_author).lower()
            writer.writerow([lab.user_a[0], lab.user_a[1], lab.user_b[0], lab.user_b[1], flag])


def load_migration_labels(path) -> list[MigrationLabel]:
    """Read adjudicated labels; duplicates collapse, conflicts are fatal."""
    by_key: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            flag_raw = row["same_author"].strip().lower()
            if flag_raw not in ("true", "false"):
                raise ValueError(f"{path}: bad same_author value {row['same_author']!r}")
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


@dataclass
class CrossDataset:
    """Episodes of labeled users, relabeled by same-author cluster."""

    classes: list[tuple[tuple[str, str], ...]]  # cluster -> members
    episodes: list[Episode] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    def class_of(self, user: tuple[str, str]) -> int:
        for i, members in enumerate(self.classes):
            if user in members:
                return i
        raise KeyError(user)


def build_cross_dataset(labels: list[MigrationLabel], episodes: list[Episode]) -> CrossDataset:
    """Union-find over same-author pairs; each cluster is one class, users from
    distinct-author pairs become singleton classes."""
    by_user: dict[tuple[str, str], list[Episode]] = {}
    for ep in episodes:
        by_user.setdefault((ep.market, ep.author), []).append(ep)

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

    referenced: set[tuple[str, str]] = set()
    for lab in labels:
        missing = [u for u in (lab.user_a, lab.user_b) if u not in by_user]
        if missing:
            log.warning("migration label references unknown user(s) %s; pair skipped", missing)
            continue
        for u in (lab.user_a, lab.user_b):
            if u not in parent:
                parent[u] = u
            referenced.add(u)
        if lab.same_author:
            union(lab.user_a, lab.user_b)

    clusters: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for u in sorted(referenced):
        clusters.setdefault(find(u), []).append(u)
    classes = [tuple(clusters[root]) for root in sorted(clusters)]

    ds = CrossDataset(classes=classes)
    for class_id, members in enumerate(classes):
        for user in members:
            for ep in by_user[user]:
                ds.episodes.append(ep)
                ds.labels.append(class_id)
    return ds
