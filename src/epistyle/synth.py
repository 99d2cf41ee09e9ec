"""Synthetic multi-market forum corpora with planted author styles, posting
habits, subforum communities, and cross-market migrants.

Unigram style mixtures with quirk injection are enough to make the
tokenizer+CNN pipeline separable at desk scale while keeping the generator
dependency-free. Everything is driven by one seeded RNG pass, so output is
bitwise reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate, count
from pathlib import Path

from .corpus import MAX_TIMESTAMP, MigrationLabel, Post, write_labels_csv, write_posts

# 2013-01-07 00:00 UTC, a Monday, so week/day arithmetic lands on the
# intended day of the week.
DEFAULT_START = 1357516800.0
MAX_WEEKS = int(MAX_TIMESTAMP + 1 - DEFAULT_START) // (7 * 86400)  # keeps every timestamp valid
POOL_SIZE = 400  # words in the vocabulary all markets share
CORE_WORDS = 25  # words in each author's core vocabulary
WORDS_PER_POST = (6, 14)  # inclusive range of a regular post's word count

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


def word_pool(size: int) -> list[str]:
    words = []
    for c1 in _CONSONANTS:
        for v1 in _VOWELS:
            for c2 in _CONSONANTS:
                words.append(c1 + v1 + c2 + _VOWELS[(len(words) * 7) % 5])
                if len(words) == size:
                    return words
    raise ValueError(f"word pool size {size} too large")


@dataclass
class QuirkRates:
    ellipsis: float = 0.0
    currency: float = 0.0
    exclaim: float = 0.0
    link: float = 0.02
    image: float = 0.02
    quote: float = 0.03
    own_key: float = 0.01
    signature: float = 0.01
    encmsg: float = 0.01


@dataclass
class AuthorProfile:
    username: str
    market: str
    word_weights: list[float]  # preference over the shared pool, sums to 1
    dow_weights: list[float]  # 7 entries, sums to 1
    subforum_weights: dict[str, float]
    thread_start_rate: float
    quirks: QuirkRates
    archetype: str = "normal"  # normal | newbie | referral

    def __post_init__(self):
        for dist in (self.word_weights, self.dow_weights, list(self.subforum_weights.values())):
            total = sum(dist)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"profile {self.username}: distribution sums to {total}")


@dataclass
class SynthConfig:
    markets: tuple[str, ...] = ("alpha", "beta")
    authors_per_market: int = 20
    posts_per_author: int = 100
    migrant_count: int = 5
    distinct_pair_count: int = 5
    subforums_per_market: int = 6
    communities: int = 3
    weeks: int = 20
    core_mass: float = 0.85  # probability mass on the author's core vocabulary
    archetypes: bool = False
    late_author_fraction: float = 0.0  # authors active only in the later weeks
    # authors inherit their community's subforum distribution instead of a
    # personal one; subforum usage then separates communities, not authors
    community_affinity: bool = False
    seed: int = 0

    def __post_init__(self):
        if len(self.markets) < 1:
            raise ValueError("need at least one market")
        if len(set(self.markets)) != len(self.markets):
            raise ValueError(f"markets must be distinct, got {', '.join(self.markets)}")
        if self.subforums_per_market < 1:
            raise ValueError(f"subforums_per_market must be at least 1, "
                             f"got {self.subforums_per_market}")
        if self.communities < 1:
            raise ValueError(f"communities must be at least 1, got {self.communities}")
        if self.communities > self.subforums_per_market:  # a community needs a subforum
            raise ValueError(f"communities must be at most subforums_per_market "
                             f"({self.subforums_per_market}), got {self.communities}")
        if self.posts_per_author < 1:
            raise ValueError(f"posts_per_author must be at least 1, got {self.posts_per_author}")
        if not 1 <= self.weeks <= MAX_WEEKS:
            raise ValueError(f"weeks must be in 1..{MAX_WEEKS}, got {self.weeks}")
        if self.migrant_count > self.authors_per_market:
            raise ValueError("migrant_count exceeds authors_per_market")
        if self.migrant_count and len(self.markets) < 2:
            raise ValueError("migrants need at least two markets")
        span = self.authors_per_market - 2 * self.migrant_count
        if self.distinct_pair_count > max(span, 0):
            raise ValueError("distinct_pair_count exceeds available non-migrant authors")
        if not 0 <= self.late_author_fraction < 1:
            raise ValueError("late_author_fraction must be in [0, 1)")


@dataclass
class SynthCorpus:
    posts: dict[str, list[Post]]  # market -> posts
    labels: list[MigrationLabel]
    profiles: dict[tuple[str, str], AuthorProfile]  # (market, username) -> profile

    def total_posts(self) -> int:
        return sum(len(v) for v in self.posts.values())


def _subforums(cfg: SynthConfig, market: str) -> list[str]:
    return [f"{market}_s{j}" for j in range(cfg.subforums_per_market)]


def _username(market: str, index: int) -> str:
    return f"{market}_u{index:02d}"


def _make_profile(cfg: SynthConfig, rng: random.Random, market: str, username: str,
                  community: int, archetype: str = "normal") -> AuthorProfile:
    core = rng.sample(range(POOL_SIZE), CORE_WORDS)
    weights = [(1.0 - cfg.core_mass) / (POOL_SIZE - CORE_WORDS)] * POOL_SIZE
    core_w = [rng.random() + 0.2 for _ in core]
    total = sum(core_w)
    for idx, w in zip(core, core_w):
        weights[idx] = cfg.core_mass * w / total

    favorites = rng.sample(range(7), 2)
    dow = [0.30 / 5] * 7
    dow[favorites[0]] = 0.35
    dow[favorites[1]] = 0.35

    sub_w: dict[str, float] = {}
    community_subs = [
        sf for j, sf in enumerate(_subforums(cfg, market)) if j % cfg.communities == community
    ]
    other_subs = [sf for sf in _subforums(cfg, market) if sf not in community_subs]
    if cfg.community_affinity:
        # deterministic per community so every member shares the distribution
        crng = random.Random(f"{cfg.seed}:{market}:{community}:affinity")
        shares = [crng.random() + 1.0 for _ in community_subs]
    else:
        shares = [rng.random() + 0.5 for _ in community_subs]
    total = sum(shares)
    comm_mass = 0.92 if other_subs else 1.0
    for sf, s in zip(community_subs, shares):
        sub_w[sf] = comm_mass * s / total
    for sf in other_subs:
        sub_w[sf] = 0.08 / len(other_subs)

    quirks = QuirkRates()
    if archetype == "normal":
        quirks.ellipsis = rng.choice([0.0, 0.0, 0.15, 0.4])
        quirks.currency = rng.choice([0.0, 0.0, 0.0, 0.25])
        quirks.exclaim = rng.choice([0.0, 0.1, 0.0, 0.3])
    elif archetype == "referral":
        quirks.link = 0.9
    return AuthorProfile(
        username=username, market=market, word_weights=weights, dow_weights=dow,
        subforum_weights=sub_w, thread_start_rate=rng.uniform(0.08, 0.25),
        quirks=quirks, archetype=archetype,
    )


def _remap_profile(cfg: SynthConfig, profile: AuthorProfile, market: str, username: str) -> AuthorProfile:
    """The migrant's twin: same style and habits, its subforum affinity carried
    over to the structurally matching subforums of the new market."""
    old = _subforums(cfg, profile.market)
    new = _subforums(cfg, market)
    return replace(profile, username=username, market=market, subforum_weights={
        new[old.index(sf)]: w for sf, w in profile.subforum_weights.items()})


def _fake_armor(rng: random.Random, kind: str, payload: str | None = None) -> str:
    if payload is None:
        payload = shared_key_payload(rng)
    check = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdef") for _ in range(4))
    return f"-----BEGIN {kind}-----\nVersion: SynthPG 1.0\n\n{payload}\n={check}\n-----END {kind}-----"


def shared_key_payload(rng: random.Random) -> str:
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    return "\n".join("".join(rng.choice(alphabet) for _ in range(48)) for _ in range(3))


def _body(rng: random.Random, profile: AuthorProfile, word_cum: list[float], pool: list[str],
          peers: list[str]) -> str:
    """One post body; `word_cum` is the running sum of the profile's word weights."""
    q = profile.quirks
    if profile.archetype == "newbie":
        n = rng.randint(1, 50)
        return rng.choice([f"{n}", f"{n} spam to fifty", f"post {n} almost there"])
    n_words = rng.randint(*WORDS_PER_POST)
    words = [pool[bisect_left(word_cum, rng.random() * word_cum[-1])] for _ in range(n_words)]
    if q.ellipsis and rng.random() < q.ellipsis:
        pos = rng.randrange(len(words))
        words[pos] = words[pos] + "..."
    if q.currency and rng.random() < q.currency:
        words.insert(rng.randrange(len(words) + 1), f"£{rng.randint(5, 200)}")
    if q.exclaim and rng.random() < q.exclaim:
        words[-1] = words[-1] + "!!"
    if rng.random() < q.link:
        host = rng.choice(pool)
        words.append(rng.choice([f"http://{host}.onion/{rng.choice(pool)}", f"www.{host}.to/x"]))
    if rng.random() < q.image:
        words.append(f"[img]http://{rng.choice(pool)}.png[/img]")
    body = " ".join(words)
    if rng.random() < q.quote and peers:
        quoted = " ".join(rng.choice(pool) for _ in range(4))
        body = f"[quote={rng.choice(peers)}]{quoted}[/quote] " + body
    if rng.random() < q.own_key:
        body += "\n" + _fake_armor(rng, "PGP PUBLIC KEY BLOCK")
    if rng.random() < q.signature:
        body += "\n" + _fake_armor(rng, "PGP SIGNATURE")
    if rng.random() < q.encmsg:
        body += "\n" + _fake_armor(rng, "PGP MESSAGE")
    return body


def generate_corpus(cfg: SynthConfig) -> SynthCorpus:
    rng = random.Random(cfg.seed)
    pool = word_pool(POOL_SIZE)

    # profiles: migrants of market k are cloned into market k+1 under a new
    # username placed at the end of that market's roster
    profiles: dict[tuple[str, str], AuthorProfile] = {}
    labels: list[MigrationLabel] = []
    for mi, market in enumerate(cfg.markets):
        for ai in range(cfg.authors_per_market):
            username = _username(market, ai)
            if (market, username) in profiles:
                continue
            archetype = "normal"
            if cfg.archetypes and ai == cfg.authors_per_market - 1:
                archetype = "newbie"
            elif cfg.archetypes and ai == cfg.authors_per_market - 2:
                archetype = "referral"
            profiles[(market, username)] = _make_profile(
                cfg, rng, market, username, community=ai % cfg.communities, archetype=archetype
            )
        if mi + 1 < len(cfg.markets):
            nxt = cfg.markets[mi + 1]
            for k in range(cfg.migrant_count):
                src = _username(market, k)
                dst = _username(nxt, cfg.authors_per_market - 1 - k)
                profiles[(nxt, dst)] = _remap_profile(cfg, profiles[(market, src)], nxt, dst)
                labels.append(MigrationLabel((market, src), (nxt, dst), True))

    # distinct-author pairs across neighboring markets, labeled false; drawn
    # from the index band that holds neither outgoing migrants nor incoming
    # aliases on either side
    span = cfg.authors_per_market - 2 * cfg.migrant_count
    for a_mkt, b_mkt in zip(cfg.markets, cfg.markets[1:]):
        for k in range(cfg.distinct_pair_count):
            a = _username(a_mkt, cfg.migrant_count + k % span)
            b = _username(b_mkt, cfg.migrant_count + (k + 3) % span)
            labels.append(MigrationLabel((a_mkt, a), (b_mkt, b), False))

    # posts
    posts: dict[str, list[Post]] = {m: [] for m in cfg.markets}
    shared_keys = {lab.key(): shared_key_payload(rng) for lab in labels}
    for market in cfg.markets:
        market_profiles = [p for (m, _), p in sorted(profiles.items()) if m == market]
        usernames = [p.username for p in market_profiles]
        threads: dict[str, list[str]] = {sf: [] for sf in _subforums(cfg, market)}
        thread_numbers = count()
        n_late = int(round(cfg.late_author_fraction * len(market_profiles)))
        late_set = set(usernames[-n_late:]) if n_late else set()
        for profile in market_profiles:
            peers = [u for u in usernames if u != profile.username]
            own = [lab.key() for lab in labels
                   if (market, profile.username) in (lab.user_a, lab.user_b)]
            word_cum = list(accumulate(profile.word_weights))
            dow_cum = list(accumulate(profile.dow_weights))
            subforums = list(profile.subforum_weights)
            sub_cum = list(accumulate(profile.subforum_weights.values()))
            wk_lo = int(cfg.weeks * 0.55) if profile.username in late_set else 0
            key_posts = {rng.randrange(cfg.posts_per_author) for _ in own}
            for pi in range(cfg.posts_per_author):
                week = rng.randrange(wk_lo, cfg.weeks)
                # a draw at or past the last running sum (float rounding)
                # takes day 6 but the first subforum
                dow = min(bisect_right(dow_cum, rng.random()), 6)
                ts = DEFAULT_START + (week * 7 + dow) * 86400 + rng.randrange(86400)
                subforum = subforums[bisect_right(sub_cum, rng.random()) % len(subforums)]
                start = not threads[subforum] or rng.random() < profile.thread_start_rate
                if start:
                    thread_id = f"{market}_t{next(thread_numbers)}"
                    threads[subforum].append(thread_id)
                else:
                    thread_id = rng.choice(threads[subforum])
                body = _body(rng, profile, word_cum, pool, peers)
                if pi in key_posts:
                    for key in own:
                        body += "\n" + _fake_armor(rng, "PGP PUBLIC KEY BLOCK", shared_keys[key])
                posts[market].append(
                    Post(
                        market=market, subforum=subforum, thread_id=thread_id,
                        post_id=f"{market}_p{len(posts[market])}", author=profile.username,
                        timestamp=float(ts), is_thread_start=start, body=body,
                    )
                )
        posts[market].sort(key=lambda p: (p.timestamp, p.post_id))
    return SynthCorpus(posts=posts, labels=labels, profiles=profiles)


def write_corpus(corpus: SynthCorpus, out_dir) -> dict[str, str]:
    """JSONL per market plus the ground-truth label CSV; returns paths."""
    out = Path(out_dir)
    written: dict[str, str] = {}
    for market, plist in sorted(corpus.posts.items()):
        path = out / f"{market}.jsonl"
        write_posts(path, plist)
        written[market] = str(path)
    labels_path = out / "labels.csv"
    write_labels_csv(labels_path, corpus.labels)
    written["labels"] = str(labels_path)
    return written
