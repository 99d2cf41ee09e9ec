"""Character and byte-level BPE vocabularies shared across markets.

Special tokens are reserved before training and matched atomically during
encoding, so they never split and never participate in merges. Byte-level
BPE is closed over arbitrary UTF-8: decode(encode(x)) == x. The vocabulary
file is one JSON document; `save_vocab` defines it and `load_vocab` checks it.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field

from .atomic import atomic_write
from .corpus import SPECIAL_TOKENS

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"

# [PAD] must sit at id 0; the six corpus tokens follow [UNK].
RESERVED = (PAD_TOKEN, UNK_TOKEN) + SPECIAL_TOKENS

# Atomic matching applies to the corpus tokens only; a literal "[PAD]" in
# running text must not encode to the padding id.
_ATOMIC_RE = re.compile("|".join(re.escape(t) for t in SPECIAL_TOKENS))

TOKENIZER_KINDS = ("char", "bpe")


@dataclass
class TokenizerConfig:
    """A vocabulary holds the specials, and for bpe also the 256 bytes."""

    kind: str = "bpe"  # one of TOKENIZER_KINDS
    size: int = 30000

    def __post_init__(self):
        if self.kind not in TOKENIZER_KINDS:
            raise ValueError(f"kind must be one of {', '.join(TOKENIZER_KINDS)}, got {self.kind!r}")
        least = len(RESERVED) + (256 if self.kind == "bpe" else 0)
        if self.size < least:
            raise ValueError(f"size must be at least {least} for a {self.kind} vocabulary, "
                             f"got {self.size}")


# Chunks are an optional whitespace run glued to the following word, so token
# boundaries (and therefore round-trips) survive merging.
_CHUNK_RE = re.compile(r"\s*\S+|\s+")


@dataclass
class Vocab:
    kind: str  # one of TOKENIZER_KINDS
    tokens: list  # str for char mode, bytes for bpe body tokens
    merges: list = field(default_factory=list)  # ordered (left, right) byte pairs

    # every vocabulary starts with RESERVED (class attributes, not fields)
    special_ids = {s: i for i, s in enumerate(RESERVED)}
    pad_id = special_ids[PAD_TOKEN]
    unk_id = special_ids[UNK_TOKEN]

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._bpe_cache: dict[bytes, list[int]] = {}

    def __len__(self) -> int:
        return len(self.tokens)


def _iter_segments(text: str):
    """Yield (is_special, piece) alternating around atomic token matches."""
    pos = 0
    for m in _ATOMIC_RE.finditer(text):
        if m.start() > pos:
            yield False, text[pos : m.start()]
        yield True, m.group(0)
        pos = m.end()
    if pos < len(text):
        yield False, text[pos:]


# ---------------------------------------------------------------- training


def train_char_vocab(texts, size: int) -> Vocab:
    """Keep the `size - len(specials)` most frequent characters; frequency
    ties break by codepoint order."""
    if size < len(RESERVED):
        raise ValueError(f"char vocab size {size} < {len(RESERVED)} reserved specials")
    counts: Counter = Counter()
    for text in texts:
        for is_special, piece in _iter_segments(text):
            if not is_special:
                counts.update(piece)
    budget = size - len(RESERVED)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [ch for ch, _ in ranked[:budget]]
    return Vocab(kind="char", tokens=list(RESERVED) + kept)


def _chunk_counts(texts) -> Counter:
    chunks: Counter = Counter()
    for text in texts:
        for is_special, piece in _iter_segments(text):
            if is_special:
                continue
            for chunk in _CHUNK_RE.findall(piece):
                chunks[chunk.encode("utf-8")] += 1
    return chunks


def train_bpe(texts, size: int) -> Vocab:
    """Byte-level BPE: 256 base symbols plus greedy highest-frequency merges
    until the vocabulary reaches `size`. Count ties break by lexicographic
    pair order, which makes training deterministic for a fixed corpus."""
    base = 256 + len(RESERVED)
    if size < base:
        raise ValueError(f"bpe vocab size {size} < {base} (bytes + specials)")
    n_merges = size - base

    words = [
        [list(bytes([b]) for b in chunk), count]
        for chunk, count in sorted(_chunk_counts(texts).items())
    ]
    pair_counts: Counter = Counter()
    pair_words: dict[tuple[bytes, bytes], set[int]] = {}
    for wi, (syms, count) in enumerate(words):
        for pair in zip(syms, syms[1:]):
            pair_counts[pair] += count
            pair_words.setdefault(pair, set()).add(wi)

    merges: list[tuple[bytes, bytes]] = []
    for _ in range(n_merges):
        best_pair, best_count = None, 0
        for pair, count in pair_counts.items():
            if count > best_count or (count == best_count and count > 0 and pair < best_pair):
                best_pair, best_count = pair, count
        if best_pair is None:
            break
        pair = best_pair
        merges.append(pair)
        for wi in sorted(pair_words.get(pair, ())):
            syms, count = words[wi]
            for left, right in zip(syms, syms[1:]):
                pair_counts[(left, right)] -= count
            new_syms = _merge_pair(syms, pair)
            words[wi][0] = new_syms
            for p in zip(new_syms, new_syms[1:]):
                pair_counts[p] += count
                pair_words.setdefault(p, set()).add(wi)
        pair_counts[pair] = 0

    tokens = list(RESERVED) + [bytes([b]) for b in range(256)] + [l + r for l, r in merges]
    return Vocab(kind="bpe", tokens=tokens, merges=merges)


def _merge_pair(syms: list[bytes], pair: tuple[bytes, bytes]) -> list[bytes]:
    """`syms` with each occurrence of `pair`, scanned left to right, joined."""
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == pair[0] and syms[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


# ---------------------------------------------------------------- encoding


def _bpe_symbols(chunk: bytes, ranks) -> list[bytes]:
    syms = [bytes([b]) for b in chunk]
    while len(syms) >= 2:
        best_rank, best_pair = None, None
        for pair in zip(syms, syms[1:]):
            r = ranks.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, pair
        if best_pair is None:
            break
        syms = _merge_pair(syms, best_pair)
    return syms


def encode(vocab: Vocab, text: str) -> list[int]:
    """Token ids for `text`; corpus special tokens match atomically first."""
    ids: list[int] = []
    for is_special, piece in _iter_segments(text):
        if is_special:
            ids.append(vocab.special_ids[piece])
        elif vocab.kind == "char":
            get = vocab.token_to_id.get
            unk = vocab.unk_id
            ids.extend(get(ch, unk) for ch in piece)
        else:
            for chunk in _CHUNK_RE.findall(piece):
                raw = chunk.encode("utf-8")
                cached = vocab._bpe_cache.get(raw)
                if cached is None:
                    cached = [vocab.token_to_id[s] for s in _bpe_symbols(raw, vocab._ranks)]
                    vocab._bpe_cache[raw] = cached
                ids.extend(cached)
    return ids


def decode(vocab: Vocab, ids) -> str:
    """Inverse of encode; exact for byte-level bpe, whose byte runs between
    special tokens decode as UTF-8."""
    if vocab.kind == "char":
        return "".join(vocab.tokens[i] for i in ids)
    parts: list[str] = []
    for special, run in itertools.groupby(ids, key=lambda i: i < len(RESERVED)):
        tokens = [vocab.tokens[i] for i in run]
        parts.append("".join(tokens) if special
                     else b"".join(tokens).decode("utf-8", errors="replace"))
    return "".join(parts)


# ---------------------------------------------------------------- file I/O


def save_vocab(path, vocab: Vocab) -> None:
    """One JSON document {"kind", "tokens", "merges"}, BPE byte tokens as
    latin-1 strings. JSON's default escaping keeps the file plain ASCII, lone
    surrogates and control characters included."""
    doc = {"kind": vocab.kind,
           "tokens": [t if isinstance(t, str) else t.decode("latin-1") for t in vocab.tokens],
           "merges": [[left.decode("latin-1"), right.decode("latin-1")]
                      for left, right in vocab.merges]}
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_vocab(path) -> Vocab:
    """Read `save_vocab`'s file; a malformed one raises ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return _vocab_from_doc(doc)
    except ValueError as exc:  # also JSONDecodeError and UnicodeError
        raise ValueError(f"{path}: not a vocabulary file: {exc}") from None


def _vocab_from_doc(doc) -> Vocab:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in TOKENIZER_KINDS:
        raise ValueError(f"kind {kind!r} is not {' or '.join(map(repr, TOKENIZER_KINDS))}")
    tokens, merges = doc.get("tokens"), doc.get("merges")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("tokens are not a list of strings")
    if tuple(tokens[: len(RESERVED)]) != RESERVED:
        raise ValueError("special token block does not match")
    if not isinstance(merges, list) or not all(
        isinstance(m, list) and len(m) == 2 and all(isinstance(x, str) for x in m) for m in merges
    ):
        raise ValueError("merges are not a list of string pairs")
    if kind == "char":
        return Vocab(kind=kind, tokens=tokens)
    merges = [(left.encode("latin-1"), right.encode("latin-1")) for left, right in merges]
    body = [t.encode("latin-1") for t in tokens[len(RESERVED) :]]
    if body != [bytes([b]) for b in range(256)] + [left + right for left, right in merges]:
        raise ValueError("bpe tokens are not the 256 bytes followed by the merged pairs")
    return Vocab(kind=kind, tokens=list(RESERVED) + body, merges=merges)
