"""Character and byte-level BPE vocabularies shared across markets.

Special tokens are reserved before training and matched atomically during
encoding, so they never split and never participate in merges. Byte-level
BPE is closed over arbitrary UTF-8: decode(encode(x)) == x.
"""

from __future__ import annotations

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

# Chunks are an optional whitespace run glued to the following word, so token
# boundaries (and therefore round-trips) survive merging.
_CHUNK_RE = re.compile(r"\s*\S+|\s+")


@dataclass
class Vocab:
    kind: str  # "char" | "bpe"
    tokens: list  # str for char mode, bytes for bpe body tokens
    merges: list = field(default_factory=list)  # ordered (left, right) byte pairs
    specials: tuple = RESERVED

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        self.special_ids = {s: i for i, s in enumerate(self.specials)}
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._bpe_cache: dict[bytes, list[int]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def pad_id(self) -> int:
        return self.special_ids[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self.special_ids[UNK_TOKEN]


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


def train_char_vocab(texts, size: int = 1000) -> Vocab:
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


def train_bpe(texts, size: int = 30000) -> Vocab:
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
        merged = pair[0] + pair[1]
        for wi in sorted(pair_words.get(pair, ())):
            syms, count = words[wi]
            for left, right in zip(syms, syms[1:]):
                pair_counts[(left, right)] -= count
            new_syms = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == pair[0] and syms[i + 1] == pair[1]:
                    new_syms.append(merged)
                    i += 2
                else:
                    new_syms.append(syms[i])
                    i += 1
            words[wi][0] = new_syms
            for p in zip(new_syms, new_syms[1:]):
                pair_counts[p] += count
                pair_words.setdefault(p, set()).add(wi)
        pair_counts[pair] = 0

    tokens = list(RESERVED) + [bytes([b]) for b in range(256)] + [l + r for l, r in merges]
    return Vocab(kind="bpe", tokens=tokens, merges=merges)


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
        merged = best_pair[0] + best_pair[1]
        out = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best_pair:
                out.append(merged)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
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
    """Inverse of encode; exact for byte-level bpe."""
    n_special = len(vocab.specials)
    if vocab.kind == "char":
        return "".join(vocab.tokens[i] for i in ids)
    parts: list[str] = []
    pending: list[bytes] = []
    for i in ids:
        if i < n_special:
            if pending:
                parts.append(b"".join(pending).decode("utf-8", errors="replace"))
                pending = []
            parts.append(vocab.tokens[i])
        else:
            pending.append(vocab.tokens[i])
    if pending:
        parts.append(b"".join(pending).decode("utf-8", errors="replace"))
    return "".join(parts)


# ---------------------------------------------------------------- file I/O


def _escape_byte(b: int) -> str:
    if b == 0x5C:
        return "\\\\"
    if b == 0x20:
        return "\\s"
    if b == 0x0A:
        return "\\n"
    if b == 0x0D:
        return "\\r"
    if b == 0x09:
        return "\\t"
    if b < 0x20 or b > 0x7E:
        return f"\\x{b:02x}"
    return chr(b)


def _escape(token) -> str:
    if isinstance(token, bytes):
        return "".join(_escape_byte(b) for b in token)
    out = []
    for ch in token:
        if ch == "\\":
            out.append("\\\\")
        elif ch == " ":
            out.append("\\s")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\x{ord(ch):02x}")
        else:
            out.append(ch)
    return "".join(out)


_UNESCAPES = {"\\": "\\", "s": " ", "n": "\n", "r": "\r", "t": "\t"}


def _unescape(text: str, as_bytes: bool):
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            nxt = text[i + 1]
            if nxt == "x":
                out.append(chr(int(text[i + 2 : i + 4], 16)))
                i += 4
            else:
                out.append(_UNESCAPES[nxt])
                i += 2
        else:
            out.append(ch)
            i += 1
    joined = "".join(out)
    return joined.encode("latin-1") if as_bytes else joined


def save_vocab(path, vocab: Vocab) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(f"{vocab.kind} {len(vocab)}\n")
        for token in vocab.tokens:
            fh.write(_escape(token) + "\n")
        if vocab.kind == "bpe":
            fh.write("#MERGES\n")
            for left, right in vocab.merges:
                fh.write(f"{_escape(left)} {_escape(right)}\n")


def load_vocab(path) -> Vocab:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    kind, size_str = lines[0].split()
    size = int(size_str)
    n_special = len(RESERVED)
    tokens: list = []
    for i, line in enumerate(lines[1 : 1 + size]):
        if i < n_special:
            tokens.append(_unescape(line, as_bytes=False))
        else:
            tokens.append(_unescape(line, as_bytes=kind == "bpe"))
    if tuple(tokens[:n_special]) != RESERVED:
        raise ValueError(f"{path}: special token block does not match")
    merges: list[tuple[bytes, bytes]] = []
    rest = lines[1 + size :]
    if kind == "bpe":
        if not rest or rest[0] != "#MERGES":
            raise ValueError(f"{path}: missing #MERGES section")
        for line in rest[1:]:
            if not line:
                continue
            left, right = line.split(" ")
            merges.append((_unescape(left, True), _unescape(right, True)))
    return Vocab(kind=kind, tokens=tokens, merges=merges)
