import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistyle.corpus import SPECIAL_TOKENS
from epistyle.tokenization import (
    RESERVED,
    Vocab,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_bpe,
    train_char_vocab,
)

from reference import encode_chars

N_RESERVED = len(RESERVED)


def encode_one(vocab, text):
    """One text's token ids as a list."""
    return encode(vocab, [text])[0].tolist()


# -------------------------------------------------------------------- char


def test_char_vocab_counts_by_hand():
    vocab = train_char_vocab(["aab"], size=100)
    assert "a" in vocab.token_to_id and "b" in vocab.token_to_id
    # 'a' more frequent than 'b', so it gets the lower id
    assert vocab.token_to_id["a"] < vocab.token_to_id["b"]


def test_char_vocab_empty_text_contributes_nothing():
    v1 = train_char_vocab(["abc", ""], size=50)
    v2 = train_char_vocab(["abc"], size=50)
    assert v1.tokens == v2.tokens


def test_char_vocab_truncation_to_size():
    texts = ["".join(chr(ord("a") + i) for i in range(26)) * 2]
    vocab = train_char_vocab(texts, size=N_RESERVED)
    assert len(vocab) == N_RESERVED  # only specials survive


def test_char_vocab_tie_break_by_codepoint():
    vocab = train_char_vocab(["ba"], size=N_RESERVED + 1)
    # both appear once; 'a' wins the single slot by codepoint order
    assert vocab.tokens[-1] == "a"


def test_char_vocab_size_too_small():
    with pytest.raises(ValueError):
        train_char_vocab(["x"], size=3)


def test_char_unknown_maps_to_unk():
    vocab = train_char_vocab(["aaa"], size=N_RESERVED + 1)
    ids = encode_one(vocab, "az")
    assert ids[0] == vocab.token_to_id["a"]
    assert ids[1] == vocab.unk_id


# A NUL in the vocabulary shows that a text's own NULs survive the NUL that
# joins the texts. The vocabulary holds printable ASCII but "q", a code point
# inside the lookup table; every code point past "~" is past the table, and
# would mostly land on a vocabulary character if it wrapped around.
ASCII = "".join(chr(c) for c in range(32, 127) if chr(c) != "q")
CHAR_VOCAB = train_char_vocab([ASCII + "\x00"], size=N_RESERVED + len(ASCII) + 1)
PIECES = [*SPECIAL_TOKENS, "[QUOT", "E]", "[", "]", "a", "b", " ", "\x00", "z", "q", "\u00e9",
          "\u4e2d", "\U0001f600", "\ud800", "\udfff", "\ud83d"]


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.lists(st.sampled_from(PIECES), max_size=8).map("".join), max_size=6),
       max_tokens=st.none() | st.integers(0, 6))
def test_char_encode_equals_the_per_character_reference(texts, max_tokens):
    got = encode(CHAR_VOCAB, texts, max_tokens)
    assert [ids.tolist() for ids in got] == [encode_chars(CHAR_VOCAB, t)[:max_tokens] for t in texts]
    assert all(ids.dtype == np.int64 for ids in got)


def test_char_encode_cuts_at_max_tokens_counting_a_special_token_as_one():
    v = CHAR_VOCAB
    a, b = v.token_to_id["a"], v.token_to_id["b"]
    quote, link = v.special_ids["[QUOTE]"], v.special_ids["[LINK]"]
    texts = ["[QUOTE][LINK]", "a[LINK]", "[LINK]b", "", "ab[QUOTE]ab", "[QUOTE"]
    got = [ids.tolist() for ids in encode(v, texts, max_tokens=3)]
    assert got == [[quote, link], [a, link], [link, b], [], [a, b, quote],
                   [v.token_to_id[c] for c in "[QU"]]


# --------------------------------------------------------------------- bpe


def test_bpe_first_merge_is_ab():
    vocab = train_bpe(["abab abab"], size=256 + N_RESERVED + 8)
    assert vocab.merges[0] == (b"a", b"b")


def test_bpe_minimum_size_zero_merges():
    vocab = train_bpe(["abab abab"], size=256 + N_RESERVED)
    assert vocab.merges == []
    assert len(vocab) == 256 + N_RESERVED


def test_bpe_size_too_small():
    with pytest.raises(ValueError):
        train_bpe(["x"], size=256)


def test_bpe_apply_merge_by_hand():
    vocab = train_bpe(["abab abab"], size=256 + N_RESERVED + 1)
    assert vocab.merges == [(b"a", b"b")]
    assert len(encode_one(vocab, "abab")) == 2


def test_bpe_any_bytes_encode_without_unk():
    vocab = train_bpe(["hello world"], size=256 + N_RESERVED + 4)
    ids = encode_one(vocab, "é中\x00 xyz")
    assert vocab.unk_id not in ids
    assert vocab.pad_id not in ids


def test_encode_empty():
    vocab = train_char_vocab(["abc"], size=20)
    assert encode_one(vocab, "") == []


def test_encode_special_atomic():
    for vocab in (train_char_vocab(["abc"], 30), train_bpe(["abc"], 256 + N_RESERVED)):
        ids = encode_one(vocab, "[LINK]")
        assert ids == [vocab.special_ids["[LINK]"]]


def test_literal_pad_text_does_not_hit_pad_id():
    vocab = train_bpe(["some text"], size=256 + N_RESERVED)
    ids = encode_one(vocab, "[PAD]")
    assert vocab.pad_id not in ids
    assert decode(vocab, ids) == "[PAD]"


def test_encode_deterministic():
    vocab = train_bpe(["the quick brown fox " * 3], size=256 + N_RESERVED + 20)
    text = "the quick [QUOTE] fox"
    assert encode_one(vocab, text) == encode_one(vocab, text)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=120))
def test_bpe_round_trip_property(text):
    vocab = train_bpe(["shared training text 123 !?"], size=256 + N_RESERVED + 10)
    assert decode(vocab, encode_one(vocab, text)) == text


def test_bpe_round_trip_with_specials_and_whitespace():
    vocab = train_bpe(["aa bb  cc\n\ndd\tee"], size=256 + N_RESERVED + 6)
    text = "x [LINK] y\n\n  [QUOTE]\tz  "
    assert decode(vocab, encode_one(vocab, text)) == text


def test_merges_do_not_cross_word_boundaries():
    # ' a' can merge (leading-space convention) but 'a b' across words cannot
    vocab = train_bpe(["xa xa xa"], size=256 + N_RESERVED + 30)
    for left, right in vocab.merges:
        joined = left + right
        # any merged token containing a space must start with the space run
        if b" " in joined:
            assert joined.lstrip(b" ").find(b" ") == -1


# ------------------------------------------------------------------ file IO


def test_vocab_file_round_trip_char(tmp_path):
    vocab = train_char_vocab(["hello world\n\ttabs and spaces"], size=40)
    path = tmp_path / "char.vocab"
    save_vocab(path, vocab)
    loaded = load_vocab(path)
    assert loaded.kind == "char"
    assert loaded.tokens == vocab.tokens
    assert encode_one(loaded, "hello world") == encode_one(vocab, "hello world")


def test_vocab_file_round_trip_bpe(tmp_path):
    vocab = train_bpe(["hello world hello world"], size=256 + N_RESERVED + 15)
    path = tmp_path / "bpe.vocab"
    save_vocab(path, vocab)
    loaded = load_vocab(path)
    assert loaded.kind == "bpe"
    assert loaded.tokens == vocab.tokens
    assert loaded.merges == vocab.merges
    text = "hello there world"
    assert encode_one(loaded, text) == encode_one(vocab, text)


# Text that an escape codec or a line-based file can get wrong: a backslash,
# line breaks, tab, NUL, non-ASCII, a literal "[PAD]" (not atomic in running
# text) and a line that looks like a section marker.
AWKWARD = "back\\slash [PAD] \\n\n#MERGES\n\ttab\x00nul \u00a3 " * 20


@pytest.mark.parametrize("kind", ["char", "bpe"])
def test_vocab_file_round_trips_awkward_tokens(tmp_path, kind):
    if kind == "char":
        text = AWKWARD + "\ud800"  # a lone surrogate, as load_posts accepts
        vocab = train_char_vocab([text], size=60)
    else:
        text = AWKWARD
        vocab = train_bpe([text], size=256 + N_RESERVED + 60)
        assert b" [PAD]" in vocab.token_to_id and b"\n#MERGES" in vocab.token_to_id
    path = tmp_path / "vocab.txt"
    save_vocab(path, vocab)
    assert path.read_bytes().isascii()
    loaded = load_vocab(path)
    assert (loaded.kind, loaded.tokens, loaded.merges) == (vocab.kind, vocab.tokens, vocab.merges)
    assert encode_one(loaded, text) == encode_one(vocab, text)


def test_pad_has_id_zero():
    vocab = train_char_vocab(["abc"], size=15)
    assert vocab.pad_id == 0
    assert Vocab(kind="char", tokens=list(RESERVED)).pad_id == 0
