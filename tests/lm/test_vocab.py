"""Tests for the WordPiece vocabulary builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm import SPECIAL_TOKENS, WordPieceVocab, build_vocab


def small_corpus():
    return [
        ["order", "identifier"],
        ["order", "date"],
        ["order", "total", "amount"],
        ["product", "identifier"],
        ["product", "name"],
    ] * 3


class TestBuildVocab:
    def test_specials_come_first(self):
        vocab = build_vocab(small_corpus(), target_size=100)
        assert vocab.tokens[:5] == SPECIAL_TOKENS

    def test_contains_all_characters(self):
        vocab = build_vocab(small_corpus(), target_size=100)
        for char in "orderproductnamountidentifie":
            assert char in vocab or f"##{char}" in vocab

    def test_merges_frequent_words(self):
        vocab = build_vocab(small_corpus(), target_size=300)
        # "order" appears 9 times; BPE should have merged it to a full token.
        assert "order" in vocab

    def test_respects_target_size(self):
        vocab = build_vocab(small_corpus(), target_size=60)
        assert len(vocab) <= 60 + 30  # alphabet may exceed the budget slightly

    def test_deterministic(self):
        a = build_vocab(small_corpus(), target_size=100)
        b = build_vocab(small_corpus(), target_size=100)
        assert a.tokens == b.tokens

    def test_merge_rebuilding_existing_piece_is_not_duplicated(self):
        # '#' + '###' -> '##', then '##' + '##1' -> '##1', which the alphabet
        # already holds; this used to raise "duplicate tokens in vocabulary".
        vocab = build_vocab([["##1", "##1"]], target_size=80)
        assert len(set(vocab.tokens)) == len(vocab.tokens)
        assert "##1" in vocab


class TestWordPieceVocab:
    def test_special_ids(self):
        vocab = build_vocab(small_corpus(), target_size=100)
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.cls_id == 2
        assert vocab.sep_id == 3
        assert vocab.mask_id == 4
        assert vocab.special_ids() == {0, 1, 2, 3, 4}

    def test_id_round_trip(self):
        vocab = build_vocab(small_corpus(), target_size=100)
        for token in vocab.tokens:
            assert vocab.token_of(vocab.id_of(token)) == token

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab(small_corpus(), target_size=100)
        assert vocab.id_of("zzzzz_not_there") == vocab.unk_id

    def test_requires_special_prefix(self):
        with pytest.raises(ValueError):
            WordPieceVocab(["foo", "bar"])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            WordPieceVocab(SPECIAL_TOKENS + ["a", "a"])

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(small_corpus(), target_size=100)
        path = tmp_path / "vocab.json"
        vocab.save(path)
        assert WordPieceVocab.load(path).tokens == vocab.tokens


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.from_regex(r"[a-z]{1,8}", fullmatch=True), min_size=1, max_size=6),
        min_size=1,
        max_size=20,
    )
)
def test_property_vocab_always_tokenizable(corpus):
    """Every corpus word must be representable by the learned vocabulary."""
    from repro.lm import WordPieceTokenizer

    vocab = build_vocab(corpus, target_size=200)
    tokenizer = WordPieceTokenizer(vocab)
    for sentence in corpus:
        for word in sentence:
            pieces = tokenizer.tokenize_word(word)
            assert pieces
            assert "[UNK]" not in pieces
