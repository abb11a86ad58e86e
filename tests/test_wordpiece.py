"""Greedy WordPiece encoding, vocabulary augmentation, fragmentation."""

from __future__ import annotations

import random

import pytest

from modkit import wordpiece
from modkit.errors import ModkitError, SchemaViolationError
from modkit.wordpiece import (
    CLS,
    DEFAULT_MAX_LENGTH,
    SEP,
    UNK,
    WordPieceVocab,
    augment_vocab,
    default_vocab,
    fragmentation_rate,
    load_vocab,
    wordpiece_encode,
)

from _fuzz import WORDS, fuzz_texts, messy_text


def vocab_of(*extra: str) -> WordPieceVocab:
    tokens = {"[PAD]": 0, "[UNK]": 1, "[CLS]": 2, "[SEP]": 3}
    for token in extra:
        tokens[token] = len(tokens)
    return WordPieceVocab(tokens=tokens)


class TestEncode:
    def test_greedy_split_with_continuation(self):
        encoding = wordpiece_encode("boomer", vocab_of("boom", "##er"))
        assert encoding.tokens == (CLS, "boom", "##er", SEP)

    def test_whole_word_hit(self):
        encoding = wordpiece_encode("boomer", vocab_of("boomer", "boom", "##er"))
        assert encoding.tokens == (CLS, "boomer", SEP)

    def test_unknown_word(self):
        encoding = wordpiece_encode("zzzz", vocab_of("boom"))
        assert encoding.tokens == (CLS, UNK, SEP)

    def test_longest_match_first(self):
        # prefers "boom" over "bo" at the first position
        encoding = wordpiece_encode("boom", vocab_of("bo", "boom", "##om"))
        assert encoding.tokens == (CLS, "boom", SEP)

    def test_alias_placeholder_single_token(self):
        vocab = vocab_of(":face_with_tears_of_joy:")
        encoding = wordpiece_encode(":face_with_tears_of_joy:", vocab)
        assert encoding.tokens == (CLS, ":face_with_tears_of_joy:", SEP)

    def test_truncation_keeps_sep(self):
        vocab = vocab_of("a")
        encoding = wordpiece_encode(" ".join("a" * 1 for _ in range(300)), vocab)
        assert len(encoding) == DEFAULT_MAX_LENGTH == 150
        assert encoding.truncated
        assert encoding.tokens[0] == CLS and encoding.tokens[-1] == SEP

    def test_no_truncation_flag_when_short(self):
        encoding = wordpiece_encode("a", vocab_of("a"))
        assert not encoding.truncated

    def test_ids_match_tokens(self):
        vocab = vocab_of("boom", "##er")
        encoding = wordpiece_encode("boomer", vocab)
        assert encoding.ids == tuple(vocab.tokens[t] for t in encoding.tokens)

    def test_word_longer_than_limit_is_unknown(self):
        vocab = vocab_of(*"abcdefghijklmnopqrstuvwxyz")
        encoding = wordpiece_encode("a" * 101, vocab)
        assert encoding.tokens == (CLS, UNK, SEP)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ModkitError, match="^vocabulary has no usable tokens$"):
            wordpiece_encode("x", vocab_of())

    def test_deterministic(self):
        vocab = default_vocab()
        text = "ok boomer stop the cap :skull:"
        assert wordpiece_encode(text, vocab) == wordpiece_encode(text, vocab)


class TestAugment:
    def test_grows_by_new_tokens_only(self):
        vocab = vocab_of("boom", "##er")
        grown = augment_vocab(vocab, ["simp", "boomer", "boom"])
        assert len(grown) == len(vocab) + 2

    def test_existing_token_noop(self):
        vocab = vocab_of("boom")
        assert augment_vocab(vocab, ["boom"]).tokens == vocab.tokens

    def test_prior_ids_preserved(self):
        vocab = default_vocab()
        grown = augment_vocab(vocab, ["simp", "boomer", "cap", ":skull:"])
        for token, token_id in vocab.tokens.items():
            assert grown.tokens[token] == token_id

    def test_alias_becomes_single_token(self):
        vocab = default_vocab()
        alias = ":face_with_tears_of_joy:"
        before = wordpiece_encode(alias, vocab)
        after = wordpiece_encode(alias, augment_vocab(vocab, [alias]))
        assert len(before.tokens) > 3
        assert after.tokens == (CLS, alias, SEP)

    def test_whitespace_token_rejected(self):
        with pytest.raises(ModkitError, match="^invalid vocabulary token 'bad token'$"):
            augment_vocab(vocab_of(), ["bad token"])

    def test_lowercased_on_insertion(self):
        grown = augment_vocab(vocab_of(), ["Simp"])
        assert "simp" in grown.tokens
        assert "Simp" not in grown.tokens


class TestFragmentation:
    def test_single_split_word(self):
        rate = fragmentation_rate(["boomer"], vocab_of("boom", "##er"))
        assert rate.pieces_per_word == 2.0
        assert rate.split_word_fraction == 1.0

    def test_fully_covered_corpus(self):
        rate = fragmentation_rate(["boom boom", "boom"], vocab_of("boom"))
        assert (rate.pieces_per_word, rate.split_word_fraction) == (1.0, 0.0)

    def test_saturated_after_augmenting_every_word(self):
        corpus = ["ok boomer", "no cap simp"]
        vocab = augment_vocab(default_vocab(), ["ok", "boomer", "no", "cap", "simp"])
        rate = fragmentation_rate(corpus, vocab)
        assert (rate.pieces_per_word, rate.split_word_fraction) == (1.0, 0.0)

    def test_unknown_counts_as_one_piece(self):
        rate = fragmentation_rate(["zzzz"], vocab_of("boom"))
        assert rate.pieces_per_word == 1.0
        assert rate.split_word_fraction == 1.0

    def test_slang_augmentation_reduces_fragmentation(self, slang_corpus):
        vocab = default_vocab()
        before = fragmentation_rate(slang_corpus, vocab)
        grown = augment_vocab(vocab, ["simp", "boomer", "cap"])
        after = fragmentation_rate(slang_corpus, grown)
        assert after.pieces_per_word < before.pieces_per_word
        assert after.split_word_fraction <= before.split_word_fraction


class TestVocabFile:
    def test_round_trip_preserves_ids(self, tmp_path):
        vocab = augment_vocab(default_vocab(), ["simp", ":skull:"])
        path = tmp_path / "vocab.txt"
        ordered = sorted(vocab.tokens, key=vocab.tokens.__getitem__)
        path.write_text("".join(f"{token}\n" for token in ordered), encoding="utf-8")
        assert load_vocab(path).tokens == vocab.tokens

    def test_line_number_is_id(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\nboom\n##er\n", encoding="utf-8")
        vocab = load_vocab(path)
        assert vocab.tokens["boom"] == 4
        assert vocab.tokens["##er"] == 5

    @pytest.mark.parametrize(
        "line", ["", " ", "\t", "bo om", "boom\u00a0"], ids=["empty", "space", "tab", "inner", "nbsp"]
    )
    def test_blank_or_whitespace_line_refused(self, tmp_path, line):
        """Every line is a token, so a line that cannot be one is refused
        rather than skipped, which would shift the ids after it."""
        path = tmp_path / "vocab.txt"
        path.write_text(f"[PAD]\n[UNK]\n{line}\n[CLS]\n[SEP]\nboom\n", encoding="utf-8")
        with pytest.raises(SchemaViolationError) as info:
            load_vocab(path)
        assert info.value.exit_code == 3
        assert str(info.value) == f"invalid vocabulary token {line!r} on line 3 (at {path})"

    def test_repeated_token_refused(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\nboom\n##er\nboom\n", encoding="utf-8")
        with pytest.raises(SchemaViolationError) as info:
            load_vocab(path)
        assert info.value.exit_code == 3
        message = f"repeated token 'boom' on line 7, first given on line 5 (at {path})"
        assert str(info.value) == message

    def test_missing_special_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[CLS]\n[SEP]\nboom\n", encoding="utf-8")
        with pytest.raises(ModkitError, match=r"^vocabulary missing special token \[UNK\]$"):
            load_vocab(path)

    def test_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"[PAD]\n[UNK]\n[CLS]\n[SEP]\nbo\xffom\n")
        with pytest.raises(ModkitError, match="vocab.txt is not UTF-8"):
            load_vocab(path)

    def test_bundled_vocab_excludes_demo_slang(self):
        vocab = default_vocab()
        for token in ("simp", "boomer", "cap"):
            assert token not in vocab.tokens


class TestMonotonicity:
    def test_random_word_augmentations_never_increase(self, slang_corpus):
        vocab = default_vocab()
        base = fragmentation_rate(slang_corpus, vocab)
        universe = sorted({word for line in slang_corpus for word in line.split()})
        rng = random.Random(97)
        for _ in range(30):
            picks = rng.sample(universe, rng.randint(1, min(8, len(universe))))
            rate = fragmentation_rate(slang_corpus, augment_vocab(vocab, picks))
            assert rate.pieces_per_word <= base.pieces_per_word + 1e-12
            assert rate.split_word_fraction <= base.split_word_fraction + 1e-12


class TestMemo:
    def test_memo_matches_cold_segmentation(self):
        """Before and after augmentation, cold and warm, encoding and
        fragmentation give what ``_segment_word`` gives for every
        vocabulary token, every word of ``WORDS`` and every fuzz word."""
        base = load_vocab(wordpiece._resources.data_dir() / "wordpiece_vocab.txt")
        rng = random.Random(59)
        fuzz_words = {w for text in fuzz_texts(300, 53) for w in f"{text} {text.lower()}".split()}
        fuzz_words |= {w for _ in range(300) for w in messy_text(rng).split()}
        words = sorted(set(base.tokens) | set(WORDS) | fuzz_words | {"x" * 101})
        text = " ".join(words)
        new_tokens = [":face_with_tears_of_joy:", "lol", "y'all", "karen", "simp"]
        augmented = augment_vocab(base, new_tokens)
        for vocab in (base, augmented):
            assert vocab.memo == {}
            cold = {w: tuple(wordpiece._segment_word(w, vocab)) for w in words}
            pieces = [p for w in words for p in cold[w]]
            split = sum(len(cold[w]) >= 2 or cold[w] == (UNK,) for w in words)
            for _ in range(2):
                for word in words:
                    encoding = wordpiece_encode(word, vocab)
                    assert encoding.tokens == (CLS, *cold[word], SEP) and not encoding.truncated
                rate = fragmentation_rate([text], vocab)
                assert (rate.pieces_per_word, rate.split_word_fraction) == (
                    len(pieces) / len(words),
                    split / len(words),
                )
            assert vocab.memo == cold
        assert base.memo != augmented.memo
        assert all(type(pieces) is tuple for pieces in augmented.memo.values())
