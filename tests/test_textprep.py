"""Tokenization and the five preprocessing steps."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from modkit import analytics, textprep, vectorize
from modkit.errors import SchemaViolationError
from modkit.textprep import (
    ALL_STEPS,
    EmojiMode,
    LemmaDictionary,
    PIPELINE_ORDER,
    PreprocessConfig,
    STOPWORD_EXTENSIONS,
    Step,
    TokenStream,
    UNKNOWN_EMOJI_ALIAS,
    default_emoji_aliases,
    default_emoticon_map,
    default_lemma_dictionary,
    default_stoplist,
    encode_emojis,
    is_alias_placeholder,
    is_emoji_char,
    lemmatize,
    load_lemma_dictionary,
    load_stoplist,
    lowercase,
    normalize_emoticons,
    remove_punctuation,
    remove_stopwords,
    run_pipeline,
    tokenize,
)

from _fuzz import CASE_TRAPS, EMOJI, PUNCT_TAILS, WORDS, fuzz_texts, messy_text, random_text
from _oracles import (
    oracle_encode_emojis,
    oracle_is_emoji_char,
    oracle_is_modifier,
    oracle_is_punct_char,
    oracle_normalize_emoticons,
    oracle_tokenize,
)


class TestTokenize:
    def test_trailing_punctuation_split(self):
        assert tokenize("shut up!") == ("shut", "up", "!")

    def test_empty(self):
        assert tokenize("") == ()

    def test_emoji_is_own_token(self):
        assert tokenize("LOL 😂") == ("LOL", "😂")

    def test_adjacent_emoji_split(self):
        assert tokenize("lol😂😂ok") == ("lol", "😂", "😂", "ok")

    def test_punctuation_run_stays_one_token(self):
        assert tokenize("dumb !!!") == ("dumb", "!!!")
        assert tokenize("up!!!") == ("up", "!!!")

    def test_interior_apostrophe_kept(self):
        assert tokenize("y'all") == ("y'all",)

    def test_leading_and_trailing(self):
        assert tokenize("'quote'") == ("'", "quote", "'")

    def test_alias_placeholder_kept_whole(self):
        assert tokenize(":face_with_tears_of_joy:") == (":face_with_tears_of_joy:",)

    def test_chunks_reconstruct(self):
        for text in fuzz_texts(300, 23):
            for chunk in text.split():
                rebuilt = "".join(tokenize(chunk))
                # emoji modifiers may be dropped; everything else survives
                stripped = "".join(
                    ch for ch in chunk if ord(ch) not in (0x200D, 0xFE0E, 0xFE0F)
                )
                assert rebuilt == stripped or rebuilt == chunk

    def test_never_empty_tokens(self):
        for text in fuzz_texts(300, 5):
            assert all(tok for tok in tokenize(text))


class TestLowercase:
    def test_basic(self):
        assert lowercase(("LOL",)) == ("lol",)

    def test_emoji_untouched(self):
        assert lowercase(("😂",)) == ("😂",)

    def test_name(self):
        assert lowercase(("Karen",)) == ("karen",)

    def test_idempotent(self):
        for text in fuzz_texts(200, 31):
            stream = tokenize(text)
            once = lowercase(stream)
            assert lowercase(once) == once


class TestRemovePunctuation:
    def test_pure_punct_dropped(self):
        assert remove_punctuation(("dumb", "!!!")) == ("dumb",)

    def test_interior_apostrophe_survives(self):
        assert remove_punctuation(("y'all",)) == ("y'all",)

    def test_emoji_preserved(self):
        assert remove_punctuation(("😂",)) == ("😂",)

    def test_alias_placeholder_preserved(self):
        stream = (":face_with_tears_of_joy:", "!!")
        assert remove_punctuation(stream) == (":face_with_tears_of_joy:",)

    def test_edge_stripping(self):
        assert remove_punctuation(("'dumb!'",)) == ("dumb",)

    def test_idempotent(self):
        for text in fuzz_texts(200, 37):
            once = remove_punctuation(tokenize(text))
            assert remove_punctuation(once) == once


class TestRemoveStopwords:
    def test_extension_word_removed(self):
        assert remove_stopwords(("ur", "dumb")) == ("dumb",)

    def test_extension_members(self):
        stream = ("im", "gonna", "cause", "drama")
        assert remove_stopwords(stream) == ("drama",)

    def test_empty(self):
        assert remove_stopwords(()) == ()

    def test_default_extensions_are_the_seven_shorthands(self):
        assert STOPWORD_EXTENSIONS == ("u", "ur", "cause", "gonna", "im", "gon", "cant")
        stoplist = default_stoplist()
        for word in STOPWORD_EXTENSIONS:
            assert word in stoplist

    def test_idempotent_and_order_preserving(self):
        stoplist = default_stoplist()
        for text in fuzz_texts(200, 41):
            stream = lowercase(tokenize(text))
            once = remove_stopwords(stream, stoplist)
            assert remove_stopwords(once, stoplist) == once
            it = iter(stream)
            assert all(tok in it for tok in once)  # subsequence


class TestLemmatize:
    def test_writing_to_write(self):
        assert lemmatize(("writing",)) == ("write",)

    def test_lemma_is_fixed(self):
        assert lemmatize(("write",)) == ("write",)

    def test_plural_s_rule(self):
        assert lemmatize(("cats",)) == ("cat",)

    def test_min_stem_blocks_short_words(self):
        assert lemmatize(("was", "is", "bus")) == ("was", "is", "bus")

    def test_exception_values_are_fixed_points(self):
        dictionary = default_lemma_dictionary()
        for value in set(dictionary.exceptions.values()):
            assert lemmatize((value,)) == (value,)

    def test_idempotent(self):
        dictionary = default_lemma_dictionary()
        for text in fuzz_texts(300, 43):
            stream = lowercase(tokenize(text))
            once = lemmatize(stream, dictionary)
            assert lemmatize(once, dictionary) == once

    def test_memo_matches_the_rules(self):
        """Cold and warm, the memo gives what the rules give for every
        table key, every table value and every fuzz word."""
        data = textprep._resources.data_dir()
        dictionary = textprep.load_lemma_dictionary(
            data / "lemma_exceptions.tsv", data / "lemma_rules.tsv"
        )
        fuzz_words = {t for text in fuzz_texts(300, 47) for t in tokenize(text.lower())}
        words = sorted(
            set(dictionary.exceptions) | set(dictionary.exceptions.values()) | set(WORDS) | fuzz_words
        )
        expected = tuple(textprep._lemmatize_word(w, dictionary) for w in words)
        assert dictionary.memo == {}
        for _ in range(2):
            assert lemmatize(tuple(words), dictionary) == expected
        assert dictionary.memo == dict(zip(words, expected))
        assert expected != tuple(words)

    def test_suffix_screen_matches_trying_every_rule(self, tmp_path):
        """A word with no rule suffix is returned after one ``endswith``,
        and every lemma equals that of the rules tried one by one, for the
        bundled tables and for a dictionary with its own suffixes."""

        def every_rule_tried(word, dictionary):
            for _ in range(16):
                nxt = dictionary.exceptions.get(word, word)
                if word not in dictionary.exceptions:
                    for suffix, replacement, min_stem in dictionary.suffix_rules:
                        if word.endswith(suffix) and len(word) - len(suffix) >= min_stem:
                            nxt = word[: len(word) - len(suffix)] + replacement
                            break
                if nxt == word:
                    return word
                word = nxt
            return word

        (tmp_path / "words.tsv").write_text("went\tgo\n", encoding="utf-8")
        (tmp_path / "rules.tsv").write_text("ies\ty\t0\nzz\tz\t1\ns\t\t1\n", encoding="utf-8")
        own = load_lemma_dictionary(tmp_path / "words.tsv", tmp_path / "rules.tsv")
        bundled = default_lemma_dictionary()
        assert own.suffixes == ("ies", "zz", "s") and "zz" not in bundled.suffixes
        assert bundled.suffixes == tuple(suffix for suffix, _, _ in bundled.suffix_rules)
        stems = {t for text in fuzz_texts(300, 61) for t in tokenize(text.lower())} | set(WORDS)
        for dictionary in (bundled, own):
            words = stems | set(dictionary.exceptions) | {
                stem + suffix for stem in stems for suffix in dictionary.suffixes
            }
            for word in sorted(words):
                expected = every_rule_tried(word, dictionary)
                assert textprep._lemmatize_word(word, dictionary) == expected, word

    def test_memo_belongs_to_the_dictionary(self, tmp_path, monkeypatch):
        """Tables without rules or exceptions give other lemmas in the same
        process, and the bundled tables give theirs again afterwards; so
        does a copy of the bundled dictionary without its rules."""
        words = ("cats", "writing", "blessings")
        lemmas = lemmatize(words)
        assert lemmas != words
        (tmp_path / "lemma_exceptions.tsv").write_text("", encoding="utf-8")
        (tmp_path / "lemma_rules.tsv").write_text("", encoding="utf-8")
        monkeypatch.setenv("MODKIT_DATA_DIR", str(tmp_path))
        assert lemmatize(words) == words
        monkeypatch.delenv("MODKIT_DATA_DIR")
        assert lemmatize(words) == lemmas
        no_rules = LemmaDictionary(default_lemma_dictionary().exceptions, suffix_rules=())
        assert no_rules.memo == {}
        assert lemmatize(words, no_rules) == ("cats", "write", "blessings")


def assert_table_line_refused(tmp_path, monkeypatch, name, line, load, message):
    """``load`` of a data dir whose table ``name`` holds ``line`` after a
    comment raises SchemaViolationError matching ``message`` on line 2,
    naming the file."""
    path = tmp_path / name
    path.write_text(f"# comment\n{line}\n", encoding="utf-8")
    monkeypatch.setenv("MODKIT_DATA_DIR", str(tmp_path))
    with pytest.raises(SchemaViolationError, match=f"{message} on line 2") as info:
        load()
    assert info.value.path == str(path)


class TestNormalizeEmoticons:
    def test_simple(self):
        assert normalize_emoticons("ok :)") == "ok :slightly_smiling_face:"

    def test_no_emoticons(self):
        assert normalize_emoticons("no emoticons") == "no emoticons"

    def test_longest_match_wins(self):
        emap = {":)": "slightly_smiling_face", ":))": "beaming_face_with_smiling_eyes"}
        assert normalize_emoticons(":))", emap) == ":beaming_face_with_smiling_eyes:"

    def test_not_replaced_inside_words(self):
        assert normalize_emoticons("ok:)") == "ok:)"

    def test_letters_only_key_rejected(self, tmp_path, monkeypatch):
        assert_table_line_refused(
            tmp_path, monkeypatch, "emoticons.tsv", "xd\tgrinning_squinting_face",
            default_emoticon_map, "^letters-only emoticon key 'xd'",
        )

    @pytest.mark.parametrize("alias", ["not.a.placeholder", "two words", "", "a:b", "smile!"])
    def test_alias_that_makes_no_placeholder_rejected(self, tmp_path, monkeypatch, alias):
        assert_table_line_refused(
            tmp_path, monkeypatch, "emoticons.tsv", f":)\t{alias}", default_emoticon_map,
            f"^alias '{alias}' is no placeholder body",
        )

    def test_bundled_aliases_make_placeholders(self):
        aliases = default_emoticon_map().values()
        assert aliases and all(is_alias_placeholder(f":{alias}:") for alias in aliases)


class TestTableLoaders:
    """A data-table line the steps cannot use is refused, naming the file
    and the line."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("XD\tgrinning_squinting_face", "^letters-only emoticon key 'XD'"),
            ("\tslightly_smiling_face", "^emoticon key '' is not one whitespace-free chunk"),
            (": )\tslightly_smiling_face", "^emoticon key ': \\)' is not one whitespace-free chunk"),
            (":)\tSlightly_smiling_face", "^emoticon alias 'Slightly_smiling_face' is not lowercase"),
        ],
        ids=["letters_only_upper", "empty_key", "key_with_space", "alias_not_lowercase"],
    )
    def test_emoticon_line_refused(self, tmp_path, monkeypatch, line, message):
        assert_table_line_refused(
            tmp_path, monkeypatch, "emoticons.tsv", line, default_emoticon_map, message
        )

    @pytest.mark.parametrize("alias", ["", "two words", "a:b", "smile!"])
    def test_emoji_alias_that_makes_no_placeholder_refused(self, tmp_path, monkeypatch, alias):
        assert_table_line_refused(
            tmp_path, monkeypatch, "emoji_aliases.tsv", f"😀\t{alias}", default_emoji_aliases,
            f"^alias '{alias}' is no placeholder body",
        )

    @pytest.mark.parametrize(
        "name, lines, load",
        [
            ("emoticons.tsv", ":)\tslightly_smiling_face\n:)\tslightly_frowning_face", default_emoticon_map),
            ("emoji_aliases.tsv", "😀\tgrinning_face\n😀\tgrinning_face", default_emoji_aliases),
            ("lemma_exceptions.tsv", "went\tgo\nwent\twend", default_lemma_dictionary),
        ],
        ids=["emoticons", "emoji_aliases", "lemma_exceptions"],
    )
    def test_repeated_key_refused(self, tmp_path, monkeypatch, name, lines, load):
        """A key an earlier line gives is refused naming both lines, the
        same value again included; the last line does not silently win."""
        (tmp_path / "lemma_rules.tsv").write_text("", encoding="utf-8")
        (tmp_path / "lemma_exceptions.tsv").write_text("", encoding="utf-8")
        path = tmp_path / name
        path.write_text(f"# comment\n{lines.replace(chr(10), chr(10) * 2)}\n", encoding="utf-8")
        monkeypatch.setenv("MODKIT_DATA_DIR", str(tmp_path))
        key = lines.partition("\t")[0]
        with pytest.raises(SchemaViolationError) as info:
            load()
        assert str(info.value) == f"repeated key {key!r} on line 4, first given on line 2 (at {path})"

    def test_empty_lemma_refused(self, tmp_path, monkeypatch):
        (tmp_path / "lemma_rules.tsv").write_text("", encoding="utf-8")
        assert_table_line_refused(
            tmp_path, monkeypatch, "lemma_exceptions.tsv", "the\t", default_lemma_dictionary,
            "^empty lemma for 'the'",
        )

    @pytest.mark.parametrize("min_stem", ["0", "-1"])
    def test_empty_replacement_below_one_stem_refused(self, tmp_path, monkeypatch, min_stem):
        (tmp_path / "lemma_exceptions.tsv").write_text("", encoding="utf-8")
        assert_table_line_refused(
            tmp_path, monkeypatch, "lemma_rules.tsv", f"s\t\t{min_stem}", default_lemma_dictionary,
            "^empty replacement needs min_stem >= 1",
        )

    def test_rules_that_cannot_empty_a_word_accepted(self, tmp_path):
        (tmp_path / "words.tsv").write_text("", encoding="utf-8")
        (tmp_path / "rules.tsv").write_text("ies\ty\t0\ns\t\t1\n", encoding="utf-8")
        dictionary = load_lemma_dictionary(tmp_path / "words.tsv", tmp_path / "rules.tsv")
        assert dictionary.suffix_rules == (("ies", "y", 0), ("s", "", 1))
        assert lemmatize(("s", "ies", "cats"), dictionary) == ("s", "y", "cat")


class TestEncodeEmojis:
    def test_ml_plain(self):
        assert encode_emojis("😂") == "face_with_tears_of_joy"

    def test_bert_delimited(self):
        assert encode_emojis("😂", EmojiMode.BERT_DELIMITED) == ":face_with_tears_of_joy:"

    def test_plain_text_unchanged(self):
        assert encode_emojis("plain text") == "plain text"

    def test_adjacent_text_not_fused(self):
        assert encode_emojis("lol😂") == "lol face_with_tears_of_joy"
        assert encode_emojis("😂😂") == "face_with_tears_of_joy face_with_tears_of_joy"

    def test_unknown_emoji_counted_not_failed(self):
        assert encode_emojis("🩻") == UNKNOWN_EMOJI_ALIAS  # not in bundled table

    def test_never_emits_raw_emoji(self):
        for text in fuzz_texts(300, 47):
            for mode in EmojiMode:
                assert not any(is_emoji_char(c) for c in encode_emojis(text, mode))

    def test_alias_table_round_trips(self):
        aliases = default_emoji_aliases()
        reverse = {alias: emoji for emoji, alias in aliases.items()}
        assert len(reverse) == len(aliases)
        for emoji, alias in aliases.items():
            assert aliases[reverse[alias]] == alias
        for key, alias in default_emoticon_map().items():
            assert alias in reverse, f"emoticon {key!r} maps to unknown alias {alias!r}"

    def test_skin_tone_modifier_stripped(self):
        assert encode_emojis("👍🏽") == "thumbs_up"

    def test_placeholders_rewritten_per_mode(self):
        normalized = normalize_emoticons("ok :)")
        assert encode_emojis(normalized) == "ok slightly_smiling_face"
        assert encode_emojis(normalized, EmojiMode.BERT_DELIMITED) == normalized

    def test_emoticon_and_emoji_share_a_token(self):
        config = PreprocessConfig(steps=ALL_STEPS)
        from_emoticon = run_pipeline("nice :'D", config)
        from_emoji = run_pipeline("nice 😂", config)
        assert from_emoticon.tokens == from_emoji.tokens


def compose_by_hand(text: str, config: PreprocessConfig) -> tuple[str, ...]:
    if Step.LOWERCASING in config.steps:
        text = text.lower()
    if Step.EMOJI_ENCODING in config.steps:
        text = encode_emojis(normalize_emoticons(text), config.emoji_mode)
    stream = tokenize(text)
    if Step.PUNCTUATION_REMOVAL in config.steps:
        stream = remove_punctuation(stream)
    if Step.STOPWORD_REMOVAL in config.steps:
        stream = remove_stopwords(stream)
    if Step.LEMMATIZATION in config.steps:
        stream = lemmatize(stream)
    return stream


class TestRunPipeline:
    def test_all_steps_ml_plain(self):
        stream = run_pipeline("Ur DUMB!! 😂", PreprocessConfig(steps=ALL_STEPS))
        assert stream.tokens == ("dumb", "face_with_tears_of_joy")

    def test_no_steps_is_tokenize_only(self):
        text = "Ur DUMB!! 😂"
        stream = run_pipeline(text, PreprocessConfig(steps=frozenset()))
        assert stream.tokens == tokenize(text)

    def test_stopwords_and_lowercasing(self):
        config = PreprocessConfig(steps=frozenset({Step.STOPWORD_REMOVAL, Step.LOWERCASING}))
        assert run_pipeline("im gonna go", config).tokens == ("go",)

    def test_bert_delimited_alias_survives_full_pipeline(self):
        config = PreprocessConfig(steps=ALL_STEPS, emoji_mode=EmojiMode.BERT_DELIMITED)
        stream = run_pipeline("ok 😂!!", config)
        assert ":face_with_tears_of_joy:" in stream.tokens

    def test_matches_manual_composition(self):
        configs = [
            PreprocessConfig(steps=ALL_STEPS),
            PreprocessConfig(steps=ALL_STEPS, emoji_mode=EmojiMode.BERT_DELIMITED),
            PreprocessConfig(steps=frozenset({Step.LOWERCASING, Step.PUNCTUATION_REMOVAL})),
            PreprocessConfig(steps=frozenset({Step.EMOJI_ENCODING})),
            PreprocessConfig(steps=frozenset()),
        ]
        for i, text in enumerate(fuzz_texts(300, 53)):
            config = configs[i % len(configs)]
            assert run_pipeline(text, config).tokens == compose_by_hand(text, config)

    @pytest.mark.parametrize("mode", list(EmojiMode))
    def test_chunk_local(self, mode):
        """For every set of steps, a text's tokens are its whitespace
        chunks' tokens in order, unknown emoji included. A called chunk
        memo gives a text the same tokens as ``run_pipeline``, the
        first time and when every chunk is a hit, also where lowercasing
        changes a chunk's length or depends on its context."""
        rng = random.Random(67)
        texts = [random_text(rng) for _ in range(150)] + [messy_text(rng) for _ in range(150)]
        texts += [messy_text(rng, pools=[CASE_TRAPS, WORDS, EMOJI, PUNCT_TAILS]) for _ in range(100)]
        unknown = False
        for n in range(len(PIPELINE_ORDER) + 1):
            for steps in itertools.combinations(PIPELINE_ORDER, n):
                config = PreprocessConfig(steps=frozenset(steps), emoji_mode=mode)
                tables = textprep._step_tables(config)
                called = textprep.ChunkMemo(config)
                for text in texts:
                    tokens = run_pipeline(text, config, **tables).tokens
                    assert tokens == tuple(
                        token
                        for chunk in text.split()
                        for token in run_pipeline(chunk, config, **tables).tokens
                    ), (text, steps)
                    if Step.EMOJI_ENCODING in steps:
                        unknown |= not {UNKNOWN_EMOJI_ALIAS, f":{UNKNOWN_EMOJI_ALIAS}:"}.isdisjoint(tokens)
                    for use in ("first", "replay"):
                        stream = called(text)
                        assert stream == tokens and type(stream) is TokenStream, (text, steps, use)
                assert len(called) == len({
                    chunk for text in texts
                    for chunk in (text.lower() if Step.LOWERCASING in steps else text).split()
                })
        assert unknown

    def test_memo_serves_one_config_and_one_set_of_tables(self):
        config = PreprocessConfig(steps=ALL_STEPS)
        memo = textprep.ChunkMemo(config)
        text = "Ur DUMB!! 😂 :)"
        assert memo(text) == run_pipeline(text, config, **textprep._step_tables(config))
        assert set(memo) == {"ur", "dumb!!", "😂", ":)"}
        assert memo["ur"] == () and memo["😂"] == ("face_with_tears_of_joy",)

    def test_memo_is_per_instance_and_reads_its_own_tables(self, tmp_path, monkeypatch):
        """Two memos share nothing, so a memo made under another
        ``MODKIT_DATA_DIR`` reads that directory's tables, and a memo
        keeps the tables it was made with when the variable changes."""
        config = PreprocessConfig(steps=frozenset({Step.LOWERCASING, Step.STOPWORD_REMOVAL}))
        bundled = textprep.ChunkMemo(config)
        assert bundled("Ok then") == ("ok",)
        (tmp_path / "stopwords.txt").write_text("ok\n", encoding="utf-8")
        monkeypatch.setenv("MODKIT_DATA_DIR", str(tmp_path))
        other = textprep.ChunkMemo(config)
        assert other("Ok then") == ("then",)
        assert bundled("the ok") == ("ok",)
        assert other("the ok") == ("the",)
        assert set(other) == set(bundled) == {"ok", "then", "the"}

    @pytest.mark.parametrize("mode", list(EmojiMode))
    def test_streams_are_checked_tuples(self, mode):
        """For every set of steps, a stream is a tuple of non-empty tokens,
        and the featurizers and the n-gram counts read plain tuple copies
        of the streams as they read the streams."""
        rng = random.Random(71)
        texts = [random_text(rng) for _ in range(100)] + [messy_text(rng) for _ in range(100)]
        for n in range(len(PIPELINE_ORDER) + 1):
            for steps in itertools.combinations(PIPELINE_ORDER, n):
                config = PreprocessConfig(steps=frozenset(steps), emoji_mode=mode)
                tables = textprep._step_tables(config)
                streams = [run_pipeline(text, config, **tables) for text in texts]
                for stream in streams:
                    assert isinstance(stream, tuple) and "" not in stream, (stream, steps)
                    assert stream.tokens is stream
                plain = [tuple(stream) for stream in streams]
                model, plain_model = vectorize.fit(streams), vectorize.fit(plain)
                assert list(plain_model.vocabulary.items()) == list(model.vocabulary.items())
                assert plain_model == model
                X, plain_X = (vectorize.transform_all(model, c) for c in (streams, plain))
                for array in ("indptr", "indices", "data"):
                    assert getattr(plain_X, array).tobytes() == getattr(X, array).tobytes()
                assert plain_X.n_cols == X.n_cols
                assert list(vectorize.rows(model, plain)) == list(vectorize.rows(model, streams))
                for k in (1, 2, 3):
                    table = analytics.ngram_counts(streams, k, 50)
                    assert analytics.ngram_counts(plain, k, 50) == table

    def test_no_empty_tokens_any_config(self):
        configs = [
            PreprocessConfig(steps=ALL_STEPS),
            PreprocessConfig(steps=frozenset({Step.PUNCTUATION_REMOVAL})),
            PreprocessConfig(steps=frozenset()),
        ]
        for i, text in enumerate(fuzz_texts(300, 59)):
            for config in configs:
                assert all(tok for tok in run_pipeline(text, config).tokens)


class TestTokenStream:
    def test_is_the_tuple_of_its_tokens(self):
        stream = TokenStream(iter(["a", "b", "a"]))
        assert isinstance(stream, tuple) and stream.tokens is stream
        assert stream == ("a", "b", "a") and hash(stream) == hash(("a", "b", "a"))
        assert {("a", "b", "a"): 1}[stream] == 1
        assert not TokenStream(()) and TokenStream(()) == ()

    def test_refuses_an_empty_token(self):
        with pytest.raises(ValueError, match="^empty-string tokens are not allowed$"):
            TokenStream(("a", ""))

    def test_holds_nothing_but_its_tokens(self):
        stream = TokenStream(("a",))
        for name in ("tokens", "source_id", "other"):
            with pytest.raises(AttributeError):
                setattr(stream, name, ("b",))
        assert not hasattr(stream, "__dict__") and not hasattr(stream, "source_id")
        with pytest.raises(TypeError):
            TokenStream(("a",), "c1")  # no source id


class TestPreprocessConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"emoji_mode": "ml"},
            {"emoji_mode": "bert"},
            {"emoji_mode": None},
            {"steps": frozenset({"lowercasing"})},
            {"steps": ALL_STEPS | {"lemmatization"}},
        ],
        ids=["mode_ml_string", "mode_bert_string", "mode_none", "step_string", "one_step_string"],
    )
    def test_value_of_another_type_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError, match="unknown"):
            PreprocessConfig(**kwargs)

    def test_steps_given_as_any_iterable_become_a_frozenset(self):
        config = PreprocessConfig(steps=[Step.LOWERCASING, Step.LOWERCASING])
        assert config.steps == frozenset({Step.LOWERCASING})


class TestStopList:
    def test_membership_covers_base_and_extensions(self):
        lines = (textprep._resources._BUNDLED / "stopwords.txt").read_text(encoding="utf-8")
        words = {w.strip().lower() for w in lines.splitlines()}
        words = {w for w in words if w and not w.startswith("#")}
        stoplist = default_stoplist()
        assert type(stoplist) is frozenset
        assert stoplist == words | set(STOPWORD_EXTENSIONS)
        assert "the" in stoplist and "ur" in stoplist and "dumb" not in stoplist

    def test_custom_extensions_are_added_as_given(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\n The \n\nNice\n", encoding="utf-8")
        assert load_stoplist(path) == {"the", "nice", *STOPWORD_EXTENSIONS}

    def test_data_dir_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "stopwords.txt").write_text("zonkers\n", encoding="utf-8")
        monkeypatch.setenv("MODKIT_DATA_DIR", str(tmp_path))
        assert default_stoplist() == {"zonkers", *STOPWORD_EXTENSIONS}
        monkeypatch.delenv("MODKIT_DATA_DIR")
        assert "the" in default_stoplist()


class TestCharacterTable:
    """The class table and the regex whitespace split give exactly what
    the per-character range scans and the hand-written split gave."""

    def test_every_code_point_classified_as_before(self):
        mismatches = []
        for block in range(0, 0x110000, 0x10000):
            try:
                for cp in range(block, block + 0x10000):
                    ch = chr(cp)
                    cls = textprep._CHAR_CLASS[ch]
                    got = (
                        is_emoji_char(ch),
                        cls == textprep._MODIFIER,
                        cls == textprep._PUNCT,
                        textprep._SPACE_RUNS.fullmatch(ch) is not None,
                    )
                    want = (
                        oracle_is_emoji_char(ch),
                        oracle_is_modifier(ch),
                        oracle_is_punct_char(ch),
                        ch.isspace(),
                    )
                    if got != want:
                        mismatches.append((hex(cp), got, want))
            finally:
                textprep._CHAR_CLASS.clear()  # hold one block at a time, not 1.1M entries
        assert mismatches == []

    def test_string_steps_match_the_reference_on_fuzz(self):
        """Also the premise of the ASCII fast paths: the fuzz texts hold
        many all-ASCII texts and chunks, and many that are not."""
        rng = random.Random(20240830)
        emoticons = default_emoticon_map()
        aliases = default_emoji_aliases()
        seen = Counter()
        for _ in range(3000):
            text = messy_text(rng)
            for variant in (text, text.lower(), oracle_normalize_emoticons(text, emoticons)):
                seen["ascii text" if variant.isascii() else "other text"] += 1
                seen.update("ascii chunk" if c.isascii() else "other chunk" for c in variant.split())
                assert tokenize(variant) == oracle_tokenize(variant), repr(variant)
                assert normalize_emoticons(variant) == oracle_normalize_emoticons(variant, emoticons)
                for mode in EmojiMode:
                    expected = oracle_encode_emojis(
                        variant, mode is EmojiMode.ML_PLAIN, aliases, UNKNOWN_EMOJI_ALIAS
                    )
                    assert encode_emojis(variant, mode) == expected, (repr(variant), mode)
        assert min(seen.values()) > 1000 and len(seen) == 4, seen
