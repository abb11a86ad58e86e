"""N-gram rankings, histograms, emoji statistics, chart exports."""

from __future__ import annotations

import csv
import random
import shutil

import pytest

from modkit import _resources
from modkit.analytics import (
    cloud_weights,
    emoji_stats,
    export_chart_data,
    length_histogram,
    ngram_counts,
)
from modkit.corpus import Label, LabeledDataset
from modkit.errors import ConfigError, ModkitError
from modkit.textprep import (
    UNKNOWN_EMOJI_ALIAS,
    TokenStream,
    default_emoji_aliases,
    default_emoticon_map,
    is_emoji_char,
    normalize_emoticons,
)

from _fuzz import WHITESPACE, messy_text
from _oracles import (
    brute_ngrams,
    brute_top_k,
    oracle_emoji_frequency,
    oracle_emoji_presence,
    oracle_is_emoji_char,
    oracle_normalize_emoticons,
)


def stream(*tokens: str) -> TokenStream:
    return TokenStream(tuple(tokens))


class TestNgramCounts:
    def test_bigrams(self):
        table = ngram_counts([stream("a", "b", "a", "b")], 2, 10)
        assert table.rows == (("a b", 2), ("b a", 1))

    def test_empty_corpus(self):
        table = ngram_counts([], 1, 10)
        assert table.rows == ()

    def test_trigram(self):
        table = ngram_counts([stream("critical", "thinking", "skills")], 3, 5)
        assert table.rows == (("critical thinking skills", 1),)

    def test_bad_n(self):
        with pytest.raises(ConfigError, match="^n must be 1, 2 or 3, got 4$"):
            ngram_counts([stream("a")], 4, 10)

    def test_windows_never_cross_comments(self):
        table = ngram_counts([stream("a", "b"), stream("c", "d")], 2, 10)
        grams = dict(table.rows)
        assert "b c" not in grams

    def test_tie_break_lexicographic(self):
        table = ngram_counts([stream("b", "a", "c")], 1, 10)
        assert table.rows == (("a", 1), ("b", 1), ("c", 1))

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(101)
        vocab = list("abcdefg")
        for _ in range(50):
            corpus = [
                stream(*(rng.choice(vocab) for _ in range(rng.randint(0, 20))))
                for _ in range(rng.randint(0, 50))
            ]
            plain = [tuple(s) for s in corpus]  # any token tuples, not only streams
            for n in (1, 2, 3):
                expected = brute_top_k(brute_ngrams(plain, n), 20)
                for docs in (corpus, plain):
                    table = ngram_counts(docs, n, 20)
                    assert list(table.rows) == expected

    def test_counting_is_order_independent(self):
        rng = random.Random(7)
        corpus = [stream(*(rng.choice("xyz") for _ in range(5))) for _ in range(30)]
        shuffled = corpus[:]
        rng.shuffle(shuffled)
        assert ngram_counts(corpus, 2, 50).rows == ngram_counts(shuffled, 2, 50).rows


class TestLengthHistogram:
    def test_bucketing(self):
        histogram = length_histogram(["x" * 5, "y" * 60, "z" * 61], 10)
        assert histogram.buckets == {0: 1, 60: 2}

    def test_empty(self):
        assert length_histogram([], 10).buckets == {}

    def test_zero_length(self):
        assert length_histogram([""], 10).buckets == {0: 1}

    def test_counts_sum_to_corpus_size(self):
        rng = random.Random(3)
        texts = ["a" * rng.randint(0, 200) for _ in range(137)]
        assert sum(length_histogram(texts, 10).buckets.values()) == 137

    def test_unicode_scalars_not_bytes(self):
        histogram = length_histogram(["😂😂😂"], 2)
        assert histogram.buckets == {2: 1}

    def test_bad_width(self):
        with pytest.raises(ConfigError, match="^bucket width must be a positive integer, got 0$"):
            length_histogram(["x"], 0)


def ranking(texts, cap=None) -> list[tuple[str, int]]:
    """The frequency ranking :func:`emoji_stats` gives for ``texts``, as a list."""
    entries = tuple((f"c{i}", text, Label.NOT_OFFENSIVE) for i, text in enumerate(texts))
    return list(emoji_stats(LabeledDataset(entries=entries), cap=cap).frequency)


class TestEmojiFrequency:
    def test_plain_count(self):
        assert ranking(["😂😂", "😂"]) == [("face_with_tears_of_joy", 3)]

    def test_outlier_cap(self):
        assert ranking(["🍌" * 50], cap=1) == [("banana", 1)]

    def test_no_emojis(self):
        assert ranking(["plain", "text"]) == []

    def test_normalized_emoticon_placeholders_counted(self):
        texts = ["nice :slightly_smiling_face:", "wow 🙂"]
        assert ranking(texts) == [("slightly_smiling_face", 2)]

    def test_cap_is_pointwise_monotone(self):
        rng = random.Random(13)
        texts = ["".join(rng.choice(["😂", "💀", "x", " "]) for _ in range(30)) for _ in range(40)]
        unlimited = dict(ranking(texts))
        for cap in (1, 2, 3):
            capped = dict(ranking(texts, cap=cap))
            assert all(capped[alias] <= unlimited[alias] for alias in capped)


def presence_dataset() -> LabeledDataset:
    return LabeledDataset(
        entries=(
            ("a", "angry 😂", Label.OFFENSIVE),
            ("b", "angry plain", Label.OFFENSIVE),
            ("c", "nice 😭", Label.NOT_OFFENSIVE),
            ("d", "nice plain", Label.NOT_OFFENSIVE),
        )
    )


class TestEmojiPresence:
    def test_counting(self):
        stats = emoji_stats(presence_dataset())
        assert stats.presence_overall == 0.5
        assert stats.presence_offensive == 0.5
        assert stats.presence_nonoffensive == 0.5

    def test_no_emojis(self):
        dataset = LabeledDataset(
            entries=(("a", "x", Label.OFFENSIVE), ("b", "y", Label.NOT_OFFENSIVE))
        )
        stats = emoji_stats(dataset)
        assert (stats.presence_overall, stats.presence_offensive) == (0.0, 0.0)

    def test_empty_dataset(self):
        with pytest.raises(ModkitError, match="^emoji presence needs a non-empty dataset$"):
            emoji_stats(LabeledDataset(entries=()))


def fuzz_emoji_dataset() -> LabeledDataset:
    """3,000 messy comments of both labels after emoticon normalization,
    plus all-ASCII comments that carry only ``:alias:`` placeholders."""
    rng = random.Random(97)
    texts = [normalize_emoticons(messy_text(rng)) for _ in range(3000)]
    texts += ["nice :skull: :x:", ":)", "plain ascii", ":not a placeholder:"]
    labels = [Label.OFFENSIVE if rng.random() < 0.3 else Label.NOT_OFFENSIVE for _ in texts]
    return LabeledDataset(
        entries=tuple((f"c{i}", text, label) for i, (text, label) in enumerate(zip(texts, labels)))
    )


def presence_of(stats) -> tuple[float, float, float]:
    return stats.presence_overall, stats.presence_offensive, stats.presence_nonoffensive


def add_emoticons(tmp_path, monkeypatch, lines: str) -> None:
    """Point ``MODKIT_DATA_DIR`` at a copy of the bundled tables whose
    emoticon table ends with ``lines``."""
    tables = tmp_path / "tables"
    shutil.copytree(_resources._BUNDLED, tables)
    with open(tables / "emoticons.tsv", "a", encoding="utf-8") as f:
        f.write(lines)
    monkeypatch.setenv("MODKIT_DATA_DIR", str(tables))


class TestEmojiStatsSingleScan:
    """``emoji_stats`` scans each comment once and gives what presence
    and frequency, each scanning every comment, gave before."""

    @pytest.mark.parametrize("cap", [None, 1, 2])
    def test_matches_the_two_scan_reference(self, cap):
        dataset = fuzz_emoji_dataset()
        aliases, emoticons = default_emoji_aliases(), default_emoticon_map()
        texts = dataset.texts()
        ascii_with_placeholders = [
            t for t in texts if t.isascii() and oracle_emoji_frequency([t], None, {}, "")
        ]
        assert len(ascii_with_placeholders) > 20
        normalized = [oracle_normalize_emoticons(text, emoticons) for text in texts]
        frequency = oracle_emoji_frequency(normalized, cap, aliases, UNKNOWN_EMOJI_ALIAS)
        presence = oracle_emoji_presence(
            (cid, norm, label is Label.OFFENSIVE)
            for (cid, _text, label), norm in zip(dataset.entries, normalized)
        )
        stats = emoji_stats(dataset, cap=cap)
        assert stats.frequency == tuple(frequency)
        assert presence_of(stats) == presence
        assert stats.per_comment_cap == cap
        assert 0 < presence[0] < 1

    @pytest.mark.parametrize("cap", [None, 1, 2])
    @pytest.mark.parametrize("table", ["bundled", "override"])
    def test_emoticons_count_as_after_normalization(self, tmp_path, monkeypatch, cap, table):
        """The one scan gives what emoticon normalization with the
        emoticon table followed by the two-scan reference gives, on raw
        comments: fuzz texts, placeholders already present, emoticons
        fused with or next to raw emoji, and, in a table under
        ``MODKIT_DATA_DIR``, keys that hold an emoji or look like a
        placeholder themselves."""
        if table == "override":
            add_emoticons(tmp_path, monkeypatch, "<😂\tjoy_heart\n💀💀\ttwo_skulls\n:x:\tkiss\n")
        emoticons = default_emoticon_map()
        rng = random.Random(101)
        texts = [messy_text(rng) for _ in range(3000)] + [
            ":) 😂", ":)😂", "😂:)", ":D :skull:", "nice :skull: :x:", ":-) :-)\t:-)",
            "<😂 x", "😂 <😂", "💀💀 💀", "  :(  ", "plain ascii",
        ]
        labels = [Label.OFFENSIVE if rng.random() < 0.3 else Label.NOT_OFFENSIVE for _ in texts]
        dataset = LabeledDataset(
            entries=tuple((f"c{i}", t, label) for i, (t, label) in enumerate(zip(texts, labels)))
        )
        aliases = default_emoji_aliases()
        normalized = [oracle_normalize_emoticons(text, emoticons) for text in texts]
        assert sum(n != t for n, t in zip(normalized, texts)) > 500
        frequency = oracle_emoji_frequency(normalized, cap, aliases, UNKNOWN_EMOJI_ALIAS)
        presence = oracle_emoji_presence(
            (cid, norm, label is Label.OFFENSIVE)
            for (cid, _text, label), norm in zip(dataset.entries, normalized)
        )
        stats = emoji_stats(dataset, cap=cap)
        assert stats.frequency == tuple(frequency)
        assert presence_of(stats) == presence
        if table == "override":
            assert {"joy_heart", "two_skulls", "kiss"} <= dict(frequency).keys()

    @pytest.mark.parametrize("cap", [None, 1, 2])
    def test_repeated_chunks_match_the_per_character_oracle(self, cap):
        """Each distinct chunk is worked out once per call: comments drawn
        from a small pool of chunks, each chunk in many comments and often
        twice in one, give the per-character oracle's counts after
        emoticon normalization."""
        rng = random.Random(131)
        pool = sorted({chunk for _ in range(40) for chunk in messy_text(rng).split()})
        pool += [":)", ":skull:", ":x:", "😂😂", "a😂b", "😂:)", "<3"]
        texts = [
            "".join(rng.choice(pool) + rng.choice(WHITESPACE) for _ in range(rng.randint(0, 12)))
            for _ in range(2000)
        ]
        chunks = [chunk for text in texts for chunk in text.split()]
        assert len(chunks) > 20 * len(set(chunks))
        assert sum(len(set(t.split())) < len(t.split()) for t in texts) > 300
        aliases, emoticons = default_emoji_aliases(), default_emoticon_map()
        normalized = [oracle_normalize_emoticons(text, emoticons) for text in texts]
        expected = oracle_emoji_frequency(normalized, cap, aliases, UNKNOWN_EMOJI_ALIAS)
        labels = [Label.OFFENSIVE if rng.random() < 0.3 else Label.NOT_OFFENSIVE for _ in texts]
        dataset = LabeledDataset(
            entries=tuple((f"c{i}", t, label) for i, (t, label) in enumerate(zip(texts, labels)))
        )
        stats = emoji_stats(dataset, cap=cap)
        assert stats.frequency == tuple(expected)
        assert presence_of(stats) == oracle_emoji_presence(
            (cid, norm, label is Label.OFFENSIVE)
            for (cid, _text, label), norm in zip(dataset.entries, normalized)
        )

    def test_emoticon_key_with_an_emoji_counts_only_as_its_alias(self, tmp_path, monkeypatch):
        dataset = LabeledDataset(entries=(("a", "<😂 <😂", Label.OFFENSIVE),))
        assert emoji_stats(dataset).frequency == (("face_with_tears_of_joy", 2),)
        add_emoticons(tmp_path, monkeypatch, "<😂\tjoy_heart\n")
        assert emoji_stats(dataset).frequency == (("joy_heart", 2),)

    def test_no_emoji_below_u2600(self):
        """The premise of skipping the character scan on ASCII text."""
        assert not any(oracle_is_emoji_char(chr(cp)) for cp in range(0x2600))
        assert not any(is_emoji_char(chr(cp)) for cp in range(0x80))

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigError):
            emoji_stats(presence_dataset(), cap=0)


class TestCloudWeights:
    def test_ratio(self):
        table = ngram_counts([stream("a", "a", "a", "a", "b", "b")], 1, 10)
        weights = cloud_weights(table)
        assert weights.terms == {"a": 1.0, "b": 0.5}

    def test_single_term(self):
        assert cloud_weights(ngram_counts([stream("x")], 1, 5)).terms == {"x": 1.0}

    def test_equal_counts_all_one(self):
        weights = cloud_weights(ngram_counts([stream("a", "b")], 1, 5))
        assert set(weights.terms.values()) == {1.0}

    def test_empty_table(self):
        with pytest.raises(ModkitError, match="^cannot weight an empty table$"):
            cloud_weights(ngram_counts([], 1, 5))

    def test_order_preserved(self):
        table = ngram_counts([stream(*"aaabbc")], 1, 10)
        weights = list(cloud_weights(table).terms.values())
        assert weights == sorted(weights, reverse=True)


class TestExport:
    def test_ngram_round_trip(self, tmp_path):
        table = ngram_counts([stream("a", "b", "a")], 1, 10)
        out = tmp_path / "ngrams.csv"
        export_chart_data(table, out)
        with out.open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gram", "count"]
        assert [(gram, int(count)) for gram, count in rows[1:]] == list(table.rows)

    def test_histogram_sorted_ascending(self, tmp_path):
        out = tmp_path / "lengths.csv"
        export_chart_data(length_histogram(["x" * 25, "y", "z" * 5], 10), out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bucket_start,count"
        starts = [int(line.split(",")[0]) for line in lines[1:]]
        assert starts == sorted(starts)

    def test_emoji_stats_includes_presence_rows(self, tmp_path):
        out = tmp_path / "emoji.csv"
        export_chart_data(emoji_stats(presence_dataset()), out)
        content = out.read_text(encoding="utf-8")
        assert content.startswith("alias,count\n")
        assert "presence_overall,0.5000" in content
