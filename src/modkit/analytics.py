"""Corpus statistics: n-gram rankings, word-cloud weights, length
distributions, emoji frequencies and presence percentages.

All counting is per-occurrence within comments; n-gram windows never
cross comment boundaries. Rankings break count ties lexicographically
so exports are stable.

:func:`emoji_stats` is the one emoji statistic: one alias scan per
comment gives both the frequency ranking and the presence fractions. It
reads the bundled (or ``MODKIT_DATA_DIR``) emoji alias and emoticon
tables: an emoji counts as its alias, and an emoticon chunk such as
``:)`` as its emoji's alias, so the library counts what ``analyze``
writes to ``emoji_stats.csv``.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import _atomic
from .corpus import Label, LabeledDataset
from .errors import ConfigError, ModkitError
from .textprep import (
    UNKNOWN_EMOJI_ALIAS,
    default_emoji_aliases,
    default_emoticon_map,
    is_alias_placeholder,
    is_emoji_char,
)


class NgramTable(NamedTuple):
    n: int
    rows: tuple[tuple[str, int], ...]


class LengthHistogram(NamedTuple):
    bucket_width: int
    buckets: Mapping[int, int]


class EmojiStats(NamedTuple):
    frequency: tuple[tuple[str, int], ...]
    presence_overall: float
    presence_offensive: float
    presence_nonoffensive: float
    per_comment_cap: int | None


class CloudWeights(NamedTuple):
    terms: Mapping[str, float]


def ngram_counts(corpus: Sequence[Sequence[str]], n: int, top_k: int) -> NgramTable:
    """Top-k contiguous n-grams over the corpus.

    Windows are counted within each stream only. Ranking is by count
    descending, then gram ascending.
    """
    if n not in (1, 2, 3):
        raise ConfigError(f"n must be 1, 2 or 3, got {n}")
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        for i in range(len(tokens) - n + 1):
            counts[" ".join(tokens[i : i + n])] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return NgramTable(n=n, rows=tuple(ranked))


def length_histogram(texts: Iterable[str], bucket_width: int) -> LengthHistogram:
    """Histogram of raw comment text lengths in Unicode scalar values.

    A comment of length L lands in bucket floor(L / width) * width.
    """
    if not isinstance(bucket_width, int) or bucket_width < 1:
        raise ConfigError(f"bucket width must be a positive integer, got {bucket_width}")
    buckets: Counter[int] = Counter()
    for text in texts:
        buckets[(len(text) // bucket_width) * bucket_width] += 1
    return LengthHistogram(bucket_width=bucket_width, buckets=dict(buckets))


def _chunk_aliases(
    chunk: str, aliases: Mapping[str, str], emoticons: Mapping[str, str]
) -> list[str]:
    """Aliases of the raw emoji or the ``:alias:`` placeholder in one
    whitespace-free chunk, an ``emoticons`` key read as its placeholder
    (emoticon aliases hold no whitespace). A placeholder or an all-ASCII
    chunk holds no emoji: none is below U+0080."""
    if chunk in emoticons:
        chunk = f":{emoticons[chunk]}:"
    if is_alias_placeholder(chunk):
        return [chunk[1:-1]]
    if chunk.isascii():
        return []
    return [aliases.get(ch, UNKNOWN_EMOJI_ALIAS) for ch in chunk if is_emoji_char(ch)]


def _emoji_alias_lists(texts: Iterable[str]) -> Iterator[list[str]]:
    """Per text, the aliases of its whitespace-delimited chunks in order;
    those depend on the chunk alone, so each distinct one is worked out once."""
    aliases, emoticons = default_emoji_aliases(), default_emoticon_map()
    memo: dict[str, list[str]] = {}
    for text in texts:
        found: list[str] = []
        for chunk in text.split():
            in_chunk = memo.get(chunk)
            if in_chunk is None:
                in_chunk = memo[chunk] = _chunk_aliases(chunk, aliases, emoticons)
            if in_chunk:
                found += in_chunk
        yield found


def emoji_stats(dataset: LabeledDataset, cap: int | None = None) -> EmojiStats:
    """Emoji occurrence counts per alias of ``default_emoji_aliases()``,
    an emoji missing from it as ``unknown_emoji``, ranked (count desc,
    alias asc), plus presence fractions, overall and per class, from one
    alias scan per comment. Each whitespace-delimited chunk that is a key
    of ``default_emoticon_map()`` counts as its alias, exactly as after
    ``normalize_emoticons``; a comment contains an emoji exactly when its
    alias list is non-empty.

    With ``cap=c`` at most c occurrences of one alias are counted per
    comment, damping single-comment outliers (the fifty-bananas problem)
    without dropping the comment. Presence is computed in exact rational
    arithmetic and rounded to 4 places."""
    if len(dataset.entries) == 0:
        raise ModkitError("emoji presence needs a non-empty dataset")
    if cap is not None and cap < 1:
        raise ConfigError(f"cap must be a positive integer or None, got {cap}")

    def fraction(hits: int, total: int) -> float:
        if total == 0:
            return 0.0
        return float(round(Fraction(hits, total), 4))

    found = list(_emoji_alias_lists(dataset.texts()))
    n_off = n_not = hit_off = hit_not = 0
    for (_cid, _text, label), in_comment in zip(dataset.entries, found):
        if label is Label.OFFENSIVE:
            n_off += 1
            hit_off += bool(in_comment)
        else:
            n_not += 1
            hit_not += bool(in_comment)
    if cap is None:  # one count over all comments: the ranking fixes the order
        totals = Counter(chain.from_iterable(found))
    else:
        totals = Counter()
        for in_comment in filter(None, found):
            for alias, count in Counter(in_comment).items():
                totals[alias] += min(count, cap)
    return EmojiStats(
        frequency=tuple(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))),
        presence_overall=fraction(hit_off + hit_not, n_off + n_not),
        presence_offensive=fraction(hit_off, n_off),
        presence_nonoffensive=fraction(hit_not, n_not),
        per_comment_cap=cap,
    )


def cloud_weights(table: NgramTable) -> CloudWeights:
    """Relative weights for a word cloud: count / max count."""
    if not table.rows:
        raise ModkitError("cannot weight an empty table")
    max_count = table.rows[0][1]
    return CloudWeights(terms={gram: count / max_count for gram, count in table.rows})


def export_chart_data(
    result: NgramTable | LengthHistogram | EmojiStats | CloudWeights,
    path: str | Path,
) -> None:
    """Write the data behind a chart as UTF-8 CSV with a header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(result, NgramTable):
        writer.writerow(["gram", "count"])
        writer.writerows(result.rows)
    elif isinstance(result, LengthHistogram):
        writer.writerow(["bucket_start", "count"])
        for start in sorted(result.buckets):
            writer.writerow([start, result.buckets[start]])
    elif isinstance(result, EmojiStats):
        writer.writerow(["alias", "count"])
        writer.writerows(result.frequency)
        writer.writerow(["presence_overall", f"{result.presence_overall:.4f}"])
        writer.writerow(["presence_offensive", f"{result.presence_offensive:.4f}"])
        writer.writerow(["presence_nonoffensive", f"{result.presence_nonoffensive:.4f}"])
    elif isinstance(result, CloudWeights):
        writer.writerow(["term", "weight"])
        for term, weight in result.terms.items():
            writer.writerow([term, repr(weight)])
    else:
        raise TypeError(f"cannot export {type(result).__name__}")
    _atomic.write_text(path, buf.getvalue())
