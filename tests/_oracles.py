"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (plain
loops, exact Fraction arithmetic, finite differences) and must not call
into the code paths it verifies.
"""

from __future__ import annotations

import re
import unicodedata
from fractions import Fraction
from math import log, sqrt

MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int):
    """Reference splitmix64: yields the mixed outputs one at a time."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def reference_shuffle(items, seed: int) -> list:
    """Fisher-Yates over sorted items, driven by reference splitmix64."""
    out = sorted(items)
    stream = splitmix64_stream(seed)
    for i in range(len(out) - 1, 0, -1):
        j = next(stream) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def brute_ngrams(token_lists, n: int) -> dict[str, int]:
    """Window enumeration with explicit index arithmetic."""
    counts: dict[str, int] = {}
    for tokens in token_lists:
        tokens = list(tokens)
        for start in range(len(tokens)):
            if start + n <= len(tokens):
                gram = " ".join(tokens[start : start + n])
                counts[gram] = counts.get(gram, 0) + 1
    return counts


def brute_top_k(counts: dict[str, int], k: int) -> list[tuple[str, int]]:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def nb_log_joint_oracle(docs, labels, alpha, vocab_size, probe) -> tuple[float, float]:
    """Log joint scores (not_offensive, offensive) for a probe document.

    ``docs`` are {index: weight} mappings, ``labels`` are 0/1 integers,
    ``probe`` is a {index: weight} mapping. Counting is done in exact
    Fractions wherever the inputs are rational; logs are taken at the end.
    """
    n = len(docs)
    out = []
    for cls in (0, 1):
        class_docs = [d for d, y in zip(docs, labels) if y == cls]
        prior = Fraction(len(class_docs), n)
        mass = {}
        for doc in class_docs:
            for index, weight in doc.items():
                mass[index] = mass.get(index, Fraction(0)) + Fraction(weight)
        total = sum(mass.values(), Fraction(0))
        score = log(prior)
        for index, weight in probe.items():
            if index >= vocab_size:
                continue
            p = (mass.get(index, Fraction(0)) + Fraction(alpha)) / (
                total + Fraction(alpha) * vocab_size
            )
            score += weight * log(p)
        out.append(score)
    return out[0], out[1]


def central_difference_gradient(fn, params, eps: float = 1e-5):
    """Central finite differences of fn at params (1-D list of floats)."""
    grads = []
    for i in range(len(params)):
        plus = list(params)
        minus = list(params)
        plus[i] += eps
        minus[i] -= eps
        grads.append((fn(plus) - fn(minus)) / (2 * eps))
    return grads


def metric_identities(tp: int, fp: int, fn: int, tn: int) -> dict[str, float]:
    """Direct formula evaluation with 0/0 treated as 0."""

    def div(a, b):
        return a / b if b else 0.0

    precision = div(tp, tp + fp)
    recall = div(tp, tp + fn)
    return {
        "precision": precision,
        "recall": recall,
        "specificity": div(tn, tn + fp),
        "accuracy": div(tp + tn, tp + fp + fn + tn),
        "f1": div(2 * precision * recall, precision + recall),
    }


def l2_norm(values) -> float:
    return sqrt(sum(v * v for v in values))


def oracle_tfidf_fit(docs) -> tuple[list[str], list[float], int]:
    """TF-IDF fit one token at a time: the vocabulary in first-seen order,
    each term's smoothed idf ln((1 + N) / (1 + df)) + 1, where df counts
    the documents the term occurs in, and the document count N."""
    vocabulary: list[str] = []
    df: dict[str, int] = {}
    for tokens in docs:
        for token in tokens:
            if token not in df:
                vocabulary.append(token)
                df[token] = 0
        for token in set(tokens):
            df[token] += 1
    n = len(docs)
    return vocabulary, [log((1 + n) / (1 + df[term])) + 1.0 for term in vocabulary], n


# ---------------------------------------------------------------------------
# Text preprocessing as it was before the character-class table: the
# per-character range scans and the hand-written whitespace split. The
# emoji alias and emoticon tables are passed in, since they are data.

ORACLE_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2B00, 0x2BFF),
    (0x1F1E6, 0x1F1FF),
)
ORACLE_EMOJI_MODIFIERS = frozenset({0x200D, 0xFE0E, 0xFE0F, 0x20E3}) | frozenset(
    range(0x1F3FB, 0x1F400)
)


def oracle_is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    if cp in ORACLE_EMOJI_MODIFIERS:
        return False
    return any(lo <= cp <= hi for lo, hi in ORACLE_EMOJI_RANGES)


def oracle_is_modifier(ch: str) -> bool:
    return ord(ch) in ORACLE_EMOJI_MODIFIERS


def oracle_is_punct_char(ch: str) -> bool:
    if oracle_is_emoji_char(ch) or oracle_is_modifier(ch):
        return False
    cat = unicodedata.category(ch)
    return cat.startswith("P") or cat.startswith("S") or cat == "Cf"


def _oracle_is_alias_placeholder(token: str) -> bool:
    if len(token) < 3 or token[0] != ":" or token[-1] != ":":
        return False
    return all(c.isalnum() or c in "_+-" for c in token[1:-1])


def _oracle_split_keep_spaces(text: str) -> list[str]:
    """Alternating [chunk, space, chunk, ...] split preserving whitespace."""
    parts: list[str] = []
    buf: list[str] = []
    in_space = False
    for ch in text:
        if ch.isspace() != in_space:
            parts.append("".join(buf))
            buf = []
            in_space = not in_space
        buf.append(ch)
    parts.append("".join(buf))
    return parts


def oracle_normalize_emoticons(text: str, entries) -> str:
    out: list[str] = []
    for i, part in enumerate(_oracle_split_keep_spaces(text)):
        if i % 2 == 0 and part in entries:
            out.append(f":{entries[part]}:")
        else:
            out.append(part)
    return "".join(out)


def oracle_encode_emojis(text: str, plain: bool, aliases, unknown: str) -> str:
    """``plain`` selects bare aliases (ML mode), else ``:alias:``."""
    if plain:
        parts = _oracle_split_keep_spaces(text)
        for i in range(0, len(parts), 2):
            if _oracle_is_alias_placeholder(parts[i]):
                parts[i] = parts[i][1:-1]
        text = "".join(parts)
    out: list[str] = []
    last = ""
    pending_space = False
    for ch in text:
        if oracle_is_modifier(ch):
            continue
        if oracle_is_emoji_char(ch):
            alias = aliases.get(ch, unknown)
            rendered = alias if plain else f":{alias}:"
            if last and not last.isspace():
                out.append(" ")
            out.append(rendered)
            last = rendered[-1]
            pending_space = True
            continue
        if pending_space and not ch.isspace():
            out.append(" ")
        pending_space = False
        out.append(ch)
        last = ch
    return "".join(out)


def _oracle_split_edges(segment: str) -> list[str]:
    i, j = 0, len(segment)
    while i < j and oracle_is_punct_char(segment[i]):
        i += 1
    while j > i and oracle_is_punct_char(segment[j - 1]):
        j -= 1
    if i == j:
        return [segment]
    out = []
    if i:
        out.append(segment[:i])
    out.append(segment[i:j])
    if j < len(segment):
        out.append(segment[j:])
    return out


def oracle_tokenize(text: str) -> tuple[str, ...]:
    tokens: list[str] = []
    for chunk in text.split():
        if _oracle_is_alias_placeholder(chunk):
            tokens.append(chunk)
            continue
        segment_start = 0
        segments: list[str] = []
        emoji_positions: list[int] = []
        for idx, ch in enumerate(chunk):
            if oracle_is_emoji_char(ch):
                if idx > segment_start:
                    segments.append(chunk[segment_start:idx])
                emoji_positions.append(len(segments))
                segments.append(ch)
                segment_start = idx + 1
            elif oracle_is_modifier(ch):
                if idx > segment_start:
                    segments.append(chunk[segment_start:idx])
                if emoji_positions and emoji_positions[-1] == len(segments) - 1:
                    segments[-1] += ch
                segment_start = idx + 1
        if segment_start < len(chunk):
            segments.append(chunk[segment_start:])
        for pos, segment in enumerate(segments):
            if pos in emoji_positions:
                tokens.append(segment)
            else:
                tokens.extend(_oracle_split_edges(segment))
    return tuple(tokens)


# ---------------------------------------------------------------------------
# Lexicon flagging as it was before the single alternation: one
# whole-word pattern per term, searched on every comment.


def oracle_lexicon_flag(comments, lexicon) -> dict:
    patterns = [
        (entry, re.compile(rf"(?<![^\W_]){re.escape(entry.term)}(?![^\W_])", re.IGNORECASE))
        for entry in lexicon
    ]
    hits = {}
    for comment in comments:
        found = [
            (entry.term, entry.category)
            for entry, pattern in patterns
            if pattern.search(comment.text)
        ]
        if found:
            hits[comment.id] = found
    return hits


# ---------------------------------------------------------------------------
# Emoji statistics as they were before the single alias scan: presence
# and frequency each scan every comment, character by character.


def _oracle_emoji_aliases_in(text: str, aliases, unknown: str) -> list[str]:
    found = [aliases.get(ch, unknown) for ch in text if oracle_is_emoji_char(ch)]
    for chunk in text.split():
        if _oracle_is_alias_placeholder(chunk):
            found.append(chunk[1:-1])
    return found


def oracle_emoji_frequency(texts, cap, aliases, unknown: str) -> list[tuple[str, int]]:
    totals: dict[str, int] = {}
    for text in texts:
        per_comment: dict[str, int] = {}
        for alias in _oracle_emoji_aliases_in(text, aliases, unknown):
            per_comment[alias] = per_comment.get(alias, 0) + 1
        for alias, count in per_comment.items():
            totals[alias] = totals.get(alias, 0) + (count if cap is None else min(count, cap))
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


def oracle_contains_emoji(text: str) -> bool:
    return any(oracle_is_emoji_char(ch) for ch in text) or any(
        _oracle_is_alias_placeholder(chunk) for chunk in text.split()
    )


def oracle_emoji_presence(entries) -> tuple[float, float, float]:
    """(overall, offensive, not offensive) for ``(id, text, is_offensive)``
    entries, exact fractions rounded to 4 places."""

    def fraction(hits: int, total: int) -> float:
        return float(round(Fraction(hits, total), 4)) if total else 0.0

    n_off = n_not = hit_off = hit_not = 0
    for _cid, text, offensive in entries:
        has = oracle_contains_emoji(text)
        if offensive:
            n_off, hit_off = n_off + 1, hit_off + has
        else:
            n_not, hit_not = n_not + 1, hit_not + has
    return (
        fraction(hit_off + hit_not, n_off + n_not),
        fraction(hit_off, n_off),
        fraction(hit_not, n_not),
    )
