"""Five-step text preprocessing pipeline.

Comments pass through up to five toggleable steps: stop-word removal,
emoji encoding, lowercasing, lemmatization and punctuation removal.
Whichever subset is selected, execution always runs in the canonical
order lowercase -> emoji encoding -> punctuation -> stop words ->
lemmatize, so that emoticons are still intact when the emoji step sees
them and the stop list only ever has to match lowercase tokens.

Emojis are never treated as punctuation: raw emoji code points and
``:alias:`` placeholders survive punctuation removal untouched.

Token steps take and return a plain ``tuple[str, ...]``. A comment's
:class:`TokenStream`, as :func:`run_pipeline` returns it, is the tuple of
its tokens, so the featurizers and ``ngram_counts`` take any token tuples.

Every step reads one whitespace chunk at a time, so a text's tokens are
its chunks' tokens in order. A caller preprocessing a dataset makes a
:class:`ChunkMemo` ``(config)`` for the run and calls it on each text,
and each distinct chunk then goes through :func:`run_pipeline` once; the
tokens do not change. The tables the steps read are the bundled ones, or
those of ``MODKIT_DATA_DIR``, the one way to replace a table, and
:func:`tables_sha256` is the digest of those a config's steps read.
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from . import _resources
from ._frozen import Frozen
from .errors import SchemaViolationError, read_text

#: Shorthand words that :func:`load_stoplist` adds to every stop-list file's words.
STOPWORD_EXTENSIONS: tuple[str, ...] = ("u", "ur", "cause", "gonna", "im", "gon", "cant")

#: Alias substituted for emoji code points missing from the alias table.
UNKNOWN_EMOJI_ALIAS = "unknown_emoji"


class Step(Enum):
    STOPWORD_REMOVAL = "stopword_removal"
    EMOJI_ENCODING = "emoji_encoding"
    LOWERCASING = "lowercasing"
    LEMMATIZATION = "lemmatization"
    PUNCTUATION_REMOVAL = "punctuation_removal"


ALL_STEPS: frozenset[Step] = frozenset(Step)
#: The steps in the order :func:`run_pipeline` applies them.
PIPELINE_ORDER: tuple[Step, ...] = (
    Step.LOWERCASING, Step.EMOJI_ENCODING, Step.PUNCTUATION_REMOVAL,
    Step.STOPWORD_REMOVAL, Step.LEMMATIZATION,
)


class EmojiMode(Enum):
    """How emoji aliases are written into the text.

    ML_PLAIN emits bare snake_case alias words (one TF-IDF token each);
    BERT_DELIMITED emits ``:alias:`` so the alias can be registered as a
    single vocabulary token in the subword tokenizer.
    """

    ML_PLAIN = "ml"
    BERT_DELIMITED = "bert"


class PreprocessConfig(Frozen):
    """The steps a pipeline runs and how it writes emoji aliases."""

    __slots__ = ("steps", "emoji_mode", "flags")

    def __init__(
        self, steps: Iterable[Step] = ALL_STEPS, emoji_mode: EmojiMode = EmojiMode.ML_PLAIN
    ):
        steps = frozenset(steps)
        for step in steps:
            if not isinstance(step, Step):
                raise ValueError(f"unknown pipeline step: {step!r}")
        if not isinstance(emoji_mode, EmojiMode):
            raise ValueError(f"unknown emoji mode: {emoji_mode!r}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "emoji_mode", emoji_mode)
        # whether each step of PIPELINE_ORDER runs, worked out once: a
        # ``Step`` hashes through a Python-level ``Enum.__hash__``
        object.__setattr__(self, "flags", tuple(step in steps for step in PIPELINE_ORDER))

    def __eq__(self, other):
        if type(other) is not PreprocessConfig:
            return NotImplemented
        return (self.steps, self.emoji_mode) == (other.steps, other.emoji_mode)

    def __hash__(self) -> int:
        return hash((self.steps, self.emoji_mode))


class TokenStream(tuple):
    """The tuple of a comment's tokens, none of them empty. It equals and
    hashes as that tuple, and holds nothing else."""

    __slots__ = ()

    def __new__(cls, tokens: Iterable[str]):
        stream = tuple.__new__(cls, tokens)
        if "" in stream:
            raise ValueError("empty-string tokens are not allowed")
        return stream

    @property
    def tokens(self) -> TokenStream:
        """The stream itself, kept for callers that still read ``.tokens``."""
        return self


class LemmaDictionary(Frozen):
    """Exception table and ordered suffix rules.

    ``suffixes`` are the rules' suffixes, screened in one ``endswith``.
    ``memo`` holds the lemma of every word this instance has lemmatized.
    It belongs to the instance: every dictionary, such as one loaded from
    other tables (another ``MODKIT_DATA_DIR``), starts with an empty memo.
    The tables must not be mutated once the instance is in use.
    """

    __slots__ = ("exceptions", "suffix_rules", "suffixes", "memo")

    def __init__(
        self, exceptions: Mapping[str, str], suffix_rules: tuple[tuple[str, str, int], ...]
    ):
        object.__setattr__(self, "exceptions", exceptions)
        object.__setattr__(self, "suffix_rules", suffix_rules)
        object.__setattr__(self, "suffixes", tuple(suffix for suffix, _, _ in suffix_rules))
        object.__setattr__(self, "memo", {})


# ---------------------------------------------------------------------------
# Character classification

# Blocks that hold pictographic emoji. Deliberately coarse: anything in
# these ranges is treated as an emoji token and preserved by the
# punctuation step.
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),
    (0x2600, 0x27BF),
    (0x2B00, 0x2BFF),
)

# Invisible joiners/selectors that modify a preceding emoji.
_EMOJI_MODIFIERS = frozenset({0x200D, 0xFE0E, 0xFE0F, 0x20E3}) | frozenset(
    range(0x1F3FB, 0x1F400)
)

_EMOJI, _MODIFIER, _PUNCT, _OTHER = range(4)


class _CharClasses(dict):
    """Character -> class: emoji, modifier, punctuation (categories P*,
    S* and Cf that are neither of the first two) or other.

    A class is computed on the first lookup of a character and kept, so
    the text hot paths pay one dict lookup per character; the table
    holds only the characters seen so far.
    """

    def __missing__(self, ch: str) -> int:
        cp = ord(ch)
        category = unicodedata.category(ch)
        if cp in _EMOJI_MODIFIERS:
            cls = _MODIFIER
        elif any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES):
            cls = _EMOJI
        elif category[0] in "PS" or category == "Cf":
            cls = _PUNCT
        else:
            cls = _OTHER
        self[ch] = cls
        return cls


_CHAR_CLASS = _CharClasses()

# Maximal whitespace runs (``\s`` is exactly ``str.isspace``), kept when
# splitting so the chunks join back to the original string.
_SPACE_RUNS = re.compile(r"(\s+)")


def is_emoji_char(ch: str) -> bool:
    return _CHAR_CLASS[ch] == _EMOJI


def is_emoji_token(token: str) -> bool:
    return bool(token) and is_emoji_char(token[0])


def is_alias_placeholder(token: str) -> bool:
    """True for ``:alias:`` placeholders produced by the emoji step."""
    if len(token) < 3 or token[0] != ":" or token[-1] != ":":
        return False
    return all(c.isalnum() or c in "_+-" for c in token[1:-1])


# ---------------------------------------------------------------------------
# Tokenization


def _punct_bounds(token: str) -> tuple[int, int]:
    """Slice bounds of ``token`` without its leading and trailing
    punctuation runs; equal bounds mean it is all punctuation."""
    classes = _CHAR_CLASS
    i, j = 0, len(token)
    while i < j and classes[token[i]] == _PUNCT:
        i += 1
    while j > i and classes[token[j - 1]] == _PUNCT:
        j -= 1
    return i, j


def _split_edges(segment: str) -> list[str]:
    """Separate leading/trailing punctuation runs from a word segment."""
    i, j = _punct_bounds(segment)
    if i == j:  # nothing but punctuation
        return [segment]
    return [part for part in (segment[:i], segment[i:j], segment[j:]) if part]


def tokenize(text: str) -> tuple[str, ...]:
    """Split on Unicode whitespace; emit edge punctuation and emoji code
    points as their own tokens.

    Interior punctuation (y'all, :alias:) stays inside its word token,
    and concatenating the tokens of a chunk reconstructs that chunk, so
    no characters are lost.
    """
    classes = _CHAR_CLASS
    tokens: list[str] = []
    for chunk in text.split():
        if is_alias_placeholder(chunk):
            tokens.append(chunk)
            continue
        if chunk.isascii():  # no emoji or modifier below U+0080
            tokens.extend(_split_edges(chunk))
            continue
        start = 0
        after_emoji = False  # tokens[-1] is an emoji of this chunk
        for idx, ch in enumerate(chunk):
            cls = classes[ch]
            if cls != _EMOJI and cls != _MODIFIER:
                continue
            if idx > start:
                tokens.extend(_split_edges(chunk[start:idx]))
                after_emoji = False
            if cls == _EMOJI:
                tokens.append(ch)
                after_emoji = True
            elif after_emoji:  # attach to the preceding emoji, otherwise drop
                tokens[-1] += ch
            start = idx + 1
        if start < len(chunk):
            tokens.extend(_split_edges(chunk[start:]))
    return tuple(tokens)


# ---------------------------------------------------------------------------
# Token-level steps


def lowercase(tokens: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(t.lower() for t in tokens)


def remove_punctuation(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Drop all-punctuation tokens and strip punctuation off token edges.

    Emoji tokens and ``:alias:`` placeholders pass through unchanged;
    interior punctuation (apostrophes, underscores) is preserved.
    """
    out: list[str] = []
    for token in tokens:
        if is_emoji_token(token) or is_alias_placeholder(token):
            out.append(token)
            continue
        i, j = _punct_bounds(token)
        if i < j:
            out.append(token[i:j])
    return tuple(out)


def remove_stopwords(
    tokens: tuple[str, ...], stoplist: frozenset[str] | None = None
) -> tuple[str, ...]:
    if stoplist is None:
        stoplist = default_stoplist()
    return tuple(t for t in tokens if t not in stoplist)


def _lemmatize_word(word: str, dictionary: LemmaDictionary) -> str:
    # Iterate to a fixed point so the operation is idempotent regardless
    # of how suffixes stack ("blessings" -> "bless" in one call).
    current = word
    for _ in range(16):
        if current in dictionary.exceptions:
            nxt = dictionary.exceptions[current]
        elif not current.endswith(dictionary.suffixes):
            return current
        else:
            nxt = current
            for suffix, replacement, min_stem in dictionary.suffix_rules:
                if current.endswith(suffix) and len(current) - len(suffix) >= min_stem:
                    nxt = current[: len(current) - len(suffix)] + replacement
                    break
        if nxt == current:
            return current
        current = nxt
    return current


def lemmatize(
    tokens: tuple[str, ...], dictionary: LemmaDictionary | None = None
) -> tuple[str, ...]:
    """Map tokens to their dictionary base form.

    Exceptions are consulted first, then the ordered suffix rules;
    tokens that match nothing pass through unchanged. Each distinct word
    is worked out once per dictionary instance and kept in its ``memo``.
    """
    if dictionary is None:
        dictionary = default_lemma_dictionary()
    memo = dictionary.memo
    lemmas = []
    for token in tokens:
        lemma = memo.get(token)
        if lemma is None:
            lemma = memo[token] = _lemmatize_word(token, dictionary)
        lemmas.append(lemma)
    return tuple(lemmas)


# ---------------------------------------------------------------------------
# String-level steps


def normalize_emoticons(text: str, emoticon_map: Mapping[str, str] | None = None) -> str:
    """Replace each whitespace chunk that is an emoticon with its
    ``:alias:`` placeholder. ``emoticon_map`` maps each emoticon, a
    non-empty whitespace-free chunk, to its alias."""
    if emoticon_map is None:
        emoticon_map = default_emoticon_map()
    if emoticon_map.keys().isdisjoint(text.split()):
        return text
    parts = _SPACE_RUNS.split(text)
    parts[::2] = [
        part if (alias := emoticon_map.get(part)) is None else f":{alias}:" for part in parts[::2]
    ]
    return "".join(parts)


def encode_emojis(
    text: str,
    mode: EmojiMode = EmojiMode.ML_PLAIN,
    aliases: Mapping[str, str] | None = None,
) -> str:
    """Replace every emoji code point with its textual alias.

    ML_PLAIN writes the bare snake_case alias; BERT_DELIMITED wraps it
    in colons. ``:alias:`` placeholders already present (from emoticon
    normalization) are rewritten to match the mode, so an emoticon and
    its emoji counterpart end up as the same token. An emoji missing
    from ``aliases`` becomes the ``unknown_emoji`` alias rather than
    failing. A space is inserted where a replacement would otherwise
    fuse with adjacent non-space text, so each alias stays one token.
    """
    if aliases is None:
        aliases = default_emoji_aliases()
    if mode is EmojiMode.ML_PLAIN and ":" in text:  # a placeholder holds two
        parts = _SPACE_RUNS.split(text)
        parts[::2] = [p[1:-1] if is_alias_placeholder(p) else p for p in parts[::2]]
        text = "".join(parts)
    if text.isascii():  # no emoji or modifier below U+0080
        return text
    classes = _CHAR_CLASS
    out: list[str] = []
    last = ""  # last emitted character
    pending_space = False
    for ch in text:
        cls = classes[ch]
        if cls == _MODIFIER:
            continue
        if cls == _EMOJI:
            alias = aliases.get(ch, UNKNOWN_EMOJI_ALIAS)
            rendered = alias if mode is EmojiMode.ML_PLAIN else f":{alias}:"
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


# ---------------------------------------------------------------------------
# Pipeline


class ChunkMemo(dict):
    """A run's preprocessor: ``memo(text)`` is ``run_pipeline(text, config,
    ...)`` under one config and the tables its steps read.

    It maps each whitespace chunk, after lowercasing when that step runs,
    to that chunk's :func:`run_pipeline` tokens, worked out on the chunk's
    first lookup. A text's tokens are its chunks' tokens in order, since
    every step reads one whitespace chunk at a time and lowercasing never
    adds or removes whitespace. The tables are resolved once, when the
    memo is made, as :func:`_step_tables` gives them; ``binding`` is
    (config, stoplist, dictionary, emoticon_map, aliases), ``None`` for a
    table no step reads. Make one per run and drop it with the run.
    """

    __slots__ = ("binding",)

    def __init__(self, config: PreprocessConfig):
        super().__init__()
        tables = _step_tables(config)
        self.binding = (config, *map(tables.get, ("stoplist", "dictionary", "emoticon_map", "aliases")))

    def __call__(self, text: str) -> TokenStream:
        if self.binding[0].flags[0]:  # lowercasing
            text = text.lower()
        return TokenStream(chain.from_iterable(map(self.__getitem__, text.split())))

    def __missing__(self, chunk: str) -> TokenStream:
        tokens = self[chunk] = run_pipeline(chunk, *self.binding)
        return tokens


def run_pipeline(
    text: str,
    config: PreprocessConfig,
    stoplist: frozenset[str] | None = None,
    dictionary: LemmaDictionary | None = None,
    emoticon_map: Mapping[str, str] | None = None,
    aliases: Mapping[str, str] | None = None,
    source_id: str = "",
) -> TokenStream:
    """Apply the selected steps in canonical order and tokenize.

    Lowercasing and emoji encoding run on the raw string (before
    tokenization); punctuation, stop-word and lemma steps run on the
    token tuple. The result equals composing the individual operations
    by hand. A table left ``None`` is looked up by its step on every
    call; callers preprocessing many comments make a :class:`ChunkMemo`
    and call it on each text instead, which calls this once per distinct
    chunk and gives the same tokens. ``source_id`` is accepted and
    unused: a stream holds only its tokens, but callers written when it
    also held a comment's id still pass one.
    """
    lower, emoji, punct, stop, lemma = config.flags
    if lower:
        text = text.lower()
    if emoji:
        text = normalize_emoticons(text, emoticon_map)
        text = encode_emojis(text, config.emoji_mode, aliases)
    tokens = tokenize(text)
    if punct:
        tokens = remove_punctuation(tokens)
    if stop:
        tokens = remove_stopwords(tokens, stoplist)
    if lemma:
        tokens = lemmatize(tokens, dictionary)
    return TokenStream(tokens)


def _step_tables(config: PreprocessConfig) -> dict:
    """:func:`run_pipeline`'s table arguments for ``config``: the tables
    of the data directory that its steps read, and no others."""
    tables: dict = {}
    if Step.STOPWORD_REMOVAL in config.steps:
        tables["stoplist"] = default_stoplist()
    if Step.LEMMATIZATION in config.steps:
        tables["dictionary"] = default_lemma_dictionary()
    if Step.EMOJI_ENCODING in config.steps:
        tables.update(emoticon_map=default_emoticon_map(), aliases=default_emoji_aliases())
    return tables


def tables_sha256(config: PreprocessConfig) -> str:
    """sha256 of the data directory's tables that ``config``'s steps read,
    as canonical JSON: sets and mappings sorted, the lemma suffix rules in
    their order. So the stop list counts by its words, not its comments."""
    import hashlib  # here, so that a command that hashes no tables loads no hashlib
    import json

    canonical = json.dumps(
        _step_tables(config),
        sort_keys=True,
        default=lambda table: (
            sorted(table) if isinstance(table, frozenset) else [table.exceptions, table.suffix_rules]
        ),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Bundled resource loading


def load_stoplist(path: str | Path) -> frozenset[str]:
    """The words of a stop-list file (UTF-8, one word per line, '#'
    comments allowed), lowercased, plus :data:`STOPWORD_EXTENSIONS`."""
    words = list(STOPWORD_EXTENSIONS)
    for line in read_text(path).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line.lower())
    return frozenset(words)


def load_lemma_dictionary(words_path: str | Path, rules_path: str | Path) -> LemmaDictionary:
    """Exceptions: ``word<TAB>lemma`` lines; rules: ``suffix<TAB>replacement<TAB>min_stem``.

    An entry that could turn a word into the empty string is refused: an
    empty lemma, or an empty replacement with ``min_stem`` below 1. So are
    an empty suffix, which would grow a word on every pass, and a word,
    lemma, suffix or replacement holding whitespace, which no token holds."""
    exceptions = _read_tsv_map(
        words_path,
        lambda word, lemma: _spaced(word=word, lemma=lemma) if lemma else f"empty lemma for {word!r}",
    )
    rules: list[tuple[str, str, int]] = []
    for lineno, line in _table_lines(rules_path):
        try:
            suffix, replacement, min_stem = line.split("\t")
            stem = int(min_stem)
        except ValueError:
            raise SchemaViolationError(
                f"expected suffix<TAB>replacement<TAB>min_stem on line {lineno}", str(rules_path)
            ) from None
        reason = (
            "empty suffix" if not suffix
            else "empty replacement needs min_stem >= 1" if not replacement and stem < 1
            else _spaced(suffix=suffix, replacement=replacement)
        )
        if reason:
            raise SchemaViolationError(f"{reason} on line {lineno}", str(rules_path))
        rules.append((suffix, replacement, stem))
    return LemmaDictionary(exceptions=exceptions, suffix_rules=tuple(rules))


def _spaced(**fields: str) -> str:
    """The first of ``fields`` whose value holds whitespace, described; ``""`` if none does."""
    return next((f"{k} {v!r} holds whitespace" for k, v in fields.items() if any(map(str.isspace, v))), "")


def _alias_problem(alias: str) -> str:
    return "" if is_alias_placeholder(f":{alias}:") else f"alias {alias!r} is no placeholder body"


def _emoji_alias_problem(key: str, alias: str) -> str:
    # the emoji step and ``analytics`` look aliases up one character at a time
    if len(key) != 1 or not is_emoji_char(key):
        return f"emoji key {key!r} is not one emoji character"
    return _alias_problem(alias)


def _emoticon_problem(key: str, alias: str) -> str:
    if key.split() != [key]:
        return f"emoticon key {key!r} is not one whitespace-free chunk"
    if key.isalpha():
        return f"letters-only emoticon key {key!r}"
    if alias != alias.lower():
        return f"emoticon alias {alias!r} is not lowercase"
    return _alias_problem(alias)


def _read_tsv_map(path: str | Path, problem: Callable[[str, str], str]) -> dict[str, str]:
    """``key<TAB>value`` lines; a line for which ``problem`` returns a
    non-empty description is refused with it, and so is a key an earlier
    line gives."""
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in _table_lines(path):
        key, sep, value = line.partition("\t")
        if not sep:
            raise SchemaViolationError(f"expected key<TAB>value on line {lineno}", str(path))
        if reason := problem(key, value):
            raise SchemaViolationError(f"{reason} on line {lineno}", str(path))
        if (first := first_line.setdefault(key, lineno)) != lineno:
            raise SchemaViolationError(
                f"repeated key {key!r} on line {lineno}, first given on line {first}", str(path)
            )
        mapping[key] = value
    return mapping


def _table_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) of a UTF-8 table file, blank and ``#`` lines skipped."""
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if line.strip() and not line.startswith("#"):
            yield lineno, line


def default_stoplist() -> frozenset[str]:
    return _resources.cached("stoplist", lambda p: load_stoplist(p / "stopwords.txt"))


def default_emoticon_map() -> dict[str, str]:
    """Emoticon -> alias. An emoticon that is letters only (it would
    replace a word) or not one whitespace-free chunk is refused, and so
    is an alias that is not a lowercase placeholder body."""
    return _resources.cached(
        "emoticons", lambda p: _read_tsv_map(p / "emoticons.tsv", _emoticon_problem)
    )


def default_emoji_aliases() -> dict[str, str]:
    """Emoji -> alias. A key that is not exactly one emoji character is
    refused, and so is an alias that is not a placeholder body."""
    return _resources.cached(
        "emoji_aliases", lambda p: _read_tsv_map(p / "emoji_aliases.tsv", _emoji_alias_problem)
    )


def default_lemma_dictionary() -> LemmaDictionary:
    return _resources.cached(
        "lemmas",
        lambda p: load_lemma_dictionary(p / "lemma_exceptions.tsv", p / "lemma_rules.tsv"),
    )
