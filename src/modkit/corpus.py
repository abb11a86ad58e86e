"""Comment-tree ingestion, labeling, balancing and splitting.

The input format is the JSON comment-tree dump produced by scraping a
post's comment section: a top-level object with ``post_id``,
``post_author`` and a ``comments`` array, where each comment carries
``id``, ``author``, ``text``, an optional ``timestamp`` and a ``replies``
array of the same shape. A labeled dataset is its ordered
``(id, text, label)`` entries and nothing else; its file is
``{"entries": [{"id", "text", "label"}, ...]}``.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import _atomic
from ._frozen import Frozen
from .errors import (
    ConfigError,
    MalformedJsonError,
    ModkitError,
    SchemaViolationError,
    in_file,
    load_json,
    read_json_text,
    read_text,
)
from ._rng import shuffled


class Label(Enum):
    """Binary moderation label. There is deliberately no third state."""

    NOT_OFFENSIVE = 0
    OFFENSIVE = 1


class LexiconCategory(Enum):
    DISCRIMINATORY = "discriminatory"
    DEROGATORY = "derogatory"
    THREATENING = "threatening"
    WATCHWORD = "watchword"


class Comment(NamedTuple):
    """One comment of a tree."""

    id: str
    author: str
    text: str
    timestamp: str | None = None
    depth: int = 0


class CommentTree(NamedTuple):
    """A post's comments in pre-order, parent before replies, each with
    its reply depth: a comment's parent is the nearest earlier comment one
    level shallower."""

    post_id: str
    post_author: str
    comments: tuple[Comment, ...] = ()


class LexiconEntry(Frozen):
    __slots__ = ("term", "category")

    def __init__(self, term: str, category: LexiconCategory):
        if not term:
            raise ValueError("lexicon term must be non-empty")
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "category", category)


class LabeledDataset(Frozen):
    """Labeled comments as ordered ``(id, text, label)`` entries, with
    O(1) per-class counts. Two datasets are equal when their entries are."""

    __slots__ = ("entries", "n_offensive")

    def __init__(self, entries: tuple[tuple[str, str, Label], ...]):
        ids = [cid for cid, _, _ in entries]
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            repeated = next(cid for cid in ids if cid in seen or seen.add(cid))
            raise ModkitError(f"duplicate comment id in dataset: {repeated!r}")
        labels = [label for _, _, label in entries]
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n_offensive", labels.count(Label.OFFENSIVE))

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        if type(other) is not LabeledDataset:
            return NotImplemented
        return self.entries == other.entries

    @property
    def n_not_offensive(self) -> int:
        return len(self.entries) - self.n_offensive

    def ids(self) -> list[str]:
        return [cid for cid, _, _ in self.entries]

    def texts(self) -> list[str]:
        return [text for _, text, _ in self.entries]

    def labels(self) -> list[Label]:
        return [label for _, _, label in self.entries]


# ---------------------------------------------------------------------------
# Parsing


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaViolationError(f"missing required field {key!r}", path)
    return obj[key]


#: Reply depth at which a tree is refused: about where Python 3.11's JSON
#: decoder stops, so that newer, deeper decoders accept no deeper tree.
_MAX_DEPTH = 490


def _path(trail: list[int]) -> str:
    """``$.comments[i].replies[j]...`` of the node at ``trail``."""
    return f"$.comments[{trail[0]}]" + "".join(f".replies[{i}]" for i in trail[1:])


def _parse_node(obj, trail: list[int], seen_ids: set[str], out: list[Comment]) -> None:
    """Append the comment ``obj`` and then its replies, in pre-order, to ``out``.
    ``trail`` holds its index among the roots, then among each ancestor's
    replies; JSON decodes to exact types, so ``type(x) is`` checks them."""
    depth = len(trail) - 1
    if depth == _MAX_DEPTH:
        raise MalformedJsonError("comment tree nesting too deep")
    if type(obj) is not dict:
        raise SchemaViolationError("comment must be an object", _path(trail))
    try:  # left to right, so the first missing key of id, author, text
        cid, author, text = obj["id"], obj["author"], obj["text"]
    except KeyError as exc:
        raise SchemaViolationError(f"missing required field {exc.args[0]!r}", _path(trail)) from None
    if type(cid) is not str or not cid:
        raise SchemaViolationError("id must be a non-empty string", f"{_path(trail)}.id")
    if type(author) is not str:
        raise SchemaViolationError("author must be a string", f"{_path(trail)}.author")
    if type(text) is not str:
        raise SchemaViolationError("text must be a string", f"{_path(trail)}.text")
    if cid in seen_ids:
        raise ModkitError(f"duplicate comment id: {cid!r}")
    seen_ids.add(cid)
    timestamp = obj.get("timestamp")
    if timestamp is not None and type(timestamp) is not str:
        raise SchemaViolationError("timestamp must be a string", f"{_path(trail)}.timestamp")
    replies = obj.get("replies", [])
    if type(replies) is not list:
        raise SchemaViolationError("replies must be an array", f"{_path(trail)}.replies")
    out.append(Comment(id=cid, author=author, text=text, timestamp=timestamp, depth=depth))
    for i, child in enumerate(replies):
        trail.append(i)
        _parse_node(child, trail, seen_ids, out)
        trail.pop()


def parse_comment_tree(data: bytes | str) -> CommentTree:
    """Parse a JSON comment-tree dump into a :class:`CommentTree`.

    Depths are computed during the walk; duplicate ids anywhere in the
    tree are rejected.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    obj = load_json(data, "invalid JSON")
    if not isinstance(obj, dict):
        raise SchemaViolationError("top level must be an object", "$")
    post_id = _require(obj, "post_id", "$")
    post_author = _require(obj, "post_author", "$")
    roots = _require(obj, "comments", "$")
    if not isinstance(post_id, str) or not isinstance(post_author, str):
        raise SchemaViolationError("post_id and post_author must be strings", "$")
    if not isinstance(roots, list):
        raise SchemaViolationError("comments must be an array", "$.comments")
    comments: list[Comment] = []
    seen: set[str] = set()
    try:
        for i, root in enumerate(roots):
            _parse_node(root, [i], seen, comments)
    except RecursionError as exc:
        raise MalformedJsonError("comment tree nesting too deep") from exc
    return CommentTree(post_id=post_id, post_author=post_author, comments=tuple(comments))


def flatten(tree: CommentTree) -> list[Comment]:
    """The tree's comments in pre-order: parent before replies, siblings in stored order."""
    return list(tree.comments)


# ---------------------------------------------------------------------------
# Dataset construction


def dedupe(comments: Iterable[Comment]) -> list[Comment]:
    """Keep the first occurrence of each whitespace-trimmed text.

    Matching is exact after trimming; case is preserved (the least
    destructive reading of "unique comments").
    """
    seen: set[str] = set()
    out: list[Comment] = []
    for comment in comments:
        key = comment.text.strip()
        if key not in seen:
            seen.add(key)
            out.append(comment)
    return out


def apply_labels(
    comments: Sequence[Comment], labels: Mapping[str, Label]
) -> tuple[LabeledDataset, int]:
    """Join comments with labels; returns (dataset, unlabeled_count).

    Unlabeled comments are excluded, never defaulted to NOT_OFFENSIVE.
    A label for an id absent from ``comments`` raises :class:`ModkitError`
    (exit 3).
    """
    by_id = {c.id: c for c in comments}
    for cid in labels:
        if cid not in by_id:
            raise ModkitError(f"label references unknown comment id {cid!r}")
    entries = tuple(
        (c.id, c.text, labels[c.id]) for c in comments if c.id in labels
    )
    return LabeledDataset(entries), len(comments) - len(entries)


def balance(dataset: LabeledDataset, seed: int) -> LabeledDataset:
    """Undersample the majority class to the minority class size.

    The minority class is kept whole; the majority class is sampled
    uniformly without replacement via a seeded Fisher-Yates shuffle over
    lexicographically sorted ids, so the same seed always selects the
    same ids. Entry order of the input is preserved in the output.
    """
    check_seed(seed)
    off_ids = [cid for cid, _, lab in dataset.entries if lab is Label.OFFENSIVE]
    not_ids = [cid for cid, _, lab in dataset.entries if lab is Label.NOT_OFFENSIVE]
    if not off_ids or not not_ids:
        raise ModkitError(
            f"both classes must be non-empty (offensive={len(off_ids)}, "
            f"not_offensive={len(not_ids)})"
        )
    k = min(len(off_ids), len(not_ids))
    keep: set[str] = set()
    for ids in (off_ids, not_ids):
        keep.update(ids if len(ids) <= k else shuffled(ids, seed)[:k])
    return _subset(dataset, keep)


def check_ratios(ratios: Sequence[float]) -> None:
    """:class:`ConfigError` unless ``ratios`` are three non-negative fractions summing to 1."""
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError(f"ratios must be three non-negative fractions, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {sum(ratios)}")


def check_seed(seed: int, n_cycles: int = 1) -> None:
    """:class:`ConfigError` unless the seeds ``seed`` .. ``seed + n_cycles - 1``
    lie in 0..2**64 - 1: splitmix64 reads only a seed's low 64 bits."""
    last = (1 << 64) - n_cycles
    if not 0 <= seed <= last:
        cycles = f" for {n_cycles} cycles" if n_cycles > 1 else ""
        raise ConfigError(f"seed must be in 0..{last}{cycles}, got {seed}")


def fold_sizes(n: int, ratios: Sequence[float]) -> tuple[int, int, int]:
    """The train, validation and test sizes :func:`split` gives ``n``
    entries: floor(n * ratio) for validation and test, the remainder for
    train. The 1e-9 nudge keeps floor() stable when n * ratio is an
    integer that float rounding lands just under."""
    n_val = math.floor(n * ratios[1] + 1e-9)
    n_test = math.floor(n * ratios[2] + 1e-9)
    return n - n_val - n_test, n_val, n_test


def split(
    dataset: LabeledDataset,
    ratios: tuple[float, float, float],
    seed: int,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Disjoint train/validation/test partition.

    Ids are shuffled (seeded Fisher-Yates over the sorted id list), then
    cut into :func:`fold_sizes`. A seed outside 0..2**64 - 1 raises
    :class:`ConfigError`: it would alias another.
    """
    check_ratios(ratios)
    check_seed(seed)
    n = len(dataset.entries)
    order = shuffled(dataset.ids(), seed)
    n_train, _, n_test = fold_sizes(n, ratios)
    return (
        _subset(dataset, set(order[:n_train])),
        _subset(dataset, set(order[n_train : n - n_test])),
        _subset(dataset, set(order[n - n_test :])),
    )


def _subset(dataset: LabeledDataset, ids: set[str]) -> LabeledDataset:
    """The entries whose id is in ``ids``, in ``dataset``'s order."""
    return LabeledDataset(tuple(e for e in dataset.entries if e[0] in ids))


# ---------------------------------------------------------------------------
# Lexicon flagging

_WORD_CHAR = r"[^\W_]"  # alphanumeric: \w minus underscore
#: İ ı ſ: the code points outside ASCII, but K (U+212A), that IGNORECASE folds onto ASCII.
_FOLD_TRAPS = re.compile("[\u0130\u0131\u017f]")


def lexicon_flag(
    comments: Iterable[Comment],
    lexicon: Sequence[LexiconEntry],
) -> dict[str, list[tuple[str, LexiconCategory]]]:
    """Case-insensitive whole-word lexicon hits per comment.

    Word boundaries are non-alphanumeric characters; each distinct term
    is reported at most once per comment. Comments without hits are
    omitted from the result.
    """
    patterns = [(entry, _whole_words([entry])) for entry in lexicon]
    # Matches exactly when some per-term pattern does: every branch shares
    # the lookbehind, and a failed lookahead backtracks into the next one.
    any_term = _whole_words(lexicon)
    # When every term is ASCII and a text holds none of _FOLD_TRAPS, a term
    # matches only at an index where ``text.lower()`` holds its lowercase
    # form: IGNORECASE folds onto ASCII only from ASCII, K (lowercase k)
    # and _FOLD_TRAPS, and only İ lowercases to more than one code point.
    screen = all(entry.term.isascii() for entry in lexicon)
    terms = [entry.term.lower() for entry in lexicon]
    any_lowered = re.compile("|".join(map(re.escape, terms)))
    hits: dict[str, list[tuple[str, LexiconCategory]]] = {}
    for comment in comments:
        text = comment.text
        if screen and (text.isascii() or not _FOLD_TRAPS.search(text)):
            lowered = text.lower()
            if not any_lowered.search(lowered):
                continue
            starts = [lowered.find(term) for term in terms]
        else:
            # No term matches before the alternation's first match.
            first = any_term.search(text)
            if not first:
                continue
            starts = [first.start()] * len(terms)
        # A search from ``at`` still sees ``text[at - 1]`` in its lookbehind.
        found = [
            (entry.term, entry.category)
            for (entry, pattern), at in zip(patterns, starts)
            if at >= 0 and pattern.search(text, at)
        ]
        if found:
            hits[comment.id] = found
    return hits


def _whole_words(entries: Sequence[LexiconEntry]) -> re.Pattern:
    """Case-insensitive whole-word match of any of the entries' terms."""
    terms = "|".join(re.escape(entry.term) for entry in entries)
    return re.compile(rf"(?<!{_WORD_CHAR})(?:{terms})(?!{_WORD_CHAR})", re.IGNORECASE)


def _lexicon_hits_chunks(hits: Mapping[str, list[tuple[str, LexiconCategory]]]) -> Iterator[str]:
    """The text of ``json.dumps`` (``ensure_ascii=False, indent=2``) of
    ``{comment_id: [[term, category], ...]}``, one comment per chunk; every
    list of hits is non-empty, as :func:`lexicon_flag` returns them."""
    encode = encode_basestring
    if not hits:
        yield "{}"
        return
    separator = "{"
    for cid, found in hits.items():
        pairs = ",".join(
            f"\n    [\n      {encode(term)},\n      {encode(category.value)}\n    ]"
            for term, category in found
        )
        yield f"{separator}\n  {encode(cid)}: [{pairs}\n  ]"
        separator = ","
    yield "\n}"


def save_lexicon_hits(
    hits: Mapping[str, list[tuple[str, LexiconCategory]]], path: str | Path
) -> None:
    """Write :func:`lexicon_flag`'s result as ``{comment_id: [[term, category], ...]}``."""
    _atomic.write_chunks(path, _lexicon_hits_chunks(hits))


# ---------------------------------------------------------------------------
# File formats

#: The label of each accepted JSON label value, looked up by the value's
#: type and then the value: 0, 1, 0.0 and 1.0. ``true`` and ``false``
#: equal 1 and 0 but have type bool, so they are refused.
_LABEL_OF_VALUE = {0: Label.NOT_OFFENSIVE, 1: Label.OFFENSIVE}
_LABELS = {int: _LABEL_OF_VALUE, float: _LABEL_OF_VALUE}
#: How each label is written: its value (an enum's ``.value`` is a slow property).
_LABEL_JSON = {label: str(label.value) for label in Label}


def load_labels(path: str | Path) -> dict[str, Label]:
    """Read a label file: JSON object mapping comment_id -> 0 or 1."""
    raw = load_json(read_json_text(path), f"invalid label JSON in {path}")
    if not isinstance(raw, dict):
        raise SchemaViolationError("label file must be a JSON object", str(path))
    labels: dict[str, Label] = {}
    for cid, value in raw.items():
        try:
            labels[cid] = _LABELS[type(value)][value]
        except KeyError:
            raise SchemaViolationError(
                f"label for {cid!r} must be 0 or 1, got {value!r}", str(path)
            ) from None
    return labels


def load_lexicon(path: str | Path) -> list[LexiconEntry]:
    """Read a lexicon file: UTF-8 lines of ``term<TAB>category``. Terms
    are lowercased; a term an earlier line gives, in any case and with
    any category, is refused."""
    entries: list[LexiconEntry] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise SchemaViolationError(
                f"expected term<TAB>category on line {lineno}", str(path)
            )
        term, category = parts[0].lower(), parts[1]
        try:
            entries.append(LexiconEntry(term=term, category=LexiconCategory(category)))
        except ValueError as exc:
            raise SchemaViolationError(
                f"unknown category {category!r} on line {lineno}", str(path)
            ) from exc
        if (first := first_line.setdefault(term, lineno)) != lineno:
            raise SchemaViolationError(
                f"repeated term {term!r} on line {lineno}, first given on line {first}", str(path)
            )
    return entries


def _dataset_chunks(dataset: LabeledDataset) -> Iterator[str]:
    """The text of ``json.dumps({"entries": [...]}, ensure_ascii=False,
    indent=2)``, one entry per chunk, with the indentation written out and
    each string escaped by the encoder ``json.dumps`` itself uses."""
    encode, label_json = encode_basestring, _LABEL_JSON
    yield '{\n  "entries": ['
    separator = "\n"
    for cid, text, label in dataset.entries:
        yield (
            f'{separator}    {{\n      "id": {encode(cid)},\n      "text": {encode(text)},'
            f'\n      "label": {label_json[label]}\n    }}'
        )
        separator = ",\n"
    yield "\n  ]\n}" if dataset.entries else "]\n}"


def _entry_error(entry, i: int) -> SchemaViolationError:
    """The first problem of an entry the fast path of :func:`dataset_from_json` refused."""
    path = f"$.entries[{i}]"
    if not isinstance(entry, dict):
        return SchemaViolationError("entry must be an object", path)
    for key in ("id", "text", "label"):
        if key not in entry:
            return SchemaViolationError(f"missing {key!r}", path)
    if not isinstance(entry["id"], str) or not entry["id"]:
        return SchemaViolationError("id must be a non-empty string", f"{path}.id")
    if not isinstance(entry["text"], str):
        return SchemaViolationError("text must be a string", f"{path}.text")
    return SchemaViolationError("label must be 0 or 1", f"{path}.label")


def dataset_from_json(data: str | bytes) -> LabeledDataset:
    """The dataset of a ``{"entries": [{"id", "text", "label"}, ...]}``
    file; any other key, at the top level or in an entry, is not read."""
    obj = load_json(data, "invalid dataset JSON")
    if not isinstance(obj, dict) or "entries" not in obj:
        raise SchemaViolationError("dataset file must be an object with 'entries'", "$")
    if not isinstance(obj["entries"], list):
        raise SchemaViolationError("entries must be an array", "$.entries")
    entries = []
    for i, e in enumerate(obj["entries"]):
        try:
            cid, text, value = e["id"], e["text"], e["label"]
            label = _LABELS[type(value)][value]
        except (KeyError, TypeError):
            raise _entry_error(e, i) from None
        if type(cid) is not str or not cid or type(text) is not str:
            raise _entry_error(e, i)
        entries.append((cid, text, label))
    return LabeledDataset(tuple(entries))


def save_dataset(dataset: LabeledDataset, path: str | Path) -> None:
    _atomic.write_chunks(path, _dataset_chunks(dataset))


def load_dataset(path: str | Path) -> LabeledDataset:
    text = read_json_text(path)
    with in_file(path):
        return dataset_from_json(text)
