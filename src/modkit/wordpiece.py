"""WordPiece subword tokenizer with slang/emoji vocabulary augmentation.

Standard greedy longest-match-first inference: each whitespace word is
segmented left to right, always taking the longest vocabulary entry that
matches, with continuations carrying the ``##`` prefix. Registering
domain tokens (slang words, ``:emoji_alias:`` placeholders) shrinks the
number of pieces a corpus fragments into, which the
:func:`fragmentation_rate` metric quantifies.

An encoding holds at most ``DEFAULT_MAX_LENGTH`` (150) pieces, [CLS] and
[SEP] included; :func:`load_vocab` gives the token on line n id n - 1
and refuses a token that an earlier line gives.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import _resources
from ._frozen import Frozen
from .errors import ModkitError, SchemaViolationError, read_text

UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
PAD = "[PAD]"
SPECIALS = (PAD, UNK, CLS, SEP)
CONTINUATION_PREFIX = "##"

#: Words longer than this become [UNK] outright.
MAX_WORD_CHARS = 100

#: Maximum sequence length, matching the platform comment limit.
DEFAULT_MAX_LENGTH = 150


class WordPieceVocab(Frozen):
    """Token -> id table: ``tokens`` maps each token to its id.

    ``memo`` holds the pieces of every word this instance has segmented.
    It belongs to the instance: a vocabulary made by :func:`augment_vocab`
    or :func:`load_vocab` starts with an empty memo. ``tokens`` must not
    be mutated once the instance is in use.
    """

    __slots__ = ("tokens", "memo")

    def __init__(self, tokens: dict[str, int]):
        for special in SPECIALS:
            if special not in tokens:
                raise ModkitError(f"vocabulary missing special token {special}")
        ids = sorted(tokens.values())
        if ids != list(range(len(ids))):
            raise ModkitError("token ids must be contiguous from 0")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "memo", {})

    def __len__(self) -> int:
        return len(self.tokens)


class Encoding(Frozen):
    __slots__ = ("ids", "tokens", "truncated")

    def __init__(self, ids: tuple[int, ...], tokens: tuple[str, ...], truncated: bool = False):
        if len(ids) != len(tokens):
            raise ValueError("ids and tokens must have equal length")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "truncated", truncated)

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other):
        if type(other) is not Encoding:
            return NotImplemented
        return (self.ids, self.tokens, self.truncated) == (other.ids, other.tokens, other.truncated)


def load_vocab(path: str | Path) -> WordPieceVocab:
    """Vocabulary file: one token per line, the token on line n with id
    n - 1. An empty line, a token that holds whitespace, and a token an
    earlier line gives are refused."""
    tokens: dict[str, int] = {}
    for lineno, token in enumerate(read_text(path).splitlines(), 1):
        if token.split() != [token]:
            raise SchemaViolationError(
                f"invalid vocabulary token {token!r} on line {lineno}", str(path)
            )
        if token in tokens:  # every earlier line added a token, so id + 1 is its line
            raise SchemaViolationError(
                f"repeated token {token!r} on line {lineno}, "
                f"first given on line {tokens[token] + 1}",
                str(path),
            )
        tokens[token] = len(tokens)
    return WordPieceVocab(tokens=tokens)


def default_vocab() -> WordPieceVocab:
    return _resources.cached("wordpiece_vocab", lambda p: load_vocab(p / "wordpiece_vocab.txt"))


def _segment_word(word: str, vocab: WordPieceVocab) -> list[str]:
    """Greedy longest-match segmentation; [UNK] when no split works."""
    if len(word) > MAX_WORD_CHARS:
        return [UNK]
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        piece = None
        while start < end:
            candidate = word[start:end]
            if start > 0:
                candidate = CONTINUATION_PREFIX + candidate
            if candidate in vocab.tokens:
                piece = candidate
                break
            end -= 1
        if piece is None:
            return [UNK]
        pieces.append(piece)
        start = end
    return pieces


def _pieces(word: str, vocab: WordPieceVocab) -> tuple[str, ...]:
    """:func:`_segment_word` of ``word``, memoized in ``vocab.memo``."""
    pieces = vocab.memo.get(word)
    if pieces is None:
        pieces = vocab.memo[word] = tuple(_segment_word(word, vocab))
    return pieces


def wordpiece_encode(text: str, vocab: WordPieceVocab | None = None) -> Encoding:
    """Encode preprocessed text into [CLS] pieces... [SEP].

    Expects lowercased input with ``:alias:`` emoji placeholders intact;
    a placeholder registered in the vocabulary emits exactly one token.
    Sequences longer than ``DEFAULT_MAX_LENGTH`` are truncated (flag set)
    while keeping the trailing [SEP].
    """
    if vocab is None:
        vocab = default_vocab()
    if len(vocab.tokens) <= len(SPECIALS):
        raise ModkitError("vocabulary has no usable tokens")
    pieces: list[str] = [CLS]
    for word in text.split():
        pieces.extend(_pieces(word, vocab))
    truncated = False
    if len(pieces) + 1 > DEFAULT_MAX_LENGTH:
        pieces = pieces[: DEFAULT_MAX_LENGTH - 1]
        truncated = True
    pieces.append(SEP)
    ids = tuple(map(vocab.tokens.__getitem__, pieces))
    return Encoding(ids=ids, tokens=tuple(pieces), truncated=truncated)


def augment_vocab(vocab: WordPieceVocab, new_tokens: Iterable[str]) -> WordPieceVocab:
    """Append genuinely new tokens with the next free ids.

    Existing ids never change, so anything keyed on them stays valid.
    Tokens are lowercased on insertion to match the uncased pipeline.
    """
    tokens = dict(vocab.tokens)
    for token in new_tokens:
        if not token or any(c.isspace() for c in token):
            raise ModkitError(f"invalid vocabulary token {token!r}")
        token = token.lower()
        if token not in tokens:
            tokens[token] = len(tokens)
    return WordPieceVocab(tokens=tokens)


class FragmentationRate(NamedTuple):
    pieces_per_word: float
    split_word_fraction: float


def fragmentation_rate(
    corpus: Sequence[str],
    vocab: WordPieceVocab | None = None,
) -> FragmentationRate:
    """How finely the vocabulary fragments a corpus.

    pieces_per_word counts emitted word pieces (an [UNK] emission counts
    as one piece; [CLS]/[SEP] framing is excluded) divided by
    whitespace words. split_word_fraction is the share of words that
    emit two or more pieces or fall back to [UNK].
    """
    if vocab is None:
        vocab = default_vocab()
    total_words = 0
    total_pieces = 0
    split_words = 0
    for text in corpus:
        for word in text.split():
            pieces = _pieces(word, vocab)
            total_words += 1
            total_pieces += len(pieces)
            if len(pieces) >= 2 or pieces == (UNK,):
                split_words += 1
    if total_words == 0:
        raise ModkitError("fragmentation rate needs at least one word")
    return FragmentationRate(
        pieces_per_word=total_pieces / total_words,
        split_word_fraction=split_words / total_words,
    )
