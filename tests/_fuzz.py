"""Seeded generators and run-directory helpers for fuzz-style tests."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORDS = [
    "Ur", "DUMB", "dumb", "shut", "up", "people", "know", "LOL", "y'all",
    "writing", "cats", "im", "gonna", "cause", "drama", "go", "Karen",
    "critical", "thinking", "skills", "a", "the", "and", "very", "????",
    "!!!", "...", "ok", "no", "CAP",
]
EMOJI = ["😂", "😭", "💀", "🤡", "🙄", "🍌", "👍", "❤", "🔥", "🐸"]
EMOTICONS = [":)", ":(", ":))", ":D", ":P", "<3", ":/", ":'(", "-_-", "^^"]
PUNCT_TAILS = ["", "!", "!!", "?", "...", ",", "!?"]


def random_text(rng: random.Random, max_words: int = 12) -> str:
    parts = []
    for _ in range(rng.randint(0, max_words)):
        roll = rng.random()
        if roll < 0.6:
            parts.append(rng.choice(WORDS) + rng.choice(PUNCT_TAILS))
        elif roll < 0.75:
            parts.append(rng.choice(EMOJI))
        elif roll < 0.85:
            parts.append(rng.choice(EMOTICONS))
        elif roll < 0.95:
            parts.append(rng.choice(WORDS) + rng.choice(EMOJI))
        else:
            parts.append(rng.choice(EMOJI) + rng.choice(EMOJI))
    return " ".join(parts)


def fuzz_texts(n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [random_text(rng) for _ in range(n)]


#: Unicode whitespace the text steps must split on like ``str.split``:
#: NBSP, the file separator, an em space and the ideographic space.
WHITESPACE = [" ", "  ", "\t", "\n", "\r\n", "\u00a0", "\x1c", "\u2003", "\u3000", " \u00a0\t"]
#: Emoji modifiers: ZWJ, VS16, a skin tone and the keycap combiner.
MODIFIERS = ["\u200d", "\ufe0f", "\U0001F3FD", "\u20e3"]
#: Emoji outside the main block, flags, an unknown one and placeholders.
MORE_EMOJI = ["\u2615", "\u2b50", "\U0001F1FA\U0001F1F8", "\U0001FAE8", ":skull:", ":face_with_tears_of_joy:", ":x:"]


#: Case-mapping traps: lowercasing lengthens ``İ``, turns a final ``Σ``
#: by what follows it, and maps the Kelvin sign and the titlecase ``ǅ``
#: to letters; ``ẞ`` and ``ﬃ`` change length only under other mappings.
CASE_TRAPS = ["İstanbul", "ΟΔΟΣ", "ΣΑΣ.", "ẞ", "\u212a", "ǅ", "ﬃ"]


def messy_text(rng: random.Random, max_pieces: int = 10, pools: list[list[str]] | None = None) -> str:
    """Pieces from every pool (by default all but ``CASE_TRAPS``), fused
    or separated by whitespace runs, with optional leading and trailing
    runs."""
    if pools is None:
        pools = [WORDS, EMOJI, EMOTICONS, MODIFIERS, MORE_EMOJI, PUNCT_TAILS]
    out = [rng.choice(WHITESPACE) if rng.random() < 0.3 else ""]
    for _ in range(rng.randint(0, max_pieces)):
        out.append(rng.choice(rng.choice(pools)))
        out.append(rng.choice(WHITESPACE) if rng.random() < 0.6 else "")
    if rng.random() < 0.3:
        out.append(rng.choice(WHITESPACE))
    return "".join(out)


def reply_chain(depth: int) -> str:
    """JSON of a comment tree whose comments c0..c{depth-1} each reply to
    the previous one, written by hand: ``json.dumps`` itself recurses."""
    opened = "".join(
        f'{{"id": "c{i}", "author": "u", "text": "reply {i}", "replies": [' for i in range(depth)
    )
    return '{"post_id": "p", "post_author": "op", "comments": [' + opened + "]}" * depth + "]}"


def reseal(run_dir: Path) -> None:
    """Record the artifacts' current sha256 in a run directory's manifest,
    so damage inside an artifact reaches its loader."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for name in manifest["checksums"]:
        manifest["checksums"][name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest), encoding="utf-8")
