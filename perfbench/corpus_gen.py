"""Seeded synthetic comment corpus with the paper's class arithmetic.

At ``scale=1.0`` the corpus has exactly 2,034 offensive and 75,650
not-offensive unique labeled comments (77,684 in all, balancing to
4,068). On top of those it holds a recorded number of unlabeled unique
comments and of whitespace-variant duplicates, so ``ingest`` has real
dedupe and unlabeled-exclusion work to do.

Texts are built from a Zipfian pool that mixes stop words (including the
shorthand extensions), whole words from a snapshot of the bundled
WordPiece vocabulary and synthetic slang, with class-conditional marker
words so that a classifier scores well but not perfectly. Words get
lemmatizable suffixes, punctuation tails and mixed case; emoji come from
the alias table plus skin-tone, ZWJ, variation-selector and unknown code
points, and ASCII emoticons.

Uniqueness holds by construction: a text whose stripped form was already
emitted is drawn again, and duplicates are placed after their original
in ingest order, so ``dedupe`` always keeps the labeled original.

Reply depths: each thread draws a reply propensity q ~ U(0, 0.9); every
next comment replies to the previous one (one level deeper) with
probability q, and otherwise starts a new thread with probability 0.7 or
replies at a uniformly drawn shallower level. The mixture of geometric
runs gives a long tail: P(depth >= k) is about 0.65, 0.31, 0.15, 0.045
and 0.006 for k = 1, 4, 8, 16 and 32, roughly 1/k up to depth 16 with an
exponential cut-off beyond; depth is capped at 48.

Besides the trees and ``labels.json`` the generator writes the lexicon
``ingest --lexicon`` reads, the slang word list the WordPiece vocabulary
is augmented with, and ``meta.json`` with every count the checks expect.

Only the standard library is used, so the output depends on the seed and
scale alone. Run directly to write a corpus:

    python3 perfbench/corpus_gen.py OUT_DIR --seed 1 --scale 1.0
"""

from __future__ import annotations

import argparse
import json
import math
import random
import string
from itertools import accumulate
from pathlib import Path

PAPER_OFFENSIVE = 2034
PAPER_NOT_OFFENSIVE = 75650
DUPLICATE_RATE = 0.03  # whitespace-variant duplicates per labeled comment
UNLABELED_RATE = 0.04  # unlabeled unique comments per labeled comment
COMMENTS_PER_POST = 2000
MAX_DEPTH = 48

#: Lowest test-fold F1 (balanced data) and whole-corpus F1 (unbalanced,
#: offensive is the rare positive class) a correct NB or LR run reaches.
#: Six seeds at scales 0.05-0.15 gave test F1 0.82-0.98 after five
#: cycles and whole-corpus F1 0.18-0.73, so the band is well below 1.0.
F1_FLOOR_TEST = 0.70
F1_FLOOR_FULL = 0.10

_DATA = Path(__file__).resolve().parent / "data"

STOP_WORDS = (
    "i you the a an and to of is it that this in on for with be are was at so "
    "but not just my your me we they he she what all do have no if or as "
    "u ur cause gonna im gon cant"
).split()

KNOWN_SLANG = (
    "lol lmao bruh fr ngl tbh smh sus cap simp yeet lowkey highkey deadass "
    "bussin ratio cope seethe based cringe stan periodt finna tryna"
).split()

OFFENSIVE_MARKERS = (
    "idiot dumbass loser clown pathetic stupid trash moron ugly karen "
    "snowflake boomer hate disgusting worthless fool dumb clueless garbage "
    "retard shut braindead"
).split()

BENIGN_MARKERS = (
    "love great thanks beautiful agree helpful awesome cute congrats amazing "
    "wholesome respect support proud interesting kind lovely"
).split()

LEXICON = (
    ("idiot", "derogatory"),
    ("dumbass", "derogatory"),
    ("loser", "derogatory"),
    ("clown", "derogatory"),
    ("pathetic", "derogatory"),
    ("retard", "discriminatory"),
    ("karen", "watchword"),
    ("snowflake", "watchword"),
    ("boomer", "watchword"),
    ("shut up", "threatening"),
    ("watch your back", "threatening"),
)

SUFFIXES = ("s", "es", "ing", "ed", "ly", "ness", "ings")
PUNCT_TAILS = ("!", "!!", "?", "...", ",", "!?", ".", "?!", "!!!")
EMOTICONS = (":)", ":(", ":D", ":P", "<3", ":/", ":'(", "-_-", "^^", ";)", ":))", "xD")

#: Code points with an entry in the bundled alias table.
KNOWN_EMOJI = [
    chr(cp)
    for cp in (
        0x1F602, 0x1F62D, 0x1F480, 0x1F921, 0x1F644, 0x1F34C, 0x1F44D, 0x1F525,
        0x1F438, 0x1F923, 0x1F60A, 0x1F60D, 0x1F914, 0x1F612, 0x1F621, 0x1F620,
        0x1F92C, 0x1F92E, 0x1F4A9, 0x1F595, 0x1F44E, 0x1F44F, 0x1F64F, 0x1F4AF,
        0x1F60E, 0x1F62C, 0x1F97A, 0x1F973, 0x1F631, 0x1F622, 0x1F60F, 0x1F634,
        0x1F440, 0x1F451, 0x1F389, 0x1F308, 0x1F6A9, 0x1F5D1, 0x1F4C9, 0x1F40D,
        0x1F410, 0x1F437, 0x1F921, 0x1F9E0, 0x1F926, 0x1F937, 0x1F4AA, 0x2728,
    )
]
HEART = "\u2764"
VARIATION_SELECTOR = "\ufe0f"
ZWJ = "\u200d"
SKIN_TONES = [chr(cp) for cp in range(0x1F3FB, 0x1F400)]
ZWJ_PARTS = ["\u2642", "\u2640", "\U0001F4BB", "\U0001F525"]
#: Emoji-range code points missing from the alias table.
UNKNOWN_EMOJI = [chr(cp) for cp in (0x1FAE8, 0x1F9CC, 0x1FA7B, 0x1F9A9, 0x1F6F8, 0x1F9C3)]


def class_counts(scale: float) -> tuple[int, int]:
    """Offensive and not-offensive labeled counts at ``scale``."""
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    return max(2, round(PAPER_OFFENSIVE * scale)), max(2, round(PAPER_NOT_OFFENSIVE * scale))


def _zipf_cum_weights(n: int, exponent: float = 1.07, offset: float = 2.7) -> list[float]:
    return list(accumulate(1.0 / (rank + offset) ** exponent for rank in range(n)))


def _slang_pool(rng: random.Random, n: int) -> list[str]:
    onsets = ["sk", "br", "fr", "y", "z", "gl", "sn", "bl", "dr", "w", "g", "r", "ch", "sw"]
    nuclei = ["ee", "oo", "a", "i", "u", "ay", "o"]
    codas = ["nk", "x", "zz", "p", "t", "rt", "mp", "b", "ck", "sh", ""]
    pool = set(KNOWN_SLANG)
    while len(pool) < n:
        syllables = rng.choice((1, 2, 2))
        pool.add(
            "".join(rng.choice(onsets) + rng.choice(nuclei) + rng.choice(codas) for _ in range(syllables))
        )
    return sorted(pool)


class _TextModel:
    def __init__(self, rng: random.Random):
        self.rng = rng
        vocab_words = (_DATA / "vocab_words.txt").read_text(encoding="utf-8").split()
        markers = set(OFFENSIVE_MARKERS) | set(BENIGN_MARKERS)
        content = [w for w in vocab_words if w not in markers and w not in STOP_WORDS]
        slang = [w for w in _slang_pool(rng, 600) if w not in markers]
        rng.shuffle(content)
        # stop words take the head of the Zipf ranking; content and slang
        # interleave below it, about one slang word in eight
        pool = list(STOP_WORDS)
        slang_iter = iter(slang)
        for i, word in enumerate(content):
            pool.append(word)
            if i % 7 == 6:
                pool.append(next(slang_iter, word))
        pool.extend(slang_iter)
        self.pool = pool
        self.slang = slang
        self.cum = _zipf_cum_weights(len(pool))
        self.emoji_cum = _zipf_cum_weights(len(KNOWN_EMOJI), exponent=1.2, offset=1.0)

    def _word(self, offensive: bool) -> str:
        rng = self.rng
        roll = rng.random()
        own, other = (OFFENSIVE_MARKERS, BENIGN_MARKERS) if offensive else (BENIGN_MARKERS, OFFENSIVE_MARKERS)
        if roll < (0.40 if offensive else 0.20):
            word = rng.choice(own)
        elif roll < (0.43 if offensive else 0.215):
            word = rng.choice(other)
        else:
            word = rng.choices(self.pool, cum_weights=self.cum)[0]
        if len(word) > 3 and rng.random() < 0.12:
            word += rng.choice(SUFFIXES)
        case = rng.random()
        if case < 0.08:
            word = word.capitalize()
        elif case < 0.11:
            word = word.upper()
        if rng.random() < 0.12:
            word += rng.choice(PUNCT_TAILS)
        return word

    def _emoji(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.04:
            return rng.choice(UNKNOWN_EMOJI)
        if roll < 0.10:
            return HEART + VARIATION_SELECTOR
        if roll < 0.14:
            return rng.choice(KNOWN_EMOJI) + ZWJ + rng.choice(ZWJ_PARTS) + VARIATION_SELECTOR
        emoji = rng.choices(KNOWN_EMOJI, cum_weights=self.emoji_cum)[0]
        if roll < 0.24:
            emoji += rng.choice(SKIN_TONES)
        elif roll < 0.32:
            emoji *= rng.randint(2, 4)
        return emoji

    def text(self, offensive: bool) -> str:
        rng = self.rng
        n_words = min(60, max(1, int(rng.lognormvariate(2.1, 0.65))))
        emoji_rate = 0.07 if offensive else 0.05
        parts: list[str] = []
        for _ in range(n_words):
            roll = rng.random()
            if roll < emoji_rate:
                if parts and rng.random() < 0.3:
                    parts[-1] += self._emoji()  # glued to the previous word
                else:
                    parts.append(self._emoji())
            elif roll < emoji_rate + 0.025:
                parts.append(rng.choice(EMOTICONS))
            else:
                parts.append(self._word(offensive))
        return " ".join(parts)


def _depths(rng: random.Random, n: int) -> list[int]:
    depths: list[int] = []
    depth, q = 0, rng.uniform(0.0, 0.9)
    for i in range(n):
        if i:
            if depth < MAX_DEPTH and rng.random() < q:
                depth += 1
            else:
                depth = 0 if rng.random() < 0.7 else rng.randint(0, max(0, depth - 1))
                if depth == 0:
                    q = rng.uniform(0.0, 0.9)
        depths.append(depth)
    return depths


def _nest(comments: list[dict], depths: list[int]) -> list[dict]:
    """Tree whose pre-order walk is ``comments`` at the given depths."""
    roots: list[dict] = []
    stack: list[dict] = []
    for comment, depth in zip(comments, depths):
        del stack[depth:]
        (stack[-1]["replies"] if stack else roots).append(comment)
        stack.append(comment)
    return roots


def _ids(rng: random.Random, n: int) -> list[str]:
    alphabet = string.ascii_lowercase + string.digits
    ids: set[str] = set()
    while len(ids) < n:
        ids.add("".join(rng.choices(alphabet, k=10)))
    out = sorted(ids)
    rng.shuffle(out)
    return out


def generate(out_dir: str | Path, seed: int, scale: float = 1.0) -> dict:
    """Write trees, labels, a lexicon and ``meta.json``; return the meta."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    model = _TextModel(rng)
    n_off, n_not = class_counts(scale)
    n_labeled = n_off + n_not
    n_unlabeled = round(UNLABELED_RATE * n_labeled)
    n_dup = round(DUPLICATE_RATE * n_labeled)

    kinds = [1] * n_off + [0] * n_not + [None] * n_unlabeled
    rng.shuffle(kinds)
    seen: set[str] = set()
    originals: list[tuple[str, int | None]] = []
    for kind in kinds:
        text = model.text(offensive=kind == 1)
        while text in seen:
            text = model.text(offensive=kind == 1)
        seen.add(text)
        originals.append((text, kind))

    # a duplicate of original s is inserted after position s, so the
    # labeled original is always the occurrence dedupe keeps
    order: list[tuple[float, str, int | None, bool]] = [
        (float(i), text, kind, False) for i, (text, kind) in enumerate(originals)
    ]
    pads = (" ", "  ", "\t", "\n", " \n")
    for _ in range(n_dup):
        s = rng.randrange(len(originals))
        at = rng.uniform(s + 0.01, len(originals))
        text = rng.choice(pads) + originals[s][0] + rng.choice(("", " ", "\n"))
        order.append((at, text, None, True))
    order.sort(key=lambda item: item[0])

    ids = _ids(rng, len(order))
    authors = [f"user_{rng.randrange(16**6):06x}" for _ in range(5000)]
    labels: dict[str, int] = {}
    comments: list[dict] = []
    for cid, (_at, text, kind, _dup) in zip(ids, order):
        comments.append(
            {
                "id": cid,
                "author": rng.choice(authors),
                "text": text,
                "timestamp": f"2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T"
                f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00Z",
                "replies": [],
            }
        )
        if kind is not None:
            labels[cid] = kind

    n_posts = max(1, math.ceil(len(comments) / COMMENTS_PER_POST))
    depth_hist: dict[int, int] = {}
    tree_files: list[str] = []
    for p in range(n_posts):
        chunk = comments[p * COMMENTS_PER_POST : (p + 1) * COMMENTS_PER_POST]
        depths = _depths(rng, len(chunk))
        for d in depths:
            depth_hist[d] = depth_hist.get(d, 0) + 1
        tree = {"post_id": f"post{p:03d}", "post_author": rng.choice(authors), "comments": _nest(chunk, depths)}
        name = f"tree_{p:03d}.json"
        (out / name).write_text(json.dumps(tree, ensure_ascii=False), encoding="utf-8")
        tree_files.append(name)
    (out / "labels.json").write_text(json.dumps(labels), encoding="utf-8")
    (out / "lexicon.tsv").write_text(
        "".join(f"{term}\t{category}\n" for term, category in LEXICON), encoding="utf-8"
    )
    (out / "slang.txt").write_text("".join(f"{word}\n" for word in model.slang), encoding="utf-8")
    meta = {
        "seed": seed,
        "scale": scale,
        "trees": tree_files,
        "total": len(comments),
        "unique": len(comments) - n_dup,
        "labeled": n_labeled,
        "offensive": n_off,
        "not_offensive": n_not,
        "unlabeled": n_unlabeled,
        "duplicates": n_dup,
        "max_depth": max(depth_hist),
        "depth_histogram": {str(d): depth_hist[d] for d in sorted(depth_hist)},
        "f1_floor_test": F1_FLOOR_TEST,
        "f1_floor_full": F1_FLOOR_FULL,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    meta = generate(args.out_dir, args.seed, args.scale)
    print(json.dumps({k: v for k, v in meta.items() if k not in ("trees", "depth_histogram")}))


if __name__ == "__main__":
    main()
