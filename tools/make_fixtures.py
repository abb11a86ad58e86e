#!/usr/bin/env python3
"""Regenerate the committed test fixtures under tests/data/.

Produces:
  fixture10_tree.json / fixture10_labels.json   small handcrafted corpus
  separable_tree_[1-4].json / separable_labels.json
        200 synthetic comments whose offensive and non-offensive texts
        draw from disjoint word pools (classifiers must separate them)
  slang_corpus.txt                              slang + emoji-alias lines
  golden/ngrams_{uni,bi,tri}_{before,after}.csv
        n-gram chart data computed by an independent brute-force count
  golden/lexicon_hits.json
        `ingest --lexicon` hits of the fixture and separable trees with the
        bundled lexicon_sample.tsv, one whole-word search per term
  golden/run_{nb,lr}_{ml,bert}/{tfidf,model,train_report,eval_report}.json
        what `train` and test-fold `eval` write for the separable corpus
        and the 10-comment fixture (whose emojis and emoticon make the
        two emoji modes differ) with all five steps. These come from
        modkit itself, not from an independent oracle: they pin its
        output, so that a change to what a run computes shows as a diff,
        but they do not show that output right.

Everything is deterministic; re-running must reproduce identical bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "src"))

from modkit import textprep  # noqa: E402
from modkit._rng import _splitmix64  # noqa: E402

# ---------------------------------------------------------------------------
# Small handcrafted fixture (10 comments, nested, emojis, emoticons)

FIXTURE10_COMMENTS = [
    # (id, author, text, label, replies)
    ("c01", "ada", "You have no critical thinking skills 😂", 1, [
        ("c02", "ben", "shut up karen you sound like idiot", 1, []),
        ("c03", "cal", "great point thanks for sharing", 0, []),
    ]),
    ("c04", "dee", "get off your high horse dumbass", 1, [
        ("c05", "eli", "ur dumb and you know it 😂😂", 1, []),
    ]),
    ("c06", "fay", "I love this video :)", 0, []),
    ("c07", "gus", "sound dumb use brain", 1, []),
    ("c08", "hal", "what a cute dog 😭", 0, [
        ("c09", "ivy", "critical thinking skills matter karen 💀", 1, []),
    ]),
    ("c10", "jon", "critical thinking is important", 0, []),
]


def _nodes(items):
    return [
        {
            "id": cid,
            "author": author,
            "text": text,
            "replies": _nodes(replies),
        }
        for cid, author, text, _label, replies in items
    ]


def _labels(items, out):
    for cid, _a, _t, label, replies in items:
        out[cid] = label
        _labels(replies, out)
    return out


def write_fixture10():
    tree = {"post_id": "post-fix10", "post_author": "op", "comments": _nodes(FIXTURE10_COMMENTS)}
    (DATA / "fixture10_tree.json").write_text(
        json.dumps(tree, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    labels = _labels(FIXTURE10_COMMENTS, {})
    (DATA / "fixture10_labels.json").write_text(
        json.dumps(labels, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Separable 200-comment corpus: class-disjoint vocabularies

OFFENSIVE_POOL = """
bodga kagut dapet gubota pakad tebag dogapa kebut gadopo bapek
tugad podab gatek dubap kopad bagud tepok dagub potek budag
""".split()

CLEAN_POOL = """
fomir nasuv rimof savun morif vanus firom nusav rovim sunaf
mirov fusan vorim rafus nivom sovar marov nofer vimor resuf
""".split()


def validate_pools():
    stoplist = textprep.default_stoplist()
    lemmas = textprep.default_lemma_dictionary()
    for pool in (OFFENSIVE_POOL, CLEAN_POOL):
        for word in pool:
            assert word not in stoplist, f"{word!r} is a stop word"
            assert textprep.lemmatize((word,), lemmas) == (word,), (
                f"{word!r} is not lemma-stable"
            )
    assert not set(OFFENSIVE_POOL) & set(CLEAN_POOL)


def write_separable():
    validate_pools()
    draws = _splitmix64(20220401)
    labels: dict[str, int] = {}
    index = 0
    for part in range(4):
        comments = []
        for _ in range(50):
            index += 1
            cid = f"s{index:03d}"
            offensive = index % 2 == 1
            pool = OFFENSIVE_POOL if offensive else CLEAN_POOL
            n_words = 4 + next(draws) % 5
            text = " ".join(pool[next(draws) % len(pool)] for _ in range(n_words))
            labels[cid] = 1 if offensive else 0
            comments.append(
                {"id": cid, "author": f"user{index % 17}", "text": text, "replies": []}
            )
        tree = {
            "post_id": f"post-sep-{part + 1}",
            "post_author": "op",
            "comments": comments,
        }
        (DATA / f"separable_tree_{part + 1}.json").write_text(
            json.dumps(tree, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
    (DATA / "separable_labels.json").write_text(
        json.dumps(labels, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Slang corpus for the fragmentation metric

SLANG_LINES = [
    "ok boomer stop the cap",
    "he a simp no cap",
    "boomer take is wild :face_with_rolling_eyes:",
    "this simp stay making excuses :face_with_tears_of_joy:",
    "bro a whole clown :skull: :skull:",
    "no cap that was funny :loudly_crying_face:",
    "boomer energy in the comments :clown_face:",
    "simp behavior fr :pleading_face:",
    "that fit is fire :fire: :billed_cap:",
    "good point honestly :thumbs_up: :red_heart:",
    "ok boomer ok boomer ok boomer",
    "the cap detector is loud today",
    "simp cap boomer all in one comment",
    "people sound like a broken record",
    "watch the whole video before you comment",
]


def write_slang_corpus():
    (DATA / "slang_corpus.txt").write_text("\n".join(SLANG_LINES) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Golden n-gram chart data via independent brute-force counting

ANALYZE_BASE = frozenset(
    {
        textprep.Step.LOWERCASING,
        textprep.Step.EMOJI_ENCODING,
        textprep.Step.PUNCTUATION_REMOVAL,
        textprep.Step.LEMMATIZATION,
    }
)


def brute_force_top(streams, n, k):
    """Straight-line window enumeration, independent of analytics.py."""
    counts: dict[str, int] = {}
    for stream in streams:
        tokens = list(stream)
        for start in range(len(tokens)):
            window = tokens[start : start + n]
            if len(window) == n:
                gram = " ".join(window)
                counts[gram] = counts.get(gram, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def write_goldens():
    golden = DATA / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    offensive = []

    def collect(items):
        for cid, _a, text, label, replies in items:
            if label == 1:
                offensive.append((cid, text))
            collect(replies)

    collect(FIXTURE10_COMMENTS)
    names = {1: "uni", 2: "bi", 3: "tri"}
    for suffix, steps in (
        ("before", ANALYZE_BASE),
        ("after", ANALYZE_BASE | {textprep.Step.STOPWORD_REMOVAL}),
    ):
        preprocess = textprep.ChunkMemo(textprep.PreprocessConfig(steps=steps))
        streams = [preprocess(text) for _, text in offensive]
        for n, name in names.items():
            rows = brute_force_top(streams, n, 20)
            lines = ["gram,count"] + [
                f'"{gram}",{count}' if ("," in gram or '"' in gram) else f"{gram},{count}"
                for gram, count in rows
            ]
            (golden / f"ngrams_{name}_{suffix}.csv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )


# ---------------------------------------------------------------------------
# Golden lexicon hits via one documented whole-word search per term

LEXICON_SAMPLE = ROOT / "src" / "modkit" / "data" / "lexicon_sample.tsv"


def golden_trees() -> list[Path]:
    """The trees of the golden hits and runs, in the order ``ingest`` is given them."""
    return [DATA / "fixture10_tree.json", *(DATA / f"separable_tree_{i}.json" for i in range(1, 5))]


def write_golden_lexicon_hits():
    """``{comment_id: [[term, category], ...]}`` for the first comment of
    each whitespace-trimmed text, in pre-order across the trees, listing
    the terms that occur as a whole word: case-insensitive as
    ``re.IGNORECASE``, neither preceded nor followed by a letter or digit."""
    lexicon = []
    for line in LEXICON_SAMPLE.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            term, category = line.strip().split("\t")
            lexicon.append((term.lower(), category))
    texts: dict[str, tuple[str, str]] = {}  # trimmed text -> (first id, text)

    def walk(nodes):
        for node in nodes:
            texts.setdefault(node["text"].strip(), (node["id"], node["text"]))
            walk(node["replies"])

    for path in golden_trees():
        walk(json.loads(path.read_text(encoding="utf-8"))["comments"])
    hits = {}
    for cid, text in texts.values():
        found = [
            [term, category]
            for term, category in lexicon
            if re.search(rf"(?<![^\W_]){re.escape(term)}(?![^\W_])", text, re.IGNORECASE)
        ]
        if found:
            hits[cid] = found
    (DATA / "golden" / "lexicon_hits.json").write_text(
        json.dumps(hits, ensure_ascii=False, indent=2), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Golden training artifacts, as modkit writes them

#: (model, emoji mode) of each golden run.
GOLDEN_RUNS = [(model, mode) for model in ("nb", "lr") for mode in ("ml", "bert")]
GOLDEN_RUN_FILES = ("tfidf.json", "train_report.json", "eval_report.json", "model.json")


def golden_train_argv(model: str, emoji_mode: str, dataset: str, runs: str) -> list[str]:
    """``train`` with all five steps, seed 7 and 3 cycles, as the golden runs train."""
    steps = json.dumps([step.value for step in textprep.PIPELINE_ORDER])
    return ["train", "--dataset", dataset, "--out", runs, "--model", model,
            "--emoji-mode", emoji_mode, "--seed", "7", "--cycles", "3", "--set", f"steps={steps}"]


def golden_run(model: str, emoji_mode: str, work: Path) -> Path:
    """Ingest the separable corpus and the 10-comment fixture, train a run
    on them (:func:`golden_train_argv`), and score its best cycle's test
    fold, all in ``work``; the run directory."""
    from modkit.cli import main

    work.mkdir(parents=True, exist_ok=True)
    dataset, runs, labels = work / "dataset.json", work / "runs", work / "labels.json"
    trees = [str(path) for path in golden_trees()]
    labels.write_text(json.dumps({
        **json.loads((DATA / "fixture10_labels.json").read_text(encoding="utf-8")),
        **json.loads((DATA / "separable_labels.json").read_text(encoding="utf-8")),
    }), encoding="utf-8")

    def run(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if main(list(argv)):
                raise SystemExit(f"modkit {argv[0]} failed")

    run("ingest", *trees, "--labels", str(labels), "--out", str(dataset))
    run(*golden_train_argv(model, emoji_mode, str(dataset), str(runs)))
    (run_dir,) = runs.iterdir()
    run("eval", "--run", str(run_dir), "--dataset", str(dataset))
    return run_dir


def write_golden_runs():
    with tempfile.TemporaryDirectory() as tmp:
        for model, emoji_mode in GOLDEN_RUNS:
            run_dir = golden_run(model, emoji_mode, Path(tmp) / f"{model}_{emoji_mode}")
            golden = DATA / "golden" / f"run_{model}_{emoji_mode}"
            golden.mkdir(parents=True, exist_ok=True)
            for name in GOLDEN_RUN_FILES:
                (golden / name).write_bytes((run_dir / name).read_bytes())


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    write_fixture10()
    write_separable()
    write_slang_corpus()
    write_goldens()
    write_golden_lexicon_hits()
    write_golden_runs()
    print(f"fixtures written to {DATA}")
