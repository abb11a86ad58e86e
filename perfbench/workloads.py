"""Workload definitions: set-up steps, timed commands and output checks.

Every command is one process: a ``modkit`` CLI subcommand, or the
``bert_prep`` library driver. A command writes its outputs into the
directory of the pass it belongs to, and its check returns the list of
problems found in those outputs (empty when they are correct).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
DEFAULT_SEED = 1

ALL_STEPS = ["lowercasing", "emoji_encoding", "punctuation_removal", "stopword_removal", "lemmatization"]
TRAIN_CYCLES = 5
RATIOS = (0.8, 0.1, 0.1)
TOP_K = 20
#: analyze's defaults: length bucket width, and the steps before stop-word removal.
BUCKET_WIDTH = 10
ANALYZE_STEPS = ["lowercasing", "emoji_encoding", "punctuation_removal", "lemmatization"]
#: Below this many offensive comments (smoke corpora) models are too weak
#: and folds too small for the F1 floors to hold.
MIN_OFFENSIVE_FOR_FLOOR = 100
#: Relative float drift allowed between two computations of one metric.
REL_TOL = 1e-12

ANALYZE_FILES = tuple(
    f"ngrams_{n}_{when}.csv" for n in ("uni", "bi", "tri") for when in ("before", "after")
) + ("length_overall.csv", "length_offensive.csv", "emoji_stats.csv")


@dataclass
class Inputs:
    """What set-up built: the generated corpus and the files derived from it."""

    seed: int
    corpus: Path
    meta: dict
    setup_dir: Path
    record_digests: bool = False  # write the analyze digests instead of comparing

    @property
    def dataset(self) -> Path:
        return self.setup_dir / "dataset.json"

    @property
    def balanced(self) -> Path:
        return self.setup_dir / "balanced.json"

    def trees(self) -> list[str]:
        return [str(self.corpus / name) for name in self.meta["trees"]]


@dataclass(frozen=True)
class Command:
    """One process. ``argv`` gets (inputs, pass dir) and returns the
    arguments after ``modkit`` (or after the driver script)."""

    name: str
    argv: Callable[[Inputs, Path], list[str]]
    check: Callable[[Inputs, Path, str], list[str]]
    driver: str | None = None  # script in this directory instead of the CLI


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    why: str
    setup: tuple[Command, ...]
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# Helpers


def _run_dir(parent: Path) -> Path:
    runs = [p for p in parent.iterdir() if p.is_dir()]
    if len(runs) != 1:
        raise FileNotFoundError(f"expected one run directory in {parent}, found {len(runs)}")
    return runs[0]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _fold_size(n: int) -> int:
    return math.floor(n * RATIOS[2] + 1e-9)


def _metric_problems(where: str, variant: dict) -> list[str]:
    """The five scores must follow from the confusion matrix."""
    m = variant["matrix"]
    tp, fp, fn, tn = m["tp"], m["fp"], m["fn"], m["tn"]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    expected = {
        "accuracy": (tp + tn) / (tp + fp + fn + tn),
        "precision": precision,
        "recall": recall,
        "specificity": tn / (tn + fp) if tn + fp else 0.0,
        "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
    }
    return [
        f"{where}: {key} {variant[key]!r} does not follow from the matrix ({value!r})"
        for key, value in expected.items()
        if not math.isclose(variant[key], value, rel_tol=REL_TOL, abs_tol=0.0)
    ]


def _floor_problems(where: str, variant: dict, meta: dict, floor_key: str) -> list[str]:
    floor = meta[floor_key]
    if meta["offensive"] >= MIN_OFFENSIVE_FOR_FLOOR and variant["f1"] < floor:
        return [f"{where}: F1 {variant['f1']:.4f} below the corpus floor {floor}"]
    return []


def _csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(path.read_text(encoding="utf-8").splitlines()))


def file_digests(directory: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def _recorded_digests() -> dict[str, dict[str, str]]:
    return _read_json(DIGESTS_PATH) if DIGESTS_PATH.is_file() else {}


# ---------------------------------------------------------------------------
# Checks


def check_outputs(cmd: Command, inp: Inputs, out: Path, stdout: str) -> list[str]:
    """The command's output problems; unreadable outputs are one more."""
    try:
        return cmd.check(inp, out, stdout)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{cmd.name}: outputs unreadable: {exc!r}"]

_INGEST_RE = re.compile(
    r"(\d+) total, (\d+) unique, (\d+) labeled \((\d+) offensive / (\d+) not offensive\), "
    r"(\d+) unlabeled excluded"
)
_BALANCE_RE = re.compile(r"balanced (\d+)/(\d+) -> (\d+)/(\d+) \((\d+) total\)")


def _dataset_problems(where: str, path: Path, n_off: int, n_not: int) -> list[str]:
    labels = [entry["label"] for entry in _read_json(path)["entries"]]
    if (sum(labels), len(labels) - sum(labels)) != (n_off, n_not):
        return [f"{where}: {path.name} holds {sum(labels)}/{len(labels) - sum(labels)}, want {n_off}/{n_not}"]
    return []


def check_ingest(inp: Inputs, out: Path, stdout: str) -> list[str]:
    meta = inp.meta
    match = _INGEST_RE.search(stdout)
    if not match:
        return ["ingest: summary line missing"]
    keys = ("total", "unique", "labeled", "offensive", "not_offensive", "unlabeled")
    problems = [
        f"ingest: {key} {value} != {meta[key]}"
        for key, value in zip(keys, map(int, match.groups()))
        if value != meta[key]
    ]
    problems += _dataset_problems("ingest", out / "dataset.json", meta["offensive"], meta["not_offensive"])
    hits = _read_json(out / "dataset_lexicon_hits.json")
    reported = re.search(r"(\d+) comments matched the lexicon", stdout)
    if not hits or not reported or int(reported.group(1)) != len(hits):
        problems.append("ingest: lexicon hits missing or miscounted")
    return problems


def check_balance(inp: Inputs, out: Path, stdout: str) -> list[str]:
    off, not_off = inp.meta["offensive"], inp.meta["not_offensive"]
    match = _BALANCE_RE.search(stdout)
    want = (off, not_off, off, off, 2 * off)
    if not match or tuple(map(int, match.groups())) != want:
        return [f"balance: summary does not read {want}"]
    return _dataset_problems("balance", out / "balanced.json", off, off)


def check_analyze(inp: Inputs, out: Path, stdout: str) -> list[str]:
    charts = out / "charts"
    missing = [name for name in ANALYZE_FILES if not (charts / name).is_file()]
    if missing:
        return [f"analyze: missing {missing}"]
    want_rows = analyze_reference(out / "dataset.json")
    problems = [
        f"analyze: {name} differs from the recount of the dataset"
        for name in ANALYZE_FILES
        if _csv_rows(charts / name)[1:] != want_rows[name]
    ]
    got = file_digests(charts, ANALYZE_FILES)
    recorded = _recorded_digests()
    key = digest_key(inp)
    if inp.record_digests:
        recorded[key] = got
        DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    elif key in recorded:
        want = recorded[key]
        problems += [f"analyze: {name} differs from the recorded digest" for name in ANALYZE_FILES if got[name] != want.get(name)]
    return problems


def digest_key(inp: Inputs) -> str:
    return f"{inp.seed}:{inp.meta['scale']}"


def unchecked_digests(wl: Workload, inp: Inputs) -> bool:
    """True when the workload runs analyze but no digests are recorded for
    its seed and scale, so only the recount checks the CSVs."""
    return ANALYZE in wl.commands and not inp.record_digests and digest_key(inp) not in _recorded_digests()


_REFERENCE: dict[str, dict[str, list[list[str]]]] = {}


def analyze_reference(dataset: Path) -> dict[str, list[list[str]]]:
    """The rows (header excluded) every analyze CSV must hold for this
    dataset, recounted here and cached by the dataset's digest.

    N-gram windows, rankings, length buckets, emoji tallies and presence
    fractions are computed in this file; only the preprocessing and the
    emoji tables come from ``modkit.textprep``. The recorded digests pin
    textprep's share too, for the seeds they cover.
    """
    raw = dataset.read_bytes()
    key = hashlib.sha256(raw).hexdigest()
    if key not in _REFERENCE:
        _REFERENCE[key] = _recount(json.loads(raw)["entries"])
    return _REFERENCE[key]


def _ranked(counts: Counter) -> list[list[str]]:
    return [[key, str(count)] for key, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def _recount(entries: list[dict]) -> dict[str, list[list[str]]]:
    from modkit import textprep

    offensive = [e for e in entries if e["label"] == 1]
    rows = {}
    for when, steps in (("before", ANALYZE_STEPS), ("after", ANALYZE_STEPS + ["stopword_removal"])):
        config = textprep.PreprocessConfig(steps={textprep.Step(step) for step in steps})
        streams = [textprep.run_pipeline(e["text"], config, source_id=e["id"]).tokens for e in offensive]
        for n, name in ((1, "uni"), (2, "bi"), (3, "tri")):
            grams = Counter(" ".join(t[i:i + n]) for t in streams for i in range(len(t) - n + 1))
            rows[f"ngrams_{name}_{when}.csv"] = _ranked(grams)[:TOP_K]
    for name, subset in (("length_overall.csv", entries), ("length_offensive.csv", offensive)):
        buckets = Counter(len(e["text"]) // BUCKET_WIDTH * BUCKET_WIDTH for e in subset)
        rows[name] = [[str(start), str(buckets[start])] for start in sorted(buckets)]
    aliases = textprep.default_emoji_aliases()
    tally, seen, hits = Counter(), Counter(), Counter()
    for e in entries:
        text = textprep.normalize_emoticons(e["text"])
        found = [aliases.get(ch, textprep.UNKNOWN_EMOJI_ALIAS) for ch in text if textprep.is_emoji_char(ch)]
        found += [chunk[1:-1] for chunk in text.split() if textprep.is_alias_placeholder(chunk)]
        tally.update(found)
        seen[e["label"]] += 1
        hits[e["label"]] += bool(found)

    def presence(hit: int, total: int) -> str:
        return f"{float(round(Fraction(hit, total), 4)) if total else 0.0:.4f}"

    rows["emoji_stats.csv"] = _ranked(tally) + [
        ["presence_overall", presence(hits[0] + hits[1], seen[0] + seen[1])],
        ["presence_offensive", presence(hits[1], seen[1])],
        ["presence_nonoffensive", presence(hits[0], seen[0])],
    ]
    return rows


def check_bert_prep(inp: Inputs, out: Path, stdout: str) -> list[str]:
    summary = _read_json(out / "bert_prep.json")
    n = 2 * inp.meta["offensive"]
    problems = []
    if summary["comments"] != n or summary["encodings"] != n or summary["framed"] != n:
        problems.append(f"bert_prep: expected {n} framed encodings")
    if not summary["words"] > 0:
        problems.append("bert_prep: no words")
    if summary["pieces_per_word_aug"] > summary["pieces_per_word_base"]:
        problems.append("bert_prep: augmentation increased fragmentation")
    if summary["vocab_augmented"] <= summary["vocab_base"]:
        problems.append("bert_prep: vocabulary did not grow")
    return problems


def _check_train(model: str) -> Callable[[Inputs, Path, str], list[str]]:
    def check(inp: Inputs, out: Path, stdout: str) -> list[str]:
        run = _run_dir(out / f"runs_{model}")
        report = _read_json(run / "train_report.json")
        manifest = _read_json(run / "manifest.json")
        problems = []
        cycles = report["cycles"]
        if len(cycles) != TRAIN_CYCLES or len(re.findall(r"^cycle \d+:", stdout, re.M)) != TRAIN_CYCLES:
            problems.append(f"train {model}: expected {TRAIN_CYCLES} cycles")
        for name, digest in manifest["checksums"].items():
            if hashlib.sha256((run / name).read_bytes()).hexdigest() != digest:
                problems.append(f"train {model}: checksum of {name} does not match the manifest")
        n = 2 * inp.meta["offensive"]
        for i, cycle in enumerate(cycles):
            for fold in ("validation", "test"):
                total = sum(cycle[fold]["matrix"].values())
                if total != _fold_size(n):
                    problems.append(f"train {model}: cycle {i} {fold} fold has {total}, want {_fold_size(n)}")
                problems += _metric_problems(f"train {model} cycle {i} {fold}", cycle[fold])
        best = cycles[report["best_cycle_index"]]["test"]
        problems += _floor_problems(f"train {model}", best, inp.meta, "f1_floor_test")
        return problems

    return check


def _check_eval(model: str) -> Callable[[Inputs, Path, str], list[str]]:
    def check(inp: Inputs, out: Path, stdout: str) -> list[str]:
        run = _run_dir(out / f"runs_{model}")
        (variant,) = _read_json(run / "eval_report.json")["variants"]
        report = _read_json(run / "train_report.json")
        best = report["cycles"][report["best_cycle_index"]]["test"]
        problems = _metric_problems(f"eval {model}", variant)
        if variant["matrix"] != best["matrix"]:
            problems.append(f"eval {model}: confusion differs from the best cycle's test fold")
        problems += [
            f"eval {model}: {key} drifted from train's {best[key]!r}"
            for key in ("f1", "accuracy", "precision", "recall", "specificity")
            if not math.isclose(variant[key], best[key], rel_tol=REL_TOL, abs_tol=0.0)
        ]
        return problems + _floor_problems(f"eval {model}", variant, inp.meta, "f1_floor_test")

    return check


def _check_eval_full(model: str) -> Callable[[Inputs, Path, str], list[str]]:
    def check(inp: Inputs, out: Path, stdout: str) -> list[str]:
        (variant,) = _read_json(out / f"full_{model}" / "eval_report.json")["variants"]
        m = variant["matrix"]
        problems = _metric_problems(f"eval --full {model}", variant)
        if sum(m.values()) != inp.meta["labeled"] or m["tp"] + m["fn"] != inp.meta["offensive"]:
            problems.append(f"eval --full {model}: confusion does not cover the labeled set")
        return problems + _floor_problems(f"eval --full {model}", variant, inp.meta, "f1_floor_full")

    return check


# ---------------------------------------------------------------------------
# Commands


def _train_argv(model: str, cycles: int) -> Callable[[Inputs, Path], list[str]]:
    return lambda inp, out: [
        "train", "--dataset", str(inp.balanced), "--out", str(out / f"runs_{model}"),
        "--model", model, "--seed", str(inp.seed), "--cycles", str(cycles),
        "--set", "steps=" + json.dumps(ALL_STEPS),
    ]


INGEST = Command(
    "ingest",
    lambda inp, out: ["ingest", *inp.trees(), "--labels", str(inp.corpus / "labels.json"),
                      "--lexicon", str(inp.corpus / "lexicon.tsv"), "--out", str(out / "dataset.json")],
    check_ingest,
)
BALANCE = Command(
    "balance",
    lambda inp, out: ["balance", "--dataset", str(out / "dataset.json"), "--seed", str(inp.seed),
                      "--out", str(out / "balanced.json")],
    check_balance,
)
ANALYZE = Command(
    "analyze",
    lambda inp, out: ["analyze", "--dataset", str(out / "dataset.json"), "--out", str(out / "charts"),
                      "--top-k", str(TOP_K)],
    check_analyze,
)
BERT_PREP = Command(
    "bert_prep",
    lambda inp, out: ["--dataset", str(out / "balanced.json"), "--slang", str(inp.corpus / "slang.txt"),
                      "--out", str(out / "bert_prep.json")],
    check_bert_prep,
    driver="bert_prep.py",
)


def _train(model: str, cycles: int = TRAIN_CYCLES) -> Command:
    check = _check_train(model) if cycles == TRAIN_CYCLES else (lambda inp, out, stdout: [])
    return Command(f"train_{model}", _train_argv(model, cycles), check)


def _eval(model: str) -> Command:
    return Command(
        f"eval_{model}",
        lambda inp, out: ["eval", "--run", str(_run_dir(out / f"runs_{model}")), "--dataset", str(inp.balanced)],
        _check_eval(model),
    )


def _eval_full(model: str) -> Command:
    return Command(
        f"eval_full_{model}",
        lambda inp, out: ["eval", "--run", str(_run_dir(inp.setup_dir / f"runs_{model}")), "--dataset",
                          str(inp.dataset), "--full", "--out", str(out / f"full_{model}")],
        _check_eval_full(model),
    )


#: Corpus scales keep one pass of each workload to a few seconds on a
#: shared 2-core machine, so a 60 s run holds several passes and the whole
#: benchmark stays within its time budget. The shares in the why sentences
#: are of the traced in-process time plus ``cli.import_s`` per command, at
#: seeds 1 and 5. ``run.py --scale 1`` runs the
#: paper's sizes (77,684 labeled comments, balanced to 4,068). BENCHMARK.json
#: gates corpus_analytics and train_cycles; score_full, whose short
#: processes spread most between runs on a shared host, is run by name.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus_analytics",
            scale=0.15,
            why="0.15-scale corpus (11,653 labeled) via ingest, balance, analyze, bert_prep; traced: "
            "emoji and text scans 41%, start-up 30%, corpus 18%, wordpiece 2%; no vectorize or models",
            setup=(),
            commands=(INGEST, BALANCE, ANALYZE, BERT_PREP),
        ),
        Workload(
            "train_cycles",
            scale=0.15,
            why="train --cycles 5 for NB and LR plus test-fold eval on the 0.15-scale balanced set; traced: "
            "5x preprocessing 42%, dense LR 33%, start-up 17%; where preprocess-once and CSR show",
            setup=(INGEST, BALANCE),
            commands=(_train("nb"), _eval("nb"), _train("lr"), _eval("lr")),
        ),
        Workload(
            "score_full",
            scale=0.05,
            why="eval --full of one NB and one LR run over the 0.05-scale unbalanced labeled set: "
            "read-many inference, each comment preprocessed once, no training",
            setup=(INGEST, BALANCE, _train("nb", cycles=1), _train("lr", cycles=1)),
            commands=(_eval_full("nb"), _eval_full("lr")),
        ),
    )
}
