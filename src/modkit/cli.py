"""Command-line front end: reproducible ingest/analyze/train/eval runs.

    modkit ingest  tree.json [...] --labels labels.json --out dataset.json
    modkit balance --dataset dataset.json --seed 7 --out balanced.json
    modkit analyze --dataset dataset.json --out charts/
    modkit train   --dataset dataset.json --out runs/ --model nb --seed 7
    modkit eval    --run runs/<hash> --dataset dataset.json
    modkit report  --inputs eval_report.json [...] --reference --out report

Exit codes: 0 success, 2 usage/configuration, 3 data errors, 4 numeric
errors. Training artifacts land in a run directory named by the hash of
the effective configuration, so re-running the same experiment
overwrites the same files with byte-identical content.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from . import __version__, _atomic, analytics, corpus, evaluate, models, textprep, vectorize
from .errors import ConfigError, ModkitError, SchemaViolationError, load_json, read_json_text

def _load_config_file(path: str) -> dict:
    try:
        obj = load_json(read_json_text(path), f"config {path} is not valid JSON")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ModkitError as exc:  # bytes or JSON that do not parse: a usage error here
        raise ConfigError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return obj


def _apply_set_overrides(config: dict, overrides: Sequence[str]) -> None:
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value  # not JSON: the plain string
        except RecursionError:
            raise ConfigError(f"--set {key}: nesting too deep") from None
        try:  # argv holds undecodable bytes as lone surrogates, and JSON can escape them
            json.dumps(parsed, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"--set {key}: value holds a lone surrogate") from None
        config[key] = parsed


def build_run_config(args: argparse.Namespace) -> models.RunConfig:
    config: dict = {}
    if getattr(args, "config", None):
        config.update(_load_config_file(args.config))
    _apply_set_overrides(config, getattr(args, "set", None) or [])
    # explicit flags win over config file and --set
    for name in ("seed", "model", "emoji_mode", "dataset", "stoplist", "out", "n_cycles"):
        value = getattr(args, name, None)
        if value is not None:
            config[name] = value
    return models.RunConfig(**config)


def _stoplist(config: models.RunConfig) -> frozenset[str] | None:
    """The ``--stoplist`` words, read only when a step reads them, as
    :meth:`~modkit.models.RunConfig.tables_sha256` counts them."""
    if config.stoplist and textprep.Step.STOPWORD_REMOVAL.value in config.steps:
        return textprep.load_stoplist(_require_file(config.stoplist, "stop-list file"))
    return None


def _require_file(path: str | Path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _read_json_text(path: str | Path, what: str) -> str:
    return read_json_text(_require_file(path, what))


#: Files of a run directory that its manifest checksums.
_ARTIFACTS = ("tfidf.json", "model.json", "train_report.json")


def _check_sha256(what: str, sha256: str, recorded, manifest_path: Path) -> None:
    """Exit 3 unless ``sha256``, that of ``what``, is the one its manifest recorded."""
    if not isinstance(recorded, str):
        raise SchemaViolationError(f"no sha256 recorded for {what}", str(manifest_path))
    if sha256 != recorded:
        raise ModkitError(f"{what} differs from the sha256 recorded in {manifest_path}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args: argparse.Namespace) -> int:
    all_comments: list[corpus.Comment] = []
    for tree_path in args.trees:
        data = _read_json_text(tree_path, "comment-tree file")
        all_comments.extend(corpus.flatten(corpus.parse_comment_tree(data)))
    unique = corpus.dedupe(all_comments)
    labels = corpus.load_labels(_require_file(args.labels, "label file")) if args.labels else {}
    lexicon = None
    if args.lexicon:
        lexicon = corpus.load_lexicon(_require_file(args.lexicon, "lexicon file"))
    known = {c.id for c in unique}  # labels on dropped duplicates are dropped too
    if args.strict_labels:  # keep labels on ids in no tree, for apply_labels to refuse
        known |= labels.keys() - {c.id for c in all_comments}
    labels = {cid: lab for cid, lab in labels.items() if cid in known}
    dataset, unlabeled = corpus.apply_labels(unique, labels)
    corpus.save_dataset(dataset, args.out)
    print(
        f"{len(all_comments)} total, {len(unique)} unique, "
        f"{len(dataset)} labeled ({dataset.n_offensive} offensive / "
        f"{dataset.n_not_offensive} not offensive), {unlabeled} unlabeled excluded"
    )
    if lexicon is not None:
        hits = corpus.lexicon_flag(unique, lexicon)
        hits_path = Path(args.out).with_name(Path(args.out).stem + "_lexicon_hits.json")
        corpus.save_lexicon_hits(hits, hits_path)
        print(f"{len(hits)} comments matched the lexicon -> {hits_path}")
    return 0


def cmd_balance(args: argparse.Namespace) -> int:
    dataset = corpus.load_dataset(_require_file(args.dataset, "dataset file"))
    balanced = corpus.balance(dataset, seed=args.seed)
    corpus.save_dataset(balanced, args.out)
    print(
        f"balanced {dataset.n_offensive}/{dataset.n_not_offensive} -> "
        f"{balanced.n_offensive}/{balanced.n_not_offensive} "
        f"({len(balanced)} total), seed={args.seed}"
    )
    return 0


_NGRAM_NAMES = {1: "uni", 2: "bi", 3: "tri"}


def cmd_analyze(args: argparse.Namespace) -> int:
    dataset = corpus.load_dataset(_require_file(args.dataset, "dataset file"))
    stoplist = (
        textprep.load_stoplist(_require_file(args.stoplist, "stop-list file"))
        if args.stoplist else textprep.default_stoplist()
    )
    dictionary = textprep.default_lemma_dictionary()
    offensive = [text for _, text, label in dataset.entries if label is corpus.Label.OFFENSIVE]
    # the string and punctuation steps once per comment, then each chart's token steps
    base = textprep.PreprocessConfig(
        {textprep.Step.LOWERCASING, textprep.Step.EMOJI_ENCODING, textprep.Step.PUNCTUATION_REMOVAL}
    )
    base_tokens = list(map(textprep.ChunkMemo(base), offensive))
    variants = {
        "before": [textprep.lemmatize(tokens, dictionary) for tokens in base_tokens],
        "after": [
            textprep.lemmatize(textprep.remove_stopwords(tokens, stoplist), dictionary)
            for tokens in base_tokens
        ],
    }
    # every table first, so a bad flag or dataset leaves no chart and no directory
    charts = {
        f"ngrams_{name}_{suffix}.csv": analytics.ngram_counts(streams, n, args.top_k)
        for suffix, streams in variants.items()
        for n, name in _NGRAM_NAMES.items()
    }
    charts["length_overall.csv"] = analytics.length_histogram(dataset.texts(), args.bucket_width)
    charts["length_offensive.csv"] = analytics.length_histogram(offensive, args.bucket_width)
    charts["emoji_stats.csv"] = analytics.emoji_stats(dataset, cap=args.cap)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in charts.items():
        analytics.export_chart_data(table, out_dir / name)
    print(f"wrote {len(charts)} chart files to {out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    if not config.dataset:
        raise ConfigError("a dataset file is required (--dataset or config)")
    dataset = corpus.load_dataset(_require_file(config.dataset, "dataset file"))
    dataset_sha256 = models.dataset_sha256(dataset)
    stoplist = _stoplist(config)
    if config.stoplist:  # so that eval finds it from any working directory
        config = config.replace(stoplist=str(Path(config.stoplist).resolve()))
    tables_sha256 = config.tables_sha256(stoplist)
    started = time.perf_counter()
    trained = models.run_cycles(dataset, config, stoplist)
    train_seconds = time.perf_counter() - started
    # created only once training succeeded, so a failed run leaves no directory
    run_dir = Path(config.out) / config.hash(dataset_sha256, tables_sha256)
    run_dir.mkdir(parents=True, exist_ok=True)
    report = trained.report
    for i, cycle in enumerate(report.cycles):
        marker = " *" if i == report.best_cycle_index else ""
        print(
            f"cycle {i}: seed={cycle.seed} val_f1={cycle.validation.f1:.4f} "
            f"val_acc={cycle.validation.accuracy:.4f}{marker}"
        )
    best = report.best
    print(
        f"best cycle {report.best_cycle_index}: test_f1={best.test.f1:.4f} "
        f"test_acc={best.test.accuracy:.4f}"
    )
    vectorize.save_tfidf(trained.tfidf, run_dir / "tfidf.json")
    models.save_model(trained.model, run_dir / "model.json")
    report_obj = {
        "variant_name": report.variant_name,
        "best_cycle_index": report.best_cycle_index,
        "cycles": [
            {
                "seed": c.seed,
                "validation": evaluate.report_to_dict(c.validation),
                "test": evaluate.report_to_dict(c.test),
            }
            for c in report.cycles
        ],
    }
    _atomic.write_text(run_dir / "train_report.json", json.dumps(report_obj, indent=2))
    manifest = {
        "config": config.asdict(),
        "dataset_sha256": dataset_sha256,
        "tables_sha256": tables_sha256,
        "version": __version__,
        "checksums": {name: models.file_sha256(run_dir / name) for name in _ARTIFACTS},
        "timings": {"train_seconds": train_seconds},
        "numpy": models.numpy_runtime(),
    }
    _atomic.write_text(run_dir / "manifest.json", json.dumps(manifest, indent=2))
    print(f"artifacts -> {run_dir}")
    return 0


def _load_run(
    run_dir: Path,
) -> tuple[models.RunConfig, frozenset[str] | None, vectorize.TfidfModel, models.NBModel | models.LRModel, dict]:
    manifest_path = _require_file(run_dir / "manifest.json", "run manifest")
    manifest = load_json(
        read_json_text(manifest_path), f"invalid manifest JSON in {manifest_path}"
    )
    config_obj = manifest.get("config") if isinstance(manifest, dict) else None
    if not isinstance(config_obj, dict):
        raise SchemaViolationError("manifest has no config object", str(manifest_path))
    try:
        config = models.RunConfig(**config_obj)
    except ConfigError as exc:
        raise SchemaViolationError(f"bad run config: {exc}", str(manifest_path)) from exc
    stoplist = _stoplist(config)
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict):
        raise SchemaViolationError("manifest has no checksums object", str(manifest_path))
    for name in _ARTIFACTS:
        path = _require_file(run_dir / name, "run artifact")
        _check_sha256(str(path), models.file_sha256(path), checksums.get(name), manifest_path)
    what = "the content of the tables the steps read"
    _check_sha256(what, config.tables_sha256(stoplist), manifest.get("tables_sha256"), manifest_path)
    tfidf = vectorize.load_tfidf(run_dir / "tfidf.json")
    model = models.load_model(run_dir / "model.json")
    return config, stoplist, tfidf, model, manifest


def _best_cycle_seed(report_path: Path, config: models.RunConfig) -> int:
    """Split seed of the best cycle in a run's train report, which holds the
    run's ``n_cycles`` cycles; ``train`` gives cycle i the run's seed plus i."""
    report = load_json(
        _read_json_text(report_path, "train report"), f"invalid train report JSON in {report_path}"
    )
    try:
        cycles, best = report["cycles"], report["best_cycle_index"]
        if len(cycles) != config.n_cycles:
            raise ValueError(f"{len(cycles)} cycles, not the run's {config.n_cycles}")
        if type(best) is not int or not 0 <= best < len(cycles):
            raise ValueError(f"best_cycle_index {best!r} is not a cycle of the report")
        seed = cycles[best]["seed"]
        if type(seed) is not int or seed != config.seed + best:
            raise ValueError(f"seed {seed!r} is not the run's seed {config.seed} + {best}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolationError(f"bad train report: {exc!r}", str(report_path)) from exc
    return seed


def cmd_eval(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    config, stoplist, tfidf, model, manifest = _load_run(run_dir)
    dataset_path = _require_file(args.dataset, "dataset file")
    dataset = corpus.load_dataset(dataset_path)
    if args.full:
        subset = dataset
        scope = "full dataset"
    else:
        if models.dataset_sha256(dataset) != manifest.get("dataset_sha256"):
            raise ModkitError(
                f"{dataset_path} is not the dataset {run_dir} was trained on (the sha256 "
                "of its entries differs from the manifest); use --full to score another dataset"
            )
        best_seed = _best_cycle_seed(run_dir / "train_report.json", config)
        _, _, subset = corpus.split(dataset, config.ratios, best_seed)
        scope = f"test fold of best cycle (seed={best_seed})"
    report = models.evaluate_on(tfidf, model, subset, config, stoplist)
    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic.write_text(out_dir / "eval_report.json", evaluate.render_json([report]))
    _atomic.write_text(out_dir / "eval_report.txt", evaluate.render_text_table([report]))
    print(f"evaluated {len(subset)} comments ({scope})")
    print(evaluate.render_text_table([report]), end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    variants: list[evaluate.MetricsReport] = []
    for input_path in args.inputs:
        variants.extend(
            evaluate.parse_report_json(_read_json_text(input_path, "report file"), str(input_path))
        )
    if args.reference:
        variants.extend(evaluate.load_reference_scores())
    if not variants:
        raise ConfigError("nothing to report: give --inputs and/or --reference")
    base = Path(args.out)
    if base.name in ("", ".."):
        raise ConfigError(f"--out {args.out!r} names a directory, not a file")
    base.parent.mkdir(parents=True, exist_ok=True)
    _atomic.write_text(base.with_name(base.name + ".json"), evaluate.render_json(variants))
    _atomic.write_text(base.with_name(base.name + ".txt"), evaluate.render_text_table(variants))
    print(evaluate.render_text_table(variants), end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modkit",
        description="Corpus analytics and offensive-content classification toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"modkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse comment trees into a labeled dataset")
    p_ingest.add_argument("trees", nargs="+", help="comment-tree JSON files")
    p_ingest.add_argument("--labels", default=None, help="JSON file: comment_id -> 0|1")
    p_ingest.add_argument("--lexicon", default=None, help="term lexicon TSV for flagging")
    p_ingest.add_argument("--out", required=True, help="dataset file to write")
    p_ingest.add_argument(
        "--strict-labels",
        action="store_true",
        help="fail if a label refers to an id missing from the trees",
    )
    p_ingest.set_defaults(func=cmd_ingest)

    p_balance = sub.add_parser("balance", help="undersample the majority class")
    p_balance.add_argument("--dataset", required=True)
    p_balance.add_argument("--seed", type=int, default=0)
    p_balance.add_argument("--out", required=True)
    p_balance.set_defaults(func=cmd_balance)

    p_analyze = sub.add_parser("analyze", help="write chart data files for a dataset")
    p_analyze.add_argument("--dataset", required=True)
    p_analyze.add_argument("--out", required=True, help="directory for CSV files")
    p_analyze.add_argument("--top-k", type=int, default=20)
    p_analyze.add_argument("--bucket-width", type=int, default=10)
    p_analyze.add_argument("--cap", type=int, default=None, help="per-comment emoji count cap")
    p_analyze.add_argument("--stoplist", default=None, help="stop-list file override")
    p_analyze.set_defaults(func=cmd_analyze)

    p_train = sub.add_parser("train", help="run training cycles and persist the best model")
    p_train.add_argument("--config", default=None, help="JSON config file")
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    p_train.add_argument("--dataset", default=None)
    p_train.add_argument("--out", default=None, help="parent directory for run dirs")
    p_train.add_argument("--model", choices=("nb", "lr"), default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--cycles", dest="n_cycles", type=int, default=None)
    p_train.add_argument("--emoji-mode", dest="emoji_mode", choices=("ml", "bert"), default=None)
    p_train.add_argument("--stoplist", default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a trained run on a dataset")
    p_eval.add_argument("--run", required=True, help="run directory written by train")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument(
        "--full",
        action="store_true",
        help="evaluate the whole dataset instead of the best cycle's test fold",
    )
    p_eval.add_argument("--out", default=None, help="directory for report files (default: run dir)")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="merge evaluation reports into one table")
    p_report.add_argument("--inputs", nargs="*", default=[], help="eval/report JSON files")
    p_report.add_argument(
        "--reference",
        action="store_true",
        help="append the bundled reference score rows",
    )
    p_report.add_argument("--out", required=True, help="output base path (.json/.txt added)")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
