"""Seeded fuzz test of ``main()``: every kind of input, corrupted by
truncation, by a value of the wrong type, by deep nesting, by bytes that
are not UTF-8 or by a lone surrogate escape, ends with exit code 2
(usage), 3 (data) or 4 (numeric) and one ``error:`` line, never a
traceback. The last two name the file and exit 2 for a config file, 3
for any other.

A case is (input kind, corruption, seed). The seed picks where to cut
the text, which JSON node to replace and with what; a failure message
names all three so the case can be replayed. A corrupted run artifact
is resealed in its manifest, so its loader has to catch the damage; an
artifact or data tables that differ from their recorded sha256 have
cases of their own. An error in a tree or dataset names the file, and
one in JSON that does not parse gives its line and column.
"""

from __future__ import annotations

import copy
import json
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

import modkit
from modkit.cli import main
from modkit.textprep import Step

from _fuzz import reseal

#: Far past the JSON decoder's recursion limit on every supported Python.
DEEP = 100_000
DEEP_MARK = "@@deep@@"
#: Byte runs no UTF-8 decoder accepts: a bad start byte, a cut sequence,
#: an encoded surrogate, an overlong slash and a code point past U+10FFFF.
NOT_UTF8 = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90\x80\x80")
#: Strings holding a surrogate outside a pair, which JSON can escape but
#: no UTF-8 output can hold.
LONE_SURROGATES = ("\udc00", "a\ud800", "\udbff!", "\udc00\ud800", "😂\ud83d")
SEEDS = range(10)
#: One value of each JSON kind; a wrong type is one of another kind.
VALUES = (None, True, 7, -2.5, "x", [], {})

TREE = {
    "post_id": "p1",
    "post_author": "op",
    "comments": [
        {
            "id": "c1", "author": "u1", "text": "ur so dumb lol 😂", "timestamp": "2024-01-01",
            "replies": [{"id": "c2", "author": "u2", "text": "shut up :)", "replies": []}],
        },
        {"id": "c3", "author": "u3", "text": "nice cats", "replies": []},
    ],
}
CONFIG = {
    "seed": 3, "model": "nb", "emoji_mode": "ml", "alpha": 1.0, "learning_rate": 0.1,
    "epochs": 5, "l2": 0.0001, "ratios": [0.8, 0.1, 0.1], "n_cycles": 1,
    "steps": ["lowercasing", "punctuation_removal"], "variant_name": "fuzz",
}


def kind_of(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def node_paths(obj, path=()):
    """Paths of every node of a decoded JSON document, root first."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from node_paths(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from node_paths(value, (*path, i))


def replaced(obj, path, value):
    if not path:
        return value
    obj = copy.deepcopy(obj)
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return obj


def lookup(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def corrupt(text: str, how: str, rng: random.Random) -> tuple[bytes, tuple]:
    """The corrupted file content and the path of the node replaced
    (``()`` for a cut or inserted bytes)."""
    if how == "truncate":
        return text[: rng.randrange(1, len(text))].encode("utf-8"), ()
    if how == "not_utf8":
        raw = text.encode("utf-8")
        at = rng.randrange(len(raw) + 1)
        return raw[:at] + rng.choice(NOT_UTF8) + raw[at:], ()
    obj = json.loads(text)
    path = rng.choice(list(node_paths(obj)))
    if how == "wrong_type":
        old = kind_of(lookup(obj, path))
        value = rng.choice([v for v in VALUES if kind_of(v) != old])
        return json.dumps(replaced(obj, path, value), ensure_ascii=False).encode("utf-8"), path
    marked = json.dumps(replaced(obj, path, DEEP_MARK), ensure_ascii=False)
    if how == "lone_surrogate":  # json.dumps escapes the surrogate as \uXXXX
        escaped = json.dumps(rng.choice(LONE_SURROGATES))
        return marked.replace(json.dumps(DEEP_MARK), escaped).encode("utf-8"), path
    return marked.replace(json.dumps(DEEP_MARK), "[" * DEEP + "]" * DEEP).encode("utf-8"), path


@dataclass(frozen=True)
class Kind:
    """One kind of input: the file (in a copy of the base directory) that
    is corrupted, and the command that reads it. Nodes under ``unread``
    (path prefixes, ``None`` matching any key) are fields the command
    does not read, so a wrong type there may also pass."""

    name: str
    file: str
    argv: str  # ``{w}`` stands for the work directory
    unread: tuple[tuple, ...] = ()

    def command(self, work: Path) -> list[str]:
        return [part.format(w=work) for part in self.argv.split()]

    def reads(self, path: tuple) -> bool:
        return not any(
            len(path) >= len(prefix) and all(p in (None, q) for p, q in zip(prefix, path))
            for prefix in self.unread
        )


EVAL = "eval --run {w}/run --dataset {w}/dataset.json"
KINDS = [
    Kind("tree", "tree.json", "ingest {w}/tree.json --out {w}/d.json"),
    Kind("labels", "labels.json", "ingest {w}/tree.json --labels {w}/labels.json --out {w}/d.json"),
    Kind("dataset", "dataset.json", "balance --dataset {w}/dataset.json --out {w}/b.json"),
    Kind("config", "config.json", "train --config {w}/config.json --dataset {w}/dataset.json --out {w}/r"),
    Kind("report", "report.json", "report --inputs {w}/report.json --out {w}/merged"),
    Kind("manifest", "run/manifest.json", EVAL, unread=(("version",), ("timings",), ("numpy",))),
    Kind("tfidf", "run/tfidf.json", EVAL),
    Kind("model_nb", "run/model.json", EVAL),
    Kind("model_lr", "run_lr/model.json", "eval --run {w}/run_lr --dataset {w}/dataset.json"),
    Kind(
        "train_report", "run/train_report.json", EVAL,
        unread=(("variant_name",), ("cycles", None, "validation"), ("cycles", None, "test")),
    ),
]


@pytest.fixture(scope="module")
def base(tmp_path_factory, separable_paths) -> Path:
    """Valid inputs of every kind: a tree, labels, a dataset, a config, a
    report and the run directories of one NB and one LR training."""
    work = tmp_path_factory.mktemp("fuzz_base")
    trees, labels = separable_paths
    (work / "tree.json").write_text(json.dumps(TREE, ensure_ascii=False), encoding="utf-8")
    (work / "labels.json").write_text(json.dumps({"c1": 1, "c2": 0, "c3": 0}), encoding="utf-8")
    (work / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    dataset = str(work / "dataset.json")
    assert main(["ingest", *map(str, trees), "--labels", str(labels), "--out", dataset]) == 0
    for model, name in (("nb", "run"), ("lr", "run_lr")):
        out = work / f"runs_{model}"
        assert main(["train", "--dataset", dataset, "--out", str(out), "--model", model]) == 0
        next(out.iterdir()).rename(work / name)
        out.rmdir()
    assert main(["eval", "--run", str(work / "run"), "--dataset", dataset]) == 0
    shutil.copy(work / "run" / "eval_report.json", work / "report.json")
    return work


def check_one_line_error(code: int, err: str, case: str, may_pass: bool = False) -> None:
    assert "Traceback" not in err, case
    if code == 0 and may_pass:
        return
    assert code in (2, 3, 4), f"{case}: exit {code}"
    assert err.startswith("error: ") and err.count("\n") == 1, f"{case}: {err[:300]!r}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("how", ["truncate", "wrong_type", "deep", "not_utf8", "lone_surrogate"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_corrupted_file(tmp_path, capsys, base, kind, how, seed):
    work = tmp_path / "work"
    shutil.copytree(base, work)
    target = work / kind.file
    rng = random.Random(f"{kind.name}/{how}/{seed}")
    data, path = corrupt(target.read_text(encoding="utf-8"), how, rng)
    target.write_bytes(data)
    if target.name != "manifest.json" and target.parent.name.startswith("run"):
        reseal(target.parent)
    capsys.readouterr()
    code = main(kind.command(work))
    err = capsys.readouterr().err
    case = f"{kind.name} {how} seed={seed} at {list(path)}"
    may_pass = how == "wrong_type" and not kind.reads(path)
    check_one_line_error(code, err, case, may_pass)
    if how in ("not_utf8", "lone_surrogate"):
        assert code == (2 if kind.name == "config" else 3), f"{case}: exit {code}"
        assert f"error: {target} " in err, f"{case}: {err!r}"
    elif code and kind.name in ("tree", "dataset"):
        assert err.startswith(f"error: {target}: "), f"{case}: {err!r}"
    if how == "truncate":
        assert re.search(r": .* at line \d+ column \d+\b", err), f"{case}: {err!r}"


#: --set overrides whose value any cut leaves invalid: an array, or a
#: string with a closed set of accepted values.
CUTTABLE = ("model", "emoji_mode", "steps", "ratios")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("how", ["truncate", "wrong_type", "deep", "not_utf8", "lone_surrogate"])
def test_corrupted_set_value(tmp_path, capsys, base, how, seed):
    rng = random.Random(f"set/{how}/{seed}")
    key = rng.choice(CUTTABLE if how == "truncate" else sorted(CONFIG))
    raw, path = corrupt(json.dumps(CONFIG[key]), how, rng)
    value = raw.decode("utf-8", "surrogateescape")  # as Python decodes argv
    argv = ["train", "--dataset", str(base / "dataset.json"), "--out", str(tmp_path / "runs")]
    capsys.readouterr()
    code = main([*argv, "--set", f"{key}={value}"])
    case = f"--set {key} {how} seed={seed} at {list(path)}"
    check_one_line_error(code, capsys.readouterr().err, case)
    if how in ("not_utf8", "lone_surrogate"):
        assert code == 2, f"{case}: exit {code}"


def test_artifact_from_another_run_exits_3(tmp_path, capsys, base):
    """An LR model copied into an NB run is a valid model file, but not
    the one the manifest recorded."""
    work = tmp_path / "work"
    shutil.copytree(base, work)
    shutil.copy(work / "run_lr" / "model.json", work / "run" / "model.json")
    capsys.readouterr()
    code = main(["eval", "--run", str(work / "run"), "--dataset", str(work / "dataset.json")])
    err = capsys.readouterr().err
    check_one_line_error(code, err, "LR model in an NB run")
    assert code == 3 and "model.json differs from the sha256" in err


def test_changed_stoplist_exits_3(tmp_path, capsys, base, stop_list_dir):
    """A run records the sha256 of the tables its steps read, the words of
    the data directory's stop list included; eval of the run under a data
    directory whose stop list gives other words is a data error naming
    that directory."""
    stop_list_dir("the\nnice\n")
    dataset, out = str(base / "dataset.json"), tmp_path / "runs"
    assert main(["train", "--dataset", dataset, "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    assert main(["eval", "--run", str(run_dir), "--dataset", dataset]) == 0
    tables = stop_list_dir("the\n")
    capsys.readouterr()
    code = main(["eval", "--run", str(run_dir), "--dataset", dataset])
    err = capsys.readouterr().err
    check_one_line_error(code, err, "changed stop list")
    assert code == 3 and "tables the steps read differs from the sha256" in err
    assert err.startswith(f"error: with MODKIT_DATA_DIR={tables}, the content of the tables"), err


def test_changed_data_tables_exit_3(tmp_path, capsys, base, monkeypatch):
    """Emptied stop-word and suffix-rule tables under MODKIT_DATA_DIR give
    another run directory, and eval in either mode of a run trained on the
    bundled tables is a data error under them, and the other way round;
    the message names the data directory in use."""
    steps = json.dumps([step.value for step in Step])
    dataset = str(base / "dataset.json")
    argv = ["train", "--dataset", dataset, "--model", "lr", "--cycles", "5", "--set", f"steps={steps}"]
    assert main([*argv, "--out", str(tmp_path / "bundled")]) == 0
    (run_dir,) = (tmp_path / "bundled").iterdir()
    tables = tmp_path / "tables"
    shutil.copytree(Path(modkit.__file__).parent / "data", tables)
    for name in ("stopwords.txt", "lemma_rules.tsv"):
        (tables / name).write_bytes(b"")
    monkeypatch.setenv("MODKIT_DATA_DIR", str(tables))
    assert main([*argv, "--out", str(tmp_path / "emptied")]) == 0
    (other,) = (tmp_path / "emptied").iterdir()
    assert other.name != run_dir.name
    for full in ([], ["--full"]):
        capsys.readouterr()
        code = main(["eval", "--run", str(run_dir), "--dataset", dataset, *full])
        err = capsys.readouterr().err
        check_one_line_error(code, err, f"emptied tables {full}")
        assert code == 3 and "tables the steps read differs from the sha256" in err
        assert f"with MODKIT_DATA_DIR={tables}, " in err
    monkeypatch.delenv("MODKIT_DATA_DIR")
    capsys.readouterr()
    assert main(["eval", "--run", str(other), "--dataset", dataset]) == 3
    bundled = Path(modkit.__file__).parent / "data"
    assert f"with MODKIT_DATA_DIR unset (the bundled tables in {bundled}), " in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage",
    [
        lambda m: m.pop("checksums"),
        lambda m: m.update(checksums=[]),
        lambda m: m["checksums"].pop("tfidf.json"),
        lambda m: m["checksums"].update({"model.json": 5}),
        lambda m: m["checksums"].update({"train_report.json": "0" * 64}),
        lambda m: m.pop("tables_sha256"),
        lambda m: m.update(tables_sha256=5),
        lambda m: m.update(tables_sha256="0" * 64),
    ],
    ids=[
        "no_checksums", "checksums_not_object", "no_tfidf_sum", "model_sum_not_string",
        "report_sum_wrong", "no_tables_sum", "tables_sum_not_string", "tables_sum_wrong",
    ],
)
def test_bad_checksums_exit_3(tmp_path, capsys, base, damage):
    work = tmp_path / "work"
    shutil.copytree(base, work)
    path = work / "run" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    damage(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--run", str(work / "run"), "--dataset", str(work / "dataset.json"), "--full"])
    check_one_line_error(code, capsys.readouterr().err, "bad checksums")
    assert code == 3


LEXICON = ("terms.tsv", "dumb\tderogatory\n")
STOPLIST = ("tables/stopwords.txt", "the\nnice\n")


@pytest.mark.parametrize("bad", NOT_UTF8, ids=lambda b: b.hex())
@pytest.mark.parametrize(
    "file, argv, out",
    [
        (LEXICON, "ingest {w}/tree.json --lexicon {w}/terms.tsv --out {w}/d.json", "d.json"),
        (STOPLIST, "analyze --dataset {w}/dataset.json --out {w}/c", "c"),
        (STOPLIST, "train --dataset {w}/dataset.json --out {w}/r", "r"),
    ],
    ids=["ingest_lexicon", "analyze_stoplist", "train_stoplist"],
)
def test_text_file_not_utf8_writes_nothing(tmp_path, capsys, base, monkeypatch, file, argv, out, bad):
    """A lexicon, or the stop list of the MODKIT_DATA_DIR tables, holding
    bytes that are not UTF-8 is refused with one line naming it, before
    any output exists."""
    work = tmp_path / "work"
    shutil.copytree(base, work)
    shutil.copytree(Path(modkit.__file__).parent / "data", work / "tables")
    monkeypatch.setenv("MODKIT_DATA_DIR", str(work / "tables"))
    name, text = file
    raw = text.encode("utf-8")
    (work / name).write_bytes(raw[:3] + bad + raw[3:])
    capsys.readouterr()
    code = main([part.format(w=work) for part in argv.split()])
    err = capsys.readouterr().err
    check_one_line_error(code, err, argv)
    assert code == 3 and f"error: {work / name} is not UTF-8" in err, err
    assert not (work / out).exists()


@pytest.mark.parametrize(
    "argv, out",
    [
        ("ingest {w}/tree.json --out {w}/d.json", "d.json"),
        ("balance --dataset {w}/dataset.json --out {w}/b.json", "b.json"),
        ("analyze --dataset {w}/dataset.json --out {w}/charts", "charts"),
    ],
    ids=["ingest", "balance", "analyze"],
)
def test_lone_surrogate_text_writes_nothing(tmp_path, capsys, base, argv, out):
    """A comment text holding a lone surrogate is refused when its file
    is read, before any output exists."""
    work = tmp_path / "work"
    shutil.copytree(base, work)
    for name, edit in (
        ("tree.json", lambda obj: obj["comments"][1].update(text="nice \udc00 cats")),
        ("dataset.json", lambda obj: obj["entries"][-1].update(text="\ud800")),
    ):
        obj = json.loads((work / name).read_text(encoding="utf-8"))
        edit(obj)
        (work / name).write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    code = main([part.format(w=work) for part in argv.split()])
    err = capsys.readouterr().err
    check_one_line_error(code, err, argv)
    assert code == 3 and "lone surrogate" in err
    assert not (work / out).exists()


@pytest.mark.parametrize("out", ["", ".", ".."])
@pytest.mark.parametrize(
    "argv",
    ["ingest {w}/tree.json --out", "balance --dataset {w}/dataset.json --out", "report --reference --out"],
    ids=["ingest", "balance", "report"],
)
def test_out_naming_no_file_writes_nothing(tmp_path, capsys, base, monkeypatch, argv, out):
    """An ``--out`` that names a directory rather than a file is refused
    with one line, and no file or ``.tmp`` is left in that directory."""
    work = tmp_path / "work"
    shutil.copytree(base, work)
    monkeypatch.chdir(work)
    before = sorted(path.name for path in tmp_path.rglob("*"))
    capsys.readouterr()
    code = main([part.format(w=work) for part in argv.split()] + [out])
    err = capsys.readouterr().err
    check_one_line_error(code, err, f"{argv} {out!r}")
    assert code == 2
    assert sorted(path.name for path in tmp_path.rglob("*")) == before


ANALYZE = "analyze --dataset {w}/dataset.json --out {w}/c"
TRAIN = "train --dataset {w}/dataset.json --out {w}/r"
REPORT = "report --reference --out {w}/rep/report"


@pytest.mark.parametrize(
    "table, tail, argv, out, message",
    [
        ("emoji_aliases.tsv", b"\xff\tbad\n", ANALYZE, "c", "is not UTF-8"),
        ("lemma_exceptions.tsv", b"notab\n", TRAIN, "r", "key<TAB>value on line"),
        ("lemma_rules.tsv", b"ing\t\tnan\n", TRAIN, "r", "min_stem on line"),
        ("reference_scores.json", b"\xff", REPORT, "rep", "is not UTF-8"),
        ("emoticons.tsv", b"xD\tlaughing\n", ANALYZE, "c", "letters-only emoticon key 'xD' on line"),
        ("emoticons.tsv", b"xD\tlaughing\n", TRAIN + ' --set steps=["emoji_encoding"]', "r",
         "letters-only emoticon key 'xD' on line"),
        ("emoji_aliases.tsv", "😀\t\n".encode(), ANALYZE, "c", "alias '' is no placeholder body on line"),
        ("emoji_aliases.tsv", "\u2764\ufe0f\tred_heart\n".encode(), ANALYZE, "c",
         "emoji key '\u2764\ufe0f' is not one emoji character on line"),
        ("lemma_exceptions.tsv", b"bagud\t\n", TRAIN + ' --set steps=["lemmatization"]', "r",
         "empty lemma for 'bagud' on line"),
        ("emoticons.tsv", b":)\tsad\n", ANALYZE, "c", "repeated key ':)' on line"),
        ("lemma_exceptions.tsv", b"writing\twrit\n", TRAIN + ' --set steps=["lemmatization"]', "r",
         "repeated key 'writing' on line"),
        ("lemma_rules.tsv", b"\tx\t1\n", TRAIN, "r", "empty suffix on line"),
        ("lemma_rules.tsv", b"i ng\t\t1\n", ANALYZE, "c", "suffix 'i ng' holds whitespace on line"),
        ("lemma_rules.tsv", b"ing\tx\xc2\xa0y\t1\n", TRAIN, "r",
         "replacement 'x\\xa0y' holds whitespace on line"),
        ("lemma_exceptions.tsv", b"run\trun fast\n", TRAIN + ' --set steps=["lemmatization"]', "r",
         "lemma 'run fast' holds whitespace on line"),
        ("lemma_exceptions.tsv", b"ran away\trun\n", ANALYZE, "c", "word 'ran away' holds whitespace on line"),
    ],
    ids=["analyze_aliases_not_utf8", "train_exceptions_no_tab", "train_rules_bad_min_stem",
         "report_reference_not_utf8", "analyze_emoticon_letters_only",
         "train_emoticon_letters_only", "analyze_alias_empty", "analyze_alias_key_not_one_emoji",
         "train_lemma_empty", "analyze_emoticon_repeated", "train_lemma_repeated",
         "train_rule_empty_suffix", "analyze_rule_suffix_spaced", "train_rule_replacement_spaced",
         "train_lemma_spaced", "analyze_exception_word_spaced"],
)
def test_bad_data_table_writes_nothing(
    tmp_path, capsys, base, monkeypatch, table, tail, argv, out, message
):
    """A data table under MODKIT_DATA_DIR that is not UTF-8 or holds a
    malformed line is refused with one line naming it, before any output
    exists."""
    work, tables = tmp_path / "work", tmp_path / "tables"
    shutil.copytree(base, work)
    shutil.copytree(Path(modkit.__file__).parent / "data", tables)
    with open(tables / table, "ab") as f:
        f.write(tail)
    monkeypatch.setenv("MODKIT_DATA_DIR", str(tables))
    capsys.readouterr()
    code = main([part.format(w=work) for part in argv.split()])
    err = capsys.readouterr().err
    check_one_line_error(code, err, argv)
    assert code == 3 and f"{tables / table}" in err and message in err, err
    assert not (work / out).exists()
