"""End-to-end command-line behavior: subcommands, files, exit codes."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

import modkit
from modkit import analytics, errors, textprep, vectorize
from modkit.cli import main
from modkit.corpus import Label, LabeledDataset, load_dataset, save_dataset
from modkit.evaluate import load_reference_scores
from modkit.models import RunConfig, run_cycles, save_model

from _fuzz import messy_text, random_text, reply_chain, reseal

TREE = {
    "post_id": "p1",
    "post_author": "op",
    "comments": [
        {"id": "c1", "author": "u1", "text": "first comment", "replies": []},
        {"id": "c2", "author": "u2", "text": "second comment", "replies": []},
        {"id": "c3", "author": "u3", "text": "third comment", "replies": []},
    ],
}


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    return path


@pytest.fixture
def tree_path(tmp_path: Path) -> Path:
    return write_json(tmp_path / "tree.json", TREE)


def run_ingest(tmp_path: Path, separable_paths) -> Path:
    trees, labels = separable_paths
    dataset = tmp_path / "dataset.json"
    argv = ["ingest", *[str(p) for p in trees], "--labels", str(labels), "--out", str(dataset)]
    assert main(argv) == 0
    return dataset


class TestIngest:
    def test_summary_counts(self, tmp_path, tree_path, capsys):
        out = tmp_path / "dataset.json"
        assert main(["ingest", str(tree_path), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "3 total, 3 unique" in captured
        assert out.exists()

    def test_duplicates_across_files(self, tmp_path, capsys):
        first = write_json(tmp_path / "a.json", TREE)
        other = dict(TREE, post_id="p2")
        other = json.loads(json.dumps(other))
        for comment in other["comments"]:
            comment["id"] = comment["id"] + "x"
        second = write_json(tmp_path / "b.json", other)
        out = tmp_path / "dataset.json"
        assert main(["ingest", str(first), str(second), "--out", str(out)]) == 0
        assert "6 total, 3 unique" in capsys.readouterr().out

    def test_labels_and_classes(self, tmp_path, tree_path, capsys):
        labels = write_json(tmp_path / "labels.json", {"c1": 1, "c2": 0})
        out = tmp_path / "dataset.json"
        assert main(["ingest", str(tree_path), "--labels", str(labels), "--out", str(out)]) == 0
        assert "2 labeled (1 offensive / 1 not offensive), 1 unlabeled" in capsys.readouterr().out

    def test_strict_labels_accept_a_label_on_a_dropped_duplicate(self, tmp_path, capsys):
        """The duplicate is in the trees, so --strict-labels accepts its
        label; like the comment, the label is dropped."""
        tree = json.loads(json.dumps(TREE))
        duplicate = {"id": "c4", "author": "u4", "text": " first comment\n", "replies": []}
        tree["comments"][1]["replies"].append(duplicate)
        trees = write_json(tmp_path / "tree.json", tree)
        labels = write_json(tmp_path / "labels.json", {"c1": 1, "c4": 0, "c2": 0})
        out = tmp_path / "dataset.json"
        argv = ["ingest", str(trees), "--labels", str(labels), "--out", str(out), "--strict-labels"]
        assert main(argv) == 0
        assert [cid for cid, _, _ in load_dataset(out).entries] == ["c1", "c2"]
        assert "4 total, 3 unique, 2 labeled" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, code", [(["--strict-labels"], 3), ([], 0)], ids=["strict", "lenient"]
    )
    def test_label_on_an_id_in_no_tree(self, tmp_path, tree_path, capsys, flags, code):
        labels = write_json(tmp_path / "labels.json", {"c1": 1, "ghost7": 0})
        out = tmp_path / "dataset.json"
        argv = ["ingest", str(tree_path), "--labels", str(labels), "--out", str(out), *flags]
        assert main(argv) == code
        if code:
            err = capsys.readouterr().err
            assert "'ghost7'" in err and err.count("\n") == 1 and not out.exists()
        else:
            assert [cid for cid, _, _ in load_dataset(out).entries] == ["c1"]

    def test_labels_not_json_exits_3(self, tmp_path, tree_path, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text('{"c1": 1', encoding="utf-8")
        out = tmp_path / "dataset.json"
        assert main(["ingest", str(tree_path), "--labels", str(labels), "--out", str(out)]) == 3
        assert_one_line_error(capsys)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "absent.json"), "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_lexicon_hits_written(self, tmp_path, capsys):
        tree = {
            "post_id": "p",
            "post_author": "op",
            "comments": [
                {"id": "c1", "author": "u", "text": "what a clown", "replies": []}
            ],
        }
        tree_file = write_json(tmp_path / "t.json", tree)
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("clown\tderogatory\n", encoding="utf-8")
        out = tmp_path / "dataset.json"
        assert main(["ingest", str(tree_file), "--lexicon", str(lexicon), "--out", str(out)]) == 0
        hits = json.loads((tmp_path / "dataset_lexicon_hits.json").read_text())
        assert hits == {"c1": [["clown", "derogatory"]]}

    @pytest.mark.parametrize("second", ["Clown\tderogatory", "CLOWN\twatchword", "clown\tthreatening"])
    def test_repeated_lexicon_term_exits_3(self, tmp_path, capsys, second):
        """A term an earlier line gives, in any case and with any category,
        is refused naming both lines, before any file is written."""
        tree = {"post_id": "p", "post_author": "op", "comments": [
            {"id": "c1", "author": "u", "text": "what a clown", "replies": []}
        ]}
        tree_file = write_json(tmp_path / "t.json", tree)
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(f"clown\tderogatory\n# note\n\n{second}\n", encoding="utf-8")
        out = tmp_path / "dataset.json"
        assert main(["ingest", str(tree_file), "--lexicon", str(lexicon), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: repeated term 'clown' on line 4, first given on line 1 (at {lexicon})\n"
        )
        assert not out.exists() and not (tmp_path / "dataset_lexicon_hits.json").exists()


    def test_lexicon_hits_equal_the_golden_file(self, tmp_path, data_dir, capsys):
        """``tools/make_fixtures.py`` writes the golden hits with one
        whole-word ``re.search`` per term."""
        trees = [data_dir / "fixture10_tree.json", *sorted(data_dir.glob("separable_tree_*.json"))]
        lexicon = Path(modkit.__file__).parent / "data" / "lexicon_sample.tsv"
        out = tmp_path / "dataset.json"
        assert main(["ingest", *map(str, trees), "--lexicon", str(lexicon), "--out", str(out)]) == 0
        golden = (data_dir / "golden" / "lexicon_hits.json").read_bytes()
        assert (tmp_path / "dataset_lexicon_hits.json").read_bytes() == golden
        assert "3 comments matched the lexicon" in capsys.readouterr().out

class TestBalance:
    def test_balances_and_reports(self, tmp_path, tree_path, capsys):
        labels = write_json(tmp_path / "labels.json", {"c1": 1, "c2": 0, "c3": 0})
        dataset = tmp_path / "dataset.json"
        main(["ingest", str(tree_path), "--labels", str(labels), "--out", str(dataset)])
        out = tmp_path / "balanced.json"
        assert main(["balance", "--dataset", str(dataset), "--seed", "7", "--out", str(out)]) == 0
        assert "1/1 (2 total)" in capsys.readouterr().out.splitlines()[-1]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, tmp_path, tree_path, capsys, seed):
        """2**64 and 0 would draw the same sample, as would -1 and 2**64 - 1."""
        labels = write_json(tmp_path / "labels.json", {"c1": 1, "c2": 0, "c3": 0})
        dataset = tmp_path / "dataset.json"
        main(["ingest", str(tree_path), "--labels", str(labels), "--out", str(dataset)])
        capsys.readouterr()
        out = tmp_path / "balanced.json"
        assert main(["balance", "--dataset", str(dataset), "--seed", seed, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: seed must be in 0..18446744073709551615, got {seed}\n"
        assert not out.exists()


class TestWriteErrors:
    """An output that cannot be written exits 2 with one line naming the
    path given, not the temporary file beside it, and leaves no ``.tmp`` file."""

    @pytest.mark.parametrize("where", ["missing_dir", "existing_dir"])
    @pytest.mark.parametrize("command", ["ingest", "balance"])
    def test_names_the_path_given(self, tmp_path, tree_path, capsys, command, where):
        labels = write_json(tmp_path / "labels.json", {"c1": 1, "c2": 0, "c3": 0})
        dataset = tmp_path / "dataset.json"
        assert main(["ingest", str(tree_path), "--labels", str(labels), "--out", str(dataset)]) == 0
        if where == "missing_dir":
            out = tmp_path / "missing" / "out.json"
        else:
            out = tmp_path / "out"
            out.mkdir()
        argv = {
            "ingest": ["ingest", str(tree_path), "--labels", str(labels)],
            "balance": ["balance", "--dataset", str(dataset)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.rstrip().endswith(f"'{out}'") and ".tmp" not in err, err
        assert sorted(path.name for path in tmp_path.rglob("*.tmp")) == []


EXPECTED_CHART_FILES = {
    "ngrams_uni_before.csv",
    "ngrams_uni_after.csv",
    "ngrams_bi_before.csv",
    "ngrams_bi_after.csv",
    "ngrams_tri_before.csv",
    "ngrams_tri_after.csv",
    "length_overall.csv",
    "length_offensive.csv",
    "emoji_stats.csv",
}


class TestAnalyze:
    def make_dataset(self, tmp_path, fixture10_paths) -> Path:
        tree, labels = fixture10_paths
        dataset = tmp_path / "dataset.json"
        main(["ingest", str(tree), "--labels", str(labels), "--out", str(dataset)])
        return dataset

    def test_writes_all_chart_files(self, tmp_path, fixture10_paths):
        dataset = self.make_dataset(tmp_path, fixture10_paths)
        out = tmp_path / "charts"
        assert main(["analyze", "--dataset", str(dataset), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == EXPECTED_CHART_FILES

    def test_empty_offensive_class_outputs_present_but_empty(self, tmp_path, tree_path):
        labels = write_json(tmp_path / "labels.json", {"c1": 0, "c2": 0})
        dataset = tmp_path / "dataset.json"
        main(["ingest", str(tree_path), "--labels", str(labels), "--out", str(dataset)])
        out = tmp_path / "charts"
        assert main(["analyze", "--dataset", str(dataset), "--out", str(out)]) == 0
        for name in ("ngrams_uni_after.csv", "length_offensive.csv"):
            content = (out / name).read_text(encoding="utf-8")
            assert len(content.splitlines()) == 1  # header only

    def test_cap_changes_only_emoji_file(self, tmp_path, fixture10_paths):
        dataset = self.make_dataset(tmp_path, fixture10_paths)
        plain, capped = tmp_path / "plain", tmp_path / "capped"
        assert main(["analyze", "--dataset", str(dataset), "--out", str(plain)]) == 0
        assert main(["analyze", "--dataset", str(dataset), "--out", str(capped), "--cap", "1"]) == 0
        differing = {
            name
            for name in EXPECTED_CHART_FILES
            if (plain / name).read_bytes() != (capped / name).read_bytes()
        }
        assert differing == {"emoji_stats.csv"}

    @pytest.mark.parametrize("stop_words", [None, "the\nso\ndumb\n"])
    def test_charts_equal_two_independent_pipeline_passes(self, tmp_path, stop_words):
        """analyze runs each offensive comment once through its string and
        punctuation steps; its nine CSVs equal those of one whole
        ``run_pipeline`` pass per variant, on fuzz comments."""
        rng = random.Random(59)
        texts = [messy_text(rng) if i % 2 else random_text(rng) for i in range(600)]
        entries = tuple((f"c{i}", text, Label(rng.random() < 0.5)) for i, text in enumerate(texts))
        dataset = tmp_path / "dataset.json"
        save_dataset(LabeledDataset(entries=entries), dataset)
        out, expected = tmp_path / "charts", tmp_path / "expected"
        argv = ["analyze", "--dataset", str(dataset), "--out", str(out), "--top-k", "60"]
        stoplist = None
        if stop_words is not None:
            path = tmp_path / "stop.txt"
            path.write_text(stop_words, encoding="utf-8")
            argv += ["--stoplist", str(path)]
            stoplist = textprep.load_stoplist(path)
        assert main(argv) == 0
        expected.mkdir()
        offensive = [text for _, text, label in entries if label is Label.OFFENSIVE]
        Step = textprep.Step
        base = {Step.LOWERCASING, Step.EMOJI_ENCODING, Step.PUNCTUATION_REMOVAL, Step.LEMMATIZATION}
        for suffix, steps in (("before", base), ("after", base | {Step.STOPWORD_REMOVAL})):
            config = textprep.PreprocessConfig(steps=frozenset(steps))
            streams = [textprep.run_pipeline(text, config, stoplist=stoplist) for text in offensive]
            for n, name in ((1, "uni"), (2, "bi"), (3, "tri")):
                table = analytics.ngram_counts(streams, n, 60)
                analytics.export_chart_data(table, expected / f"ngrams_{name}_{suffix}.csv")
        for name, group in (("overall", texts), ("offensive", offensive)):
            histogram = analytics.length_histogram(group, 10)
            analytics.export_chart_data(histogram, expected / f"length_{name}.csv")
        stats = analytics.emoji_stats(LabeledDataset(entries=entries))
        analytics.export_chart_data(stats, expected / "emoji_stats.csv")
        assert {p.name for p in expected.iterdir()} == EXPECTED_CHART_FILES
        for name in EXPECTED_CHART_FILES:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name
        assert len((out / "ngrams_tri_after.csv").read_text(encoding="utf-8").splitlines()) == 61

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--bucket-width", "0", "bucket width must be a positive integer, got 0"),
            ("--cap", "0", "cap must be a positive integer or None, got 0"),
            ("--cap", "-1", "cap must be a positive integer or None, got -1"),
            ("--top-k", "0", "top_k must be >= 1, got 0"),
        ],
    )
    def test_bad_flag_writes_nothing(self, tmp_path, fixture10_paths, capsys, flag, value, message):
        dataset = self.make_dataset(tmp_path, fixture10_paths)
        capsys.readouterr()
        out = tmp_path / "charts"
        assert main(["analyze", "--dataset", str(dataset), "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_tables_looked_up_a_fixed_number_of_times(self, tmp_path, table_lookups):
        """The data tables are looked up once per command, not per comment."""
        counts = []
        for n in (10, 100):
            entries = tuple((f"c{i}", f"Ur so dumb :) 😂 writing {i}", Label(i % 2)) for i in range(n))
            dataset = tmp_path / f"dataset{n}.json"
            save_dataset(LabeledDataset(entries=entries), dataset)
            table_lookups.clear()
            assert main(["analyze", "--dataset", str(dataset), "--out", str(tmp_path / f"c{n}")]) == 0
            counts.append(len(table_lookups))
        assert counts[0] == counts[1] > 0


class TestTrain:
    def test_separable_fixture_nb(self, tmp_path, separable_paths, capsys):
        dataset = run_ingest(tmp_path, separable_paths)
        out = tmp_path / "runs"
        argv = [
            "train",
            "--dataset", str(dataset),
            "--out", str(out),
            "--model", "nb",
            "--seed", "11",
            "--cycles", "2",
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "cycle 0:" in printed and "cycle 1:" in printed
        (run_dir,) = out.iterdir()
        names = {p.name for p in run_dir.iterdir()}
        assert names == {"tfidf.json", "model.json", "train_report.json", "manifest.json"}
        report = json.loads((run_dir / "train_report.json").read_text())
        assert report["cycles"][report["best_cycle_index"]]["test"]["f1"] == 1.0

    def test_rerun_is_byte_identical(self, tmp_path, separable_paths):
        dataset = run_ingest(tmp_path, separable_paths)
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            argv = ["train", "--dataset", str(dataset), "--out", str(out), "--seed", "3"]
            assert main(argv) == 0
            outs.append(next(out.iterdir()))
        assert outs[0].name == outs[1].name  # same config hash
        for file_name in ("tfidf.json", "model.json", "train_report.json"):
            assert (outs[0] / file_name).read_bytes() == (outs[1] / file_name).read_bytes()

    def test_single_class_exit_code_distinct_from_io(self, tmp_path, tree_path, capsys):
        labels = write_json(tmp_path / "labels.json", {"c1": 1, "c2": 1, "c3": 1})
        dataset = tmp_path / "dataset.json"
        main(["ingest", str(tree_path), "--labels", str(labels), "--out", str(dataset)])
        capsys.readouterr()
        # one comment in each fold, so the single-class train fold is what fails
        single_class = main(
            ["train", "--dataset", str(dataset), "--out", str(tmp_path / "r"), "--set", "ratios=[0.2,0.4,0.4]"]
        )
        assert capsys.readouterr().err == "error: both classes must be present in the training set\n"
        missing_file = main(
            ["train", "--dataset", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")]
        )
        assert single_class == 3
        assert missing_file == 2
        assert single_class != missing_file

    @pytest.mark.parametrize("ratios, empty", [
        ("[0.5,0.5,0]", "test fold"),
        ("[0,0.5,0.5]", "train fold"),
        ("[1,0,0]", "validation and test folds"),
    ])
    def test_empty_fold_fails_before_preprocessing(self, tmp_path, separable_paths, capsys, monkeypatch, ratios, empty):
        dataset = run_ingest(tmp_path, separable_paths)
        n = len(load_dataset(dataset))
        capsys.readouterr()

        def unreached(*args, **kwargs):
            pytest.fail("a comment was preprocessed")

        monkeypatch.setattr(textprep, "run_pipeline", unreached)
        out = tmp_path / "runs"
        argv = ["train", "--dataset", str(dataset), "--out", str(out), "--set", f"ratios={ratios}"]
        assert main(argv) == 3
        ratio_list = [float(r) for r in json.loads(ratios)]
        assert capsys.readouterr().err == (
            f"error: the {empty} of {n} comments split by ratios {ratio_list} would be empty\n"
        )
        assert not out.exists()

    def test_set_override_recorded_in_manifest(self, tmp_path, separable_paths):
        dataset = run_ingest(tmp_path, separable_paths)
        out = tmp_path / "runs"
        argv = [
            "train",
            "--dataset", str(dataset),
            "--out", str(out),
            "--set", "alpha=2.5",
            "--set", "variant_name=\"Naive Bayes Tuned\"",
        ]
        assert main(argv) == 0
        (run_dir,) = out.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 2.5
        assert manifest["config"]["variant_name"] == "Naive Bayes Tuned"

    def test_diverged_training_exits_4(self, tmp_path, separable_paths, capsys):
        dataset = run_ingest(tmp_path, separable_paths)
        argv = [
            "train",
            "--dataset", str(dataset),
            "--out", str(tmp_path / "r"),
            "--model", "lr",
            "--set", "learning_rate=1e9",
        ]
        assert main(argv) == 4
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "seed=" + "[" * 5000 + "]" * 5000, "seed=1.5", "seed=true", "steps=[1]", "alpha=NaN",
            "alpha=" + "9" * 400, 'ratios="x"',
        ],
        ids=["deep", "float_seed", "bool_seed", "step_not_string", "nan_alpha", "huge_alpha", "ratios_not_array"],
    )
    def test_bad_set_value_exits_2(self, tmp_path, separable_paths, capsys, override):
        dataset = run_ingest(tmp_path, separable_paths)
        capsys.readouterr()
        argv = ["train", "--dataset", str(dataset), "--out", str(tmp_path / "r"), "--set", override]
        assert main(argv) == 2
        assert_one_line_error(capsys)

    def test_too_deeply_nested_config_exits_2(self, tmp_path, separable_paths, capsys):
        dataset = run_ingest(tmp_path, separable_paths)
        config = tmp_path / "config.json"
        config.write_text('{"seed": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
        capsys.readouterr()
        argv = ["train", "--config", str(config), "--dataset", str(dataset), "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert_one_line_error(capsys)

    def test_run_hash_follows_dataset_content_not_path(self, tmp_path, separable_paths):
        """A dataset counts by its ordered entries: a copy elsewhere and a
        copy with a trailing newline keep the run directory, a copy with
        two entries swapped moves it."""
        dataset = run_ingest(tmp_path, separable_paths)
        copy = tmp_path / "copy.json"
        copy.write_bytes(dataset.read_bytes())
        newline = tmp_path / "newline.json"
        newline.write_text(dataset.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        obj = json.loads(dataset.read_text(encoding="utf-8"))
        obj["entries"][:2] = obj["entries"][1::-1]
        swapped = write_json(tmp_path / "swapped.json", obj)
        names = []
        for path in (dataset, copy, newline, swapped):
            out = tmp_path / f"runs_{path.stem}"
            assert main(["train", "--dataset", str(path), "--out", str(out)]) == 0
            (run_dir,) = out.iterdir()
            manifest = json.loads((run_dir / "manifest.json").read_text())
            entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
            rows = [[e["id"], e["text"], e["label"]] for e in entries]
            content = json.dumps(rows, separators=(",", ":")).encode()
            assert manifest["dataset_sha256"] == hashlib.sha256(content).hexdigest()
            names.append(run_dir.name)
        assert names[0] == names[1] == names[2] != names[3]

    @pytest.mark.parametrize(
        "spellings",
        [
            (["--set", "alpha=1"], ["--set", "alpha=1.0"]),
            (["--model", "lr", "--set", "l2=0"], ["--model", "lr", "--set", "l2=0.0"]),
            (["--model", "lr", "--set", "learning_rate=1"], ["--model", "lr", "--set", "learning_rate=1.0"]),
            (
                ["--set", 'steps=["lowercasing","lemmatization"]'],
                ["--set", 'steps=["lemmatization","lowercasing","lemmatization"]'],
            ),
        ],
        ids=["alpha", "l2", "learning_rate", "steps"],
    )
    def test_one_run_directory_per_experiment(self, tmp_path, separable_paths, spellings):
        """Spellings of one experiment, an integer for a float or the steps
        in another order or repeated, write one run directory with
        byte-identical artifacts."""
        dataset = run_ingest(tmp_path, separable_paths)
        run_dirs = []
        for i, spelling in enumerate(spellings):
            out = tmp_path / f"runs_{i}"
            assert main(["train", "--dataset", str(dataset), "--out", str(out), *spelling]) == 0
            (run_dir,) = out.iterdir()
            run_dirs.append(run_dir)
        assert run_dirs[0].name == run_dirs[1].name
        for name in ("tfidf.json", "model.json", "train_report.json"):
            assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()

    def test_run_hash_follows_stoplist_content_not_path(self, tmp_path, separable_paths):
        """A stop list counts by the words it gives: a copy elsewhere and an
        added comment keep the run directory, a removed word moves it."""
        dataset = run_ingest(tmp_path, separable_paths)
        stoplist, copy = tmp_path / "stop.txt", tmp_path / "stop_copy.txt"
        stoplist.write_text("the\nnice\n", encoding="utf-8")
        copy.write_bytes(stoplist.read_bytes())
        names, digests = [], []
        cases = [(stoplist, None), (copy, None), (copy, "# a comment\nthe\nnice\n"), (stoplist, "the\n")]
        for i, (path, content) in enumerate(cases):
            if content is not None:
                path.write_text(content, encoding="utf-8")
            out = tmp_path / f"runs_{i}"
            argv = ["train", "--dataset", str(dataset), "--out", str(out), "--stoplist", str(path)]
            assert main(argv) == 0
            (run_dir,) = out.iterdir()
            digests.append(json.loads((run_dir / "manifest.json").read_text())["tables_sha256"])
            names.append(run_dir.name)
        assert names[0] == names[1] == names[2] != names[3]
        assert digests[0] == digests[1] == digests[2] != digests[3]

    def test_run_hash_without_stoplist_unchanged(self):
        """Pinned run identities: a change here moves every run directory.
        The stop-list path and ``out`` are not part of them."""
        assert RunConfig().hash("0" * 64, "cd" * 32) == "5749d02815fb"
        assert RunConfig(model="lr", seed=5).hash("ab" * 32, "cd" * 32) == "18f1d34fa859"
        assert RunConfig(stoplist="x.txt", out="o").hash("0" * 64, "cd" * 32) == "5749d02815fb"

    def test_unknown_config_key_exits_2(self, tmp_path, separable_paths):
        dataset = run_ingest(tmp_path, separable_paths)
        code = main(
            ["train", "--dataset", str(dataset), "--out", str(tmp_path / "r"), "--set", "bogus=1"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "override, message",
        [
            ('steps=["bogus"]', "unknown preprocessing step: 'bogus'"),
            ("ratios=[0.5,0.5,0.5]", "ratios must sum to 1, got 1.5"),
            ("ratios=[0.5,0.5]", "ratios must be three non-negative fractions"),
            ("alpha=0", "alpha must be > 0, got 0"),
            ("epochs=0", "epochs must be >= 1, got 0"),
            ("learning_rate=-1", "learning_rate must be > 0, got -1"),
            ("l2=-1", "l2 must be >= 0, got -1"),
            ("n_cycles=0", "n_cycles must be >= 1, got 0"),
        ],
    )
    def test_bad_steps_or_ratios_exit_2_before_reading_the_dataset(
        self, tmp_path, capsys, override, message
    ):
        dataset = tmp_path / "dataset.json"
        dataset.write_text("{", encoding="utf-8")  # reading it would exit 3
        argv = ["train", "--dataset", str(dataset), "--out", str(tmp_path / "r"), "--set", override]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
        assert not (tmp_path / "r").exists()

    def test_out_of_range_value_leaves_no_run_directory(self, tmp_path, separable_paths):
        dataset = run_ingest(tmp_path, separable_paths)
        argv = ["train", "--dataset", str(dataset), "--out", str(tmp_path / "r"), "--model", "nb"]
        assert main([*argv, "--set", "epochs=0"]) == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("model", ["nb", "lr"])
    def test_library_run_matches_train(self, tmp_path, separable_paths, model):
        """run_cycles on a RunConfig writes the bytes train writes for it."""
        dataset = run_ingest(tmp_path, separable_paths)
        steps = [step.value for step in textprep.Step]
        out = tmp_path / "runs"
        argv = ["train", "--dataset", str(dataset), "--out", str(out), "--model", model]
        argv += ["--seed", "1", "--cycles", "5", "--set", f"steps={json.dumps(steps)}"]
        assert main(argv) == 0
        (run_dir,) = out.iterdir()
        config = RunConfig(model=model, steps=tuple(steps), n_cycles=5, seed=1)
        trained = run_cycles(load_dataset(dataset), config)
        vectorize.save_tfidf(trained.tfidf, tmp_path / "tfidf.json")
        save_model(trained.model, tmp_path / "model.json")
        for name in ("tfidf.json", "model.json"):
            assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name
        report = json.loads((run_dir / "train_report.json").read_text())
        assert report["best_cycle_index"] == trained.report.best_cycle_index
        assert report["variant_name"] == trained.report.variant_name == config.name

    def test_variant_names_get_their_own_run_directories(self, tmp_path, separable_paths):
        """variant_name is in the run hash: train_report.json and the eval
        reports write it, so two names are two sets of bytes."""
        dataset = run_ingest(tmp_path, separable_paths)
        out = tmp_path / "runs"
        names = {}
        for variant in ("Naive Bayes A", "Naive Bayes B"):
            argv = ["train", "--dataset", str(dataset), "--out", str(out)]
            assert main([*argv, "--set", f"variant_name={json.dumps(variant)}"]) == 0
            (run_dir,) = set(out.iterdir()) - set(names.values())
            names[variant] = run_dir
        assert len(set(out.iterdir())) == 2
        for variant, run_dir in names.items():
            report = json.loads((run_dir / "train_report.json").read_text())
            assert report["variant_name"] == variant
            assert main(["eval", "--run", str(run_dir), "--dataset", str(dataset)]) == 0
            (scored,) = json.loads((run_dir / "eval_report.json").read_text())["variants"]
            assert scored["name"] == variant
        a, b = ((run_dir / "model.json").read_bytes() for run_dir in names.values())
        assert a == b

    @pytest.mark.parametrize("override", ["seed.x=1", "foo.bar=1"])
    def test_dotted_key_is_one_unknown_key(self, tmp_path, separable_paths, capsys, override):
        dataset = run_ingest(tmp_path, separable_paths)
        capsys.readouterr()
        argv = ["train", "--dataset", str(dataset), "--out", str(tmp_path / "r"), "--set", override]
        assert main(argv) == 2
        assert f"unknown config keys: [{override.partition('=')[0]!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("lexicon", "terms.tsv"), ("vocab", "vocab.txt"), ("cap", 3), ("threads", 2)]
    )
    def test_removed_knobs_exit_2(self, tmp_path, separable_paths, key, value):
        dataset = run_ingest(tmp_path, separable_paths)
        config = write_json(tmp_path / "config.json", {"dataset": str(dataset), key: value})
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 2
        assert not (tmp_path / "r").exists()
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--dataset", str(dataset), f"--{key}", str(value)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "1"), ("seed", True), ("epochs", 2.5), ("n_cycles", "3"), ("alpha", "1.5"),
            ("alpha", True), ("ratios", ["0.8", "0.1", "0.1"]), ("variant_name", 3),
            ("steps", "lowercasing"),
        ],
    )
    def test_library_refuses_what_the_cli_refuses(self, tmp_path, capsys, key, value):
        """``RunConfig`` is the one check of a config: the library raises
        the error that ``train --set`` prints, before any file is read."""
        with pytest.raises(errors.ConfigError) as info:
            RunConfig(**{key: value})
        assert info.value.exit_code == 2
        argv = ["train", "--dataset", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r")]
        assert main([*argv, "--set", f"{key}={json.dumps(value)}"]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize(
        "seed, cycles, code",
        [("-1", "1", 2), ("18446744073709551612", "5", 2), ("18446744073709551611", "5", 0)],
    )
    def test_every_cycle_seed_is_below_2_to_the_64(
        self, tmp_path, separable_paths, capsys, seed, cycles, code
    ):
        """splitmix64 reads a seed's low 64 bits, so a seed out of range
        would name another seed's run under a run directory of its own."""
        dataset = run_ingest(tmp_path, separable_paths)
        capsys.readouterr()
        argv = ["train", "--dataset", str(dataset), "--out", str(tmp_path / "r")]
        assert main([*argv, "--seed", seed, "--cycles", cycles]) == code
        if code:
            assert capsys.readouterr().err.startswith("error: seed must be in 0..")
            assert not (tmp_path / "r").exists()


def train_run(tmp_path, separable_paths, model: str = "nb") -> tuple[Path, Path]:
    dataset = run_ingest(tmp_path, separable_paths)
    out = tmp_path / "runs"
    argv = ["train", "--dataset", str(dataset), "--out", str(out), "--seed", "5", "--cycles", "2"]
    main([*argv, "--model", model])
    return next(out.iterdir()), dataset


class TestEval:
    def test_matches_train_test_metrics(self, tmp_path, separable_paths):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        assert main(["eval", "--run", str(run_dir), "--dataset", str(dataset)]) == 0
        eval_report = json.loads((run_dir / "eval_report.json").read_text())
        train_report = json.loads((run_dir / "train_report.json").read_text())
        best = train_report["cycles"][train_report["best_cycle_index"]]["test"]
        (variant,) = eval_report["variants"]
        assert variant["matrix"] == best["matrix"]
        assert variant["f1"] == best["f1"]

    def test_full_dataset_mode(self, tmp_path, separable_paths, capsys):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        assert main(["eval", "--run", str(run_dir), "--dataset", str(dataset), "--full"]) == 0
        assert "evaluated 200 comments" in capsys.readouterr().out

    def test_variant_name_comes_from_config(self, tmp_path, separable_paths):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        main(["eval", "--run", str(run_dir), "--dataset", str(dataset)])
        eval_report = json.loads((run_dir / "eval_report.json").read_text())
        assert eval_report["variants"][0]["name"] == "Naive Bayes Default"

    def test_test_fold_of_another_dataset_exits_3(self, tmp_path, separable_paths, capsys):
        """The test fold needs the same ordered entries, in any layout: a
        compact copy is scored, a copy in reverse order exits 3."""
        run_dir, dataset = train_run(tmp_path, separable_paths)
        obj = json.loads(dataset.read_text(encoding="utf-8"))
        compact = write_json(tmp_path / "compact.json", obj)
        assert main(["eval", "--run", str(run_dir), "--dataset", str(compact)]) == 0
        obj["entries"].reverse()
        other = write_json(tmp_path / "other.json", obj)
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir), "--dataset", str(other)]) == 3
        assert "--full" in capsys.readouterr().err
        assert main(["eval", "--run", str(run_dir), "--dataset", str(other), "--full"]) == 0

    def test_stoplist_read_only_by_a_stop_word_step(self, tmp_path, separable_paths, capsys):
        """A run without stop-word removal never reads its ``--stoplist``:
        once the file is gone, train and eval still exit 0 with the same
        run directory and eval report; a run that reads it exits 2."""
        dataset = run_ingest(tmp_path, separable_paths)
        stoplist = tmp_path / "s.txt"
        stoplist.write_text("the\n", encoding="utf-8")
        out = tmp_path / "runs"
        argv = ["train", "--dataset", str(dataset), "--out", str(out), "--stoplist", str(stoplist)]
        lowercase_only = [*argv, "--set", 'steps=["lowercasing"]']
        assert main(lowercase_only) == 0
        (run_dir,) = out.iterdir()
        eval_argv = ["eval", "--run", str(run_dir), "--dataset", str(dataset)]
        assert main(eval_argv) == 0
        report = (run_dir / "eval_report.json").read_bytes()
        stoplist.unlink()
        assert main(eval_argv) == 0
        assert (run_dir / "eval_report.json").read_bytes() == report
        assert main(lowercase_only) == 0
        assert [p.name for p in out.iterdir()] == [run_dir.name]
        capsys.readouterr()
        assert main(argv) == 2
        assert "s.txt" in capsys.readouterr().err

    def test_relative_stoplist_is_found_from_any_directory(self, tmp_path, separable_paths, monkeypatch):
        """A run trained with a relative ``--stoplist`` records the file's
        absolute path, so eval from another directory reads the same file,
        even where that directory holds a different one of the same name."""
        dataset = run_ingest(tmp_path, separable_paths)
        trained_in, evaluated_in = tmp_path / "a", tmp_path / "b"
        for directory, words in ((trained_in, "the\nnice\n"), (evaluated_in, "other\n")):
            directory.mkdir()
            (directory / "stop.txt").write_text(words, encoding="utf-8")
        out = tmp_path / "runs"
        monkeypatch.chdir(trained_in)
        assert main(["train", "--dataset", str(dataset), "--out", str(out), "--stoplist", "stop.txt"]) == 0
        (run_dir,) = out.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["stoplist"] == str((trained_in / "stop.txt").resolve())
        eval_argv = ["eval", "--run", str(run_dir), "--dataset", str(dataset)]
        assert main(eval_argv) == 0
        report = (run_dir / "eval_report.json").read_bytes()
        monkeypatch.chdir(evaluated_in)
        assert main(eval_argv) == 0
        assert (run_dir / "eval_report.json").read_bytes() == report

    def test_empty_dataset_is_data_error(self, tmp_path, separable_paths):
        run_dir, _ = train_run(tmp_path, separable_paths)
        empty = write_json(tmp_path / "empty.json", {"entries": []})
        code = main(["eval", "--run", str(run_dir), "--dataset", str(empty), "--full"])
        assert code == 3


def assert_one_line_error(capsys) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestMalformedDatasets:
    """A dataset file of the wrong shape is a data error (exit 3) with one
    line naming the offending entry, never a traceback."""

    @pytest.mark.parametrize(
        "command, content, where",
        [
            ("balance", {"entries": [5]}, "$.entries[0]"),
            ("analyze", {"entries": [{"id": "a", "text": 5, "label": 1}]}, "$.entries[0].text"),
            ("balance", {"entries": {}}, "$.entries"),
            ("analyze", {"entries": [{"id": "", "text": "x", "label": 0}]}, "$.entries[0].id"),
            ("balance", {"entries": [{"id": 3, "text": "x", "label": 0}]}, "$.entries[0].id"),
        ],
    )
    def test_wrong_types_exit_3(self, tmp_path, capsys, command, content, where):
        dataset = write_json(tmp_path / "dataset.json", content)
        argv = [command, "--dataset", str(dataset), "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"(at {where})" in err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_an_old_provenance_key_is_ignored(self, tmp_path):
        """Earlier versions wrote each comment's post id under ``provenance``;
        a file that holds one, of any shape, balances as one without it."""
        entries = [{"id": "a", "text": "x", "label": 0}, {"id": "b", "text": "y", "label": 1}]
        outputs = []
        for name, old in (("new", {}), ("old", {"provenance": {"a": "p1"}}), ("odd", {"provenance": [1]})):
            dataset = write_json(tmp_path / f"{name}.json", {"entries": entries, **old})
            out = tmp_path / f"{name}_balanced.json"
            assert main(["balance", "--dataset", str(dataset), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_too_deeply_nested_dataset_exits_3(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text('{"entries": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
        assert main(["balance", "--dataset", str(dataset), "--out", str(tmp_path / "b.json")]) == 3
        assert_one_line_error(capsys)


class TestDeepReplyChains:
    def test_600_deep_chain_exits_3(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(reply_chain(600), encoding="utf-8")
        assert main(["ingest", str(tree), "--out", str(tmp_path / "d.json")]) == 3
        assert_one_line_error(capsys)

    def test_300_deep_chain_ingests_in_order(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(reply_chain(300), encoding="utf-8")
        labels = write_json(tmp_path / "labels.json", {f"c{i}": i % 2 for i in range(300)})
        out = tmp_path / "d.json"
        assert main(["ingest", str(tree), "--labels", str(labels), "--out", str(out)]) == 0
        entries = json.loads(out.read_text(encoding="utf-8"))["entries"]
        assert [e["id"] for e in entries] == [f"c{i}" for i in range(300)]

    def test_deeply_nested_labels_exit_3(self, tmp_path, tree_path, capsys):
        labels = tmp_path / "labels.json"
        labels.write_text('{"c1": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
        argv = ["ingest", str(tree_path), "--labels", str(labels), "--out", str(tmp_path / "d.json")]
        assert main(argv) == 3
        assert_one_line_error(capsys)


class TestRunDirValidation:
    """A damaged run directory is a data error (exit 3), never a traceback.

    Tests of damage inside an artifact reseal the manifest first, so that
    the artifact's loader, not its checksum, has to catch the damage."""

    def eval_code(self, run_dir: Path, dataset: Path, capsys, full: bool = True) -> int:
        capsys.readouterr()
        argv = ["eval", "--run", str(run_dir), "--dataset", str(dataset)]
        return main([*argv, "--full"] if full else argv)

    @pytest.mark.parametrize(
        "config",
        [
            {"seed": 1, "lexicon": ""}, {"model": "svm"}, {"steps": 5}, {"steps": ["bogus"]},
            {"ratios": [0.5, 0.5, 0.5]}, None, ["seed"], {"epochs": 0}, {"n_cycles": 0}, {"l2": -1.0},
        ],
    )
    def test_bad_manifest_config_exits_3(self, tmp_path, separable_paths, capsys, config):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"] = config
        write_json(manifest_path, manifest)
        assert self.eval_code(run_dir, dataset, capsys) == 3
        assert_one_line_error(capsys)

    def test_manifest_not_json_exits_3(self, tmp_path, separable_paths, capsys):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        (run_dir / "manifest.json").write_text("{", encoding="utf-8")
        assert self.eval_code(run_dir, dataset, capsys) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("full", [True, False], ids=["full", "test_fold"])
    @pytest.mark.parametrize("part", ["whole_run", "artifacts"])
    def test_old_format_run_exits_3(self, tmp_path, separable_paths, capsys, part, full):
        """A run directory written with one object per term, a
        ``vocab_size`` and a ``stoplist_sha256`` is refused by its manifest,
        and its artifacts by their loaders once it has a tables digest."""
        run_dir, dataset = train_run(tmp_path, separable_paths)
        tfidf = json.loads((run_dir / "tfidf.json").read_text(encoding="utf-8"))
        terms = [
            {"term": term, "index": i, "idf": idf}
            for i, (term, idf) in enumerate(zip(tfidf["terms"], tfidf["idf"]))
        ]
        write_json(run_dir / "tfidf.json", {"doc_count": tfidf["doc_count"], "terms": terms})
        model = json.loads((run_dir / "model.json").read_text())
        rows = model.pop("log_likelihood")
        model["vocab_size"] = len(rows["offensive"])
        model["terms"] = [
            {"index": i, "log_likelihood_off": off, "log_likelihood_not": not_off}
            for i, (off, not_off) in enumerate(zip(rows["offensive"], rows["not_offensive"]))
        ]
        write_json(run_dir / "model.json", model)
        if part == "whole_run":
            manifest = json.loads((run_dir / "manifest.json").read_text())
            del manifest["tables_sha256"]
            write_json(run_dir / "manifest.json", {**manifest, "stoplist_sha256": None})
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys, full) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "model_kind, key", [("nb", "log_likelihood"), ("lr", "weights"), ("lr", "bias")]
    )
    def test_model_missing_key_exits_3(self, tmp_path, separable_paths, capsys, model_kind, key):
        run_dir, dataset = train_run(tmp_path, separable_paths, model_kind)
        model = json.loads((run_dir / "model.json").read_text())
        del model[key]
        write_json(run_dir / "model.json", model)
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("model_kind", ["nb", "lr"])
    def test_model_width_mismatch_exits_3(self, tmp_path, separable_paths, capsys, model_kind):
        run_dir, dataset = train_run(tmp_path, separable_paths, model_kind)
        model = json.loads((run_dir / "model.json").read_text())
        if model_kind == "lr":
            model["weights"] = model["weights"][:10]
        else:
            for row in model["log_likelihood"].values():
                del row[10:]
        write_json(run_dir / "model.json", model)
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys) == 3
        assert_one_line_error(capsys)

    def test_model_size_beyond_its_terms_exits_3(self, tmp_path, separable_paths, capsys):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        model = json.loads((run_dir / "model.json").read_text())
        model["log_likelihood"]["offensive"] += [-1.0] * 10  # past the other class's row
        write_json(run_dir / "model.json", model)
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("key", ["log_prior", "log_likelihood"])
    @pytest.mark.parametrize("name", ["not_offensive", "offensive"])
    def test_model_missing_class_exits_3(self, tmp_path, separable_paths, capsys, key, name):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        model = json.loads((run_dir / "model.json").read_text())
        del model[key][name]
        write_json(run_dir / "model.json", model)
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda tfidf: tfidf.pop("idf"),
            lambda tfidf: tfidf.pop("terms"),
            lambda tfidf: tfidf["idf"].pop(),
            lambda tfidf: tfidf["terms"].__setitem__(3, tfidf["terms"][0]),
            lambda tfidf: tfidf["terms"].__setitem__(3, 7),
            lambda tfidf: tfidf["terms"].__setitem__(3, ["term"]),
            lambda tfidf: tfidf["idf"].__setitem__(3, "high"),
            lambda tfidf: tfidf["idf"].__setitem__(3, 10**400),
            lambda tfidf: tfidf.__setitem__("idf", [0.0] * len(tfidf["idf"])),
        ],
        ids=[
            "no_idf", "no_terms", "idf_shorter", "duplicate_term", "term_not_string",
            "term_is_list", "idf_not_number", "idf_beyond_float", "idf_all_zero",
        ],
    )
    def test_damaged_tfidf_exits_3(self, tmp_path, separable_paths, capsys, damage):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        tfidf = json.loads((run_dir / "tfidf.json").read_text(encoding="utf-8"))
        damage(tfidf)
        write_json(run_dir / "tfidf.json", tfidf)
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("content", ['{"doc_count": 1, "terms": [', "5"], ids=["not_json", "not_object"])
    def test_tfidf_not_an_object_exits_3(self, tmp_path, separable_paths, capsys, content):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        (run_dir / "tfidf.json").write_text(content, encoding="utf-8")
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda report: report.pop("cycles"),
            lambda report: report.pop("best_cycle_index"),
            lambda report: report["cycles"][report["best_cycle_index"]].pop("seed"),
            lambda report: report.update(best_cycle_index=7),
            lambda report: report["cycles"][report["best_cycle_index"]].update(seed="5"),
            # splitmix64 reads a seed's low 64 bits: this one would score seed 5's test fold
            lambda report: report["cycles"][report["best_cycle_index"]].update(seed=5 - 2**64),
            lambda report: report["cycles"][report["best_cycle_index"]].update(seed=4),
            # seed 7 is the run's seed plus the index, of a cycle the 2-cycle run never had
            lambda report: report.update(
                cycles=[*report["cycles"], {**report["cycles"][0], "seed": 7}], best_cycle_index=2
            ),
        ],
        ids=[
            "no_cycles", "no_best_cycle_index", "no_seed", "index_out_of_range", "seed_not_int",
            "seed_aliased", "seed_of_no_cycle", "cycle_the_run_never_had",
        ],
    )
    def test_damaged_train_report_exits_3(self, tmp_path, separable_paths, capsys, damage):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        report = json.loads((run_dir / "train_report.json").read_text(encoding="utf-8"))
        damage(report)
        write_json(run_dir / "train_report.json", report)
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys, full=False) == 3
        assert_one_line_error(capsys)
        assert not (run_dir / "eval_report.json").exists()

    def test_train_report_not_json_exits_3(self, tmp_path, separable_paths, capsys):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        (run_dir / "train_report.json").write_text('{"cycles": [', encoding="utf-8")
        reseal(run_dir)
        assert self.eval_code(run_dir, dataset, capsys, full=False) == 3
        assert_one_line_error(capsys)


class TestReport:
    def test_merges_inputs_and_reference(self, tmp_path, separable_paths, capsys):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        main(["eval", "--run", str(run_dir), "--dataset", str(dataset)])
        capsys.readouterr()
        out_base = tmp_path / "combined"
        argv = [
            "report",
            "--inputs", str(run_dir / "eval_report.json"),
            "--reference",
            "--out", str(out_base),
        ]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert "Naive Bayes Default" in table
        assert "BERT Emoji & slang" in table and "0.8633" in table
        obj = json.loads(out_base.with_suffix(".json").read_text())
        assert len(obj["variants"]) == 9
        assert out_base.with_suffix(".txt").exists()

    @pytest.mark.parametrize(
        "content",
        [
            '{"variants": [',
            "[1,2]",
            '{"variants": 5}',
            '{"variants": [{"name": "x"}]}',
            '{"variants": [{"matrix": {"tp": 1, "fp": 0, "fn": 0, "tn": -1}}]}',
            '{"variants": [' + "[" * 5000 + "]" * 5000 + "]}",
            '{"variants": [{"matrix": {"tp": 1, "fp": 0, "fn": 0, "tn": 1}, "f1": 1' + "0" * 400
            + ', "accuracy": 1, "precision": 1, "recall": 1, "specificity": 1}]}',
        ],
        ids=["truncated", "not_object", "variants_not_array", "no_matrix", "negative_cell", "deep", "huge_score"],
    )
    def test_bad_input_exits_3(self, tmp_path, capsys, content):
        (tmp_path / "in.json").write_text(content, encoding="utf-8")
        argv = ["report", "--inputs", str(tmp_path / "in.json"), "--out", str(tmp_path / "r")]
        assert main(argv) == 3
        assert_one_line_error(capsys)

    def test_wrong_score_type_exits_3(self, tmp_path, separable_paths, capsys):
        run_dir, dataset = train_run(tmp_path, separable_paths)
        main(["eval", "--run", str(run_dir), "--dataset", str(dataset)])
        report = json.loads((run_dir / "eval_report.json").read_text())
        report["variants"][0]["f1"] = "high"
        write_json(tmp_path / "in.json", report)
        capsys.readouterr()
        argv = ["report", "--inputs", str(tmp_path / "in.json"), "--out", str(tmp_path / "r")]
        assert main(argv) == 3
        assert "$.variants[0]" in capsys.readouterr().err

    def test_nothing_to_report_exits_2(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("content", ["{}", '{"entries": []}'], ids=["empty", "dataset"])
    def test_input_that_is_no_report_exits_3(self, tmp_path, capsys, content):
        """Even beside the reference rows, an object without a
        ``variants`` array is refused, naming the file."""
        (tmp_path / "in.json").write_text(content, encoding="utf-8")
        argv = ["report", "--inputs", str(tmp_path / "in.json"), "--reference"]
        assert main([*argv, "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path / "in.json") in err and "variants" in err
        assert not (tmp_path / "r.json").exists()

    def test_out_keeps_its_own_suffix(self, tmp_path):
        """``--out`` is a base name: ``.json`` and ``.txt`` are appended to
        it, and a dot already in it stays."""
        assert main(["report", "--reference", "--out", str(tmp_path / "table.v2")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.v2.json", "table.v2.txt"]

    def test_empty_variants_array_adds_no_rows(self, tmp_path, capsys):
        write_json(tmp_path / "in.json", {"variants": []})
        argv = ["report", "--inputs", str(tmp_path / "in.json"), "--reference"]
        assert main([*argv, "--out", str(tmp_path / "r")]) == 0
        obj = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert len(obj["variants"]) == len(load_reference_scores())


class TestUsageErrors:
    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


def test_errors_defines_five_classes_with_their_exit_codes():
    """``modkit.errors`` holds one class per exit code and the two that
    carry where the input went wrong, all under ``ModkitError``."""
    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, BaseException)
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == {
        "ModkitError": 3,
        "ConfigError": 2,
        "NonFiniteLossError": 4,
        "MalformedJsonError": 3,
        "SchemaViolationError": 3,
    }
    assert all(issubclass(cls, errors.ModkitError) for cls in classes.values())
    assert errors.MalformedJsonError("bad", offset=7).offset == 7
    located = errors.SchemaViolationError("bad", "$.comments[0]")
    assert (located.path, str(located)) == ("$.comments[0]", "bad (at $.comments[0])")
