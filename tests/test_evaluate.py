"""Confusion matrices, metric formulas and report rendering."""

from __future__ import annotations

import json
import random

import pytest

from modkit.corpus import Label
from modkit.errors import ModkitError
from modkit.evaluate import (
    CANONICAL_VARIANTS,
    ConfusionMatrix,
    confusion,
    load_reference_scores,
    metrics,
    parse_report_json,
    render_json,
    render_text_table,
)

from _oracles import metric_identities

OFF, NOT = Label.OFFENSIVE, Label.NOT_OFFENSIVE


class TestConfusion:
    def test_all_correct(self):
        y = [OFF] * 10 + [NOT] * 10
        matrix = confusion(y, y)
        assert (matrix.tp, matrix.tn, matrix.fp, matrix.fn) == (10, 10, 0, 0)

    def test_hand_count(self):
        matrix = confusion([OFF, OFF, NOT], [OFF, NOT, OFF])
        assert (matrix.tp, matrix.fn, matrix.fp, matrix.tn) == (1, 1, 1, 0)

    def test_single_wrong_example(self):
        matrix = confusion([OFF], [NOT])
        assert (matrix.tp, matrix.fn, matrix.fp, matrix.tn) == (0, 1, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ModkitError, match="^y_true has 1 items, y_pred has 2$"):
            confusion([OFF], [OFF, NOT])

    def test_empty(self):
        with pytest.raises(ModkitError, match="^cannot evaluate zero examples$"):
            confusion([], [])


class TestMetrics:
    def test_published_style_matrix(self):
        report = metrics(ConfusionMatrix(tp=337, fp=55, fn=70, tn=352))
        assert report.precision == pytest.approx(0.8597, abs=5e-5)
        assert report.recall == pytest.approx(0.8280, abs=5e-5)
        assert report.f1 == pytest.approx(0.8436, abs=5e-5)
        assert report.accuracy == pytest.approx(0.8464, abs=5e-5)
        assert report.specificity == pytest.approx(0.8649, abs=5e-5)
        assert not report.degenerate

    def test_perfect_matrix(self):
        report = metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
        assert (
            report.f1,
            report.accuracy,
            report.precision,
            report.recall,
            report.specificity,
        ) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_degenerate_flagged_not_raised(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=5))
        assert report.recall == 0.0
        assert report.precision == 0.0
        assert report.specificity == 1.0
        assert report.accuracy == 0.5
        assert report.degenerate

    def test_identities_on_random_matrices(self):
        rng = random.Random(29)
        for _ in range(1000):
            tp, fp, fn, tn = (rng.randint(0, 50) for _ in range(4))
            if tp + fp + fn + tn == 0:
                tp = 1
            report = metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            expected = metric_identities(tp, fp, fn, tn)
            assert report.precision == expected["precision"]
            assert report.recall == expected["recall"]
            assert report.specificity == expected["specificity"]
            assert report.accuracy == expected["accuracy"]
            assert report.f1 == expected["f1"]
            for value in expected.values():
                assert 0.0 <= value <= 1.0

    def test_self_comparison_is_all_ones(self):
        rng = random.Random(31)
        for _ in range(20):
            y = [OFF if rng.random() < 0.5 else NOT for _ in range(rng.randint(1, 40))]
            report = metrics(confusion(y, y))
            if OFF in y and NOT in y:
                assert report.f1 == report.accuracy == 1.0

    def test_swapping_roles_transposes_fp_fn(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randint(1, 30)
            y_true = [OFF if rng.random() < 0.5 else NOT for _ in range(n)]
            y_pred = [OFF if rng.random() < 0.5 else NOT for _ in range(n)]
            forward = confusion(y_true, y_pred)
            backward = confusion(y_pred, y_true)
            assert (forward.fp, forward.fn) == (backward.fn, backward.fp)
            assert metrics(forward).accuracy == metrics(backward).accuracy


class TestReportRendering:
    def test_single_row(self):
        report = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4), variant_name="Naive Bayes Default")
        table = render_text_table([report])
        assert table.count("\n") == 3  # header, rule, one row
        assert "Naive Bayes Default" in table

    def test_rows_preserve_order(self):
        a = metrics(ConfusionMatrix(tp=1, fp=0, fn=0, tn=1), variant_name="B variant")
        b = metrics(ConfusionMatrix(tp=1, fp=0, fn=0, tn=1), variant_name="A variant")
        table = render_text_table([a, b])
        assert table.index("B variant") < table.index("A variant")

    def test_four_decimal_places(self):
        report = metrics(ConfusionMatrix(tp=1, fp=2, fn=0, tn=0), variant_name="x")
        assert "0.3333" in render_text_table([report])

    def test_json_schema(self):
        report = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4), variant_name="x")
        obj = json.loads(render_json([report]))
        (variant,) = obj["variants"]
        assert set(variant) == {
            "name",
            "matrix",
            "f1",
            "accuracy",
            "precision",
            "recall",
            "specificity",
            "degenerate",
        }
        assert set(variant["matrix"]) == {"tp", "fp", "fn", "tn"}

    def test_json_round_trip(self):
        report = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4), variant_name="x")
        (loaded,) = parse_report_json(render_json([report]))
        assert loaded == report

    def test_empty_rejected(self):
        with pytest.raises(ModkitError, match="^report needs at least one variant$"):
            render_text_table([])


class TestReferenceScores:
    def test_bundled_rows_cover_canonical_variants(self):
        names = [row.variant_name for row in load_reference_scores()]
        assert names == list(CANONICAL_VARIANTS)

    def test_best_reference_f1_rendered_verbatim(self):
        rows = load_reference_scores()
        best = max(rows, key=lambda r: r.f1)
        assert best.variant_name == "BERT Emoji & slang"
        assert best.f1 == 0.8633
        assert "0.8633" in render_text_table(rows)

    def test_reference_rows_span_expected_f1_range(self):
        rows = load_reference_scores()
        assert min(r.f1 for r in rows) == 0.7063
        assert max(r.f1 for r in rows) == 0.8633
