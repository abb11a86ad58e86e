"""Every artifact writer replaces its file atomically."""

from __future__ import annotations

import os

import numpy as np
import pytest

from modkit import _atomic, analytics, corpus, models, vectorize
from modkit.corpus import Label, LabeledDataset, LexiconCategory
from modkit.textprep import TokenStream

WRITERS = {
    "save_dataset": lambda path: corpus.save_dataset(
        LabeledDataset(entries=(("c1", "hi 😂", Label.OFFENSIVE),)), path
    ),
    "save_lexicon_hits": lambda path: corpus.save_lexicon_hits(
        {"c1": [("clown", LexiconCategory.DEROGATORY)]}, path
    ),
    "save_model": lambda path: models.save_model(
        models.LRModel(weights=np.zeros(2), bias=0.0, l2=0.0, learning_rate=0.1, epochs=1), path
    ),
    "save_tfidf": lambda path: vectorize.save_tfidf(vectorize.fit([TokenStream(("a", "b"))]), path),
    "export_chart_data": lambda path: analytics.export_chart_data(
        analytics.length_histogram(["abc", "de"], 10), path
    ),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    path.write_text("previous", encoding="utf-8")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert path.read_text(encoding="utf-8") == "previous"
    assert list(tmp_path.iterdir()) == [path]  # the temporary file is gone too


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_replaces_previous_file(tmp_path, write):
    fresh, path = tmp_path / "fresh", tmp_path / "artifact"
    write(fresh)
    path.write_text("previous" * 10_000, encoding="utf-8")  # no tail of it may survive
    write(path)
    assert path.read_bytes() == fresh.read_bytes()
    assert sorted(tmp_path.iterdir()) == [path, fresh]


def test_chunks_raising_mid_stream_keep_previous_file(tmp_path):
    """A chunk generator that fails after writing some chunks leaves the
    old content in place and no ``.tmp`` file behind."""
    path = tmp_path / "artifact"
    path.write_text("previous", encoding="utf-8")

    def chunks():
        for i in range(10_000):  # past the file buffer, so bytes reach the .tmp file
            yield f"chunk {i}\n"
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        _atomic.write_chunks(path, chunks())
    assert path.read_text(encoding="utf-8") == "previous"
    assert list(tmp_path.iterdir()) == [path]


def test_unencodable_chunk_keeps_previous_file(tmp_path):
    path = tmp_path / "artifact"
    path.write_text("previous", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        _atomic.write_chunks(path, ["fine", "lone \udc00 surrogate"])
    assert path.read_text(encoding="utf-8") == "previous"
    assert list(tmp_path.iterdir()) == [path]


def test_chunks_are_written_as_utf8_without_newline_translation(tmp_path):
    path = tmp_path / "artifact"
    _atomic.write_chunks(path, ["a\r\n", "", "😂\n", "\u00a0"])
    assert path.read_bytes() == "a\r\n😂\n\u00a0".encode("utf-8")
