#!/usr/bin/env python3
"""Walkthrough: corpus statistics behind the usual moderation charts.

Run with: python demos/03_corpus_analytics.py
"""

import tempfile
from pathlib import Path

from modkit import (
    Label,
    LabeledDataset,
    PreprocessConfig,
    cloud_weights,
    emoji_frequency,
    emoji_stats,
    export_chart_data,
    length_histogram,
    ngram_counts,
    run_pipeline,
)

dataset = LabeledDataset(
    entries=(
        ("c1", "you people never use critical thinking skills 😂", Label.OFFENSIVE),
        ("c2", "shut up you sound like a clown 🤡🤡", Label.OFFENSIVE),
        ("c3", "people like you sound dumb", Label.OFFENSIVE),
        ("c4", "use your brain critical thinking matters", Label.OFFENSIVE),
        ("c5", "what a lovely dog 😂", Label.NOT_OFFENSIVE),
        ("c6", "thanks for sharing this", Label.NOT_OFFENSIVE),
        ("c7", "🍌🍌🍌🍌🍌🍌🍌🍌🍌🍌", Label.NOT_OFFENSIVE),
    )
)

# N-grams are computed over preprocessed offensive comments only,
# never crossing comment boundaries.
config = PreprocessConfig()
streams = [
    run_pipeline(text, config) for _, text, label in dataset.entries if label is Label.OFFENSIVE
]

for n in (1, 2, 3):
    table = ngram_counts(streams, n, top_k=5)
    print(f"top {n}-grams:", table.rows)

weights = cloud_weights(ngram_counts(streams, 1, top_k=10))
print("\nword-cloud weights:", {t: round(w, 2) for t, w in weights.terms.items()})

# Comment lengths in Unicode scalars, bucketed.
histogram = length_histogram(dataset.texts(), bucket_width=10)
print("\nlength histogram:", dict(sorted(histogram.buckets.items())))

# Emoji usage. The banana comment dominates the raw ranking; a
# per-comment cap keeps one outlier comment from distorting the chart.
print("\nemoji frequency, uncapped:", emoji_frequency(dataset.texts()))
print("emoji frequency, cap=2:  ", emoji_frequency(dataset.texts(), cap=2))

stats = emoji_stats(dataset, cap=2)
print(
    "emoji presence: overall "
    f"{stats.presence_overall:.4f}, offensive {stats.presence_offensive:.4f}, "
    f"non-offensive {stats.presence_nonoffensive:.4f}"
)

# Every result exports as plain CSV chart data.
with tempfile.TemporaryDirectory(prefix="modkit-demo-") as tmp:
    out_dir = Path(tmp)
    export_chart_data(ngram_counts(streams, 2, 10), out_dir / "bigrams.csv")
    export_chart_data(histogram, out_dir / "lengths.csv")
    export_chart_data(stats, out_dir / "emoji.csv")
    print(f"\nwrote {len(list(out_dir.iterdir()))} CSV files to {out_dir}")
    print((out_dir / "bigrams.csv").read_text(encoding="utf-8"))
