#!/usr/bin/env python3
"""Walkthrough: TF-IDF features, both classifiers, training cycles.

Run with: python demos/04_classification.py
"""

from modkit import (
    Label,
    LabeledDataset,
    PreprocessConfig,
    RunConfig,
    fit,
    load_reference_scores,
    predict_lr,
    predict_nb,
    render_text_table,
    run_cycles,
    run_pipeline,
    train_lr,
    train_nb,
    transform_all,
)
from modkit.textprep import ChunkMemo

OFFENSIVE_WORDS = ["pathetic", "clown", "idiot", "dumb", "troll", "loser", "miserable"]
CLEAN_WORDS = ["helpful", "lovely", "wonderful", "clear", "cute", "fantastic", "happy"]
TEMPLATES = [
    "you are a {0} {1}",
    "what a {0} little {1}",
    "nobody wants your {0} {1} takes",
    "so {0} and {1} honestly",
    "that was {0} {1} work",
]

entries = []
for i in range(30):
    template = TEMPLATES[i % len(TEMPLATES)]
    off = template.format(OFFENSIVE_WORDS[i % 7], OFFENSIVE_WORDS[(i + 3) % 7])
    ok = template.format(CLEAN_WORDS[i % 7], CLEAN_WORDS[(i + 3) % 7])
    entries.append((f"off{i:02d}", off, Label.OFFENSIVE))
    entries.append((f"ok{i:02d}", ok, Label.NOT_OFFENSIVE))
dataset = LabeledDataset(entries=tuple(entries))

# Featurize by hand once to see the moving parts. A ChunkMemo is a run's
# preprocessor: called on each text, it runs each distinct whitespace chunk
# through the steps once.
config = PreprocessConfig()
streams = list(map(ChunkMemo(config), dataset.texts()))
tfidf = fit(streams)
X = transform_all(tfidf, streams)  # one sparse row per comment
y = dataset.labels()
print(f"TF-IDF vocabulary: {X.n_cols} terms over {tfidf.doc_count} docs, {len(X.data)} nonzeros")

nb = train_nb(X, y, alpha=1.0)
lr = train_lr(X, y)  # full-batch descent, 500 epochs, zero init
print(f"LR loss: {lr.loss_history[0]:.4f} -> {lr.loss_history[-1]:.4f}")

probes = ["you pathetic dumb troll", "what a lovely helpful answer"]
# A model scores token streams through the TF-IDF it was fitted with, which
# builds each stream's row in plain Python, the same bits as transform_all's;
# scoring needs no numpy.
probe_streams = [run_pipeline(text, config) for text in probes]
# NB reports the posterior of its label, LR the probability of OFFENSIVE.
for name, predict, model in (("NB", predict_nb, nb), ("LR", predict_lr, lr)):
    labels, probabilities = predict(model, tfidf, probe_streams)
    for text, label, p in zip(probes, labels, probabilities):
        print(f"{name} says {label.name} ({p:.3f}) for {text!r}")

# The cycle protocol: re-split 80/10/10 per cycle, train, pick the best
# cycle by validation F1, report its test metrics. One RunConfig names the
# model, the steps (here all five, as above) and the cycles' seeds.
run_config = RunConfig(
    model="nb",
    steps=("lowercasing", "emoji_encoding", "punctuation_removal", "stopword_removal", "lemmatization"),
    n_cycles=3,
    seed=2024,
    variant_name="Naive Bayes (this demo)",
)
assert run_config.preprocess == config
trained = run_cycles(dataset, run_config)
report = trained.report
for i, cycle in enumerate(report.cycles):
    star = " <- best" if i == report.best_cycle_index else ""
    print(f"cycle {i}: seed={cycle.seed} val_f1={cycle.validation.f1:.4f}{star}")

print("\nbest-cycle test metrics vs externally supplied reference rows:")
print(render_text_table([report.best.test] + load_reference_scores()))
