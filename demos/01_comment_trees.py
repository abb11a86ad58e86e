#!/usr/bin/env python3
"""Walkthrough: from a raw comment-tree dump to a balanced dataset.

Run with: python demos/01_comment_trees.py
"""

import json

from modkit import (
    Label,
    apply_labels,
    balance,
    dedupe,
    flatten,
    lexicon_flag,
    parse_comment_tree,
    split,
)
from modkit.corpus import LexiconCategory, LexiconEntry

# A post with nested replies, the shape a scraper would dump.
raw = json.dumps(
    {
        "post_id": "demo-post",
        "post_author": "creator",
        "comments": [
            {
                "id": "c1",
                "author": "alex",
                "text": "great video!",
                "replies": [
                    {
                        "id": "c2",
                        "author": "blair",
                        "text": "you clearly have no critical thinking skills",
                        "replies": [
                            {"id": "c3", "author": "alex", "text": "ok clown", "replies": []}
                        ],
                    }
                ],
            },
            {"id": "c4", "author": "casey", "text": "great video!", "replies": []},
            {"id": "c5", "author": "drew", "text": "so informative, thanks", "replies": []},
        ],
    }
)

tree = parse_comment_tree(raw)
print(f"parsed {len(tree.comments)} comments from post {tree.post_id!r}")

comments = flatten(tree)
for c in comments:
    print(f"  depth={c.depth}  {c.id}: {c.text}")

# c4 repeats c1's text, so deduplication drops it.
unique = dedupe(comments)
print(f"\nafter dedupe: {len(unique)} unique comments")

# Labels come from manual annotation (1 = offensive).
labels = {"c1": Label.NOT_OFFENSIVE, "c2": Label.OFFENSIVE,
          "c3": Label.OFFENSIVE, "c5": Label.NOT_OFFENSIVE}
dataset, unlabeled = apply_labels(unique, labels)
print(f"labeled dataset: {len(dataset)} entries "
      f"({dataset.n_offensive} offensive / {dataset.n_not_offensive} not), "
      f"{unlabeled} left unlabeled")

# A term lexicon can pre-flag comments worth reviewing first.
lexicon = [LexiconEntry(term="clown", category=LexiconCategory.DEROGATORY)]
print("lexicon hits:", lexicon_flag(unique, lexicon))

# Balance by undersampling the majority class, then split 80/10/10.
balanced = balance(dataset, seed=7)
print(f"\nbalanced: {balanced.n_offensive} vs {balanced.n_not_offensive}")

train, val, test = split(balanced, (0.8, 0.1, 0.1), seed=7)
print(f"split sizes: train={len(train)} val={len(val)} test={len(test)}")
print("same seed, same split:", split(balanced, (0.8, 0.1, 0.1), seed=7)[0].ids() == train.ids())
