#!/usr/bin/env python3
"""Walkthrough: WordPiece encoding and slang/emoji vocabulary augmentation.

Run with: python demos/05_wordpiece_fragmentation.py
"""

from modkit import (
    EmojiMode,
    PreprocessConfig,
    augment_vocab,
    encode_emojis,
    fragmentation_rate,
    run_pipeline,
    wordpiece_encode,
)
from modkit.wordpiece import default_vocab

vocab = default_vocab()
print(f"base vocabulary: {len(vocab)} tokens")

# Slang the base vocabulary has never seen fragments into pieces.
for word in ("boomer", "simp", "cap"):
    encoding = wordpiece_encode(word, vocab)
    print(f"  {word!r} -> {' '.join(encoding.tokens)}")

# Emoji aliases produced by the BERT-delimited pipeline fragment badly too.
comment = "ok boomer 😂"
prepped = encode_emojis(comment.lower(), EmojiMode.BERT_DELIMITED)
print(f"\npreprocessed comment: {prepped!r}")
print("encoded:", " ".join(wordpiece_encode(prepped, vocab).tokens))

# Register the domain tokens: appended ids, existing ids untouched.
new_tokens = ["simp", "boomer", "cap", ":face_with_tears_of_joy:", ":skull:"]
grown = augment_vocab(vocab, new_tokens)
print(f"\naugmented vocabulary: {len(grown)} tokens (+{len(grown) - len(vocab)})")
print("encoded after augmentation:", " ".join(wordpiece_encode(prepped, grown).tokens))

# The fragmentation metric quantifies the improvement corpus-wide.
corpus = [
    "ok boomer stop the cap",
    "he a simp no cap",
    "bro a whole clown :skull: :skull:",
    "this simp stay making excuses :face_with_tears_of_joy:",
]
before = fragmentation_rate(corpus, vocab)
after = fragmentation_rate(corpus, grown)
print(
    f"\npieces per word: {before.pieces_per_word:.3f} -> {after.pieces_per_word:.3f}"
)
print(
    f"words split or unknown: {before.split_word_fraction:.1%} -> "
    f"{after.split_word_fraction:.1%}"
)

# Sequences are framed with [CLS]/[SEP] and clipped at 150 tokens,
# the platform's comment-length limit.
long_text = " ".join(["word"] * 400)
encoding = wordpiece_encode(long_text, grown)
print(f"\nlong input -> {len(encoding.tokens)} tokens, truncated={encoding.truncated}")

# The same pipeline feeds both featurizers: compare the two emoji modes.
ml_tokens = run_pipeline(comment, PreprocessConfig())
print("\nML-side tokens (TF-IDF input):", ml_tokens)
