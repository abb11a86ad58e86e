#!/usr/bin/env python3
"""Walkthrough: the five-step preprocessing pipeline, one step at a time.

Run with: python demos/02_text_pipeline.py
"""

from modkit import (
    EmojiMode,
    PreprocessConfig,
    Step,
    encode_emojis,
    lemmatize,
    normalize_emoticons,
    remove_punctuation,
    remove_stopwords,
    run_pipeline,
    tokenize,
)

text = "Ur DUMB!! and ur writing skills are a joke :) 😂"
print("raw:", text)

# Steps always execute in one canonical order no matter which subset is
# selected: lowercase -> emoji encoding -> punctuation -> stop words ->
# lemmatize. String-level steps come first.
lowered = text.lower()
print("\nlowercased:", lowered)

with_aliases = normalize_emoticons(lowered)
print("emoticons normalized:", with_aliases)

encoded = encode_emojis(with_aliases, EmojiMode.ML_PLAIN)
print("emojis encoded (ml):", encoded)
print("emojis encoded (bert):", encode_emojis(with_aliases, EmojiMode.BERT_DELIMITED))

tokens = tokenize(encoded)
print("\ntokens:", " | ".join(tokens))

no_punct = remove_punctuation(tokens)
print("punctuation removed:", " | ".join(no_punct))

no_stop = remove_stopwords(no_punct)
print("stop words removed:", " | ".join(no_stop))
# note: "ur" is gone because the bundled stop list carries the shorthand
# extensions u, ur, cause, gonna, im, gon, cant

lemmas = lemmatize(no_stop)
print("lemmatized:", " | ".join(lemmas))

# run_pipeline is exactly that composition; the TokenStream it returns is
# the final tuple, checked to hold no empty token.
config = PreprocessConfig()  # all five steps, ML-plain emoji aliases
assert run_pipeline(text, config) == lemmas
print("\nrun_pipeline(all five steps) ->", run_pipeline(text, config))

# Any subset works; unselected steps are skipped.
partial = PreprocessConfig(steps=frozenset({Step.LOWERCASING, Step.STOPWORD_REMOVAL}))
print("lowercase+stopwords only  ->", run_pipeline("Im gonna go watch it", partial))
