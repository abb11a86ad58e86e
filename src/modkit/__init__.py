"""modkit: corpus analytics and offensive-content classification toolkit.

Ingests nested comment-tree dumps, runs a five-step preprocessing
pipeline, computes corpus statistics (n-grams, lengths, emoji usage),
trains TF-IDF Naive Bayes / Logistic Regression classifiers with
multi-cycle best-model selection, and augments a WordPiece vocabulary
with slang and emoji tokens.

Importing the package runs no library code: each library submodule is
registered through :class:`importlib.util.LazyLoader` and runs on first
attribute access, and PEP 562 ``__getattr__`` serves the names below.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: Every library submodule, with the names the package re-exports from it.
_EXPORTS = {
    "_rng": (),
    "corpus": (
        "Comment", "CommentTree", "Label", "LabeledDataset", "LexiconCategory", "LexiconEntry",
        "apply_labels", "balance", "dedupe", "flatten", "lexicon_flag", "load_dataset",
        "load_labels", "load_lexicon", "parse_comment_tree", "save_dataset", "split",
    ),
    "textprep": (
        "EmojiMode", "LemmaDictionary", "PreprocessConfig", "Step",
        "TokenStream", "encode_emojis", "lemmatize", "lowercase", "normalize_emoticons",
        "remove_punctuation", "remove_stopwords", "run_pipeline", "tokenize",
    ),
    "analytics": (
        "CloudWeights", "EmojiStats", "LengthHistogram", "NgramTable", "cloud_weights",
        "emoji_stats", "export_chart_data", "length_histogram", "ngram_counts",
    ),
    "vectorize": (
        "CSRMatrix", "TfidfModel", "fit", "load_tfidf", "rows", "save_tfidf", "transform_all",
    ),
    "wordpiece": (
        "Encoding", "FragmentationRate", "WordPieceVocab", "augment_vocab", "fragmentation_rate",
        "load_vocab", "wordpiece_encode",
    ),
    "models": (
        "LRModel", "NBModel", "RunConfig", "TrainReport", "TrainedArtifacts", "load_model",
        "predict_lr", "predict_nb", "run_cycles", "save_model", "train_lr", "train_nb",
    ),
    "evaluate": (
        "ConfusionMatrix", "MetricsReport", "confusion", "load_reference_scores", "metrics",
        "render_json", "render_text_table",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*(name for name in _EXPORTS if not name.startswith("_")), *_OWNER]

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
