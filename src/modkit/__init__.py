"""modkit: corpus analytics and offensive-content classification toolkit.

Ingests nested comment-tree dumps, runs a five-step preprocessing
pipeline, computes corpus statistics (n-grams, lengths, emoji usage),
trains TF-IDF Naive Bayes / Logistic Regression classifiers with
multi-cycle best-model selection, and augments a WordPiece vocabulary
with slang and emoji tokens.
"""

__version__ = "0.1.0"

from .corpus import (
    ANNOTATION_CRITERIA,
    AnnotationCriteria,
    Comment,
    CommentNode,
    CommentTree,
    Label,
    LabeledDataset,
    LexiconCategory,
    LexiconEntry,
    apply_labels,
    balance,
    dedupe,
    flatten,
    lexicon_flag,
    load_dataset,
    load_labels,
    load_lexicon,
    parse_comment_tree,
    save_dataset,
    serialize_comment_tree,
    split,
)
from .textprep import (
    EmojiMode,
    EmoticonMap,
    LemmaDictionary,
    PreprocessConfig,
    Step,
    StopList,
    TokenStream,
    encode_emojis,
    lemmatize,
    lowercase,
    normalize_emoticons,
    remove_punctuation,
    remove_stopwords,
    run_pipeline,
    tokenize,
)
from .analytics import (
    CloudWeights,
    EmojiStats,
    LengthHistogram,
    NgramTable,
    cloud_weights,
    emoji_frequency,
    emoji_presence,
    emoji_stats,
    export_chart_data,
    length_histogram,
    ngram_counts,
)
from .vectorize import CSRMatrix, TfidfModel, fit, load_tfidf, save_tfidf, transform_all
from .wordpiece import (
    Encoding,
    FragmentationRate,
    WordPieceVocab,
    augment_vocab,
    fragmentation_rate,
    load_vocab,
    save_vocab,
    wordpiece_encode,
)
from .models import (
    CycleConfig,
    LRModel,
    NBModel,
    TrainReport,
    TrainedArtifacts,
    load_model,
    predict_lr,
    predict_nb,
    run_cycles,
    save_model,
    train_lr,
    train_nb,
)
from .evaluate import (
    CANONICAL_VARIANTS,
    ConfusionMatrix,
    MetricsReport,
    confusion,
    load_reference_scores,
    metrics,
    render_json,
    render_text_table,
)
