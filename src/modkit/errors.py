"""Exception hierarchy shared by all modkit modules, and their JSON loader.

Every error carries an ``exit_code`` used by the command-line front end:
2 for usage/configuration problems, 3 for data problems, 4 for numeric
failures.
"""

from __future__ import annotations

import json
import sys


class ModkitError(Exception):
    """Base class for all modkit errors."""

    exit_code = 3


class ConfigError(ModkitError):
    """Invalid run configuration (bad flag value, missing input path)."""

    exit_code = 2


class MalformedJsonError(ModkitError):
    """Input is not syntactically valid JSON."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class MalformedConfigError(ConfigError, MalformedJsonError):
    """A configuration value is not valid JSON (a usage error, exit 2)."""


class SchemaViolationError(ModkitError):
    """JSON parsed but does not match the comment-tree schema."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{message} (at {path})" if path else message)
        self.path = path


class DatasetMismatchError(ModkitError):
    """The dataset is not the one the run was trained on."""


class ChecksumMismatchError(ModkitError):
    """A file differs from the sha256 a run manifest recorded for it."""


class DuplicateIdError(ModkitError):
    """A comment id occurs more than once in one tree."""


class UnknownCommentIdError(ModkitError):
    """A label refers to a comment id that is not in the corpus."""


class EmptyClassError(ModkitError):
    """Balancing requires at least one entry in each class."""


class BadRatiosError(ConfigError, ValueError):
    """Split ratios are negative or do not sum to 1."""


class BadNError(ConfigError, ValueError):
    """N-gram order outside {1, 2, 3}."""


class BadBucketWidthError(ConfigError, ValueError):
    """Histogram bucket width must be a positive integer."""


class EmptyDatasetError(ModkitError):
    """Operation requires a non-empty dataset."""


class EmptyTableError(ModkitError):
    """Operation requires a non-empty ranking table."""


class EmptyCorpusError(ModkitError):
    """Operation requires a non-empty corpus."""


class SingleClassError(ModkitError):
    """Training requires examples from both classes."""


class BadAlphaError(ConfigError, ValueError):
    """Smoothing constant must be strictly positive."""


class NonFiniteLossError(ModkitError):
    """Training loss became NaN or infinite (learning rate too high)."""

    exit_code = 4


class LengthMismatchError(ModkitError, ValueError):
    """Paired sequences have different lengths."""


class EmptyEvalError(ModkitError):
    """Evaluation requires at least one example."""


class EmptyVocabError(ModkitError):
    """Tokenizer vocabulary contains no usable tokens."""


class BadTokenError(ModkitError, ValueError):
    """Vocabulary token is empty or contains whitespace."""


def is_number(value) -> bool:
    """A finite JSON number within the float range; a bool is no number."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def load_json(data: str | bytes, what: str, error: type[MalformedJsonError] = MalformedJsonError):
    """``json.loads`` with invalid and too deeply nested JSON both raised
    as ``error``, its message prefixed by ``what``."""
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise error(f"{what}: {exc.msg}", offset=exc.pos) from exc
    except RecursionError as exc:
        raise error(f"{what}: nesting too deep") from exc
