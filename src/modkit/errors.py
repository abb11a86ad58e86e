"""Exception hierarchy shared by all modkit modules, and their file and JSON loaders.

Every error carries the ``exit_code`` the command-line front end exits with:

- :class:`ModkitError` (3): a data problem; the base of the others.
- :class:`ConfigError` (2): a usage or configuration problem.
- :class:`NonFiniteLossError` (4): a numeric failure in training.
- :class:`MalformedJsonError` (3): input that is not valid JSON.
- :class:`SchemaViolationError` (3): input whose content breaks its
  format; carries ``path``.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path


class ModkitError(Exception):
    """Base class for all modkit errors."""

    exit_code = 3


class ConfigError(ModkitError):
    """Invalid run configuration (bad flag value, missing input path)."""

    exit_code = 2


class MalformedJsonError(ModkitError):
    """Input is not syntactically valid JSON; the message says where."""


class SchemaViolationError(ModkitError):
    """Input that parsed, but whose content breaks the format it must have."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{message} (at {path})" if path else message)
        self.path = path


class NonFiniteLossError(ModkitError):
    """Training loss became NaN or infinite (learning rate too high)."""

    exit_code = 4


def is_number(value) -> bool:
    """A finite JSON number within the float range; a bool is no number."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def load_json(data: str | bytes, what: str):
    """``json.loads`` with invalid and too deeply nested JSON both raised
    as :class:`MalformedJsonError`, its message prefixed by ``what`` and
    giving the line and column of a syntax error."""
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"{what}: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise MalformedJsonError(f"{what}: nesting too deep") from exc


#: Scanned left to right through JSON text: an escaped backslash, an
#: escaped surrogate pair, or (group 1) an escaped surrogate outside a
#: pair. Consuming escaped backslashes keeps the JSON text ``\\ud800``
#: (an escaped backslash, then ``ud800``) from reading as an escape.
_SURROGATE_ESCAPES = re.compile(
    r"\\\\|\\u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(\\u[dD][89a-fA-F][0-9a-fA-F]{2})"
)
#: What every surrogate escape starts with. A search for this literal
#: prefix runs far faster than a scan with the alternation above, so
#: only a text that has one is scanned.
_SURROGATE_ESCAPE_START = re.compile(r"\\u[dD][89a-fA-F]")


@contextmanager
def in_file(path: str | Path):
    """Prefix the message of a :class:`ModkitError` raised in the block with the file ``path``."""
    try:
        yield
    except ModkitError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_text(path: str | Path, error: type[ModkitError] = ModkitError) -> str:
    """The text of a file, read as UTF-8; bytes that are not UTF-8 raise
    ``error`` naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc


def read_json_text(path: str | Path) -> str:
    """:func:`read_text` of a JSON file, raising :class:`MalformedJsonError`;
    a ``\\uD800``-``\\uDFFF`` escape outside a surrogate pair (a string no
    UTF-8 file can hold, so no output could be written from it) also
    raises it naming the file, and its line and column as :func:`load_json`
    gives them."""
    text = read_text(path, MalformedJsonError)
    if _SURROGATE_ESCAPE_START.search(text):
        for match in _SURROGATE_ESCAPES.finditer(text):
            if escape := match.group(1):
                start = match.start()
                line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
                found = f"{path} has a lone surrogate escape {escape}"
                raise MalformedJsonError(f"{found} at line {line} column {column}")
    return text
