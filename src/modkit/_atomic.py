"""Atomic file replacement for every artifact modkit writes."""

from __future__ import annotations

import os
from pathlib import Path


def write_text(path: str | Path, content: str) -> None:
    """Write ``content`` as UTF-8 to ``path`` (newlines untranslated).

    The bytes go to a sibling ``.tmp`` file that is then renamed over
    ``path``, so a reader, or a write that fails part way, never leaves
    a truncated file: ``path`` holds either its old or its new content.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(content.encode("utf-8"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
