"""Atomic file replacement for every artifact modkit writes."""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import Iterable


def write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the concatenated ``chunks`` as UTF-8 to ``path`` (newlines
    untranslated), without holding them in memory at once.

    The bytes go to a sibling ``.tmp`` file that is then renamed over
    ``path``, so a reader, or a write that fails part way (the chunks'
    generator included), never leaves a truncated file: ``path`` holds
    either its old or its new content, and the ``.tmp`` file is removed.
    An :class:`OSError` with an error number names ``path``, not the
    ``.tmp`` file. A path whose name is empty (``""``, ``.``, ``/``) or
    ``..`` names a directory, and is refused with :class:`IsADirectoryError`.
    """
    path = Path(path)
    if path.name in ("", ".."):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path: str | Path, content: str) -> None:
    """Write ``content`` as UTF-8 to ``path``; see :func:`write_chunks`."""
    write_chunks(path, (content,))
