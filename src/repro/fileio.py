"""Atomic file replacement for the on-disk state the system keeps: the
result cache's records, the upgrade journal and the gateway's ring
checkpoint."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write(
    path: str | os.PathLike, text: str, *, prefix: str, suffix: str = ""
) -> None:
    """Replace ``path`` with ``text`` so that a reader sees the old
    file or the new one, never a torn one: write a temporary file
    (``prefix``/``suffix`` name it) in the same directory, then
    ``os.replace`` it over ``path``.  Creates the parent directory.
    Raises ``OSError``, leaving no temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
