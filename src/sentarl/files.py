"""Whole-file writes that replace their target atomically."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temp file beside `path` for writing; a clean exit moves it
    over `path` with os.replace.

    Readers see the old bytes or the new ones, never a part. If the block
    raises, the temp file is removed and `path` keeps its old bytes; only
    a kill mid-write leaves the temp file (`.<name>.<pid>.tmp`) behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
