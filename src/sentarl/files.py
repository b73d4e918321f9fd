"""The one file policy: CSV tables are read with their header checked, every
write replaces its target atomically, and one run holds an output directory."""

from __future__ import annotations

import csv
import fcntl
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .errors import ConfigError, IngestError


def read_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, row) for each non-blank data row of a UTF-8
    CSV whose first row must be `header`; a missing file, one that cannot
    be read or decoded, an empty one or a wrong header is an IngestError
    naming the path, and the line where it has one."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{path}: file does not exist")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                raise IngestError(f"{path}:1: empty file, expected header {','.join(header)}")
            if [h.strip() for h in found] != list(header):
                raise IngestError(f"{path}:1: bad header {found!r}, expected {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                if row:
                    yield lineno, row
    except OSError as exc:
        raise IngestError(f"{path}: cannot read the file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text: {exc.reason}") from None


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


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    """Write `header` then `rows` as a UTF-8 CSV (CRLF line ends), atomically."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def run_lock(directory: str | Path) -> Iterator[None]:
    """Hold `<directory>/.sentarl.lock` for the block, with this pid written
    in it; the kernel drops the lock if the process dies. Once it is held,
    each `.<name>.<pid>.tmp` under `directory` whose pid is dead is removed.
    A lock another process holds is a ConfigError naming that pid."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    with open(Path(directory) / ".sentarl.lock", "a+", encoding="ascii") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.seek(0)
            raise ConfigError(f"{directory} is in use by another sentarl run "
                              f"(pid {fh.read().strip() or '?'})") from None
        fh.truncate(0)
        print(os.getpid(), file=fh, flush=True)
        for tmp in Path(directory).rglob(".*.tmp"):
            try:
                os.kill(int(tmp.name.split(".")[-2]), 0)
            except (ProcessLookupError, OverflowError):
                tmp.unlink(missing_ok=True)
            except (PermissionError, ValueError):  # another user's live pid, or no pid
                pass
        yield
