"""Atomic artefact writes: a file on disk is either the old one or the new one,
never half-written."""

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """Open a temp file beside ``path`` for writing; on a clean exit, flush it
    to disk and move it over ``path`` with ``os.replace``.  On an exception
    the temp file is deleted and ``path`` keeps its previous contents."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so the replace is atomic
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
