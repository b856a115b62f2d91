"""Chunked work on the calling thread plus a worker pool.

``run(fn, chunks)`` calls ``fn(chunk, slot)`` once per chunk.  The
calling thread and the pool's workers pull chunks from one shared iterator,
so a participant that the host slows down simply takes fewer of them; ``slot``
numbers the participant (0 is the calling thread), for per-participant
scratch.  numpy releases the GIL inside its loops and GEMMs, so the chunks
run on separate cores.  Chunk functions only write slices of arrays the
caller allocated; they record nothing on a tape.

The pool starts with the first ``run`` call, not at import, and is started
again in a forked child.  It first pins numpy's bundled OpenBLAS to one
thread for the whole process, so that pooled GEMMs do not compete with BLAS
helper threads and results do not depend on the number of CPUs, and then
starts one worker per further usable CPU.  When no thread setter is found
(another BLAS build), the pool has no workers and every chunk runs on the
calling thread, through the same loop.  So does a pass of one chunk, which is
what ``spans`` makes of work below ``CHUNK_BYTES``.
"""

import contextlib
import contextvars
import ctypes
import os
import queue
import threading
from pathlib import Path

import numpy as np

CHUNK_BYTES = 1 << 20    # target bytes a chunk of ``spans`` covers
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


def _pin_blas_to_one_thread():
    """Set numpy's bundled OpenBLAS to one thread; False when no setter is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for name in _BLAS_SETTERS:
            setter = getattr(handle, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return True
    return False


class _Job:
    """One ``run`` call: the shared chunk iterator, the caller's context, an error
    a chunk raised, and the queue on which each worker reports that it has left the job."""

    def __init__(self, fn, chunks):
        self.fn = fn
        self.chunks = iter(chunks)
        self.context = contextvars.copy_context()
        self.error = None
        self.left = queue.SimpleQueue()

    def work(self, slot):
        for chunk in self.chunks:   # next() on a list iterator is atomic under the GIL
            if self.error is not None:
                return
            try:
                self.fn(chunk, slot)
            except BaseException as exc:  # re-raised on the calling thread
                self.error = exc
                return


class _Pool:
    """Workers that each take jobs from one queue, one job per ``put``."""

    def __init__(self):
        self.pid = os.getpid()
        self.busy = threading.RLock()   # one job at a time; a concurrent caller runs inline
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        self.workers = (cpus or 1) - 1 if _pin_blas_to_one_thread() else 0
        self.jobs = queue.SimpleQueue()
        for slot in range(1, self.workers + 1):
            threading.Thread(target=self._serve, args=(slot,), daemon=True).start()

    def _serve(self, slot):
        while True:
            job = self.jobs.get()
            job.context.copy().run(job.work, slot)   # the caller's np.errstate; one copy per thread
            left, job = job.left, None   # so the chunk function's arrays do not outlive ``run``
            left.put(None)


_POOL = None   # one per process, as the BLAS pin it makes is process-wide


def _pool():
    global _POOL
    if _POOL is None or _POOL.pid != os.getpid():
        _POOL = _Pool()
    return _POOL


def width(chunks):
    """How many participants ``run`` may use for these chunks: the slots to allocate."""
    return 1 if len(chunks) < 2 else 1 + _pool().workers


def run(fn, chunks):
    """Call ``fn(chunk, slot)`` for every chunk.

    If a chunk raises, no participant starts another chunk, and the error
    (one of them, if several chunks raised) is raised here once every worker
    has left the job, so no worker still writes into the caller's arrays.
    Any other exception, such as an interrupt while waiting, also stops new
    chunks and is raised at once; a worker's late report goes to this job's
    own queue, which no later call reads.
    """
    pool = _pool()
    job = _Job(fn, chunks)
    pooled = width(chunks) > 1
    try:   # from the acquire on, so an interrupt right after it still releases busy
        workers = pool.workers if pooled and pool.busy.acquire(blocking=False) else 0
        for _ in range(workers):
            pool.jobs.put(job)
        job.work(0)
        for _ in range(workers):
            job.left.get()
    except BaseException as exc:
        job.error = exc
        raise
    finally:
        if pooled:
            with contextlib.suppress(RuntimeError):   # an RLock held by another thread
                pool.busy.release()
    if job.error is not None:
        raise job.error


def spans(n, unit_bytes):
    """Split range(n) into consecutive slices of near-equal size, each at most
    about ``CHUNK_BYTES``; ``unit_bytes`` is the size of one index's data."""
    count = min(n, max(1, -(-n * unit_bytes // CHUNK_BYTES)))
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]
