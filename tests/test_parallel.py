"""The chunk pool: results independent of the CPU count, errors, lifetimes."""

import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import rknet
from rknet import parallel

SRC = Path(rknet.__file__).resolve().parents[1]
TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2

# Trains one epoch of an ERK and an IRK model and writes their checkpoints.
# argv: dtype, output directory, CPU to pin to ("all" keeps the affinity).
# The affinity is set before numpy is imported, as a one-CPU machine has it.
CHILD = """
import os, sys
dtype, out, cpu = sys.argv[1:]
if cpu != "all":
    os.sched_setaffinity(0, {int(cpu)})
from rknet import data, model_spec, network, train
train_split = data.gen_synthetic_shapes(16, size=16, noise=0.15, seed=3, split="train")
test_split = data.gen_synthetic_shapes(4, size=16, noise=0.15, seed=3, split="test")
for name in ("ERKNet-2x1_2x1", "IRKNet-2x1"):
    spec = model_spec.spec_from_config({"name": name, "k": 12, "input_shape": [3, 16, 16],
                                        "num_classes": 4})
    model = network.build_model(spec, seed=5, dtype=dtype)
    train.train_epochs(model, train_split, test_split,
                       train.TrainConfig(epochs=1, batch_size=64, lr0=0.05, seed=5))
    network.save_checkpoint(model, os.path.join(out, name + ".ckpt"))
"""


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def train_in_child(tmp_path, dtype, cpu):
    out = tmp_path / f"{dtype}-{cpu}"
    out.mkdir()
    subprocess.run([sys.executable, "-c", CHILD, dtype, str(out), cpu], env=child_env(),
                   check=True, timeout=120)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.skipif(not TWO_CPUS, reason="needs two usable CPUs")
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoints_do_not_depend_on_the_cpu_count(tmp_path, dtype):
    one_cpu = train_in_child(tmp_path, dtype, str(min(os.sched_getaffinity(0))))
    all_cpus = train_in_child(tmp_path, dtype, "all")
    assert list(one_cpu) == ["ERKNet-2x1_2x1.ckpt", "IRKNet-2x1.ckpt"]
    assert one_cpu == all_cpus


def pool_has_workers():
    return parallel.width([0, 1]) > 1


@pytest.mark.skipif(not TWO_CPUS, reason="needs two usable CPUs")
def test_error_is_raised_after_the_worker_stops_writing():
    if not pool_has_workers():
        pytest.skip("no BLAS thread setter found, so the pool runs inline")
    target = np.zeros(1 << 16)
    started = threading.Event()

    def chunk(i, slot):
        if slot == 0:  # the calling thread fails while a worker is still writing
            assert started.wait(10)
            raise KeyError("chunk failed")
        started.set()
        for k in range(len(target)):
            target[k] = 1.0

    with pytest.raises(KeyError, match="chunk failed"):
        parallel.run(chunk, [0, 1])
    assert target.min() == 1.0


@pytest.mark.skipif(not TWO_CPUS, reason="needs two usable CPUs")
def test_a_worker_error_reaches_the_caller_and_stops_new_chunks():
    if not pool_has_workers():
        pytest.skip("no BLAS thread setter found, so the pool runs inline")
    failed = threading.Event()
    ran = []

    def chunk(i, slot):
        ran.append(i)
        if slot == 0:  # the calling thread waits until a worker has failed
            assert failed.wait(10)
            return
        failed.set()
        raise ValueError(f"chunk {i} failed in a worker")

    with pytest.raises(ValueError, match="failed in a worker"):
        parallel.run(chunk, list(range(50)))
    assert len(ran) <= 2  # each thread started at most one chunk, none after the error
    parallel.run(lambda i, slot: ran.append(i), [7, 8])
    assert sorted(ran[-2:]) == [7, 8]  # the pool still works after an error


def add_one(data):
    return lambda s, slot: data.__setitem__(s, data[s] + 1)


def test_every_chunk_runs_once_and_no_array_outlives_the_call():
    data = np.zeros(1000)
    alive = weakref.ref(data)
    parallel.run(add_one(data), parallel.spans(len(data), 1 << 12))
    assert np.all(data == 1)
    del data
    gc.collect()
    assert alive() is None  # no worker holds the chunk function after run returns


def test_a_one_chunk_spans_list_runs_on_the_calling_thread():
    chunks = parallel.spans(1000, 8)
    assert len(chunks) == 1
    threads = set()
    parallel.run(lambda s, slot: threads.add(threading.get_ident()), chunks)
    assert threads == {threading.get_ident()}


def test_a_one_chunk_run_starts_the_pool(monkeypatch):
    # starting the pool is what pins BLAS to one thread, so the first op of
    # a process pins it however small its work is
    pins = []
    pin = parallel._pin_blas_to_one_thread
    monkeypatch.setattr(parallel, "_pin_blas_to_one_thread", lambda: pins.append(1) or pin())
    monkeypatch.setattr(parallel, "_POOL", None)
    parallel.run(lambda s, slot: None, [slice(0, 1)])
    assert pins == [1]
    assert parallel._POOL is not None and parallel._POOL.pid == os.getpid()


def test_spans_cover_the_range_in_order():
    for n, unit in ((0, 8), (1, 1 << 30), (10, parallel.CHUNK_BYTES // 3), (64, 1)):
        s = parallel.spans(n, unit)
        assert [i for sl in s for i in range(n)[sl]] == list(range(n))


def test_chunks_run_exactly_once_with_more_workers_than_cpus(monkeypatch):
    # a pool built for 6 CPUs, thread switches forced often: a chunk taken
    # twice or lost by the shared iterator would break the counts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    monkeypatch.setattr(parallel, "_POOL", None)
    counts = np.zeros(2000, dtype=np.int64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            parallel.run(lambda i, slot: counts.__setitem__(i, counts[i] + 1),
                         list(range(len(counts))))
    finally:
        sys.setswitchinterval(interval)
    assert np.all(counts == 20)


# A worker's chunk interrupts the calling thread while ``run`` waits for that
# worker, then keeps the worker in the abandoned job a little longer.  Three
# more pooled calls follow, each with a slow chunk that a worker takes: each
# must return only after every chunk was written.
INTERRUPT_CHILD = """
import signal, threading, time
from rknet import parallel
signal.signal(signal.SIGINT, signal.default_int_handler)
main = threading.main_thread().ident
worker_in = threading.Event()

def interrupt(i, slot):
    if slot == 0:   # the caller leaves its chunk once a worker has taken the other
        assert worker_in.wait(10), "no worker took a chunk"
        return
    worker_in.set()
    time.sleep(0.2)   # the caller is now waiting for this worker
    signal.pthread_kill(main, signal.SIGINT)
    time.sleep(0.3)

try:
    parallel.run(interrupt, [0, 1])
    raise SystemExit("run was not interrupted")
except KeyboardInterrupt:
    pass
for call in range(3):
    written = [False, False]
    worker_in = threading.Event()

    def slow(i, slot):
        if slot == 0:
            assert worker_in.wait(10), "no worker took a chunk"
        else:
            worker_in.set()
            time.sleep(0.2)
        written[i] = True

    parallel.run(slow, [0, 1])
    assert written == [True, True], (call, written)
print("ok")
"""


@pytest.mark.skipif(not TWO_CPUS, reason="needs two usable CPUs")
def test_an_interrupt_while_waiting_leaves_the_pool_usable():
    if not pool_has_workers():
        pytest.skip("no BLAS thread setter found, so the pool runs inline")
    done = subprocess.run([sys.executable, "-c", INTERRUPT_CHILD], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


class AcquireThenInterrupt:
    """Stands in for the pool's ``busy`` lock: takes the real one, then raises
    as an interrupt that lands right after the acquire would."""

    def __init__(self, lock):
        self.lock = lock

    def acquire(self, blocking=True):
        self.lock.acquire(blocking)
        raise KeyboardInterrupt

    def release(self):
        self.lock.release()


@pytest.mark.skipif(not TWO_CPUS, reason="needs two usable CPUs")
def test_an_interrupt_right_after_the_acquire_leaves_the_pool_free(monkeypatch):
    if not pool_has_workers():
        pytest.skip("no BLAS thread setter found, so the pool runs inline")
    pool = parallel._pool()
    monkeypatch.setattr(pool, "busy", AcquireThenInterrupt(pool.busy))
    with pytest.raises(KeyboardInterrupt):
        parallel.run(lambda i, slot: None, [0, 1])
    monkeypatch.undo()
    worker_in = threading.Event()

    def chunk(i, slot):   # the caller waits in its chunk until a worker has taken the other
        if slot == 0:
            worker_in.wait(5)
        else:
            worker_in.set()

    parallel.run(chunk, [0, 1])
    assert worker_in.is_set(), "busy stayed held, so the run went inline"


def test_a_caller_that_finds_the_pool_busy_runs_inline_and_leaves_the_lock_alone():
    pool = parallel._pool()
    held, done = threading.Event(), threading.Event()

    def holder():
        with pool.busy:
            held.set()
            done.wait(10)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert held.wait(10)
        slots = []
        parallel.run(lambda i, slot: slots.append(slot), [0, 1, 2])
        assert slots == [0, 0, 0]
        assert not pool.busy.acquire(blocking=False)   # still the other thread's
    finally:
        done.set()
        thread.join(10)
    assert not thread.is_alive()
