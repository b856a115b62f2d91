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


def train_in_child(tmp_path, dtype, cpu):
    out = tmp_path / f"{dtype}-{cpu}"
    out.mkdir()
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", CHILD, dtype, str(out), cpu], env=env, check=True,
                   timeout=120)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.skipif(not TWO_CPUS, reason="needs two usable CPUs")
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoints_do_not_depend_on_the_cpu_count(tmp_path, dtype):
    one_cpu = train_in_child(tmp_path, dtype, str(min(os.sched_getaffinity(0))))
    all_cpus = train_in_child(tmp_path, dtype, "all")
    assert list(one_cpu) == ["ERKNet-2x1_2x1.ckpt", "IRKNet-2x1.ckpt"]
    assert one_cpu == all_cpus


def pool_has_workers():
    return parallel.width([0, 1], parallel.INLINE_BYTES) > 1


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
        parallel.run(chunk, [0, 1], parallel.INLINE_BYTES)
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
        parallel.run(chunk, list(range(50)), parallel.INLINE_BYTES)
    assert len(ran) <= 2  # each thread started at most one chunk, none after the error
    parallel.run(lambda i, slot: ran.append(i), [7, 8], parallel.INLINE_BYTES)
    assert sorted(ran[-2:]) == [7, 8]  # the pool still works after an error


def add_one(data):
    return lambda s, slot: data.__setitem__(s, data[s] + 1)


def test_every_chunk_runs_once_and_no_array_outlives_the_call():
    data = np.zeros(1000)
    alive = weakref.ref(data)
    parallel.run(add_one(data), parallel.spans(len(data), 1 << 12), parallel.INLINE_BYTES)
    assert np.all(data == 1)
    del data
    gc.collect()
    assert alive() is None  # no worker holds the chunk function after run returns


def test_small_work_runs_on_the_calling_thread():
    threads = set()
    parallel.run(lambda i, slot: threads.add(threading.get_ident()), list(range(8)),
                 parallel.INLINE_BYTES - 1)
    assert threads == {threading.get_ident()}


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
                         list(range(len(counts))), parallel.INLINE_BYTES)
    finally:
        sys.setswitchinterval(interval)
    assert np.all(counts == 20)
