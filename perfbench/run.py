"""rknet benchmark: train and eval throughput, peak memory and set-up time.

Run from the repository root:

    python3 perfbench/run.py --workload paper_train --seed 0 --seconds 35 --trace 0

Each workload is a closed loop in this one process: the next round starts
only after the previous one has finished.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` prints the per-layer metrics, taken
from rounds traced by ``tracer.py`` that alternate with untraced rounds, so
the tracing overhead is measured in the same process.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller result, with the
environment, the checks and (when traced) the per-scope table and the spans,
is written under ``perfbench/out/``.  See perfbench/README.md.
"""

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

NOISE = 0.15
BATCH = 64
EVAL_BATCH = 256
EVAL_CHUNKS = 2
SETUP_REPEATS = 5
WARMUP_IMAGES = 8
# rounds of the default seed compared against reference.json
REFERENCE_ROUNDS = {"paper_train": 4, "small_train": 8, "paper_eval": 2}
# Allowed drift from the reference.  Rounding changes of the kind ROADMAP aim 3
# permits (conv2d forward summed in float64, then rounded to float32) moved
# the compared losses by at most 1.7e-3 relative in training, where SGD
# amplifies them from round to round, and not at all in eval.  Accuracies may
# flip at most ACC_IMAGES images of their split.
LOSS_RTOL_TRAIN = 1e-2
LOSS_RTOL_EVAL = 1e-4
ACC_IMAGES = 2
# A 1-minute load above nproc + this means something besides this benchmark
# was runnable: the benchmark itself never runs more threads than nproc.
SUSPECT_LOAD_MARGIN = 0.5

PAPER = {"name": "ERKNet-3x2_3x2_3x2", "k": 12, "input_shape": [3, 32, 32], "num_classes": 4,
         "multiscale": True, "attentional_transition": True}
SMALL = (
    {"name": "ERKNet-3x1", "k": 8, "m": 1, "input_shape": [3, 16, 16], "num_classes": 4},
    {"name": "IRKNet-2x1_2x1", "k": 12, "input_shape": [3, 16, 16], "num_classes": 4},
    {"name": "RKNet-1x4", "kind": "time_channel", "k": 8, "m": 1,
     "input_shape": [3, 16, 16], "num_classes": 4},
)


@dataclass(frozen=True)
class Workload:
    models: tuple        # model configs, trained or evaluated round-robin
    size: int            # image side
    train_images: int    # per train_epochs call; 0 makes an eval-only workload
    test_images: int     # per-epoch evaluate split, or the eval workload's images
    augment: bool = False
    lr0: float = 0.1


WORKLOADS = {
    # The paper's CIFAR recipe (augmentation, so dropout 0) at lr0 0.01: at the
    # recipe's lr0 0.1 this model diverges on the synthetic shapes within
    # 6 epochs (eval loss NaN), which would make every run fail.  One batch
    # per epoch gives the most rounds, hence the steadiest median, per run.
    "paper_train": Workload((PAPER,), 32, 64, 32, augment=True, lr0=0.01),
    # The acceptance-scale models of criteria 06/07/08 with their recipe (dropout 0.2).
    "small_train": Workload(SMALL, 16, 128, 64),
    # Eval chunks of one 256-image batch each, evaluated in turn.
    "paper_eval": Workload((PAPER,), 32, 0, EVAL_CHUNKS * EVAL_BATCH),
}


def blas_threads():
    """Pin BLAS to the CPUs this process may use; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


SRC = ROOT / "src"
MODULES = ("numpy", "rknet.data", "rknet.model_spec", "rknet.network", "rknet.train")


def import_rknet():
    """Import numpy and the checkout's rknet, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import rknet
    if not Path(rknet.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rknet imported from {rknet.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(name)


def import_seconds():
    """Time the program's imports in a fresh interpreter (this process has them already)."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            f"import {', '.join(MODULES)}; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# Environment

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime_threads():
    """Threads OpenBLAS reports using, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(threads):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_set": threads,
        "blas_threads_reported": _blas_runtime_threads(),
        "load_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Workloads

@dataclass
class State:
    models: list
    train_split: object
    test_split: object
    chunks: list


def set_up(wl, seed):
    """Data generation, build_model and an untimed warm-up of every code path."""
    from rknet import data, model_spec, network, train

    train_split = (data.gen_synthetic_shapes(wl.train_images // 4, size=wl.size, noise=NOISE,
                                             seed=seed, split="train")
                   if wl.train_images else None)
    test_split = data.gen_synthetic_shapes(wl.test_images // 4, size=wl.size, noise=NOISE,
                                           seed=seed, split="test")
    models = [network.build_model(model_spec.spec_from_config(cfg), seed=seed)
              for cfg in wl.models]
    tiny = data.DatasetHandle(test_split.images[:WARMUP_IMAGES], test_split.labels[:WARMUP_IMAGES],
                              "warmup", test_split.num_classes)
    for model in models:
        if train_split is None:
            train.evaluate(model, tiny)
        else:  # lr0 0 leaves the weights as built
            train.train_epochs(model, tiny, tiny, train.TrainConfig(
                epochs=1, batch_size=WARMUP_IMAGES, lr0=0.0, augment=wl.augment, seed=seed))
    chunks = []
    if train_split is None:
        for start in range(0, len(test_split), EVAL_BATCH):
            sl = slice(start, start + EVAL_BATCH)
            chunks.append(data.DatasetHandle(test_split.images[sl], test_split.labels[sl],
                                             "test", test_split.num_classes))
    return State(models, train_split, test_split, chunks)


def batches_per_round(wl):
    if wl.train_images:
        return len(wl.models) * math.ceil(wl.train_images / BATCH)
    return 1


def images_per_round(wl):
    return len(wl.models) * wl.train_images if wl.train_images else EVAL_BATCH


def run_round(wl, state, seed, r):
    """One round: an epoch of each model (train) or one eval batch (eval).

    Returns one (loss, acc, ...) tuple per model (train) or per batch (eval)
    and the seconds each model took.
    """
    from rknet import train

    if not wl.train_images:
        chunk = state.chunks[r % EVAL_CHUNKS]
        t0 = time.perf_counter()
        out = train.evaluate(state.models[0], chunk, batch_size=EVAL_BATCH)
        return [list(out)], [time.perf_counter() - t0]
    outs, times = [], []
    for model in state.models:
        cfg = train.TrainConfig(epochs=1, batch_size=BATCH, lr0=wl.lr0, lr_drop_factor=1.0,
                                augment=wl.augment, seed=seed * 100_000 + r)
        t0 = time.perf_counter()
        (row,) = train.train_epochs(model, state.train_split, state.test_split, cfg)
        times.append(time.perf_counter() - t0)
        outs.append([row["train_loss"], row["train_acc"], row["test_loss"], row["test_acc"]])
    return outs, times


class Checker:
    """Output checks: finite losses, accuracies in [0, 1], repeatable eval
    results and, for the default seed, agreement with reference.json."""

    def __init__(self, workload, wl, seed, reference):
        self.wl = wl
        self.reference = reference.get(workload) if seed == 0 else None
        self.split_sizes = ([wl.train_images, wl.test_images] if wl.train_images
                            else [EVAL_BATCH])
        self.loss_rtol = LOSS_RTOL_TRAIN if wl.train_images else LOSS_RTOL_EVAL
        self.first_eval = {}
        self.compared = 0
        self.max_loss_rel = 0.0
        self.problems = []

    def check(self, r, outs):
        ok = True
        for m_idx, values in enumerate(outs):
            where = f"round {r} item {m_idx}"
            losses, accs = values[0::2], values[1::2]
            if not all(math.isfinite(v) for v in values):
                self.problems.append(f"{where}: non-finite output {values}")
                ok = False
                continue
            if not all(0.0 <= a <= 1.0 for a in accs):
                self.problems.append(f"{where}: accuracy outside [0, 1]: {values}")
                ok = False
            if not self.wl.train_images:
                key = r % EVAL_CHUNKS
                first = self.first_eval.setdefault(key, values)
                if first != values:
                    self.problems.append(f"{where}: eval of chunk {key} gave {values}, "
                                         f"earlier {first}")
                    ok = False
            if self.reference is not None and r < len(self.reference):
                ref = self.reference[r][m_idx]
                self.compared += 1
                for got, want in zip(losses, ref[0::2]):
                    rel = abs(got - want) / max(abs(want), 1e-12)
                    self.max_loss_rel = max(self.max_loss_rel, rel)
                    if rel > self.loss_rtol:
                        self.problems.append(f"{where}: loss {got} vs reference {want}")
                        ok = False
                for got, want, n in zip(accs, ref[1::2], self.split_sizes):
                    if abs(got - want) * n > ACC_IMAGES + 1e-9:
                        self.problems.append(f"{where}: accuracy {got} vs reference {want}")
                        ok = False
        return ok


@dataclass
class Window:
    round_seconds: list      # untraced timed rounds
    traced_seconds: list     # traced rounds
    model_seconds: list      # per model, untraced timed rounds
    outputs: list            # every round, the warm-up round included
    attempted: int = 0
    failed: int = 0


def measure(wl, state, seed, seconds, checker, trace=None):
    """Run rounds in a closed loop until ``seconds`` have passed.

    Without a tracer every round is timed and untraced.  With one, an untimed
    warm-up round comes first and then rounds alternate between untraced and
    traced, so both see the same machine and the difference between them is
    the tracing overhead.  At least one round of each kind is timed.
    """
    win = Window([], [], [[] for _ in wl.models], [])
    per_round = batches_per_round(wl)
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        traced = trace is not None and r > 0 and r % 2 == 0
        win.attempted += per_round
        t0 = time.perf_counter()
        try:
            with trace.installed() if traced else contextlib.nullcontext():
                outs, times = run_round(wl, state, seed, r)
        except Exception:  # the failing round is counted, then the run stops
            traceback.print_exc()
            checker.problems.append(f"round {r}: exception")
            win.failed += per_round
            return win
        elapsed = time.perf_counter() - t0
        if traced:
            win.traced_seconds.append(elapsed)
        elif trace is None or r > 0:
            win.round_seconds.append(elapsed)
            for m_idx, t in enumerate(times):
                win.model_seconds[m_idx].append(t)
        win.outputs.append(outs)
        if not checker.check(r, outs):
            win.failed += per_round
        r += 1
        done = win.round_seconds and (trace is None or win.traced_seconds)
        if done and time.perf_counter() >= deadline:
            return win


# ---------------------------------------------------------------------------
# Reporting

def write_atomic(path, obj):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    os.replace(tmp, path)


def print_scope_table(scopes):
    print(f"{'scope':<40} {'fwd_ms':>10} {'bwd_ms':>10} {'tape_mib':>10}")
    for scope, row in scopes.items():
        print(f"{scope:<40} {row['fwd_ms']:>10.2f} {row['bwd_ms']:>10.2f} {row['tape_mib']:>10.2f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs (seed 0 only) as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.write_reference and args.seed != 0:
        parser.error("--write-reference needs --seed 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    threads = blas_threads()
    try:
        import_rknet()
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing

    env = environment(threads)
    wl = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    checker = Checker(args.workload, wl, args.seed, reference)
    trace = (tracing.Tracer("network.forward" if not wl.train_images
                            else "train.sgd_nesterov_step") if args.trace else None)

    import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if trace is not None:
            trace.batch = -(i + 1)
            with trace.installed():
                state = set_up(wl, args.seed)
        else:
            state = set_up(wl, args.seed)
        setup_times.append(time.perf_counter() - t0)

    per_round = batches_per_round(wl)
    if trace is not None:
        trace.batch = 0
    win = measure(wl, state, args.seed, args.seconds, checker, trace)
    if trace is None:
        values = {
            "images_per_s": images_per_round(wl) / statistics.median(win.round_seconds),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        }
        names = bench["end_to_end"]
    else:
        traced_batches = len(win.traced_seconds) * per_round
        values, scope_table = tracing.summarize(trace, traced_batches)
        untraced_ms = 1e3 * statistics.mean(win.round_seconds) / per_round
        traced_ms = 1e3 * statistics.mean(win.traced_seconds) / per_round
        values["trace.untraced_batch_ms"] = untraced_ms
        values["trace.traced_batch_ms"] = traced_ms
        values["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
        values["trace.accounted_pct"] = 100.0 * values["trace.accounted_batch_ms"] / untraced_ms
        names = bench["per_layer"]

    env["load_end"] = os.getloadavg()
    limit = env["cpus_usable"] + SUSPECT_LOAD_MARGIN
    env["suspect"] = max(env["load_start"][0], env["load_end"][0]) > limit
    attempted, failed = win.attempted, win.failed
    correct = not checker.problems

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(f"env: nproc {env['nproc']} ({env['cpus_usable']} usable), cpu {env['cpu_model']}, "
          f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']} "
          f"{env['blas_version']} threads {env['blas_threads_reported']}, load "
          f"{env['load_start'][0]:.2f} -> {env['load_end'][0]:.2f}")
    if env["suspect"]:
        print(f"WARNING: suspect run: 1-minute load above {limit:.1f}; other work competed")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(win.outputs)} rounds, {attempted} batches, {failed} failed "
          f"(error_rate {failed / attempted:.4f})")
    if wl.train_images:
        for cfg, secs in zip(wl.models, win.model_seconds):
            batch_ms = 1e3 * statistics.median(secs) / math.ceil(wl.train_images / BATCH)
            print(f"  {cfg['name']}: {batch_ms:.1f} ms per train batch "
                  f"(median, per-epoch evaluate included)")
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    if checker.compared:
        print(f"reference: {checker.compared} outputs compared, max loss rel. error "
              f"{checker.max_loss_rel:.3g} (tolerance {checker.loss_rtol})")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "problems": checker.problems,
              "setup_repeats_s": setup_times, "import_repeats_s": import_times,
              "round_seconds": win.round_seconds, "traced_round_seconds": win.traced_seconds,
              "outputs": win.outputs, "metrics": metrics}
    if trace is not None:
        ok = abs(values["trace.accounted_pct"] - 100.0) <= 10.0
        print(f"trace: self times account for {values['trace.accounted_pct']:.1f}% of the untraced "
              f"batch time ({'within' if ok else 'OUTSIDE'} 10%); tracing overhead "
              f"{values['trace.overhead_pct']:.1f}%")
        print_scope_table(scope_table)
        result.update(all_layer_values=values, scopes=scope_table,
                      spans=tracing.span_rows(trace))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    write_atomic(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", result)
    if args.write_reference:
        reference[args.workload] = win.outputs[:REFERENCE_ROUNDS[args.workload]]
        write_atomic(REFERENCE, reference)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
