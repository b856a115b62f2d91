"""Mutation check: known defects, put back one at a time, must fail their tests.

Each row of ``MUTANTS`` is one defect that a past change fixed or guarded
against: a file under ``src``, an exact text that occurs once in that file,
the text that replaces it, and the tests that must fail once it is replaced.
For each mutant the runner copies ``src``, ``tests``, ``tools`` and
``pyproject.toml`` to a temporary directory, applies the replacement there
and runs the named tests with pytest in a child process.  A mutant is killed
when every named test fails (for a parametrized test, at least one of its
cases).  The working tree is never written.

Run from the repository root:

    python tools/mutants.py

It prints one line per mutant and the wall time, and exits 1 if any mutant
survives.  The tier-1 suite only checks that every old text still occurs
exactly once under ``src`` (``tests/test_mutants.py``); a change that moves
such code updates its row here.  Only the standard library is used.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "pyproject.toml")
TIMEOUT_S = 600

Mutant = namedtuple("Mutant", "name path old new tests")

OPS = "src/rknet/ops.py"
TRAIN = "src/rknet/train.py"
CONV_TESTS = ("tests/test_ops.py::TestConv2d::test_gradients_match_loop_oracle",
              "tests/test_ops.py::TestConv2d::test_block_walk_matches_loop_oracles")

MUTANTS = [
    # conv2d.  A non-zero tail alone is an equivalent mutant: the tail only
    # reaches wide columns that the crop drops, so the fill covers the pad border too.
    Mutant("conv-nonzero-xf-fill", OPS,
           "xf = np.zeros((c, m + tail), dtype=dtype)",
           "xf = np.full((c, m + tail), 0.5, dtype=dtype)",
           CONV_TESTS),
    Mutant("conv-stray-wide-gradient-write", OPS,
           "parallel.run(scatter_images, images)",
           "parallel.run(scatter_images, images)\n        gpad[:, -1] += 1",
           CONV_TESTS),
    Mutant("conv-gx-shifted-by-one", OPS,
           "gxf_images = xf[:, :m].reshape(c, n, hp, wp)",
           "gxf_images = np.roll(xf[:, :m], 1, axis=1).reshape(c, n, hp, wp)",
           CONV_TESTS),
    Mutant("conv-backward-reads-zeroed-copy", OPS,
           "        xf = padded()",
           "        xf = np.zeros((c, m + tail), dtype=dtype)",
           CONV_TESTS),
    Mutant("conv-closure-keeps-xf", OPS,
           "        xf = padded()\n",
           "",
           ("tests/test_ops.py::TestConv2d::test_tape_keeps_no_padded_copy",
            "tests/test_autodiff.py::test_backward_closures_hold_arrays_not_tensors")),
    Mutant("conv-block-fill-ignores-block-start", OPS,
           "shifted[t] = gpad[:, tail - offsets[t] + a:tail - offsets[t] + b]",
           "shifted[t] = gpad[:, tail - offsets[t]:tail - offsets[t] + b - a]",
           CONV_TESTS[1:]),
    Mutant("conv-gw-overwritten-per-block", OPS,
           "            gw += part",
           "            gw[...] = part",
           CONV_TESTS[1:]),
    # pointwise backward
    Mutant("sigmoid-backward-scaled", OPS,
           "lambda g: (g * s * (1 - s),)",
           "lambda g: (1.1 * g * s * (1 - s),)",
           ("tests/test_autodiff.py::test_pointwise_gradients",)),
    Mutant("exp-backward-scaled", OPS,
           "lambda g: (g * e,)",
           "lambda g: (1.1 * g * e,)",
           ("tests/test_autodiff.py::test_pointwise_gradients",
            "tests/test_blocks.py::TestTimeChannelStepBlock::test_theta_gradient_nonzero_and_matches_fd")),
    Mutant("dropout-backward-drops-scale", OPS,
           "lambda g: (g * (kept / keep_p),)",
           "lambda g: (g * kept,)",
           ("tests/test_ops.py::TestDropout::test_gradient_is_g_times_the_forward_factor_bitwise",)),
    # batchnorm
    Mutant("batchnorm-eval-mean-not-copied", OPS,
           "running_mean.copy(), running_var",
           "running_mean, running_var",
           ("tests/test_ops.py::TestBatchNorm::test_eval_backward_ignores_a_later_train_update",)),
    Mutant("batchnorm-running-mean-sign", OPS,
           "running_mean += BN_MOMENTUM * (mu - running_mean)",
           "running_mean += BN_MOMENTUM * (mu + running_mean)",
           ("tests/test_ops.py::TestBatchNorm::test_running_stats_update_and_eval_mode",)),
    Mutant("batchnorm-closure-holds-output", OPS,
           "gx = np.empty_like(xd)",
           "gx = np.empty_like(out)",
           ("tests/test_autodiff.py::test_backward_closures_hold_arrays_not_tensors",)),
    Mutant("batchnorm-sums-in-input-dtype", OPS,
           "gsum[s] = np.einsum(\"nchw->c\", gout[:, s], dtype=np.float64)\n"
           "            gxsum[s] = np.einsum(\"nchw,nchw->c\", gout[:, s], xd[:, s], dtype=np.float64)",
           "gsum[s] = np.einsum(\"nchw->c\", gout[:, s])\n"
           "            gxsum[s] = np.einsum(\"nchw,nchw->c\", gout[:, s], xd[:, s])",
           ("tests/test_ops.py::TestBatchNorm::"
            "test_float32_gradients_match_a_float64_oracle_far_from_zero_mean",)),
    Mutant("batchnorm-train-gradient-drops-q", OPS,
           "                gxs += q\n",
           "",
           ("tests/test_ops.py::TestBatchNorm::test_train_mode_gradients",
            "tests/test_ops.py::TestBatchNorm::"
            "test_float32_gradients_match_a_float64_oracle_far_from_zero_mean")),
    # softmax and the reported metrics
    Mutant("softmax-adds-row-max", OPS,
           "z = logits.data - logits.data.max(axis=1, keepdims=True)",
           "z = logits.data + logits.data.max(axis=1, keepdims=True)",
           ("tests/test_ops.py::TestSoftmaxCrossEntropy::"
            "test_large_logits_match_a_float64_log_sum_exp",)),
    Mutant("evaluate-accuracy-times-count", TRAIN,
           "total_correct / len(data)",
           "total_correct * len(data)",
           ("tests/test_train.py::TestReportedMetrics::"
            "test_evaluate_equals_one_eval_forward_over_all_images",)),
    Mutant("evaluate-loss-divided-by-batch", TRAIN,
           "total_loss += float(loss.data) * len(labels)",
           "total_loss += float(loss.data) / len(labels)",
           ("tests/test_train.py::TestReportedMetrics::"
            "test_evaluate_equals_one_eval_forward_over_all_images",)),
    Mutant("train-loss-times-count", TRAIN,
           '"train_loss": total_loss / len(perm)',
           '"train_loss": total_loss * len(perm)',
           ("tests/test_train.py::TestReportedMetrics::"
            "test_train_row_equals_the_one_batch_train_forward",)),
    # the chunk pool
    Mutant("pool-worker-keeps-last-job", "src/rknet/parallel.py",
           "left, job = job.left, None",
           "left = job.left",
           ("tests/test_parallel.py::test_every_chunk_runs_once_and_no_array_outlives_the_call",)),
    Mutant("pool-every-thread-iterates-all-chunks", "src/rknet/parallel.py",
           "self.chunks = iter(chunks)",
           "self.chunks = chunks",
           ("tests/test_parallel.py::test_chunks_run_exactly_once_with_more_workers_than_cpus",)),
    Mutant("pool-one-report-queue", "src/rknet/parallel.py",
           "self.left = queue.SimpleQueue()",
           "self.left = globals().setdefault('_LEFT', queue.SimpleQueue())",
           ("tests/test_parallel.py::test_an_interrupt_while_waiting_leaves_the_pool_usable",)),
    # settings and files
    Mutant("settings-bool-skips-reader", "src/rknet/model_spec.py",
           "setattr(obj, f.name, readers[f.type](value))",
           "setattr(obj, f.name, value if f.type is bool else readers[f.type](value))",
           ("tests/test_train.py::TestTrainConfig::test_rejects_wrong_types_and_non_finite_values",
            "tests/test_cli.py::test_malformed_config_exits_1_with_an_error_line")),
    Mutant("cli-augment-check-dropped", "src/rknet/cli.py",
           "if config.augment and spec.input_shape[1:] != (32, 32):",
           "if False:",
           ("tests/test_cli.py::test_augment_on_images_not_32x32_exits_1_before_the_model_is_built",)),
    Mutant("checkpoint-json-object-check-dropped", "src/rknet/network.py",
           "if not isinstance(cfg, dict):\n            raise",
           "if False:\n            raise",
           ("tests/test_cli.py::TestTrainEvalInspect::test_corrupted_checkpoint_exits_2",)),
    Mutant("cli-out-check-dropped", "src/rknet/cli.py",
           "    _check_out_dir(args.out)\n",
           "",
           ("tests/test_cli.py::TestTrainEvalInspect::"
            "test_out_that_cannot_be_a_directory_exits_1_before_any_data_is_made",)),
    # the pre-activation unit
    Mutant("preact-drops-time-plane", "src/rknet/blocks.py",
           "h = ops.concat_channels([h, time])",
           "h = ops.concat_channels([h, ops.scale(time, 0.0)])",
           ("tests/test_blocks.py::TestTimeChannelStepBlock::test_time_plane_joins_after_bn_relu",)),
]


def run_tests(tests, mutant=None):
    """Run tests with pytest in a temporary copy of the tree, with the mutant
    applied if one is given; returns pytest's exit code and the node ids of
    the tests that failed or errored."""
    with tempfile.TemporaryDirectory(prefix="rknet-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, tree / name)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                                 f"times in {mutant.path}, expected once")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                               "no:cacheprovider", *tests], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]
    return done.returncode, failed


def main():
    start = time.perf_counter()
    # a test that fails without any mutant would kill every mutant for nothing
    code, failed = run_tests(sorted({t for m in MUTANTS for t in m.tests}))
    if code != 0:
        print(f"the named tests do not pass on the unmutated tree (pytest exit {code}): "
              f"{failed}", file=sys.stderr)
        return 2
    survivors = []
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        _, failed = run_tests(mutant.tests, mutant)
        passed = [t for t in mutant.tests
                  if not any(f == t or f.startswith(t + "[") for f in failed)]
        print(f"{'survived' if passed else 'killed':<9} {mutant.name:<40} "
              f"{time.perf_counter() - t0:6.1f} s", flush=True)
        for test in passed:
            print(f"          still passes: {test}", flush=True)
        if passed:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s (with one unmutated run first)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
