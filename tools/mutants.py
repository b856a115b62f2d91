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
              "tests/test_ops.py::TestConv2d::test_group_walk_matches_loop_oracles")
FUSED_TESTS = ("tests/test_ops.py::TestFusedConv::test_equals_the_unfused_chain_bitwise",
               "tests/test_ops.py::TestFusedConv::test_gradients_match_finite_differences")

MUTANTS = [
    # conv2d's group walk.  A non-zero tail alone is an equivalent mutant: the
    # tail only reaches wide columns that the crop drops, so the fill covers
    # the pad border too.
    Mutant("conv-nonzero-xf-fill", OPS,
           "buf[:, :ends[zeroed - 1]] = 0",
           "buf[:, :ends[zeroed - 1]] = 0.5",
           CONV_TESTS),
    Mutant("conv-stray-wide-gradient-write", OPS,
           "[:, :, rows, cols] = gout_cn[:, s]",
           "[:, :, rows, cols] = gout_cn[:, s]\n            gpad[:, -1] += 1",
           CONV_TESTS),
    Mutant("conv-gx-shifted-by-one", OPS,
           "gxf_images = gxf.reshape(c, -1, hp, wp)",
           "gxf_images = np.roll(gxf, 1, axis=1).reshape(c, -1, hp, wp)",
           CONV_TESTS),
    Mutant("conv-backward-reads-zeroed-copy", OPS,
           "            xf = fill(s, xf.reshape(c, span), tmp)[:, :gm]",
           "            xf = xf.reshape(c, span)[:, :gm]",
           CONV_TESTS),
    Mutant("conv-closure-keeps-forward-scratch", OPS,
           "    parallel.run(forward_group, groups)\n\n    def backward_fn(gout):\n",
           "    parallel.run(forward_group, groups)\n\n    def backward_fn(gout):\n"
           "        nonlocal regions\n",
           ("tests/test_ops.py::TestConv2d::test_tape_keeps_no_padded_copy",
            "tests/test_autodiff.py::test_backward_closures_hold_arrays_not_tensors")),
    Mutant("conv-scatter-ignores-group-start", OPS,
           "= gout_cn[:, s]",
           "= gout_cn[:, :s.stop - s.start]",
           CONV_TESTS[1:]),
    Mutant("conv-groups-overlap-by-one-image", OPS,
           "groups = parallel.spans(n, hw, CONV_BLOCK)",
           "groups = [slice(s.start, min(s.stop + 1, n)) for s in parallel.spans(n, hw, CONV_BLOCK)]",
           CONV_TESTS[1:]),
    Mutant("conv-gw-overwritten-per-group", OPS,
           "            gw += part",
           "            gw[...] = part",
           CONV_TESTS[1:]),
    Mutant("conv-batch-sized-xf", OPS,
           "    regions = scratch(1, ",
           "    xf = np.zeros((c, n * hw + tail), dtype=dtype)   # the whole batch, padded\n"
           "    regions = scratch(1, ",
           ("tests/test_ops.py::TestConv2d::"
            "test_peaks_beyond_the_outputs_stay_well_below_one_batch_sized_xf",)),
    # conv2d's batchnorm -> relu prologue
    Mutant("fused-relu-mask-dropped", OPS,
           "            gxf[:cn] *= xf[:cn] > 0\n",
           "",
           FUSED_TESTS),
    Mutant("conv-norm-may-split-an-input", OPS,
           "if beta.size != cn or cn not in bounds[1:]:",
           "if beta.size != cn or cn > c:",
           # killed by its conv2d-norm-splits-an-input case
           ("tests/test_ops.py::test_op_guard_rejects_bad_input_with_its_message",)),
    Mutant("fused-running-stats-frozen", OPS,
           "bounds)),\n                                 gamma, dtype, running_mean, running_var,",
           "bounds)),\n                                 gamma, dtype, running_mean.copy(), "
           "running_var.copy(),",
           FUSED_TESTS[:1]),
    # pointwise backward
    Mutant("relu-mask-includes-zero", OPS,
           "np.multiply(g, out > 0,",
           "np.multiply(g, out >= 0,",
           ("tests/test_ops.py::TestRelu::test_gradient_is_g_where_input_positive",
            "tests/test_autodiff.py::test_pointwise_gradients")),
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
    Mutant("batchnorm-empty-batch-unguarded", OPS,
           "if not m:",
           "if False:",
           ("tests/test_ops.py::TestBatchNorm::"
            "test_an_empty_train_batch_is_rejected_before_the_running_buffers_move",)),
    Mutant("batchnorm-running-mean-sign", OPS,
           "running_mean += BN_MOMENTUM * (mu - running_mean)",
           "running_mean += BN_MOMENTUM * (mu + running_mean)",
           ("tests/test_ops.py::TestBatchNorm::test_running_stats_update_and_eval_mode",)),
    Mutant("batchnorm-closure-holds-output", OPS,
           "gx = np.empty_like(xd)",
           "gx = np.empty_like(out)",
           ("tests/test_autodiff.py::test_backward_closures_hold_arrays_not_tensors",)),
    # summing the plane partials down the columns of the (n, c) array: the
    # order then depends on the width, as a one-channel group is one row
    Mutant("batchnorm-plane-partials-summed-by-column", OPS,
           "np.ascontiguousarray(p.T).sum(axis=1)",
           "p.sum(axis=0)",
           ("tests/test_ops.py::TestBatchNorm::"
            "test_a_channels_sums_are_the_same_alone_and_among_others",)),
    Mutant("batchnorm-sums-in-input-dtype", OPS,
           "gsum[ch] = _plane_sums(g[:, s], dtype=np.float64)\n"
           "        gxsum[ch] = _plane_sums(g[:, s], x[:, s], dtype=np.float64)",
           "gsum[ch] = _plane_sums(g[:, s])\n"
           "        gxsum[ch] = _plane_sums(g[:, s], x[:, s])",
           ("tests/test_ops.py::TestBatchNorm::"
            "test_float32_gradients_match_a_float64_oracle_far_from_zero_mean",)),
    Mutant("batchnorm-dgamma-dbeta-swapped", OPS,
           "params = gdot.astype(dtype), gsum.astype(dtype)",
           "params = gsum.astype(dtype), gdot.astype(dtype)",
           ("tests/test_ops.py::TestBatchNorm::test_train_mode_gradients",
            "tests/test_ops.py::TestFusedConv::test_gradients_match_finite_differences")),
    Mutant("batchnorm-train-gradient-drops-q", OPS,
           "    gx += q[ch]\n",
           "",
           ("tests/test_ops.py::TestBatchNorm::test_train_mode_gradients",
            "tests/test_ops.py::TestBatchNorm::"
            "test_float32_gradients_match_a_float64_oracle_far_from_zero_mean")),
    # the summation op, concat and pooling
    Mutant("add-dtype-from-first-two-terms", OPS,
           "dtype=np.result_type(*(t.data for t in terms)))",
           "dtype=np.result_type(ad, bd))",
           ("tests/test_ops.py::TestStructuralOps::test_add_takes_its_dtype_from_every_term",)),
    Mutant("concat-backward-split-shifted", OPS,
           "np.split(gout, bounds[1:-1], axis=1)",
           "np.split(gout, bounds[1:-1] + 1, axis=1)",
           ("tests/test_ops.py::TestStructuralOps::"
            "test_concat_backward_hands_each_input_its_own_channels",
            "tests/test_ops.py::TestStructuralOps::test_concat_split_gradients")),
    Mutant("global-pool-gradient-dense", OPS,
           "shape),)\n\n    return _emit((x,), out, backward_fn, \"global_avg_pool\")",
           "shape).copy(),)\n\n    return _emit((x,), out, backward_fn, \"global_avg_pool\")",
           ("tests/test_ops.py::TestPooling::test_global_pool_gradient_is_a_broadcast_view",)),
    Mutant("avgpool-guard-dropped", OPS,
           "if k < 1 or stride < 1:",
           "if False:",
           # killed by its avgpool-window-0 and avgpool-stride-0 cases
           ("tests/test_ops.py::test_op_guard_rejects_bad_input_with_its_message",)),
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
    Mutant("evaluate-forward-whole-batch", TRAIN,
           "for s in parallel.spans(len(data), unit, min(EVAL_BYTES, batch_size * unit)):",
           "for s in [slice(0, len(data))]:",
           ("tests/test_train.py::TestEvalSlices::"
            "test_peak_stays_well_below_one_whole_batch_forward",)),
    Mutant("evaluate-holds-a-slices-states", TRAIN,
           'logits = network.forward(model, data.images[s], mode="eval")[0]',
           'logits, _ = network.forward(model, data.images[s], mode="eval")',
           ("tests/test_train.py::TestEvalSlices::"
            "test_a_slices_states_are_freed_before_the_next_slice_runs",)),
    Mutant("evaluate-slices-ignore-batch-size", TRAIN,
           "min(EVAL_BYTES, batch_size * unit)",
           "EVAL_BYTES",
           ("tests/test_train.py::TestEvalSlices::"
            "test_metrics_are_the_size_weighted_sums_over_slices_of_3_3_and_4_bitwise",)),
    Mutant("train-accepts-an-empty-split", TRAIN,
           "if not len(split):",
           "if False:",
           ("tests/test_train.py::TestTrainEpochs::"
            "test_an_empty_train_split_is_rejected_before_anything_runs",
            "tests/test_train.py::TestTrainEpochs::"
            "test_an_empty_test_split_is_rejected_before_the_first_step")),
    Mutant("train-keeps-the-callers-gradients", TRAIN,
           "            model.zero_grad()   # gradients a caller left in the model are not this step's\n",
           "",
           ("tests/test_train.py::TestTrainEpochs::"
            "test_gradients_left_in_the_model_do_not_reach_the_first_step",)),
    Mutant("train-step-holds-its-states", TRAIN,
           'logits = network.forward(model, x, mode="train", rng=rng)[0]',
           'logits, _ = network.forward(model, x, mode="train", rng=rng)',
           ("tests/test_train.py::TestTrainEpochs::"
            "test_a_steps_period_states_are_freed_before_its_backward_runs",)),
    Mutant("train-loss-times-count", TRAIN,
           '"train_loss": total_loss / len(perm)',
           '"train_loss": total_loss * len(perm)',
           ("tests/test_train.py::TestReportedMetrics::"
            "test_train_row_equals_the_one_batch_train_forward",)),
    Mutant("replay-leaves-debug-on", TRAIN,
           "    finally:\n        set_debug(False)\n",
           "",
           ("tests/test_train.py::TestTrainEpochs::"
            "test_a_nan_loss_the_debug_replay_does_not_reproduce_is_reported_so",)),
    # the implicit stage solver
    Mutant("implicit-solver-returns-unconverged-stages", "src/rknet/rk.py",
           "    raise StageSolveError(STAGE_MAX_ITER, delta)",
           "    return z",
           ("tests/test_rk.py::TestRkStep::test_implicit_solver_stops_at_the_iteration_cap",)),
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
    # the tape
    Mutant("node-keeps-output", "src/rknet/tensor.py",
           "self._output = weakref.ref(output)",
           "self._output = lambda: output",
           ("tests/test_autodiff.py::"
            "test_an_intermediate_no_closure_reads_is_freed_during_the_forward",)),
    Mutant("backward-keeps-dead-gradients", "src/rknet/tensor.py",
           "        gins = acc = g = None   # dead once summed; freed before the next node's backward_fn\n",
           "",
           ("tests/test_autodiff.py::test_backward_frees_each_readers_gradient_once_it_is_summed",)),
    Mutant("backward-owns-the-gout-it-hands-on", "src/rknet/tensor.py",
           " and g is not gout",
           "",
           ("tests/test_autodiff.py::"
            "test_adds_shared_gradient_is_not_summed_into_through_an_identity_reader",)),
    Mutant("backward-owns-an-array-handed-to-two-inputs", "src/rknet/tensor.py",
           "\n                     and sum(x is g for x in gins) == 1)",
           ")",
           ("tests/test_autodiff.py::"
            "test_a_fresh_array_handed_to_two_inputs_is_not_summed_into",)),
    Mutant("backward-owns-numpy-scalars", "src/rknet/tensor.py",
           "fresh = (isinstance(g, np.ndarray) and g.base",
           "fresh = (g.base",
           ("tests/test_autodiff.py::test_a_0d_gradient_chain_keeps_every_term",
            "tests/test_acceptance.py::test_criterion_04_gradient_suite")),
    Mutant("backward-sums-in-place-across-dtypes", "src/rknet/tensor.py",
           " and target.dtype == np.result_type(acc, g)",
           "",
           ("tests/test_autodiff.py::test_float32_and_float64_terms_sum_as_acc_plus_g",)),
    Mutant("grads-keyed-by-id", "src/rknet/tensor.py",
           "self.serial = next(_SERIALS)",
           "self.serial = id(self)",
           ("tests/test_autodiff.py::test_gradients_stay_correct_when_a_freed_tensors_id_is_reused",)),
    # settings and files
    Mutant("settings-bool-skips-reader", "src/rknet/model_spec.py",
           "setattr(obj, f.name, (readers.get(f.name) or readers[f.type])(value))",
           "setattr(obj, f.name, value if f.type is bool else\n"
           "                    (readers.get(f.name) or readers[f.type])(value))",
           ("tests/test_train.py::TestTrainConfig::test_rejects_wrong_types_and_non_finite_values",
            "tests/test_cli.py::test_malformed_config_exits_1_with_an_error_line")),
    Mutant("seed-unbounded-above", TRAIN,
           "if not 0 <= (seed := as_integer(value)) < 2**64:",
           "if (seed := as_integer(value)) < 0:",
           ("tests/test_cli.py::"
            "test_seed_a_checkpoint_cannot_hold_exits_1_before_the_model_is_built",)),
    Mutant("growth-rate-read-with-int", "src/rknet/model_spec.py",
           "return as_count(value)",
           "return as_count(int(value))",
           ("tests/test_model_spec.py::test_growth_rate_that_is_not_an_integer_is_rejected",)),
    Mutant("cli-augment-check-dropped", "src/rknet/cli.py",
           "if config.augment and spec.input_shape[1:] != (32, 32):",
           "if False:",
           ("tests/test_cli.py::test_augment_on_images_not_32x32_exits_1_before_the_model_is_built",)),
    Mutant("checkpoint-json-object-check-dropped", "src/rknet/network.py",
           "if not isinstance(cfg, dict):\n            raise",
           "if False:\n            raise",
           ("tests/test_cli.py::TestTrainEvalInspect::test_corrupted_checkpoint_exits_2",)),
    Mutant("cli-memory-error-is-a-traceback", "src/rknet/cli.py",
           "except (RuntimeError, OSError, MemoryError) as exc:",
           "except (RuntimeError, OSError) as exc:",
           ("tests/test_cli.py::test_a_run_too_large_to_allocate_exits_2_with_an_error_line",)),
    Mutant("cli-out-check-dropped", "src/rknet/cli.py",
           "    _check_out_dir(args.out)\n",
           "",
           ("tests/test_cli.py::TestTrainEvalInspect::"
            "test_out_that_cannot_be_a_directory_exits_1_before_any_data_is_made",)),
    # the CIFAR-10 reader
    Mutant("cifar-size-checked-after-the-read", "src/rknet/data.py",
           "        if size == expected:\n"
           "            raw = np.fromfile(path, dtype=np.uint8, count=expected)\n"
           "            size = raw.size",
           "        if True:\n"
           "            raw = np.fromfile(path, dtype=np.uint8)\n"
           "            size = raw.size",
           ("tests/test_data.py::TestCifarLoader::"
            "test_an_oversized_batch_file_is_rejected_before_it_is_read",)),
    Mutant("cifar-constant-channel-standardized", "src/rknet/data.py",
           "        if flat or not np.isfinite(value):",
           "        if not np.isfinite(value):",
           ("tests/test_data.py::TestCifarLoader::"
            "test_a_constant_train_channel_is_a_data_error_naming_it",)),
    # the block wiring
    Mutant("dense-growth-scope-off-by-one", "src/rknet/blocks.py",
           'with op_scope(f"{label}{i}"):',
           'with op_scope(f"{label}{i + 1}"):',
           ("tests/test_network.py::TestForward::"
            "test_nonfinite_growth_output_is_named_by_its_scope",)),
    Mutant("preact-drops-time-plane", "src/rknet/blocks.py",
           "[*feats, time]",
           "[*feats, ops.scale(time, 0.0)]",
           ("tests/test_blocks.py::TestTimeChannelStepBlock::test_time_plane_joins_after_bn_relu",)),
    # a plane first takes the normalized place of the state's channels, which
    # conv2d rejects: its norm covers whole leading inputs only
    Mutant("time-plane-normalized", "src/rknet/blocks.py",
           "[*feats, time]",
           "[time, *feats]",
           ("tests/test_blocks.py::TestTimeChannelStepBlock::test_time_plane_joins_after_bn_relu",)),
    Mutant("linear-layer-gets-relu", "src/rknet/blocks.py",
           "return ops.dropout(h, dropout_p, mode, rng)",
           "return ops.dropout(h if bn else ops.relu(h), dropout_p, mode, rng)",
           ("tests/test_acceptance.py::test_criterion_02_erk_block_is_rk4",
            "tests/test_acceptance.py::test_criterion_03_irk_block_is_gauss2")),
    Mutant("time-plane-reaches-every-layer", "src/rknet/blocks.py",
           "xs = [_preact_conv(bn, w, xs, mode, dropout_p, rng)]",
           "xs = [_preact_conv(bn, w, xs, mode, dropout_p, rng), *xs[-1:]]",
           ("tests/test_blocks.py::TestTimeChannelStepBlock::"
            "test_time_plane_reaches_only_a_bottleneck_units_1x1_half",)),
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
