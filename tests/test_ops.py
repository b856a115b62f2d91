"""Layer-op semantics against independent oracles and hand-checked values."""

import math
import tracemalloc

import numpy as np
import pytest

from rknet import network, ops, parallel
from rknet.rng import make_rng
from rknet.tensor import (NonFiniteError, Parameter, ShapeError, Tape, Tensor, backward,
                          set_debug)

from oracles import (fd_gradcheck, mean_all, naive_conv2d, naive_conv2d_grads,
                     naive_softmax_cross_entropy, two_pass_batchnorm,
                     two_pass_batchnorm_grads, unfused_preact_conv)


class TestConv2d:
    def test_identity_1x1_kernels(self):
        x = np.arange(24.0).reshape(1, 3, 2, 4)
        w = np.eye(3).reshape(3, 3, 1, 1)
        out = ops.conv2d(Tensor(x, dtype="float64"), Tensor(w, dtype="float64"))
        assert np.array_equal(out.data, x)

    def test_all_ones_sum(self):
        x = Tensor(np.ones((1, 1, 3, 3)), dtype="float64")
        w = Tensor(np.ones((1, 1, 3, 3)), dtype="float64")
        out = ops.conv2d(x, w, stride=1, pad=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_matches_sliding_window_oracle_basic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        got = ops.conv2d(Tensor(x, dtype="float64"), Tensor(w, dtype="float64")).data
        ref = naive_conv2d(x, w)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-6

    def test_matches_sliding_window_oracle_50_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            c = int(rng.integers(1, 4))
            o = int(rng.integers(1, 4))
            k = int(rng.choice([1, 2, 3]))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            h = int(rng.integers(k, 8))
            wd = int(rng.integers(k, 8))
            x = rng.normal(size=(int(rng.integers(1, 3)), c, h, wd))
            w = rng.normal(size=(o, c, k, k))
            got = ops.conv2d(Tensor(x, dtype="float64"), Tensor(w, dtype="float64"),
                             stride=stride, pad=pad).data
            ref = naive_conv2d(x, w, stride, pad)
            assert np.allclose(got, ref, rtol=1e-6, atol=1e-12)

    def test_float32_batches_match_float64_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            c = int(rng.integers(1, 17))
            o = int(rng.integers(1, 9))
            k = int(rng.choice([1, 2, 3]))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            h = int(rng.integers(k, 10))
            wd = int(rng.integers(k, 10))
            x = rng.normal(size=(int(rng.integers(3, 6)), c, h, wd)).astype(np.float32)
            w = rng.normal(size=(o, c, k, k)).astype(np.float32)
            got = ops.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
            ref = naive_conv2d(x.astype(np.float64), w.astype(np.float64), stride, pad)
            assert got.dtype == np.float32
            assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_gradients_match_loop_oracle(self):
        # batch of 3 with non-zero borders: a tap that read across an image
        # edge into the next image in the flat layout would show in gx and gw
        rng = np.random.default_rng(7)
        for k in (1, 2, 3):
            for stride in (1, 2):
                for pad in (0, 1):
                    x = rng.normal(size=(3, 2, 7, 6)) + 2.0
                    w = rng.normal(size=(3, 2, k, k))
                    with Tape() as tape:
                        out = ops.conv2d(Tensor(x, dtype="float64"), Tensor(w, dtype="float64"),
                                         stride=stride, pad=pad)
                    gout = rng.normal(size=out.shape)
                    gx, gw = tape._nodes[-1].backward_fn(gout)
                    ref_gx, ref_gw = naive_conv2d_grads(x, w, gout, stride, pad)
                    assert gx.shape == x.shape and gw.shape == w.shape
                    assert np.allclose(gx, ref_gx, rtol=1e-10, atol=1e-12), (k, stride, pad)
                    assert np.allclose(gw, ref_gw, rtol=1e-10, atol=1e-12), (k, stride, pad)

    @pytest.mark.parametrize("block, pad0_sizes, pad1_sizes", [
        pytest.param(1, [1] * 7, [1] * 7, id="one_image"),
        # ragged groups, a larger one before a smaller
        pytest.param(34, [1, 1, 2, 1, 2], [1] * 7, id="ragged_34"),
        pytest.param(70, [2, 2, 3], [1, 1, 2, 1, 2], id="ragged_70"),
    ])
    def test_group_walk_matches_loop_oracles(self, monkeypatch, block, pad0_sizes, pad1_sizes):
        # 7x2x4x6 inputs have 24 (pad 0) and 48 (pad 1) wide columns per
        # image; a participant's buffers serve groups of every size in turn
        monkeypatch.setattr(ops, "CONV_BLOCK", block)
        for hw, sizes in ((24, pad0_sizes), (48, pad1_sizes)):
            assert [len(range(7)[s]) for s in parallel.spans(7, hw, block)] == sizes
        rng = np.random.default_rng(17)
        for k in (1, 2, 3):
            for stride in (1, 2):
                for pad in (0, 1):
                    x = rng.normal(size=(7, 2, 4, 6)) + 2.0
                    w = rng.normal(size=(3, 2, k, k))
                    with Tape() as tape:
                        out = ops.conv2d(Tensor(x, dtype="float64"), Tensor(w, dtype="float64"),
                                         stride=stride, pad=pad)
                    gout = rng.normal(size=out.shape)
                    gx, gw = tape._nodes[-1].backward_fn(gout)
                    ref_gx, ref_gw = naive_conv2d_grads(x, w, gout, stride, pad)
                    case = (block, k, stride, pad)
                    assert np.allclose(out.data, naive_conv2d(x, w, stride, pad),
                                       rtol=1e-10, atol=1e-12), case
                    assert np.allclose(gx, ref_gx, rtol=1e-10, atol=1e-12), case
                    assert np.allclose(gw, ref_gw, rtol=1e-10, atol=1e-12), case

    def test_float32_over_several_groups_matches_float64_oracle(self):
        # 10 images of 900 (pad 0) or 1024 (pad 1) wide columns: three groups
        # of 3, 3 and 4 images at the module's group width, for every k and stride
        rng = np.random.default_rng(18)
        for hw in (30 * 30, 32 * 32):
            sizes = [len(range(10)[s]) for s in parallel.spans(10, hw, ops.CONV_BLOCK)]
            assert sizes == [3, 3, 4], hw
        for k in (1, 2, 3):
            for stride in (1, 2):
                for pad in (0, 1):
                    x = rng.normal(size=(10, 4, 30, 30)).astype(np.float32)
                    w = rng.normal(size=(3, 4, k, k)).astype(np.float32)
                    with Tape() as tape:
                        out = ops.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad)
                    gout = rng.normal(size=out.shape).astype(np.float32)
                    gx, gw = tape._nodes[-1].backward_fn(gout)
                    x64, w64 = x.astype(np.float64), w.astype(np.float64)
                    ref = naive_conv2d(x64, w64, stride, pad)
                    ref_gx, ref_gw = naive_conv2d_grads(x64, w64, gout.astype(np.float64),
                                                        stride, pad)
                    for got, want in ((out.data, ref), (gx, ref_gx), (gw, ref_gw)):
                        assert got.dtype == np.float32
                        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want)), \
                            (k, stride, pad)

    def test_backward_transient_is_one_group_per_participant(self):
        # a growth conv (36 -> 12, 3x3, pad 1) over 6 groups of 10 or 11
        # images: a stack of the wide gradient for all 9 taps would be 9 MB
        # on its own; each participant has one group's buffers
        rng = np.random.default_rng(19)
        n, c, o, side = 64, 36, 12, 16
        x = Tensor(rng.normal(size=(n, c, side, side)).astype(np.float32))
        w = Tensor(rng.normal(size=(o, c, 3, 3)).astype(np.float32))
        with Tape() as tape:
            out = ops.conv2d(x, w, stride=1, pad=1)
        gout = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            gx, gw = tape._nodes[-1].backward_fn(gout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        hw = (side + 2) ** 2
        groups = parallel.spans(n, hw, ops.CONV_BLOCK)
        assert len(groups) == 6
        columns = max(len(range(n)[s]) for s in groups) * hw + 2 * (side + 2) + 2
        # xf, its gradient, the wide gradient and the tap stack of one group
        participant = (2 * c + o + 9 * o) * columns * 4
        partials = len(groups) * gw.nbytes
        assert peak <= gx.nbytes + gw.nbytes + partials + parallel.width(groups) * participant

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_peaks_beyond_the_outputs_stay_well_below_one_batch_sized_xf(self, monkeypatch,
                                                                         mode):
        # the paper's widest growth conv (BN -> ReLU -> 36 -> 12 channels,
        # 3x3, 32x32) at batch 256, 73 groups: a padded channel-major copy of
        # the batch would be 42.6 MB, the wide output 14.2 MB; two participants
        pool = parallel._pool()
        monkeypatch.setattr(pool, "workers", min(pool.workers, 1))
        rng = np.random.default_rng(20)
        n, c, o, side = 256, 36, 12, 32
        x = Tensor(rng.normal(size=(n, c, side, side)).astype(np.float32))
        w = Tensor(rng.normal(size=(o, c, 3, 3)).astype(np.float32))
        norm = (Tensor(np.ones(c, np.float32)), Tensor(np.zeros(c, np.float32)),
                np.zeros(c, np.float32), np.ones(c, np.float32), mode)
        batch_xf = c * n * (side + 2) ** 2 * 4
        gout = np.ones((n, o, side, side), dtype=np.float32)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ops.conv2d(x, w, stride=1, pad=1, norm=norm)
                forward_held, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            grads = tape._nodes[-1].backward_fn(gout)
            backward_held, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs, returned = out.data.nbytes, sum(g.nbytes for g in grads)
        assert forward_held >= outputs and backward_held - forward_held >= returned
        assert forward_peak - outputs <= batch_xf // 3
        assert backward_peak - forward_held - returned <= batch_xf // 3

    def test_tape_keeps_about_one_copy_of_the_input(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(8, 16, 32, 32)).astype(np.float32))
        w = Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ops.conv2d(x, w, stride=1, pad=1)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert retained <= 2 * (x.data.nbytes + out.data.nbytes)

    def test_tape_keeps_no_padded_copy(self):
        # the backward rebuilds the padded channel-major xf from x, which its
        # caller holds; what stays is the output and the taps
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(8, 16, 32, 32)).astype(np.float32))
        w = Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ops.conv2d(x, w, stride=1, pad=1)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert retained < out.data.nbytes + x.data.nbytes // 4

    def test_output_spatial_dims(self):
        x = Tensor(np.zeros((1, 2, 9, 7)))
        w = Tensor(np.zeros((5, 2, 3, 3)))
        out = ops.conv2d(x, w, stride=2, pad=1)
        assert out.shape == (1, 5, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ShapeError, match=r"\(1, 3, 4, 4\).*\(2, 4, 3, 3\)"):
            ops.conv2d(x, w)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = Parameter(Tensor(rng.normal(size=(2, 3, 6, 6)), dtype="float64"), "x")
        w = Parameter(Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.4, dtype="float64"), "w")

        def loss_fn():
            return mean_all(ops.sigmoid(ops.conv2d(x.value, w.value, 2, 1))).data

        with Tape() as tape:
            loss = mean_all(ops.sigmoid(ops.conv2d(x.value, w.value, 2, 1)))
        backward(tape, loss)
        assert fd_gradcheck(loss_fn, [x, w], rng, n_coords=40) < 1e-4


class TestRelu:
    def test_finite_inputs_match_where_bitwise(self):
        rng = np.random.default_rng(20)
        for dtype in ("float32", "float64"):
            x = rng.normal(size=(4, 5, 6, 7)).astype(dtype)
            x.flat[:6] = [0.0, -0.0, 1e-40, -1e-40, np.finfo(dtype).max, -np.finfo(dtype).max]
            got = ops.relu(Tensor(x)).data
            ref = np.where(x > 0, x, 0)
            assert got.dtype == x.dtype and got.tobytes() == ref.tobytes()

    def test_gradient_is_g_where_input_positive(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 4, 5, 5))
        x.flat[:2] = [0.0, -0.0]
        with Tape() as tape:
            ops.relu(Tensor(x, dtype="float64"))
        g = rng.normal(size=x.shape)
        (gx,) = tape._nodes[-1].backward_fn(g)
        assert np.array_equal(gx, g * (x > 0))

    def test_a_0d_input_gives_0d_arrays(self):
        with Tape() as tape:
            out = ops.relu(Tensor(np.asarray(-0.5), dtype="float64"))
        (gx,) = tape._nodes[-1].backward_fn(np.asarray(2.0))
        for arr in (out.data, gx):
            assert isinstance(arr, np.ndarray) and arr.shape == () and arr == 0

    def test_nan_propagates_with_zero_gradient(self):
        x = np.array([np.nan, -1.0, 2.0])
        with Tape() as tape:
            out = ops.relu(Tensor(x, dtype="float64"))
        assert np.isnan(out.data[0]) and np.array_equal(out.data[1:], [0.0, 2.0])
        (gx,) = tape._nodes[-1].backward_fn(np.ones(3))
        assert np.array_equal(gx, [0.0, 0.0, 1.0])

    def test_tape_keeps_no_mask(self):
        x = Tensor(np.random.default_rng(22).normal(size=(16, 16, 32, 32)).astype(np.float32))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ops.relu(x)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a boolean mask would add x.size bytes to the output's 4 * x.size
        assert len(tape) == 1
        assert retained < out.data.nbytes + x.size // 2


class TestBatchNorm:
    def test_already_normalized_input_passes_through(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3, 5, 5))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = ops.batchnorm2d(Tensor(x, dtype="float64"),
                              Tensor(np.ones(3), dtype="float64"),
                              Tensor(np.zeros(3), dtype="float64"),
                              np.zeros(3), np.ones(3), "train")
        assert np.max(np.abs(out.data - x)) < 1e-3

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(2)
        beta = np.array([1.5, -2.0])
        out = ops.batchnorm2d(Tensor(rng.normal(size=(2, 2, 3, 3)), dtype="float64"),
                              Tensor(np.zeros(2), dtype="float64"),
                              Tensor(beta, dtype="float64"),
                              np.zeros(2), np.ones(2), "train")
        assert np.array_equal(out.data, np.broadcast_to(beta.reshape(1, 2, 1, 1), (2, 2, 3, 3)))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4, 6, 6)) * 2 + 1
        gamma = rng.normal(size=4)
        beta = rng.normal(size=4)
        out = ops.batchnorm2d(Tensor(x, dtype="float64"),
                              Tensor(gamma, dtype="float64"), Tensor(beta, dtype="float64"),
                              np.zeros(4), np.ones(4), "train")
        assert np.max(np.abs(out.data - two_pass_batchnorm(x, gamma, beta))) < 1e-5

    def test_running_stats_update_and_eval_mode(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 2, 4, 4)) * 3 + 5
        rmean, rvar = np.zeros(2), np.ones(2)
        gamma = Tensor(np.ones(2), dtype="float64")
        beta = Tensor(np.zeros(2), dtype="float64")
        ops.batchnorm2d(Tensor(x, dtype="float64"), gamma, beta, rmean, rvar, "train")
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        assert np.allclose(rmean, 0.1 * mu)
        assert np.allclose(rvar, 0.9 + 0.1 * var)
        # a second update starts from non-zero statistics, where the sign of the
        # running term matters
        x2 = rng.normal(size=(8, 2, 4, 4)) * 2 - 7
        prev = (rmean.copy(), rvar.copy())
        ops.batchnorm2d(Tensor(x2, dtype="float64"), gamma, beta, rmean, rvar, "train")
        assert np.allclose(rmean, 0.9 * prev[0] + 0.1 * x2.mean(axis=(0, 2, 3)))
        assert np.allclose(rvar, 0.9 * prev[1] + 0.1 * x2.var(axis=(0, 2, 3)))
        before = (rmean.copy(), rvar.copy())
        out = ops.batchnorm2d(Tensor(x, dtype="float64"), gamma, beta, rmean, rvar, "eval")
        expected = (x - rmean.reshape(1, 2, 1, 1)) / np.sqrt(rvar.reshape(1, 2, 1, 1) + 1e-5)
        assert np.allclose(out.data, expected)
        assert np.array_equal(rmean, before[0]) and np.array_equal(rvar, before[1])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            ops.batchnorm2d(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), np.zeros(2), np.ones(2), "train")

    def test_train_mode_gradients(self):
        rng = np.random.default_rng(6)
        x = Parameter(Tensor(rng.normal(size=(3, 2, 4, 4)), dtype="float64"), "x")
        gamma = Parameter(Tensor(rng.normal(size=2) + 1, dtype="float64"), "gamma")
        beta = Parameter(Tensor(rng.normal(size=2), dtype="float64"), "beta")
        stats = (np.zeros(2), np.ones(2))

        def loss_fn():
            out = ops.batchnorm2d(x.value, gamma.value, beta.value, *stats, "train")
            return mean_all(ops.sigmoid(out)).data

        with Tape() as tape:
            out = ops.batchnorm2d(x.value, gamma.value, beta.value, *stats, "train")
            loss = mean_all(ops.sigmoid(out))
        backward(tape, loss)
        assert fd_gradcheck(loss_fn, [x, gamma, beta], rng, n_coords=30) < 1e-4

    def test_tape_keeps_one_output_sized_array(self):
        x = Tensor(np.random.default_rng(22).normal(size=(16, 16, 32, 32)).astype(np.float32))
        gamma = Tensor(np.ones(16, dtype=np.float32))
        beta = Tensor(np.zeros(16, dtype=np.float32))
        stats = (np.zeros(16, np.float32), np.ones(16, np.float32))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ops.batchnorm2d(x, gamma, beta, *stats, "train")
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a kept xhat would add another 4 * x.size bytes to the output's
        assert len(tape) == 1
        assert retained < out.data.nbytes + x.size // 2

    @pytest.mark.parametrize("offset", [0, 10, 100, 1000])
    def test_float32_gradients_match_a_float64_oracle_far_from_zero_mean(self, offset):
        # |mu|/sigma = offset.  x lies on a 1/32 grid, so every partial sum of
        # its float32 batch mean is exact and so is the mean; what is left is
        # the backward's own error.  (Off the grid, the float32 mean alone
        # moves dgamma by up to 2e-4 of its size at offset 1000, whatever the
        # backward does.)  Channel sums taken in float32 miss dgamma by 1e-5
        # of its size at offset 100 and by 1e-4 at 1000.
        rng = np.random.default_rng(24)
        shape = (8, 4, 8, 8)
        x = (np.round(rng.normal(size=shape) * 32) / 32 + offset).astype(np.float32)
        gamma = (rng.normal(size=4) + 1).astype(np.float32)
        beta = rng.normal(size=4).astype(np.float32)
        gout = rng.normal(size=shape).astype(np.float32)
        with Tape() as tape:
            ops.batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta),
                            np.zeros(4, np.float32), np.ones(4, np.float32), "train")
        got = tape._nodes[-1].backward_fn(gout)
        bounds = {"gx": 1e-5, "dgamma": 1e-6, "dbeta": 1e-6}
        for (name, bound), g, ref in zip(bounds.items(), got,
                                         two_pass_batchnorm_grads(x, gamma, gout)):
            assert g.dtype == np.float32, name
            assert np.max(np.abs(g - ref)) <= bound * np.max(np.abs(ref)), name

    def test_backward_transient_is_about_the_input_gradient(self):
        # a normalized copy of x, as a rebuilt xhat, would double the peak
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(32, 64, 32, 32)).astype(np.float32))
        gamma = Tensor(np.ones(64, dtype=np.float32))
        beta = Tensor(np.zeros(64, dtype=np.float32))
        with Tape() as tape:
            ops.batchnorm2d(x, gamma, beta, np.zeros(64, np.float32),
                            np.ones(64, np.float32), "train")
        gout = rng.normal(size=x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            gx, _, _ = tape._nodes[-1].backward_fn(gout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gx.nbytes + x.data.nbytes // 4

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_statistics_do_not_depend_on_the_channel_groups(self, monkeypatch, dtype):
        # one channel per chunk against all five in one: a one-channel group's
        # centred scratch must not be one run of 8 images, which einsum would
        # sum in another order than one image at a time
        x = Tensor(np.random.default_rng(26).normal(size=(8, 5, 16, 16)) * 2 + 1, dtype=dtype)

        def running_var(chunk_bytes):
            monkeypatch.setattr(parallel, "CHUNK_BYTES", chunk_bytes)
            stats = (np.zeros(5, dtype), np.ones(5, dtype))
            ops.batchnorm2d(x, Tensor(np.ones(5, dtype)), Tensor(np.zeros(5, dtype)), *stats,
                            "train")
            return stats[1]

        assert running_var(1).tobytes() == running_var(1 << 20).tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_channels_sums_are_the_same_alone_and_among_others(self, dtype):
        # mean, variance and the backward's sums of a channel held alone, in
        # a group of 2 or 3 channels, or inside the whole array; 8 images, so
        # summing the (n, c) plane partials down their columns would add a
        # one-channel group in another order than a wider one
        rng = np.random.default_rng(27)
        x = (rng.normal(size=(8, 5, 6, 6)) * 2 + 1).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        gamma = (rng.normal(size=5) + 1).astype(dtype)
        cuts = {"whole": [(0, 5)], "groups": [(0, 2), (2, 5)],
                "alone": [(j, j + 1) for j in range(5)]}
        results = {}
        for name, bounds in cuts.items():
            xs = [np.ascontiguousarray(x[:, lo:hi]) for lo, hi in bounds]
            gs = [np.ascontiguousarray(g[:, lo:hi]) for lo, hi in bounds]
            firsts = [lo for lo, _ in bounds]
            numbers = ops._statistics(list(zip(xs, firsts)), gamma, x.dtype, np.zeros(5, dtype),
                                      np.ones(5, dtype), "train")
            sums = ops._coefficients(list(zip(gs, xs, firsts)), *numbers, True, x.dtype)
            results[name] = [a.tobytes() for a in (*numbers, *sums)]
        assert results["groups"] == results["whole"] and results["alone"] == results["whole"]

    @pytest.mark.parametrize("op", ["batchnorm2d", "conv2d"])
    def test_an_empty_train_batch_is_rejected_before_the_running_buffers_move(self, op):
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        stats = (np.full(3, 0.5), np.full(3, 2.0))
        x = _zeros(0, 3, 4, 4)
        calls = {"batchnorm2d": lambda: ops.batchnorm2d(x, gamma, beta, *stats, "train"),
                 "conv2d": lambda: ops.conv2d(x, _zeros(2, 3, 3, 3), pad=1,
                                              norm=(gamma, beta, *stats, "train"))}
        with pytest.raises(ShapeError, match=r"at least one value per channel.*\(0, 3, 4, 4\)"):
            calls[op]()
        assert stats[0].tolist() == [0.5] * 3 and stats[1].tolist() == [2.0] * 3

    def test_eval_backward_ignores_a_later_train_update(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(4, 3, 5, 5)) * 2 + 1, dtype="float64")
        gamma = Tensor(rng.normal(size=3) + 1, dtype="float64")
        beta = Tensor(rng.normal(size=3), dtype="float64")
        stats = (np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.5, 4.0]))
        gout = rng.normal(size=x.shape)

        def eval_grads(update_between):
            with Tape() as tape:
                ops.batchnorm2d(x, gamma, beta, *stats, "eval")
            if update_between:  # moves both running statistics in place
                ops.batchnorm2d(Tensor(x.data * 3 + 10), gamma, beta, *stats, "train")
            gx, gdot, _ = tape._nodes[-1].backward_fn(gout)
            return gx, gdot

        ref_gx, ref_gdot = eval_grads(False)
        gx, gdot = eval_grads(True)
        assert np.array_equal(gx, ref_gx) and np.array_equal(gdot, ref_gdot)


def fused_preact_conv(xs, time, w, gamma, beta, stats, mode, pad):
    rest = [*xs[1:], *([] if time is None else [time])]
    return ops.conv2d(xs[0], w, pad=pad, rest=rest, norm=(gamma, beta, *stats, mode))


class TestFusedConv:
    """conv2d with a ``norm``: batchnorm and relu applied while it pads.

    It equals the unfused chain bitwise for features of any width, one
    channel included: a channel's batchnorm sums do not depend on the
    channels beside it.
    """

    @staticmethod
    def run(conv, dtype, mode, widths, raw, k, seed=30, size=(3, 5, 6)):
        """Output, every gradient (inputs, time plane, w, gamma, beta) and
        the running buffers of one forward and backward of ``conv`` on
        inputs of ``size`` (N, H, W)."""
        rng = np.random.default_rng(seed)
        n, h, wd = size

        def param(name, value):
            return Parameter(Tensor(np.asarray(value), dtype=dtype), name)

        xs = [param(f"x{i}", rng.normal(size=(n, c, h, wd)) * 2 + 1) for i, c in enumerate(widths)]
        time = param("time", np.full((n, 1, h, wd), 0.7)) if raw else None
        cn = sum(widths)
        w = param("w", rng.normal(size=(4, cn + raw, k, k)) * 0.3)
        gamma, beta = param("gamma", rng.normal(size=cn) + 1), param("beta", rng.normal(size=cn))
        stats = (rng.uniform(-1, 1, cn).astype(dtype), rng.uniform(0.5, 2, cn).astype(dtype))
        with Tape() as tape:
            out = conv([x.value for x in xs], time and time.value, w.value, gamma.value,
                       beta.value, stats, mode, k // 2)
            loss = ops.sum_all(ops.sigmoid(out))
        backward(tape, loss)
        params = [*xs, *([time] if raw else []), w, gamma, beta]
        return [out.data, *(p.grad.data for p in params), *stats]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_equals_the_unfused_chain_bitwise(self, dtype, mode, k):
        for widths in ((3,), (3, 2), (2, 4, 3), (1, 3), (2, 1), (1,), (1, 1, 1)):
            for raw in (False, True):
                case = (widths, raw)
                want = self.run(unfused_preact_conv, dtype, mode, widths, raw, k)
                got = self.run(fused_preact_conv, dtype, mode, widths, raw, k)
                assert len(got) == len(want), case
                for i, (g, r) in enumerate(zip(got, want)):
                    assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), (case, i)

    def test_equals_the_unfused_chain_over_one_channel_chunks(self, monkeypatch):
        # every channel and every image its own chunk, so the statistics, the
        # pad, the crop and the sums each run as many chunks on every participant
        monkeypatch.setattr(parallel, "CHUNK_BYTES", 1)
        for dtype in ("float32", "float64"):
            want = self.run(unfused_preact_conv, dtype, "train", (3, 2), True, 3, 31, (8, 16, 16))
            got = self.run(fused_preact_conv, dtype, "train", (3, 2), True, 3, 31, (8, 16, 16))
            for i, (g, r) in enumerate(zip(got, want)):
                assert g.tobytes() == r.tobytes(), (dtype, i)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(32)
        xs = [Parameter(Tensor(rng.normal(size=(3, c, 5, 5)) + 0.5, dtype="float64"), f"x{c}")
              for c in (2, 3)]
        time = Tensor(np.full((3, 1, 5, 5), 0.4), dtype="float64")
        w = Parameter(Tensor(rng.normal(size=(4, 6, 3, 3)) * 0.3, dtype="float64"), "w")
        gamma = Parameter(Tensor(rng.normal(size=5) + 1, dtype="float64"), "gamma")
        beta = Parameter(Tensor(rng.normal(size=5) * 0.5, dtype="float64"), "beta")
        stats = (np.zeros(5), np.ones(5))

        def compute():
            norm = (gamma.value, beta.value, *stats, "train")
            out = ops.conv2d(xs[0].value, w.value, pad=1, rest=[xs[1].value, time], norm=norm)
            return mean_all(ops.sigmoid(out))

        with Tape() as tape:
            loss = compute()
        backward(tape, loss)
        worst = fd_gradcheck(lambda: compute().data, [*xs, w, gamma, beta], rng, n_coords=25)
        assert worst < 1e-4, worst

    @pytest.mark.parametrize("offset", [0, 10, 100, 1000])
    def test_float32_gradients_match_a_float64_oracle_far_from_zero_mean(self, offset):
        # as TestBatchNorm's test of the same name, through the fused op: an
        # identity 1x1 conv and a beta that keeps every relu input positive
        # make the conv's output gradient the batchnorm's
        rng = np.random.default_rng(24)
        shape = (8, 4, 8, 8)
        x = (np.round(rng.normal(size=shape) * 32) / 32 + offset).astype(np.float32)
        gamma = (rng.uniform(0.5, 1.5, size=4)).astype(np.float32)
        beta = np.full(4, 20.0, dtype=np.float32)
        gout = rng.normal(size=shape).astype(np.float32)
        w = np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1)
        norm = (Tensor(gamma), Tensor(beta), np.zeros(4, np.float32), np.ones(4, np.float32),
                "train")
        with Tape() as tape:
            out = ops.conv2d(Tensor(x[:, :1]), Tensor(w), rest=[Tensor(x[:, 1:])], norm=norm)
        assert out.data.min() > 0
        gx0, gx1, _, dgamma, dbeta = tape._nodes[-1].backward_fn(gout)
        ref_gx, ref_dgamma, ref_dbeta = two_pass_batchnorm_grads(x, gamma, gout)
        bounds = {"gx": 1e-5, "dgamma": 1e-6, "dbeta": 1e-6}
        got = (np.concatenate([gx0, gx1], axis=1), dgamma, dbeta)
        for (name, bound), g, ref in zip(bounds.items(), got, (ref_gx, ref_dgamma, ref_dbeta)):
            assert g.dtype == np.float32, name
            assert np.max(np.abs(g - ref)) <= bound * np.max(np.abs(ref)), name

    def test_a_non_finite_batchnorm_value_is_named_as_batchnorm_s(self):
        x = Tensor(np.ones((2, 2, 3, 3)), dtype="float64")
        norm = (Tensor(np.array([np.nan, 1.0])), Tensor(np.zeros(2)), np.zeros(2), np.ones(2),
                "eval")
        set_debug(True)
        try:
            with pytest.raises(NonFiniteError, match=":batchnorm2d"):
                ops.conv2d(x, Tensor(np.ones((1, 2, 1, 1))), norm=norm)
        finally:
            set_debug(False)


class TestStructuralOps:
    def test_concat_then_split_roundtrip_bitwise(self):
        rng = np.random.default_rng(7)
        parts = [Tensor(rng.normal(size=(2, c, 3, 3)), dtype="float64") for c in (1, 3, 2)]
        whole = ops.concat_channels(parts)
        back = ops.split_channels(whole, [1, 3, 2])
        for orig, got in zip(parts, back):
            assert np.array_equal(orig.data, got.data)

    def test_split_then_concat_roundtrip_bitwise(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 6, 3, 3)), dtype="float64")
        again = ops.concat_channels(ops.split_channels(x, [2, 2, 2]))
        assert np.array_equal(x.data, again.data)

    def test_split_sizes_must_match(self):
        with pytest.raises(ShapeError):
            ops.split_channels(Tensor(np.zeros((1, 5, 2, 2))), [2, 2])

    def test_concat_backward_hands_each_input_its_own_channels(self):
        parts = [Tensor(np.zeros((2, c, 3, 3))) for c in (1, 3, 2)]
        with Tape() as tape:
            ops.concat_channels(parts)
        gout = np.arange(2 * 6 * 3 * 3, dtype=np.float64).reshape(2, 6, 3, 3)
        grads = tape._nodes[-1].backward_fn(gout)
        assert [g.shape for g in grads] == [t.shape for t in parts]
        for g, lo, hi in zip(grads, (0, 1, 4), (1, 4, 6)):
            assert np.array_equal(g, gout[:, lo:hi])

    def test_concat_split_gradients(self):
        rng = np.random.default_rng(9)
        a = Parameter(Tensor(rng.normal(size=(1, 2, 2, 2)), dtype="float64"), "a")
        b = Parameter(Tensor(rng.normal(size=(1, 3, 2, 2)), dtype="float64"), "b")

        def compute():
            whole = ops.concat_channels([a.value, b.value])
            left, right = ops.split_channels(whole, [3, 2])
            return mean_all(ops.sigmoid(ops.concat_channels([right, left])))

        with Tape() as tape:
            loss = compute()
        backward(tape, loss)
        assert fd_gradcheck(lambda: compute().data, [a, b], rng, n_coords=15) < 1e-4

    def test_add_sums_left_to_right_into_one_node(self):
        rng = np.random.default_rng(20)
        xs = [Tensor(rng.normal(size=(2, 3, 4, 4)) * 10.0 ** e, dtype="float32")
              for e in (0, 7, -7, 3)]
        with Tape() as tape:
            out = ops.add(*xs)
        assert len(tape) == 1
        chain = xs[0].data
        for x in xs[1:]:
            chain = chain + x.data
        assert out.data.dtype == np.float32 and np.array_equal(out.data, chain)
        gout = rng.normal(size=out.shape).astype(np.float32)
        gins = tape._nodes[0].backward_fn(gout)
        assert len(gins) == 4 and all(g is gout for g in gins)

    def test_concat_and_add_over_several_chunks_match_numpy_bitwise(self, monkeypatch):
        # a few images per chunk, so the pool's participants each copy and add some
        monkeypatch.setattr(parallel, "CHUNK_BYTES", 2 * 5 * 3 * 3 * 8)
        rng = np.random.default_rng(22)
        parts = [rng.normal(size=(9, c, 3, 3)) * 10.0 ** e for c, e in ((1, 0), (3, 7), (1, -7))]
        whole = ops.concat_channels([Tensor(x) for x in parts])
        assert whole.data.tobytes() == np.concatenate(parts, axis=1).tobytes()
        xs = [rng.normal(size=(9, 2, 3, 3)) * 10.0 ** e for e in (0, 7, -7)]
        assert ops.add(*map(Tensor, xs)).data.tobytes() == ((xs[0] + xs[1]) + xs[2]).tobytes()
        scalars = [np.asarray(v) for v in (0.1, 0.2, 0.3)]   # 0-d terms, one chunk
        got = ops.add(*map(Tensor, scalars)).data
        assert got.shape == () and got == (scalars[0] + scalars[1]) + scalars[2]

    def test_add_names_every_shape_when_any_term_mismatches(self):
        a = Tensor(np.ones((2, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 2\) vs \(2, 2\) vs \(2, 3\)"):
            ops.add(a, a, Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("dtypes", [("float32", "float32", "float64"),
                                        ("float64", "float32", "float32")])
    def test_add_takes_its_dtype_from_every_term(self, dtypes):
        # a float64 term anywhere makes a float64 sum, as in concat_channels
        xs = [Tensor(np.full((2, 1, 2, 2), v), dtype=d) for v, d in zip((1.0, 1.0, 1e-9), dtypes)]
        out = ops.add(*xs)
        assert out.data.dtype == ops.concat_channels(xs).data.dtype == np.float64
        assert out.data.tobytes() == ((xs[0].data + xs[1].data) + xs[2].data).tobytes()
        assert np.all(out.data > 2.0)   # the 1e-9 term is kept

    def test_sigmoid_symmetry_point(self):
        assert ops.sigmoid(Tensor(np.zeros(3), dtype="float64")).data[0] == 0.5

    def test_sigmoid_stability_at_extremes(self):
        out = ops.sigmoid(Tensor(np.array([-1000.0, 1000.0]), dtype="float64"))
        assert np.array_equal(out.data, [0.0, 1.0])


class TestPooling:
    def test_avgpool_halves_dims(self):
        out = ops.avgpool2d(Tensor(np.zeros((1, 2, 32, 32))), 2, 2)
        assert out.shape == (1, 2, 16, 16)

    def test_avgpool_of_constants(self):
        out = ops.avgpool2d(Tensor(np.full((1, 1, 4, 4), 0.75), dtype="float64"), 2, 2)
        assert np.all(out.data == 0.75)

    def test_global_pool_shape_and_permutation_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4, 4))
        pooled = ops.global_avg_pool(Tensor(x, dtype="float64"))
        assert pooled.shape == (2, 3)
        perm = rng.permutation(16)
        shuffled = x.reshape(2, 3, 16)[:, :, perm].reshape(2, 3, 4, 4)
        pooled2 = ops.global_avg_pool(Tensor(shuffled, dtype="float64"))
        assert np.allclose(pooled.data, pooled2.data)

    def test_global_pool_gradient_is_a_broadcast_view(self):
        # a read-only stride-0 view of the (N, C) gradient, not an (N, C, H, W) array
        x = Tensor(np.random.default_rng(12).normal(size=(2, 3, 4, 5)), dtype="float32")
        with Tape() as tape:
            ops.global_avg_pool(x)
        gout = np.arange(6, dtype=np.float32).reshape(2, 3)
        (gx,) = tape._nodes[-1].backward_fn(gout)
        assert gx.shape == x.shape and gx.dtype == np.float32
        assert gx.strides[2:] == (0, 0) and not gx.flags.writeable
        assert np.array_equal(gx, np.broadcast_to(gout[:, :, None, None] / 20, x.shape))

    @pytest.mark.parametrize("head", ["multiscale", "post_bn"])
    def test_pooled_heads_match_finite_differences(self, head):
        # each pooled state is also read by a conv, so its broadcast pool
        # gradient is summed with the conv's
        rng = np.random.default_rng(13)
        y = Parameter(Tensor(rng.normal(size=(2, 3, 4, 4)), dtype="float64"), "y")
        w = Parameter(Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, dtype="float64"), "w")
        gamma = Parameter(Tensor(rng.normal(size=4) + 1, dtype="float64"), "gamma")
        beta = Parameter(Tensor(rng.normal(size=4) * 0.5, dtype="float64"), "beta")
        fcw = Parameter(Tensor(rng.normal(size=(7, 3)), dtype="float64"), "fc.w")
        fcb = Parameter(Tensor(np.zeros(3), dtype="float64"), "fc.b")
        params = [y, w, fcw, fcb] + ([gamma, beta] if head == "post_bn" else [])

        def compute():
            h = ops.avgpool2d(ops.conv2d(y.value, w.value, pad=1), 2, 2)
            if head == "multiscale":
                feats = network.multiscale_collect([y.value, h])
            else:
                h = ops.batchnorm2d(h, gamma.value, beta.value, np.zeros(4), np.ones(4), "train")
                feats = ops.concat_channels([ops.global_avg_pool(y.value),
                                             ops.global_avg_pool(ops.relu(h))])
            logits = ops.fully_connected(feats, fcw.value, fcb.value)
            return ops.softmax_cross_entropy(logits, [0, 2])

        with Tape() as tape:
            loss = compute()
        backward(tape, loss)
        assert fd_gradcheck(lambda: compute().data, params, rng, n_coords=25) < 1e-4

    def test_pool_gradients(self):
        rng = np.random.default_rng(11)
        x = Parameter(Tensor(rng.normal(size=(1, 2, 6, 6)), dtype="float64"), "x")

        def compute():
            return mean_all(ops.sigmoid(ops.avgpool2d(x.value, 3, 2)))

        with Tape() as tape:
            loss = compute()
        backward(tape, loss)
        assert fd_gradcheck(lambda: compute().data, [x], rng, n_coords=20) < 1e-4


class TestDropout:
    def test_p_zero_is_identity_bitwise(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
        out = ops.dropout(x, 0.0, "train", make_rng(0))
        assert out is x

    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert ops.dropout(x, 0.5, "eval", make_rng(0)) is x

    def test_train_mode_zeroes_and_scales(self):
        x = Tensor(np.ones((100, 100)), dtype="float64")
        out = ops.dropout(x, 0.25, "train", make_rng(0, "drop"))
        vals = np.unique(out.data)
        assert set(vals).issubset({0.0, 1.0 / 0.75})
        frac = (out.data == 0).mean()
        assert abs(frac - 0.25) < 0.02

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gradient_is_g_times_the_forward_factor_bitwise(self, dtype):
        # powers of two make out / x the forward's factor exactly; the tape
        # keeps only the mask, so the backward must redo the same division
        rng = np.random.default_rng(24)
        x = rng.choice([-1.0, 1.0], size=(4, 6, 5, 5)) * 2.0 ** rng.integers(-4, 5, size=(4, 6, 5, 5))
        x = Tensor(x, dtype=dtype)
        with Tape() as tape:
            out = ops.dropout(x, 0.3, "train", make_rng(5, "drop"))
        g = rng.normal(size=x.shape).astype(dtype)
        (gx,) = tape._nodes[-1].backward_fn(g)
        want = g * (out.data / x.data)
        assert np.any(out.data == 0) and gx.dtype == want.dtype
        assert gx.tobytes() == want.tobytes()

    def test_deterministic_given_rng_key(self):
        x = Tensor(np.ones((8, 8)))
        a = ops.dropout(x, 0.5, "train", make_rng(3, "d", 1)).data
        b = ops.dropout(x, 0.5, "train", make_rng(3, "d", 1)).data
        assert np.array_equal(a, b)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="p must be"):
            ops.dropout(Tensor(np.ones(3)), 1.0, "train", make_rng(0))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss = ops.softmax_cross_entropy(Tensor(np.zeros((4, 10)), dtype="float64"), [0, 3, 5, 9])
        assert abs(float(loss.data) - math.log(10)) < 1e-12

    def test_loss_decreases_with_margin(self):
        losses = []
        for margin in (0.0, 5.0, 10.0):
            logits = np.zeros((2, 4))
            logits[0, 1] = margin
            logits[1, 2] = margin
            losses.append(float(ops.softmax_cross_entropy(
                Tensor(logits, dtype="float64"), [1, 2]).data))
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-3

    def test_matches_unstabilized_formula(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(6, 5))  # small magnitudes, naive formula is safe
        labels = rng.integers(0, 5, size=6)
        got = float(ops.softmax_cross_entropy(Tensor(logits, dtype="float64"), labels).data)
        assert abs(got - naive_softmax_cross_entropy(logits, labels)) < 1e-9

    @pytest.mark.parametrize("dtype,tol", [("float64", 1e-12), ("float32", 1e-5)])
    def test_large_logits_match_a_float64_log_sum_exp(self, dtype, tol):
        # exp of a logit near 1000 overflows, and one near -1000 underflows, unless
        # each row is shifted by its maximum first
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(6, 5)) + np.array([1000, -1000, 1000, -1000, 0, 0])[:, None]
        logits[4] = [1000, -1000, 0, 500, -500]
        logits = logits.astype(dtype)
        labels = np.array([0, 1, 2, 3, 4, 1])
        got = float(ops.softmax_cross_entropy(Tensor(logits, dtype=dtype), labels).data)
        rows = logits.astype(np.float64)
        want = np.mean(np.logaddexp.reduce(rows, axis=1) - rows[np.arange(6), labels])
        assert np.isfinite(got)
        assert abs(got - want) <= tol * max(1.0, abs(want))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            ops.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient(self):
        rng = np.random.default_rng(13)
        logits = Parameter(Tensor(rng.normal(size=(3, 4)), dtype="float64"), "logits")
        labels = [0, 2, 3]

        def compute():
            return ops.softmax_cross_entropy(logits.value, labels)

        with Tape() as tape:
            loss = compute()
        backward(tape, loss)
        assert fd_gradcheck(lambda: compute().data, [logits], rng, n_coords=12) < 1e-4


class TestScalarAndChannelOps:
    def test_mul_scalar_and_broadcast_plane_gradients(self):
        rng = np.random.default_rng(14)
        x = Parameter(Tensor(rng.normal(size=(2, 3, 2, 2)), dtype="float64"), "x")
        s = Parameter(Tensor(np.array(0.7), dtype="float64"), "s")

        def compute():
            plane = ops.broadcast_plane(s.value, 2, 1, 2, 2)
            h = ops.concat_channels([x.value, plane])
            return mean_all(ops.sigmoid(ops.mul_scalar(h, s.value)))

        with Tape() as tape:
            loss = compute()
        backward(tape, loss)
        assert fd_gradcheck(lambda: compute().data, [x, s], rng, n_coords=20) < 1e-4

    def test_mul_channelwise_semantics_and_gradient(self):
        rng = np.random.default_rng(15)
        x = Parameter(Tensor(rng.normal(size=(2, 3, 4, 4)), dtype="float64"), "x")
        gate = Parameter(Tensor(rng.uniform(0.1, 0.9, size=(2, 3)), dtype="float64"), "g")
        out = ops.mul_channelwise(x.value, gate.value)
        assert np.allclose(out.data, x.value.data * gate.value.data[:, :, None, None])

        def compute():
            return mean_all(ops.sigmoid(ops.mul_channelwise(x.value, gate.value)))

        with Tape() as tape:
            loss = compute()
        backward(tape, loss)
        assert fd_gradcheck(lambda: compute().data, [x, gate], rng, n_coords=20) < 1e-4

    def test_fully_connected_shape_errors(self):
        with pytest.raises(ShapeError):
            ops.fully_connected(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))),
                                Tensor(np.zeros(2)))


def _zeros(*shape):
    return Tensor(np.zeros(shape))


# one case per input guard of an op, each matched on its own message
GUARDS = {
    "conv2d-not-4d": (lambda: ops.conv2d(_zeros(3, 4, 4), _zeros(2, 3, 3, 3)),
                      ShapeError, "expects NCHW x and OIKK w"),
    "conv2d-non-square-kernel": (lambda: ops.conv2d(_zeros(1, 3, 4, 4), _zeros(2, 3, 3, 1)),
                                 ShapeError, "expects square kernels"),
    "conv2d-stride-0": (lambda: ops.conv2d(_zeros(1, 3, 4, 4), _zeros(2, 3, 3, 3), stride=0),
                        ValueError, "stride must be >= 1 and pad >= 0"),
    "conv2d-negative-pad": (lambda: ops.conv2d(_zeros(1, 3, 4, 4), _zeros(2, 3, 3, 3), pad=-1),
                            ValueError, "stride must be >= 1 and pad >= 0"),
    "conv2d-kernel-larger-than-input": (lambda: ops.conv2d(_zeros(1, 3, 2, 2),
                                                           _zeros(2, 3, 3, 3)),
                                        ShapeError, "larger than padded input"),
    "concat-empty": (lambda: ops.concat_channels([]), ShapeError, "empty input list"),
    "concat-batch-mismatch": (lambda: ops.concat_channels([_zeros(1, 2, 3, 3), _zeros(2, 2, 3, 3)]),
                              ShapeError, "concat_channels shape mismatch"),
    "concat-spatial-mismatch": (lambda: ops.concat_channels([_zeros(1, 2, 3, 3),
                                                             _zeros(1, 2, 3, 4)]),
                                ShapeError, "concat_channels shape mismatch"),
    "concat-no-channel-axis": (lambda: ops.concat_channels([_zeros(3), _zeros(2)]),
                               ShapeError, r"needs a channel axis \(ndim >= 2\)"),
    "concat-0d": (lambda: ops.concat_channels([Tensor(np.asarray(1.0))]),
                  ShapeError, r"needs a channel axis \(ndim >= 2\)"),
    "split-non-positive-size": (lambda: ops.split_channels(_zeros(1, 3, 2, 2), [4, -1]),
                                ShapeError, "sizes must be positive"),
    "avgpool-window-larger-than-input": (lambda: ops.avgpool2d(_zeros(1, 1, 2, 2), 3, 1),
                                         ShapeError, "window 3 larger than input"),
    "avgpool-window-0": (lambda: ops.avgpool2d(_zeros(1, 1, 4, 4), 0, 1),
                         ValueError, "k and stride must be >= 1, got 0, 1"),
    "avgpool-stride-0": (lambda: ops.avgpool2d(_zeros(1, 1, 4, 4), 2, 0),
                         ValueError, "k and stride must be >= 1, got 2, 0"),
    "fully-connected-bias-shape": (lambda: ops.fully_connected(_zeros(2, 3), _zeros(3, 4),
                                                               _zeros(3)),
                                   ShapeError, r"bias \(3,\) must be \(4,\)"),
    "mul-scalar-non-scalar": (lambda: ops.mul_scalar(_zeros(2, 2), _zeros(2)),
                              ShapeError, "mul_scalar expects a scalar tensor"),
    "broadcast-plane-non-scalar": (lambda: ops.broadcast_plane(_zeros(2), 1, 1, 2, 2),
                                   ShapeError, "broadcast_plane expects a scalar tensor"),
    "mul-channelwise-s-shape": (lambda: ops.mul_channelwise(_zeros(2, 3, 2, 2), _zeros(3, 2)),
                                ShapeError, r"needs s of shape \(2, 3\)"),
    "conv2d-norm-wider-than-input": (lambda: ops.conv2d(_zeros(1, 2, 4, 4), _zeros(2, 2, 3, 3),
                                                        norm=(_zeros(3), _zeros(3), np.zeros(3),
                                                              np.ones(3), "train")),
                                     ShapeError,
                                     r"does not cover whole leading inputs of \(1, 2, 4, 4\)$"),
    "conv2d-norm-splits-an-input": (lambda: ops.conv2d(_zeros(1, 2, 4, 4), _zeros(2, 3, 3, 3),
                                                       rest=[_zeros(1, 1, 4, 4)],
                                                       norm=(_zeros(1), _zeros(1), np.zeros(1),
                                                             np.ones(1), "train")),
                                    ShapeError, r"a norm of 1 gamma and 1 beta channels does "
                                    r"not cover whole leading inputs of "
                                    r"\(1, 2, 4, 4\) \+ \(1, 1, 4, 4\)"),
    "conv2d-rest-size-mismatch": (lambda: ops.conv2d(_zeros(1, 2, 4, 4), _zeros(2, 3, 3, 3),
                                                     rest=[_zeros(1, 1, 4, 5)]),
                                  ShapeError, "every input needs x's batch and spatial size"),
    "conv2d-mode": (lambda: ops.conv2d(_zeros(1, 2, 4, 4), _zeros(2, 2, 3, 3),
                                       norm=(_zeros(2), _zeros(2), np.zeros(2), np.ones(2), "test")),
                    ValueError, "conv2d: mode must be 'train' or 'eval'"),
    "batchnorm-mode": (lambda: ops.batchnorm2d(_zeros(1, 2, 2, 2), _zeros(2), _zeros(2),
                                               np.zeros(2), np.ones(2), "test"),
                       ValueError, "batchnorm2d: mode must be 'train' or 'eval'"),
    "dropout-mode": (lambda: ops.dropout(_zeros(2, 2), 0.5, "test", make_rng(0, "d")),
                     ValueError, "dropout: mode must be 'train' or 'eval'"),
    "softmax-logits-not-2d": (lambda: ops.softmax_cross_entropy(_zeros(2, 3, 1), [0, 1]),
                              ShapeError, r"expects \(N, K\) logits"),
    "softmax-label-count": (lambda: ops.softmax_cross_entropy(_zeros(2, 3), [0]),
                            ShapeError, "2 rows need 2 labels"),
    "softmax-float-labels": (lambda: ops.softmax_cross_entropy(_zeros(2, 3), [0.0, 1.0]),
                             ValueError, "labels need an integer dtype, got float64"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_op_guard_rejects_bad_input_with_its_message(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=message):
        call()


def test_forward_is_deterministic_with_same_rng_key():
    rng_data = np.random.default_rng(16)
    x = Tensor(rng_data.normal(size=(2, 3, 6, 6)), dtype="float32")
    w = Tensor(rng_data.normal(size=(4, 3, 3, 3)).astype(np.float32) * 0.3)

    def run():
        h = ops.conv2d(x, w, 1, 1)
        h = ops.dropout(h, 0.3, "train", make_rng(9, "fwd"))
        return ops.relu(h).data

    assert np.array_equal(run(), run())
