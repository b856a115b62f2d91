"""Layer-op semantics against independent oracles and hand-checked values."""

import math
import tracemalloc

import numpy as np
import pytest

from rknet import ops, parallel
from rknet.rng import make_rng
from rknet.tensor import Parameter, ShapeError, Tape, Tensor, backward

from oracles import (fd_gradcheck, mean_all, naive_conv2d, naive_conv2d_grads,
                     naive_softmax_cross_entropy, two_pass_batchnorm,
                     two_pass_batchnorm_grads)


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

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_walk_matches_loop_oracles(self, monkeypatch, block):
        # 3x2x4x6 inputs give 72 (pad 0) and 144 (pad 1) wide columns, so a
        # block of 7 leaves a ragged last block and a block of 1 puts every
        # tap's shift across a block edge
        monkeypatch.setattr(ops, "CONV_BLOCK", block)
        rng = np.random.default_rng(17)
        for k in (1, 2, 3):
            for stride in (1, 2):
                for pad in (0, 1):
                    x = rng.normal(size=(3, 2, 4, 6)) + 2.0
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

    def test_float32_over_several_blocks_matches_float64_oracle(self):
        # 10 x 32 x 32 padded positions = 10240 wide columns: two full blocks
        # and a ragged third at the module's block width
        rng = np.random.default_rng(18)
        x = rng.normal(size=(10, 4, 30, 30)).astype(np.float32)
        w = rng.normal(size=(3, 4, 3, 3)).astype(np.float32)
        assert 2 * ops.CONV_BLOCK < 10 * 32 * 32 < 3 * ops.CONV_BLOCK
        with Tape() as tape:
            out = ops.conv2d(Tensor(x), Tensor(w), stride=1, pad=1)
        gout = rng.normal(size=out.shape).astype(np.float32)
        gx, gw = tape._nodes[-1].backward_fn(gout)
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        ref = naive_conv2d(x64, w64, 1, 1)
        ref_gx, ref_gw = naive_conv2d_grads(x64, w64, gout.astype(np.float64), 1, 1)
        for got, want in ((out.data, ref), (gx, ref_gx), (gw, ref_gw)):
            assert got.dtype == np.float32
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    def test_backward_transient_is_one_block_of_tap_stack(self):
        # a growth conv (36 -> 12, 3x3, pad 1) with 20736 wide columns: a
        # stack of the wide gradient for all 9 taps would be 9 MB on its own;
        # each thread that runs blocks has its own one-block scratch
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
        m = n * (side + 2) ** 2
        gxf = c * m * 4
        threads = parallel.width(range(0, m, ops.CONV_BLOCK))
        scratch = threads * 9 * o * min(ops.CONV_BLOCK, m) * 4
        assert peak <= gx.nbytes + gxf + gw.nbytes + scratch

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

    def test_add_names_every_shape_when_any_term_mismatches(self):
        a = Tensor(np.ones((2, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 2\) vs \(2, 2\) vs \(2, 3\)"):
            ops.add(a, a, Tensor(np.ones((2, 3))))

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


def test_forward_is_deterministic_with_same_rng_key():
    rng_data = np.random.default_rng(16)
    x = Tensor(rng_data.normal(size=(2, 3, 6, 6)), dtype="float32")
    w = Tensor(rng_data.normal(size=(4, 3, 3, 3)).astype(np.float32) * 0.3)

    def run():
        h = ops.conv2d(x, w, 1, 1)
        h = ops.dropout(h, 0.3, "train", make_rng(9, "fwd"))
        return ops.relu(h).data

    assert np.array_equal(run(), run())
