"""Model assembly, forward wiring, multiscale head, and checkpoints."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rknet import model_spec as ms
from rknet import network, ops
from rknet.rng import make_rng
from rknet.tensor import NonFiniteError, ShapeError, Tape, Tensor, backward, set_debug

from oracles import fd_gradcheck, forged_checkpoints, forged_headers

TINY = {"name": "IRKNet-2x1_2x1", "k": 6, "input_shape": [3, 16, 16], "num_classes": 4}


def build(cfg=TINY, seed=0, **kwargs):
    return network.build_model(ms.spec_from_config(cfg), seed=seed, **kwargs)


def batch(rng, n=2, shape=(3, 16, 16), dtype=np.float32):
    return rng.normal(size=(n, *shape)).astype(dtype)


class TestBuildModel:
    def test_same_seed_builds_bitwise_identical(self):
        a, b = build(seed=11), build(seed=11)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.value.data, pb.value.data)

    def test_different_seeds_differ(self):
        a, b = build(seed=1), build(seed=2)
        assert any(not np.array_equal(pa.value.data, pb.value.data)
                   for pa, pb in zip(a.parameters(), b.parameters()))

    def test_built_count_matches_analytic(self):
        spec = ms.spec_from_config(TINY)
        assert sum(p.value.size for p in build().parameters()) == ms.count_parameters(spec)

    def test_irknet_3x1_k36_state_channels(self):
        cfg = {"name": "IRKNet-3x1_3x1_3x1", "k": 36, "m": 1, "input_shape": [3, 32, 32]}
        model = build(cfg)
        for blocks in model.periods:
            assert all(blk.channels == 36 for blk in blocks)

    def test_invalid_spec_rejected(self):
        cfg = {"name": "IRKNet-1x1", "k": 6, "input_shape": [3, 16, 16]}
        with pytest.raises(ms.InvalidSpecError) as err:
            build(cfg)
        assert [v.rule for v in err.value.violations] == ["IRK Rule 3"]


class TestForward:
    def test_logits_shape(self):
        model = build()
        logits, states = network.forward(model, batch(np.random.default_rng(0)), mode="eval")
        assert logits.shape == (2, 4)
        assert len(states) == 2

    def test_eval_is_batch_independent(self):
        model = build(seed=3)
        rng = np.random.default_rng(1)
        x8 = batch(rng, n=8)
        l8, _ = network.forward(model, x8, mode="eval")
        l1, _ = network.forward(model, x8[:1], mode="eval")
        assert np.max(np.abs(l8.data[0] - l1.data[0])) < 1e-6

    def test_a_tensor_input_runs_in_the_model_dtype_like_an_array(self):
        model = build(seed=4)   # float32
        x = batch(np.random.default_rng(4), dtype=np.float64)
        from_array, _ = network.forward(model, x, mode="eval")
        from_tensor, _ = network.forward(model, Tensor(x), mode="eval")
        assert from_tensor.data.dtype == np.float32
        assert np.array_equal(from_tensor.data, from_array.data)

    def test_input_shape_mismatch(self):
        model = build()
        with pytest.raises(ShapeError, match="input_shape"):
            network.forward(model, batch(np.random.default_rng(2), shape=(3, 8, 8)))

    def test_an_empty_batch_gives_no_logits_in_eval_and_a_shape_error_in_train(self):
        model = build()
        empty = np.zeros((0, 3, 16, 16), np.float32)
        logits, _ = network.forward(model, empty, mode="eval")
        assert logits.shape == (0, 4)
        before = {name: buf.copy() for name, buf in model.store.buffers.items()}
        with pytest.raises(ShapeError, match="at least one value per channel"):
            network.forward(model, empty, mode="train", rng=make_rng(0, "dropout"))
        assert all(np.array_equal(buf, before[name]) for name, buf in model.store.buffers.items())

    @pytest.mark.parametrize("param,label", [
        ("period0.step0.stage1.growth0.conv.w", "period0/step0/stage1:conv2d"),
        ("period1.step1.growth1.conv.w", "period1/step1/growth1:conv2d"),
        ("period2.step0.init2.conv.w", "period2/step0/init2:conv2d"),
        ("period2.step0.update1.conv.w", "period2/step0/update1:conv2d"),
        ("period0.step0.stage1.growth0.bn.gamma", "period0/step0/stage1:batchnorm2d")])
    def test_nonfinite_growth_output_is_named_by_its_scope(self, param, label):
        # each growth unit's ops run under its step's group scope
        cfg = {"name": "RKNet-2x1_1x2_3x1", "kind": ["erk", "time_channel", "irk"],
               "m": [1, 2, 1], "k": 4, "input_shape": [3, 8, 8], "num_classes": 4}
        model = build(cfg)
        model.store.params[param].value.data.flat[0] = np.nan
        set_debug(True)
        try:
            with pytest.raises(NonFiniteError) as exc:
                network.forward(model, batch(np.random.default_rng(5), shape=(3, 8, 8)),
                                mode="train", rng=make_rng(0, "dropout"))
        finally:
            set_debug(False)
        assert exc.value.label == label

    def _zero_period_increments(self, model, p_idx):
        for blk in model.periods[p_idx]:
            if hasattr(blk, "stages"):
                for units in blk.stages:
                    for u in units:
                        u.w.value.data[...] = 0
            elif hasattr(blk, "updaters"):
                for u in blk.updaters:
                    u.w.value.data[...] = 0
            else:
                for u in blk.units:
                    u.w.value.data[...] = 0

    def test_zeroed_periods_act_as_identity_maps(self):
        # with every increment subnet zeroed, logits equal the path that skips
        # the period blocks entirely (preprocessor -> transitions -> head)
        model = build(seed=4)
        for p in range(2):
            self._zero_period_increments(model, p)
        x = batch(np.random.default_rng(3))
        logits, _ = network.forward(model, x, mode="eval")

        h = ops.conv2d(Tensor(x), model.preproc_w.value, stride=1, pad=1)
        h = model.transitions[0].forward(h, mode="eval")
        feats = ops.global_avg_pool(ops.relu(model.post_bn(h, "eval")))
        ref = ops.fully_connected(feats, model.fc_w.value, model.fc_b.value)
        assert np.array_equal(logits.data, ref.data)

    def test_zeroing_one_period_only_changes_downstream(self):
        model = build(seed=5)
        x = batch(np.random.default_rng(4))
        _, base_states = network.forward(model, x, mode="eval")
        self._zero_period_increments(model, 1)
        _, states = network.forward(model, x, mode="eval")
        assert np.array_equal(states[0].data, base_states[0].data)
        assert not np.array_equal(states[1].data, base_states[1].data)


class TestMultiscale:
    def test_single_period_equals_plain_pool(self):
        rng = np.random.default_rng(5)
        state = Tensor(rng.normal(size=(2, 6, 4, 4)).astype(np.float32))
        collected = network.multiscale_collect([state])
        assert np.array_equal(collected.data, ops.global_avg_pool(state).data)

    def test_constant_planes_collect_their_values(self):
        states = [Tensor(np.full((1, 2, 4, 4), v, dtype=np.float32)) for v in (1.0, -2.0)]
        out = network.multiscale_collect(states)
        assert np.array_equal(out.data, np.array([[1.0, 1.0, -2.0, -2.0]], dtype=np.float32))

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        perm = rng.permutation(16)
        shuffled = x.reshape(1, 3, 16)[:, :, perm].reshape(1, 3, 4, 4)
        a = network.multiscale_collect([Tensor(x)]).data
        b = network.multiscale_collect([Tensor(shuffled)]).data
        assert np.allclose(a, b, atol=1e-6)

    def test_flag_changes_only_classifier_wiring(self):
        cfg_on = {**TINY, "multiscale": True}
        m_off, m_on = build(TINY, seed=7), build(cfg_on, seed=7)
        x = batch(np.random.default_rng(7))
        _, st_off = network.forward(m_off, x, mode="eval")
        _, st_on = network.forward(m_on, x, mode="eval")
        for a, b in zip(st_off, st_on):
            assert np.array_equal(a.data, b.data)
        assert m_on.fc_w.shape[0] == sum(p.channels for p in m_on.spec.periods)
        assert m_off.fc_w.shape[0] == m_off.spec.periods[-1].channels


class TestEndToEndGradients:
    def test_tiny_model_matches_finite_differences(self):
        cfg = {"name": "ERKNet-2x1", "k": 4, "input_shape": [3, 8, 8], "num_classes": 3}
        model = build(cfg, seed=8, dtype="float64")
        rng = np.random.default_rng(8)
        x = batch(rng, n=2, shape=(3, 8, 8), dtype=np.float64)
        labels = [0, 2]

        def loss_fn():
            logits, _ = network.forward(model, x, mode="train", rng=make_rng(0, "d"))
            return ops.softmax_cross_entropy(logits, labels).data

        with Tape() as tape:
            logits, _ = network.forward(model, x, mode="train", rng=make_rng(0, "d"))
            loss = ops.softmax_cross_entropy(logits, labels)
        backward(tape, loss)
        sample = [p for p in model.parameters()][::3]  # every third tensor
        worst = fd_gradcheck(loss_fn, sample, rng, n_coords=6)
        assert worst < 1e-4, f"max relative FD error {worst}"


@st.composite
def tiny_configs(draw):
    """One or two 4x4 periods over every kind and flag; many break a rule."""
    n = draw(st.integers(1, 2))

    def per_period(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    pairs = per_period(st.tuples(st.integers(1, 2), st.integers(1, 2)))
    return {"name": ms.render_model_name(pairs), "kind": per_period(st.sampled_from(ms.KINDS)),
            "k": per_period(st.integers(1, 3)), "m": per_period(st.integers(1, 2)),
            "bottleneck": per_period(st.booleans()),
            "attentional_transition": per_period(st.booleans()),
            "multiscale": draw(st.booleans()), "share_weights": draw(st.booleans()),
            "input_shape": [3, 4, 4], "num_classes": 3}


@settings(max_examples=60)
@given(tiny_configs(), st.integers(0, 2**16))
def test_random_architectures_build_and_match_the_gradient_oracle(cfg, seed):
    try:
        spec = ms.spec_from_config(cfg)
    except ms.InvalidSpecError:
        reject()
    model = network.build_model(spec, seed=seed, dtype="float64")  # an accepted spec must build
    rng = np.random.default_rng(seed)
    x = batch(rng, n=3, shape=(3, 4, 4), dtype=np.float64)
    labels = [0, 2, 1]

    def loss_fn():
        logits, _ = network.forward(model, x, mode="train")
        return ops.softmax_cross_entropy(logits, labels).data

    with Tape() as tape:
        loss = ops.softmax_cross_entropy(network.forward(model, x, mode="train")[0], labels)
    backward(tape, loss)
    params = model.parameters()
    sample = [params[i] for i in rng.choice(len(params), size=min(6, len(params)), replace=False)]
    # a ReLU input within h of 0 spoils the difference at one step size (about one
    # draw in 400 at 1e-5), a wrong gradient at both; the coordinates are the same
    worst = min(fd_gradcheck(loss_fn, sample, np.random.default_rng(seed), n_coords=2, h=h)
                for h in (1e-5, 1e-6))
    assert worst < 1e-4, f"max relative FD error {worst}"

    # eval logits of a batch are the logits of its images taken one at a time
    whole = network.forward(model, x, mode="eval")[0].data
    alone = np.concatenate([network.forward(model, x[i:i + 1], mode="eval")[0].data
                            for i in range(len(x))])
    assert np.max(np.abs(whole - alone)) <= 1e-10 * np.max(np.abs(whole))


class TestCheckpoints:
    def test_roundtrip_bitwise_and_eval_identical(self, tmp_path):
        model = build(seed=9)
        x = batch(np.random.default_rng(9))
        before, _ = network.forward(model, x, mode="eval")
        path = tmp_path / "model.ckpt"
        network.save_checkpoint(model, path)
        loaded = network.load_checkpoint(path)
        for name, p in model.store.params.items():
            assert np.array_equal(p.value.data, loaded.store.params[name].value.data)
        for name, buf in model.store.buffers.items():
            assert np.array_equal(buf, loaded.store.buffers[name])
        after, _ = network.forward(loaded, x, mode="eval")
        assert np.array_equal(before.data, after.data)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = build(seed=10)
        model.epoch = 17
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        network.save_checkpoint(model, p1)
        network.save_checkpoint(network.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_epoch_and_seed_roundtrip(self, tmp_path):
        model = build(seed=123)
        model.epoch = 5
        path = tmp_path / "model.ckpt"
        network.save_checkpoint(model, path)
        loaded = network.load_checkpoint(path)
        assert loaded.epoch == 5
        assert loaded.seed == 123

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        network.save_checkpoint(build(seed=1), path)
        before = path.read_bytes()
        real_write, calls = network._write_tensor, []

        def failing_write(fh, name, arr):
            calls.append(name)
            if len(calls) == 3:
                fh.write(b"partial")
                raise OSError("disk full")
            real_write(fh, name, arr)

        monkeypatch.setattr(network, "_write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            network.save_checkpoint(build(seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_corrupted_magic_rejected(self, tmp_path):
        model = build()
        path = tmp_path / "model.ckpt"
        network.save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(network.CheckpointError, match="magic"):
            network.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build()
        path = tmp_path / "model.ckpt"
        network.save_checkpoint(model, path)
        raw = path.read_bytes()
        for blob in [raw[:len(raw) // 2], *forged_checkpoints()]:
            path.write_bytes(blob)
            with pytest.raises(network.CheckpointError, match="truncated"):
                network.load_checkpoint(path)

    def test_header_rejected_by_utf8_or_numpy_names_its_place(self, tmp_path):
        path = tmp_path / "model.ckpt"
        for blob, place in zip(forged_headers(), ["name at byte 14", "'w' of rank 65",
                                                  "'w' of rank 4"]):
            path.write_bytes(blob)
            with pytest.raises(network.CheckpointError, match=place):
                network.load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model = build()
        path = tmp_path / "model.ckpt"
        network.save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(network.CheckpointError, match="version"):
            network.load_checkpoint(path)

    def test_unknown_tensor_name_rejected(self, tmp_path):
        model = build()
        path = tmp_path / "model.ckpt"
        network.save_checkpoint(model, path)
        tensors = network.read_checkpoint_tensors(path)
        # rename one stored parameter to something the rebuilt model lacks
        victim = next(k for k in tensors if not k.startswith("__"))
        renamed = {("mystery.w" if k == victim else k): v for k, v in tensors.items()}
        import struct
        with open(path, "wb") as fh:
            fh.write(b"RKNT")
            fh.write(struct.pack("<II", 1, len(renamed)))
            for name, arr in renamed.items():
                network._write_tensor(fh, name, arr)
        with pytest.raises(network.CheckpointError, match="mystery"):
            network.load_checkpoint(path)

    def test_time_channel_ratios_survive_roundtrip(self, tmp_path):
        cfg = {"name": "RKNet-1x3", "kind": "time_channel", "k": 4,
               "input_shape": [3, 16, 16], "num_classes": 4}
        model = build(cfg, seed=2)
        for i, blocks in enumerate(model.periods):
            for j, blk in enumerate(blocks):
                blk.theta.value.data[...] = 0.1 * (j + 1)
        path = tmp_path / "tc.ckpt"
        network.save_checkpoint(model, path)
        loaded = network.load_checkpoint(path)
        assert loaded.time_channel_ratios() == model.time_channel_ratios()
        assert [r for _, _, r in loaded.time_channel_ratios()] == \
               pytest.approx([np.exp(0.1), np.exp(0.2), np.exp(0.3)])
