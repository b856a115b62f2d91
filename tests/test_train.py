"""Optimizer, schedule, and epoch-loop behavior."""

import dataclasses
import importlib.util
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from rknet import model_spec as ms
from rknet import network, ops, parallel, tensor
from rknet import train as T
from rknet.data import gen_synthetic_shapes, DatasetHandle
from rknet.rng import make_rng
from rknet.tensor import Parameter, Tape, Tensor, backward

_spec = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)

TINY_MODEL = {"name": "ERKNet-2x1", "k": 6, "input_shape": [3, 16, 16], "num_classes": 4}


def tiny_model(seed=0):
    return network.build_model(ms.spec_from_config(TINY_MODEL), seed=seed)


def tiny_data(n_per_class=8, seed=42, split="train"):
    return gen_synthetic_shapes(n_per_class, noise=0.15, seed=seed, split=split)


class TestTrainConfig:
    def test_dropout_policy_defaults(self):
        assert T.TrainConfig(epochs=1, augment=False).dropout_p == 0.2
        assert T.TrainConfig(epochs=1, augment=True).dropout_p == 0.0
        assert T.TrainConfig(epochs=1, augment=False, dropout_p=0.05).dropout_p == 0.05

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="epoch"):
            T.TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="drop_points"):
            T.TrainConfig(epochs=1, lr_drop_points=(0.75, 0.5))
        with pytest.raises(ValueError, match="drop_points"):
            T.TrainConfig(epochs=1, lr_drop_points=(0.5, 1.5))

    @pytest.mark.parametrize("bad", [
        {"augment": "false"},
        {"augment": 0},
        {"lr0": True},
        {"lr0": "0.1"},
        {"momentum": float("nan")},
        {"lr0": float("inf")},
        {"lr_drop_points": (0.5, float("nan"))},
        {"lr_drop_points": 0.5},
        {"lr_drop_factor": 0},
        {"epochs": 2.5},
        {"batch_size": 1e400},
        {"seed": -1},
        {"lr0": 10 ** 400},
    ])
    def test_rejects_wrong_types_and_non_finite_values(self, bad):
        with pytest.raises(ValueError):
            T.TrainConfig(**{"epochs": 1, **bad})

    @pytest.mark.parametrize("settings", [
        {"epochs": 1},
        {"epochs": 40, "batch_size": 16, "lr0": 0.05, "momentum": 0.8, "weight_decay": 5e-4,
         "lr_drop_points": (0.3, 0.6, 0.9), "lr_drop_factor": 5.0, "augment": True,
         "dropout_p": 0.1, "seed": 7},
    ])
    def test_json_round_trip(self, settings):
        cfg = T.TrainConfig(**settings)
        assert T.TrainConfig(**json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    def test_reads_integral_and_numpy_numbers(self):
        cfg = T.TrainConfig(epochs=12.0, batch_size=np.int64(16), lr0=np.float32(0.5),
                            lr_drop_points=[0.5], seed=np.uint8(3))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (12, 16, 3)
        assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed))
        assert cfg.lr0 == 0.5 and type(cfg.lr0) is float
        assert cfg.lr_drop_points == (0.5,)
        assert T.TrainConfig(epochs=1, lr0=1).lr0 == 1.0


class TestLrSchedule:
    def test_300_epoch_recipe(self):
        cfg = T.TrainConfig(epochs=300)
        assert T.lr_at_epoch(cfg, 0) == 0.1
        assert T.lr_at_epoch(cfg, 149) == 0.1
        assert T.lr_at_epoch(cfg, 150) == pytest.approx(0.01)
        assert T.lr_at_epoch(cfg, 224) == pytest.approx(0.01)
        assert T.lr_at_epoch(cfg, 225) == pytest.approx(0.001)
        assert T.lr_at_epoch(cfg, 299) == pytest.approx(0.001)

    def test_single_epoch_edge_case(self):
        # floor(0.5 * 1) = 0: both drops land on epoch 0
        cfg = T.TrainConfig(epochs=1)
        assert T.lr_at_epoch(cfg, 0) == pytest.approx(0.001)

    def test_40_epoch_recipe(self):
        cfg = T.TrainConfig(epochs=40)
        assert T.lr_at_epoch(cfg, 19) == 0.1
        assert T.lr_at_epoch(cfg, 20) == pytest.approx(0.01)
        assert T.lr_at_epoch(cfg, 29) == pytest.approx(0.01)
        assert T.lr_at_epoch(cfg, 30) == pytest.approx(0.001)

    def test_epoch_out_of_range(self):
        cfg = T.TrainConfig(epochs=10)
        with pytest.raises(ValueError, match="out of range"):
            T.lr_at_epoch(cfg, 10)


class TestSgdNesterov:
    def test_zero_grad_zero_velocity_is_fixed_point(self):
        p = Parameter(Tensor(np.array([1.0, -2.0]), dtype="float64"), "p")
        state = {}
        T.sgd_nesterov_step([p], state, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert np.array_equal(p.value.data, [1.0, -2.0])

    def test_zero_momentum_is_plain_sgd(self):
        p = Parameter(Tensor(np.array([1.0]), dtype="float64"), "p")
        p.grad.data[...] = 0.5
        T.sgd_nesterov_step([p], {}, lr=0.2, momentum=0.0, weight_decay=0.0)
        assert p.value.data[0] == pytest.approx(1.0 - 0.2 * 0.5, abs=1e-15)

    def test_two_steps_match_hand_unrolled_recurrence(self):
        # 1-d quadratic: loss = (w - 3)^2 / 2, grad = w - 3
        lr, mom, wd = 0.1, 0.9, 0.01
        w, v = 5.0, 0.0
        trace = []
        for _ in range(2):
            g = (w - 3.0) + wd * w
            v = mom * v + g
            w = w - lr * (g + mom * v)
            trace.append(w)

        p = Parameter(Tensor(np.array([5.0]), dtype="float64"), "w")
        state = {}
        got = []
        for _ in range(2):
            p.grad.data[...] = p.value.data - 3.0
            T.sgd_nesterov_step([p], state, lr=lr, momentum=mom, weight_decay=wd)
            p.zero_grad()
            got.append(float(p.value.data[0]))
        assert got == pytest.approx(trace, abs=1e-12)

    def test_weight_decay_shrinks_parameters_with_zero_grads(self):
        p = Parameter(Tensor(np.array([2.0, -1.0, 0.5]), dtype="float64"), "p")
        state = {}
        norms = [float(np.linalg.norm(p.value.data))]
        for _ in range(5):
            T.sgd_nesterov_step([p], state, lr=0.1, momentum=0.9, weight_decay=0.01)
            norms.append(float(np.linalg.norm(p.value.data)))
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestTrainEpochs:
    def test_history_matches_schedule_and_is_deterministic(self):
        train = tiny_data()
        test = tiny_data(4, split="test")
        histories = []
        for _ in range(2):
            model = tiny_model(seed=5)
            cfg = T.TrainConfig(epochs=2, batch_size=16, seed=5)
            histories.append(T.train_epochs(model, train, test, cfg))
        a, b = histories
        assert a == b
        cfg = T.TrainConfig(epochs=2, batch_size=16, seed=5)
        assert [row["lr"] for row in a] == [T.lr_at_epoch(cfg, e) for e in range(2)]

    def test_zero_lr_freezes_parameters(self):
        model = tiny_model(seed=1)
        before = {p.name: p.value.data.copy() for p in model.parameters()}
        cfg = T.TrainConfig(epochs=1, batch_size=16, lr0=0.0, seed=0)
        T.train_epochs(model, tiny_data(), tiny_data(4, split="test"), cfg)
        for p in model.parameters():
            assert np.array_equal(p.value.data, before[p.name])

    def test_loss_strictly_decreases_on_fixed_batch(self):
        # 20 full-batch steps at lr 0.01 on 64 samples; at least 4 of 5 seeds monotone
        data64 = gen_synthetic_shapes(16, noise=0.15, seed=42, split="train")
        monotone = 0
        for seed in range(5):
            model = tiny_model(seed=seed)
            cfg = T.TrainConfig(epochs=20, batch_size=64, lr0=0.01, lr_drop_factor=1.0,
                                dropout_p=0.0, seed=seed)
            hist = T.train_epochs(model, data64, data64, cfg)
            losses = [r["train_loss"] for r in hist]
            monotone += all(x > y for x, y in zip(losses, losses[1:]))
        assert monotone >= 4

    def test_nan_loss_aborts_with_diagnostic(self):
        model = tiny_model(seed=2)
        model.store.params["classifier.b"].value.data[...] = np.nan
        cfg = T.TrainConfig(epochs=1, batch_size=16, seed=0)
        with pytest.raises(T.TrainingDivergedError, match="postprocessor.*fully_connected"):
            T.train_epochs(model, tiny_data(), tiny_data(4, split="test"), cfg)

    def test_a_nan_loss_the_debug_replay_does_not_reproduce_is_reported_so(self, monkeypatch):
        # the step's loss is NaN once; the replay, in debug mode, finds every
        # tensor finite and says so, and leaves debug mode off
        real = ops.softmax_cross_entropy
        debug = []

        def nan_once(logits, labels):
            loss = real(logits, labels)
            debug.append(tensor._DEBUG_FINITE)
            return Tensor(np.full((), np.nan, loss.data.dtype)) if len(debug) == 1 else loss

        monkeypatch.setattr(ops, "softmax_cross_entropy", nan_once)
        cfg = T.TrainConfig(epochs=1, batch_size=16, seed=0)
        with pytest.raises(T.TrainingDivergedError,
                           match=r"at epoch 0, batch 0 \(not reproducible in replay\)$"):
            T.train_epochs(tiny_model(seed=2), tiny_data(), tiny_data(4, split="test"), cfg)
        assert debug == [False, True] and not tensor._DEBUG_FINITE

    def test_gradients_left_in_the_model_do_not_reach_the_first_step(self, tmp_path):
        # an eval-mode backward leaves gradients but no running-statistics update,
        # so the run must write what a run on the fresh model writes
        train, test = tiny_data(), tiny_data(4, split="test")
        files = []
        for prior in (False, True):
            model = tiny_model(seed=8)
            if prior:
                with Tape() as tape:
                    logits, _ = network.forward(model, test.images, mode="eval")
                    loss = ops.softmax_cross_entropy(logits, test.labels)
                backward(tape, loss)
                assert any(np.any(p.grad.data != 0) for p in model.parameters())
            cfg = T.TrainConfig(epochs=1, batch_size=16, seed=8)
            T.write_metrics_csv(T.train_epochs(model, train, test, cfg), tmp_path / "m.csv")
            network.save_checkpoint(model, tmp_path / "model.ckpt")
            files.append([(tmp_path / name).read_bytes() for name in ("m.csv", "model.ckpt")])
        assert files[0] == files[1]

    def test_an_empty_train_split_is_rejected_before_anything_runs(self, monkeypatch):
        full = tiny_data(1)
        empty = DatasetHandle(full.images[:0], full.labels[:0], "train", full.num_classes)
        sizes = forward_sizes(monkeypatch)
        with pytest.raises(ValueError, match="the train split holds no images"):
            T.train_epochs(tiny_model(), empty, tiny_data(1, split="test"),
                           T.TrainConfig(epochs=1, batch_size=2))
        assert sizes == []

    def test_an_empty_test_split_is_rejected_before_the_first_step(self):
        model = tiny_model(seed=4)
        before = {p.name: p.value.data.copy() for p in model.parameters()}
        full = tiny_data(1, split="test")
        empty = DatasetHandle(full.images[:0], full.labels[:0], "test", full.num_classes)
        with pytest.raises(ValueError, match="the test split holds no images"):
            T.train_epochs(model, tiny_data(1), empty, T.TrainConfig(epochs=1, batch_size=2))
        for p in model.parameters():
            assert np.array_equal(p.value.data, before[p.name]), p.name

    def test_a_steps_period_states_are_freed_before_its_backward_runs(self, monkeypatch):
        # the step keeps only the logits of its forward: its states list would
        # hold every state's array through the whole backward
        forward, refs, alive = network.forward, [], []

        def spy(model, x, *args, **kwargs):
            logits, states = forward(model, x, *args, **kwargs)
            refs[:] = [weakref.ref(state) for state in states]
            return logits, states

        def checked_backward(tape, loss):
            alive.append(sum(ref() is not None for ref in refs))
            backward(tape, loss)

        monkeypatch.setattr(network, "forward", spy)
        monkeypatch.setattr(T, "backward", checked_backward)
        T.train_epochs(tiny_model(), tiny_data(2), tiny_data(1, split="test"),
                       T.TrainConfig(epochs=1, batch_size=4))
        assert alive == [0, 0]

    def test_epoch_counter_advances(self):
        model = tiny_model(seed=3)
        cfg = T.TrainConfig(epochs=2, batch_size=32, seed=0)
        T.train_epochs(model, tiny_data(), tiny_data(4, split="test"), cfg)
        assert model.epoch == 2


class TestReportedMetrics:
    """The losses and accuracies a run reports are means over its images."""

    def test_evaluate_equals_one_eval_forward_over_all_images(self):
        # 10 images at batch_size 4 run as slices of 3, 3 and 4: each slice mean is
        # weighted by its size
        model = network.build_model(ms.spec_from_config(TINY_MODEL), seed=4, dtype="float64")
        full = tiny_data(3, split="test")
        data = DatasetHandle(full.images[:10], full.labels[:10], "test", full.num_classes)
        loss, acc = T.evaluate(model, data, batch_size=4)
        logits, _ = network.forward(model, data.images, mode="eval")
        correct = int((logits.data.argmax(axis=1) == data.labels).sum())
        assert 0 < correct < 10   # so a count in place of the fraction shows
        assert abs(loss - float(ops.softmax_cross_entropy(logits, data.labels).data)) < 1e-12
        assert acc == correct / 10

    def test_train_row_equals_the_one_batch_train_forward(self):
        # lr0 = 0 leaves the parameters as built, and dropout 0 makes the forward
        # deterministic, so the epoch's row is the train-mode loss and accuracy of its batch
        train = tiny_data(3)
        model = network.build_model(ms.spec_from_config(TINY_MODEL), seed=1, dtype="float64")
        cfg = T.TrainConfig(epochs=1, batch_size=len(train), lr0=0.0, dropout_p=0.0, seed=1)
        (row,) = T.train_epochs(model, train, tiny_data(1, split="test"), cfg)
        perm = make_rng(cfg.seed, "shuffle", 0).permutation(len(train))
        labels = train.labels[perm]
        logits, _ = network.forward(model, train.images[perm], mode="train",
                                    rng=make_rng(cfg.seed, "dropout", 0, 0))
        loss = float(ops.softmax_cross_entropy(logits, labels).data)
        correct = int((logits.data.argmax(axis=1) == labels).sum())
        assert 0 < correct < len(train)
        assert abs(row["train_loss"] - loss) < 1e-12
        assert row["train_acc"] == correct / len(train)


class TestEvaluate:
    def test_invariant_to_dataset_shuffling(self):
        model = tiny_model(seed=4)
        data = tiny_data(16, split="test")
        loss_a, acc_a = T.evaluate(model, data, batch_size=16)
        perm = np.random.default_rng(0).permutation(len(data))
        shuffled = DatasetHandle(data.images[perm], data.labels[perm], "test", data.num_classes)
        loss_b, acc_b = T.evaluate(model, shuffled, batch_size=16)
        assert acc_a == acc_b
        assert abs(loss_a - loss_b) < 1e-6

    def test_eval_mode_ignores_dropout(self):
        model = tiny_model(seed=6)
        model.dropout_p = 0.9
        data = tiny_data(4, split="test")
        assert T.evaluate(model, data) == T.evaluate(model, data)

    @pytest.mark.parametrize("batch_size", [-5, 0])
    def test_rejects_a_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match="at least 1"):
            T.evaluate(tiny_model(), tiny_data(1, split="test"), batch_size=batch_size)

    def test_rejects_an_empty_split(self):
        full = tiny_data(1, split="test")
        empty = DatasetHandle(full.images[:0], full.labels[:0], "test", full.num_classes)
        with pytest.raises(ValueError, match="no images"):
            T.evaluate(tiny_model(), empty)


def forward_sizes(monkeypatch):
    """The batch sizes of every network.forward call from here on."""
    sizes, forward = [], network.forward

    def spy(model, x, *args, **kwargs):
        sizes.append(len(x))
        return forward(model, x, *args, **kwargs)

    monkeypatch.setattr(network, "forward", spy)
    return sizes


def paper_eval_sizes(monkeypatch, n):
    """The forward sizes of evaluate over n paper-model images at the default batch_size.

    48 KiB of period-0 state per image; only the cut is read, so the forward is a stub."""
    sizes = []

    def stub(model, x, mode):
        sizes.append(len(x))
        return Tensor(np.zeros((len(x), 4), np.float32)), []

    monkeypatch.setattr(network, "forward", stub)
    model = network.build_model(ms.spec_from_config(fingerprint.MODELS["paper_erknet"]))
    T.evaluate(model, DatasetHandle(np.zeros((n, 3, 32, 32), np.float32),
                                    np.zeros(n, np.int64), "test", 4))
    return sizes


class TestEvalSlices:
    """evaluate runs one forward per slice of whole images and weights each slice's loss."""

    @pytest.mark.parametrize("name,dtype", fingerprint.CASES)
    def test_metrics_are_the_size_weighted_sums_over_slices_of_3_3_and_4_bitwise(
            self, monkeypatch, name, dtype):
        # 10 images at batch_size 4: three slices of at most 4, none of one image
        spec = ms.spec_from_config(fingerprint.MODELS[name])
        model = network.build_model(spec, seed=0, dtype=dtype)
        x = make_rng(0, "eval-slices").normal(size=(10, *spec.input_shape)).astype(dtype)
        labels = np.arange(10) % spec.num_classes
        data = DatasetHandle(x, labels, "test", spec.num_classes)
        slices = (slice(0, 3), slice(3, 6), slice(6, 10))
        parts = [network.forward(model, x[s], mode="eval")[0] for s in slices]
        loss = sum(float(ops.softmax_cross_entropy(lg, labels[s]).data) * len(lg.data)
                   for lg, s in zip(parts, slices))
        correct = sum(int((lg.data.argmax(axis=1) == labels[s]).sum())
                      for lg, s in zip(parts, slices))
        whole, _ = network.forward(model, x, mode="eval")
        assert parts[0].data.dtype == whole.data.dtype
        assert np.array_equal(np.concatenate([lg.data for lg in parts]), whole.data)
        sizes = forward_sizes(monkeypatch)
        assert T.evaluate(model, data, batch_size=4) == (loss / 10, correct / 10)
        assert sizes == [3, 3, 4]

    def test_a_paper_batch_of_256_runs_as_two_slices_of_128(self, monkeypatch):
        assert paper_eval_sizes(monkeypatch, 256) == [128, 128]

    def test_a_paper_split_of_257_leaves_no_image_alone(self, monkeypatch):
        # the default batch_size is 256, but the slices span the whole split
        assert paper_eval_sizes(monkeypatch, 257) == [128, 129]

    def test_a_slices_states_are_freed_before_the_next_slice_runs(self, monkeypatch):
        # a slice's period states are as large as its features, so holding them
        # through the next slice's forward would add them to eval's peak
        forward, refs, alive = network.forward, [], []

        def spy(model, x, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            logits, states = forward(model, x, *args, **kwargs)
            refs[:] = [weakref.ref(state) for state in states]
            return logits, states

        monkeypatch.setattr(network, "forward", spy)
        T.evaluate(tiny_model(), tiny_data(3, split="test"), batch_size=4)
        assert refs and alive == [0, 0, 0]

    def test_peak_stays_well_below_one_whole_batch_forward(self, monkeypatch):
        # 64 images in slices of 8; the conv pool limited to two participants
        pool = parallel._pool()
        monkeypatch.setattr(pool, "workers", min(pool.workers, 1))
        model = tiny_model()
        data = tiny_data(16, split="test")
        monkeypatch.setattr(T, "EVAL_BYTES", 8 * model.spec.periods[0].channels * 16 * 16 * 4)
        T.evaluate(model, data)   # warm-up, so neither run pays first-call allocations
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            network.forward(model, data.images, mode="eval")
            whole = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            T.evaluate(model, data, batch_size=len(data))
            sliced = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sliced < whole / 2, (sliced, whole)


class TestMetricsCsv:
    def test_format_and_reproducibility(self, tmp_path):
        train = tiny_data()
        test = tiny_data(4, split="test")
        blobs = []
        for run in range(2):
            model = tiny_model(seed=9)
            cfg = T.TrainConfig(epochs=2, batch_size=16, seed=9)
            hist = T.train_epochs(model, train, test, cfg)
            path = tmp_path / f"metrics_{run}.csv"
            T.write_metrics_csv(hist, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        lines = blobs[0].decode().splitlines()
        assert lines[0] == "epoch,lr,train_loss,train_acc,test_loss,test_acc"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 6
            for value in fields[1:]:
                whole, frac = value.split(".")
                assert len(frac) == 6
