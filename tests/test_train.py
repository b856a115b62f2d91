"""Optimizer, schedule, and epoch-loop behavior."""

import dataclasses
import json

import numpy as np
import pytest

from rknet import model_spec as ms
from rknet import network, ops
from rknet import train as T
from rknet.data import gen_synthetic_shapes, DatasetHandle
from rknet.rng import make_rng
from rknet.tensor import Parameter, Tensor

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

    def test_epoch_counter_advances(self):
        model = tiny_model(seed=3)
        cfg = T.TrainConfig(epochs=2, batch_size=32, seed=0)
        T.train_epochs(model, tiny_data(), tiny_data(4, split="test"), cfg)
        assert model.epoch == 2


class TestReportedMetrics:
    """The losses and accuracies a run reports are means over its images."""

    def test_evaluate_equals_one_eval_forward_over_all_images(self):
        # 10 images in batches of 4, 4 and 2: each batch mean is weighted by its size
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
