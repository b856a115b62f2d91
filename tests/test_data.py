"""Dataset ingestion: CIFAR-10 binary parsing, synthetic shapes, augmentation."""

import numpy as np
import pytest

from rknet.data import (DataError, _read_cifar_batch, augment_cifar, gen_synthetic_shapes,
                        load_cifar10_binary)
from rknet.rng import make_rng

RECORD = 3073
FILE_BYTES = 10_000 * RECORD


@pytest.fixture(scope="module")
def cifar_dir(tmp_path_factory):
    """Six synthetic batch files in the exact binary layout (label byte +
    3072 channel-planar pixel bytes per record)."""
    root = tmp_path_factory.mktemp("cifar10")
    template = np.zeros((10_000, RECORD), dtype=np.uint8)
    template[:, 0] = np.arange(10_000) % 10
    template[:, 1:] = ((np.arange(10_000)[:, None] * 31 + np.arange(RECORD - 1)[None, :]) % 256)
    # first record of batch 1 gets distinct per-channel plane values
    first = template.copy()
    first[0, 0] = 7
    first[0, 1:1025] = 10     # R plane
    first[0, 1025:2049] = 20  # G plane
    first[0, 2049:3073] = 30  # B plane
    for i in range(1, 6):
        data = first if i == 1 else template
        data.tofile(root / f"data_batch_{i}.bin")
    template.tofile(root / "test_batch.bin")
    return root


class TestCifarLoader:
    def test_split_sizes(self, cifar_dir):
        train, test = load_cifar10_binary(cifar_dir)
        assert train.images.dtype == test.images.dtype == np.float32
        assert train.images.shape == (50_000, 3, 32, 32)
        assert test.images.shape == (10_000, 3, 32, 32)
        assert len(train.labels) == 50_000 and len(test.labels) == 10_000

    def test_channel_planar_layout_and_scaling(self, cifar_dir):
        images, labels = _read_cifar_batch(cifar_dir / "data_batch_1.bin")
        assert labels[0] == 7
        assert np.all(images[0, 0] == np.float32(10 / 255))
        assert np.all(images[0, 1] == np.float32(20 / 255))
        assert np.all(images[0, 2] == np.float32(30 / 255))

    def test_meanstd_normalization_uses_train_stats(self, cifar_dir):
        train, test = load_cifar10_binary(cifar_dir)
        assert abs(float(train.images.mean())) < 1e-3
        # test split transformed with the train statistics, not its own
        raw_train = np.concatenate([_read_cifar_batch(cifar_dir / f"data_batch_{i}.bin")[0]
                                    for i in range(1, 6)])
        raw_test, _ = _read_cifar_batch(cifar_dir / "test_batch.bin")
        mean = raw_train.mean(axis=(0, 2, 3), keepdims=True)
        std = raw_train.std(axis=(0, 2, 3), keepdims=True)
        assert np.allclose(test.images, (raw_test - mean) / std, atol=1e-5)

    @staticmethod
    def _link_all_but(src, dst, skip):
        dst.mkdir()
        for f in src.iterdir():
            if f.name != skip:
                (dst / f.name).symlink_to(f)

    def test_truncated_file_names_byte_counts(self, tmp_path, cifar_dir):
        broken = tmp_path / "broken"
        self._link_all_but(cifar_dir, broken, "data_batch_3.bin")
        (broken / "data_batch_3.bin").write_bytes(b"\x00" * 1000)
        with pytest.raises(DataError, match=f"expected {FILE_BYTES} bytes.*got 1000"):
            load_cifar10_binary(broken)

    def test_label_byte_out_of_range(self, tmp_path, cifar_dir):
        broken = tmp_path / "badlabel"
        self._link_all_but(cifar_dir, broken, "test_batch.bin")
        data = np.fromfile(cifar_dir / "test_batch.bin", dtype=np.uint8)
        data[0] = 11
        data.tofile(broken / "test_batch.bin")
        with pytest.raises(DataError, match="label byte"):
            load_cifar10_binary(broken)


class TestSyntheticShapes:
    def test_deterministic_without_noise(self):
        a = gen_synthetic_shapes(5, noise=0.0, seed=3)
        b = gen_synthetic_shapes(5, noise=0.0, seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_deterministic_with_noise(self):
        a = gen_synthetic_shapes(5, noise=0.2, seed=3)
        b = gen_synthetic_shapes(5, noise=0.2, seed=3)
        assert np.array_equal(a.images, b.images)

    def test_labels_exactly_balanced(self):
        ds = gen_synthetic_shapes(17, seed=0)
        assert np.bincount(ds.labels).tolist() == [17, 17, 17, 17]

    def test_train_and_test_splits_differ(self):
        tr = gen_synthetic_shapes(5, noise=0.0, seed=0, split="train")
        te = gen_synthetic_shapes(5, noise=0.0, seed=0, split="test")
        assert not np.array_equal(tr.images, te.images)

    def test_size_floor(self):
        with pytest.raises(ValueError, match="size"):
            gen_synthetic_shapes(5, size=4)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="n_per_class"):
            gen_synthetic_shapes(0)

    def test_nearest_neighbor_baseline_exceeds_90_percent(self):
        # brute-force 1-NN over raw pixels: a sanity oracle that the classes
        # are separable at moderate noise
        train = gen_synthetic_shapes(500, noise=0.1, seed=1, split="train")
        test = gen_synthetic_shapes(100, noise=0.1, seed=1, split="test")
        a = train.images.reshape(len(train), -1)
        b = test.images.reshape(len(test), -1)
        d2 = (b ** 2).sum(1)[:, None] + (a ** 2).sum(1)[None, :] - 2.0 * (b @ a.T)
        pred = train.labels[np.argmin(d2, axis=1)]
        acc = float((pred == test.labels).mean())
        assert acc > 0.9, f"1-NN accuracy {acc}"


class _StubRng:
    """Fixed draws: center crop (offsets 4, 4) and no flip."""

    def integers(self, lo, hi, size=None):
        return np.array([4, 4])

    def random(self):
        return 0.9


class TestAugmentCifar:
    def test_output_shape_matches_input(self):
        x = np.random.default_rng(0).normal(size=(3, 32, 32)).astype(np.float32)
        out = augment_cifar(x, make_rng(0, "aug"))
        assert out.shape == x.shape

    def test_center_crop_no_flip_is_identity(self):
        x = np.random.default_rng(1).normal(size=(3, 32, 32)).astype(np.float32)
        assert np.array_equal(augment_cifar(x, _StubRng()), x)

    def test_flip_permutes_each_row(self):
        x = np.random.default_rng(2).normal(size=(3, 32, 32)).astype(np.float32)

        class FlipOnly(_StubRng):
            def random(self):
                return 0.1

        out = augment_cifar(x, FlipOnly())
        assert np.array_equal(out, x[:, :, ::-1])
        for c in range(3):
            for row in range(32):
                assert sorted(out[c, row]) == sorted(x[c, row])

    def test_wrong_spatial_size_rejected(self):
        with pytest.raises(ValueError, match="32"):
            augment_cifar(np.zeros((3, 16, 16), dtype=np.float32), make_rng(0))

    def test_deterministic_given_key(self):
        x = np.random.default_rng(3).normal(size=(3, 32, 32)).astype(np.float32)
        a = augment_cifar(x, make_rng(5, "aug", 2, 7))
        b = augment_cifar(x, make_rng(5, "aug", 2, 7))
        assert np.array_equal(a, b)
