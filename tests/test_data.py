from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtershare import data
from filtershare.errors import ConfigError, DataCorruptionError, FormatError
from filtershare.tensor import Tensor, dump_tensor, load_tensor

from conftest import make_cifar_fixture_records


class TestBatchRecords:
    def test_fixture_round_trip(self, cifar_fixture_file):
        records = data.read_batch_records(cifar_fixture_file)
        assert len(records) == 20
        originals = make_cifar_fixture_records()
        for got, want in zip(records, originals):
            assert got.label == want.label
            assert np.array_equal(got.image.array, want.image.array)

    def test_record_format_arithmetic(self, tmp_path):
        img = np.zeros((3, 32, 32))
        img[0, 0, 0] = 1.0  # pixel byte 255 at flat index 0
        path = tmp_path / "one.bin"
        data.write_batch_records(path, [data.LabeledImage(Tensor(img), 3)])
        raw = path.read_bytes()
        assert len(raw) == data.RECORD_BYTES
        assert raw[0] == 3
        assert raw[1] == 255
        back = data.read_batch_records(path)[0]
        assert back.label == 3
        assert back.image.array[0, 0, 0] == 1.0

    def test_truncated_file(self, cifar_fixture_file):
        raw = cifar_fixture_file.read_bytes()
        cifar_fixture_file.write_bytes(raw[:-100])
        with pytest.raises(FormatError, match="fixture_batch"):
            data.read_batch_records(cifar_fixture_file)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.bin"
        rec = bytearray(data.RECORD_BYTES)
        rec[0] = 11
        path.write_bytes(bytes(rec))
        with pytest.raises(DataCorruptionError, match="label 11"):
            data.read_batch_records(path)


class TestLoadCifar10:
    def _write_full_batches(self, root):
        base = np.zeros((data.BATCH_RECORDS, data.RECORD_BYTES), dtype=np.uint8)
        base[:, 0] = np.arange(data.BATCH_RECORDS) % 10
        for name in data.CIFAR_TRAIN_FILES + (data.CIFAR_TEST_FILE,):
            base.tofile(root / name)

    def test_full_layout(self, tmp_path):
        self._write_full_batches(tmp_path)
        train, test = data.load_cifar10(tmp_path)
        assert len(train) == 50_000
        assert len(test) == 10_000
        item = train[12_345]
        assert item.label == 12_345 % 10
        assert item.image.shape == (3, 32, 32)

    def test_each_batch_holds_10000_records(self, tmp_path):
        self._write_full_batches(tmp_path)
        one = data.read_batch_records(tmp_path / data.CIFAR_TEST_FILE)
        assert len(one) == data.BATCH_RECORDS

    def test_wrong_size_names_file(self, tmp_path):
        self._write_full_batches(tmp_path)
        bad = tmp_path / "data_batch_3.bin"
        bad.write_bytes(bad.read_bytes()[:-1])
        with pytest.raises(FormatError, match="data_batch_3"):
            data.load_cifar10(tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="data_batch_1"):
            data.load_cifar10(tmp_path)


class TestSubset:
    def _pool(self, n=200, classes=10):
        return data.toy_image_dataset(n, seed=31, num_classes=classes)

    def test_full_fraction_covers_everything(self):
        pool = self._pool(50)
        picked = data.subset(pool, 1.0, seed=3)
        assert len(picked) == 50
        assert sorted(picked.indices.tolist()) == list(range(50))

    def test_35_percent_of_50000_is_17500(self):
        # count math only; indices stay virtual via a labels-only stand-in
        class Fake:
            labels = np.repeat(np.arange(10), 5000)

            def __len__(self):
                return 50_000

            def __getitem__(self, i):
                raise AssertionError("must not materialize")

        picked = data.subset(Fake(), 0.35, seed=0)
        assert len(picked) == 17_500

    def test_same_seed_same_indices(self):
        pool = self._pool()
        a = data.subset(pool, 0.3, seed=9)
        b = data.subset(pool, 0.3, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_nested_prefixes(self):
        pool = self._pool()
        small = data.subset(pool, 0.2, seed=5)
        large = data.subset(pool, 0.5, seed=5)
        assert np.array_equal(large.indices[:len(small)], small.indices)
        assert set(small.indices).issubset(set(large.indices))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_nesting_property(self, seed, f1, f2):
        pool = self._pool(60, classes=3)
        lo, hi = sorted((f1, f2))
        small = data.subset(pool, lo, seed=seed)
        large = data.subset(pool, hi, seed=seed)
        assert set(small.indices).issubset(set(large.indices))

    def test_stratified_within_one_per_class(self):
        pool = self._pool(200, classes=10)
        picked = data.subset(pool, 0.35, seed=17)
        labels = np.array([item.label for item in picked])
        counts = np.bincount(labels, minlength=10)
        assert counts.sum() == 70
        assert np.all(np.abs(counts - 7) <= 1)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            data.subset(self._pool(10), 0.0, seed=0)
        with pytest.raises(ConfigError):
            data.subset(self._pool(10), 1.5, seed=0)


class TestSplit:
    def test_280_gives_140_70_70(self):
        pool = list(range(280))
        a, b, c = data.split(pool, (0.5, 0.25, 0.25), seed=1)
        assert (len(a), len(b), len(c)) == (140, 70, 70)

    def test_partition_is_disjoint_and_complete(self):
        pool = list(range(101))
        parts = data.split(pool, (0.5, 0.25, 0.25), seed=2)
        all_indices = np.concatenate([p.indices for p in parts])
        assert len(all_indices) == 101
        assert len(set(all_indices.tolist())) == 101

    def test_same_seed_same_partition(self):
        pool = list(range(40))
        a1, b1, c1 = data.split(pool, seed=9)
        a2, b2, c2 = data.split(pool, seed=9)
        for x, y in ((a1, a2), (b1, b2), (c1, c2)):
            assert np.array_equal(x.indices, y.indices)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            data.split(list(range(10)), (0.5, 0.25, 0.1), seed=0)


class TestSynthNodules:
    def test_shapes_and_mask_bounds(self):
        samples = data.synth_nodule_dataset(3, seed=8)
        lo = 4.0 / 3.0 * np.pi * 3 ** 3 * 0.5
        hi = 4.0 / 3.0 * np.pi * 8 ** 3 * 1.5
        for s in samples:
            assert s.volume.shape == (1, 40, 40, 40)
            assert s.mask.shape == (40, 40, 40)
            voxels = int(s.mask.array.sum())
            assert lo <= voxels <= hi
            assert set(np.unique(s.mask.array)) <= {0.0, 1.0}

    def test_seed_determinism_bitwise(self):
        a = data.synth_nodule_dataset(2, seed=5)
        b = data.synth_nodule_dataset(2, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.volume.array, y.volume.array)
            assert np.array_equal(x.mask.array, y.mask.array)

    def test_mask_is_recorded_quadratic_form(self):
        for s in data.synth_nodule_dataset(3, seed=21):
            recomputed = data.ellipsoid_mask(s.params)
            assert np.array_equal(recomputed, s.mask.array)

    def test_mask_single_6connected_component(self):
        for s in data.synth_nodule_dataset(2, seed=13):
            mask = s.mask.array.astype(bool)
            seen = np.zeros_like(mask)
            start = tuple(np.argwhere(mask)[0])
            queue = deque([start])
            seen[start] = True
            while queue:
                x, y, z = queue.popleft()
                for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if (0 <= nx < 40 and 0 <= ny < 40 and 0 <= nz < 40
                            and mask[nx, ny, nz] and not seen[nx, ny, nz]):
                        seen[nx, ny, nz] = True
                        queue.append((nx, ny, nz))
            assert np.array_equal(seen, mask)

    def test_volume_standardized(self):
        s = data.synth_nodule_dataset(1, seed=3)[0]
        assert abs(s.volume.array.mean()) < 1e-12
        assert abs(s.volume.array.std() - 1.0) < 1e-12

    def test_persist_round_trip(self, tmp_path):
        sample = data.synth_nodule_dataset(1, seed=4)[0]
        for name, t in (("volume", sample.volume), ("mask", sample.mask)):
            dump_tensor(t, tmp_path / f"{name}.bin")
            assert np.array_equal(load_tensor(tmp_path / f"{name}.bin").array,
                                  t.array)


class TestToyImages:
    def test_balanced_and_deterministic(self):
        a = data.toy_image_dataset(40, seed=6)
        b = data.toy_image_dataset(40, seed=6)
        labels = [s.label for s in a]
        assert np.bincount(labels, minlength=10).tolist() == [4] * 10
        for x, y in zip(a, b):
            assert x.label == y.label
            assert np.array_equal(x.image.array, y.image.array)

    def test_images_in_unit_range(self):
        for s in data.toy_image_dataset(10, seed=2):
            assert s.image.array.min() >= 0.0
            assert s.image.array.max() <= 1.0
            assert s.image.shape == (3, 32, 32)
