import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deqlab.data import (
    Dataset,
    gen_sphere_data,
    load_cifar_bin,
    load_idx,
    load_labels_csv,
    load_matrix_csv,
    normalize_to_sphere,
    save_labels_csv,
    save_matrix_csv,
    subset_binary,
)
from deqlab.errors import AssumptionError, InputError


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=0):
    """images: list of 2-D uint8 arrays (same shape), labels: list of ints."""
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    ipath = tmp_path / "images.idx"
    lpath = tmp_path / "labels.idx"
    blob = struct.pack(">IIII", image_magic, count, rows, cols) + images.tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    ipath.write_bytes(blob)
    lpath.write_bytes(struct.pack(">II", label_magic, len(labels))
                      + bytes(labels))
    return ipath, lpath


class TestDatasetInvariants:
    def test_valid_dataset(self):
        ds = gen_sphere_data(6, 4, seed=0)
        assert ds.d == 4 and ds.n == 6

    def test_bad_norm_rejected(self):
        x = np.eye(3)  # columns have norm 1, not sqrt(3)
        with pytest.raises(AssumptionError):
            Dataset(x=x, y=np.zeros(3))

    def test_parallel_columns_rejected(self):
        d = 4
        col = np.full(d, 1.0)
        x = np.column_stack([col, 2 * col])
        x = x * (np.sqrt(d) / np.linalg.norm(x, axis=0))
        with pytest.raises(AssumptionError):
            Dataset(x=x, y=np.zeros(2))

    def test_label_cap_rejected(self):
        ds = gen_sphere_data(3, 4, seed=1)
        with pytest.raises(AssumptionError):
            Dataset(x=ds.x, y=np.array([0.0, 11.0, 0.0]))

    def test_nan_rejected(self):
        ds = gen_sphere_data(3, 4, seed=2)
        x = ds.x.copy()
        x[0, 0] = np.nan
        with pytest.raises(AssumptionError):
            Dataset(x=x, y=ds.y)


class TestGenSphereData:
    def test_column_norms(self):
        ds = gen_sphere_data(4, 8, seed=0)
        np.testing.assert_allclose(np.linalg.norm(ds.x, axis=0),
                                   np.sqrt(8), atol=1e-10)

    def test_deterministic(self):
        a = gen_sphere_data(10, 5, seed=42)
        b = gen_sphere_data(10, 5, seed=42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = gen_sphere_data(10, 5, seed=1)
        b = gen_sphere_data(10, 5, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_pairwise_cosines_small_at_scale(self):
        ds = gen_sphere_data(200, 1000, seed=3)
        c = (ds.x.T @ ds.x) / 1000.0
        np.fill_diagonal(c, 0.0)
        assert np.abs(c).max() < 0.25

    def test_labels_clipped(self):
        ds = gen_sphere_data(50, 4, seed=4, y_cap=0.5)
        assert np.all(np.abs(ds.y) <= 0.5)

    def test_n_one_warns(self):
        with pytest.warns(UserWarning):
            ds = gen_sphere_data(1, 4, seed=5)
        assert ds.n == 1

    def test_parallel_draw_is_redrawn_after_the_others(self):
        # At d=2 draw 42 of seed 844110 is parallel to an earlier one: it
        # is dropped, the later draws move up and one redraw from the same
        # stream, taken before the labels, fills the last column.
        n, d, seed = 47, 2, 844110
        rng = np.random.default_rng(seed)
        draws = normalize_to_sphere(rng.standard_normal((d, n)))
        redraw = normalize_to_sphere(rng.standard_normal((d, 1)))
        labels = rng.standard_normal(n)
        cos = draws[:, :42].T @ draws[:, 42] / d
        assert np.abs(cos).max() > 1.0 - 1e-9
        ds = gen_sphere_data(n, d, seed)
        np.testing.assert_array_equal(ds.x[:, :42], draws[:, :42])
        np.testing.assert_array_equal(ds.x[:, 42:46], draws[:, 43:])
        np.testing.assert_array_equal(ds.x[:, 46], redraw[:, 0])
        np.testing.assert_array_equal(ds.y, labels)

    def test_bad_ranges(self):
        with pytest.raises(InputError):
            gen_sphere_data(0, 4, seed=0)
        with pytest.raises(InputError):
            gen_sphere_data(4, 1, seed=0)


class TestNormalizeToSphere:
    def test_direct_scaling(self):
        out = normalize_to_sphere(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out[:, 0],
                                   [3 * np.sqrt(2) / 5, 4 * np.sqrt(2) / 5],
                                   atol=1e-15)

    def test_idempotent(self):
        ds = gen_sphere_data(5, 6, seed=0)
        np.testing.assert_allclose(normalize_to_sphere(ds.x), ds.x, atol=1e-12)

    def test_zero_column_rejected(self):
        with pytest.raises(InputError):
            normalize_to_sphere(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestIdxParser:
    def test_round_trip(self, tmp_path):
        img0 = [[0, 1], [2, 3]]
        img1 = [[250, 251], [252, 253]]
        ipath, lpath = write_idx_pair(tmp_path, [img0, img1], [7, 1])
        pixels, labels = load_idx(ipath, lpath)
        assert pixels.shape == (4, 2)
        # Row-major flattening of each image into a column.
        np.testing.assert_array_equal(pixels[:, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(pixels[:, 1], [250, 251, 252, 253])
        np.testing.assert_array_equal(labels, [7, 1])

    def test_wrong_magic(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, [[[1]]], [0], image_magic=0x999)
        with pytest.raises(InputError, match="magic"):
            load_idx(ipath, lpath)

    def test_count_mismatch(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, [[[1]], [[2]]], [0])
        with pytest.raises(InputError, match="mismatch"):
            load_idx(ipath, lpath)

    def test_truncated(self, tmp_path):
        ipath, lpath = write_idx_pair(tmp_path, [[[1, 2], [3, 4]]], [0],
                                      truncate_images=2)
        with pytest.raises(InputError, match="truncated"):
            load_idx(ipath, lpath)


class TestCifarParser:
    @staticmethod
    def make_batch(tmp_path, labels, pixel_value=128):
        records = []
        for i, lab in enumerate(labels):
            body = np.full(3072, pixel_value + i, dtype=np.uint8)
            records.append(bytes([lab]) + body.tobytes())
        path = tmp_path / "batch.bin"
        path.write_bytes(b"".join(records))
        return path

    def test_round_trip(self, tmp_path):
        path = self.make_batch(tmp_path, [0, 1, 9], pixel_value=10)
        pixels, labels = load_cifar_bin(path)
        assert pixels.shape == (3072, 3)
        np.testing.assert_array_equal(labels, [0, 1, 9])
        np.testing.assert_array_equal(pixels[:, 1], np.full(3072, 11.0))

    def test_truncated(self, tmp_path):
        path = self.make_batch(tmp_path, [0, 1])
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(InputError, match="multiple"):
            load_cifar_bin(path)

    def test_bad_label(self, tmp_path):
        path = self.make_batch(tmp_path, [0, 10])
        with pytest.raises(InputError, match="label byte"):
            load_cifar_bin(path)


class TestSubsetBinary:
    @staticmethod
    def make_raw(per_class=6, d=10, seed=0):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(1, 255, size=(d, 4 * per_class)).astype(np.float64)
        labels = np.array([0, 1] * (2 * per_class), dtype=np.int64)
        return pixels, labels

    def test_balanced_subset(self):
        raw = self.make_raw(per_class=4)
        ds = subset_binary(raw, 0, 1, per_class=3, seed=1)
        assert ds.n == 6
        assert np.sum(ds.y == -1.0) == 3 and np.sum(ds.y == 1.0) == 3
        np.testing.assert_allclose(np.linalg.norm(ds.x, axis=0),
                                   np.sqrt(10), rtol=1e-12)

    def test_deterministic(self):
        raw = self.make_raw()
        a = subset_binary(raw, 0, 1, per_class=4, seed=9)
        b = subset_binary(raw, 0, 1, per_class=4, seed=9)
        assert np.array_equal(a.x, b.x)

    def test_insufficient_samples(self):
        raw = self.make_raw(per_class=2)
        with pytest.raises(InputError, match="only"):
            subset_binary(raw, 0, 1, per_class=5, seed=0)

    def test_irreparable_duplicates(self):
        d = 6
        col = np.arange(1.0, d + 1.0)
        pixels = np.column_stack([col, 2 * col, col * 0.5, 3 * col])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(AssumptionError, match="parallel"):
            subset_binary((pixels, labels), 0, 1, per_class=2, seed=0)

    def test_error_lists_plain_source_indices(self):
        col = np.arange(1.0, 7.0)
        pixels = np.column_stack([col, 2 * col, col * 0.5, 3 * col])
        with pytest.raises(AssumptionError,
                           match=r"class 0: 1 of .* source indices \[[01]\]$"):
            subset_binary((pixels, np.array([0, 0, 1, 1])), 0, 1, per_class=2,
                          seed=0)

    def test_zero_samples_skipped(self):
        rng = np.random.default_rng(2)
        pixels = rng.integers(1, 255, size=(6, 5)).astype(np.float64)
        pixels[:, 0] = 0.0
        labels = np.array([0, 0, 0, 1, 1])
        for seed in range(10):
            ds = subset_binary((pixels, labels), 0, 1, per_class=2, seed=seed)
            assert sorted(ds.extra["source_indices"][:2]) == [1, 2]

    def test_parallel_pick_replaced_from_the_rest_of_the_pool(self):
        # Class 1 holds three multiples of class 0's sample and one more:
        # every seed must end with that one, however the pool is ordered.
        a = np.arange(1.0, 7.0)
        c = np.random.default_rng(0).integers(1, 255, 6).astype(np.float64)
        pixels = np.column_stack([a, 2 * a, 3 * a, 4 * a, c])
        labels = np.array([0, 1, 1, 1, 1])
        for seed in range(40):
            ds = subset_binary((pixels, labels), 0, 1, per_class=1, seed=seed)
            assert ds.extra["source_indices"] == [0, 4]

    def test_duplicate_replaced_when_possible(self):
        d = 6
        rng = np.random.default_rng(5)
        col = np.arange(1.0, d + 1.0)
        fresh = rng.integers(1, 255, size=(d, 2)).astype(np.float64)
        pixels = np.column_stack([col, 2 * col, fresh[:, 0], fresh[:, 1],
                                  rng.integers(1, 255, size=d).astype(np.float64),
                                  rng.integers(1, 255, size=d).astype(np.float64)])
        labels = np.array([0, 0, 0, 0, 1, 1])
        ds = subset_binary((pixels, labels), 0, 1, per_class=2, seed=3)
        assert ds.n == 4

    def test_image_scale_subset(self):
        # 500 images per class at the full image dimension: the balanced
        # two-class dataset comes out as d=784, n=1000 with all invariants.
        rng = np.random.default_rng(6)
        pixels = rng.integers(0, 256, size=(784, 2200)).astype(np.float64)
        labels = np.tile(np.array([0, 1], dtype=np.int64), 1100)
        ds = subset_binary((pixels, labels), 0, 1, per_class=500, seed=1)
        assert ds.d == 784 and ds.n == 1000
        assert np.sum(ds.y == -1.0) == 500 and np.sum(ds.y == 1.0) == 500
        np.testing.assert_allclose(np.linalg.norm(ds.x, axis=0),
                                   np.sqrt(784), rtol=1e-12)


class TestCsvRoundTrip:
    def test_matrix(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, a)
        np.testing.assert_array_equal(load_matrix_csv(path), a)

    def test_matrix_header_checked(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n2,2\n1\n2\n3\n4\n")
        with pytest.raises(InputError):
            load_matrix_csv(path)

    def test_labels(self, tmp_path):
        y = np.random.default_rng(1).standard_normal(7)
        path = tmp_path / "y.csv"
        save_labels_csv(path, y)
        np.testing.assert_array_equal(load_labels_csv(path), y)


class TestCsvByteFormat:
    """Both writers print each value as f"{v:.17g}" formats the numpy
    float64, one per line, and load_* reads the same bits back."""

    VALUES = np.array([-0.0, 5e-324, 1e308, 0.1, 1 / 3])

    @staticmethod
    def expected(values):
        return "".join(f"{v:.17g}\n" for v in values)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
    def test_matrix(self, tmp_path, shape):
        a = self.VALUES.reshape(shape)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, a)
        assert path.read_text() == (f"d,n\n{shape[0]},{shape[1]}\n"
                                    + self.expected(a.flatten(order="F")))
        assert load_matrix_csv(path).tobytes() == a.tobytes()

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
    def test_labels(self, tmp_path, shape):
        path = tmp_path / "y.csv"
        save_labels_csv(path, self.VALUES.reshape(shape))
        assert path.read_text() == "y\n" + self.expected(self.VALUES)
        assert load_labels_csv(path).tobytes() == self.VALUES.tobytes()

    def test_edge_values(self, tmp_path):
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                          1.7976931348623157e308, -1.7976931348623157e308,
                          2.2250738585072014e-308, 1e16, 0.1, 1 / 3, -2.5])
        a = np.stack([edges, edges[::-1]], axis=1)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, a)
        assert path.read_text() == (f"d,n\n{a.shape[0]},2\n"
                                    + self.expected(a.flatten(order="F")))


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 30), d=st.integers(2, 30), seed=st.integers(0, 10**6))
def test_gen_sphere_invariants_property(n, d, seed):
    ds = gen_sphere_data(n, d, seed)
    norms = np.linalg.norm(ds.x, axis=0)
    assert np.allclose(norms, np.sqrt(d), atol=1e-10)
    assert np.all(np.abs(ds.y) <= ds.y_cap)
