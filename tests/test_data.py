import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deqlab.data import (
    Dataset,
    gen_sphere_data,
    load_labels_csv,
    load_matrix_csv,
    normalize_to_sphere,
    save_labels_csv,
    save_matrix_csv,
)
from deqlab.errors import AssumptionError, InputError


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

    @pytest.mark.parametrize("y_cap", [np.nan, np.inf, 0.0, -1.0])
    def test_cap_not_positive_and_finite_rejected(self, y_cap):
        # a nan cap would turn the bounded-label check off
        ds = gen_sphere_data(3, 4, seed=1)
        with pytest.raises(InputError, match="y_cap must be positive and finite"):
            Dataset(x=ds.x, y=100 * ds.y, y_cap=y_cap)
        with pytest.raises(InputError, match="y_cap"):
            gen_sphere_data(3, 4, seed=1, y_cap=y_cap)

    def test_nan_rejected(self):
        ds = gen_sphere_data(3, 4, seed=2)
        x = ds.x.copy()
        x[0, 0] = np.nan
        with pytest.raises(InputError):
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
