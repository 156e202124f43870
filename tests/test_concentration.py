import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from deqlab import concentration
from deqlab.concentration import (
    derive_seed,
    fresh_randomness_reconstruct,
    kernel_depth_decay,
    lambda0_vs_width,
    tied_vs_population,
    write_report_csv,
    write_summary_csv,
)
from deqlab.config import ConcentrationSection, load_config
from deqlab.data import gen_sphere_data
from deqlab.errors import AssumptionError, ConfigError, DegenerateInputError, InputError
from deqlab.kernel import kernel_fixed_point, kernel_layer_sequence, rho
from deqlab.linalg import gram
from deqlab.model import SolverConfig, init_params, layer_iterates, solve_equilibrium


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 100, 3) == derive_seed(1, 100, 3)

    def test_components_matter(self):
        base = derive_seed(1, 100, 3)
        assert derive_seed(2, 100, 3) != base
        assert derive_seed(1, 200, 3) != base
        assert derive_seed(1, 100, 4) != base


class TestLayerIterates:
    def test_first_level_is_single_layer(self):
        p = init_params(12, 6, 0.08, seed=0)
        x = gen_sphere_data(4, 6, seed=0).x
        zs = layer_iterates(p, x, 3)
        np.testing.assert_array_equal(zs[0], np.maximum(p.u @ x, 0))
        assert len(zs) == 3

    def test_converges_to_equilibrium(self):
        p = init_params(20, 5, 0.08, seed=1)
        x = gen_sphere_data(5, 5, seed=1).x
        z_star = solve_equilibrium(p, x, SolverConfig(tol=1e-13)).z
        z_deep = layer_iterates(p, x, 200)[-1]
        assert np.abs(z_deep - z_star).max() <= 1e-10


class TestKernelDepthDecay:
    def test_strictly_decreasing_and_geometric(self):
        x = gen_sphere_data(8, 8, seed=5).x
        series = kernel_depth_decay(kernel_fixed_point(x, 0.08), x, 12)
        assert all(series[i + 1] < series[i] for i in range(1, 11))
        # Ratio approaches sigma_w^2; proof gives it as the asymptotic rate.
        for i in range(2, 8):
            assert series[i + 1] / series[i] <= 0.08 + 0.02

    def test_sigma_near_zero_collapses_to_first_layer(self):
        x = gen_sphere_data(5, 6, seed=6).x
        series = kernel_depth_decay(kernel_fixed_point(x, 1e-12), x, 4)
        assert series[0] <= 1e-9


    def test_measured_against_the_given_kernel(self):
        # a kernel 1e-4 off the fixed point: its own error is the series' floor
        x = gen_sphere_data(8, 8, seed=5).x
        pk = kernel_fixed_point(x, 0.08)
        loose = replace(pk, k=pk.k + 1e-4)
        series = kernel_depth_decay(loose, x, 40)
        k_40 = list(kernel_layer_sequence(x, 0.08, 40))[-1]
        assert series[-1] == float(np.linalg.norm(loose.k - k_40))
        assert series[-1] > 1e-7
        assert kernel_depth_decay(pk, x, 40)[-1] < 1e-12

    def test_holds_a_few_levels_at_a_time(self):
        # the levels are measured as they come: the traced peak stays a
        # few n x n arrays, not the 60 the whole sequence would take
        x = gen_sphere_data(100, 20, seed=6).x
        pk = kernel_fixed_point(x, 0.08)
        tracemalloc.start()
        try:
            kernel_depth_decay(pk, x, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * pk.k.nbytes


BAD_GRIDS = [([], 3), ([0], 3), ([0, 10], 3), ([40, 20], 3), ([20, 20], 3),
             ([20], 0)]
EXPERIMENTS = [
    lambda x, m_list, trials, base_seed: tied_vs_population(
        x, 0.08, m_list, l=3, trials=trials, base_seed=base_seed),
    lambda x, m_list, trials, base_seed: lambda0_vs_width(
        x, 0.08, m_list, trials=trials, base_seed=base_seed),
]


class TestGrid:
    """One grid rule and one (m, trial) loop behind every experiment."""

    @pytest.mark.parametrize("m_list, trials", BAD_GRIDS,
                             ids=[f"{m}-trials{t}" for m, t in BAD_GRIDS])
    def test_config_and_experiments_refuse_alike(self, monkeypatch, m_list,
                                                 trials):
        def never(*args, **kwargs):
            raise AssertionError("population kernel solved for a bad grid")
        monkeypatch.setattr(concentration, "kernel_fixed_point", never)
        monkeypatch.setattr(concentration, "kernel_layer_sequence", never)
        with pytest.raises(InputError) as built:
            ConcentrationSection(m_list=m_list, trials=trials)
        message = str(built.value)
        x = gen_sphere_data(4, 6, seed=12).x
        for run in EXPERIMENTS:
            with pytest.raises(InputError) as refused:
                run(x, m_list, trials, base_seed=0)
            assert str(refused.value) == message
        with pytest.raises(ConfigError, match=re.escape(
                f"section 'concentration': {message}")):
            load_config(None, [f"concentration.m_list={m_list}",
                               f"concentration.trials={trials}"])

    @pytest.mark.parametrize("run", EXPERIMENTS, ids=["tied", "lambda0"])
    def test_cells_are_m_major_with_derived_seeds(self, run):
        # later grid experiments (a width threshold, tied against untied
        # arms) rely on this cell order and seed policy
        x = gen_sphere_data(4, 6, seed=12).x
        report = run(x, [8, 12, 30], trials=3, base_seed=5)
        assert [(c.m, c.trial, c.seed) for c in report.cells] == [
            (m, trial, derive_seed(5, m, trial))
            for m in (8, 12, 30) for trial in range(3)]


class TestTiedVsPopulation:
    def test_median_error_shrinks_with_width(self):
        x = gen_sphere_data(8, 8, seed=5).x
        report = tied_vs_population(x, 0.08, [50, 200, 800], l=4, trials=10,
                                    base_seed=9)
        meds = [np.median(report.errors_for(m=m)) for m in (50, 200, 800)]
        assert meds[0] / meds[1] >= 1.5
        assert meds[1] / meds[2] >= 1.5

    def test_single_input_concentrates_on_rho(self):
        x = np.full((9, 1), 1.0)
        x = x * (3.0 / np.linalg.norm(x))
        level = 5
        errs = {}
        for m in (100, 1600):
            report = tied_vs_population(x, 0.08, [m], l=level, trials=10,
                                        base_seed=4)
            errs[m] = np.median(report.errors_for(m=m))
        # error here is |G_11/m - rho^(l)|; larger width concentrates harder
        assert errs[1600] < errs[100]
        assert errs[1600] < 0.1 * rho(0.08, level)

    def test_deterministic(self):
        x = gen_sphere_data(4, 6, seed=10).x
        a = tied_vs_population(x, 0.08, [30], l=3, trials=5, base_seed=1)
        b = tied_vs_population(x, 0.08, [30], l=3, trials=5, base_seed=1)
        assert a.cells == b.cells

    def test_sigma_near_zero_matches_single_layer_baseline(self):
        # With sigma_w^2 ~ 0 the deep tied model is the classical
        # one-layer feature map; error statistics must coincide.
        x = gen_sphere_data(6, 8, seed=11).x
        sigma_w2 = 1e-12
        report = tied_vs_population(x, sigma_w2, [80], l=5, trials=6, base_seed=2)
        k1 = next(kernel_layer_sequence(x, sigma_w2, 1))
        for cell in report.cells:
            p = init_params(cell.m, 8, sigma_w2, cell.seed)
            z1 = np.maximum(p.u @ x, 0)
            baseline = float(np.linalg.norm(gram(z1) / cell.m - k1))
            assert cell.error == pytest.approx(baseline, abs=1e-5)

    def test_input_validation(self):
        x = gen_sphere_data(4, 6, seed=12).x
        for m_list, trials in (([], 5), ([200, 100], 5), ([20, 20], 5),
                               ([20], 0)):
            with pytest.raises(InputError):
                tied_vs_population(x, 0.08, m_list, l=3, trials=trials,
                                   base_seed=0)


class TestLambda0VsWidth:
    def test_fraction_ge_half_reported(self):
        x = gen_sphere_data(8, 8, seed=5).x
        report = lambda0_vs_width(x, 0.08, [100, 400], trials=8, base_seed=11)
        fr = report.extra["fraction_ge_half"]
        assert set(fr) == {100, 400}
        assert fr[400] >= fr[100] - 0.25  # non-decreasing up to trial noise
        assert all(0.0 <= v <= 1.0 for v in fr.values())

    def test_ratio_recorded_per_trial(self):
        x = gen_sphere_data(5, 8, seed=13).x
        report = lambda0_vs_width(x, 0.08, [60], trials=4, base_seed=3)
        assert len(report.cells) == 4
        assert all(c.error >= 0 for c in report.cells)

    def test_ratio_exactly_zero_below_n(self):
        # m = 20 < n = 40: rank Z <= m, so every ratio is exactly 0.0; the
        # m = 60 >= n cells keep the eigensolve's own value.
        x = gen_sphere_data(40, 20, seed=12).x
        report = lambda0_vs_width(x, 0.08, [20, 60], trials=3, base_seed=13)
        assert np.array_equal(report.errors_for(m=20), [0.0, 0.0, 0.0])
        assert report.extra["fraction_ge_half"][20] == 0.0
        lam_star = report.extra["lambda_star"]
        for trial, ratio in enumerate(report.errors_for(m=60)):
            p = init_params(60, 20, 0.08, seed=derive_seed(13, 60, trial))
            z = solve_equilibrium(p, x).z
            assert ratio == np.linalg.eigvalsh(gram(z))[0] / (60 * lam_star)

    def test_input_validation(self):
        # a repeated width would redraw its seeds: [20, 20] at 2 trials
        # gave 4 cells from 2 draws
        x = gen_sphere_data(4, 6, seed=12).x
        for m_list, trials in (([], 2), ([200, 100], 2), ([20, 20], 2),
                               ([20], 0)):
            with pytest.raises(InputError):
                lambda0_vs_width(x, 0.08, m_list, trials=trials, base_seed=0)

    def test_array_grid_runs_as_its_list(self):
        # an array has no truth value: the grid's emptiness is its length
        x = gen_sphere_data(4, 6, seed=12).x
        listed = lambda0_vs_width(x, 0.08, [8, 16], 2, 3)
        arrayed = lambda0_vs_width(x, 0.08, np.array([8, 16]), 2, 3)
        assert arrayed.cells == listed.cells
        assert arrayed.extra == listed.extra
        with pytest.raises(InputError, match="m_list is empty"):
            lambda0_vs_width(x, 0.08, np.array([]), 2, 3)

    def test_degenerate_data_aborts(self):
        col = np.arange(1.0, 7.0)
        x = np.column_stack([col, col])  # parallel pair
        x = x * (np.sqrt(6) / np.linalg.norm(x, axis=0))
        with pytest.raises(AssumptionError, match="lambda_star"):
            lambda0_vs_width(x, 0.08, [50], trials=2, base_seed=0)

    def test_single_input_ratio_approaches_one(self):
        # n=1: lambda_0 = ||z||^2 concentrates at m rho_inf and lambda* is
        # exactly rho_inf, so the recorded ratio tends to 1 with width.
        x = np.full((9, 1), 1.0) * (3.0 / 3.0)
        x = x * (np.sqrt(9) / np.linalg.norm(x))
        report = lambda0_vs_width(x, 0.08, [1600], trials=10, base_seed=6)
        ratios = report.errors_for(m=1600)
        assert abs(np.median(ratios) - 1.0) < 0.1
        assert report.extra["lambda_star"] == pytest.approx(1 / 0.92, abs=1e-10)


class TestFreshRandomnessReconstruct:
    def test_exact_identities_at_scale(self):
        ds = gen_sphere_data(8, 16, seed=3)
        p = init_params(200, 16, 0.08, seed=4)
        for i, j in [(0, 1), (3, 6), (7, 2)]:
            id_err, ip_err = fresh_randomness_reconstruct(p, ds.x, i, j, l=3)
            assert id_err <= 1e-8 * p.m
            assert ip_err <= 1e-10

    def test_l_one_boundary(self):
        ds = gen_sphere_data(5, 8, seed=14)
        p = init_params(80, 8, 0.08, seed=15)
        id_err, ip_err = fresh_randomness_reconstruct(p, ds.x, 0, 3, l=1)
        assert id_err <= 1e-8 * p.m
        assert ip_err <= 1e-10

    def test_diagonal_pair(self):
        ds = gen_sphere_data(5, 8, seed=16)
        p = init_params(80, 8, 0.08, seed=17)
        id_err, ip_err = fresh_randomness_reconstruct(p, ds.x, 2, 2, l=3)
        assert id_err <= 1e-8 * p.m
        assert ip_err <= 1e-10

    def test_error_is_rounding_not_statistical(self):
        # The identity is algebraic: errors stay at rounding scale across
        # widths instead of shrinking like 1/sqrt(m).
        ds = gen_sphere_data(4, 8, seed=18)
        for m in (100, 1600):
            p = init_params(m, 8, 0.08, seed=19)
            id_err, ip_err = fresh_randomness_reconstruct(p, ds.x, 0, 1, l=2)
            assert id_err <= 1e-9 * m
            assert ip_err <= 1e-12

    def test_degenerate_history_raises(self):
        # Duplicate input columns make the layer histories coincide.
        col = np.arange(1.0, 9.0)
        x = np.column_stack([col, col])
        x = x * (np.sqrt(8) / np.linalg.norm(x, axis=0))
        p = init_params(50, 8, 0.08, seed=20)
        with pytest.raises(DegenerateInputError):
            fresh_randomness_reconstruct(p, x, 0, 1, l=3)

    def test_bad_indices(self):
        ds = gen_sphere_data(3, 8, seed=21)
        p = init_params(20, 8, 0.08, seed=22)
        with pytest.raises(InputError):
            fresh_randomness_reconstruct(p, ds.x, 0, 5, l=2)
        with pytest.raises(InputError):
            fresh_randomness_reconstruct(p, ds.x, 0, 1, l=0)

    def test_numpy_int_indices(self):
        ds = gen_sphere_data(3, 8, seed=21)
        p = init_params(20, 8, 0.08, seed=22)
        assert (fresh_randomness_reconstruct(p, ds.x, np.int64(0), np.int64(1), l=2)
                == fresh_randomness_reconstruct(p, ds.x, 0, 1, l=2))


class TestReportCsv:
    def test_schema_and_determinism(self, tmp_path):
        x = gen_sphere_data(4, 6, seed=23).x
        report = tied_vs_population(x, 0.08, [30, 60], l=2, trials=3, base_seed=5)
        res, summ = tmp_path / "cells.csv", tmp_path / "summary.csv"
        write_report_csv(res, report)
        write_summary_csv(summ, report)
        lines = res.read_text().splitlines()
        assert lines[0] == "experiment,m,l,trial,seed,error"
        assert len(lines) == 1 + 6
        assert summ.read_text().splitlines()[0] == "experiment,m,l,trials,q1,median,q3"
        write_report_csv(tmp_path / "again.csv", report)
        assert (tmp_path / "again.csv").read_bytes() == res.read_bytes()
