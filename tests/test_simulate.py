import math

import numpy as np
import pytest
from scipy.integrate import quad

from dirout.curves import Grid
from dirout.errors import InvalidCovarianceError, UnsupportedParameterError
from dirout.pointwise import cholesky_with_jitter
from dirout.simulate import (
    GeneratorSpec,
    bessel_k,
    default_grid,
    derivative_dataset,
    generate,
    joint_covariance,
    matern,
    matern_matrix,
)
from oracles import sample_gp


def bessel_k_quadrature(nu, x):
    """Oracle: K_nu(x) by adaptive quadrature of the cosh integral representation."""
    upper = np.arccosh(750.0 / x) + 1.0 if x < 750.0 else 1.0
    val, err = quad(lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t), 0.0, upper,
                    limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


class TestBesselK:
    def test_recurrence_identity(self):
        for x in (0.1, 1.0, 10.0):
            lhs = bessel_k(2, x) - bessel_k(0, x) - 2.0 * bessel_k(1, x) / x
            assert abs(lhs) < 1e-10

    def test_k0_and_k1_at_one(self):
        assert bessel_k(0, 1.0) == pytest.approx(bessel_k_quadrature(0, 1.0), abs=1e-7)
        assert bessel_k(1, 1.0) == pytest.approx(bessel_k_quadrature(1, 1.0), abs=1e-7)

    def test_against_quadrature_over_range(self):
        for order in (0, 1, 2):
            for x in (1e-3, 0.05, 0.5, 1.9, 2.1, 5.0, 20.0, 50.0):
                oracle = bessel_k_quadrature(order, x)
                assert bessel_k(order, x) == pytest.approx(oracle, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(0, -1.0)
        with pytest.raises(UnsupportedParameterError):
            bessel_k(1.5, 1.0)


class TestMatern:
    def test_unit_at_zero_lag(self):
        for nu in (0.5, 1.0, 2.0):
            assert matern(0.0, nu, 0.3) == 1.0

    def test_half_smoothness_is_exponential(self):
        for h in np.linspace(0.0, 3.0, 31):
            for alpha in (0.5, 1.0, 2.0):
                assert matern(h, 0.5, alpha) == pytest.approx(np.exp(-alpha * h), abs=1e-12)

    def test_smoothness_two_matches_quadrature(self):
        x = 0.2 * 0.5
        oracle = 0.5 * x**2 * bessel_k_quadrature(2, x)
        assert matern(0.5, 2.0, 0.2) == pytest.approx(oracle, abs=1e-8)

    def test_half_integers_match_bessel_definition(self):
        for nu in (1.5, 2.5):
            for h in (0.3, 1.0, 2.5):
                x = 0.8 * h
                oracle = 2.0 ** (1 - nu) / math.gamma(nu) * x**nu * bessel_k_quadrature(nu, x)
                assert matern(h, nu, 0.8) == pytest.approx(oracle, rel=1e-8)

    def test_nonincreasing_in_lag(self):
        hs = np.arange(0.0, 3.01, 0.1)
        for nu in (0.5, 1.0, 1.5, 2.0):
            for alpha in (0.1, 0.5, 2.0):
                vals = [matern(h, nu, alpha) for h in hs]
                assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_unsupported_smoothness(self):
        with pytest.raises(UnsupportedParameterError):
            matern(1.0, 0.7, 1.0)

    @pytest.mark.parametrize("nu, alpha", [(0.0, 1.0), (-0.5, 1.0), (0.5, 0.0), (0.5, -2.0)])
    def test_nonpositive_parameters_are_refused(self, nu, alpha):
        with pytest.raises(ValueError, match="^nu and alpha must be positive$"):
            matern(1.0, nu, alpha)


class TestJointCovariance:
    def test_symmetric_and_psd_after_jitter(self):
        grid = default_grid()
        for p in (1, 2):
            mat = joint_covariance(grid, p)
            assert np.max(np.abs(mat - mat.T)) < 1e-14
            jitter = 1e-7 * np.max(np.diag(mat))
            np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0]))  # must not raise

    def test_noise_constants_at_zero_lag(self):
        grid = default_grid()
        m = grid.m
        se = joint_covariance(grid, 1)
        assert se.shape == (m, m)
        assert np.all(np.diag(se) == 0.25)
        bm = joint_covariance(grid, 2)
        assert bm.shape == (2 * m, 2 * m)
        assert np.all(np.diag(bm) == 0.01**2)
        assert np.all(np.diag(bm[:m, m:]) == 0.6 * 0.01 * 0.01)
        assert np.all(np.diag(bm[m:, :m]) == 0.6 * 0.01 * 0.01)

    def test_other_dimensions_rejected(self):
        for p in (0, 3):
            with pytest.raises(ValueError):
                joint_covariance(default_grid(), p)

    def test_matern_matrix_matches_scalar(self):
        d = np.array([[0.0, 0.3], [0.3, 1.2]])
        out = matern_matrix(d, 2.0, 0.2)
        for i in range(2):
            for j in range(2):
                assert out[i, j] == matern(d[i, j], 2.0, 0.2)


class TestCholeskyWithJitter:
    def test_the_jitter_escalates_past_its_first_value(self):
        # the smaller eigenvalue is about -2.5e-10: 1e-10 of jitter leaves it
        # negative, and the first escalation, x10, makes it positive
        mat = np.array([[1.0, 1.0], [1.0, 1.0 - 5e-10]])
        for jitter in (0.0, 1e-10):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(mat + jitter * np.eye(2))
        want = np.linalg.cholesky(mat + 1e-10 * 10.0 * np.eye(2))
        assert np.array_equal(cholesky_with_jitter(mat), want)

    def test_a_matrix_that_no_jitter_mends_is_refused(self):
        mat = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(InvalidCovarianceError, match="^covariance not positive definite after jitter escalation$"):
            cholesky_with_jitter(mat)


class TestSampleGp:
    def test_squared_exponential_pointwise_variance(self):
        grid = default_grid()
        grp = sample_gp(grid, n=5000, p=1, seed=0)
        var = grp.values[:, :, 0].var(axis=0, ddof=1)
        assert np.all(np.abs(var - 0.25) < 0.02)

    def test_bivariate_cross_correlation(self):
        grid = default_grid()
        grp = sample_gp(grid, n=5000, p=2, seed=1)
        c1, c2 = grp.values[:, :, 0], grp.values[:, :, 1]
        corr = np.array([np.corrcoef(c1[:, t], c2[:, t])[0, 1] for t in range(grid.m)])
        assert np.all(np.abs(corr - 0.6) < 0.05)

    def test_seed_determinism(self):
        grid = default_grid()
        a = sample_gp(grid, n=4, p=1, seed=9)
        b = sample_gp(grid, n=4, p=1, seed=9)
        assert np.array_equal(a.values, b.values)


class TestGenerate:
    def test_data2_mean_level(self):
        grid = Grid(np.linspace(0.0, 1.0, 41))  # contains t = 0.25
        grp = generate(GeneratorSpec("2", 0, 5000, grid=grid, seed=2))
        t_idx = int(np.argmin(np.abs(grid.points - 0.25)))
        assert grp.values[:, t_idx, 0].mean() == pytest.approx(10.0, abs=0.02)

    def test_data3_class1_is_flat(self):
        grp = generate(GeneratorSpec("3", 1, 1000, seed=3, include_noise=False))
        t = grp.grid.points
        tc = t - t.mean()
        slopes = grp.values[:, :, 0] @ tc / (tc @ tc)
        assert np.abs(slopes).mean() <= 0.05

    def test_data1c_contamination_fraction(self):
        grp = generate(GeneratorSpec("1c", 0, 10000, seed=4, include_noise=False))
        t = grp.grid.points
        sin2 = np.sin(2 * np.pi * t)
        # recover each curve's sine coefficient; contaminated draws exceed 1
        coef = grp.values[:, :, 0] @ sin2 / (sin2 @ sin2)
        frac = float(np.mean(coef > 1.0))
        assert abs(frac - 0.10) <= 0.01

    def test_class_value_ranges_overlap(self):
        for ds in ("1", "2", "3", "1c", "4", "5", "6"):
            g0 = generate(GeneratorSpec(ds, 0, 200, seed=5))
            g1 = generate(GeneratorSpec(ds, 1, 200, seed=6))
            lo0, hi0 = np.percentile(g0.values, [5, 95])
            lo1, hi1 = np.percentile(g1.values, [5, 95])
            overlap = min(hi0, hi1) - max(lo0, lo1)
            assert overlap >= 0.5 * min(hi0 - lo0, hi1 - lo1), ds

    def test_determinism_and_shapes(self):
        for ds, p in (("1", 1), ("4", 2), ("5", 2), ("6", 3)):
            a = generate(GeneratorSpec(ds, 1, 7, seed=7))
            b = generate(GeneratorSpec(ds, 1, 7, seed=7))
            assert np.array_equal(a.values, b.values)
            assert a.p == p and a.n == 7

    def test_data5_class0_levels_span_minus_two_to_two(self):
        spec = GeneratorSpec("5", 0, 400, seed=20, include_noise=False)
        levels = np.abs(generate(spec).values[:, 0, :])
        assert levels.max() <= 2.0
        assert levels.max() > 1.5

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GeneratorSpec("9", 0, 5)
        with pytest.raises(ValueError):
            GeneratorSpec("1", 2, 5)

    @pytest.mark.parametrize("n", [0, -3])
    def test_a_sample_size_below_one_is_refused(self, n):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            GeneratorSpec("4", 1, n)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("class_label", True),
            ("class_label", 1.0),
            ("n", True),
            ("n", 5.0),
            ("seed", False),
            ("seed", 1.5),
            ("seed", "1"),
            ("seed", -1),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        args = {"class_label": 1, "n": 5, "seed": 1, field: value}
        with pytest.raises(ValueError, match=field):
            GeneratorSpec("4", **args)

    def test_numpy_integers_are_integers(self):
        spec = GeneratorSpec("4", np.int64(1), np.int64(5), seed=np.uint32(1))
        grp = generate(spec)
        assert grp.label == "1"
        assert np.array_equal(grp.values, generate(GeneratorSpec("4", 1, 5, seed=1)).values)


class TestDerivativeDataset:
    def test_output_is_bivariate(self):
        grp = derivative_dataset(GeneratorSpec("1", 0, 5, seed=8))
        assert grp.p == 2

    def test_data2_derivative_has_high_frequency_content(self):
        g0 = derivative_dataset(GeneratorSpec("2", 0, 1, seed=9, include_noise=False))
        g1 = derivative_dataset(GeneratorSpec("2", 1, 1, seed=9, include_noise=False))
        mag0 = np.abs(np.fft.rfft(g0.values[0, :, 1]))[10]
        mag1 = np.abs(np.fft.rfft(g1.values[0, :, 1]))[10]
        assert mag1 >= 5.0 * mag0

    def test_seed_determinism(self):
        a = derivative_dataset(GeneratorSpec("3", 0, 4, seed=10))
        b = derivative_dataset(GeneratorSpec("3", 0, 4, seed=10))
        assert np.array_equal(a.values, b.values)

    def test_rejects_multivariate_source(self):
        with pytest.raises(ValueError):
            derivative_dataset(GeneratorSpec("4", 0, 5, seed=11))


class TestDefaultGrid:
    def test_benchmark_grid(self):
        g = default_grid()
        assert g.m == 50
        assert g.points[0] == pytest.approx(0.02)
        assert g.points[-1] == 1.0
        assert g.weights @ np.ones(50) == pytest.approx(1.0, abs=1e-15)
