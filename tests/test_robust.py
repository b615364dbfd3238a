import itertools

import numpy as np
import pytest
from scipy.stats import chi2

from dirout.robust import c_step, consistency_factor, default_h, mcd_fit, rmd


def exhaustive_mcd(points, h):
    """Oracle: minimum subset-covariance determinant by full enumeration."""
    n = len(points)
    best = (np.inf, None)
    for subset in itertools.combinations(range(n), h):
        sel = points[list(subset)]
        diff = sel - sel.mean(axis=0)
        det = np.linalg.det(diff.T @ diff / h)
        if det < best[0]:
            best = (det, np.array(subset))
    return best


class TestMcdFit:
    def test_full_sample_is_classical(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        fit = mcd_fit(pts, h=20, rng_seed=1)
        diff = pts - pts.mean(axis=0)
        assert np.allclose(fit.location, pts.mean(axis=0), atol=1e-12)
        assert np.allclose(fit.scatter, diff.T @ diff / 20, atol=1e-12)
        assert fit.consistency_factor == 1.0

    def test_excludes_gross_outlier_and_matches_oracle(self):
        rng = np.random.default_rng(2)
        pts = np.vstack([rng.normal(size=(9, 2)), [[100.0, 100.0]]])
        fit = mcd_fit(pts, h=8, rng_seed=3)
        assert 9 not in fit.subset
        det, subset = exhaustive_mcd(pts, 8)
        assert np.array_equal(fit.subset, subset)
        assert fit.determinant == pytest.approx(det, rel=1e-10)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(25, 2))
        a = np.array([[2.0, 0.5], [-0.3, 1.4]])
        b = np.array([10.0, -3.0])
        fit = mcd_fit(pts, h=15, rng_seed=5)
        fit_t = mcd_fit(pts @ a.T + b, h=15, rng_seed=5)
        assert np.array_equal(fit.subset, fit_t.subset)
        assert np.allclose(fit_t.location, a @ fit.location + b, atol=1e-9)
        assert np.allclose(fit_t.scatter, a @ fit.scatter @ a.T, atol=1e-8)

    def test_default_h_formula(self):
        assert default_h(100, 3) == 52
        assert default_h(10, 2) == 6

    def test_h_out_of_range(self):
        pts = np.random.default_rng(6).normal(size=(10, 2))
        with pytest.raises(ValueError):
            mcd_fit(pts, h=2)
        with pytest.raises(ValueError):
            mcd_fit(pts, h=11)

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 3))
        f1 = mcd_fit(pts, rng_seed=11)
        f2 = mcd_fit(pts, rng_seed=11)
        assert np.array_equal(f1.subset, f2.subset)
        assert np.array_equal(f1.scatter, f2.scatter)

    def test_beats_random_subsets(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_t(df=3, size=(40, 2))
        fit = mcd_fit(pts, rng_seed=9)
        h = fit.h
        for _ in range(100):
            subset = rng.choice(40, size=h, replace=False)
            sel = pts[subset]
            diff = sel - sel.mean(axis=0)
            det = np.linalg.det(diff.T @ diff / h)
            assert fit.determinant <= det + 1e-12

    def test_location_scatter_recomputable_from_subset(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(30, 2))
        fit = mcd_fit(pts, rng_seed=11)
        sel = pts[fit.subset]
        diff = sel - sel.mean(axis=0)
        assert np.allclose(fit.location, sel.mean(axis=0), atol=1e-12)
        assert np.allclose(fit.scatter, (diff.T @ diff / fit.h) * fit.consistency_factor, atol=1e-12)


class TestCStep:
    def test_determinant_monotone(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(30, 3))
        subset = np.sort(rng.choice(30, size=17, replace=False))
        dets = []
        for _ in range(20):
            new_subset, _, _, det = c_step(pts, subset, 17)
            dets.append(det)
            if new_subset is None or np.array_equal(new_subset, subset):
                break
            subset = new_subset
        assert all(a >= b - 1e-12 * abs(a) for a, b in zip(dets, dets[1:]))


class TestConsistencyFactor:
    def test_one_at_full_sample(self):
        assert consistency_factor(50, 50, 3) == 1.0

    def test_inflates_half_sample(self):
        c = consistency_factor(26, 50, 2)
        # direct recomputation from the chi-square definition
        frac = 26 / 50
        q = chi2.ppf(frac, 2)
        assert c == pytest.approx(frac / chi2.cdf(q, 4), rel=1e-12)
        assert c > 1.0


class TestRmd:
    def test_zero_at_location(self):
        rng = np.random.default_rng(13)
        fit = mcd_fit(rng.normal(size=(25, 2)), rng_seed=14)
        assert rmd(fit.location[None], fit)[0] == 0.0

    def test_univariate_formula(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(20, 1))
        fit = mcd_fit(pts, rng_seed=16)
        y = np.array([[2.7]])
        expected = abs(y[0, 0] - fit.location[0]) / np.sqrt(fit.scatter[0, 0])
        assert rmd(y, fit)[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(17)
        fit = mcd_fit(rng.normal(size=(40, 3)), rng_seed=18)
        ys = rng.normal(size=(10, 3))
        distances = rmd(ys, fit)
        assert distances.shape == (10,)
        for y, distance in zip(ys, distances):
            diff = y - fit.location
            expected = np.sqrt(diff @ np.linalg.inv(fit.scatter) @ diff)
            assert distance == pytest.approx(expected, abs=1e-10)

    def test_median_square_near_chi2_median(self):
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(500, 2))
        fit = mcd_fit(pts, rng_seed=20)
        d2 = rmd(pts, fit) ** 2
        target = chi2.ppf(0.5, 2)
        assert 0.5 * target <= np.median(d2) <= 1.5 * target
