import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dirout import robust
from dirout.errors import DegenerateDataError
from dirout.outlyingness import reference_frame, summarize_values
from dirout.robust import (
    _nearest,
    _screen,
    _squared_distances,
    c_step,
    consistency_factor,
    default_h,
    mcd_fit,
    rmd,
)
from dirout.simulate import DATASETS, UNIVARIATE, GeneratorSpec, derivative_dataset, generate


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

    @pytest.mark.parametrize("h", [6.0, "6", np.float64(6.0)])
    def test_h_not_an_integer(self, h):
        pts = np.random.default_rng(6).normal(size=(10, 2))
        with pytest.raises(ValueError, match=f"^h must be an integer, got {re.escape(repr(h))}$"):
            mcd_fit(pts, h=h)
        mcd_fit(pts, h=np.int64(6))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        pts = np.random.default_rng(6).normal(size=(40, 2))
        pts[17, 1] = value
        with pytest.raises(ValueError, match="^features must be finite$"):
            mcd_fit(pts)

    def test_points_on_a_line_raise_at_once(self):
        # the full-sample check raises before any start is drawn; growing
        # every start to the whole sample took seconds at this size
        x = np.random.default_rng(24).normal(size=1000)
        started = time.perf_counter()
        with pytest.raises(DegenerateDataError, match="^full-sample covariance is singular$"):
            mcd_fit(np.column_stack([x, np.zeros_like(x)]))
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("n, scale", [(30, 1e150), (100, 1e155), (300, 1e155)])
    def test_overflowing_covariance_raises_at_once(self, n, scale):
        # full-sample determinants inf, nan and nan: without the check these
        # clouds gave an inf or nan fit, or grew every start to the whole
        # sample and raised only after seconds
        pts = np.random.default_rng(0).normal(size=(n, 2)) * scale
        started = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateDataError, match="^full-sample covariance determinant is not finite$"):
                mcd_fit(pts)
        assert time.perf_counter() - started < 0.5

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
            new_subsets, _, _, det = c_step(pts, subset[None], 17)
            new_subset, det = new_subsets[0], det[0]
            dets.append(det)
            if det <= 0.0 or np.array_equal(new_subset, subset):
                break
            subset = new_subset
        assert all(a >= b - 1e-12 * abs(a) for a, b in zip(dets, dets[1:]))


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def assert_same_step(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b) if a.dtype.kind == "i" else np.array_equal(bits(a), bits(b))


class TestStackedCSteps:
    """Row k of a stacked c-step equals a one-row call, bit for bit, so neither
    the stack size nor how starts are grouped can change a subset."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        extra=st.integers(0, 30),
        n_subsets=st.integers(1, 12),
        ties=st.booleans(),
    )
    def test_rows_equal_one_row_calls(self, seed, d, extra, n_subsets, ties):
        rng = np.random.default_rng(seed)
        n = d + 2 + extra
        pts = rng.normal(size=(n, d))
        if ties:
            pts = np.round(pts, 1)  # duplicates, tied distances, singular subsets
        h = int(rng.integers(d + 1, n + 1))
        k = int(rng.integers(d + 1, n + 1))
        subsets = np.array([rng.choice(n, size=k, replace=False) for _ in range(n_subsets)])
        stacked = c_step(pts, subsets, h)
        split = int(rng.integers(0, n_subsets + 1))
        chunks = [c_step(pts, part, h) for part in (subsets[:split], subsets[split:])]
        for i, subset in enumerate(subsets):
            one_row = [part[0] for part in c_step(pts, subset[None], h)]
            assert_same_step([part[i] for part in stacked], one_row)
        for part, chunked in zip(stacked, zip(*chunks)):
            assert_same_step([part], [np.concatenate(chunked)])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), extra=st.integers(0, 30))
    # three nearly collinear points: their determinant differed in the 9th
    # digit between the drawn index order and the sorted one
    @example(seed=13622724, d=2, extra=0)
    def test_determinants_do_not_increase(self, seed, d, extra):
        rng = np.random.default_rng(seed)
        n = d + 2 + extra
        pts = rng.standard_t(df=3, size=(n, d))
        h = default_h(n, d)
        subsets = np.array([rng.choice(n, size=h, replace=False) for _ in range(8)])
        previous = None
        for _ in range(6):
            new_subsets, _, _, det = c_step(pts, subsets, h)
            if previous is not None:
                assert np.all(det <= previous + 1e-12 * np.abs(previous))
            regular = ~(det <= 0.0)
            subsets, previous = new_subsets[regular], det[regular]


class TestStackedIterate:
    """Iterating a stack of candidates equals the looped oracle on each row
    alone, bit for bit, and the fit takes the first of the smallest."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        extra=st.integers(0, 30),
        n_subsets=st.integers(1, 12),
        decimals=st.sampled_from([0, 1, None]),
        duplicated=st.booleans(),
        max_steps=st.sampled_from([1, 2, robust.MAX_FULL_STEPS]),
    )
    # whole numbers drawn with repeats: tied determinants, and exact fits too
    @example(seed=3, d=1, extra=10, n_subsets=12, decimals=0, duplicated=True, max_steps=100)
    @example(seed=1, d=1, extra=6, n_subsets=12, decimals=0, duplicated=True, max_steps=100)
    def test_rows_equal_looped_oracle(self, seed, d, extra, n_subsets, decimals, duplicated, max_steps):
        rng = np.random.default_rng(seed)
        n = d + 2 + extra
        pts = rng.standard_t(df=3, size=(n, d))
        if decimals is not None:
            pts = np.round(pts, decimals)
        if duplicated:
            pts = pts[rng.integers(n, size=n)]
        h = int(rng.integers(d + 1, n + 1))
        subsets = np.sort([rng.choice(n, size=h, replace=False) for _ in range(n_subsets)], axis=1)
        stacked = robust._iterate(pts, subsets, h, max_steps)
        for i, subset in enumerate(subsets):
            assert_same_step([part[i] for part in stacked], oracles._iterate(pts, subset, h, max_steps))

    def test_rows_live_at_the_step_cap(self, monkeypatch):
        # Cauchy points: 7 of the 10 best screened subsets still move in
        # their first full step, so with one step allowed they take the cap
        rng = np.random.default_rng(4)
        pts = rng.standard_t(df=1, size=(200, 3))
        h = default_h(200, 3)
        subsets, dets = _screen(pts, h, 4)
        kept = subsets[np.argsort(dets, kind="stable")[: robust.N_KEEP]]
        assert (c_step(pts, kept, h)[0] != kept).any(axis=1).sum() == 7
        monkeypatch.setattr(robust, "MAX_FULL_STEPS", 1)
        monkeypatch.setattr(oracles, "MAX_FULL_STEPS", 1)
        assert_same_as_oracle(pts, seed=4)

    def test_first_of_equal_smallest_determinants(self):
        # every 5 consecutive whole numbers have variance 2.0 exactly, so the
        # 10 iterated candidates tie at distinct subsets
        pts = np.arange(-6.0, 7.0)[:, None]
        subsets, dets = _screen(pts, 5, 0)
        kept = subsets[np.argsort(dets, kind="stable")[: robust.N_KEEP]]
        subsets, _, _, dets = robust._iterate(pts, kept, 5, robust.MAX_FULL_STEPS)
        assert np.all(dets == 2.0) and len(np.unique(subsets, axis=0)) > 1
        fit = mcd_fit(pts, 5, 0)
        assert np.array_equal(fit.subset, subsets[0])
        assert_same_as_oracle(pts, 5, 0)


class TestCStepParts:
    """The c-step's distances and selection equal the einsum and the stable
    sort they replace, bit for bit and index for index."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_squared_distances_equal_stacked_einsum(self, d):
        rng = np.random.default_rng(d)
        for n_fits, n in ((1, 5), (40, 100), (500, 37)):
            pts = rng.standard_t(df=3, size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
            loc = rng.normal(size=(n_fits, d))
            root = rng.normal(size=(n_fits, d, d))
            inv = root @ root.transpose(0, 2, 1)
            diff = pts[None] - loc[:, None, :]
            want = np.einsum("sni,sij,snj->sn", diff, inv, diff)
            assert np.array_equal(bits(_squared_distances(pts, loc, inv)), bits(want))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        h=st.integers(1, 45),
        decimals=st.sampled_from([0, 1, None]),
        specials=st.booleans(),
    )
    # h = 1 and h = n on rows rounded to whole numbers
    @example(seed=1, n=30, h=1, decimals=0, specials=False)
    @example(seed=2, n=30, h=30, decimals=0, specials=True)
    def test_nearest_equals_stable_sort(self, seed, n, h, decimals, specials):
        rng = np.random.default_rng(seed)
        h = min(h, n)
        d2 = rng.exponential(size=(12, n))
        if decimals is not None:
            d2 = np.round(d2, decimals)  # many entries tied at the cut
        if specials:
            # signed zeros, infinities and nans, and one row all nan
            d2[rng.random(d2.shape) < 0.2] = -0.0
            d2[rng.random(d2.shape) < 0.1] = np.inf
            d2[rng.random(d2.shape) < 0.1] = np.nan
            d2[rng.integers(len(d2))] = np.nan
        want = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :h], axis=1)
        assert np.array_equal(_nearest(d2, h), want)


def assert_same_fit(fit, want):
    assert np.array_equal(fit.subset.view(np.int64), want.subset.view(np.int64))
    for name in ("location", "scatter", "determinant"):
        assert np.array_equal(bits(getattr(fit, name)), bits(getattr(want, name))), name
    assert (fit.consistency_factor, fit.h, fit.n) == (want.consistency_factor, want.h, want.n)


def assert_same_as_oracle(pts, h=None, seed=0):
    """Every screened start and the fit (or its error) equal the looped oracle's."""
    n, d = pts.shape
    size = default_h(n, d) if h is None else h
    if size < n:
        subsets, dets = _screen(pts, size, seed)
        want = oracles.screen(pts, size, seed)
        assert len(subsets) == len(want)
        assert np.array_equal(subsets, np.array([subset for _, subset in want]).reshape(subsets.shape))
        assert np.array_equal(bits(dets), bits([det for det, _ in want]))
    try:
        want = oracles.mcd_fit(pts, h, seed)
    except DegenerateDataError as error:
        with pytest.raises(DegenerateDataError, match=re.escape(str(error))):
            mcd_fit(pts, h, seed)
        return str(error)
    assert_same_fit(mcd_fit(pts, h, seed), want)


def rmd_features(dataset, derivatives, cls, seed, n=100):
    make = derivative_dataset if derivatives else generate
    frame = reference_frame(make(GeneratorSpec(dataset, cls, n, seed=seed)))
    summaries = summarize_values(frame.values, frame)
    return np.hstack([summaries.mo, summaries.vo[:, None]])


class TestFitAgainstLoopedOracle:
    """Screening all elemental starts in one stacked pass returns the fit of
    the loop over starts in ``oracles``, bit for bit."""

    @pytest.mark.parametrize(
        "dataset, derivatives",
        [(d, False) for d in DATASETS] + [(d, True) for d in UNIVARIATE],
        ids=lambda v: str(v),
    )
    def test_rmd_features_of_benchmark_datasets(self, dataset, derivatives):
        for cls, seed in ((0, 2024), (1, 402)):
            assert_same_as_oracle(rmd_features(dataset, derivatives, cls, seed), seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicated_points_grow_singular_starts(self, seed):
        # 6 points repeated 6 times: most 4-point draws are singular and grow
        rng = np.random.default_rng(21)
        pts = np.vstack([np.repeat(rng.normal(size=(6, 3)), 6, axis=0), rng.normal(size=(4, 3))])
        assert_same_as_oracle(pts, seed=seed)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), decimals=st.integers(0, 1))
    # n = 5, h = 4: 207 of the 500 starts are regular only as the whole sample
    @example(seed=49, d=2, decimals=0)
    def test_rounded_clouds_grow_singular_starts(self, seed, d, decimals):
        # rounding makes duplicate and collinear points, so many starts are
        # singular and grow, some to the whole sample
        rng = np.random.default_rng(seed)
        n = int(rng.integers(d + 2, 41))
        pts = np.round(rng.normal(size=(n, d)), decimals)
        h = int(rng.integers(d + 1, n + 1))
        assert_same_as_oracle(pts, h, seed=int(rng.integers(2**32)))

    @pytest.mark.parametrize(
        "n, d, h", [(20, 2, 20), (12, 2, 3), (4, 2, None), (5, 3, None), (15, 1, None), (40, 4, 5)]
    )
    def test_subset_size_extremes(self, n, d, h):
        pts = np.random.default_rng(n * d).normal(size=(n, d))
        for seed in range(3):
            assert_same_as_oracle(pts, h, seed)

    @pytest.mark.parametrize(
        "on_line, slope, message",
        [
            (15, 0.0, "minimum-determinant subset"),
            (15, 2.0, "minimum-determinant subset"),
            (20, 0.0, "full-sample"),
        ],
    )
    def test_points_on_a_line_raise_alike(self, on_line, slope, message):
        # at least h points on a line: an exact fit, or all n of them and a
        # singular full sample; off the axes, rounding leaves the line's
        # determinants tiny and of either sign
        rng = np.random.default_rng(22)
        x = rng.normal(size=on_line)
        line = np.column_stack([x, slope * x + 1.0])
        pts = np.vstack([line, rng.normal(size=(20 - on_line, 2))])
        assert message in assert_same_as_oracle(pts, seed=23)


class TestConsistencyFactor:
    def test_one_at_full_sample(self):
        assert consistency_factor(50, 50, 3) == 1.0

    def test_inflates_half_sample(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        c = consistency_factor(26, 50, 2)
        # direct recomputation from the chi-square definition
        frac = 26 / 50
        q = chi2.ppf(frac, 2)
        assert c == pytest.approx(frac / chi2.cdf(q, 4), rel=1e-12)
        assert c > 1.0

    @staticmethod
    def scipy_factors(hs, n, d):
        chi2 = pytest.importorskip("scipy.stats").chi2
        frac = np.asarray(hs) / n
        return frac / chi2.cdf(chi2.ppf(frac, d), d + 2)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_scipy_over_admissible_h(self, d):
        for n in [*range(d + 2, d + 12), *range(d + 12, 1201, 97), 1200]:
            hs = range(d + 1, n + 1, max(1, n // 40))
            got = np.array([consistency_factor(h, n, d) for h in hs])
            np.testing.assert_allclose(got, self.scipy_factors(hs, n, d), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_protocol_cases_within_8_ulp(self, n, d):
        h = default_h(n, d)
        want = self.scipy_factors([h], n, d)[0]
        assert abs(consistency_factor(h, n, d) - want) <= 8 * np.spacing(want)

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    @pytest.mark.parametrize("n", [15, 100, 1200])
    def test_non_increasing_in_h(self, n, d):
        got = [consistency_factor(h, n, d) for h in range(d + 1, n + 1)]
        assert all(a >= b for a, b in zip(got, got[1:]))
        assert got[-1] == 1.0

    @pytest.mark.parametrize(
        "h, n, d",
        [(0, 10, 2), (2, 10, 2), (11, 10, 2), (5, 10, 0), (5, 10, -1), (1, 10, 0)],
    )
    def test_rejects_out_of_range(self, h, n, d):
        with pytest.raises(ValueError):
            consistency_factor(h, n, d)


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
        chi2 = pytest.importorskip("scipy.stats").chi2
        target = chi2.ppf(0.5, 2)
        assert 0.5 * target <= np.median(d2) <= 1.5 * target
