import itertools
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dirout import robust
from dirout.errors import DegenerateDataError
from dirout.outlyingness import reference_frame, summarize_values
from dirout.pointwise import quadratic_forms
from dirout.robust import (
    _nearest,
    _screen,
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

    @pytest.mark.parametrize("n, d", [(4, 2), (20, 3), (57, 1), (100, 4), (300, 2)])
    def test_full_sample_fit_is_classical_to_the_bit(self, n, d):
        # every start steps to all n points, and the stacked fit sums them in
        # the order of the one-row fit of the whole sample
        pts = np.random.default_rng(n + d).standard_t(df=3, size=(n, d)) * 10.0
        e = int(np.frexp(np.ptp(pts, axis=0).max())[1])
        loc, cov, det, _ = robust._subset_fits(np.ldexp(pts, -e), np.arange(n)[None])
        fit = mcd_fit(pts, h=n, rng_seed=n)
        assert np.array_equal(fit.subset, np.arange(n))
        assert np.array_equal(bits(fit.location), bits(np.ldexp(loc[0], e)))
        assert np.array_equal(bits(fit.scatter), bits(np.ldexp(cov[0], 2 * e)))
        assert np.array_equal(bits(fit.determinant), bits(np.ldexp(det[0], 2 * d * e)))
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

    @pytest.mark.parametrize("h", [6.0, "6", np.float64(6.0), True])
    def test_h_not_an_integer(self, h):
        pts = np.random.default_rng(6).normal(size=(10, 2))
        with pytest.raises(ValueError, match=f"^h must be an integer, got {re.escape(repr(h))}$"):
            mcd_fit(pts, h=h)
        mcd_fit(pts, h=np.int64(6))

    @pytest.mark.parametrize("shape", [(10,), (2, 5, 1)])
    def test_rejects_features_that_are_not_a_matrix(self, shape):
        with pytest.raises(ValueError, match=f"^features must be \\(n, d\\), got shape {re.escape(str(shape))}$"):
            mcd_fit(np.zeros(shape))

    def test_rejects_fewer_than_d_plus_2_points(self):
        pts = np.random.default_rng(6).normal(size=(4, 3))
        with pytest.raises(ValueError, match=r"^need at least d\+2=5 points, got 4$"):
            mcd_fit(pts)
        mcd_fit(np.vstack([pts, [[1.0, -2.0, 0.5]]]))

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

    @pytest.mark.parametrize("n, scale", [(30, 1e160), (100, 1e155), (300, 1e155)])
    def test_overflowing_covariance_raises_at_once(self, n, scale):
        # full-sample covariances beyond the float range: without the check
        # these clouds gave an inf or nan fit, or grew every start to the
        # whole sample and raised only after seconds
        pts = np.random.default_rng(0).normal(size=(n, 2)) * scale
        started = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateDataError, match="^full-sample covariance is not finite$"):
                mcd_fit(pts)
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("seed", [1.5, True, False, "3", np.float64(2.0), None])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        pts = np.random.default_rng(6).normal(size=(10, 2))
        with pytest.raises(ValueError, match=f"^rng_seed must be an integer, got {re.escape(repr(seed))}$"):
            mcd_fit(pts, rng_seed=seed)

    def test_rejects_a_negative_seed(self):
        pts = np.random.default_rng(6).normal(size=(10, 2))
        with pytest.raises(ValueError, match="^rng_seed must be non-negative, got -1$"):
            mcd_fit(pts, rng_seed=-1)
        assert_same_fit(mcd_fit(pts, rng_seed=np.int64(3)), mcd_fit(pts, rng_seed=3))

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
        h = len(fit.subset)
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
        assert np.allclose(fit.scatter, (diff.T @ diff / len(fit.subset)) * fit.consistency_factor, atol=1e-12)


class TestScaleEquivariance:
    """``mcd_fit`` and ``rmd`` compute on a copy scaled by a power of two
    taken from the data, so their subsets and bits do not depend on the
    data's scale, short of a result beyond the float range."""

    @pytest.mark.parametrize("k", [-332, 332])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_power_of_two_scales_scale_the_bits(self, d, k):
        pts = np.random.default_rng(60 + d).standard_t(df=3, size=(60, d))
        fit = mcd_fit(pts, rng_seed=1)
        scaled = mcd_fit(np.ldexp(pts, k), rng_seed=1)
        assert np.array_equal(scaled.subset, fit.subset)
        assert np.array_equal(bits(scaled.location), bits(np.ldexp(fit.location, k)))
        assert np.array_equal(bits(scaled.scatter), bits(np.ldexp(fit.scatter, 2 * k)))
        # the determinant, 2^(2dk) times the unscaled one, is beyond the
        # float range, and reads inf or 0.0
        assert scaled.determinant == (np.inf if k > 0 else 0.0)
        assert np.array_equal(bits(rmd(np.ldexp(pts, k), scaled)), bits(rmd(pts, fit)))

    @pytest.mark.parametrize("scale", [1e-100, 1e-80, 1e-60, 1e60, 1e150])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_decimal_scales_keep_the_subset(self, d, scale):
        pts = np.random.default_rng(60 + d).standard_t(df=3, size=(60, d))
        assert np.array_equal(mcd_fit(pts * scale, rng_seed=1).subset, mcd_fit(pts, rng_seed=1).subset)


# prints a digest of the bits of mcd_fit and rmd on the features saved at each path
KERNEL_BITS = """
import hashlib, sys
import numpy as np
from dirout.robust import mcd_fit, rmd
digest = hashlib.sha256()
for path in sys.argv[1:]:
    pts = np.load(path)
    fit = mcd_fit(pts, rng_seed=3)
    for part in (fit.subset, fit.location, fit.scatter, np.float64(fit.determinant), rmd(pts, fit)):
        digest.update(np.ascontiguousarray(part).tobytes())
print(digest.hexdigest())
"""


def test_bits_do_not_depend_on_the_blas_kernel(tmp_path):
    """No BLAS or LAPACK call runs in a fit at d <= 4: OpenBLAS's kernels,
    chosen by ``OPENBLAS_CORETYPE`` in a subprocess, give the same bits."""
    paths = []
    for d in (2, 3, 4):
        paths.append(tmp_path / f"features{d}.npy")
        np.save(paths[-1], np.random.default_rng(70 + d).standard_t(df=3, size=(100, d)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(robust.__file__).parents[1])

    def digest(**coretype):
        done = subprocess.run([sys.executable, "-c", KERNEL_BITS, *map(str, paths)], env={**env, **coretype},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    want = digest()
    for core in ("Haswell", "Sandybridge"):
        assert digest(OPENBLAS_CORETYPE=core) == want, core


# prints the minor page faults per round of the 8 RMD fits of the univariate
# benchmark datasets, over 10 rounds after 3 warm ones
FAULTS_PER_ROUND = """
import resource
import numpy as np
from dirout.outlyingness import reference_frame, summarize_values
from dirout.robust import mcd_fit
from dirout.simulate import UNIVARIATE, GeneratorSpec, generate
features = []
for dataset in UNIVARIATE:
    for cls, seed in ((0, 2024), (1, 402)):
        frame = reference_frame(generate(GeneratorSpec(dataset, cls, 100, seed=seed)))
        summaries = summarize_values(frame.values, frame)
        features.append(np.hstack([summaries.mo, summaries.vo[:, None]]))
def fits():
    for pts in features:
        mcd_fit(pts, rng_seed=1)
for _ in range(3):
    fits()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    fits()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's page faults on Linux")
def test_fits_do_not_page_fault_in_steady_state():
    """Each c-step takes its distances and selection from one workspace, so
    repeated fits reuse heap pages instead of faulting them back in: fewer
    than 100 minor faults per round of 8 fits, against about 3,600 with
    separate temporaries."""
    if any(name.startswith("MALLOC_") for name in os.environ):
        pytest.skip("an allocator variable is set")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(robust.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_ROUND], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = float(done.stdout)
    print(f"minor page faults per round of 8 fits: {faults}")
    assert faults < 100


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

    @pytest.mark.parametrize("bad", [-1, -30, 30, 31])
    def test_rejects_indices_outside_the_sample(self, bad):
        pts = np.random.default_rng(13).normal(size=(30, 2))
        subsets = np.array([[3, 7, 11], [4, bad, 0]])
        message = f"subset indices must lie in [0, 30), got {min(bad, 0)} to {max(bad, 11)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            c_step(pts, subsets, 16)

    def test_exact_fit_marker_is_not_reused_as_an_index(self):
        # three equal points: an exact fit, whose new subset row is -1; that
        # row fed back used to fit points n - 1, 0 and 1 without a word
        pts = np.random.default_rng(14).normal(size=(30, 2))
        pts[[0, 1, 2]] = pts[0]
        new_subsets, _, _, det = c_step(pts, np.array([[0, 1, 2]]), 3)
        assert det[0] == 0.0 and np.all(new_subsets == -1)
        with pytest.raises(ValueError, match=r"^subset indices must lie in \[0, 30\), got -1 to -1$"):
            c_step(pts, new_subsets, 3)

    @pytest.mark.parametrize("shape", [(16,), (2, 3, 16), ()])
    def test_rejects_subsets_that_are_not_a_stack(self, shape):
        pts = np.random.default_rng(15).normal(size=(30, 2))
        subsets = np.arange(int(np.prod(shape))).reshape(shape)
        message = (f"subsets must be an (S, k) stack of index rows, got shape {shape}; "
                   "pass one subset as subset[None]")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            c_step(pts, subsets, 16)

    @pytest.mark.parametrize("subsets, dtype", [
        ([[True, False, True, True]], "bool"),  # bool rows would be taken as indices 0 and 1
        ([[0.0, 5.0, 9.0]], "float64"),  # numpy would raise TypeError
        ([["0", "5", "9"]], "<U1"),
    ])
    def test_rejects_subsets_that_are_not_integers(self, subsets, dtype):
        pts = np.random.default_rng(17).normal(size=(30, 2))
        message = f"subsets must hold integer indices, got dtype {dtype}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            c_step(pts, subsets, 16)

    @pytest.mark.parametrize("subsets", [
        [[3, 3, 5, 7]],
        [[7, 3, 5, 3]],
        [[0, 1, 2, 4], [9, 2, 9, 4]],
        [[2, 2, 2, 2]],
    ])
    def test_rejects_a_row_that_repeats_an_index(self, subsets):
        # a repeated index would weight its point twice, as in a multiset
        pts = np.random.default_rng(18).normal(size=(30, 2))
        with pytest.raises(ValueError, match="^a subset row lists an index more than once$"):
            c_step(pts, np.array(subsets, dtype=np.int32), 16)

    def test_takes_unsigned_indices(self):
        pts = np.random.default_rng(18).normal(size=(30, 2))
        subsets = np.array([[4, 0, 2, 1]])
        assert_same_step(c_step(pts, subsets.astype(np.uint16), 16), c_step(pts, subsets, 16))

    @pytest.mark.parametrize("h", [0, -1, 31, 100])
    def test_rejects_h_outside_the_sample(self, h):
        pts = np.random.default_rng(16).normal(size=(30, 2))
        with pytest.raises(ValueError, match=f"^h must satisfy 1 <= h <= 30, got {h}$"):
            c_step(pts, np.array([[0, 5, 9]]), h)
        # the bounds themselves are steps
        for h in (1, 30):
            assert c_step(pts, np.array([[0, 5, 9]]), h)[0].shape == (1, h)


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


COLLIDING_KEYS = pytest.mark.parametrize(
    "keys",
    [lambda rows: np.zeros(len(rows), dtype=np.int64), lambda rows: rows.sum(axis=1)],
    ids=["all keys equal", "sum of indices"],
)


def fit_case(case):
    """The points of a named FAST-MCD case."""
    rng = np.random.default_rng(21)
    return {
        "data 1": lambda: rmd_features(1, False, 0, 2024),
        "data 1c": lambda: rmd_features(1, True, 1, 2024),
        "cauchy": lambda: np.random.default_rng(4).standard_t(df=1, size=(200, 3)),
        "duplicated": lambda: np.vstack([np.repeat(rng.normal(size=(6, 3)), 6, axis=0),
                                         rng.normal(size=(4, 3))]),
    }[case]()


class TestRepeatedRows:
    """Every repeat of a row in a stack gets the bits of its row's one-row
    call; the screening steps and fits each distinct subset once, grouping
    rows by comparing them element by element, so keys that collide cost
    only repeats, and the grouping adds no c-step."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        extra=st.integers(0, 30),
        n_rows=st.integers(1, 6),
        n_repeats=st.integers(1, 30),
        sort=st.booleans(),
        decimals=st.sampled_from([0, 1, None]),
    )
    # whole numbers at d = 1 and k = 2: many rows are exact fits
    @example(seed=5, d=1, extra=12, n_rows=6, n_repeats=30, sort=False, decimals=0)
    def test_repeats_equal_one_row_calls(self, seed, d, extra, n_rows, n_repeats, sort, decimals):
        rng = np.random.default_rng(seed)
        n = d + 2 + extra
        pts = rng.standard_t(df=3, size=(n, d))
        if decimals is not None:
            pts = np.round(pts, decimals)  # duplicates and exact fits
        h = int(rng.integers(d + 1, n + 1))
        k = int(rng.choice([d + 1, h, n]))
        rows = np.array([rng.choice(n, size=k, replace=False) for _ in range(n_rows)])
        if sort:
            rows = np.sort(rows, axis=1)
        stack = rows[rng.integers(n_rows, size=n_repeats)]
        stacked = c_step(pts, stack, h)
        for i, row in enumerate(stack):
            one_row = [part[0] for part in c_step(pts, row[None], h)]
            assert_same_step([part[i] for part in stacked], one_row)
            # the set decides, not the order its indices are listed in
            assert_same_step(one_row, [part[0] for part in c_step(pts, np.sort(row)[None], h)])

    def test_exact_fit_repeats_and_permutations(self):
        # points 0-5 coincide: rows drawn from them are exact fits, listed
        # repeated, permuted and interleaved with regular rows
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(30, 2))
        pts[:6] = pts[0]
        stack = np.array([[0, 1, 2], [7, 9, 3], [0, 1, 2], [2, 1, 0], [7, 9, 3], [3, 4, 5], [0, 1, 2]])
        new_subsets, _, _, det = stacked = c_step(pts, stack, 16)
        exact = np.array([True, False, True, True, False, True, True])
        assert np.array_equal(det <= 0.0, exact)
        assert np.all(new_subsets[exact] == -1) and np.all(new_subsets[~exact] >= 0)
        for i, row in enumerate(stack):
            assert_same_step([part[i] for part in stacked], [part[0] for part in c_step(pts, row[None], 16)])

    @pytest.mark.parametrize("dataset, derivatives", [(1, False), (3, False), (1, True)])
    def test_screen_fits_each_repeated_subset_alike(self, dataset, derivatives):
        pts = rmd_features(dataset, derivatives, 0, 2024)
        h = default_h(*pts.shape)
        subsets, dets = _screen(pts, h, 2024)
        # the screened subsets repeat, so the final fits take the grouped path
        assert len(np.unique(subsets, axis=0)) < len(subsets) // 2
        for subset, det in zip(subsets, dets):
            assert np.array_equal(bits(det), bits(robust._subset_fits(pts, subset[None])[2][0]))

    @COLLIDING_KEYS
    def test_rows_sharing_a_key_are_computed_apart(self, keys, monkeypatch):
        # the sum of indices is the same for a row and its permutations, and
        # for [0, 5, 7] and [1, 4, 7]
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(30, 2))
        pts[20:23] = pts[20]  # [20, 21, 22] is an exact fit
        rows = np.array([[0, 5, 7], [7, 5, 0], [1, 4, 7], [20, 21, 22], [12, 2, 29], [0, 5, 7]])
        stack = rows[[0, 1, 2, 0, 3, 4, 1, 5, 3, 2, 2, 0]]
        want = c_step(pts, stack, 16)
        monkeypatch.setattr(robust, "_row_keys", keys)
        first, inverse = robust._distinct_rows(stack)
        assert np.array_equal(stack[first][inverse], stack)
        for i, j in itertools.combinations(range(len(stack)), 2):
            if inverse[i] == inverse[j]:
                assert np.array_equal(stack[i], stack[j])
        # rows 0, 1 and 2 are distinct and collide under both keys
        assert len({inverse[0], inverse[1], inverse[2]}) == 3
        assert_same_step(c_step(pts, stack, 16), want)
        for i, row in enumerate(stack):
            assert_same_step([part[i] for part in want], [part[0] for part in c_step(pts, row[None], 16)])

    @COLLIDING_KEYS
    @pytest.mark.parametrize("case", ["data 1", "duplicated"])
    def test_screen_and_fit_keep_their_bits_when_keys_collide(self, case, keys, monkeypatch):
        pts = fit_case(case)
        h = default_h(*pts.shape)
        want_subsets, want_dets = _screen(pts, h, 4)
        want = mcd_fit(pts, rng_seed=4)
        monkeypatch.setattr(robust, "_row_keys", keys)
        subsets, dets = _screen(pts, h, 4)
        assert np.array_equal(subsets, want_subsets)
        assert np.array_equal(bits(dets), bits(want_dets))
        assert_same_fit(mcd_fit(pts, rng_seed=4), want)

    @pytest.mark.parametrize(
        "case, calls",
        [("data 1", 4), ("data 1c", 4), ("cauchy", 5), ("duplicated", 8)],
    )
    def test_fit_makes_as_many_c_steps(self, case, calls, monkeypatch):
        # the counts of the fit before the grouping: the grouping makes no
        # c_step call of its own, which a counting wrapper of the public name
        # (as a tracer installs) would see
        pts = fit_case(case)
        want = mcd_fit(pts, rng_seed=4)
        made = []
        step = robust.c_step

        def counted(*args):
            made.append(args[1].shape)
            return step(*args)

        monkeypatch.setattr(robust, "c_step", counted)
        assert_same_fit(mcd_fit(pts, rng_seed=4), want)
        assert len(made) == calls
        if case == "data 1":
            # one elemental step, then the screening steps: their 500 starts
            # repeat, and each distinct subset reaches c_step once
            screened = made[1:1 + robust.SCREEN_STEPS]
            assert [k for _, k in screened] == [default_h(*pts.shape)] * robust.SCREEN_STEPS
            assert all(rows < robust.N_STARTS for rows, _ in screened)


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

    def test_the_best_fit_comes_from_the_seventh_candidate(self):
        # heavy-tailed points whose minimum-determinant subset is reached
        # only from the 7th of the 10 best screened candidates; the best of
        # the first five iterates to a determinant 0.14% higher
        pts = np.random.default_rng(6).standard_t(df=2, size=(100, 2))
        h = default_h(100, 2)
        subsets, dets = _screen(pts, h, 6)
        kept = subsets[np.argsort(dets, kind="stable")[:10]]
        subsets, _, _, dets = robust._iterate(pts, kept, h, robust.MAX_FULL_STEPS)
        assert np.argmin(dets) == 6  # the first of the smallest
        fit = mcd_fit(pts, rng_seed=6)
        assert np.array_equal(fit.subset, subsets[6])
        assert_same_as_oracle(pts, seed=6)

    def test_starts_past_the_250th_find_a_lower_determinant(self, monkeypatch):
        # heavy-tailed points on which the 500 starts reach a subset whose
        # determinant is 1.3% below the best that their first 250 reach
        pts = np.random.default_rng(8).standard_t(df=2, size=(60, 3))
        fit = mcd_fit(pts, rng_seed=8)
        monkeypatch.setattr(robust, "N_STARTS", 250)
        assert mcd_fit(pts, rng_seed=8).determinant > 1.01 * fit.determinant

    def test_a_fit_that_takes_more_than_ten_full_steps(self):
        # on a geometric sequence a c-step moves a window of 10 points down
        # by one point, and a distant, evenly spaced cluster takes most of
        # the elemental starts; the best screened candidate is the window
        # from point 43, so the fit reaches the 10 smallest points, the exact
        # minimum, only in its 43rd full step
        pts = np.concatenate([1.1 ** np.arange(200.0), 1e10 + 1.25e6 * np.arange(800.0)])[:, None]
        h = 10
        subsets, dets = _screen(pts, h, 0)
        assert subsets[np.argmin(dets)].min() == 43
        fit = mcd_fit(pts, h, rng_seed=0)
        assert np.array_equal(fit.subset, np.arange(h))

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

    def test_a_determinant_fall_just_above_the_stopping_tolerance(self):
        # a core of 19 points, then a = 1, b = a - 1e-10 and e on the left;
        # the start {core, a} steps to {core, b}, whose variance is lower by
        # a relative 7e-11, between DET_RTOL = 1e-12 and 1e-9; that step
        # moves the mean left by 1e-10 / 20, which brings e, placed midway
        # in the window it opens, nearer than b, so the row must step on
        k = 20
        a = 1.0
        b = a - 1e-10
        e = -(b - (a + b) / k)
        pts = np.concatenate([np.linspace(-0.5, 0.5, k - 1), [a, b, e]])[:, None]
        core = np.arange(k - 1)
        start, with_b, with_e = (np.append(core, i)[None] for i in (k - 1, k, k + 1))
        first, _, _, det_start = c_step(pts, start, k)
        second, _, _, det_b = c_step(pts, first, k)
        assert np.array_equal(first, with_b) and np.array_equal(second, with_e)
        assert 1e-12 < (det_start[0] - det_b[0]) / det_start[0] < 1e-9
        subsets, _, _, dets = robust._iterate(pts, start, k, robust.MAX_FULL_STEPS)
        assert np.array_equal(subsets, with_e)
        assert dets[0] == c_step(pts, with_e, k)[3][0] < det_b[0]


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
            # the layout c_step passes: (d, S, n) differences, (d, d, S, 1) inverses
            got = quadratic_forms(pts.T[:, None, :] - loc.T[:, :, None],
                                  inv.transpose(1, 2, 0)[..., None])
            assert np.array_equal(bits(got), bits(want))

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
        assert np.array_equal(_nearest(d2, h, np.empty_like(d2)), want)

    def test_nearest_counts_each_row(self):
        # h = 2: row 0's h-th smallest is nan, so no entry is at or below
        # it, and row 1 has 4 entries at its cut; the 6 entries at or below
        # the cuts make h per row on the whole, but in neither of the two
        d2 = np.array([[np.nan] * 4, [1.0] * 4, [3.0, 1.0, 2.0, 0.5]])
        assert np.array_equal(_nearest(d2, 2, np.empty_like(d2)), [[0, 1], [0, 1], [1, 3]])


    def test_nearest_sorts_only_the_rows_tied_at_the_cut(self, monkeypatch):
        # h = 2: only row 1 has more than h entries at or below its cut; the
        # other rows take their h entries from the cut alone
        sorted_rows = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            sorted_rows.append(np.shape(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        d2 = np.array([[3.0, 1.0, 2.0, 0.5], [1.0, 1.0, 1.0, 4.0], [0.0, 5.0, 0.25, 6.0]])
        assert np.array_equal(_nearest(d2, 2, np.empty_like(d2)), [[1, 3], [0, 1], [0, 2]])
        assert sorted_rows == [(1, 4)]
        sorted_rows.clear()
        assert np.array_equal(_nearest(d2[[0, 2]], 2, np.empty((2, 4))), [[1, 3], [0, 2]])
        assert sorted_rows == []

class TestCStepLayouts:
    """The c-step gathers and reduces along contiguous axes, and its bits
    still equal the one-subset oracle's whatever the stack size and the
    memory layout of the points."""

    @pytest.mark.parametrize("k, seed", [(8, 0), (9, 3), (16, 5), (17, 2), (51, 0), (100, 0)])
    def test_d1_one_and_two_row_stacks_equal_oracle(self, k, seed):
        # numpy sums a (k, 1) block pairwise and a (k, 2) block one value
        # after another; a one-row stack must take the two-row stack's order
        rng = np.random.default_rng(seed)
        n = 120
        pts = rng.standard_t(df=3, size=(n, 1))
        h = default_h(n, 1)
        subsets = np.array([rng.choice(n, size=k, replace=False) for _ in range(2)])
        for subset in subsets:
            # the data tell the two summation orders apart
            values = pts[np.sort(subset), 0]
            assert np.add.accumulate(values)[-1] != np.add.reduce(values)
        stacked = c_step(pts, subsets, h)
        for i, subset in enumerate(subsets):
            one_row = [part[0] for part in c_step(pts, subset[None], h)]
            assert_same_step([part[i] for part in stacked], one_row)
            assert_same_step(one_row, [np.asarray(part) for part in oracles.c_step(pts, subset, h)])

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_point_layouts_give_the_same_bits(self, d):
        rng = np.random.default_rng(30 + d)
        n = 60
        pts = rng.standard_t(df=3, size=(n, d))
        wide = rng.normal(size=(n, d + 3))
        wide[:, 1:d + 1] = pts
        layouts = {"fortran": np.asfortranarray(pts), "column slice": wide[:, 1:d + 1]}
        assert layouts["fortran"].flags.f_contiguous and not layouts["column slice"].flags.c_contiguous
        h = default_h(n, d)
        stacks = [np.array([rng.choice(n, size=k, replace=False) for _ in range(s)])
                  for k, s in ((h, 1), (h, 7), (d + 1, 40), (n, 2))]
        for name, layout in layouts.items():
            assert np.array_equal(layout, pts), name
            for subsets in stacks:
                assert_same_step(c_step(layout, subsets, h), c_step(pts, subsets, h))
            assert_same_fit(mcd_fit(layout, rng_seed=5), mcd_fit(pts, rng_seed=5))


def assert_same_fit(fit, want):
    assert np.array_equal(fit.subset.view(np.int64), want.subset.view(np.int64))
    for name in ("location", "scatter", "determinant"):
        assert np.array_equal(bits(getattr(fit, name)), bits(getattr(want, name))), name
    assert (fit.consistency_factor, fit.n) == (want.consistency_factor, want.n)


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
        # at h = d + 1 of the large n the Wilson-Hilferty start is clamped at
        # 1e-3; a Newton step from it reaches x <= 0 at n = 11,495 and d = 3,
        # and lands where the density underflows to 0 at d = 4 from
        # n = 160,350 and at d = 5-8 and n = 10^9
        for n in [*range(d + 2, d + 12), *range(d + 12, 1201, 97), 1200, 11495, 160350, 10**6, 10**9]:
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
    @pytest.mark.parametrize("shape", [(30, 1), (30, 3), (30,), (2, 30, 2), ()])
    def test_rejects_points_of_another_shape(self, shape):
        # (30, 1) points broadcast against a d = 2 fit to 30 distances
        fit = mcd_fit(np.random.default_rng(13).normal(size=(25, 2)), rng_seed=14)
        points = np.ones(shape)
        message = f"points must be (N, 2) for this fit, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rmd(points, fit)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, value):
        fit = mcd_fit(np.random.default_rng(13).normal(size=(25, 2)), rng_seed=14)
        points = np.zeros((5, 2))
        points[3, 1] = value
        with pytest.raises(ValueError, match="^points must be finite$"):
            rmd(points, fit)

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
