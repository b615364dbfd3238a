import math
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dirout import classify, pointwise
from dirout.classify import predict_batch, train
from dirout.curves import FunctionalGroup, Grid
from dirout.errors import ConvergenceError, SingularScatterError
from dirout.outlyingness import reference_frame, squared_mahalanobis
from dirout.pointwise import distances, geometric_medians_batch, pointwise_moments, quadratic_forms
from dirout.simulate import GeneratorSpec, derivative_dataset, generate
import oracles
from oracles import geometric_median
from oracles import geometric_medians_batch as weiszfeld_oracle

M = 5


def grid(m=M):
    return Grid(np.linspace(0.0, 1.0, m))


def cloud_group(cloud, label="g"):
    """A group whose curves are the (n, d) cloud's points, constant in time."""
    pts = np.asarray(cloud, dtype=float).reshape(len(cloud), -1)
    return FunctionalGroup.from_values(label, np.repeat(pts[:, None, :], M, axis=1), grid())


def depth(method, x, cloud):
    """The FM1 or FM2 score of the constant curve x within the cloud's group:
    its point-wise depth, since the grid weights sum to one."""
    grp = cloud_group(cloud)
    model = train([grp, cloud_group(grp.values[:, 0] + 1.0, "other")], method)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return predict_batch(model, cloud_group([x], "x")).scores[0, 0]


def count_depth(x, cloud):
    """Univariate halfspace depth by counting: min(#{c <= x}, #{c >= x}) / n."""
    return min(np.count_nonzero(cloud <= x), np.count_nonzero(cloud >= x)) / len(cloud)


class TestMahalanobisDepth:
    """FM2's point-wise Mahalanobis depth, 1 / (1 + squared distance)."""

    def test_maximal_at_sample_mean(self):
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(30, 3))
        assert depth("FM2", cloud.mean(axis=0), cloud) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_univariate(self):
        # {-1, 0, 1}: mean 0, sample variance 1, so depth(1) = 1/(1+1)
        assert depth("FM2", [1.0], [[-1.0], [0.0], [1.0]]) == pytest.approx(0.5, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = rng.integers(1, 4)
            cloud = rng.normal(size=(25, d))
            x = rng.normal(size=d)
            a = rng.normal(size=(d, d)) + np.eye(d)  # invertible w.h.p.
            b = rng.normal(size=d)
            before = depth("FM2", x, cloud)
            after = depth("FM2", a @ x + b, cloud @ a.T + b)
            assert after == pytest.approx(before, abs=1e-10)

    def test_range(self):
        rng = np.random.default_rng(2)
        groups = [cloud_group(rng.normal(size=(20, 2)), k) for k in "ab"]
        queries = cloud_group([rng.normal(scale=5, size=2) for _ in range(50)], "q")
        scores = predict_batch(train(groups, "FM2"), queries).scores
        assert np.all((0.0 < scores) & (scores <= 1.0))

    def test_zero_scatter_raises(self):
        grp = cloud_group(np.zeros((5, 2)))
        with pytest.raises(SingularScatterError):
            reference_frame(grp).moments
        with pytest.raises(SingularScatterError):
            train([grp, cloud_group(np.ones((5, 2)), "other")], "FM2")


class TestTukeyDepth1d:
    """FM1 for p = 1: exact halfspace depth through the single direction 1."""

    def test_counting(self):
        assert depth("FM1", 2.0, [1.0, 2.0, 3.0]) == pytest.approx(2 / 3, abs=1e-12)
        assert depth("FM1", 1.0, [1.0, 2.0, 3.0]) == pytest.approx(1 / 3, abs=1e-12)

    def test_below_all_points(self):
        assert depth("FM1", -5.0, [1.0, 2.0, 3.0]) == 0.0


class TestRandomTukeyDepth:
    """FM1's point-wise random Tukey depth over ``TUKEY_N_DIRS`` directions."""

    def test_1d_matches_exact(self, monkeypatch):
        monkeypatch.setattr(classify, "TUKEY_N_DIRS", 17)
        cloud = np.array([0.5, 1.0, 2.0, 7.0])
        for x in (0.0, 1.0, 3.0):
            exact = count_depth(x, cloud)
            assert depth("FM1", x, cloud) == pytest.approx(exact, abs=1e-12)

    def test_identical_points_give_full_depth(self, monkeypatch):
        monkeypatch.setattr(classify, "TUKEY_N_DIRS", 50)
        assert depth("FM1", [1.0, 1.0], np.ones((6, 2))) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_cross(self):
        # exhaustive sweep at 1-degree steps confirms the center's depth is 1/2
        cloud = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        angles = np.deg2rad(np.arange(0.5, 180.0, 1.0))
        sweep = min(count_depth(0.0, cloud @ np.array([np.cos(a), np.sin(a)])) for a in angles)
        assert sweep == 0.5
        assert classify.TUKEY_N_DIRS == 500
        assert depth("FM1", [0.0, 0.0], cloud) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_direction_count(self, monkeypatch):
        # the first k seeded directions are shared, so each point-wise minimum
        # and hence the integrated depth can only fall as k grows
        rng = np.random.default_rng(6)
        groups = [FunctionalGroup.from_values(k, rng.normal(size=(40, M, 3)), grid()) for k in "ab"]
        x = FunctionalGroup.from_values("x", rng.normal(size=(1, M, 3)), grid())
        models = []
        for k in (1, 5, 20, 100, 400):
            monkeypatch.setattr(classify, "TUKEY_N_DIRS", k)
            models.append(train(groups, "FM1", rng_seed=7))
        for small, large in zip(models, models[1:]):
            k = small.state[0].shape[0]
            assert np.array_equal(large.state[0][:k], small.state[0])
        depths = [predict_batch(model, x).scores[0, 0] for model in models]
        assert all(a >= b for a, b in zip(depths, depths[1:]))


def median_of(cloud, **kwargs):
    """geometric_medians_batch on one (n, d) cloud."""
    return geometric_medians_batch(np.asarray(cloud, dtype=float)[:, None, :], **kwargs)[0]


class TestGeometricMedian:
    def test_symmetric_four_points(self):
        cloud = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert np.allclose(median_of(cloud), [0.0, 0.0], atol=1e-9)

    def test_univariate_is_sample_median(self):
        assert median_of([[1.0], [2.0], [4.0]]) == pytest.approx(2.0)
        assert median_of([[1.0], [2.0], [4.0], [5.0]]) == pytest.approx(3.0)

    def test_matches_grid_search_oracle(self):
        cloud = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        xs = np.arange(-1.0, 6.0 + 1e-9, 1e-3)
        best = (np.inf, None)
        for lo in range(0, xs.size, 500):  # row-chunked exhaustive search at 1e-3 resolution
            gx, gy = np.meshgrid(xs[lo : lo + 500], xs, indexing="ij")
            obj = np.zeros_like(gx)
            for cx, cy in cloud:
                obj += np.hypot(gx - cx, gy - cy)
            i, j = np.unravel_index(np.argmin(obj), obj.shape)
            if obj[i, j] < best[0]:
                best = (obj[i, j], np.array([gx[i, j], gy[i, j]]))
        assert np.linalg.norm(median_of(cloud) - best[1]) < 1e-2

    def test_similarity_equivariance(self):
        rng = np.random.default_rng(8)
        cloud = rng.normal(size=(15, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        b = rng.normal(size=3)
        med = median_of(cloud)
        med_t = median_of(cloud @ q.T + b)
        assert np.allclose(med_t, q @ med + b, atol=1e-6)

    def test_convergence_error_carries_iterate(self, monkeypatch):
        rng = np.random.default_rng(10)
        cloud = rng.normal(size=(30, 2))
        monkeypatch.setattr(pointwise, "_TOL", 0.0)
        monkeypatch.setattr(pointwise, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as exc:
            geometric_medians_batch(cloud[:, None, :])
        assert exc.value.last_iterate.shape == (1, 2)


class TestGeometricMediansBatch:
    def test_matches_single_cloud_path(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(20, 7, 3))
        batch = geometric_medians_batch(pts)
        for b in range(7):
            single = geometric_median(pts[:, b, :], tol=1e-12, max_iter=2000)
            assert np.allclose(batch[b], single, atol=1e-9)

    def test_snaps_to_vertex_optimum(self):
        # one point at the center of a symmetric ring is the exact median
        angles = np.linspace(0, 2 * np.pi, 9)[:-1]
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        pts = np.vstack([ring, [[0.0, 0.0]]])[:, None, :]
        med = geometric_medians_batch(pts)
        assert np.array_equal(med[0], [0.0, 0.0])

    def test_univariate_reduces_to_median(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(9, 4, 1))
        assert np.array_equal(geometric_medians_batch(pts), np.median(pts, axis=0))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestQuadraticForms:
    """``squared_mahalanobis``, the point-wise layout of the shared kernel,
    keeps the bits of the einsum it replaced."""

    @pytest.mark.parametrize("p", range(1, 8))
    def test_pointwise_layout_equals_einsum_bits(self, p):
        rng = np.random.default_rng(p)
        m = 9
        ref = rng.normal(size=(3 * p + 4, m, p))
        ref[:, 2] = 1.5  # flat grid points: their inverse covariances are 0
        ref[:, 6] = 0.0
        for values in (ref, np.round(ref, 1)):
            moments = pointwise_moments(values, grid(m).weights, "g")
            assert not moments.inv_cov[[2, 6]].any() and moments.inv_cov.any()
            moments = moments._replace(means=np.where(rng.random((m, p)) < 0.3, 0.0, moments.means))
            queries = rng.normal(size=(8, m, p))
            zeros = rng.choice([0.0, -0.0], size=(4, m, p))
            queries = np.concatenate([
                queries, np.round(queries, 0), zeros,
                np.broadcast_to(moments.means, (2, m, p)),
                np.where(rng.random((4, m, p)) < 0.5, zeros, queries[:4]),
            ])
            diff = queries - moments.means[None]
            want = np.einsum("nmi,mij,nmj->nm", diff, moments.inv_cov, diff)
            got = quadratic_forms(diff.transpose(2, 0, 1), moments.inv_cov.transpose(1, 2, 0))
            assert same_bits(got, want)
            maha2 = squared_mahalanobis(queries, moments)
            assert same_bits(maha2, np.maximum(want, 0.0))
            # FM2 sums each row of these distances, which depends on the layout
            assert maha2.shape == (len(queries), m) and maha2.flags.c_contiguous


    @pytest.mark.parametrize("layout", ["c_step", "rmd", "moments"])
    @pytest.mark.parametrize("d", range(1, 5))
    def test_out_buffer_keeps_the_bits(self, d, layout):
        rng = np.random.default_rng(60 + d)
        root = rng.normal(size=(7, d, d))
        mats = root @ root.transpose(0, 2, 1)
        mats[0, 0, 0] = -mats[0, 0, 0]  # a negative inv_00, whose terms can be -0.0
        if layout == "c_step":
            # (d, S, n) differences in a (d + 2, S, n) workspace, (d, d, S, 1) inverses
            work = np.full((d + 2, 7, 30), np.nan)
            pts, loc = rng.normal(size=(30, d)), rng.normal(size=(7, d))
            pts[:3] = loc[0]
            diff = np.subtract(np.ascontiguousarray(pts.T)[:, None, :], loc.T[:, :, None], out=work[:d])
            inv, out = mats.transpose(1, 2, 0)[..., None], work[d:]
        elif layout == "rmd":
            # (d, N) differences, a transposed view, under one (d, d) inverse
            pts = np.round(rng.normal(size=(40, d)), 1)
            diff, inv, out = (pts - pts[0]).T, mats[0], np.full((2, 40), np.nan)
        else:
            # (d, N, m) differences under (d, d, m) inverses, as squared_mahalanobis passes them
            values = rng.normal(size=(6, 7, d))
            values[:, 2] = 0.0
            diff, inv, out = values.transpose(2, 0, 1), mats.transpose(1, 2, 0), np.full((2, 6, 7), np.nan)
        want = quadratic_forms(diff, inv)
        got = quadratic_forms(diff, inv, out=out)
        assert same_bits(got, want) and same_bits(out[0], want)
        assert got.shape == out[0].shape and np.shares_memory(got, out[0])


class TestDistances:
    """From 8 components ``distances`` takes np.linalg.norm of the (n, B, d)
    deviations, copied to C order only when the points are component-major."""

    @pytest.mark.parametrize("d", [8, 9])
    @pytest.mark.parametrize("layout", ["component-major", "c-ordered"])
    def test_many_components_keep_the_bits_of_linalg_norm(self, d, layout):
        rng = np.random.default_rng(d)
        points = rng.normal(size=(30, 12, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        z = points[0].T.copy()  # a point on the cloud of every column
        comps = points.transpose(2, 0, 1)
        if layout == "component-major":
            comps = np.ascontiguousarray(comps)
        want = np.linalg.norm(points - z.T[None], axis=2)
        assert same_bits(distances(comps, z), want)


class TestCovarianceRidge:
    """``pointwise_moments`` adds 1e-10 x trace / p to the diagonal of a
    covariance whose eigenvalue ratio exceeds 1e12, and leaves the others."""

    @pytest.mark.parametrize("ratio,ridged", [(1e11, False), (1e13, True)])
    def test_ridge_only_above_the_ratio_limit(self, ratio, ridged):
        # four points at one grid point: covariance diag(2/3, 2/3 / ratio)
        c = np.sqrt(1.0 / ratio)
        points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, c], [0.0, -c]])
        cov = points.T @ points / 3.0
        assert np.linalg.cond(cov) == pytest.approx(ratio, rel=1e-6)
        if ridged:
            cov += 1e-10 * np.trace(cov) / 2.0 * np.eye(2)
        inv_cov = pointwise_moments(points[:, None, :], np.ones(1), "g").inv_cov[0]
        # the ridge is 5.0e-11 x 2/3 on an eigenvalue of 2/3 / ratio
        assert inv_cov == pytest.approx(np.linalg.inv(cov), rel=1e-9, abs=1e-9)


class TestDetInv:
    """``det_inv``'s cofactor formulas against LAPACK, which computes by LU
    and so rounds differently: the tolerance is 16 d eps cond(A), relative
    to |det A| and to the largest entry of the inverse."""

    @pytest.mark.parametrize("d", range(1, 5))
    def test_spd_stacks_match_lapack(self, d):
        rng = np.random.default_rng(40 + d)
        root = rng.normal(size=(300, d, d + 3)) * 10.0 ** rng.uniform(-3, 3, size=(300, d, 1))
        mats = root @ root.transpose(0, 2, 1)
        det, inv = pointwise.det_inv(mats)
        tol = 16 * d * np.finfo(float).eps * np.linalg.cond(mats)
        want_inv = np.linalg.inv(mats)
        assert np.all(np.abs(det - np.linalg.det(mats)) <= tol * np.abs(det))
        assert np.all(np.abs(inv - want_inv).max(axis=(1, 2)) <= tol * np.abs(want_inv).max(axis=(1, 2)))
        assert np.array_equal(inv, inv.transpose(0, 2, 1))
        # elementwise: a matrix's bits do not depend on the stack it is in
        for i in (0, 7, 299):
            one = pointwise.det_inv(mats[i])
            assert same_bits(one[0], det[i]) and same_bits(one[1], inv[i])

    @pytest.mark.parametrize("d", range(1, 5))
    def test_exactly_singular_input(self, d):
        # integer entries: every product and sum is exact, so the
        # determinant is exactly 0 and the inverse is inf or nan throughout
        rng = np.random.default_rng(50 + d)
        root = rng.integers(-3, 4, size=(20, d, d - 1)).astype(float)
        mats = np.concatenate([root @ root.transpose(0, 2, 1), np.zeros((1, d, d))])
        det, inv = pointwise.det_inv(mats)
        assert np.all(det == 0.0)
        assert not np.isfinite(inv).any()

    @pytest.mark.parametrize("d", [5, 6])
    def test_larger_d_takes_lapack(self, d):
        root = np.random.default_rng(d).normal(size=(10, d, d + 2))
        mats = root @ root.transpose(0, 2, 1)
        mats[3] = 0.0
        det, inv = pointwise.det_inv(mats)
        assert same_bits(det, np.linalg.det(mats))
        regular = np.arange(10) != 3
        assert same_bits(inv[regular], np.linalg.inv(mats[regular])) and np.isnan(inv[3]).all()


def resultant_norms(points, medians):
    """|sum of unit vectors from each median to its cloud's points| per column,
    for columns whose median is not a data point: (n, B, d), (B, d) -> (B',)."""
    u = points - medians[None]
    dist = np.linalg.norm(u, axis=2)
    off_vertex = np.all(dist > 0.0, axis=0)
    u, dist = u[:, off_vertex], dist[:, off_vertex]
    return np.linalg.norm((u / dist[:, :, None]).sum(axis=0), axis=1)


def dataset_values(dataset, cls, n, seed):
    """(n, 50, p) values of one class of a benchmark dataset; "1d" is dataset 1
    with first derivatives."""
    spec = GeneratorSpec(dataset.rstrip("d"), cls, n, seed=seed)
    return (derivative_dataset(spec) if dataset == "1d" else generate(spec)).values


def gaussian_draws(count):
    """(25, 50, 2) N(1, I) clouds; the plain Weiszfeld oracle raises on draw 29."""
    rng = np.random.default_rng(1)
    return [rng.normal(1.0, 1.0, size=(25, 50, 2)) for _ in range(count)]


def ring_with_centre():
    angles = np.linspace(0, 2 * np.pi, 9)[:-1]
    return np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]), [[0.0, 0.0]]])


def doubled_vertex_cloud():
    """The origin twice plus four unit vectors whose resultant has norm sqrt(3):
    the origin is the median only because it counts twice."""
    angles = np.deg2rad([0.0, 60.0, 120.0, 180.0])
    return np.vstack([[[0.0, 0.0], [0.0, 0.0]], np.column_stack([np.cos(angles), np.sin(angles)])])


class TestMedianKernelAgainstWeiszfeldOracle:
    """The kernel skips repeated vertex tests, takes distances by a running sum
    of squares and finishes stalled columns with Newton steps; every median
    the plain Weiszfeld kernel (the oracle) returns must keep its bits."""

    @pytest.mark.parametrize(
        "dataset, n, seeds",
        [("4", 100, (0, 1, 2)), ("4", 1000, (1,)), ("5", 100, (0, 1)), ("6", 100, (0, 1)),
         ("1d", 100, (0, 1)), ("1d", 1000, (2,))],
    )
    def test_benchmark_datasets(self, dataset, n, seeds):
        for seed in seeds:
            for cls in (0, 1):
                values = dataset_values(dataset, cls, n, seed)
                assert same_bits(geometric_medians_batch(values), weiszfeld_oracle(values))

    @pytest.mark.parametrize(
        "cloud",
        [ring_with_centre(), doubled_vertex_cloud(), 3.0 * doubled_vertex_cloud() - 1.0],
        ids=["ring-with-centre", "doubled-vertex", "doubled-vertex-moved"],
    )
    def test_vertex_medians(self, cloud):
        pts = cloud[:, None, :]
        med = geometric_medians_batch(pts)
        assert same_bits(med, weiszfeld_oracle(pts))
        assert any(np.array_equal(med[0], x) for x in cloud)

    def test_start_on_a_point_that_is_not_the_median(self):
        # the first iterate, the mean, is the cloud's first point: that point
        # weighs 0 in the step, and the vertex test rejects it
        cloud = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [-3.0, 0.0]])
        pts = np.stack([cloud, cloud + 1.0], axis=1)
        med = geometric_medians_batch(pts)
        assert same_bits(med, weiszfeld_oracle(pts))
        assert not any(np.array_equal(med[b], x) for b in (0, 1) for x in pts[:, b])

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_random_clouds(self, d):
        # d = 8 takes np.linalg.norm itself: numpy's add.reduce stops summing
        # left to right from 8 components on
        pts = np.random.default_rng(40 + d).normal(size=(60, 20, d))
        assert same_bits(geometric_medians_batch(pts), weiszfeld_oracle(pts))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_shapes(self, d):
        # one or two columns, and point counts on both sides of numpy's
        # 8-term and 128-term pairwise blocks
        rng = np.random.default_rng(60 + d)
        for n, b in ((3, 1), (9, 2), (40, 7), (130, 1), (257, 3), (1000, 1), (1000, 2)):
            pts = rng.normal(size=(n, b, d)) * 10.0 ** rng.uniform(-3.0, 3.0) + rng.normal(size=d)
            assert same_bits(geometric_medians_batch(pts), weiszfeld_oracle(pts)), (n, b)

    @pytest.mark.parametrize("dataset, seed", [("4", 1), ("1d", 2)])
    def test_single_clouds_of_a_thousand_points(self, dataset, seed):
        # numpy sums an (n, 1) column pairwise: the one-cloud weight total
        # must stay pairwise and the weighted sums must stay sequential
        values = dataset_values(dataset, 0, 1000, seed)
        for col in (0, 17, 49):
            pts = np.ascontiguousarray(values[:, col : col + 1])
            assert same_bits(geometric_medians_batch(pts), weiszfeld_oracle(pts)), col

    def test_columns_that_all_snap_return_their_vertices(self):
        # the ring with its centre at five scales and shifts: every column
        # snaps to its centre in the first pass, and the next pass, whose
        # steps are all 0, returns the centres
        ring = ring_with_centre()
        scales = (1e-3, 0.5, 1.0, 7.0, 1e4)
        shifts = ((0.0, 0.0), (1e4, -3.0), (-2.5, 0.75), (1.0, 1.0), (-1e3, 5e2))
        pts = np.stack([scale * ring + shift for scale, shift in zip(scales, shifts)], axis=1)
        med = geometric_medians_batch(pts)
        assert same_bits(med, pts[-1])
        assert same_bits(med, weiszfeld_oracle(pts))

    def test_the_stall_threshold_decides_between_the_iterate_and_an_error(self, monkeypatch):
        # a Gaussian cloud whose median lies 0.1 x scale from its nearest
        # point: no vertex is flagged, and the Weiszfeld steps fall by about
        # 0.6 per iteration, to 1.6e-9 x scale at the 33rd and 0.97e-9 x
        # scale at the 34th; an iterate is returned only after a step of at
        # most 1e-9 x scale
        pts = np.random.default_rng(5).normal(size=(20, 1, 2))
        monkeypatch.setattr(pointwise, "_MAX_ITER", 34)
        assert same_bits(geometric_medians_batch(pts), weiszfeld_oracle(pts, max_iter=34))
        monkeypatch.setattr(pointwise, "_MAX_ITER", 33)
        with pytest.raises(ConvergenceError):
            geometric_medians_batch(pts)
        with pytest.raises(ConvergenceError):
            weiszfeld_oracle(pts, max_iter=33)

    def test_gaussian_draws_and_the_stall_the_oracle_gives_up_on(self):
        # draw 29 has a column whose median lies about 1e-4 from a data point:
        # Weiszfeld crawls there and the oracle raises
        draws = gaussian_draws(30)
        for pts in draws[:29]:
            assert same_bits(geometric_medians_batch(pts), weiszfeld_oracle(pts))
        pts = draws[29]
        with pytest.raises(ConvergenceError):
            weiszfeld_oracle(pts)
        med = geometric_medians_batch(pts)
        assert np.all(resultant_norms(pts, med) <= 1e-9 * pts.shape[0])


class TestMedianVertexTests:
    def test_each_column_vertex_pair_is_tested_once(self, monkeypatch):
        tested = {"kernel": [], "oracle": []}
        kernel_tests, oracle_test = pointwise._vertex_tests, oracles._vertex_is_median

        def counting_kernel(comps, cols, verts, floor, out):
            # the kernel tests a pass's flagged columns of its (d, n, B) block together
            tested["kernel"] += [(comps[:, :, b].T.tobytes(), int(k)) for b, k in zip(cols, verts)]
            return kernel_tests(comps, cols, verts, floor, out)

        def counting_oracle(cloud, k, floor):
            tested["oracle"].append((cloud.tobytes(), k))
            return oracle_test(cloud, k, floor)

        monkeypatch.setattr(pointwise, "_vertex_tests", counting_kernel)
        monkeypatch.setattr(oracles, "_vertex_is_median", counting_oracle)
        values = dataset_values("4", 0, 1000, 1)
        assert same_bits(geometric_medians_batch(values), weiszfeld_oracle(values))
        kernel, oracle = Counter(tested["kernel"]), Counter(tested["oracle"])
        assert max(kernel.values()) == 1
        assert set(kernel) == set(oracle)  # the same pairs decided
        assert sum(oracle.values()) > 10 * len(kernel)

    def test_batched_tests_decide_as_the_one_cloud_test(self):
        # Gaussian, integer-valued and repeated-point clouds; one column
        # tested alone and all of a block's columns tested together
        rng = np.random.default_rng(3)
        decided = snapped = 0
        for trial in range(120):
            n, b, d = int(rng.integers(3, 300)), int(rng.integers(1, 7)), int(rng.integers(2, 5))
            pts = rng.normal(size=(n, b, d))
            if trial % 3 == 1:
                pts = np.round(pts)
            elif trial % 3 == 2:
                pts[: n // 3] = pts[0]
            width = max(b, 2)
            work = np.empty((d + 2, n, width))
            work[:d, :, :b] = pts.transpose(2, 0, 1)
            work[:d, :, b:] = work[:d, :, :1]
            floor = 1e-14 * max(1.0, float(np.abs(pts).max()))
            for cols in (np.arange(1), np.arange(b)):
                verts = rng.integers(0, n, size=len(cols))
                got = pointwise._vertex_tests(work[:d], cols, verts, floor, out=work[d:])
                want = [oracles._vertex_is_median(pts[:, c, :], int(k), floor) for c, k in zip(cols, verts)]
                assert got.tolist() == want, (trial, cols)
                decided += len(cols)
                snapped += sum(want)
        assert snapped > 10 and decided > 500

    @pytest.mark.parametrize("cloud", [[[0, 0], [2, 5], [-6, -15], [-5, 2]], [[0, 0], [15, 6], [-5, -2], [-2, 5]]])
    def test_a_resultant_that_rounds_above_the_multiplicity_snaps(self, cloud):
        # the origin, a point, a point opposite it at another radius and one
        # at right angles: the first two unit vectors cancel, so the
        # resultant has norm 1, the origin's multiplicity, and the origin is
        # the median; the two norms round apart (sqrt(261) is not 3
        # sqrt(29) in floats), which leaves the computed norm above 1,
        # within the vertex test's 1e-12; every step is a correctly rounded
        # operation, so the bits do not depend on the machine
        points = np.array(cloud, dtype=float)
        units = [(x / math.sqrt(x * x + y * y), y / math.sqrt(x * x + y * y)) for x, y in points[1:]]
        rx, ry = sum(u[0] for u in units), sum(u[1] for u in units)
        assert 1.0 < math.sqrt(rx * rx + ry * ry) <= 1.0 + 1e-12
        pts = points[:, None, :]
        med = geometric_medians_batch(pts)
        assert same_bits(med, np.zeros((1, 2)))
        assert same_bits(med, weiszfeld_oracle(pts))

    def test_newton_finish_needs_a_rejected_vertex_and_a_regular_hessian(self):
        pts = gaussian_draws(30)[29][:, 42:43]  # the median lies 1.2e-4 from point 8
        with pytest.raises(ConvergenceError) as exc:
            weiszfeld_oracle(pts)
        z = exc.value.last_iterate
        scale = float(np.abs(pts).max())
        args = (1e-14 * scale, 1e-3 * scale, 1e-12 * scale)
        rejected = np.zeros((25, 1), dtype=bool)
        assert pointwise._newton_finish(pts, z, np.array([0]), rejected, *args) is None
        rejected[8] = True
        med = pointwise._newton_finish(pts, z, np.array([0]), rejected, *args)
        assert resultant_norms(pts, med) <= 1e-12 * 25
        # on a line the Hessian has a zero eigenvalue across it
        line = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [7.0, 0.0], [20.0, 0.0]])[:, None, :]
        near = np.array([[3.0001, 0.0]])
        args = (1e-13, 0.02, 1e-11)
        rejected = np.ones((5, 1), dtype=bool)
        assert pointwise._newton_finish(line, near, np.array([0]), rejected, *args) is None


# prints the minor page faults per call of geometric_medians_batch on one
# dataset-4 group of 1,000 curves, (1000, 50, 2), over 10 calls after 3 warm ones
FAULTS_PER_MEDIAN_CALL = """
import resource
from dirout.pointwise import geometric_medians_batch
from dirout.simulate import GeneratorSpec, generate
values = generate(GeneratorSpec("4", 0, 1000, seed=2024)).values
for _ in range(3):
    geometric_medians_batch(values)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    geometric_medians_batch(values)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's page faults on Linux")
def test_medians_do_not_page_fault_in_steady_state():
    """One workspace holds the component-major points, the distances and the
    term, and the vertex tests take their distances from it, so repeated
    calls reuse heap pages instead of faulting them back in: fewer than 50
    minor faults per call, against about 360 with separate temporaries."""
    if any(name.startswith("MALLOC_") for name in os.environ):
        pytest.skip("an allocator variable is set")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(pointwise.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_MEDIAN_CALL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = float(done.stdout)
    print(f"minor page faults per median call: {faults}")
    assert faults < 50
