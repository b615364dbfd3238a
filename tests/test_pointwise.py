import numpy as np
import pytest

from dirout.classify import ClassifierConfig, predict, predict_batch, train
from dirout.curves import Curve, FunctionalGroup, Grid
from dirout.errors import ConvergenceError, SingularScatterError
from dirout.outlyingness import reference_frame
from dirout.pointwise import geometric_medians_batch
from oracles import geometric_median

M = 5


def grid(m=M):
    return Grid(np.linspace(0.0, 1.0, m))


def cloud_group(cloud, label="g"):
    """A group whose curves are the (n, d) cloud's points, constant in time."""
    pts = np.asarray(cloud, dtype=float).reshape(len(cloud), -1)
    return FunctionalGroup.from_values(label, np.repeat(pts[:, None, :], M, axis=1), grid())


def depth(method, x, cloud, config=None):
    """The FM1 or FM2 score of the constant curve x within the cloud's group:
    its point-wise depth, since the grid weights sum to one."""
    grp = cloud_group(cloud)
    model = train([grp, cloud_group(grp.values[:, 0] + 1.0, "other")], method, config)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return predict(model, Curve(np.tile(x, (M, 1)), grp.grid)).scores[0]


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
        queries = [Curve(np.tile(rng.normal(scale=5, size=2), (M, 1)), grid()) for _ in range(50)]
        for pred in predict_batch(train(groups, "FM2"), queries):
            assert np.all((0.0 < pred.scores) & (pred.scores <= 1.0))

    def test_zero_scatter_raises(self):
        grp = cloud_group(np.zeros((5, 2)))
        with pytest.raises(SingularScatterError):
            reference_frame(grp)
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
    """FM1's point-wise random Tukey depth over ``tukey_n_dirs`` directions."""

    def test_1d_matches_exact(self):
        cloud = np.array([0.5, 1.0, 2.0, 7.0])
        config = ClassifierConfig(tukey_n_dirs=17)
        for x in (0.0, 1.0, 3.0):
            exact = count_depth(x, cloud)
            assert depth("FM1", x, cloud, config) == pytest.approx(exact, abs=1e-12)

    def test_identical_points_give_full_depth(self):
        config = ClassifierConfig(tukey_n_dirs=50)
        assert depth("FM1", [1.0, 1.0], np.ones((6, 2)), config) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_cross(self):
        # exhaustive sweep at 1-degree steps confirms the center's depth is 1/2
        cloud = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        angles = np.deg2rad(np.arange(0.5, 180.0, 1.0))
        sweep = min(count_depth(0.0, cloud @ np.array([np.cos(a), np.sin(a)])) for a in angles)
        assert sweep == 0.5
        config = ClassifierConfig(tukey_n_dirs=500)
        assert depth("FM1", [0.0, 0.0], cloud, config) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_direction_count(self):
        # the first k seeded directions are shared, so each point-wise minimum
        # and hence the integrated depth can only fall as k grows
        rng = np.random.default_rng(6)
        groups = [FunctionalGroup.from_values(k, rng.normal(size=(40, M, 3)), grid()) for k in "ab"]
        x = Curve(rng.normal(size=(M, 3)), grid())
        models = [
            train(groups, "FM1", ClassifierConfig(tukey_n_dirs=k), rng_seed=7)
            for k in (1, 5, 20, 100, 400)
        ]
        for small, large in zip(models, models[1:]):
            k = small.state[0].shape[0]
            assert np.array_equal(large.state[0][:k], small.state[0])
        depths = [predict(model, x).scores[0] for model in models]
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

    def test_convergence_error_carries_iterate(self):
        rng = np.random.default_rng(10)
        cloud = rng.normal(size=(30, 2))
        with pytest.raises(ConvergenceError) as exc:
            geometric_medians_batch(cloud[:, None, :], tol=0.0, max_iter=3)
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
