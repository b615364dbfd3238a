import numpy as np
import pytest

from dirout import curves
from dirout.curves import Curve, FunctionalGroup, Grid
from dirout.errors import SingularScatterError
from dirout.experiment import emit_diagnostics
from dirout.outlyingness import (
    check_transformation_invariance,
    pointwise_outlyingness,
    reference_frame,
    summarize,
    summarize_values,
)
from dirout.pointwise import geometric_medians_batch
from oracles import mahalanobis_depth


def uniform_grid(m=10):
    return Grid(np.linspace(0.0, 1.0, m))


def random_group(rng, n=15, m=10, p=2, label="ref"):
    base = rng.normal(size=(n, 1, p))
    wiggle = rng.normal(scale=0.6, size=(n, m, p))
    return FunctionalGroup.from_values(label, base + wiggle, uniform_grid(m))


def random_orthogonal(rng, p):
    q, r = np.linalg.qr(rng.normal(size=(p, p)))
    return q * np.sign(np.diag(r))


def naive_summary(curve, reference):
    """Independent double-loop recomputation of every summary quantity."""
    grid = reference.grid
    w = grid.weights
    m, p = curve.m, curve.p
    o = np.zeros((m, p))
    for t in range(m):
        cloud = reference.values[:, t, :]
        x = curve.values[t]
        med = geometric_medians_batch(cloud[:, None, :])[0]
        dist = np.linalg.norm(x - med)
        if dist >= 1e-12:
            d = mahalanobis_depth(x, cloud)
            o[t] = (1.0 / d - 1.0) * (x - med) / dist
    mo = np.zeros(p)
    for t in range(m):
        mo += w[t] * o[t]
    fo = vo = 0.0
    fom = np.zeros((p, p))
    vom = np.zeros((p, p))
    for t in range(m):
        fo += w[t] * float(o[t] @ o[t])
        vo += w[t] * float((o[t] - mo) @ (o[t] - mo))
        for i in range(p):
            for j in range(p):
                fom[i, j] += w[t] * o[t][i] * o[t][j]
                vom[i, j] += w[t] * (o[t][i] - mo[i]) * (o[t][j] - mo[j])
    return mo, vo, fo, fom, vom


class TestPointwiseOutlyingness:
    def test_zero_at_the_pointwise_median(self):
        rng = np.random.default_rng(0)
        ref = random_group(rng)
        median_curve = Curve(reference_frame(ref).medians, ref.grid)
        assert np.all(pointwise_outlyingness(median_curve, ref) == 0.0)

    def test_univariate_hand_case(self):
        # cloud {-1, 0, 1} at every grid point: depth(1) = 1/2, direction +1
        g = uniform_grid(5)
        ref = FunctionalGroup.from_values(
            "r", np.repeat(np.array([-1.0, 0.0, 1.0])[:, None, None], 5, axis=1), g
        )
        o = pointwise_outlyingness(Curve(np.ones(5), g), ref)
        assert np.allclose(o, 1.0, atol=1e-12)

    def test_norm_identity_with_pointwise_depth(self):
        rng = np.random.default_rng(1)
        ref = random_group(rng, p=3)
        curve = Curve(rng.normal(size=(10, 3)), ref.grid)
        o = pointwise_outlyingness(curve, ref)
        for t in range(10):
            d = mahalanobis_depth(curve.values[t], ref.values[:, t, :])
            assert np.linalg.norm(o[t]) == pytest.approx(1.0 / d - 1.0, abs=1e-10)

    def test_orthogonal_shift_covariance(self):
        rng = np.random.default_rng(2)
        for p in (2, 3):
            ref = random_group(rng, p=p)
            curve = Curve(rng.normal(size=(10, p)), ref.grid)
            a0 = random_orthogonal(rng, p)
            b = rng.normal(size=p)
            o = pointwise_outlyingness(curve, ref)
            t_curve = Curve(curve.values @ a0.T + b, ref.grid)
            t_ref = FunctionalGroup.from_values("r", ref.values @ a0.T + b, ref.grid)
            o_t = pointwise_outlyingness(t_curve, t_ref)
            assert np.max(np.abs(o_t - o @ a0.T)) < 1e-8


class TestSummaries:
    def test_parallel_curves_have_zero_vo(self):
        g = uniform_grid(20)
        shape = np.sin(2 * np.pi * g.points)
        offsets = np.array([-1.0, -0.4, 0.1, 0.6, 1.3])
        ref = FunctionalGroup.from_values(
            "r", shape[None, :, None] + offsets[:, None, None], g
        )
        target = Curve(shape + 0.9, g)
        s = summarize(target, ref)
        assert s.vo == pytest.approx(0.0, abs=1e-9)
        assert s.fo == pytest.approx(float(s.mo @ s.mo), abs=1e-9)

    def test_median_curve_summary_is_zero(self):
        rng = np.random.default_rng(3)
        ref = random_group(rng)
        s = summarize(Curve(reference_frame(ref).medians, ref.grid), ref)
        assert np.all(s.mo == 0.0) and s.vo == 0.0 and s.fo == 0.0
        assert np.all(s.fom == 0.0) and np.all(s.vom == 0.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        ref = random_group(rng, n=20, m=10, p=2)
        curve = Curve(rng.normal(size=(10, 2)), ref.grid)
        s = summarize(curve, ref)
        mo, vo, fo, fom, vom = naive_summary(curve, ref)
        assert np.allclose(s.mo, mo, atol=1e-10)
        assert s.vo == pytest.approx(vo, abs=1e-10)
        assert s.fo == pytest.approx(fo, abs=1e-10)
        assert np.allclose(s.fom, fom, atol=1e-10)
        assert np.allclose(s.vom, vom, atol=1e-10)

    def test_decomposition_identities_random_pairs(self):
        rng = np.random.default_rng(5)
        for p in (1, 2, 3):
            ref = random_group(rng, n=12, m=15, p=p)
            for _ in range(5):
                curve = Curve(rng.normal(size=(15, p)), ref.grid)
                s = summarize(curve, ref)
                assert s.fo == pytest.approx(float(s.mo @ s.mo) + s.vo, abs=1e-9)
                assert np.max(np.abs(s.fom - np.outer(s.mo, s.mo) - s.vom)) < 1e-9
                assert s.fo == pytest.approx(float(np.trace(s.fom)), abs=1e-9)
                assert s.vo == pytest.approx(float(np.trace(s.vom)), abs=1e-9)

    def test_vom_positive_semidefinite(self):
        rng = np.random.default_rng(6)
        ref = random_group(rng, p=3)
        for _ in range(10):
            curve = Curve(rng.normal(size=(10, 3)), ref.grid)
            vom = summarize(curve, ref).vom
            assert np.linalg.eigvalsh(vom).min() >= -1e-10

    def test_univariate_vom_entry_equals_vo(self):
        rng = np.random.default_rng(7)
        ref = random_group(rng, p=1)
        curve = Curve(rng.normal(size=(10, 1)), ref.grid)
        s = summarize(curve, ref)
        assert s.vom.shape == (1, 1) and s.fom.shape == (1, 1)
        assert s.vom[0, 0] == s.vo

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(8)
        ref = random_group(rng, p=2)
        values = rng.normal(size=(6, 10, 2))
        batch = summarize_values(values, reference_frame(ref))
        for i in range(6):
            s = summarize(Curve(values[i], ref.grid), ref)
            assert np.array_equal(batch.mo[i], s.mo)
            assert batch.vo[i] == s.vo and batch.fo[i] == s.fo


class TestTransformationInvariance:
    def test_identity_transform_deviation_zero(self):
        rng = np.random.default_rng(9)
        ref = random_group(rng, p=2)
        curve = Curve(rng.normal(size=(10, 2)), ref.grid)
        assert check_transformation_invariance(curve, ref, np.eye(2)) == 0.0

    def test_rotation_and_shift(self):
        rng = np.random.default_rng(10)
        for p in (2, 3):
            ref = random_group(rng, p=p)
            curve = Curve(rng.normal(size=(10, p)), ref.grid)
            a0 = random_orthogonal(rng, p)
            dev = check_transformation_invariance(curve, ref, a0, b=rng.normal(size=p))
            assert dev <= 1e-8

    def test_scaling_and_grid_reversal(self):
        rng = np.random.default_rng(11)
        ref = random_group(rng, p=2, m=12)
        curve = Curve(rng.normal(size=(12, 2)), ref.grid)
        a0 = random_orthogonal(rng, 2)
        f = 1.0 + ref.grid.points
        g = np.arange(12)[::-1]
        dev = check_transformation_invariance(curve, ref, a0, b=rng.normal(size=2), f=f, g=g)
        assert dev <= 1e-8

    def test_rejects_non_orthogonal(self):
        rng = np.random.default_rng(12)
        ref = random_group(rng, p=2)
        curve = Curve(rng.normal(size=(10, 2)), ref.grid)
        for bad in (2.0, np.nan):
            with pytest.raises(ValueError, match="a0 must be orthogonal"):
                check_transformation_invariance(curve, ref, np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_nonpositive_scale(self):
        rng = np.random.default_rng(13)
        ref = random_group(rng, p=2)
        curve = Curve(rng.normal(size=(10, 2)), ref.grid)
        for bad in (0.0, -1.0, np.nan, np.inf):
            f = np.ones(10)
            f[3] = bad
            with pytest.raises(ValueError, match="f must be positive"):
                check_transformation_invariance(curve, ref, np.eye(2), f=f)

    def test_rejects_bad_shift_and_permutation(self):
        rng = np.random.default_rng(13)
        ref = random_group(rng, p=2)
        curve = Curve(rng.normal(size=(10, 2)), ref.grid)
        for b in ([0.0, np.inf], [np.nan, 0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="b must be"):
                check_transformation_invariance(curve, ref, np.eye(2), b=b)
        for g in (np.arange(10.0)[::-1], np.arange(9), np.zeros(10, dtype=int)):
            with pytest.raises(ValueError, match="g must be a permutation"):
                check_transformation_invariance(curve, ref, np.eye(2), g=g)


class TestGroupStatistics:
    def test_requires_enough_curves(self):
        g = uniform_grid(5)
        grp = FunctionalGroup.from_values("r", np.random.default_rng(14).normal(size=(3, 5, 2)), g)
        curve = Curve(np.zeros((5, 2)), g)
        for read in (
            lambda: grp.moments,
            lambda: grp.medians,
            lambda: summarize(curve, grp),
            lambda: reference_frame(grp),
        ):
            with pytest.raises(ValueError, match="needs at least p\\+2=4 curves, has 3"):
                read()

    def test_reference_frame_is_the_group(self):
        grp = random_group(np.random.default_rng(15))
        assert reference_frame(grp) is grp
        assert "moments" in vars(grp) and "medians" in vars(grp)

    def test_each_group_computes_its_medians_once(self, monkeypatch, tmp_path):
        calls = []

        def counting(values):
            calls.append(values.shape)
            return geometric_medians_batch(values)

        monkeypatch.setattr(curves, "geometric_medians_batch", counting)
        rng = np.random.default_rng(15)
        grp = random_group(rng)
        curve = Curve(rng.normal(size=(10, 2)), grp.grid)
        for _ in range(2):
            summarize(curve, grp)
            pointwise_outlyingness(curve, grp)
            summarize_values(grp.values, grp)
            emit_diagnostics(grp, grp, tmp_path / "diag.csv")
        assert grp.medians is grp.medians and grp.moments is grp.moments
        assert len(calls) == 1
        # nothing is kept outside the group: a new group of the same values computes anew
        again = FunctionalGroup.from_values(grp.label, grp.values, grp.grid)
        summarize(curve, again)
        assert len(calls) == 2
        assert np.array_equal(again.medians, grp.medians)

    def test_mismatch_raises_before_any_statistic(self, monkeypatch, tmp_path):
        def fail(values):
            raise AssertionError("geometric_medians_batch called")

        monkeypatch.setattr(curves, "geometric_medians_batch", fail)
        rng = np.random.default_rng(17)
        ref = random_group(rng, m=10, p=2)
        other_grid = Curve(rng.normal(size=(11, 2)), uniform_grid(11))
        other_p = Curve(rng.normal(size=(10, 3)), ref.grid)
        for curve in (other_grid, other_p):
            for fn in (summarize, pointwise_outlyingness):
                with pytest.raises(ValueError):
                    fn(curve, ref)
        out = tmp_path / "diag.csv"
        with pytest.raises(ValueError, match="share grid and dimension"):
            emit_diagnostics(random_group(rng, m=10, p=3), ref, out)
        with pytest.raises(ValueError, match="curve_ids length"):
            emit_diagnostics(random_group(rng, m=10, p=2), ref, out, curve_ids=["a"])
        assert not out.exists()

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        ref = random_group(rng, m=10)
        other = Curve(rng.normal(size=(11, 2)), uniform_grid(11))
        with pytest.raises(ValueError):
            summarize(other, ref)


def growth_group(rng, label, n=30, m=12, p=2, shift=0.0):
    """Curves that all start at 0, with scatter growing in t."""
    t = np.linspace(0.0, 1.0, m)
    vals = (shift + rng.normal(size=(n, m, p))) * t[None, :, None]
    return FunctionalGroup.from_values(label, vals, Grid(t))


class TestZeroScatterPoints:
    def test_flat_points_carry_no_weight_and_no_outlyingness(self):
        rng = np.random.default_rng(18)
        ref = growth_group(rng, "ref")
        vals = ref.values.copy()
        vals[:, 5] = 0.1  # one common non-zero value: no scatter, whatever the rounding
        ref = FunctionalGroup.from_values("ref", vals, ref.grid)
        means, inv_cov, w = reference_frame(ref).moments
        flat = np.zeros(ref.grid.m, dtype=bool)
        flat[[0, 5]] = True
        assert np.all(inv_cov[flat] == 0.0) and np.all(w[flat] == 0.0)
        np.testing.assert_allclose(w[~flat], ref.grid.weights[~flat] / ref.grid.weights[~flat].sum())
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

        curve = Curve(rng.normal(size=(ref.grid.m, 2)), ref.grid)
        o = pointwise_outlyingness(curve, ref)
        assert np.all(o[flat] == 0.0) and np.all(np.isfinite(o))
        s = summarize(curve, ref)
        assert s.fo == pytest.approx(np.sum(w * np.einsum("mi,mi->m", o, o)), rel=1e-12)
        assert s.mo == pytest.approx(w @ o, rel=1e-12)

    def test_without_flat_points_the_grid_weights_are_kept(self):
        ref = random_group(np.random.default_rng(19))
        assert reference_frame(ref).moments.weights is ref.grid.weights

    def test_all_points_flat_raises(self):
        grp = FunctionalGroup.from_values("flat", np.full((6, 10, 2), 0.3), uniform_grid())
        with pytest.raises(SingularScatterError, match="every grid point"):
            reference_frame(grp).moments
