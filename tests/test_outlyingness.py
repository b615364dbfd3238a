import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirout import curves, outlyingness
from dirout.curves import FunctionalGroup, Grid
from dirout.errors import SingularScatterError
from dirout.experiment import emit_diagnostics
from dirout.outlyingness import (
    ZERO_DIRECTION_TOL,
    check_transformation_invariance,
    pointwise_outlyingness,
    reference_frame,
    summarize_values,
)
from dirout.pointwise import distances, geometric_medians_batch
from dirout.simulate import GeneratorSpec, generate
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
    """Independent double-loop recomputation of every summary quantity of
    one curve's (m, p) values."""
    grid = reference.grid
    w = grid.weights
    m, p = curve.shape
    o = np.zeros((m, p))
    for t in range(m):
        cloud = reference.values[:, t, :]
        x = curve[t]
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
        median_curve = reference_frame(ref).medians[None]
        assert np.all(pointwise_outlyingness(median_curve, ref) == 0.0)

    def test_univariate_hand_case(self):
        # cloud {-1, 0, 1} at every grid point: depth(1) = 1/2, direction +1
        g = uniform_grid(5)
        ref = FunctionalGroup.from_values(
            "r", np.repeat(np.array([-1.0, 0.0, 1.0])[:, None, None], 5, axis=1), g
        )
        o = pointwise_outlyingness(np.ones((1, 5, 1)), ref)
        assert np.allclose(o, 1.0, atol=1e-12)

    def test_norm_identity_with_pointwise_depth(self):
        rng = np.random.default_rng(1)
        ref = random_group(rng, p=3)
        curve = rng.normal(size=(10, 3))
        o = pointwise_outlyingness(curve[None], ref)[0]
        for t in range(10):
            d = mahalanobis_depth(curve[t], ref.values[:, t, :])
            assert np.linalg.norm(o[t]) == pytest.approx(1.0 / d - 1.0, abs=1e-10)

    def test_orthogonal_shift_covariance(self):
        rng = np.random.default_rng(2)
        for p in (2, 3):
            ref = random_group(rng, p=p)
            curve = rng.normal(size=(10, p))
            a0 = random_orthogonal(rng, p)
            b = rng.normal(size=p)
            o = pointwise_outlyingness(curve[None], ref)[0]
            t_curve = curve @ a0.T + b
            t_ref = FunctionalGroup.from_values("r", ref.values @ a0.T + b, ref.grid)
            o_t = pointwise_outlyingness(t_curve[None], t_ref)[0]
            assert np.max(np.abs(o_t - o @ a0.T)) < 1e-8

    @pytest.mark.parametrize("gap,zero", [(1e-10, False), (1e-13, True)])
    def test_direction_is_dropped_only_below_the_zero_tolerance(self, gap, zero):
        # 1e-12 from the point-wise median: a curve 1e-10 away keeps the
        # direction of its deviation, one 1e-13 away is taken as on it
        rng = np.random.default_rng(3)
        ref = random_group(rng)
        curve = reference_frame(ref).medians + [gap, 0.0]
        o = pointwise_outlyingness(curve[None], ref)[0]
        if zero:
            assert np.all(o == 0.0)
        else:
            maha2 = outlyingness.squared_mahalanobis(curve[None], ref.moments)[0]
            assert np.all(maha2 > 1e-3)
            assert o[:, 0] == pytest.approx(maha2, rel=1e-4) and np.all(np.abs(o[:, 1]) < 1e-4 * maha2)

    @pytest.mark.parametrize("p", range(1, 10))
    def test_distances_keep_the_bits_of_linalg_norm(self, p):
        # the distance to the medians is np.linalg.norm's over the (N, m, p)
        # deviations, for contiguous curves and for a strided view
        rng = np.random.default_rng(p)
        ref = random_group(rng, n=30, p=p)
        wide = rng.normal(size=(40, 10, 2 * p)) * 10.0 ** rng.integers(-3, 4, size=2 * p)
        wide[0, :, :p] = ref.medians
        for values in (np.ascontiguousarray(wide[:, :, :p]), wide[::2, :, ::2]):
            dev = values - ref.medians[None]
            dist = np.linalg.norm(dev, axis=2)
            assert same_bits(distances(values.transpose(2, 0, 1), ref.medians.T), dist)
            unit = dev / np.maximum(dist, ZERO_DIRECTION_TOL)[:, :, None]
            unit[dist < ZERO_DIRECTION_TOL] = 0.0
            expected = outlyingness.squared_mahalanobis(values, ref.moments)[:, :, None] * unit
            assert same_bits(pointwise_outlyingness(values, ref), expected)


class TestSummaries:
    def test_parallel_curves_have_zero_vo(self):
        g = uniform_grid(20)
        shape = np.sin(2 * np.pi * g.points)
        offsets = np.array([-1.0, -0.4, 0.1, 0.6, 1.3])
        ref = FunctionalGroup.from_values(
            "r", shape[None, :, None] + offsets[:, None, None], g
        )
        target = (shape + 0.9)[None, :, None]
        s = summarize_values(target, ref)
        assert s.vo[0] == pytest.approx(0.0, abs=1e-9)
        assert s.fo[0] == pytest.approx(float(s.mo[0] @ s.mo[0]), abs=1e-9)

    def test_median_curve_summary_is_zero(self):
        rng = np.random.default_rng(3)
        ref = random_group(rng)
        s = summarize_values(reference_frame(ref).medians[None], ref)
        assert np.all(s.mo == 0.0) and s.vo[0] == 0.0 and s.fo[0] == 0.0
        assert np.all(s.fom == 0.0) and np.all(s.vom == 0.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        ref = random_group(rng, n=20, m=10, p=2)
        curve = rng.normal(size=(10, 2))
        s = summarize_values(curve[None], ref)
        mo, vo, fo, fom, vom = naive_summary(curve, ref)
        assert np.allclose(s.mo[0], mo, atol=1e-10)
        assert s.vo[0] == pytest.approx(vo, abs=1e-10)
        assert s.fo[0] == pytest.approx(fo, abs=1e-10)
        assert np.allclose(s.fom[0], fom, atol=1e-10)
        assert np.allclose(s.vom[0], vom, atol=1e-10)

    def test_decomposition_identities_random_pairs(self):
        rng = np.random.default_rng(5)
        for p in (1, 2, 3):
            ref = random_group(rng, n=12, m=15, p=p)
            for _ in range(5):
                s = summarize_values(rng.normal(size=(1, 15, p)), ref)
                mo, vo, fo, fom, vom = s.mo[0], s.vo[0], s.fo[0], s.fom[0], s.vom[0]
                assert fo == pytest.approx(float(mo @ mo) + vo, abs=1e-9)
                assert np.max(np.abs(fom - np.outer(mo, mo) - vom)) < 1e-9
                assert fo == pytest.approx(float(np.trace(fom)), abs=1e-9)
                assert vo == pytest.approx(float(np.trace(vom)), abs=1e-9)

    def test_vom_positive_semidefinite(self):
        rng = np.random.default_rng(6)
        ref = random_group(rng, p=3)
        for _ in range(10):
            vom = summarize_values(rng.normal(size=(1, 10, 3)), ref).vom[0]
            assert np.linalg.eigvalsh(vom).min() >= -1e-10

    def test_univariate_vom_entry_equals_vo(self):
        rng = np.random.default_rng(7)
        ref = random_group(rng, p=1)
        s = summarize_values(rng.normal(size=(1, 10, 1)), ref)
        assert s.vom.shape == (1, 1, 1) and s.fom.shape == (1, 1, 1)
        assert s.vom[0, 0, 0] == s.vo[0]

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(8)
        ref = random_group(rng, p=2)
        values = rng.normal(size=(6, 10, 2))
        batch = summarize_values(values, reference_frame(ref))
        for i in range(6):
            s = summarize_values(values[i : i + 1], ref)
            assert np.array_equal(batch.mo[i], s.mo[0])
            assert batch.vo[i] == s.vo[0] and batch.fo[i] == s.fo[0]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestOuterSumsKernel:
    """FOM and VOM come from a fixed-order kernel that keeps the bits of the
    einsum it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 700), m=st.integers(2, 140), p=st.integers(1, 4),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(n=1, m=50, p=2, log_scale=0.0, seed=0)
    @example(n=1000, m=50, p=2, log_scale=0.0, seed=1)
    @example(n=328, m=50, p=3, log_scale=0.0, seed=2)  # a last block of one curve
    def test_bits_of_the_einsum(self, n, m, p, log_scale, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=10.0**log_scale, size=(n, m, p))
        w = rng.random(m) + 0.01
        w /= w.sum()
        assert same_bits(outlyingness._outer_sums(w, a), np.einsum("m,nmi,nmj->nij", w, a, a))

    @pytest.mark.parametrize("n", [1, 3])
    def test_negative_zero_terms_sum_to_positive_zero(self, n):
        # (w a_0) a_1 is -0.0 at every grid point: einsum adds the terms into
        # a zeroed output, so the entry reads +0.0
        a = np.ones((n, 7, 2))
        a[:, :, 0] = -0.0
        w = np.full(7, 1.0 / 7.0)
        out = outlyingness._outer_sums(w, a)
        assert same_bits(out, np.einsum("m,nmi,nmj->nij", w, a, a))
        assert not np.signbit(out[:, 0, 1]).any() and not np.signbit(out[:, 1, 0]).any()

    def test_summaries_keep_the_einsum_bits(self):
        rng = np.random.default_rng(21)
        ref = reference_frame(random_group(rng, n=30, m=12, p=3))
        values = rng.normal(size=(9, 12, 3))
        s = summarize_values(values, ref)
        o = pointwise_outlyingness(values, ref)
        w = ref.moments.weights
        dev = o - s.mo[:, None, :]
        assert same_bits(s.fo, np.einsum("m,nmi,nmi->n", w, o, o))
        assert same_bits(s.fom, np.einsum("m,nmi,nmj->nij", w, o, o))
        assert same_bits(s.vom, np.einsum("m,nmi,nmj->nij", w, dev, dev))


class TestTransformationInvariance:
    def test_identity_transform_deviation_zero(self):
        rng = np.random.default_rng(9)
        ref = random_group(rng, p=2)
        curve = rng.normal(size=(1, 10, 2))
        assert check_transformation_invariance(curve, ref, np.eye(2)) == 0.0

    def test_rotation_and_shift(self):
        rng = np.random.default_rng(10)
        for p in (2, 3):
            ref = random_group(rng, p=p)
            curve = rng.normal(size=(1, 10, p))
            a0 = random_orthogonal(rng, p)
            dev = check_transformation_invariance(curve, ref, a0, b=rng.normal(size=p))
            assert dev <= 1e-8

    def test_scaling_and_grid_reversal(self):
        rng = np.random.default_rng(11)
        ref = random_group(rng, p=2, m=12)
        curve = rng.normal(size=(1, 12, 2))
        a0 = random_orthogonal(rng, 2)
        f = 1.0 + ref.grid.points
        g = np.arange(12)[::-1]
        dev = check_transformation_invariance(curve, ref, a0, b=rng.normal(size=2), f=f, g=g)
        assert dev <= 1e-8

    def test_batch_deviation_is_the_largest_single_one(self):
        rng = np.random.default_rng(54)
        ref = random_group(rng, p=2, m=12)
        values = rng.normal(size=(4, 12, 2))
        a0, b = random_orthogonal(rng, 2), rng.normal(size=2)
        f, g = 1.0 + ref.grid.points, np.arange(12)[::-1]
        singles = [
            check_transformation_invariance(values[i : i + 1], ref, a0, b=b, f=f, g=g)
            for i in range(4)
        ]
        assert check_transformation_invariance(values, ref, a0, b=b, f=f, g=g) == max(singles)
        assert 0.0 < max(singles) <= 1e-8

    def test_rejects_non_orthogonal(self):
        rng = np.random.default_rng(12)
        ref = random_group(rng, p=2)
        curve = rng.normal(size=(1, 10, 2))
        for bad in (2.0, np.nan):
            with pytest.raises(ValueError, match="a0 must be orthogonal"):
                check_transformation_invariance(curve, ref, np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_nonpositive_scale(self):
        rng = np.random.default_rng(13)
        ref = random_group(rng, p=2)
        curve = rng.normal(size=(1, 10, 2))
        for bad in (0.0, -1.0, np.nan, np.inf):
            f = np.ones(10)
            f[3] = bad
            with pytest.raises(ValueError, match="f must be positive"):
                check_transformation_invariance(curve, ref, np.eye(2), f=f)

    def test_rejects_bad_shift_and_permutation(self):
        rng = np.random.default_rng(13)
        ref = random_group(rng, p=2)
        curve = rng.normal(size=(1, 10, 2))
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
        curve = np.zeros((1, 5, 2))
        for read in (
            lambda: grp.moments,
            lambda: grp.medians,
            lambda: summarize_values(curve, grp),
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
        curve = rng.normal(size=(1, 10, 2))
        for _ in range(2):
            summarize_values(curve, grp)
            pointwise_outlyingness(curve, grp)
            summarize_values(grp.values, grp)
            emit_diagnostics(grp, grp, tmp_path / "diag.csv")
        assert grp.medians is grp.medians and grp.moments is grp.moments
        assert len(calls) == 1
        # nothing is kept outside the group: a new group of the same values computes anew
        again = FunctionalGroup.from_values(grp.label, grp.values, grp.grid)
        summarize_values(curve, again)
        assert len(calls) == 2
        assert np.array_equal(again.medians, grp.medians)

    def test_mismatch_raises_before_any_statistic(self, monkeypatch, tmp_path):
        def fail(values):
            raise AssertionError("geometric_medians_batch called")

        monkeypatch.setattr(curves, "geometric_medians_batch", fail)
        rng = np.random.default_rng(17)
        ref = random_group(rng, m=10, p=2)
        other_grid = rng.normal(size=(1, 11, 2))
        other_p = rng.normal(size=(1, 10, 3))
        for curve in (other_grid, other_p):
            for fn in (summarize_values, pointwise_outlyingness):
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
        other = rng.normal(size=(1, 11, 2))
        with pytest.raises(ValueError):
            summarize_values(other, ref)

    def test_values_checked_against_the_reference(self, monkeypatch):
        # a p = 1 batch was broadcast against a p = 2 reference into a VO
        # near 1e9, and a NaN gave NaN summaries; both raise now, before any
        # statistic of the reference is computed
        def fail(*args):
            raise AssertionError("a reference statistic was computed")

        rng = np.random.default_rng(53)
        ref = generate(GeneratorSpec("4", 0, 100, seed=54))
        good = rng.normal(size=(5, 50, 2))
        with_nan, with_inf = good.copy(), good.copy()
        with_nan[2, 7, 1], with_inf[0, 0, 0] = np.nan, -np.inf
        monkeypatch.setattr(curves, "geometric_medians_batch", fail)
        monkeypatch.setattr(curves, "pointwise_moments", fail)
        for values in (good[..., :1], good[:, :49], good[0], good[None]):
            for fn in (summarize_values, pointwise_outlyingness):
                with pytest.raises(ValueError, match=r"expected \(N, 50, 2\) values"):
                    fn(values, ref)
            with pytest.raises(ValueError, match=r"expected \(N, 50, 2\) values"):
                check_transformation_invariance(values, ref, np.eye(2))
        for values in (with_nan, with_inf):
            for fn in (summarize_values, pointwise_outlyingness):
                with pytest.raises(ValueError, match="curve values must be finite"):
                    fn(values, ref)
            with pytest.raises(ValueError, match="curve values must be finite"):
                check_transformation_invariance(values, ref, np.eye(2))
        monkeypatch.undo()
        assert pointwise_outlyingness(good, ref).shape == (5, 50, 2)
        assert np.isfinite(summarize_values(good.tolist(), ref).vo).all()


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

        curve = rng.normal(size=(1, ref.grid.m, 2))
        o = pointwise_outlyingness(curve, ref)[0]
        assert np.all(o[flat] == 0.0) and np.all(np.isfinite(o))
        s = summarize_values(curve, ref)
        assert s.fo[0] == pytest.approx(np.sum(w * np.einsum("mi,mi->m", o, o)), rel=1e-12)
        assert s.mo[0] == pytest.approx(w @ o, rel=1e-12)

    def test_without_flat_points_the_grid_weights_are_kept(self):
        ref = random_group(np.random.default_rng(19))
        assert reference_frame(ref).moments.weights is ref.grid.weights

    def test_all_points_flat_raises(self):
        grp = FunctionalGroup.from_values("flat", np.full((6, 10, 2), 0.3), uniform_grid())
        with pytest.raises(SingularScatterError, match="every grid point"):
            reference_frame(grp).moments
