import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirout import curves
from dirout.classify import (
    _METHODS,
    METHODS,
    ClassifierConfig,
    _fm_project,
    halfspace_counts,
    predict,
    predict_batch,
    train,
)
from dirout.curves import Curve, FunctionalGroup, Grid
from dirout.errors import ConvergenceError, SingularScatterError
from dirout.outlyingness import reference_frame, summarize
from dirout.simulate import (
    DATASETS,
    UNIVARIATE,
    GeneratorSpec,
    default_grid,
    derivative_dataset,
    generate,
)
from oracles import fm1_scores, fm_project, mahalanobis_depth


def uniform_grid(m=10):
    return Grid(np.linspace(0.0, 1.0, m))


def gaussian_group(rng, label, n=20, m=10, p=1, shift=0.0):
    vals = shift + rng.normal(size=(n, m, p))
    return FunctionalGroup.from_values(label, vals, uniform_grid(m))


def group_score(grp, method, x0, config=None, rng_seed=0):
    """The method's score of x0 within grp, trained against a shifted copy."""
    other = FunctionalGroup.from_values("other", grp.values + 1.0, grp.grid)
    return predict(train([grp, other], method, config, rng_seed), x0).scores[0]


class TestTrain:
    @pytest.mark.parametrize("field", ["n_projections", "tukey_n_dirs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_config_rejects_counts_below_one(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1"):
            ClassifierConfig(**{field: value})

    def test_identical_groups_tie_to_first_label(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(15, 10, 1))
        g1 = FunctionalGroup.from_values("a", vals, uniform_grid())
        g2 = FunctionalGroup.from_values("b", vals.copy(), uniform_grid())
        x0 = Curve(rng.normal(size=(10, 1)), uniform_grid())
        for method in ("RMD", "VOM", "FM1", "FM2", "RP1", "RP2"):
            model = train([g1, g2], method, rng_seed=1)
            pred = predict(model, x0)
            assert pred.scores[0] == pred.scores[1]
            assert pred.label == "a"

    def test_rmd_smoke_on_gaussian_process_groups(self):
        g0 = generate(GeneratorSpec("4", 0, 30, seed=2))
        g1 = generate(GeneratorSpec("4", 1, 30, seed=3))
        model = train([g0, g1], "RMD", rng_seed=4)
        _, fits = model.state
        for fit in fits:
            assert np.isfinite(fit.determinant) and fit.determinant > 0

    def test_rp_directions_deterministic(self):
        rng = np.random.default_rng(5)
        g0 = gaussian_group(rng, "0")
        g1 = gaussian_group(rng, "1", shift=1.0)
        m1 = train([g0, g1], "RP1", rng_seed=6)
        m2 = train([g0, g1], "RP1", rng_seed=6)
        assert np.array_equal(m1.state[0], m2.state[0])

    def test_rejects_single_group_and_unknown_method(self):
        rng = np.random.default_rng(7)
        g0 = gaussian_group(rng, "0")
        with pytest.raises(ValueError):
            train([g0], "VOM")
        g1 = gaussian_group(rng, "1")
        with pytest.raises(ValueError):
            train([g0, g1], "SVM")

    def test_rmd_needs_enough_curves(self):
        rng = np.random.default_rng(8)
        g0 = gaussian_group(rng, "0", n=4, p=2)
        g1 = gaussian_group(rng, "1", n=4, p=2)
        with pytest.raises(ValueError):
            train([g0, g1], "RMD")


class TestPredictRmd:
    def test_median_like_curve_goes_to_its_group(self):
        rng = np.random.default_rng(9)
        g1 = gaussian_group(rng, "near", n=40)
        g2 = gaussian_group(rng, "far", n=40, shift=25.0)
        model = train([g1, g2], "RMD", rng_seed=10)
        x0 = Curve(reference_frame(g1).medians, g1.grid)
        pred = predict(model, x0)
        assert pred.label == "near"
        assert pred.scores[0] < pred.scores[1]
        assert not pred.higher_is_better


class TestPredictVom:
    def test_median_curve_scores_zero(self):
        rng = np.random.default_rng(12)
        g1 = gaussian_group(rng, "a", n=30)
        g2 = gaussian_group(rng, "b", n=30, shift=8.0)
        model = train([g1, g2], "VOM", rng_seed=13)
        x0 = Curve(reference_frame(g1).medians, g1.grid)
        pred = predict(model, x0)
        assert pred.scores[0] == 0.0
        assert pred.label == "a"

    def test_univariate_score_equals_vo(self):
        rng = np.random.default_rng(14)
        g1 = gaussian_group(rng, "a", n=25)
        g2 = gaussian_group(rng, "b", n=25, shift=2.0)
        model = train([g1, g2], "VOM", rng_seed=15)
        x0 = Curve(rng.normal(size=(10, 1)), g1.grid)
        pred = predict(model, x0)
        assert pred.scores[0] == pytest.approx(summarize(x0, g1).vo, abs=1e-12)
        assert pred.scores[1] == pytest.approx(summarize(x0, g2).vo, abs=1e-12)


class TestFunctionalDepthFm:
    def test_md_depth_one_at_pointwise_mean(self):
        rng = np.random.default_rng(16)
        grp = gaussian_group(rng, "g", n=20, p=2)
        x0 = Curve(grp.values.mean(axis=0), grp.grid)
        assert group_score(grp, "FM2", x0) == pytest.approx(1.0, abs=1e-12)

    def test_td_depth_zero_far_above(self):
        rng = np.random.default_rng(17)
        grp = gaussian_group(rng, "g", n=20)
        x0 = Curve(np.full((10, 1), 100.0), grp.grid)
        assert group_score(grp, "FM1", x0) == 0.0

    def test_md_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(18)
        grp = gaussian_group(rng, "g", n=5, m=3)
        x0 = Curve(rng.normal(size=(3, 1)), grp.grid)
        w = grp.grid.weights
        oracle = sum(
            w[t] * mahalanobis_depth(x0.values[t], grp.values[:, t, :]) for t in range(3)
        )
        assert group_score(grp, "FM2", x0) == pytest.approx(oracle, abs=1e-12)

    def test_td_univariate_matches_count_oracle(self):
        rng = np.random.default_rng(19)
        grp = gaussian_group(rng, "g", n=7, m=4)
        x0 = Curve(rng.normal(size=(4, 1)), grp.grid)
        w = grp.grid.weights
        oracle = 0.0
        for t in range(4):
            cloud = grp.values[:, t, 0]
            x = x0.values[t, 0]
            oracle += w[t] * min((cloud <= x).sum(), (cloud >= x).sum()) / 7
        assert group_score(grp, "FM1", x0) == pytest.approx(oracle, abs=1e-12)


finite = st.floats(-1e6, 1e6, allow_nan=False)
quantized = st.integers(-3, 3).map(lambda k: k / 4)  # few distinct values: ties


@st.composite
def count_problems(draw):
    """Sorted reference rows and queries that sit on, one ulp beside, or away
    from reference values."""
    R, n, N = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = st.one_of(quantized, finite)
    ref = np.sort(np.array(draw(st.lists(values, min_size=R * n, max_size=R * n))).reshape(R, n))
    queries = np.empty((R, N))
    for r in range(R):
        for j in range(N):
            base = ref[r, draw(st.integers(0, n - 1))]
            queries[r, j] = draw(st.one_of(
                st.sampled_from([base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf)]),
                values,
            ))
    return ref, queries


class TestHalfspaceCounts:
    @settings(max_examples=300, deadline=None)
    @given(count_problems())
    def test_matches_brute_force(self, problem):
        ref, queries = problem
        le, ge = halfspace_counts(ref, queries)
        for r in range(ref.shape[0]):
            for j, q in enumerate(queries[r]):
                assert le[r, j] == np.count_nonzero(ref[r] <= q)
                assert ge[r, j] == np.count_nonzero(ref[r] >= q)

    def test_fm1_query_one_ulp_above_a_reference_projection(self):
        # axis directions project exactly, so the oracle counts coordinates;
        # the x axis comes last, where mapping each row onto its own offset
        # interval would round the one-ulp gap away
        rng = np.random.default_rng(40)
        n, m = 9, 10
        grp = FunctionalGroup.from_values("g", 1.0 + rng.random((n, m, 2)), uniform_grid(m))
        dirs = np.array([[0.0, 1.0]] * 7 + [[1.0, 0.0]])
        x0 = np.empty((m, 2))
        x0[:, 0] = np.nextafter(np.sort(grp.values[:, :, 0], axis=0)[-2], np.inf)
        x0[:, 1] = np.median(grp.values[:, :, 1], axis=0)
        oracle = 0.0
        for t in range(m):
            depth = min(
                min(np.count_nonzero(c <= x), np.count_nonzero(c >= x)) / n
                for c, x in zip(grp.values[:, t, :].T, x0[t])
            )
            oracle += grp.grid.weights[t] * depth
        depth = _METHODS["FM1"].score((dirs, grp.grid.weights, (grp.values,)), x0[None])[0, 0]
        assert depth == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize(
        "method,p", [("FM1", 1), ("FM1", 2), ("FM2", 2), ("RP1", 1), ("RP1", 2), ("RP2", 2)]
    )
    def test_batch_scores_equal_single_predictions(self, method, p):
        rng = np.random.default_rng(41)
        g1 = gaussian_group(rng, "a", n=20, p=p)
        g2 = gaussian_group(rng, "b", n=20, p=p, shift=0.5)
        # include a reference curve itself, tied with it in every direction
        queries = [Curve(v, g1.grid) for v in rng.normal(size=(13, 10, p))] + [g1.curves[3]]
        model = train([g1, g2], method, ClassifierConfig(tukey_n_dirs=60), rng_seed=42)
        batch = predict_batch(model, queries)
        for curve, pred in zip(queries, batch):
            assert np.array_equal(predict(model, curve).scores, pred.scores)


class TestFm1Blocks:
    """FM1 works one block of grid points at a time: its scores equal brute
    counts bit for bit, its projections equal the einsum they replaced, and
    no whole-grid projection of the queries is built."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([1, 2, 3]),
        n=st.integers(2, 12),
        decimals=st.sampled_from([0, 1, None]),
    )
    @example(seed=0, p=2, n=12, decimals=0)
    def test_scores_equal_brute_force_counts(self, seed, p, n, decimals):
        # 60 directions make blocks of 8 grid points, and 13 points leave a
        # short last block
        rng = np.random.default_rng(seed)
        grid = uniform_grid(13)
        values = rng.normal(size=(2, n, 13, p))
        if decimals is not None:
            values = np.round(values, decimals)
        groups = [FunctionalGroup.from_values(label, v, grid) for label, v in zip("ab", values)]
        # reference curves, their one-ulp neighbours and fresh curves
        picked = values.reshape(-1, 13, p)[rng.integers(2 * n, size=3)]
        fresh = rng.normal(size=(3, 13, p))
        queries = np.concatenate(
            [picked, np.nextafter(picked, np.inf), np.nextafter(picked, -np.inf), fresh]
        )
        model = train(groups, "FM1", ClassifierConfig(tukey_n_dirs=60), rng_seed=seed)
        dirs, w, _ = model.state
        assert len(dirs) == (1 if p == 1 else 60)
        scores = _METHODS["FM1"].score(model.state, queries)
        assert scores.tobytes() == fm1_scores(values, queries, dirs, w).tobytes()

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("decimals", [None, 0, 1])
    def test_projections_equal_einsum(self, p, decimals):
        rng = np.random.default_rng(p)
        values = rng.normal(size=(30, 7, p)) * 10.0 ** rng.integers(-3, 4, size=p)
        dirs = rng.normal(size=(60, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if decimals is not None:
            # rounding makes signed zeros and exact cancellations
            values, dirs = np.round(values, decimals), np.round(dirs, decimals)
        projected = _fm_project(values, dirs)
        assert projected.shape == (7, 60, 30) and projected.flags.c_contiguous
        assert projected.tobytes() == fm_project(values, dirs).tobytes()

    def test_predict_memory_stays_below_a_quarter_of_one_projection(self):
        # m = 50, D = 500, N = 200: one (m, D, N) float64 projection is 40 MB
        grid = default_grid(50)
        groups = [generate(GeneratorSpec("4", cls, 100, grid=grid, seed=cls)) for cls in (0, 1)]
        queries = generate(GeneratorSpec("4", 0, 200, grid=grid, seed=2))
        model = train(groups, "FM1", rng_seed=0)
        assert len(model.state[0]) == 500
        tracemalloc.start()
        try:
            predict_batch(model, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 500 * 200 * 8 / 4

    def test_train_and_predict_keep_no_projections_of_the_references(self):
        # n = 300 per group: sorted (m, D, n) projections of both groups
        # would take 120 MB; the curves themselves take 0.5 MB
        grid = default_grid(50)
        groups = [generate(GeneratorSpec("4", cls, 300, grid=grid, seed=cls)) for cls in (0, 1)]
        queries = generate(GeneratorSpec("4", 0, 200, grid=grid, seed=2))
        tracemalloc.start()
        try:
            model = train(groups, "FM1", rng_seed=0)
            predict_batch(model, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.state[0]) == 500
        assert peak < 30 * 2**20


class TestBatchAgainstSinglePredictions:
    """``predict_batch`` scores equal one ``predict`` call per curve, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        source=st.sampled_from(
            [(d, False) for d in DATASETS] + [(d, True) for d in UNIVARIATE]
        ),
        seed=st.integers(0, 2**16),
        n_queries=st.integers(1, 6),
    )
    def test_on_benchmark_generators(self, source, seed, n_queries):
        dataset, derivatives = source
        make, grid, n = (derivative_dataset if derivatives else generate), default_grid(15), 20
        groups, queries = [], []
        for cls in (0, 1):
            spec = GeneratorSpec(dataset, cls, n + n_queries, grid=grid, seed=seed + cls)
            values = make(spec).values
            groups.append(FunctionalGroup.from_values(str(cls), values[:n], grid))
            queries += [Curve(v, grid) for v in values[n:]]
        # a group of queries is scored from its own array, not restacked
        query_group = FunctionalGroup.from_values("q", np.stack([c.values for c in queries]), grid)
        for method in METHODS:
            model = train(groups, method, rng_seed=seed)
            batch = predict_batch(model, queries)
            grouped = predict_batch(model, query_group)
            for curve, pred, in_group in zip(queries, batch, grouped):
                single = predict(model, curve)
                assert np.array_equal(single.scores, pred.scores), method
                assert np.array_equal(in_group.scores, pred.scores), method
                assert single.label == pred.label == in_group.label


def growth_group(rng, label, n=30, m=12, shift=0.0):
    """Bivariate curves that all start at 0, with scatter growing in t."""
    t = np.linspace(0.0, 1.0, m)
    vals = (shift + rng.normal(size=(n, m, 2))) * t[None, :, None]
    return FunctionalGroup.from_values(label, vals, Grid(t))


class TestFrameStatistics:
    @pytest.mark.parametrize("method", METHODS)
    def test_curves_that_all_start_at_zero(self, method):
        rng = np.random.default_rng(47)
        a, b = growth_group(rng, "a"), growth_group(rng, "b", shift=1.0)
        queries = growth_group(rng, "q", n=20, shift=1.0)
        preds = predict_batch(train([a, b], method, rng_seed=48), queries)
        assert all(np.all(np.isfinite(pred.scores)) for pred in preds)
        assert sum(pred.label == "b" for pred in preds) >= 16

    @pytest.mark.parametrize("method", ["RMD", "VOM", "FM2"])
    def test_no_scatter_anywhere_raises_from_train(self, method):
        rng = np.random.default_rng(49)
        flat = FunctionalGroup.from_values("flat", np.ones((10, 10, 2)), uniform_grid())
        with pytest.raises(SingularScatterError):
            train([gaussian_group(rng, "a", p=2), flat], method)

    def test_fm2_computes_no_medians(self, monkeypatch):
        rng = np.random.default_rng(50)
        a, b = gaussian_group(rng, "a", p=2), gaussian_group(rng, "b", p=2, shift=0.5)
        queries = [Curve(v, a.grid) for v in rng.normal(size=(8, 10, 2))]
        expected = predict_batch(train([a, b], "FM2"), queries)

        def fail(values):
            raise ConvergenceError("no medians for FM2")

        monkeypatch.setattr(curves, "geometric_medians_batch", fail)
        a, b = (FunctionalGroup(g.label, g.curves) for g in (a, b))
        for pred, want in zip(predict_batch(train([a, b], "FM2"), queries), expected):
            assert np.array_equal(pred.scores, want.scores)

    @pytest.mark.parametrize("method", ["RMD", "VOM"])
    def test_statistics_fail_in_train_not_in_predict(self, method, monkeypatch):
        rng = np.random.default_rng(51)
        a, b = gaussian_group(rng, "a", p=2), gaussian_group(rng, "b", p=2, shift=0.5)
        queries = [Curve(v, a.grid) for v in rng.normal(size=(8, 10, 2))]
        model = train([a, b], method)

        def fail(values):
            raise ConvergenceError("median failed")

        monkeypatch.setattr(curves, "geometric_medians_batch", fail)
        assert len(predict_batch(model, queries)) == 8
        with pytest.raises(ConvergenceError):
            train([FunctionalGroup(g.label, g.curves) for g in (a, b)], method)


class TestFunctionalDepthRp:
    def test_identical_curves_get_full_md_depth(self):
        g = uniform_grid()
        vals = np.tile(np.sin(2 * np.pi * g.points)[None, :, None], (6, 1, 1))
        grp = FunctionalGroup.from_values("g", vals, g)
        config = ClassifierConfig(n_projections=5)
        assert group_score(grp, "RP2", Curve(vals[0], g), config, rng_seed=20) == 1.0

    def test_extreme_curve_has_zero_td_depth(self):
        rng = np.random.default_rng(21)
        grp = gaussian_group(rng, "g", n=15)
        # dominate every projection by scaling far beyond the group's range
        x0 = Curve(np.full((10, 1), 1e6), grp.grid)
        config = ClassifierConfig(n_projections=8)
        assert group_score(grp, "RP1", x0, config, rng_seed=21) == 0.0

    def test_matches_manual_three_projection_average(self):
        rng = np.random.default_rng(22)
        grp = gaussian_group(rng, "g", n=6, m=5)
        other = gaussian_group(rng, "other", n=6, m=5)
        model = train([grp, other], "RP1", ClassifierConfig(n_projections=3), rng_seed=22)
        dirs = model.state[0]
        x0 = Curve(rng.normal(size=(5, 1)), grp.grid)
        w = grp.grid.weights
        total = 0.0
        for d in range(3):
            s0 = float((dirs[d, :, 0] * w) @ x0.values[:, 0])
            sg = np.array([(dirs[d, :, 0] * w) @ c for c in grp.values[:, :, 0]])
            total += min((sg <= s0).sum(), (sg >= s0).sum()) / 6
        assert predict(model, x0).scores[0] == pytest.approx(total / 3, abs=1e-12)


class TestPredictMaxdepth:
    def test_level_separated_groups(self):
        rng = np.random.default_rng(23)
        g1 = gaussian_group(rng, "low", n=25)
        g2 = gaussian_group(rng, "high", n=25, shift=50.0)
        x0 = Curve(rng.normal(size=(10, 1)), g1.grid)
        for method in ("FM1", "FM2", "RP1", "RP2"):
            model = train([g1, g2], method, rng_seed=24)
            pred = predict(model, x0)
            assert pred.label == "low"
            assert pred.higher_is_better


class TestGroupOrder:
    # RMD is left out: its MCD start seeds derive from the group index, and
    # deriving them from the label instead would move the stored digests
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("method", ["VOM", "FM1", "FM2", "RP1", "RP2"])
    def test_permuting_groups_permutes_scores(self, method, p):
        rng = np.random.default_rng(43)
        a, b, c = (gaussian_group(rng, k, n=20, p=p, shift=s) for k, s in zip("abc", (0, 0.5, 1)))
        queries = [Curve(v, a.grid) for v in rng.normal(0.5, size=(15, 10, p))] + [a.curves[0]]
        config = ClassifierConfig(tukey_n_dirs=60)
        abc = predict_batch(train([a, b, c], method, config, rng_seed=44), queries)
        cab = predict_batch(train([c, a, b], method, config, rng_seed=44), queries)
        unique = 0
        for x, y in zip(abc, cab):
            assert np.array_equal(y.scores, x.scores[[2, 0, 1]])
            best = x.scores.max() if x.higher_is_better else x.scores.min()
            if np.count_nonzero(x.scores == best) == 1:
                unique += 1
                assert y.label == x.label
        assert unique > 0


class TestInvariances:
    def test_vom_label_invariant_under_rotation_and_shift(self):
        rng = np.random.default_rng(26)
        g1 = gaussian_group(rng, "a", n=20, p=2)
        g2 = gaussian_group(rng, "b", n=20, p=2, shift=1.5)
        x0 = Curve(rng.normal(size=(10, 2)), g1.grid)
        q, r = np.linalg.qr(rng.normal(size=(2, 2)))
        q = q * np.sign(np.diag(r))
        b = rng.normal(size=2)

        model = train([g1, g2], "VOM", rng_seed=27)
        pred = predict(model, x0)

        tg1 = FunctionalGroup.from_values("a", g1.values @ q.T + b, g1.grid)
        tg2 = FunctionalGroup.from_values("b", g2.values @ q.T + b, g2.grid)
        tmodel = train([tg1, tg2], "VOM", rng_seed=27)
        tpred = predict(tmodel, Curve(x0.values @ q.T + b, x0.grid))

        assert tpred.label == pred.label
        assert np.allclose(tpred.scores, pred.scores, atol=1e-8)

    def _decisions_under_the_transform_family(self, method, dataset):
        # x(t) -> f(t) A0 x(t) + b with A0 orthogonal and f > 0 moves every
        # point-wise median with the data, so each VOM matrix is conjugated by
        # A0 and its norm, the score, stays put up to the median's tolerance
        rng = np.random.default_rng(32)
        train_groups = [generate(GeneratorSpec(dataset, c, 60, seed=33 + c)) for c in (0, 1)]
        tests = np.concatenate(
            [generate(GeneratorSpec(dataset, c, 40, seed=35 + c)).values for c in (0, 1)]
        )
        grid, p = train_groups[0].grid, train_groups[0].p
        q, r = np.linalg.qr(rng.normal(size=(p, p)))
        a0, b, f = q * np.sign(np.diag(r)), rng.normal(size=p), 0.5 + np.exp(grid.points)

        def transform(values):
            return f[:, None] * (values @ a0.T) + b

        moved = [
            FunctionalGroup.from_values(g.label, transform(g.values), grid) for g in train_groups
        ]
        model, moved_model = train(train_groups, method), train(moved, method)
        preds = predict_batch(model, [Curve(v, grid) for v in tests])
        moved_preds = predict_batch(moved_model, [Curve(transform(v), grid) for v in tests])
        decided = 0
        for pred, moved_pred in zip(preds, moved_preds):
            np.testing.assert_allclose(moved_pred.scores, pred.scores, rtol=1e-6)
            best, runner_up = np.sort(pred.scores)[:2]
            if runner_up - best > 1e-9 * abs(runner_up):
                assert moved_pred.label == pred.label
                decided += 1
        assert decided >= 0.9 * len(tests)
        return model, moved_model

    @pytest.mark.parametrize("dataset", ["4", "6"])
    def test_vom_decisions_invariant_under_the_transform_family(self, dataset):
        self._decisions_under_the_transform_family("VOM", dataset)

    @pytest.mark.parametrize("dataset", ["4", "6"])
    def test_rmd_decisions_invariant_under_the_transform_family(self, dataset):
        # MO is rotated by A0 and VO kept, so each group's MCD keeps its subset
        model, moved_model = self._decisions_under_the_transform_family("RMD", dataset)
        for fit, moved_fit in zip(model.state[1], moved_model.state[1]):
            assert np.array_equal(moved_fit.subset, fit.subset)

    def test_fixed_seed_reproducibility(self):
        rng = np.random.default_rng(28)
        g1 = gaussian_group(rng, "a", n=20, p=2)
        g2 = gaussian_group(rng, "b", n=20, p=2, shift=1.0)
        queries = [Curve(v, g1.grid) for v in rng.normal(size=(5, 10, 2))]
        for method in ("RMD", "VOM", "FM1", "FM2", "RP1", "RP2"):
            p1 = predict_batch(train([g1, g2], method, rng_seed=29), queries)
            p2 = predict_batch(train([g1, g2], method, rng_seed=29), queries)
            assert [p.label for p in p1] == [p.label for p in p2]
            assert all(np.array_equal(a.scores, b.scores) for a, b in zip(p1, p2))

    def test_config_knobs_respected(self):
        rng = np.random.default_rng(30)
        g1 = gaussian_group(rng, "a", n=20)
        g2 = gaussian_group(rng, "b", n=20, shift=1.0)
        config = ClassifierConfig(n_projections=7, tukey_n_dirs=11, mcd_h=15)
        model = train([g1, g2], "RP1", config, rng_seed=31)
        assert model.state[0].shape == (7, 10, 1)
        model = train([g1, g2], "RMD", config, rng_seed=31)
        _, fits = model.state
        assert all(fit.h == 15 for fit in fits)
