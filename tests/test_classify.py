import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirout import classify, curves
from dirout.classify import (
    _METHODS,
    METHODS,
    _fm_project,
    _rp_projections,
    predict_batch,
    rp_directions,
    train,
)
from dirout.curves import FunctionalGroup, Grid
from dirout.errors import ConvergenceError, SingularScatterError
from dirout.outlyingness import reference_frame, summarize_values
from dirout.robust import default_h
from dirout.seeding import derive_seed
from dirout.simulate import (
    DATASETS,
    UNIVARIATE,
    GeneratorSpec,
    default_grid,
    derivative_dataset,
    generate,
)
from oracles import fm1_scores, fm_project, halfspace_counts, mahalanobis_depth, rp_project


def uniform_grid(m=10):
    return Grid(np.linspace(0.0, 1.0, m))


def gaussian_group(rng, label, n=20, m=10, p=1, shift=0.0):
    vals = shift + rng.normal(size=(n, m, p))
    return FunctionalGroup.from_values(label, vals, uniform_grid(m))


def one_curve(values, grid):
    """A group of one curve, from its (m, p) values."""
    return FunctionalGroup.from_values("x0", np.asarray(values)[None], grid)


def group_score(grp, method, x0, rng_seed=0):
    """The method's score of the one-curve group x0 within grp, trained
    against a shifted copy."""
    other = FunctionalGroup.from_values("other", grp.values + 1.0, grp.grid)
    return predict_batch(train([grp, other], method, rng_seed=rng_seed), x0).scores[0, 0]


class TestTrain:
    def test_the_seed_is_keyword_only(self):
        # a third positional argument, once a settings object, is not taken as the seed
        rng = np.random.default_rng(0)
        groups = [gaussian_group(rng, "a"), gaussian_group(rng, "b", shift=1.0)]
        with pytest.raises(TypeError):
            train(groups, "RP1", 0)

    def test_identical_groups_tie_to_first_label(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(15, 10, 1))
        g1 = FunctionalGroup.from_values("a", vals, uniform_grid())
        g2 = FunctionalGroup.from_values("b", vals.copy(), uniform_grid())
        x0 = one_curve(rng.normal(size=(10, 1)), uniform_grid())
        for method in ("RMD", "VOM", "FM1", "FM2", "RP1", "RP2"):
            model = train([g1, g2], method, rng_seed=1)
            pred = predict_batch(model, x0)
            assert pred.scores[0, 0] == pred.scores[0, 1]
            assert pred.label[0] == "a"

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
        x0 = one_curve(reference_frame(g1).medians, g1.grid)
        pred = predict_batch(model, x0)
        assert pred.label[0] == "near"
        assert pred.scores[0, 0] < pred.scores[0, 1]
        assert not pred.higher_is_better


class TestPredictVom:
    def test_median_curve_scores_zero(self):
        rng = np.random.default_rng(12)
        g1 = gaussian_group(rng, "a", n=30)
        g2 = gaussian_group(rng, "b", n=30, shift=8.0)
        model = train([g1, g2], "VOM", rng_seed=13)
        x0 = one_curve(reference_frame(g1).medians, g1.grid)
        pred = predict_batch(model, x0)
        assert pred.scores[0, 0] == 0.0
        assert pred.label[0] == "a"

    def test_univariate_score_equals_vo(self):
        rng = np.random.default_rng(14)
        g1 = gaussian_group(rng, "a", n=25)
        g2 = gaussian_group(rng, "b", n=25, shift=2.0)
        model = train([g1, g2], "VOM", rng_seed=15)
        x0 = one_curve(rng.normal(size=(10, 1)), g1.grid)
        pred = predict_batch(model, x0)
        assert pred.scores[0, 0] == pytest.approx(summarize_values(x0.values, g1).vo[0], abs=1e-12)
        assert pred.scores[0, 1] == pytest.approx(summarize_values(x0.values, g2).vo[0], abs=1e-12)


class TestFunctionalDepthFm:
    def test_md_depth_one_at_pointwise_mean(self):
        rng = np.random.default_rng(16)
        grp = gaussian_group(rng, "g", n=20, p=2)
        x0 = one_curve(grp.values.mean(axis=0), grp.grid)
        assert group_score(grp, "FM2", x0) == pytest.approx(1.0, abs=1e-12)

    def test_td_depth_zero_far_above(self):
        rng = np.random.default_rng(17)
        grp = gaussian_group(rng, "g", n=20)
        x0 = one_curve(np.full((10, 1), 100.0), grp.grid)
        assert group_score(grp, "FM1", x0) == 0.0

    def test_md_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(18)
        grp = gaussian_group(rng, "g", n=5, m=3)
        x0 = one_curve(rng.normal(size=(3, 1)), grp.grid)
        w = grp.grid.weights
        oracle = sum(
            w[t] * mahalanobis_depth(x0.values[0, t], grp.values[:, t, :]) for t in range(3)
        )
        assert group_score(grp, "FM2", x0) == pytest.approx(oracle, abs=1e-12)

    def test_td_univariate_matches_count_oracle(self):
        rng = np.random.default_rng(19)
        grp = gaussian_group(rng, "g", n=7, m=4)
        x0 = one_curve(rng.normal(size=(4, 1)), grp.grid)
        w = grp.grid.weights
        oracle = 0.0
        for t in range(4):
            cloud = grp.values[:, t, 0]
            x = x0.values[0, t, 0]
            oracle += w[t] * min((cloud <= x).sum(), (cloud >= x).sum()) / 7
        assert group_score(grp, "FM1", x0) == pytest.approx(oracle, abs=1e-12)


finite = st.floats(-1e6, 1e6, allow_nan=False)
quantized = st.integers(-3, 3).map(lambda k: k / 4)  # few distinct values: ties


@st.composite
def count_problems(draw):
    """Sorted reference rows and queries that sit on, one ulp beside, or away
    from reference values."""
    R, n, N = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = st.one_of(quantized, finite, st.sampled_from([-np.inf, np.inf]))
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

    def test_most_negative_float_counts_without_a_warning(self):
        # the float below it is -inf, which np.nextafter flags as an overflow
        x = -np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            le, ge = halfspace_counts(np.array([[x, 0.0, 1.0]]), np.array([[x, 0.0]]))
        assert le.tolist() == [[1, 2]] and ge.tolist() == [[3, 2]]

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
        "method,p,n_projections",
        [
            pytest.param(method, p, classify.N_PROJECTIONS, id=f"{method}-{p}")
            for method, p in [("FM1", 1), ("FM1", 2), ("FM2", 2), ("RP1", 1), ("RP1", 2), ("RP2", 2)]
        ]
        # one random projection: against a lone direction, numpy's einsum
        # reduces one curve, and at p = 2 the three-operand form two, in
        # another order than a larger batch
        + [
            pytest.param(method, p, 1, id=f"{method}-{p}-one-projection")
            for method in ("RP1", "RP2")
            for p in (1, 2, 3)
        ],
    )
    def test_batch_scores_equal_single_predictions(self, method, p, n_projections, monkeypatch):
        monkeypatch.setattr(classify, "TUKEY_N_DIRS", 60)
        monkeypatch.setattr(classify, "N_PROJECTIONS", n_projections)
        rng = np.random.default_rng(41)
        g1 = gaussian_group(rng, "a", n=20, p=p)
        g2 = gaussian_group(rng, "b", n=20, p=p, shift=0.5)
        # include reference curves themselves, tied with them in every direction
        values = np.concatenate([rng.normal(size=(13, 10, p)), g1.values[:4]])
        model = train([g1, g2], method, rng_seed=42)
        batch = predict_batch(model, FunctionalGroup.from_values("q", values, g1.grid))
        for curve, scores in zip(values, batch.scores):
            assert np.array_equal(predict_batch(model, one_curve(curve, g1.grid)).scores[0], scores)


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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "TUKEY_N_DIRS", 60)
            model = train(groups, "FM1", rng_seed=seed)
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

    @pytest.mark.parametrize("p", [2, 3])
    def test_projection_allocates_no_block_temporary(self, p):
        # one grid point at the benchmark's D = 500 and N = 200: the odd sum,
        # and for p = 3 the third component's products, go to the scratch
        # arrays, so no (1, D, N) temporary is made
        rng = np.random.default_rng(p)
        values = rng.normal(size=(200, 1, p))
        dirs = rng.normal(size=(500, p))
        out = np.empty((1, 500, 200))
        scratch = [np.empty(out.size) for _ in range(p - 1)]
        tracemalloc.start()
        try:
            projected = _fm_project(values, dirs, out, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert projected is out and peak < out.nbytes / 4
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


class TestFm1Pruning:
    """FM1 counts the first isqrt(D) directions, the head, with the merge;
    of the other directions it counts only the pairs that can go below the
    head's least count, with the pair search. The scores stay the brute
    counts bit for bit, and the dense merge is not run on the tail."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_dirs=st.sampled_from([1, 2, 4, 5, 60, 500]),
        p=st.integers(1, 3),
        n=st.integers(2, 9),
        m=st.integers(2, 5),
        decimals=st.sampled_from([None, 0, 1]),
        identical=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_dirs=500, p=2, n=2, m=3, decimals=0, identical=False, seed=0)
    @example(n_dirs=60, p=2, n=2, m=4, decimals=None, identical=True, seed=1)
    @example(n_dirs=1, p=2, n=5, m=2, decimals=1, identical=False, seed=2)
    def test_scores_equal_the_oracle(self, n_dirs, p, n, m, decimals, identical, seed):
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(n_dirs, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        refs = [rng.normal(size=(n, m, p)), rng.normal(size=(n + 3, m, p)) + 0.5]
        if decimals is not None:
            refs = [np.round(r, decimals) for r in refs]
        if identical:
            # every count against this group is 0 or n
            refs[0] = np.repeat(refs[0][:1], n, axis=0)
        pool = np.concatenate(refs)
        picked = pool[rng.integers(len(pool), size=3)]
        # far along the first direction, which is in the head: its count is
        # 0 there, so the query is outside the hull before the tail starts
        outside = picked[:1] + 1e3 * dirs[0]
        queries = np.concatenate([
            pool, np.nextafter(picked, np.inf), np.nextafter(picked, -np.inf),
            outside, rng.normal(size=(2, m, p)),
        ])
        w = uniform_grid(m).weights
        scores = _METHODS["FM1"].score((dirs, w, tuple(refs)), queries)
        assert scores.tobytes() == fm1_scores(refs, queries, dirs, w).tobytes()
        assert (scores[len(pool) + 6] == 0.0).all()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 130), decimals=st.sampled_from([None, 0]), infs=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    # three -inf references: a -inf query must count none of them as below it
    @example(n=8, decimals=None, infs=True, seed=1)
    def test_pair_search_equals_brute_counts(self, n, decimals, infs, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=(3, n))
        if decimals is not None:
            ref = np.round(ref, decimals)
        if infs:
            ref = np.where(rng.random((3, n)) < 0.2, rng.choice([-np.inf, np.inf], (3, n)), ref)
        ref.sort(axis=1)
        rows = rng.integers(3, size=30)
        on = ref[rows, rng.integers(n, size=30)]
        values = np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf),
                                 3.0 * rng.normal(size=30), rng.choice([-np.inf, np.inf], 30)])
        rows = np.tile(rows, 5)
        le, lt = classify._pair_counts(ref, rows, values)
        assert np.array_equal(le, (ref[rows] <= values[:, None]).sum(axis=1))
        assert np.array_equal(lt, (ref[rows] < values[:, None]).sum(axis=1))

    def test_benchmark_shape_merges_the_head_and_searches_few_pairs(self, monkeypatch):
        # dataset 4, n = 100 per group, N = 200, m = 50, D = 500
        grid = default_grid(50)
        groups = [generate(GeneratorSpec("4", cls, 100, grid=grid, seed=cls)) for cls in (0, 1)]
        queries = generate(GeneratorSpec("4", 0, 200, grid=grid, seed=2))
        model = train(groups, "FM1", rng_seed=0)
        n_dirs = len(model.state[0])
        merged, searched = [], []
        merge, search = classify._sorted_counts, classify._pair_counts

        def spy_merge(sorted_ref, sorted_q):
            merged.append(len(sorted_ref))
            return merge(sorted_ref, sorted_q)

        def spy_search(sorted_ref, rows, values):
            searched.append(len(values))
            return search(sorted_ref, rows, values)

        monkeypatch.setattr(classify, "_sorted_counts", spy_merge)
        monkeypatch.setattr(classify, "_pair_counts", spy_search)
        predict_batch(model, queries)
        # one merge per grid point and group, on the head rows alone
        assert n_dirs == 500 and merged == [math.isqrt(n_dirs)] * (50 * 2)
        assert 0 < sum(searched) < 0.05 * 50 * 2 * n_dirs * 200


class TestBatchAgainstSinglePredictions:
    """``predict_batch`` on a group scores each curve as on a group of that
    curve alone, bit for bit."""

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
            queries.append(values[n:])
        query_group = FunctionalGroup.from_values("q", np.concatenate(queries), grid)
        for method in METHODS:
            model = train(groups, method, rng_seed=seed)
            grouped = predict_batch(model, query_group)
            for curve, label, scores in zip(query_group.values, grouped.label, grouped.scores):
                single = predict_batch(model, one_curve(curve, grid))
                assert np.array_equal(single.scores[0], scores), method
                assert single.label[0] == label


class TestBatchPredictions:
    """``predict_batch`` returns one record of arrays: a label per curve,
    picked from the group labels by its row of scores."""

    def _record(self, method="VOM", n_queries=7):
        rng = np.random.default_rng(52)
        a, b = gaussian_group(rng, "a", p=2), gaussian_group(rng, "b", p=2, shift=2.0)
        shifts = 2.0 * (np.arange(n_queries) % 2)[:, None, None]
        queries = FunctionalGroup.from_values(
            "q", shifts + rng.normal(size=(n_queries, 10, 2)), a.grid
        )
        model = train([a, b], method, rng_seed=53)
        return model, queries, predict_batch(model, queries)

    def test_len_is_the_number_of_curves(self):
        _, queries, record = self._record()
        assert len(record) == queries.n == record.scores.shape[0]
        assert record.scores.shape == (queries.n, 2)

    @pytest.mark.parametrize("method", METHODS)
    def test_label_array_equals_the_predictions_labels(self, method):
        model, _, record = self._record(method)
        assert len(set(record.label.tolist())) == 2
        assert record.labels == model.labels
        assert record.higher_is_better == _METHODS[method].higher_is_better
        pick = np.argmax if record.higher_is_better else np.argmin
        assert record.label.tolist() == [model.labels[pick(row)] for row in record.scores]


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
        assert np.all(np.isfinite(preds.scores))
        assert np.count_nonzero(preds.label == "b") >= 16

    @pytest.mark.parametrize("method", ["RMD", "VOM", "FM2"])
    def test_no_scatter_anywhere_raises_from_train(self, method):
        rng = np.random.default_rng(49)
        flat = FunctionalGroup.from_values("flat", np.ones((10, 10, 2)), uniform_grid())
        with pytest.raises(SingularScatterError):
            train([gaussian_group(rng, "a", p=2), flat], method)

    def test_fm2_computes_no_medians(self, monkeypatch):
        rng = np.random.default_rng(50)
        a, b = gaussian_group(rng, "a", p=2), gaussian_group(rng, "b", p=2, shift=0.5)
        queries = FunctionalGroup.from_values("q", rng.normal(size=(8, 10, 2)), a.grid)
        expected = predict_batch(train([a, b], "FM2"), queries)

        def fail(values):
            raise ConvergenceError("no medians for FM2")

        monkeypatch.setattr(curves, "geometric_medians_batch", fail)
        a, b = (FunctionalGroup.from_values(g.label, g.values, g.grid) for g in (a, b))
        assert np.array_equal(predict_batch(train([a, b], "FM2"), queries).scores, expected.scores)

    @pytest.mark.parametrize("method", ["RMD", "VOM"])
    def test_statistics_fail_in_train_not_in_predict(self, method, monkeypatch):
        rng = np.random.default_rng(51)
        a, b = gaussian_group(rng, "a", p=2), gaussian_group(rng, "b", p=2, shift=0.5)
        queries = FunctionalGroup.from_values("q", rng.normal(size=(8, 10, 2)), a.grid)
        model = train([a, b], method)

        def fail(values):
            raise ConvergenceError("median failed")

        monkeypatch.setattr(curves, "geometric_medians_batch", fail)
        assert len(predict_batch(model, queries)) == 8
        with pytest.raises(ConvergenceError):
            train([FunctionalGroup.from_values(g.label, g.values, g.grid) for g in (a, b)], method)


class TestFunctionalDepthRp:
    def test_a_group_of_one_curve(self):
        # one curve has no spread: RP2 scores it by the degenerate rule,
        # depth 1 at the curve and 0 elsewhere, not by a nan variance
        rng = np.random.default_rng(19)
        a, b = gaussian_group(rng, "a", n=1), gaussian_group(rng, "b", shift=3.0)
        values = np.concatenate([a.values, 3.0 + rng.normal(size=(5, 10, 1))])
        queries = FunctionalGroup.from_values("q", values, a.grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds = {m: predict_batch(train([a, b], m), queries) for m in ("RP2", "RP1", "FM1")}
        for method, pred in preds.items():
            assert pred.label.tolist() == ["a"] + ["b"] * 5, method
        assert preds["RP2"].scores[0, 0] == 1.0 and (preds["RP2"].scores[1:, 0] == 0.0).all()

    def test_a_projected_variance_just_above_the_degenerate_tolerance(self):
        # curves 1e-10 apart: each projected variance lies between
        # (1e-12 (1 + |mean|))^2, at or below which RP2 takes a projection as
        # degenerate, and (1e-9 (1 + |mean|))^2, so a member's depth is
        # 1 / (1 + diff^2 / var): neither the degenerate rule's 1 nor its 0
        rng = np.random.default_rng(23)
        g = uniform_grid()
        base = np.sin(2 * np.pi * g.points)[None, :, None]
        grp = FunctionalGroup.from_values("g", base + 1e-10 * rng.normal(size=(8, 10, 1)), g)
        other = FunctionalGroup.from_values("other", grp.values + 1.0, g)
        model = train([grp, other], "RP2", rng_seed=23)
        mean, var = model.state[1][0]
        scale = 1.0 + np.abs(mean)
        assert ((1e-12 * scale) ** 2 < var).all() and (var < (1e-9 * scale) ** 2).all()
        scores = predict_batch(model, FunctionalGroup.from_values("q", grp.values, g)).scores[:, 0]
        assert ((0.0 < scores) & (scores < 1.0)).all()

    def test_identical_curves_get_full_md_depth(self, monkeypatch):
        monkeypatch.setattr(classify, "N_PROJECTIONS", 5)
        g = uniform_grid()
        vals = np.tile(np.sin(2 * np.pi * g.points)[None, :, None], (6, 1, 1))
        grp = FunctionalGroup.from_values("g", vals, g)
        assert group_score(grp, "RP2", one_curve(vals[0], g), rng_seed=20) == 1.0

    def test_extreme_curve_has_zero_td_depth(self, monkeypatch):
        monkeypatch.setattr(classify, "N_PROJECTIONS", 8)
        rng = np.random.default_rng(21)
        grp = gaussian_group(rng, "g", n=15)
        # dominate every projection by scaling far beyond the group's range
        x0 = one_curve(np.full((10, 1), 1e6), grp.grid)
        assert group_score(grp, "RP1", x0, rng_seed=21) == 0.0

    def test_matches_manual_three_projection_average(self, monkeypatch):
        monkeypatch.setattr(classify, "N_PROJECTIONS", 3)
        rng = np.random.default_rng(22)
        grp = gaussian_group(rng, "g", n=6, m=5)
        other = gaussian_group(rng, "other", n=6, m=5)
        model = train([grp, other], "RP1", rng_seed=22)
        dirs = rp_directions(3, grp.grid, 1, np.random.default_rng(derive_seed(22, 2)))
        x0 = one_curve(rng.normal(size=(5, 1)), grp.grid)
        w = grp.grid.weights
        total = 0.0
        for d in range(3):
            s0 = float((dirs[d, :, 0] * w) @ x0.values[0, :, 0])
            sg = np.array([(dirs[d, :, 0] * w) @ c for c in grp.values[:, :, 0]])
            total += min((sg <= s0).sum(), (sg >= s0).sum()) / 6
        assert predict_batch(model, x0).scores[0, 0] == pytest.approx(total / 3, abs=1e-12)


class TestRpProjections:
    """RP1 and RP2 project through one two-operand einsum over the
    component-major rows, with the bits of the three-operand einsum of
    ``oracles.rp_project``."""

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    def test_projections_equal_three_operand_einsum(self, p, uniform, monkeypatch):
        rng = np.random.default_rng(10 * p + uniform)
        for m in (2, 10, 50, 64):
            inner = np.linspace(0.0, 1.0, m)[1:-1] if uniform else np.sort(rng.uniform(size=m - 2))
            grid = Grid(np.concatenate([[0.0], inner, [1.0]]))
            for n_dirs in (1, 2, 7, 50):
                monkeypatch.setattr(classify, "N_PROJECTIONS", n_dirs)
                dirs = rp_directions(n_dirs, grid, p, np.random.default_rng(derive_seed(m, 2)))
                for n in (1, 2, 3, 200, 257):
                    values = rng.normal(size=(n, m, p)) * 10.0 ** rng.integers(-3, 4, size=p)
                    for decimals in (None, 0):
                        if decimals is not None:
                            # rounding makes signed zeros and exact cancellations
                            values = np.round(values, decimals)
                        group = FunctionalGroup.from_values("g", values, grid)
                        _, (projected,) = _rp_projections([group], seed=m)
                        assert projected.shape == (n_dirs, n)
                        # the three-operand einsum sums one direction against
                        # one or two curves in another order than a larger
                        # batch, so those curves are compared within three
                        padded = np.concatenate([values] + [values[:1]] * max(0, 3 - n))
                        expected = rp_project(padded, dirs, grid.weights)[:n]
                        assert np.ascontiguousarray(projected.T).tobytes() == expected.tobytes()


class TestPredictMaxdepth:
    def test_level_separated_groups(self):
        rng = np.random.default_rng(23)
        g1 = gaussian_group(rng, "low", n=25)
        g2 = gaussian_group(rng, "high", n=25, shift=50.0)
        x0 = one_curve(rng.normal(size=(10, 1)), g1.grid)
        for method in ("FM1", "FM2", "RP1", "RP2"):
            model = train([g1, g2], method, rng_seed=24)
            pred = predict_batch(model, x0)
            assert pred.label[0] == "low"
            assert pred.higher_is_better


class TestGroupOrder:
    # RMD is left out: its MCD start seeds derive from the group index, and
    # deriving them from the label instead would move the stored digests
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("method", ["VOM", "FM1", "FM2", "RP1", "RP2"])
    def test_permuting_groups_permutes_scores(self, method, p, monkeypatch):
        monkeypatch.setattr(classify, "TUKEY_N_DIRS", 60)
        rng = np.random.default_rng(43)
        a, b, c = (gaussian_group(rng, k, n=20, p=p, shift=s) for k, s in zip("abc", (0, 0.5, 1)))
        values = np.concatenate([rng.normal(0.5, size=(15, 10, p)), a.values[:1]])
        queries = FunctionalGroup.from_values("q", values, a.grid)
        abc = predict_batch(train([a, b, c], method, rng_seed=44), queries)
        cab = predict_batch(train([c, a, b], method, rng_seed=44), queries)
        assert np.array_equal(cab.scores, abc.scores[:, [2, 0, 1]])
        unique = 0
        for x_label, x_scores, y_label in zip(abc.label, abc.scores, cab.label):
            best = x_scores.max() if abc.higher_is_better else x_scores.min()
            if np.count_nonzero(x_scores == best) == 1:
                unique += 1
                assert y_label == x_label
        assert unique > 0


class TestInvariances:
    def test_vom_label_invariant_under_rotation_and_shift(self):
        rng = np.random.default_rng(26)
        g1 = gaussian_group(rng, "a", n=20, p=2)
        g2 = gaussian_group(rng, "b", n=20, p=2, shift=1.5)
        x0 = one_curve(rng.normal(size=(10, 2)), g1.grid)
        q, r = np.linalg.qr(rng.normal(size=(2, 2)))
        q = q * np.sign(np.diag(r))
        b = rng.normal(size=2)

        model = train([g1, g2], "VOM", rng_seed=27)
        pred = predict_batch(model, x0)

        tg1 = FunctionalGroup.from_values("a", g1.values @ q.T + b, g1.grid)
        tg2 = FunctionalGroup.from_values("b", g2.values @ q.T + b, g2.grid)
        tmodel = train([tg1, tg2], "VOM", rng_seed=27)
        tpred = predict_batch(tmodel, one_curve(x0.values[0] @ q.T + b, x0.grid))

        assert tpred.label[0] == pred.label[0]
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
        preds = predict_batch(model, FunctionalGroup.from_values("q", tests, grid))
        moved_preds = predict_batch(moved_model, FunctionalGroup.from_values("q", transform(tests), grid))
        np.testing.assert_allclose(moved_preds.scores, preds.scores, rtol=1e-6)
        decided = 0
        for scores, label, moved_label in zip(preds.scores, preds.label, moved_preds.label):
            best, runner_up = np.sort(scores)[:2]
            if runner_up - best > 1e-9 * abs(runner_up):
                assert moved_label == label
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
        queries = FunctionalGroup.from_values("q", rng.normal(size=(5, 10, 2)), g1.grid)
        for method in ("RMD", "VOM", "FM1", "FM2", "RP1", "RP2"):
            p1 = predict_batch(train([g1, g2], method, rng_seed=29), queries)
            p2 = predict_batch(train([g1, g2], method, rng_seed=29), queries)
            assert p1.label.tolist() == p2.label.tolist()
            assert np.array_equal(p1.scores, p2.scores)

    def test_direction_constants_and_the_default_mcd_h(self, monkeypatch):
        rng = np.random.default_rng(30)
        g1 = gaussian_group(rng, "a", n=20)
        g2 = gaussian_group(rng, "b", n=20, shift=1.0)
        monkeypatch.setattr(classify, "N_PROJECTIONS", 7)
        monkeypatch.setattr(classify, "TUKEY_N_DIRS", 11)
        # the weighted directions, one row per (component, grid point)
        assert train([g1, g2], "RP1", rng_seed=31).state[0].shape == (10, 7)
        h1, h2 = (gaussian_group(rng, k, n=20, p=2) for k in "ab")
        assert train([h1, h2], "FM1", rng_seed=31).state[0].shape == (11, 2)
        # the (MO, VO) features of p = 1 curves are 2-vectors
        _, fits = train([g1, g2], "RMD", rng_seed=31).state
        assert [fit.h for fit in fits] == [default_h(20, 2)] * 2
