import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirout.curves import (
    Curve,
    FunctionalGroup,
    Grid,
    derivative_augment,
    integrate,
    read_groups_csv,
    write_groups_csv,
)
from dirout.errors import CsvFormatError


def uniform_grid(m=50, a=0.0, b=1.0):
    return Grid(np.linspace(a, b, m))


class TestGrid:
    def test_rejects_short_or_unsorted(self):
        with pytest.raises(ValueError):
            Grid(np.array([1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.0, 1.0]))

    def test_weights_normalized_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = np.sort(rng.uniform(0, 10, size=rng.integers(2, 40)))
            pts += np.arange(pts.size) * 1e-6  # ensure strict increase
            g = Grid(pts)
            assert np.all(g.weights >= 0)
            assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)


class TestIntegrate:
    def test_constant_recovered_exactly(self):
        g = uniform_grid(7)
        assert integrate(np.full(7, 3.25), g) == pytest.approx(3.25, abs=1e-15)

    def test_two_point_symmetry(self):
        g = Grid(np.array([0.0, 1.0]))
        assert integrate(np.array([0.0, 1.0]), g) == pytest.approx(0.5, abs=1e-15)

    def test_full_period_sine_nearly_zero(self):
        g = uniform_grid(50)
        vals = np.sin(2 * np.pi * g.points)
        assert abs(integrate(vals, g)) < 5e-2

    def test_linearity(self):
        rng = np.random.default_rng(1)
        g = Grid(np.sort(rng.uniform(0, 1, 30)))
        u, v = rng.normal(size=30), rng.normal(size=30)
        a, b = 2.5, -1.25
        lhs = integrate(a * u + b * v, g)
        rhs = a * integrate(u, g) + b * integrate(v, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_ones_integrate_to_one(self):
        rng = np.random.default_rng(2)
        g = Grid(np.sort(rng.uniform(0, 5, 23)))
        assert integrate(np.ones(23), g) == pytest.approx(1.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            integrate(np.ones(5), uniform_grid(6))


class TestDerivativeAugment:
    def test_constant_curve_has_zero_derivative(self):
        g = uniform_grid(10)
        grp = FunctionalGroup.from_values("g", np.full((3, 10, 1), 2.0), g)
        out = derivative_augment(grp)
        assert np.all(out.values[:, :, 1] == 0.0)

    def test_linear_curve_exact_on_uniform_grid(self):
        g = uniform_grid(15)
        a = -3.7
        vals = (a * g.points)[None, :, None]
        out = derivative_augment(FunctionalGroup.from_values("g", vals, g))
        assert np.allclose(out.values[0, :, 1], a, atol=1e-12)

    def test_sine_derivative_within_finite_difference_bound(self):
        g = uniform_grid(50)
        vals = np.sin(2 * np.pi * g.points)[None, :, None]
        out = derivative_augment(FunctionalGroup.from_values("g", vals, g))
        truth = 2 * np.pi * np.cos(2 * np.pi * g.points)
        err = np.abs(out.values[0, 1:-1, 1] - truth[1:-1])
        assert err.max() <= 0.05 * np.abs(truth).max()

    def test_preserves_n_and_doubles_p(self):
        g = uniform_grid(8)
        grp = FunctionalGroup.from_values("g", np.random.default_rng(3).normal(size=(5, 8, 2)), g)
        out = derivative_augment(grp)
        assert out.n == 5 and out.p == 4

    def test_too_few_points(self):
        g = Grid(np.array([0.0, 1.0]))
        grp = FunctionalGroup.from_values("g", np.zeros((2, 2, 1)), g)
        with pytest.raises(ValueError):
            derivative_augment(grp)


class TestDataModel:
    def test_curve_shape_checks(self):
        g = uniform_grid(4)
        with pytest.raises(ValueError):
            Curve(np.zeros((5, 1)), g)
        with pytest.raises(ValueError):
            Curve(np.array([[np.nan], [0.0], [0.0], [0.0]]), g)

    def test_group_requires_common_grid(self):
        c1 = Curve(np.zeros(4), uniform_grid(4))
        c2 = Curve(np.zeros(5), uniform_grid(5))
        with pytest.raises(ValueError):
            FunctionalGroup("g", (c1, c2))


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(4)
        g = uniform_grid(12)
        groups = [
            FunctionalGroup.from_values("a", rng.normal(size=(3, 12, 2)), g),
            FunctionalGroup.from_values("b", rng.normal(size=(4, 12, 2)), g),
        ]
        path = tmp_path / "data.csv"
        write_groups_csv(groups, path)
        loaded, report = read_groups_csv(path)
        assert sorted(loaded) == ["a", "b"]
        assert report["n_per_group"] == {"a": 3, "b": 4}
        assert report["m"] == 12 and report["p"] == 2
        for grp in groups:
            assert np.array_equal(loaded[grp.label].values, grp.values)
            assert np.array_equal(loaded[grp.label].grid.points, g.points)

    def test_malformed_row_names_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "curve_id,group,t,c1\n"
            "c0,a,0.0,1.0\n"
            "c0,a,0.5,oops\n"
            "c0,a,1.0,1.0\n"
        )
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert exc.value.row == 3

    def test_ragged_grid_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "curve_id,group,t,c1\n"
            "c0,a,0.0,1.0\n"
            "c0,a,1.0,1.0\n"
            "c1,a,0.0,2.0\n"
            "c1,a,0.5,2.0\n"
        )
        with pytest.raises(CsvFormatError):
            read_groups_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,group,t,c1\nc0,a,0.0,1.0\n")
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert exc.value.row == 1

    @pytest.mark.parametrize(
        "body, row, message",
        [
            ("c0,a,0.0,1.0\nc0,a,0.5\n", 3, "expected 4 fields, found 3"),
            ("c0,a,0.0,1.0,2.0\n", 2, "expected 4 fields, found 5"),
            ("c0,a,zero,1.0\n", 2, "non-numeric value"),
            ("c0,a,0.0,\n", 2, "non-numeric value"),
            ("c0,a,0.0,nan\n", 2, "non-finite value"),
            ("c0,a,0.0,1.0\nc0,a,inf,1.0\n", 3, "non-finite value"),
            ("c0,a,0.0,-inf\n", 2, "non-finite value"),
            ("c0,a,0.0,1e400\n", 2, "non-finite value"),
            (
                "c0,a,0.0,1.0\nc1,a,0.0,1.0\nc0,a,1.0,1.0\n",
                4,
                "rows of curve 'c0' are not contiguous",
            ),
            (
                "c0,a,0.0,1.0\nc0,b,1.0,1.0\n",
                3,
                "curve 'c0' listed under two groups ('a', 'b')",
            ),
            ("c0,a,0.0,1.0\nc0,a,0.0,1.0\n", 3, "t values of curve 'c0' not increasing"),
            (
                "c0,a,0.0,1.0\nc0,a,1.0,1.0\nc1,a,1.0,1.0\nc1,a,0.5,1.0\n",
                5,
                "t values of curve 'c1' not increasing",
            ),
            # a blank record counts as a record: later row numbers do not shift
            ("c0,a,0.0,1.0\n\nc0,a,0.5,oops\n", 4, "non-numeric value"),
            ("c0,a,0.0,1.0\n \n\nc0,a,0.0,1.0\n", 5, "t values of curve 'c0' not increasing"),
            ("\nc0,a,0.0,nan\n", 3, "non-finite value"),
            # the first offending row is reported, whatever its kind
            ("c0,a,0.0,nan\nc0,a,0.5\n", 2, "non-finite value"),
            ("c0,a,1.0,1.0\nc0,a,0.0,1.0\nc0,a,x,1.0\n", 3, "t values of curve 'c0' not increasing"),
            (
                "c0,a,0.0,1.0\nc0,a,0.0,1.0\nc1,a,0.0,1.0\nc0,a,1.0,1.0\n",
                3,
                "t values of curve 'c0' not increasing",
            ),
            (
                "c0,a,0.0,1.0\nc1,a,0.0,inf\nc1,a,1.0,1.0\nc0,a,1.0,1.0\n",
                3,
                "non-finite value",
            ),
            # within one row: fields, then numbers, then finiteness, then curve order
            ("c0,a,0.0,1.0\nc1,a,0.0,1.0\nc0,a,x,1.0\n", 4, "non-numeric value"),
            ("c0,a,0.0,1.0\nc1,a,0.0,1.0\nc0,a,0.0,nan\n", 4, "non-finite value"),
            ("c0,a,0.0,1.0\nc0,b,0.0,nan\n", 3, "non-finite value"),
            ("c0,a,0.0,1.0\nc0,b,0.0,1.0\n", 3, "curve 'c0' listed under two groups ('a', 'b')"),
        ],
    )
    def test_row_errors_report_first_offending_record(self, tmp_path, body, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("curve_id,group,t,c1\n" + body)
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert exc.value.row == row
        assert str(exc.value) == f"row {row}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("curve_id,group,t,c1\n", "file contains no data rows"),
            ("curve_id,group,t,c1\n\n\n", "file contains no data rows"),
            (
                "curve_id,group,t,c1\nc0,a,0.0,1.0\nc1,a,0.0,2.0\nc1,a,1.0,2.0\n",
                "curve 'c0' has a single time point; the grid needs at least 2",
            ),
            (
                "curve_id,group,t,c1\nc0,a,0.0,1.0\nc0,a,1.0,1.0\nc1,a,0.0,2.0\nc1,a,0.5,2.0\n",
                "curve 'c1' is sampled on a different grid than curve 'c0'",
            ),
            (
                "curve_id,group,t,c1\nc0,a,0.0,1.0\nc0,a,1.0,1.0\nc1,b,0.0,2.0\n"
                "c1,b,1.0,2.0\nc1,b,2.0,2.0\nc2,a,0.0,1.0\n",
                "curve 'c1' is sampled on a different grid than curve 'c0'",
            ),
            (
                "curve_id,group,t,c1\nc0,a,0.0,1.0\nc0,a,1.0,1.0\nc1,b,0.0,2.0\n"
                "c1,b,1.0,2.0\nc2,a,0.0,1.0\n",
                "curve 'c2' is sampled on a different grid than curve 'c0'",
            ),
        ],
    )
    def test_file_errors_carry_no_row(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert exc.value.row == 0
        assert str(exc.value) == message

    def test_component_names_checked(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("curve_id,group,t,c2\nc0,a,0.0,1.0\n")
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert exc.value.row == 1

    def test_blank_records_skipped_and_report_in_file_order(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            "curve_id,group,t,c1,c2\n"
            "z0,b,0.0,1.0,-0.0\n\n"
            "z0,b,1.0,2.0,3.0\n"
            "y0,a,0.0,4.0,5.0\n"
            "y0,a,1.0,6.0,7.0\n"
            "x0,b,0.0,8.0,9.0\n \n"
            "x0,b,1.0,10.0,11.0\n"
        )
        groups, report = read_groups_csv(path)
        assert list(groups) == ["a", "b"]
        assert report == {
            "n_per_group": {"a": 1, "b": 2},
            "m": 2,
            "p": 2,
            "curve_ids": {"a": ["y0"], "b": ["z0", "x0"]},
        }
        assert np.array_equal(groups["b"].values[:, :, 0], [[1.0, 2.0], [8.0, 10.0]])
        assert np.signbit(groups["b"].values[0, 0, 1])
        assert np.array_equal(groups["a"].grid.points, [0.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        special = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                   1.7976931348623157e308, -1e-310])
        labels = data.draw(
            st.lists(st.text(alphabet='ab ,"\'x-', min_size=1, max_size=6),
                     min_size=1, max_size=3, unique=True),
            label="labels",
        )
        # bounded so that Grid's spacing and span do not overflow
        points = sorted(data.draw(
            st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=4, unique=True),
            label="points",
        ))
        grid = Grid(np.array(points))
        p = data.draw(st.integers(1, 2), label="p")
        groups = []
        for label in labels:
            n = data.draw(st.integers(1, 3), label="n")
            flat = data.draw(
                st.lists(finite | special, min_size=n * grid.m * p, max_size=n * grid.m * p),
                label="values",
            )
            groups.append(
                FunctionalGroup.from_values(label, np.array(flat).reshape(n, grid.m, p), grid)
            )
        path = tmp_path_factory.mktemp("rt") / "data.csv"
        write_groups_csv(groups, path)
        loaded, report = read_groups_csv(path)
        assert list(loaded) == sorted(labels)
        assert report["m"] == grid.m and report["p"] == p
        for grp in groups:
            got = loaded[grp.label]
            assert np.array_equal(got.values.view(np.int64), grp.values.view(np.int64))
            assert np.array_equal(got.grid.points.view(np.int64), grid.points.view(np.int64))
            assert report["curve_ids"][grp.label] == [f"{grp.label}-{i:04d}" for i in range(grp.n)]
