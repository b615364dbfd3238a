import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirout import curves as curves_module
from dirout.curves import (
    FunctionalGroup,
    Grid,
    derivative_augment,
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
    """The grid-weighted mean over time of per-gridpoint values, ``grid.weights @ v``."""

    def test_constant_recovered_exactly(self):
        g = uniform_grid(7)
        assert g.weights @ np.full(7, 3.25) == pytest.approx(3.25, abs=1e-15)

    def test_two_point_symmetry(self):
        g = Grid(np.array([0.0, 1.0]))
        assert g.weights @ np.array([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_full_period_sine_nearly_zero(self):
        g = uniform_grid(50)
        vals = np.sin(2 * np.pi * g.points)
        assert abs(g.weights @ vals) < 5e-2

    def test_linearity(self):
        rng = np.random.default_rng(1)
        g = Grid(np.sort(rng.uniform(0, 1, 30)))
        u, v = rng.normal(size=30), rng.normal(size=30)
        a, b = 2.5, -1.25
        lhs = g.weights @ (a * u + b * v)
        rhs = a * (g.weights @ u) + b * (g.weights @ v)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_ones_integrate_to_one(self):
        rng = np.random.default_rng(2)
        g = Grid(np.sort(rng.uniform(0, 5, 23)))
        assert g.weights @ np.ones(23) == pytest.approx(1.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            uniform_grid(6).weights @ np.ones(5)


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
    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros(4), r"expected \(n, m, p\) values, got shape \(4,\)"),
            (np.zeros((0, 4, 1)), "group must contain at least one curve"),
            (np.zeros((2, 5, 1)), "curve has 5 rows but grid has 4 points"),
            (np.zeros((2, 4, 0)), "curve needs at least one component"),
            (np.where(np.arange(8).reshape(2, 4) == 6, np.inf, 0.0), "curve values must be finite"),
        ],
    )
    def test_group_checks_whole_array(self, values, message):
        with pytest.raises(ValueError, match=message):
            FunctionalGroup.from_values("g", values, uniform_grid(4))

    def test_group_keeps_its_array_read_only(self):
        values = np.random.default_rng(6).normal(size=(3, 4, 2))
        grp = FunctionalGroup.from_values("g", values, uniform_grid(4))
        assert np.shares_memory(grp.values, values) and not grp.values.flags.writeable
        assert grp.values.tolist() == values.tolist()


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

    def test_write_rejects_repeated_labels(self, tmp_path):
        # the curves of two groups named alike would share ids, which the reader rejects
        vals = np.random.default_rng(5).normal(size=(3, 12, 1))
        g = FunctionalGroup.from_values("a", vals, uniform_grid(12))
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match="^group labels must be distinct$"):
            write_groups_csv([g, g], path)
        assert not path.exists()

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
            ("c0,a,1.0,1.0\nc1,a,0.0,1.0\nc0,a,0.0,1.0\n", 4, "rows of curve 'c0' are not contiguous"),
            # a record after the first offending one is not looked at
            ("c0,a,1.0,1.0\nc0,a,0.0,1.0\nc0,a,2.0\n", 3, "t values of curve 'c0' not increasing"),
        ],
    )
    def test_row_errors_report_first_offending_record(self, tmp_path, body, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("curve_id,group,t,c1\n" + body)
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert exc.value.row == row
        assert str(exc.value) == f"row {row}: {message}"

    def test_offending_record_reported_before_a_later_overlong_field(self, tmp_path):
        # csv.reader raises csv.Error only when it reaches the overlong field
        path = tmp_path / "long.csv"
        path.write_text(
            "curve_id,group,t,c1\nc0,a,1.0,1.0\nc0,a,0.0,1.0\n"
            f"c0,a,2.0,{'1' * (csv.field_size_limit() + 1)}\n"
        )
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert str(exc.value) == "row 3: t values of curve 'c0' not increasing"

    @pytest.mark.parametrize(
        "text, row",
        [
            pytest.param("curve_id,group,t,{long}\nc0,a,0.0,1.0\nc0,a,1.0,1.0\n", 1, id="header"),
            pytest.param(
                "curve_id,group,t,c1\n{long},a,0.0,1.0\n{long},a,1.0,1.0\n", 2, id="curve-ids"
            ),
            pytest.param(
                "curve_id,group,t,c1\nc0,a,0.0,1.0\n\nc0,{long},1.0,1.0\n", 4, id="group"
            ),
            # a file that loadtxt refuses is read by the record pass, which
            # refuses an overlong number as well
            pytest.param(
                "curve_id,group,t,c1\nc0,a,0.0,1.{zeros}\nc0,a,1.0,1_0\n", 2, id="number"
            ),
        ],
    )
    def test_overlong_field_reported_with_its_record(self, tmp_path, text, row):
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text(text.format(long="x" * (limit + 1), zeros="0" * limit))
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert str(exc.value) == f"row {row}: field larger than field limit ({limit})"

    def test_loadtxt_reads_an_overlong_number(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            f"curve_id,group,t,c1\nc0,a,0.0,1.{'0' * csv.field_size_limit()}\nc0,a,1.0,2.0\n"
        )
        groups, _ = read_groups_csv(path)
        assert np.array_equal(groups["a"].values[0, :, 0], [1.0, 2.0])

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


def _outcome(path):
    """What ``read_groups_csv`` gives for a file: each group's values and grid
    as integer bit patterns and the report, or the exception's type, message
    and row."""
    try:
        groups, report = read_groups_csv(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    bits = {
        label: (g.values.shape, g.values.view(np.int64).tolist(), g.grid.points.view(np.int64).tolist())
        for label, g in groups.items()
    }
    return list(groups), bits, report


def _record_pass_outcome(path):
    """``_outcome`` with the loadtxt path switched off: csv.reader alone."""
    with mock.patch.object(curves_module, "_loadtxt_rows", lambda fh, p: None):
        return _outcome(path)


# Pieces that loadtxt and csv.reader/float may read differently: quotes, comment
# and line-end characters, NUL, a byte-order mark, what only ``float`` takes
# (underscores, surrounding spaces, non-ASCII digits), non-finite numbers and
# fields that are empty, quoted, or hold a delimiter or a line end.
PIECES = ['"', "#", "\r", "\n", "\r\n", "\0", "\ufeff", ",", " ", "\t", "_", "1_0", " 2.5 ",
          "nan", "inf", "-inf", "1e400", "\u0661", "\u2003", '"x\r\ny"', '"a""b"', '"c,d"', '"1.5"',
          '"g"', "g", "", "0x1p3"]
BLANK_RECORDS = ["", " ", "\t", '""', ","]


class TestCsvParsers:
    """The loadtxt path and the csv.reader pass read every file the same way."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_files_read_alike(self, tmp_path_factory, data):
        p = data.draw(st.integers(1, 2), label="p")
        m = data.draw(st.integers(2, 3), label="m")
        eol = data.draw(st.sampled_from(["\n", "\r\n"]), label="eol")
        number = st.sampled_from(["0.5", "-1.25", "3", "1e-3", "-0.0", "7.25", "2"])
        lines = ["curve_id,group,t," + ",".join(f"c{k + 1}" for k in range(p))]
        for c, label in enumerate(data.draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=3),
                                            label="labels")):
            for j in range(m):
                values = [data.draw(number, label="value") for _ in range(p)]
                lines.append(",".join([f"c{c}", label, f"{j}.0", *values]))
        ends = [eol] * len(lines)
        for _ in range(data.draw(st.integers(0, 3), label="mutations")):
            kind = data.draw(st.sampled_from(
                ["insert", "field", "blank", "extra", "drop", "swap", "duplicate", "end"]), label="kind")
            i = data.draw(st.integers(1, len(lines) - 1), label="line") if len(lines) > 1 else 0
            line = lines[i]
            if kind == "insert":
                k = data.draw(st.integers(0, len(line)), label="at")
                lines[i] = line[:k] + data.draw(st.sampled_from(PIECES), label="piece") + line[k:]
            elif kind == "field":
                fields = line.split(",")
                fields[data.draw(st.integers(0, len(fields) - 1), label="field")] = data.draw(
                    st.sampled_from(PIECES), label="piece")
                lines[i] = ",".join(fields)
            elif kind == "blank":
                lines.insert(i, data.draw(st.sampled_from(BLANK_RECORDS), label="blank"))
                ends.insert(i, eol)
            elif kind == "extra":
                lines[i] = line + ",1.0"
            elif kind == "drop":
                lines[i] = line.rpartition(",")[0]
            elif kind == "swap":
                k = data.draw(st.integers(1, len(lines) - 1), label="other")
                lines[i], lines[k] = lines[k], lines[i]
            elif kind == "duplicate":
                lines.insert(data.draw(st.integers(1, len(lines)), label="to"), line)
                ends.insert(i, eol)
            else:
                ends[i] = data.draw(st.sampled_from(["\r", "\r\n", "\n", ""]), label="end")
        path = tmp_path_factory.mktemp("mut") / "data.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("".join(line + end for line, end in zip(lines, ends)))
        # small chunks put curve starts and blank records at chunk boundaries
        chunk = data.draw(st.sampled_from([1, 2, 3, curves_module._CHUNK_ROWS]), label="chunk")
        with mock.patch.object(curves_module, "_CHUNK_ROWS", chunk):
            assert _outcome(path) == _record_pass_outcome(path)

    @pytest.mark.parametrize(
        "body, row, message",
        [
            (
                "c0,a,0,1\nc0,a,1,1\nc1,a,0,1\nc1,a,1,1\nc0,a,0,1\nc0,a,1,1\n",
                6,
                "rows of curve 'c0' are not contiguous",
            ),
            ("c0,a,0,1\nc0,a,1,1\nc0,b,0,1\nc0,b,1,1\n", 4, "curve 'c0' listed under two groups ('a', 'b')"),
        ],
    )
    def test_curves_split_into_whole_grids_are_refused(self, tmp_path, body, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("curve_id,group,t,c1\n" + body)
        with pytest.raises(CsvFormatError) as exc:
            read_groups_csv(path)
        assert (exc.value.row, str(exc.value)) == (row, f"row {row}: {message}")

    @pytest.mark.parametrize(
        "body, c1",
        [
            ("c0,a,0.0,1_0\nc0,a,1.0,2.5\n", [10.0, 2.5]),
            ("c0,a,0.0,1.0\n \nc0,a,1.0, 2.5 \n", [1.0, 2.5]),
            ("c0,a,0.0,\u0661\rc0,a,1.0,2\r", [1.0, 2.0]),
        ],
    )
    def test_record_pass_reads_what_loadtxt_refuses(self, tmp_path, body, c1):
        path = tmp_path / "exotic.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("curve_id,group,t,c1\n" + body)
        groups, _ = read_groups_csv(path)
        assert groups["a"].values[0, :, 0].tolist() == c1
        assert _outcome(path) == _record_pass_outcome(path)

    def test_written_files_skip_the_record_pass(self, tmp_path):
        rng = np.random.default_rng(5)
        g = uniform_grid(7)
        groups = [
            FunctionalGroup.from_values(label, rng.normal(size=(n, 7, 2)), g)
            for label, n in (("a", 3), ('b,"q"', 2), ("c\r\nd", 4))
        ]
        path = tmp_path / "data.csv"
        write_groups_csv(groups, path)
        with mock.patch.object(curves_module, "_record_rows", side_effect=AssertionError):
            loaded, report = read_groups_csv(path)
        assert list(loaded) == sorted(grp.label for grp in groups)
        for grp in groups:
            assert np.array_equal(loaded[grp.label].values.view(np.int64), grp.values.view(np.int64))
        assert report["n_per_group"] == {"a": 3, 'b,"q"': 2, "c\r\nd": 4}

    def test_record_pass_reads_files_of_many_chunks_alike(self, tmp_path):
        rng = np.random.default_rng(6)
        g = uniform_grid(9)
        n = 3 * curves_module._CHUNK_ROWS // g.m + 5  # more than 3 chunks of rows
        groups = [
            FunctionalGroup.from_values(label, rng.normal(size=(n, g.m, 2)), g) for label in "ab"
        ]
        path = tmp_path / "data.csv"
        write_groups_csv(groups, path)
        loaded, report = read_groups_csv(path)
        with mock.patch.object(curves_module, "_loadtxt_rows", lambda fh, p: None):
            again, again_report = read_groups_csv(path)
        assert again_report == report and report["n_per_group"] == {"a": n, "b": n}
        for grp in groups:
            assert np.array_equal(again[grp.label].values.view(np.int64), grp.values.view(np.int64))
            assert np.array_equal(loaded[grp.label].values.view(np.int64), grp.values.view(np.int64))
            assert np.array_equal(again[grp.label].grid.points.view(np.int64), g.points.view(np.int64))

    @pytest.mark.parametrize("blank", ["", "\n"])
    def test_chunk_multiple_reads_without_warnings(self, tmp_path, blank):
        m = 12  # curves cross chunk boundaries
        n = 3 * curves_module._CHUNK_ROWS // m
        lines = ["curve_id,group,t,c1"]
        for i in range(n):
            lines += [f"c{i},{'ab'[i % 2]},{j}.0,{i + j}.5" for j in range(m)]
        path = tmp_path / "data.csv"
        path.write_text(blank.join(line + "\n" for line in lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(curves_module, "_record_rows", side_effect=AssertionError):
                groups, report = read_groups_csv(path)
        assert report["n_per_group"] == {"a": n // 2, "b": n // 2}
        assert groups["b"].values[-1, -1, 0] == n - 1 + m - 1 + 0.5

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("curve_id,group,t,c1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="file contains no data rows"):
                read_groups_csv(path)
