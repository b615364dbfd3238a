"""Data model for vector-valued curves sampled on a shared grid.

A dataset is a collection of groups; each group holds curves observed at the
same ordered time points as one (n, m, p) array, and a curve is a row of it:
there is no per-curve object. Integration against the grid uses trapezoidal
weights normalized to sum to one, i.e. a constant weight function on the
observation interval.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import CsvFormatError
from .pointwise import PointwiseMoments, geometric_medians_batch, pointwise_moments

__all__ = [
    "Grid",
    "FunctionalGroup",
    "check_same_grid",
    "default_curve_ids",
    "derivative_augment",
    "read_groups_csv",
    "write_groups_csv",
    "write_rows",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Ordered observation times within a compact interval.

    Args:
        points: strictly increasing time points, length >= 2.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 one-dimensional points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.size

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights normalized to sum to 1."""
        gaps = np.diff(self.points)
        w = np.zeros(self.m)
        w[:-1] += 0.5 * gaps
        w[1:] += 0.5 * gaps
        return w / w.sum()

    def same_points(self, other: "Grid") -> bool:
        return self is other or (self.m == other.m and np.array_equal(self.points, other.points))


@dataclass(frozen=True, eq=False, init=False)
class FunctionalGroup:
    """A labeled collection of curves sharing one grid, held as one read-only
    (n, m, p) array of values; the point-wise ``moments`` and ``medians`` are
    computed from it on first use and kept. ``from_values`` builds one."""

    label: str
    values: np.ndarray
    grid: Grid

    @classmethod
    def from_values(cls, label: str, values: np.ndarray, grid: Grid) -> "FunctionalGroup":
        """Build a group from an (n, m, p) or (n, m) value array, checked as a
        whole and kept (not copied) when it is a C-contiguous float array."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 2:
            values = values[:, :, None]
        if values.ndim != 3:
            raise ValueError(f"expected (n, m, p) values, got shape {values.shape}")
        n, m, p = values.shape
        if n == 0:
            raise ValueError("group must contain at least one curve")
        if m != grid.m:
            raise ValueError(f"curve has {m} rows but grid has {grid.m} points")
        if p < 1:
            raise ValueError("curve needs at least one component")
        if not np.isfinite(values).all():
            raise ValueError("curve values must be finite")
        values = np.ascontiguousarray(values).view()
        values.flags.writeable = False
        group = cls.__new__(cls)
        group.__dict__.update(label=label, values=values, grid=grid)
        return group

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[2]

    @cached_property
    def moments(self) -> PointwiseMoments:
        """Point-wise means, ridged inverse covariances and integration weights."""
        self._check_reference()
        return pointwise_moments(self.values, self.grid.weights, self.label)

    @cached_property
    def medians(self) -> np.ndarray:
        """Point-wise geometric medians, (m, p)."""
        self._check_reference()
        return geometric_medians_batch(self.values)

    def _check_reference(self) -> None:
        if self.n < self.p + 2:
            raise ValueError(
                f"reference group {self.label!r} needs at least p+2={self.p + 2} curves, has {self.n}"
            )


def check_same_grid(groups) -> None:
    """Raise ``ValueError`` unless every group has the first group's grid
    points and number of components."""
    first = groups[0]
    for g in groups[1:]:
        if g.p != first.p or not g.grid.same_points(first.grid):
            raise ValueError(f"groups {first.label!r} and {g.label!r} must share grid and dimension")


def default_curve_ids(label: str, n: int) -> list[str]:
    """The ids of a group's n curves where a file gives none: ``label-0000``,
    ``label-0001``, ..., zero-padded to at least four digits."""
    width = max(4, len(str(n - 1)))
    return [f"{label}-{i:0{width}d}" for i in range(n)]


def derivative_augment(group: FunctionalGroup) -> FunctionalGroup:
    """Append first-derivative components to every curve of a group.

    Derivatives use central differences at interior points and one-sided
    differences at the endpoints, so the output curves are 2p-variate on the
    same grid.
    """
    grid = group.grid
    if grid.m < 3:
        raise ValueError("derivative augmentation needs at least 3 grid points")
    t = grid.points
    vals = group.values  # (n, m, p)
    deriv = np.empty_like(vals)
    deriv[:, 0] = (vals[:, 1] - vals[:, 0]) / (t[1] - t[0])
    deriv[:, -1] = (vals[:, -1] - vals[:, -2]) / (t[-1] - t[-2])
    span = (t[2:] - t[:-2])[None, :, None]
    deriv[:, 1:-1] = (vals[:, 2:] - vals[:, :-2]) / span
    return FunctionalGroup.from_values(group.label, np.concatenate([vals, deriv], axis=2), grid)


def write_rows(path, header, rows, lineterminator: str = "\n") -> None:
    """Write a CSV file of a header and rows of str, int and float fields,
    each record ending in ``lineterminator``. Floats are written by ``repr``;
    a field holding a comma, a double quote, a CR or an LF is quoted, so
    ``csv.reader`` reads every field back unchanged."""
    with open(path, "w", newline="") as fh:
        # csv.writer quotes a CR or an LF only where its own record end holds
        # one: it ends records in "\r\n", so that a lone CR is quoted too, and
        # it passes each whole record to one write call, which swaps that end
        sink = SimpleNamespace(write=lambda record: fh.write(record[:-2] + lineterminator))
        writer = csv.writer(sink, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_groups_csv(groups, path) -> None:
    """Write groups to the long-format CSV schema.

    Header is ``curve_id,group,t,c1,...,cp``; one row per (curve, time point),
    times in grid order, each record ending in CR LF. Floats are written with
    full round-trip precision, and curves take the ids of ``default_curve_ids``.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("nothing to write")
    check_same_grid(groups)
    if len({g.label for g in groups}) != len(groups):
        raise ValueError("group labels must be distinct")
    p, times = groups[0].p, groups[0].grid.points.tolist()
    header = ["curve_id", "group", "t"] + [f"c{k + 1}" for k in range(p)]
    rows = (
        [cid, g.label, t, *values]
        for g in groups
        for cid, curve in zip(default_curve_ids(g.label, g.n), g.values)
        for t, values in zip(times, curve.tolist())
    )
    write_rows(path, header, rows, lineterminator="\r\n")


# Data rows per ``np.loadtxt`` call in ``read_groups_csv``. Besides its
# numbers a chunk holds two str objects per row (id and group); one call over
# a whole 100,000-row, p = 2 file peaked about 13 MiB higher.
_CHUNK_ROWS = 2048


def _read_header(reader) -> int:
    """Check the header record and return the number of components p."""
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty file") from None
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise CsvFormatError(str(exc), row=1) from None
    header = [h.strip() for h in header]
    if header[:3] != ["curve_id", "group", "t"]:
        raise CsvFormatError(
            f"header must start with curve_id,group,t; got {','.join(header[:3])}", row=1
        )
    comp_names = header[3:]
    p = len(comp_names)
    if p < 1 or comp_names != [f"c{k + 1}" for k in range(p)]:
        raise CsvFormatError("component columns must be named c1..cp", row=1)
    return p


def _loadtxt_rows(fh, p: int):
    """The data rows left in ``fh``, parsed by ``np.loadtxt`` in chunks and
    checked as whole arrays, as ``(rows, starts, curves)`` like
    ``_record_rows``; None if loadtxt refuses a record or a row check fails.

    Where loadtxt accepts a file, it splits and unquotes fields as
    ``csv.reader`` does and parses numbers with the same routine as ``float``;
    what ``float`` or ``csv`` accept beyond that (``1_000``, non-ASCII digits,
    whitespace-only records) makes loadtxt raise. Unlike ``csv.reader``, it
    reads a number longer than ``csv.field_size_limit()``.
    """
    names = ["t"] + [f"c{k + 1}" for k in range(p)]
    dtype = np.dtype([("id", object), ("group", object)] + [(name, float) for name in names])
    numbers, starts, cids, labels = [], [], [], []
    nrows, last = 0, None
    with warnings.catch_warnings():
        # the chunk after a last full one is empty, and blank records are not
        # counted towards max_rows: loadtxt warns about both
        warnings.filterwarnings(
            "ignore", "(loadtxt: input|Input line [0-9]+) contained no data", UserWarning
        )
        while True:
            try:
                chunk = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                    max_rows=_CHUNK_ROWS, ndmin=1,
                )
            except ValueError:
                return None
            k = chunk.shape[0]
            if not k:
                break
            # a curve starts where (id, group) changes; the rest of a chunk is numbers
            ids, groups = chunk["id"], chunk["group"]
            new = np.empty(k, dtype=bool)
            new[0] = (ids[0], groups[0]) != last
            new[1:] = (ids[1:] != ids[:-1]) | (groups[1:] != groups[:-1])
            at = np.flatnonzero(new)
            starts.append(at + nrows)
            cids += ids[at].tolist()
            labels += groups[at].tolist()
            numbers.append(np.stack([chunk[name] for name in names], axis=1))
            nrows += k
            last = (ids[-1], groups[-1])
            if k < _CHUNK_ROWS:
                break
    if not nrows:
        return None
    rows = np.concatenate(numbers)
    starts = np.concatenate(starts)
    # an id seen at two curve starts is a non-contiguous curve or one under
    # two groups; csv.reader refuses a field longer than its limit
    curves = dict(zip(cids, labels))
    if len(curves) < len(cids) or max(map(len, cids + labels)) > csv.field_size_limit():
        return None
    t = rows[:, 0]
    first = np.zeros(nrows, dtype=bool)
    first[starts] = True
    if not np.isfinite(rows).all() or not ((t[1:] > t[:-1]) | first[1:]).all():
        return None
    return rows, starts, curves


def _record_rows(reader, p: int):
    """The data records left in ``reader``, read and checked one at a time:
    ``(rows, starts, curves)`` with the (N, 1 + p) values of t, c1..cp, each
    curve's first row and a dict curve id -> group in file order.

    Blank records are skipped. A record that ``csv.reader`` refuses, such as
    one with a field longer than ``csv.field_size_limit()``, fails first. A
    record is then checked for its field count, then for numbers, then for
    finite ones, then for its curve (contiguous rows, one group) and last for
    a t above the t before it in its curve.

    Raises:
        CsvFormatError: for the first record that fails a check, with its number.
    """
    rows: list[list[float]] = []
    starts: list[int] = []
    curves: dict[str, str] = {}  # curve id -> group, in file order
    cid = label = None
    records = enumerate(reader, start=2)
    rownum = 1
    while True:
        try:
            rownum, row = next(records)
        except StopIteration:
            break
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise CsvFormatError(str(exc), row=rownum + 1) from None
        if len(row) != 3 + p:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            raise CsvFormatError(f"expected {3 + p} fields, found {len(row)}", row=rownum)
        try:
            values = list(map(float, row[2:]))
        except ValueError:
            raise CsvFormatError("non-numeric value", row=rownum) from None
        if not all(map(math.isfinite, values)):
            raise CsvFormatError("non-finite value", row=rownum)
        if row[0] != cid:
            if row[0] in curves:
                raise CsvFormatError(f"rows of curve {row[0]!r} are not contiguous", row=rownum)
            cid, label = row[0], row[1]
            curves[cid] = label
            starts.append(len(rows))
        elif row[1] != label:
            raise CsvFormatError(
                f"curve {cid!r} listed under two groups ({label!r}, {row[1]!r})", row=rownum
            )
        elif values[0] <= rows[-1][0]:
            raise CsvFormatError(f"t values of curve {cid!r} not increasing", row=rownum)
        rows.append(values)
    if not rows:
        raise CsvFormatError("file contains no data rows")
    return np.array(rows), starts, curves


def _groups(rows: np.ndarray, starts, curves: dict, p: int):
    """``read_groups_csv``'s result from checked data rows.

    Raises:
        CsvFormatError: if the curves do not share one grid of 2 or more points.
    """
    nrows = rows.shape[0]
    t = rows[:, 0]
    lengths = np.diff(np.append(starts, nrows))
    m = int(lengths[0])
    cids = list(curves)
    if m < 2:
        raise CsvFormatError(
            f"curve {cids[0]!r} has a single time point; the grid needs at least 2"
        )
    grid = Grid(t[:m].copy())
    n = len(cids)
    # curves before the first one of another length fill the first rows
    same_length = lengths == m
    full = n if same_length.all() else int(np.argmin(same_length))
    same = np.all(t[: full * m].reshape(full, m) == grid.points, axis=1)
    bad = full if np.all(same) else int(np.argmin(same))
    if bad < n:
        raise CsvFormatError(
            f"curve {cids[bad]!r} is sampled on a different grid than curve {cids[0]!r}"
        )

    values = rows[:, 1:].reshape(n, m, p)
    members: dict[str, list[int]] = {}
    for i, label in enumerate(curves.values()):
        members.setdefault(label, []).append(i)
    members = dict(sorted(members.items()))
    groups = {
        label: FunctionalGroup.from_values(label, values[idx], grid)
        for label, idx in members.items()
    }
    return groups, {label: [cids[i] for i in idx] for label, idx in members.items()}


def read_groups_csv(path):
    """Read the long-format curves CSV into groups keyed by the group column.

    Values are parsed with Python ``float``. A curve's rows must be contiguous,
    with strictly increasing ``t``, and every curve must share the first
    curve's grid of at least two points; blank records are skipped.

    A well-formed file is parsed by ``np.loadtxt`` in C and checked with
    whole-array operations. Only a file loadtxt refuses (``1_000``, non-ASCII
    digits, a whitespace-only record) or that fails a row check is read again
    by ``_record_rows``: a sequential checker of ``csv.reader`` records that
    raises at the first failing one, the one pass that words and numbers the
    error of a record. It is the slower pass: on a 2-vCPU Xeon VM a
    100,000-row, p = 2 file takes about 0.44 s there and 0.19 s by loadtxt.
    Both passes give the same groups for a file loadtxt accepts.

    Returns:
        (groups, curve_ids): groups is a dict label -> FunctionalGroup with
        labels in sorted order; curve_ids is a dict label -> the group's curve
        ids in file order.

    Raises:
        CsvFormatError: on schema violations. A violation found in a row
            carries the row's 1-based CSV record number (the header is record
            1, blank records count); the first offending record is reported.
    """
    with open(path, newline="") as fh:
        p = _read_header(csv.reader(fh))
        parsed = _loadtxt_rows(fh, p)
    if parsed is not None:
        return _groups(*parsed, p)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader)
        return _groups(*_record_rows(reader, p), p)
