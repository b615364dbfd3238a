"""Data model for vector-valued curves sampled on a shared grid.

A dataset is a collection of groups; each group holds curves observed at the
same ordered time points. Integration against the grid uses trapezoidal
weights normalized to sum to one, i.e. a constant weight function on the
observation interval.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CsvFormatError
from .pointwise import PointwiseMoments, geometric_medians_batch, pointwise_moments

__all__ = [
    "Grid",
    "Curve",
    "FunctionalGroup",
    "integrate",
    "derivative_augment",
    "read_groups_csv",
    "write_groups_csv",
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


@dataclass(frozen=True, eq=False)
class Curve:
    """One p-variate functional observation: an (m, p) value matrix on a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ValueError(f"curve values must be (m, p), got shape {vals.shape}")
        if vals.shape[0] != self.grid.m:
            raise ValueError(
                f"curve has {vals.shape[0]} rows but grid has {self.grid.m} points"
            )
        if vals.shape[1] < 1:
            raise ValueError("curve needs at least one component")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False, init=False)
class FunctionalGroup:
    """A labeled collection of curves sharing one grid, held as one read-only
    (n, m, p) array of values; ``curves`` and the point-wise ``moments`` and
    ``medians`` are computed from it on first use and kept."""

    label: str
    values: np.ndarray
    grid: Grid

    def __init__(self, label: str, curves):
        curves = tuple(curves)
        if not curves:
            raise ValueError("group must contain at least one curve")
        grid = curves[0].grid
        p = curves[0].p
        for c in curves[1:]:
            if not grid.same_points(c.grid):
                raise ValueError(f"curves in group {label!r} are on different grids")
            if c.p != p:
                raise ValueError(f"curves in group {label!r} differ in dimension")
        self._hold(label, np.stack([c.values for c in curves]), grid)
        self.__dict__["curves"] = curves

    def _hold(self, label: str, values: np.ndarray, grid: Grid) -> None:
        values = values.view()
        values.flags.writeable = False
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "grid", grid)

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
        group = cls.__new__(cls)
        group._hold(label, np.ascontiguousarray(values), grid)
        return group

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[2]

    @cached_property
    def curves(self) -> tuple[Curve, ...]:
        """One ``Curve`` per row of ``values``."""
        return tuple(Curve(v, self.grid) for v in self.values)

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


def integrate(values, grid: Grid) -> float:
    """Weighted average of per-gridpoint values, approximating the mean over time.

    Args:
        values: length-m vector of integrand values at the grid points.
        grid: the grid carrying the normalized trapezoidal weights.

    Returns:
        sum_i w_i * values_i, exact for constant integrands.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.m,):
        raise ValueError(f"expected {grid.m} values, got shape {values.shape}")
    return float(grid.weights @ values)


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


def _format_float(x: float) -> str:
    return repr(float(x))


def write_groups_csv(groups, path) -> None:
    """Write groups to the long-format CSV schema.

    Header is ``curve_id,group,t,c1,...,cp``; one row per (curve, time point),
    times in grid order. Floats are written with full round-trip precision.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("nothing to write")
    p = groups[0].p
    grid = groups[0].grid
    for g in groups:
        if g.p != p or not g.grid.same_points(grid):
            raise ValueError("all groups must share dimension and grid")
    if len({g.label for g in groups}) != len(groups):
        raise ValueError("group labels must be distinct")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve_id", "group", "t"] + [f"c{k + 1}" for k in range(p)])
        for g in groups:
            width = max(4, len(str(g.n - 1)))
            for i, values in enumerate(g.values):
                cid = f"{g.label}-{i:0{width}d}"
                for j, t in enumerate(grid.points):
                    row = [cid, g.label, _format_float(t)]
                    row += [_format_float(v) for v in values[j]]
                    writer.writerow(row)


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

    Blank records are skipped. A record is checked for its field count, then
    for numbers, then for finite ones, then for its curve (contiguous rows,
    one group) and last for a t above the t before it in its curve.

    Raises:
        CsvFormatError: for the first record that fails a check, with its number.
    """
    rows: list[list[float]] = []
    starts: list[int] = []
    curves: dict[str, str] = {}  # curve id -> group, in file order
    cid = label = None
    for rownum, row in enumerate(reader, start=2):
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
    report = {
        "n_per_group": {label: g.n for label, g in groups.items()},
        "m": grid.m,
        "p": p,
        "curve_ids": {label: [cids[i] for i in idx] for label, idx in members.items()},
    }
    return groups, report


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
        (groups, report): groups is a dict label -> FunctionalGroup with labels
        in sorted order; report is a dict with keys ``n_per_group``, ``m``,
        ``p`` and ``curve_ids`` (label -> curve ids in file order).

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
