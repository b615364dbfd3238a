"""Reference implementations used as independent oracles.

The library computes these quantities only in batch kernels; the plain
versions here check those kernels one point cloud at a time. The plain
Weiszfeld batch kernel (geometric_medians_batch, with its own vertex test)
is the library's median kernel before it skipped repeated vertex tests and
finished stalled columns with Newton steps: every median it returns, the
library must return bit for bit. The looped FAST-MCD (mcd_fit, with its
one-subset c_step) takes one elemental start at a time: start i sorts row i
of the same (N_STARTS, n) uniform keys in full, takes the d+1 smallest and
grows by the next key while the covariance is singular, and it iterates the
best N_KEEP candidates one at a time, on the features scaled by the same
power of two. Each subset's covariance entries, determinant and inverse
take the library's arithmetic, written here for one matrix: its own
cofactor expansion (det_inv), not the library's stacked kernel. The library
screens all starts in stacked passes, iterates the best N_KEEP candidates
as one stack, and must return its every fit bit for bit. FM1 scores are counted here one grid point
and one direction at a time, from the library's own projections; the
einsum those projections replaced must give the same bits. So must the
three-operand einsum of rp_project, against RP1's and RP2's two-operand
contraction. The halfspace counts of every query against its reference row
come from the library's merge, so that the brute-force test sees the merge
and its tie pairs. The checks of two guarantees live here too, as the
library itself never runs them: check_transformation_invariance measures
how far VOM is from exact conjugation under a response and time transform
(acceptance criterion 02), and sample_gp draws the benchmark noise through
the library's _draw_gp, the path generate takes (criterion 05).
"""

import numpy as np

from dirout.classify import _fm_project, _sort_queries, _sorted_counts
from dirout.curves import FunctionalGroup, Grid
from dirout.errors import ConvergenceError, DegenerateDataError, SingularScatterError
from dirout.outlyingness import summarize_values
from dirout.pointwise import COND_LIMIT, RIDGE_EPS
from dirout.robust import (
    DET_RTOL,
    MAX_FULL_STEPS,
    N_KEEP,
    N_STARTS,
    SCREEN_STEPS,
    McdFit,
    consistency_factor,
    default_h,
)
from dirout.simulate import _draw_gp


def _as_cloud(cloud) -> np.ndarray:
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError(f"cloud must be (n >= 2, d), got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("cloud must be finite")
    return pts


def regularized_covariance(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance (divisor n-1), ridged if ill-conditioned.

    Raises:
        SingularScatterError: if the covariance is singular even after the ridge.
    """
    n, d = points.shape
    mean = points.mean(axis=0)
    cov = np.atleast_2d(np.cov(points, rowvar=False))
    trace = float(np.trace(cov))
    if trace <= 0.0:
        raise SingularScatterError("point cloud has zero scatter")
    try:
        cond = np.linalg.cond(cov)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        cov = cov + (RIDGE_EPS * trace / d) * np.eye(d)
    return mean, cov


def mahalanobis_depth(x, cloud) -> float:
    """Mahalanobis depth of x: 1 / (1 + squared distance to the sample mean).

    The scatter is the sample covariance with divisor n-1; a small ridge is
    added when the covariance is numerically singular.
    """
    pts = _as_cloud(cloud)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (pts.shape[1],):
        raise ValueError(f"x has shape {x.shape}, cloud dimension is {pts.shape[1]}")
    mean, cov = regularized_covariance(pts)
    diff = x - mean
    try:
        solved = np.linalg.solve(cov, diff)
    except np.linalg.LinAlgError:
        raise SingularScatterError("covariance singular after regularization") from None
    d2 = float(diff @ solved)
    return 1.0 / (1.0 + max(d2, 0.0))


def geometric_median(cloud, tol: float = 1e-9, max_iter: int = 500) -> np.ndarray:
    """Geometric (L1) median of a point cloud via Weiszfeld iteration.

    For d=1 the sample median is returned directly (midpoint convention for
    even n). Otherwise iterates from the component-wise mean until the step
    size drops below tol; when an iterate coincides with a data point, that
    point's singular term is skipped.

    Raises:
        ConvergenceError: if max_iter iterations do not reach the tolerance;
            the error carries the last iterate.
    """
    pts = _as_cloud(cloud)
    if pts.shape[1] == 1:
        return np.array([float(np.median(pts[:, 0]))])
    z = pts.mean(axis=0)
    scale = max(1.0, float(np.abs(pts).max()))
    for _ in range(max_iter):
        dist = np.linalg.norm(pts - z, axis=1)
        keep = dist > 1e-15 * scale
        if not np.any(keep):
            # all points coincide with the iterate
            return z
        w = np.zeros_like(dist)
        w[keep] = 1.0 / dist[keep]
        z_new = (w[:, None] * pts).sum(axis=0) / w.sum()
        step = float(np.linalg.norm(z_new - z))
        z = z_new
        if step <= tol:
            return z
    raise ConvergenceError(
        f"geometric median did not converge in {max_iter} iterations", last_iterate=z
    )


def _vertex_is_median(cloud: np.ndarray, k: int, floor: float) -> bool:
    """Exact optimality test: point k is a geometric median of its cloud iff
    the resultant of unit vectors from the other points has norm at most the
    multiplicity of the point."""
    u = cloud - cloud[k]
    norms = np.linalg.norm(u, axis=1)
    coincident = norms <= floor
    resultant = (u[~coincident] / norms[~coincident, None]).sum(axis=0)
    return float(np.linalg.norm(resultant)) <= coincident.sum() + 1e-12


def geometric_medians_batch(
    points: np.ndarray, tol: float = 1e-12, max_iter: int = 2000
) -> np.ndarray:
    """Geometric medians of B clouds at once: points is (n, B, d), result (B, d).

    Used for per-gridpoint medians of a reference group, iterating every grid
    point jointly. d=1 columns reduce to the sample median. The tolerance is
    relative to the data scale. Weiszfeld slows to a crawl when the median
    sits on a data point, so columns whose iterate approaches a point run the
    exact vertex optimality test and snap to it when it is the median.
    """
    n, B, d = points.shape
    if d == 1:
        return np.median(points, axis=0)
    z = points.mean(axis=0).copy()  # (B, d)
    scale = max(1.0, float(np.abs(points).max()))
    floor = 1e-14 * scale
    check_radius = 1e-3 * scale
    done = np.zeros(B, dtype=bool)
    steps = np.full(B, np.inf)
    for _ in range(max_iter):
        diff = points - z[None, :, :]
        dist = np.linalg.norm(diff, axis=2)  # (n, B)
        dmin = dist.min(axis=0)
        kmin = dist.argmin(axis=0)
        for b in np.flatnonzero(~done & (dmin < check_radius)):
            if _vertex_is_median(points[:, b, :], int(kmin[b]), floor):
                z[b] = points[kmin[b], b]
                steps[b] = 0.0
                done[b] = True
        if done.all():
            return z
        w = np.where(dist > floor, 1.0 / np.maximum(dist, floor), 0.0)
        wsum = w.sum(axis=0)  # (B,)
        degenerate = wsum == 0.0  # every point coincides with the iterate
        wsum[degenerate] = 1.0
        z_new = np.einsum("nb,nbd->bd", w, points) / wsum[:, None]
        z_new[degenerate] = z[degenerate]
        z_new[done] = z[done]
        steps = np.linalg.norm(z_new - z, axis=1)
        z = z_new
        if steps.max() <= tol * scale:
            return z
    if steps.max() <= 1e-9 * scale:
        return z
    raise ConvergenceError(
        f"batch geometric median did not converge in {max_iter} iterations",
        last_iterate=z,
    )


def _column_sums(columns: np.ndarray) -> np.ndarray:
    """Sums of the columns of a (k, c) array, one value after another, by
    numpy's reduce over the rows of a C-ordered block at least two columns
    wide, as the library reduces each (k, S) block of a stack of two or more
    subsets (numpy sums a (k, 1) block, or a column-major one, pairwise)."""
    k, c = columns.shape
    block = np.empty((k, 2 * c))
    block[:, :c] = block[:, c:] = columns
    return block.sum(axis=0)[:c]


def _subset_stats(points: np.ndarray, subset: np.ndarray):
    """Mean and covariance (divisor k) of one subset, summed in sorted index
    order, one point after another: each covariance entry (i <= j) is the
    sum of the k products of the two coordinates' differences."""
    sel = points[np.sort(subset)]
    k, d = sel.shape
    loc = _column_sums(sel) / k
    diff = sel - loc
    rows, cols = np.triu_indices(d)
    cov = np.empty((d, d))
    cov[rows, cols] = cov[cols, rows] = _column_sums(diff[:, rows] * diff[:, cols]) / k
    return loc, cov


def _minor(a: list, rows: tuple, cols: tuple, memo: dict) -> float:
    """Determinant of the submatrix of a (nested lists of floats) on rows x
    cols, expanded along its first row, signed terms added left to right;
    the empty minor is 1."""
    if not rows:
        return 1.0
    if len(rows) == 1:
        return a[rows[0]][cols[0]]
    if len(rows) == 2:
        (r, s), (c, t) = rows, cols
        return a[r][c] * a[s][t] - a[r][t] * a[s][c]
    if (rows, cols) not in memo:
        total = None
        for k, c in enumerate(cols):
            term = a[rows[0]][c] * _minor(a, rows[1:], cols[:k] + cols[k + 1:], memo)
            if total is None:
                total = term
            elif k % 2:
                total = total - term
            else:
                total = total + term
        memo[rows, cols] = total
    return memo[rows, cols]


def det_inv(a: np.ndarray):
    """Determinant and inverse (None where the determinant is 0 or less) of
    one symmetric d x d matrix, in Python floats, by cofactors for d <= 4,
    LAPACK above: the determinant along row 0 against the adjugate's first
    row, and the adjugate for i <= j, mirrored, over it."""
    d = len(a)
    if d > 4:
        det = np.linalg.det(a)
        return det, None if det <= 0.0 else np.linalg.inv(a)
    full, memo = tuple(range(d)), {}
    # the upper triangle, mirrored
    entries = [[float(a[min(i, j), max(i, j)]) for j in full] for i in full]

    def cofactor(i, j):
        m = _minor(entries, full[:j] + full[j + 1:], full[:i] + full[i + 1:], memo)
        return -m if (i + j) % 2 else m

    first = [cofactor(0, j) for j in full]
    det = entries[0][0] * first[0]
    for j in full[1:]:
        det = det + entries[0][j] * first[j]
    if det <= 0.0:
        return det, None
    adj = np.empty((d, d))
    for i in full:
        for j in full[i:]:
            adj[i, j] = adj[j, i] = first[j] if i == 0 else cofactor(i, j)
    return det, adj / det


def c_step(points: np.ndarray, subset: np.ndarray, h: int):
    """One concentration step of one subset: (new_subset or None, location,
    covariance, determinant)."""
    loc, cov = _subset_stats(points, subset)
    det, inv = det_inv(cov)
    if det <= 0.0:
        return None, loc, cov, det
    diff = points - loc
    d2 = np.einsum("ni,ij,nj->n", diff, inv, diff)
    new_subset = np.sort(np.argsort(d2, kind="stable")[:h])
    return new_subset, loc, cov, det


def _elemental_subset(points: np.ndarray, keys: np.ndarray, h: int) -> np.ndarray | None:
    """Take the d+1 points of smallest key, grow by the next key until the
    covariance is regular, and take one c-step."""
    n, d = points.shape
    order = np.argsort(keys)
    for size in range(d + 1, n + 1):
        subset = order[:size]
        _, cov = _subset_stats(points, subset)
        if det_inv(cov)[0] > 0.0:
            return c_step(points, subset, h)[0]
    return None


def _iterate(points: np.ndarray, subset: np.ndarray, h: int, max_steps: int):
    """Concentrate a subset until the determinant stops decreasing."""
    best = None
    for _ in range(max_steps):
        new_subset, loc, cov, det = c_step(points, subset, h)
        if new_subset is None:
            return subset, loc, cov, 0.0
        if best is not None and best - det <= DET_RTOL * best:
            return subset, loc, cov, det
        best = det
        if np.array_equal(new_subset, subset):
            return subset, loc, cov, det
        subset = new_subset
    loc, cov = _subset_stats(points, subset)
    return subset, loc, cov, det_inv(cov)[0]


def screen(points: np.ndarray, h: int, rng_seed: int) -> list:
    """(determinant, subset) of each elemental start that reached a regular
    covariance, in start order, after SCREEN_STEPS c-steps (0.0 for an exact fit)."""
    keys = np.random.default_rng(rng_seed).random((N_STARTS, len(points)))
    candidates = []
    for row in keys:
        subset = _elemental_subset(points, row, h)
        if subset is None:
            continue
        singular = False
        for _ in range(SCREEN_STEPS):
            new_subset, _, _, _ = c_step(points, subset, h)
            if new_subset is None:
                singular = True
                break
            subset = new_subset
        if singular:
            candidates.append((0.0, subset))
        else:
            _, cov = _subset_stats(points, subset)
            candidates.append((det_inv(cov)[0], subset))
    return candidates


def mcd_fit(features, h: int | None = None, rng_seed: int = 0) -> McdFit:
    """FAST-MCD one elemental start at a time, one c-step per call, on the
    features scaled by 2^-e, with 2^e their largest column range rounded up
    to a power of two; the location, scatter and determinant are scaled back."""
    points = np.asarray(features, dtype=float)
    n, d = points.shape
    if h is None:
        h = default_h(n, d)
    e = int(np.frexp(max(points[:, j].max() - points[:, j].min() for j in range(d)))[1])
    points = np.ldexp(points, -e)

    def scaled_back(subset, loc, cov, det, factor):
        with np.errstate(over="ignore", under="ignore"):
            det = float(np.ldexp(det, 2 * d * e))
        return McdFit(subset, np.ldexp(loc, e), np.ldexp(cov * factor, 2 * e), det, factor, h, n)

    loc, cov = _subset_stats(points, np.arange(n))
    det = det_inv(cov)[0]
    if det <= 0.0:
        raise DegenerateDataError("full-sample covariance is singular")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.ldexp(cov, 2 * e))):
            raise DegenerateDataError("full-sample covariance is not finite")
    if h == n:
        return scaled_back(np.arange(n), loc, cov, det, 1.0)

    candidates = screen(points, h, rng_seed)
    if not candidates:
        raise DegenerateDataError("all elemental starts were singular")

    candidates.sort(key=lambda c: c[0])
    best = None
    for det, subset in candidates[:N_KEEP]:
        subset, loc, cov, det = _iterate(points, subset, h, MAX_FULL_STEPS)
        if best is None or det < best[0]:
            best = (det, subset, loc, cov)

    det, subset, loc, cov = best
    if det <= 0.0:
        raise DegenerateDataError("minimum-determinant subset covariance is singular")
    return scaled_back(np.sort(subset), loc, cov, det, consistency_factor(h, n, d))


def halfspace_counts(sorted_ref: np.ndarray, queries: np.ndarray):
    """Exact halfspace counts (#{ref <= q}, #{ref >= q}) of (R, N) queries
    against (R, n) ascending reference rows, row by row."""
    sorted_q, flat = _sort_queries(queries)
    counts = np.empty((2, queries.size), dtype=np.intp)
    counts[:, flat] = _sorted_counts(sorted_ref, sorted_q)
    return counts.reshape((2,) + queries.shape)


def fm_project(values: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Projections of (N, m, p) curves onto (D, p) directions: (m, D, N)."""
    return np.einsum("nmk,dk->mdn", values, dirs, order="C")


def rp_project(values: np.ndarray, dirs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Projections of (N, m, p) curves onto (D, m, p) random-projection
    directions under the grid weights: (N, D)."""
    return np.einsum("dmk,m,nmk->nd", dirs, weights, values)


def fm1_scores(references, queries: np.ndarray, dirs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """FM1 scores (N, K) of (N, m, p) queries against K (n, m, p) reference
    arrays: at each grid point the least over directions of
    min(#{ref <= q}, #{ref >= q}) / n, counted by brute force, integrated
    row by row."""
    proj_q = _fm_project(queries, dirs)
    m, D, N = proj_q.shape
    scores = np.empty((N, len(references)))
    for g, ref in enumerate(references):
        proj_ref = _fm_project(ref, dirs)
        n = proj_ref.shape[2]
        depth = np.empty((N, m))
        for t in range(m):
            counts = np.empty((D, N), dtype=int)
            for d in range(D):
                ref_td, q_td = proj_ref[t, d][None, :], proj_q[t, d][:, None]
                counts[d] = np.minimum(
                    np.count_nonzero(ref_td <= q_td, axis=1), np.count_nonzero(ref_td >= q_td, axis=1)
                )
            depth[:, t] = counts.min(axis=0) / n
        for j in range(N):
            scores[j, g] = (depth[j] * weights).sum()
    return scores


def _apply_transform(
    values: np.ndarray, a0: np.ndarray, b: np.ndarray, f: np.ndarray, perm: np.ndarray
) -> np.ndarray:
    """Apply x(t_i) -> f(t_{g(i)}) * A0 x(t_{g(i)}) + b along the last two axes."""
    out = f[:, None] * (values @ a0.T) + b[None, :]
    return out[..., perm, :]


def check_transformation_invariance(
    values: np.ndarray,
    reference: FunctionalGroup,
    a0: np.ndarray,
    b=None,
    f=None,
    g=None,
) -> float:
    """Deviation of VOM from exact conjugation under a response/time transform.

    Transforms the (N, m, p) batch of curves and every reference curve by
    ``T(x)(t_i) = f(t_{g(i)}) * A0 x(t_{g(i)}) + b``, recomputes VOM from
    scratch, and returns ``max |VOM_transformed - A0 VOM A0^T|`` over the
    batch. On uniform grids with measure-preserving re-indexings (identity,
    reversal) the deviation is at the level of solver tolerances.

    Args:
        a0: orthogonal (p, p) matrix.
        b: finite constant shift, default zero.
        f: positive, finite scale values at the grid points, default all ones.
        g: integer permutation of grid indices, default identity.
    """
    p, grid = reference.p, reference.grid
    m = grid.m
    a0 = np.asarray(a0, dtype=float)
    if a0.shape != (p, p) or not (np.max(np.abs(a0.T @ a0 - np.eye(p))) <= 1e-10):
        raise ValueError("a0 must be orthogonal (p x p)")
    b = np.zeros(p) if b is None else np.asarray(b, dtype=float)
    if b.shape != (p,) or not np.isfinite(b).all():
        raise ValueError(f"b must be a finite length-{p} vector")
    f = np.ones(m) if f is None else np.asarray(f, dtype=float)
    if f.shape != (m,) or not np.all((f > 0.0) & (f < np.inf)):
        raise ValueError("f must be positive and finite at every grid point")
    perm = np.arange(m) if g is None else np.asarray(g)
    if perm.dtype.kind not in "iu" or sorted(perm.tolist()) != list(range(m)):
        raise ValueError("g must be a permutation of grid indices")

    vom = summarize_values(values, reference).vom
    t_ref = FunctionalGroup.from_values(
        reference.label, _apply_transform(reference.values, a0, b, f, perm), grid
    )
    t_vom = summarize_values(_apply_transform(values, a0, b, f, perm), t_ref).vom
    return float(np.max(np.abs(t_vom - a0 @ vom @ a0.T)))


def sample_gp(grid: Grid, n: int, p: int, seed: int = 0) -> FunctionalGroup:
    """Sample n zero-mean curves of the benchmark noise for p = 1 or 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    values = _draw_gp(grid, n, p, np.random.default_rng(seed))
    return FunctionalGroup.from_values("gp", values, grid)
