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
best N_KEEP candidates one at a time. The library screens all starts in
stacked passes, iterates the best N_KEEP candidates as one stack, and must
return its every fit bit for bit.
"""

import numpy as np

from dirout.errors import ConvergenceError, DegenerateDataError, SingularScatterError
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


def _subset_stats(points: np.ndarray, subset: np.ndarray):
    sel = points[np.sort(subset)]
    loc = sel.mean(axis=0)
    diff = sel - loc
    cov = diff.T @ diff / len(subset)
    return loc, cov


def c_step(points: np.ndarray, subset: np.ndarray, h: int):
    """One concentration step of one subset: (new_subset or None, location,
    covariance, determinant)."""
    loc, cov = _subset_stats(points, subset)
    det = float(np.linalg.det(cov))
    if det <= 0.0:
        return None, loc, cov, det
    diff = points - loc
    d2 = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
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
        if np.linalg.det(cov) > 0.0:
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
    return subset, loc, cov, float(np.linalg.det(cov))


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
            candidates.append((float(np.linalg.det(cov)), subset))
    return candidates


def mcd_fit(features, h: int | None = None, rng_seed: int = 0) -> McdFit:
    """FAST-MCD one elemental start at a time, one c-step per call."""
    points = np.asarray(features, dtype=float)
    n, d = points.shape
    if h is None:
        h = default_h(n, d)
    loc, cov = _subset_stats(points, np.arange(n))
    det = float(np.linalg.det(cov))
    if det <= 0.0:
        raise DegenerateDataError("full-sample covariance is singular")
    if not det < np.inf:
        raise DegenerateDataError("full-sample covariance determinant is not finite")
    if h == n:
        return McdFit(np.arange(n), loc, cov, det, 1.0, h, n)

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
    if det <= 0.0 or np.linalg.det(cov) <= 0.0:
        raise DegenerateDataError("minimum-determinant subset covariance is singular")
    factor = consistency_factor(h, n, d)
    return McdFit(np.sort(subset), loc, cov * factor, det, factor, h, n)
