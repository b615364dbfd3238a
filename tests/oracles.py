"""Scalar single-cloud reference implementations used as independent oracles.

The library computes these quantities only in batch kernels; the plain
versions here check those kernels one point cloud at a time.
"""

import numpy as np

from dirout.errors import ConvergenceError, SingularScatterError
from dirout.outlyingness import COND_LIMIT, RIDGE_EPS


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
