"""Point-wise building blocks evaluated across the grid: random unit
directions for random Tukey depth, and the geometric (spatial) medians that
anchor the direction of outlyingness.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = ["geometric_medians_batch", "random_unit_directions"]


def random_unit_directions(n_dirs: int, d: int, rng) -> np.ndarray:
    """Draw n_dirs unit vectors uniformly on the (d-1)-sphere."""
    dirs = rng.standard_normal((n_dirs, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return dirs / norms


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
