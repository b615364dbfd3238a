"""Minimum covariance determinant estimation and robust Mahalanobis distance.

The estimator searches for the h-point subset whose covariance matrix has
minimal determinant (FAST-MCD: many elemental starts, concentration steps,
full iteration of the best few) and rescales the subset covariance with the
usual chi-square consistency factor so distances are comparable across fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError

__all__ = ["McdFit", "mcd_fit", "rmd", "default_h", "c_step", "consistency_factor"]

N_STARTS = 500
N_KEEP = 10
SCREEN_STEPS = 2
MAX_FULL_STEPS = 100
DET_RTOL = 1e-12


def default_h(n: int, d: int) -> int:
    """Maximal-breakdown subset size floor((n + d + 1) / 2)."""
    return (n + d + 1) // 2


def consistency_factor(h: int, n: int, d: int) -> float:
    """Chi-square scaling making the subset covariance consistent for Gaussians."""
    from scipy.stats import chi2  # imported here: scipy.stats dominates `import dirout`
    frac = h / n
    if frac >= 1.0:
        return 1.0
    q = chi2.ppf(frac, d)
    return frac / chi2.cdf(q, d + 2)


def _subset_stats(points: np.ndarray, subset: np.ndarray):
    sel = points[subset]
    loc = sel.mean(axis=0)
    diff = sel - loc
    cov = diff.T @ diff / len(subset)
    return loc, cov


def c_step(points: np.ndarray, subset: np.ndarray, h: int):
    """One concentration step: keep the h points closest under the subset fit.

    Returns (new_subset, location, covariance, determinant) where the fit is
    the one induced by the incoming subset; the determinant can only decrease
    along repeated applications.
    """
    loc, cov = _subset_stats(points, subset)
    det = float(np.linalg.det(cov))
    if det <= 0.0:
        return None, loc, cov, det
    diff = points - loc
    d2 = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
    new_subset = np.sort(np.argsort(d2, kind="stable")[:h])
    return new_subset, loc, cov, det


@dataclass(frozen=True, eq=False)
class McdFit:
    """Robust location/scatter from the minimum-determinant h-subset.

    Attributes:
        subset: sorted indices of the h retained points.
        location: mean of the subset.
        scatter: subset covariance (divisor h) times the consistency factor.
        determinant: determinant of the raw subset covariance (the minimized
            objective, before consistency scaling).
        consistency_factor: the applied chi-square scaling.
        h: subset size.
        n: sample size.
    """

    subset: np.ndarray
    location: np.ndarray
    scatter: np.ndarray
    determinant: float
    consistency_factor: float
    h: int
    n: int


def _elemental_subset(points: np.ndarray, rng, h: int) -> np.ndarray | None:
    """Draw a (d+1)-point start and expand it until its covariance is regular."""
    n, d = points.shape
    size = min(d + 1, n)
    subset = rng.choice(n, size=size, replace=False)
    while True:
        _, cov = _subset_stats(points, subset)
        if np.linalg.det(cov) > 0.0:
            step = c_step(points, subset, h)[0]
            return step
        if len(subset) == n:
            return None
        extra = rng.choice(np.setdiff1d(np.arange(n), subset), size=1)
        subset = np.concatenate([subset, extra])


def _iterate(points: np.ndarray, subset: np.ndarray, h: int, max_steps: int):
    """Concentrate a subset until the determinant stops decreasing."""
    best = None
    for _ in range(max_steps):
        new_subset, loc, cov, det = c_step(points, subset, h)
        if new_subset is None:
            # exact fit: h points on a lower-dimensional affine subspace
            return subset, loc, cov, 0.0
        if best is not None and best - det <= DET_RTOL * best:
            return subset, loc, cov, det
        best = det
        if np.array_equal(new_subset, subset):
            return subset, loc, cov, det
        subset = new_subset
    loc, cov = _subset_stats(points, subset)
    return subset, loc, cov, float(np.linalg.det(cov))


def mcd_fit(features, h: int | None = None, rng_seed: int = 0) -> McdFit:
    """Fit the minimum covariance determinant estimator.

    Args:
        features: (n, d) data matrix.
        h: subset size, d+1 <= h <= n; defaults to floor((n+d+1)/2).
        rng_seed: seed for the elemental starts; fixed seed gives a fixed fit.

    Raises:
        DegenerateDataError: if every candidate subset covariance is singular
            (and no exact lower-dimensional fit can be reported).
        ValueError: if h is out of range or n is too small.
    """
    points = np.asarray(features, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"features must be (n, d), got shape {points.shape}")
    n, d = points.shape
    if n < d + 2:
        raise ValueError(f"need at least d+2={d + 2} points, got {n}")
    if h is None:
        h = default_h(n, d)
    if not d + 1 <= h <= n:
        raise ValueError(f"h must satisfy {d + 1} <= h <= {n}, got {h}")

    if h == n:
        subset = np.arange(n)
        loc, cov = _subset_stats(points, subset)
        det = float(np.linalg.det(cov))
        if det <= 0.0:
            raise DegenerateDataError("full-sample covariance is singular")
        return McdFit(subset, loc, cov, det, 1.0, h, n)

    seeds = np.random.SeedSequence(rng_seed).spawn(N_STARTS)
    candidates = []
    for seq in seeds:
        rng = np.random.default_rng(seq)
        subset = _elemental_subset(points, rng, h)
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


def rmd(points: np.ndarray, fit: McdFit) -> np.ndarray:
    """Robust Mahalanobis distances of (N, d) points under an MCD fit's
    location and scatter: (N,)."""
    diff = points - fit.location
    d2 = np.einsum("ni,in->n", diff, np.linalg.solve(fit.scatter, diff.T))
    return np.sqrt(np.maximum(d2, 0.0))
