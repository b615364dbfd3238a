"""Minimum covariance determinant estimation and robust Mahalanobis distance.

The estimator searches for the h-point subset whose covariance matrix has
minimal determinant (FAST-MCD: many elemental starts, concentration steps,
full iteration of the best few) and rescales the subset covariance with the
usual chi-square consistency factor so distances are comparable across fits.
One stacked kernel takes the concentration steps of many subsets at once; the
screening steps of all elemental starts run through it together.
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


def _subset_fits(points: np.ndarray, subsets: np.ndarray):
    """Means, covariances (divisor k) and determinants of S index subsets of
    equal size k: (S, k) -> (S, d), (S, d, d), (S,)."""
    sel = points[subsets]
    loc = sel.mean(axis=1)
    diff = sel - loc[:, None, :]
    # a stacked matmul reproduces the bits of the one-subset ``diff.T @ diff``
    cov = np.matmul(diff.transpose(0, 2, 1), diff) / subsets.shape[1]
    return loc, cov, np.linalg.det(cov)


def _c_steps(points: np.ndarray, subsets: np.ndarray, h: int):
    """Concentration steps of S index subsets of equal size at once.

    Returns (new_subsets, location, covariance, determinant), stacked over the
    subsets: (S, h), (S, d), (S, d, d), (S,). Each fit is the one induced by
    its incoming subset, and each new subset holds the sorted indices of the h
    points closest under that fit. A row whose determinant is not positive is
    an exact fit and takes no step; its new subset row is -1.
    """
    loc, cov, det = _subset_fits(points, subsets)
    regular = ~(det <= 0.0)  # not det > 0: a nan determinant steps, as it did one subset at a time
    diff = points[None] - loc[regular, None, :]
    d2 = np.einsum("sni,sij,snj->sn", diff, np.linalg.inv(cov[regular]), diff)
    new_subsets = np.full((len(subsets), h), -1)
    new_subsets[regular] = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :h], axis=1)
    return new_subsets, loc, cov, det


def c_step(points: np.ndarray, subset: np.ndarray, h: int):
    """One concentration step: keep the h points closest under the subset fit.

    Returns (new_subset, location, covariance, determinant) where the fit is
    the one induced by the incoming subset; the determinant can only decrease
    along repeated applications. new_subset is None when the determinant is
    not positive (an exact fit).
    """
    new_subsets, loc, cov, det = _c_steps(points, np.asarray(subset)[None], h)
    det = float(det[0])
    return (None if det <= 0.0 else new_subsets[0]), loc[0], cov[0], det


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


def _expand(points: np.ndarray, rng, subset: np.ndarray) -> np.ndarray | None:
    """Grow a singular elemental start by random points until its covariance
    is regular; None if it reaches the whole sample without."""
    n = len(points)
    while len(subset) < n:
        extra = rng.choice(np.setdiff1d(np.arange(n), subset), size=1)
        subset = np.concatenate([subset, extra])
        if _subset_fits(points, subset[None])[2][0] > 0.0:
            return subset
    return None


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
    loc, cov, det = _subset_fits(points, subset[None])
    return subset, loc[0], cov[0], float(det[0])


def _screen(points: np.ndarray, h: int, rng_seed: int):
    """Elemental starts concentrated by SCREEN_STEPS c-steps, all starts at once.

    Each start draws from its own generator, so the draws do not depend on
    how the c-steps are batched. Returns the (A, h) subsets of the A starts
    that reached a regular covariance, in start order, and their determinants
    (0.0 for an exact fit).
    """
    n, d = points.shape
    seqs = np.random.SeedSequence(rng_seed).spawn(N_STARTS)
    rngs = [np.random.default_rng(seq) for seq in seqs]
    starts = np.array([rng.choice(n, size=d + 1, replace=False) for rng in rngs])
    stepped, _, _, det = _c_steps(points, starts, h)
    started = det > 0.0
    # a singular elemental draw grows one point at a time; grown starts step per size
    grown = {}
    for i in np.flatnonzero(~started):
        subset = _expand(points, rngs[i], starts[i])
        if subset is not None:
            grown[i] = subset
    for size in {len(subset) for subset in grown.values()}:
        index = [i for i, subset in grown.items() if len(subset) == size]
        stepped[index] = _c_steps(points, np.array([grown[i] for i in index]), h)[0]
        started[index] = True
    subsets = stepped[started]
    dets = np.zeros(len(subsets))
    live = np.arange(len(subsets))
    for _ in range(SCREEN_STEPS):
        new_subsets, _, _, det = _c_steps(points, subsets[live], h)
        regular = ~(det <= 0.0)
        subsets[live[regular]] = new_subsets[regular]
        live = live[regular]
    dets[live] = _subset_fits(points, subsets[live])[2]
    return subsets, dets


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
        loc, cov, det = _subset_fits(points, np.arange(n)[None])
        if det[0] <= 0.0:
            raise DegenerateDataError("full-sample covariance is singular")
        return McdFit(np.arange(n), loc[0], cov[0], float(det[0]), 1.0, h, n)

    subsets, dets = _screen(points, h, rng_seed)
    if not len(subsets):
        raise DegenerateDataError("all elemental starts were singular")

    best = None
    for i in np.argsort(dets, kind="stable")[:N_KEEP]:
        subset, loc, cov, det = _iterate(points, subsets[i], h, MAX_FULL_STEPS)
        if best is None or det < best[0]:
            best = (det, subset, loc, cov)

    det, subset, loc, cov = best
    if det <= 0.0 or np.linalg.det(cov) <= 0.0:
        raise DegenerateDataError("minimum-determinant subset covariance is singular")
    factor = consistency_factor(h, n, d)
    return McdFit(np.sort(subset), loc, cov * factor, det, factor, h, n)


def rmd(points: np.ndarray, fit: McdFit) -> np.ndarray:
    """Robust Mahalanobis distances of (N, d) points under an MCD fit's
    location and scatter: (N,).

    Each row is reduced on its own, by elementwise products and axis sums,
    so a point's distance does not depend on the other points in the call.
    """
    diff = points - fit.location
    inv = np.linalg.inv(fit.scatter)
    d2 = ((diff[:, :, None] * inv[None]).sum(axis=1) * diff).sum(axis=1)
    return np.sqrt(np.maximum(d2, 0.0))
