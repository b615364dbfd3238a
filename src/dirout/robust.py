"""Minimum covariance determinant estimation and robust Mahalanobis distance.

The estimator searches for the h-point subset whose covariance matrix has
minimal determinant (FAST-MCD: many elemental starts, concentration steps,
full iteration of the best few) and rescales the subset covariance with the
usual chi-square consistency factor so distances are comparable across fits.
One stacked kernel, `c_step`, takes the concentration steps of many subsets
at once: the screening steps of all elemental starts run through it together,
and so do the full iterations of the best few. A step keeps
the h points closest under the subset's fit; among points tied in distance at
the cut it keeps the lower indices, the choice of a stable sort. One
generator draws the starts: each is the d + 1 smallest of one row of keys.

The consistency factor needs the chi-square CDF and quantile at integer
degrees of freedom only, which are computed here with the standard library:
the lower incomplete gamma power series near the bulk, the closed forms of
Abramowitz & Stegun 26.4.4-26.4.5 in the upper tail, and Newton steps for the
quantile.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDataError

__all__ = ["McdFit", "mcd_fit", "rmd", "default_h", "c_step", "consistency_factor"]

N_STARTS = 500
N_KEEP = 10
SCREEN_STEPS = 2
MAX_FULL_STEPS = 100
DET_RTOL = 1e-12


def default_h(n: int, d: int) -> int:
    """Maximal-breakdown subset size floor((n + d + 1) / 2)."""
    return (n + d + 1) // 2


def _chi2_term(k: int, y: float) -> float:
    """e^-y y^(k/2) / Gamma(k/2 + 1) for an integer k >= 0, as a product of
    ratios y / i (even k) or y / (i + 1/2) (odd k), so that no large power
    or gamma value is formed."""
    if k % 2:
        term = 2.0 * math.sqrt(y / math.pi)
        for i in range(1, (k + 1) // 2):
            term *= y / (i + 0.5)
    else:
        term = 1.0
        for i in range(1, k // 2 + 1):
            term *= y / i
    return term * math.exp(-y)


def _chi2_cdf(x: float, k: int) -> float:
    """Chi-square CDF at x >= 0 with integer k >= 1 degrees of freedom: the
    regularized lower incomplete gamma P(k/2, x/2)."""
    y = 0.5 * x
    if x < k + 2:
        # P(a, y) = term(a) * sum_i y^i / ((a+1)...(a+i)); below y = a + 1 the
        # series terms fall from the first, and no subtraction cancels
        total = step = 1.0
        i = 1
        while step > 2.0**-60 * total:
            step *= y / (0.5 * k + i)
            total += step
            i += 1
        return _chi2_term(k, y) * total
    # A&S 26.4.4-26.4.5: P = erf(sqrt y) (odd k) or 1 (even k), less the
    # terms of k - 2, k - 4, ... down to 1 or 0; they sum to the upper tail,
    # which is small out here
    tail = math.fsum(_chi2_term(j, y) for j in range(k % 2, k - 1, 2))
    return (math.erf(math.sqrt(y)) if k % 2 else 1.0) - tail


def _chi2_ppf(p: float, k: int) -> float:
    """Chi-square quantile for 0 < p < 1 with integer k >= 1 degrees of
    freedom: Newton steps on `_chi2_cdf` from the Wilson-Hilferty
    approximation, halving the iterate where a step would reach x <= 0."""
    from statistics import NormalDist  # imported here: it adds 5 ms to `import dirout`

    c = 2.0 / (9.0 * k)
    x = k * max(1.0 - c + NormalDist().inv_cdf(p) * math.sqrt(c), 1e-3) ** 3
    for _ in range(200):
        # the density at x is term(k, x/2) * (k/2) / x
        new = x - (_chi2_cdf(x, k) - p) * x / (0.5 * k * _chi2_term(k, 0.5 * x))
        if new <= 0.0:
            new = 0.5 * x
        elif abs(new - x) <= 1e-10 * x:
            return new
        x = new
    raise ConvergenceError(f"chi-square quantile of {p} with {k} degrees of freedom", x)


def consistency_factor(h: int, n: int, d: int) -> float:
    """Chi-square scaling h/n / F_{d+2}(F_d^{-1}(h/n)) that makes the
    covariance of the h of n points of an MCD subset consistent for Gaussian
    data in d dimensions; exactly 1.0 at h = n.

    Raises:
        ValueError: unless d >= 1 and d + 1 <= h <= n.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if not d + 1 <= h <= n:
        raise ValueError(f"h must satisfy {d + 1} <= h <= {n}, got {h}")
    if h == n:
        return 1.0
    frac = h / n
    return frac / _chi2_cdf(_chi2_ppf(frac, d), d + 2)


def _subset_fits(points: np.ndarray, subsets: np.ndarray):
    """Means, covariances (divisor k) and determinants of S index subsets of
    equal size k: (S, k) -> (S, d), (S, d, d), (S,).

    Each row is summed in sorted index order, so a fit depends on the set of
    indices and not on the order they are listed in; otherwise the rounding
    of a near-singular covariance could give one set two determinants.
    """
    sel = points[np.sort(subsets, axis=1)]
    loc = sel.mean(axis=1)
    diff = sel - loc[:, None, :]
    # a stacked matmul reproduces the bits of the one-subset ``diff.T @ diff``
    cov = np.matmul(diff.transpose(0, 2, 1), diff) / subsets.shape[1]
    return loc, cov, np.linalg.det(cov)


def _squared_distances(points: np.ndarray, loc: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of (n, d) points under S fits at once:
    (S, d) locations and (S, d, d) inverse covariances -> (S, n).

    The d^2 terms (diff_i * inv_ij) * diff_j are added in i-major order,
    which gives the bits of ``einsum("sni,sij,snj->sn")`` and of the
    one-subset ``einsum("ni,ij,nj->n")``, with one (S, n) buffer for the term.
    """
    diff = points.T[:, None, :] - loc.T[:, :, None]  # (d, S, n)
    weights = inv.transpose(1, 2, 0)[..., None]  # (d, d, S, 1)
    d2 = diff[0] * weights[0, 0]
    d2 *= diff[0]
    term = np.empty_like(d2)
    d = len(diff)
    for k in range(1, d * d):
        i, j = divmod(k, d)
        np.multiply(diff[i], weights[i, j], out=term)
        term *= diff[j]
        d2 += term
    return d2


def _nearest(d2: np.ndarray, h: int) -> np.ndarray:
    """Sorted indices of the h smallest entries of each row of d2: (S, n) -> (S, h).

    Of entries tied at the h-th smallest value the lower indices are kept,
    and nan counts as larger than any number: the first h of a stable sort.
    """
    nearest = np.argpartition(d2, h - 1, axis=1)[:, :h]
    kth = d2[np.arange(len(d2)), nearest[:, -1], None]
    # argpartition keeps an arbitrary few of the entries tied with the h-th
    # smallest; only such rows (and a nan h-th smallest) need the stable sort
    tied = (d2 <= kth).sum(axis=1) != h
    if tied.any():
        nearest[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :h]
    nearest.sort(axis=1)
    return nearest


def c_step(points: np.ndarray, subsets: np.ndarray, h: int):
    """Concentration steps of S index subsets of equal size k at once: keep
    the h points closest under each subset's fit.

    Returns (new_subsets, location, covariance, determinant), stacked over the
    subsets: (S, h), (S, d), (S, d, d), (S,). Each fit is the one induced by
    its incoming subset, and the determinant can only decrease along repeated
    steps. Each new subset holds the sorted indices of the h points closest
    under that fit; of points tied in distance at the cut the lower indices
    are kept. A row whose determinant is not positive is an exact fit and
    takes no step; its new subset row is -1.
    """
    loc, cov, det = _subset_fits(points, subsets)
    regular = ~(det <= 0.0)  # not det > 0: a nan determinant steps, as it did one subset at a time
    d2 = _squared_distances(points, loc[regular], np.linalg.inv(cov[regular]))
    new_subsets = np.full((len(subsets), h), -1)
    new_subsets[regular] = _nearest(d2, h)
    return new_subsets, loc, cov, det


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


def _iterate(points: np.ndarray, subsets: np.ndarray, h: int, max_steps: int):
    """Concentrate S subsets as one stack until each determinant stops decreasing.

    A row retires, keeping its incoming subset and the fit that subset
    induced, at an exact fit (determinant set to 0.0), at a fall of at most
    DET_RTOL against its previous step, or when its subset does not change.
    A row still live after max_steps takes the fit of its current subset.
    Returns (S, h) subsets, (S, d) locations, (S, d, d) covariances and (S,)
    determinants.
    """
    s, d = len(subsets), points.shape[1]
    subsets = subsets.copy()
    loc, cov, det = np.empty((s, d)), np.empty((s, d, d)), np.empty(s)
    previous = np.full(s, np.nan)  # nan: the first step makes no comparison
    live = np.arange(s)
    for _ in range(max_steps):
        new_subsets, loc[live], cov[live], step = c_step(points, subsets[live], h)
        exact = step <= 0.0
        det[live] = np.where(exact, 0.0, step)
        done = exact | (previous[live] - step <= DET_RTOL * previous[live])
        done |= (new_subsets == subsets[live]).all(axis=1)
        previous[live] = step
        subsets[live[~done]] = new_subsets[~done]
        live = live[~done]
        if not len(live):
            return subsets, loc, cov, det
    loc[live], cov[live], det[live] = _subset_fits(points, subsets[live])
    return subsets, loc, cov, det


def _screen(points: np.ndarray, h: int, rng_seed: int):
    """Elemental starts concentrated by SCREEN_STEPS c-steps, all starts at once.

    One generator draws an (N_STARTS, n) array of uniform keys; start i is
    the d + 1 points with the smallest keys in row i. A start whose
    covariance is singular adds the point of its row's next key, one point
    at a time, and all starts still singular at one size step together.
    Returns the (A, h) subsets of the A starts that reached a regular
    covariance, in start order, and their determinants (0.0 for an exact fit).
    """
    n, d = points.shape
    keys = np.random.default_rng(rng_seed).random((N_STARTS, n))
    subsets = np.full((N_STARTS, h), -1)
    pending = np.arange(N_STARTS)
    for size in range(d + 1, n + 1):
        starts = np.argpartition(keys[pending], size - 1, axis=1)[:, :size]
        stepped, _, _, det = c_step(points, starts, h)
        regular = det > 0.0
        subsets[pending[regular]] = stepped[regular]
        pending = pending[~regular]
        if not len(pending):
            break
    subsets = np.delete(subsets, pending, axis=0)
    dets = np.zeros(len(subsets))
    live = np.arange(len(subsets))
    for _ in range(SCREEN_STEPS):
        new_subsets, _, _, det = c_step(points, subsets[live], h)
        regular = ~(det <= 0.0)
        subsets[live[regular]] = new_subsets[regular]
        live = live[regular]
    dets[live] = _subset_fits(points, subsets[live])[2]
    return subsets, dets


def mcd_fit(features, h: int | None = None, rng_seed: int = 0) -> McdFit:
    """Fit the minimum covariance determinant estimator.

    Args:
        features: (n, d) data matrix.
        h: subset size, an integer d+1 <= h <= n; defaults to floor((n+d+1)/2).
        rng_seed: seed of the generator of the elemental starts; fixed seed gives a fixed fit.

    Raises:
        DegenerateDataError: if the full-sample covariance is singular (then
            so is every subset's, and no start is drawn), if its determinant
            is not finite (a covariance that overflows), or if the best
            subset is an exact fit to a lower-dimensional affine subspace.
        ValueError: if features are not finite, h is not an integer in range
            or n is too small.
    """
    points = np.asarray(features, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"features must be (n, d), got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("features must be finite")
    n, d = points.shape
    if n < d + 2:
        raise ValueError(f"need at least d+2={d + 2} points, got {n}")
    if h is None:
        h = default_h(n, d)
    if not isinstance(h, numbers.Integral):
        raise ValueError(f"h must be an integer, got {h!r}")
    if not d + 1 <= h <= n:
        raise ValueError(f"h must satisfy {d + 1} <= h <= {n}, got {h}")

    loc, cov, det = _subset_fits(points, np.arange(n)[None])
    if det[0] <= 0.0:
        raise DegenerateDataError("full-sample covariance is singular")
    if not det[0] < np.inf:
        raise DegenerateDataError("full-sample covariance determinant is not finite")
    if h == n:
        return McdFit(np.arange(n), loc[0], cov[0], float(det[0]), 1.0, h, n)

    # every start reaches a regular covariance, as the whole sample at the latest
    subsets, dets = _screen(points, h, rng_seed)
    keep = np.argsort(dets, kind="stable")[:N_KEEP]
    subsets, locs, covs, dets = _iterate(points, subsets[keep], h, MAX_FULL_STEPS)
    # the first of equal smallest determinants; a nan wins only in row 0,
    # as it does under a loop's ``det < best``
    best = 0 if np.isnan(dets[0]) else np.nanargmin(dets)
    det = float(dets[best])
    if det <= 0.0:
        raise DegenerateDataError("minimum-determinant subset covariance is singular")
    factor = consistency_factor(h, n, d)
    return McdFit(np.sort(subsets[best]), locs[best], covs[best] * factor, det, factor, h, n)


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
