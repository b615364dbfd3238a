"""Minimum covariance determinant estimation and robust Mahalanobis distance.

The estimator searches for the h-point subset whose covariance matrix has
minimal determinant (FAST-MCD: many elemental starts, concentration steps,
full iteration of the best few) and rescales the subset covariance with the
usual chi-square consistency factor so distances are comparable across fits.
One stacked kernel, `c_step`, takes the concentration steps of many subsets
at once: the screening steps of all elemental starts run through it together,
and so do the full iterations of the best few. The starts reach the same
subsets within a few steps, so the screening passes `c_step` each distinct
subset once and copies the results to the subset's repeats, in its steps and
in its final fits alike. A step keeps
the h points closest under the subset's fit; among points tied in distance at
the cut it keeps the lower indices, the choice of a stable sort. One
generator draws the starts: each is the d + 1 smallest of one row of keys.
At d <= 4 no BLAS or LAPACK call runs (see ``pointwise.det_inv``), and the
fit runs on the data scaled exactly by a power of two taken from its spread.

The consistency factor needs the chi-square CDF and quantile at integer
degrees of freedom only, which are computed here with the standard library:
the lower incomplete gamma power series near the bulk, the closed forms of
Abramowitz & Stegun 26.4.4-26.4.5 in the upper tail, and Newton steps for the
quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateDataError, check_integer
from .pointwise import det_inv, quadratic_forms

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
    """Means, covariances (divisor k), determinants and inverses of S index
    subsets of equal size k: (S, k) -> (S, d), (S, d, d), (S,), (S, d, d).

    Each row is summed in sorted index order, so a fit depends on the set of
    indices and not on the order they are listed in; otherwise the rounding
    of a near-singular covariance could give one set two determinants. The
    rows are sorted only when one of them is not strictly ascending: the
    subsets that ``c_step`` returns already are. A sorted row that is still
    not strictly ascending repeats an index, and raises ValueError.

    Every row is computed, repeats too; the screening passes each distinct
    row once, to its steps and to its final fits (see ``_distinct_rows``).

    The points are gathered into a (d, k, S) stack whatever the layout of
    ``points``. Each mean and each covariance entry (i <= j) reduces a (k, S)
    block over k, which numpy does one point after another along contiguous
    rows; it would sum a (k, 1) block pairwise, so a one-row stack is
    computed as two equal rows.
    """
    ascending = np.all(subsets[:, 1:] > subsets[:, :-1])
    order = subsets if ascending else np.sort(subsets, axis=1)
    if not (ascending or np.all(order[:, 1:] > order[:, :-1])):
        raise ValueError("a subset row lists an index more than once")
    s = len(order)
    index = order.T if s != 1 else np.repeat(order.T, 2, axis=1)  # a one-row stack as two rows
    sel = np.take(np.ascontiguousarray(points.T), index, axis=1)
    loc = sel.mean(axis=1)
    sel -= loc[:, None, :]
    d, k, _ = sel.shape
    cov = np.empty((s, d, d))
    prod = np.empty(sel.shape[1:])
    for i in range(d):
        for j in range(i, d):
            np.multiply(sel[i], sel[j], out=prod)
            cov[:, i, j] = cov[:, j, i] = prod.sum(axis=0)[:s] / k
    return (loc[:, :s].T, cov, *det_inv(cov))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """An int64 key per row of an (S, k) integer stack: equal rows get equal
    keys, and distinct rows seldom share one. Entry j is weighted by the
    (j + 1)-th power of the 64-bit golden-ratio multiplier; products and sums
    wrap, exactly."""
    weights = np.cumprod(np.full(rows.shape[1], 0x9E3779B97F4A7C15 - 2**64, dtype=np.int64))
    return rows @ weights


def _distinct_rows(rows: np.ndarray):
    """Group the identical rows of an (S, k) stack: returns (first, inverse),
    the index of one row of each group and each row's group, so that
    ``rows[first][inverse]`` equals ``rows``.

    The keys only order the rows, by a stable sort; a row joins the group of
    the row before it in that order only if the two share a key and are
    equal element by element. So distinct rows that share a key are still
    computed apart (and equal rows that such a row separates in the order
    form two groups, which only costs a repeat).
    """
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(rows), dtype=bool)
    tie = np.flatnonzero(ranked[1:] == ranked[:-1]) + 1
    new[tie] = (rows[order[tie]] != rows[order[tie - 1]]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _nearest(d2: np.ndarray, h: int, scratch: np.ndarray) -> np.ndarray:
    """Sorted indices of the h smallest entries of each row of d2: (S, n) -> (S, h).

    Of entries tied at the h-th smallest value the lower indices are kept,
    and nan counts as larger than any number: the first h of a stable sort.
    Only rows with more than h entries at or below their h-th smallest value
    (ties at the cut), or none (a nan h-th smallest), take the stable sort.
    The partition runs on a copy of d2 in ``scratch``, an (S, n) float
    buffer that is overwritten.
    """
    s, n = d2.shape
    np.copyto(scratch, d2)
    scratch.partition(h - 1, axis=1)
    kth = scratch[:, h - 1, None]
    within = d2 <= kth
    flat = np.flatnonzero(within)
    # with no nan h-th smallest every row holds at least h entries
    if len(flat) == s * h and not np.isnan(kth).any():
        nearest = flat.reshape(s, h)
        nearest -= np.arange(0, s * n, n)[:, None]
        return nearest
    tied = np.count_nonzero(within, axis=1) != h
    flat = np.flatnonzero(within[~tied])
    nearest = np.empty((s, h), dtype=np.intp)
    nearest[~tied] = flat.reshape(-1, h) - np.arange(0, len(flat) // h * n, n)[:, None]
    nearest[tied] = np.sort(np.argsort(d2[tied], axis=1, kind="stable")[:, :h], axis=1)
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
    takes no step; its new subset row is -1. The rows may list their indices
    in any order. Every row is computed, repeats too, and a row's results do
    not depend on the other rows of the stack.

    The fits sum each subset one point after another in sorted index order
    (see ``_subset_fits``) and take their determinants and inverses from
    ``det_inv``. The distances take the (d, S, n) differences from a
    C-ordered (d, n) copy of the points, so each coordinate is one
    contiguous row whatever the layout of ``points``; a subtraction gives
    the same bits in any layout, and ``quadratic_forms`` adds the d^2
    products in i-major order.

    A step allocates one (d + 2, S, n) workspace: the differences, then the
    distances and the term buffer of ``quadratic_forms``, whose slot then
    holds the selection's partition copy. Separate temporaries, freed and
    allocated again at every step, let glibc return their pages to the
    system and fault them back in at the next step; one large chunk lifts
    its dynamic mmap and trim thresholds once, and the pages stay in the
    heap while the step's other temporaries keep the heap top under the
    trim threshold. Each row is computed on its own, so the buffers change
    no bit.

    Raises:
        ValueError: if ``subsets`` is not a 2-D (S, k) stack of integers
            (pass one subset as ``subset[None]``), if an index lies outside
            [0, n) (-1, the new subset row of an exact fit, is no index), if
            a row lists an index twice, or if h lies outside [1, n].
    """
    subsets = np.asarray(subsets)
    n = len(points)
    if subsets.ndim != 2:
        raise ValueError(f"subsets must be an (S, k) stack of index rows, got shape {subsets.shape}; "
                         "pass one subset as subset[None]")
    if subsets.dtype.kind not in "iu":
        raise ValueError(f"subsets must hold integer indices, got dtype {subsets.dtype}")
    if subsets.size and not (subsets.min() >= 0 and subsets.max() < n):
        raise ValueError(f"subset indices must lie in [0, {n}), got {subsets.min()} to {subsets.max()}")
    if not 1 <= h <= n:
        raise ValueError(f"h must satisfy 1 <= h <= {n}, got {h}")
    loc, cov, det, inv = _subset_fits(points, subsets)
    coords = np.ascontiguousarray(points.T)
    d = len(coords)
    # the workspace: differences, distances, term buffer (then partition copy)
    work = np.empty((d + 2, len(subsets), n))
    diff = np.subtract(coords[:, None, :], loc.T[:, :, None], out=work[:d])
    with np.errstate(invalid="ignore", over="ignore"):  # an exact fit's inverse is not finite
        d2 = quadratic_forms(diff, inv.transpose(1, 2, 0)[..., None], out=work[d:])
    new_subsets = _nearest(d2, h, work[d + 1])
    new_subsets[det <= 0.0] = -1  # an exact fit takes no step; a nan determinant steps
    return new_subsets, loc, cov, det


@dataclass(frozen=True, eq=False)
class McdFit:
    """Robust location/scatter from the minimum-determinant h-subset.

    Attributes:
        subset: sorted indices of the h retained points; h is its length.
        location: mean of the subset.
        scatter: subset covariance (divisor h) times the consistency factor.
        determinant: determinant of the raw subset covariance (the minimized
            objective, before consistency scaling); inf or 0.0 where it lies
            beyond the float range, which does not affect the fit.
        consistency_factor: the applied chi-square scaling.
        n: sample size.
    """

    subset: np.ndarray
    location: np.ndarray
    scatter: np.ndarray
    determinant: float
    consistency_factor: float
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
    loc[live], cov[live], det[live] = _subset_fits(points, subsets[live])[:3]
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
        # a copy, so that the (A, n) partition is freed before the step
        starts = np.argpartition(keys, size - 1, axis=1)[:, :size].copy()
        stepped, _, _, det = c_step(points, starts, h)
        regular = det > 0.0
        subsets[pending[regular]] = stepped[regular]
        pending, keys = pending[~regular], keys[~regular]
        if not len(pending):
            break
    subsets = np.delete(subsets, pending, axis=0)
    dets = np.zeros(len(subsets))
    live = np.arange(len(subsets))
    for _ in range(SCREEN_STEPS):
        # the starts reach the same subsets: each distinct one steps once
        first, inverse = _distinct_rows(subsets[live])
        new_subsets, _, _, det = c_step(points, subsets[live[first]], h)
        regular = ~(det[inverse] <= 0.0)
        subsets[live[regular]] = new_subsets[inverse[regular]]
        live = live[regular]
    # the screened subsets repeat; each distinct one is fitted once
    first, inverse = _distinct_rows(subsets[live])
    dets[live] = _subset_fits(points, subsets[live[first]])[2][inverse]
    return subsets, dets


def mcd_fit(features, h: int | None = None, rng_seed: int = 0) -> McdFit:
    """Fit the minimum covariance determinant estimator.

    The fit runs on the features scaled by 2^-e, with 2^e their largest
    column range rounded up to a power of two, and its results are scaled
    back; scaling by a power of two is exact.

    Args:
        features: (n, d) data matrix.
        h: subset size, an integer d+1 <= h <= n; defaults to floor((n+d+1)/2).
            At h = n every start steps to the whole sample, so the fit is
            the classical one, to the bit.
        rng_seed: seed of the generator of the elemental starts, a
            non-negative integer; fixed seed gives a fixed fit.

    Raises:
        DegenerateDataError: if the full-sample covariance is singular (then
            so is every subset's, and no start is drawn), if it is not
            finite in the data's units, or if the best subset is an exact fit
            to a lower-dimensional affine subspace.
        ValueError: if features are not finite, h is not an integer in range,
            rng_seed is not a non-negative integer or n is too small.
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
    check_integer("h", h)
    if not d + 1 <= h <= n:
        raise ValueError(f"h must satisfy {d + 1} <= h <= {n}, got {h}")
    check_integer("rng_seed", rng_seed)
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be non-negative, got {rng_seed}")

    # the largest column range lies in [2^(e-1), 2^e); e = 0 for a range of 0 or inf
    e = int(np.frexp(np.ptp(points, axis=0).max())[1])
    points = np.ldexp(points, -e)
    cov, det = _subset_fits(points, np.arange(n)[None])[1:3]
    if det[0] <= 0.0:
        raise DegenerateDataError("full-sample covariance is singular")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.ldexp(cov, 2 * e))):
            raise DegenerateDataError("full-sample covariance is not finite")
    # every start reaches a regular covariance, as the whole sample at the latest
    subsets, dets = _screen(points, h, rng_seed)
    keep = np.argsort(dets, kind="stable")[:N_KEEP]
    subsets, locs, covs, dets = _iterate(points, subsets[keep], h, MAX_FULL_STEPS)
    best = np.argmin(dets)  # the first of equal smallest determinants, all finite
    if dets[best] <= 0.0:
        raise DegenerateDataError("minimum-determinant subset covariance is singular")
    subset, loc, cov, det = np.sort(subsets[best]), locs[best], covs[best], dets[best]
    factor = consistency_factor(h, n, d)
    with np.errstate(over="ignore", under="ignore"):
        det = float(np.ldexp(det, 2 * d * e))  # inf or 0.0 beyond the float range
    return McdFit(subset, np.ldexp(loc, e), np.ldexp(cov * factor, 2 * e), det, factor, n)


def rmd(points: np.ndarray, fit: McdFit) -> np.ndarray:
    """Robust Mahalanobis distances of (N, d) points under an MCD fit's
    location and scatter: (N,).

    Each row is reduced on its own by ``quadratic_forms``, so a point's
    distance does not depend on the other points in the call. The
    differences and the scatter are scaled by 2^-e and 2^-2e first, with e
    taken from the scatter's diagonal.

    Raises:
        ValueError: if the points are not an (N, d) array for the fit's d,
            or not finite.
    """
    points = np.asarray(points, dtype=float)
    d = len(fit.location)
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"points must be (N, {d}) for this fit, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    e = (int(np.frexp(np.diagonal(fit.scatter).max())[1]) + 1) // 2
    inv = det_inv(np.ldexp(fit.scatter, -2 * e))[1]
    d2 = quadratic_forms(np.ldexp(points - fit.location, -e).T, inv)
    return np.sqrt(np.maximum(d2, 0.0))
