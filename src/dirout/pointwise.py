"""Point-wise building blocks across the grid: random unit directions for
random Tukey depth, the moments and geometric medians that ``FunctionalGroup``
computes once per group, the kernels of every squared Mahalanobis distance
and every Euclidean one, the small-matrix determinants and inverses of
FAST-MCD, and the jittered Cholesky factor of the covariances of the
simulated noise and of the random-projection directions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InvalidCovarianceError, SingularScatterError

__all__ = ["PointwiseMoments", "pointwise_moments", "quadratic_forms", "det_inv", "cholesky_with_jitter",
           "geometric_medians_batch", "random_unit_directions", "distances"]

# Ridge applied to near-singular point-wise covariances: eps * trace(S)/p on
# the diagonal, only where the eigenvalue ratio exceeds COND_LIMIT.
RIDGE_EPS = 1e-10
COND_LIMIT = 1e12

# Weiszfeld's step tolerance (times the data scale) and iteration cap
_TOL = 1e-12
_MAX_ITER = 2000


class PointwiseMoments(NamedTuple):
    """Point-wise means and ridged inverse covariances of a reference group.
    Where all its curves take one value, the inverse covariance (so every
    outlyingness) is zero and ``weights`` renormalizes over the other points."""

    means: np.ndarray  # (m, p)
    inv_cov: np.ndarray  # (m, p, p)
    weights: np.ndarray  # (m,), the grid weights passed in when no point is flat


def pointwise_moments(values: np.ndarray, weights: np.ndarray, label: str) -> PointwiseMoments:
    """Moments of the (n, m, p) curve values of the group ``label`` whose
    grid has integration weights ``weights``."""
    n, _, p = values.shape
    means = values.mean(axis=0)
    centered = values - means[None]
    cov = np.einsum("nmi,nmj->mij", centered, centered) / (n - 1)
    flat = (values == values[0]).all(axis=0).all(axis=1)
    if flat.all():
        raise SingularScatterError(f"group {label!r} has zero scatter at every grid point")
    if flat.any():
        cov[flat] = np.eye(p)  # a placeholder; its inverse is zeroed below
        weights = np.where(flat, 0.0, weights) / weights[~flat].sum()
    traces = np.trace(cov, axis1=1, axis2=2)
    eig = np.linalg.eigvalsh(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(eig[:, 0] > 0.0, eig[:, -1] / eig[:, 0], np.inf)
    needs_ridge = cond > COND_LIMIT
    if np.any(needs_ridge):
        ridge = (RIDGE_EPS * traces / p)[:, None, None] * np.eye(p)[None]
        cov = np.where(needs_ridge[:, None, None], cov + ridge, cov)
    try:
        inv_cov = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        raise SingularScatterError("point-wise covariance singular after ridge") from None
    inv_cov[flat] = 0.0
    return PointwiseMoments(means, inv_cov, weights)


def quadratic_forms(diff: np.ndarray, inv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Quadratic forms sum_ij diff[i] * inv[i, j] * diff[j] of (d, ...)
    differences under (d, d, ...) matrices that broadcast against ``diff[0]``.

    The d^2 terms (diff_i * inv_ij) * diff_j are added in i-major order, with
    one buffer for the term. That gives the bits of the einsums
    ``"sni,sij,snj->sn"``, ``"ni,ij,nj->n"`` and ``"nmi,mij,nmj->nm"``, which
    add into a zeroed output: they differ only where every term is -0.0,
    which needs a negative or -0.0 inv_00.

    ``out``, a (2, ...) float buffer of the broadcast shape, takes the total
    in ``out[0]`` and the term in ``out[1]``, and ``out[0]`` is returned; the
    bits are those of a call without it, which allocates the two.
    """
    d = len(diff)
    total = np.multiply(diff[0], inv[0, 0], out=None if out is None else out[0])
    term = np.empty_like(total) if out is None else out[1]
    total *= diff[0]
    for k in range(1, d * d):
        i, j = divmod(k, d)
        np.multiply(diff[i], inv[i, j], out=term)
        term *= diff[j]
        total += term
    return total


def _minor(mats: np.ndarray, rows: tuple, cols: tuple, memo: dict) -> np.ndarray:
    """Determinants of the rows x cols submatrices, expanded along their
    first row, signed terms added left to right; memo holds one call's."""
    if not rows:
        return 1.0
    if len(rows) == 1:
        return mats[..., min(rows[0], cols[0]), max(rows[0], cols[0])]
    if (rows, cols) not in memo:
        total = None
        for k, c in enumerate(cols):
            term = _minor(mats, rows[:1], (c,), memo) * _minor(mats, rows[1:], cols[:k] + cols[k + 1:], memo)
            total = term if total is None else total - term if k % 2 else total + term
        memo[rows, cols] = total
    return memo[rows, cols]


def det_inv(mats: np.ndarray):
    """Determinants and inverses of stacked symmetric (..., d, d) matrices:
    (...), (..., d, d). Only the upper triangle is read.

    For d <= 4 both are fixed-order cofactor formulas in elementwise numpy,
    so a matrix's bits depend neither on the stack nor on the BLAS: the
    adjugate for i <= j, mirrored, over the determinant along row 0
    (non-finite where that is 0). A larger d takes LAPACK, with nan inverses
    where its determinant is 0.
    """
    d = mats.shape[-1]
    if d > 4:
        det = np.linalg.det(mats)
        inv = np.full(mats.shape, np.nan)
        nonzero = det != 0.0
        inv[nonzero] = np.linalg.inv(mats[nonzero])
        return det, inv
    full = tuple(range(d))
    memo = {}
    adj = {}
    for i in full:
        for j in full[i:]:
            m = _minor(mats, full[:j] + full[j + 1:], full[:i] + full[i + 1:], memo)
            adj[i, j] = -m if (i + j) % 2 else m
    det = None
    for j in full:
        term = mats[..., 0, j] * adj[0, j]
        det = term if det is None else det + term
    inv = np.empty(mats.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for (i, j), a in adj.items():
            np.divide(a, det, out=inv[..., i, j])
            inv[..., j, i] = inv[..., i, j]
    return det, inv


def cholesky_with_jitter(matrix: np.ndarray) -> np.ndarray:
    """Cholesky factor, adding diagonal jitter 1e-10*max(diag), escalated x10 up to 3 times."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * float(np.max(np.diag(matrix)))
    eye = np.eye(matrix.shape[0])
    for _ in range(4):
        try:
            return np.linalg.cholesky(matrix + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise InvalidCovarianceError("covariance not positive definite after jitter escalation")


def random_unit_directions(n_dirs: int, d: int, rng) -> np.ndarray:
    """Draw n_dirs unit vectors uniformly on the (d-1)-sphere."""
    dirs = rng.standard_normal((n_dirs, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return dirs / norms


def distances(points: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|points[:, i, b] - z[:, b]| for component-major (d, n, B) points and
    (d, B) z: (n, B).

    Gives np.linalg.norm's bits on the (n, B, d) layout: below 8 components
    numpy's add.reduce sums left to right, as the running sum of squares here
    does; from 8 on it takes np.linalg.norm itself, of the deviations in C
    order. Those are copied only when ``points`` is component-major; the
    (d, n, B) transpose of a C-ordered (n, B, d) array subtracts into that
    order already. ``out``, a (2, n, B) buffer, takes the distances in
    ``out[0]``, which is returned, and a component's square in ``out[1]``.
    """
    d = len(points)
    if d >= 8:
        return np.linalg.norm(np.ascontiguousarray(np.moveaxis(points - z[:, None, :], 0, -1)), axis=2)
    sq, c = np.empty((2,) + points.shape[1:]) if out is None else out
    np.subtract(points[0], z[0], out=sq)
    np.multiply(sq, sq, out=sq)
    for k in range(1, d):
        np.subtract(points[k], z[k], out=c)
        np.multiply(c, c, out=c)
        sq += c
    return np.sqrt(sq, out=sq)


def _vertex_tests(comps: np.ndarray, cols: np.ndarray, verts: np.ndarray, floor: float, out: np.ndarray):
    """Exact optimality tests of the clouds comps[:, :, cols] of a (d, n, B)
    block: vertex verts[f] is a geometric median of its cloud iff the
    resultant of unit vectors from the other points has norm at most the
    multiplicity of the point. One bool per column tested; ``out``, a
    (2, n, >= max(F, 2)) buffer, takes the distances.

    The columns are gathered into one C-ordered, component-major (d, n, F)
    block, whose resultant adds the points one after another, as the test of
    one (n, d) cloud did; numpy sums a single column pairwise, so a lone
    column is tested as two. The resultant's norm is the running sum of
    squares of ``distances``, where the one-cloud test took np.linalg.norm
    of a vector (a BLAS dot): the two may differ by an ulp, so a resultant
    whose norm lies within an ulp of the bound can be decided the other way."""
    tested = len(cols)
    if tested == 1:
        cols, verts = np.repeat(cols, 2), np.repeat(verts, 2)
    u = np.take(comps, cols, axis=2)  # C-ordered, unlike comps[:, :, cols]
    vertex = comps[:, verts, cols]
    norms = distances(u, vertex, out=out[:, :, : len(cols)])
    coincident = norms <= floor
    norms[coincident] = np.inf  # the unit vectors of the vertex's copies count as zero
    u -= vertex[:, None, :]
    u /= norms
    resultant = u.sum(axis=1)[:, None, :]
    median = distances(resultant, np.zeros_like(resultant[:, 0]))[0] <= coincident.sum(axis=0) + 1e-12
    return median[:tested]


def _newton_finish(points, z, cols, rejected, floor, radius, tol):
    """Finish the stalled columns cols of z with Newton steps on sum_i |x_i - z|.

    The gradient is -sum_i u_i and the Hessian sum_i (I - u_i u_i^T) / d_i,
    with u_i the unit vector from z to x_i at distance d_i. Returns z with
    those columns replaced, or None unless every stalled iterate lies within
    radius of a vertex the exact test rejected (where Weiszfeld crawls), every
    Hessian is finite and nonsingular, no iterate lands on a data point, and
    the steps reach tol within 50 steps (a few suffice from a stalled iterate).
    """
    pts = points[:, cols, :]
    zc = z[cols]
    dist = distances(pts.transpose(2, 0, 1), zc.T)
    kmin = dist.argmin(axis=0)
    if not np.all((dist[kmin, np.arange(cols.size)] < radius) & rejected[kmin, cols]):
        return None
    eye = np.eye(points.shape[2])
    for _ in range(50):
        if not np.all(dist > floor):
            return None
        inv = 1.0 / dist
        u = (pts - zc[None]) * inv[:, :, None]
        hess = inv.sum(axis=0)[:, None, None] * eye - np.einsum("nb,nbi,nbj->bij", inv, u, u)
        eig = np.linalg.eigvalsh(hess)
        if not (np.all(np.isfinite(eig)) and np.all(eig[:, 0] > 1e-12 * eig[:, -1])):
            return None
        step = np.linalg.solve(hess, u.sum(axis=0)[:, :, None])[:, :, 0]
        zc = zc + step
        if np.linalg.norm(step, axis=1).max() <= tol:
            out = z.copy()
            out[cols] = zc
            return out
        dist = distances(pts.transpose(2, 0, 1), zc.T)
    return None


def geometric_medians_batch(points: np.ndarray) -> np.ndarray:
    """Geometric medians of B clouds at once: points is (n, B, d), result (B, d).

    Used for per-gridpoint medians of a reference group, iterating every grid
    point jointly. d=1 columns reduce to the sample median. The tolerance
    _TOL is relative to the data scale. Weiszfeld slows to a crawl when the
    median sits on a data point, so columns whose iterate approaches a point
    run the exact vertex optimality test and snap to it when it is the
    median. The test depends only on the column and the vertex, so each pair
    is tested once: a rejected vertex is remembered and not tested again. The
    columns flagged in one pass are tested together.

    The points are copied once into a component-major (d, n, B) block, and
    each pass reuses two (n, B) buffers. Every weighted sum reduces an (n, B)
    block over its outer axis, so it adds the n terms in order, as the einsum
    ``"nb,nbd->bd"`` does; numpy sums a single column pairwise, so one cloud
    runs as two equal columns, with its weight total summed down the one
    column as before.

    When _MAX_ITER iterations end with some columns still stepping more than
    1e-9 x scale, those columns usually sit just off a rejected vertex, where
    Weiszfeld crawls; they are finished with Newton steps (see
    _newton_finish). Columns that converge without them are untouched.

    Raises:
        ConvergenceError: if the Newton finish does not apply or fails; the
            error carries the last Weiszfeld iterate.
    """
    n, B, d = points.shape
    if d == 1:
        return np.median(points, axis=0)
    width = max(B, 2)
    work = np.empty((d + 2, n, width))  # one allocation: the points, the distances and a term
    comps, buf = work[:d], work[d:]
    comps[:, :, :B] = points.transpose(2, 0, 1)
    comps[:, :, B:] = comps[:, :, :1]
    z = np.empty((d, width))
    z[:, :B] = points.mean(axis=0).T
    z[:, B:] = z[:, :1]
    z_new = np.empty_like(z)
    scale = max(1.0, float(comps.max()), -float(comps.min()))
    floor = 1e-14 * scale
    check_radius = 1e-3 * scale
    cols = np.arange(width)
    done = np.zeros(width, dtype=bool)
    rejected = np.zeros((n, width), dtype=bool)  # (vertex, column): not the median
    steps = np.full(width, np.inf)
    for _ in range(_MAX_ITER):
        dist = distances(comps, z, out=buf)  # (n, width)
        kmin = dist.argmin(axis=0)
        dmin = dist[kmin, cols]
        # the Weiszfeld step; the columns done, snapped below or degenerate keep z
        near = np.flatnonzero(dmin <= floor)  # the columns with a point on the iterate
        on = dist[:, near] <= floor
        with np.errstate(divide="ignore"):
            w = np.divide(1.0, dist, out=dist)
        w[:, near] = np.where(on, 0.0, w[:, near])  # a point on the iterate has weight 0
        wsum = w[:, :B].sum(axis=0)  # (B,)
        degenerate = wsum == 0.0  # every point coincides with the iterate
        wsum[degenerate] = 1.0
        term = buf[1]
        for k in range(d):
            np.multiply(w, comps[k], out=term)
            term.sum(axis=0, out=z_new[k])
        z_new /= wsum
        flagged = np.flatnonzero(~done & (dmin < check_radius) & ~rejected[kmin, cols])
        if flagged.size:
            verts = kmin[flagged]
            median = _vertex_tests(comps, flagged, verts, floor, out=buf)
            snap = flagged[median]
            z[:, snap] = comps[:, kmin[snap], snap]
            done[snap] = True
            rejected[verts[~median], flagged[~median]] = True
        np.copyto(z_new, z, where=done | degenerate)
        steps = distances(z_new[:, None, :], z)[0]
        z, z_new = z_new, z
        if steps.max() <= _TOL * scale:
            return z[:, :B].T.copy()
    z = z[:, :B].T.copy()
    stalled = np.flatnonzero(steps[:B] > 1e-9 * scale)
    if not stalled.size:
        return z
    finished = _newton_finish(points, z, stalled, rejected, floor, check_radius, _TOL * scale)
    if finished is None:
        raise ConvergenceError(
            f"batch geometric median did not converge in {_MAX_ITER} iterations",
            last_iterate=z,
        )
    return finished
