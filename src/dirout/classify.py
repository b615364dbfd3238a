"""Curve classifiers: outlyingness-based rules and depth-based baselines.

Two rules assign a curve to the group where it is least outlying, scored
either by the robust Mahalanobis distance of the (MO, VO) feature under a
per-group MCD fit ("RMD") or by the Frobenius norm of the outlyingness
matrix ("VOM"). Four baselines assign to the group of maximal functional
depth: integrated point-wise depth ("FM1" with random Tukey depth, "FM2"
with Mahalanobis depth) and random-projection depth ("RP1" Tukey, "RP2"
Mahalanobis). The query curve is never pooled into a reference group.
The Tukey baselines FM1 and RP1 count through two exact kernels: a merge of
sorted rows, and a pair search for single (row, value) pairs. FM1 keeps only
the groups' curves, and each score projects and sorts the references beside
the queries, one block of grid points at a time. Only FM1's minimum over
directions is used, so the merge counts just the first isqrt(D) directions,
whose least count c bounds each query's count from above. In a later
direction, with A the sorted reference row, a query v with A[c-1] <= v <=
A[n-c] has at least c references on each side, so only the pairs outside
that interval are counted, by the pair search; the minimum is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curves import FunctionalGroup, Grid, check_same_grid
from .outlyingness import reference_frame, squared_mahalanobis, summarize_values
from .pointwise import cholesky_with_jitter, random_unit_directions
from .robust import mcd_fit, rmd
from .seeding import derive_seed

__all__ = [
    "METHODS",
    "check_method",
    "TrainedModel",
    "BatchPredictions",
    "train",
    "predict_batch",
    "rp_directions",
]


@dataclass(frozen=True, eq=False)
class BatchPredictions:
    """The predicted label of each of N curves, with its row of scores, as
    arrays; the length is N. Curve i's prediction is ``label[i]`` with
    ``scores[i]``, one score per group of ``labels``."""

    label: np.ndarray  # (N,) predicted labels
    scores: np.ndarray  # (N, K), one column per group
    labels: tuple[str, ...]
    higher_is_better: bool

    def __len__(self) -> int:
        return len(self.label)


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Per-group reference data plus the method's frozen state.

    The method's fit function in ``_METHODS`` computes the state at training
    time. FM1's state is only its directions and the groups' curves, so each
    prediction call projects and sorts the references again; it counts the
    first isqrt(D) directions exactly, and of the others only the pairs that
    can fall below that bound, so its depths are the exact minima. The model
    is read-only afterwards and safe to share across workers.
    """

    method: str
    groups: tuple[FunctionalGroup, ...]
    state: object

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.groups)


# Directions each trained model draws once from its seed: random projections
# for RP1 and RP2, random Tukey directions for multivariate FM1.
N_PROJECTIONS = 50
TUKEY_N_DIRS = 500

# Correlation length of the random projection directions, as a fraction of
# the grid span. Directions are Gaussian-process paths with exponential
# covariance, the convention of the standard depth software; white-noise
# directions would leak high-frequency information the baselines are not
# supposed to see.
RP_DIRECTION_THETA = 0.2


def rp_directions(n_dirs: int, grid: Grid, p: int, rng) -> np.ndarray:
    """Random projection directions: exponential-covariance process paths per
    component, normalized to unit discrete L2 norm."""
    t = grid.points
    theta = RP_DIRECTION_THETA * (t[-1] - t[0])
    cov = np.exp(-np.abs(t[:, None] - t[None, :]) / theta)
    factor = cholesky_with_jitter(cov)
    dirs = rng.standard_normal((n_dirs, p, grid.m)) @ factor.T
    dirs = dirs.transpose(0, 2, 1)  # (n_dirs, m, p)
    norms = np.sqrt(np.einsum("m,dmk,dmk->d", grid.weights, dirs, dirs))
    return dirs / norms[:, None, None]


def _project(values: np.ndarray, dirs_w: np.ndarray) -> np.ndarray:
    """Inner products <a_d, x_i> of (N, m, p) curves with the (p*m, D)
    weighted directions of ``_rp_projections``: (D, N), direction-major.

    The curves are copied to the matching component-major (p*m, N) rows, and
    one two-operand einsum adds each pair's m*p products, (direction x
    weight) x value, in row order into a zeroed output, whatever the batch.
    numpy reduces a lone column as a dot product, in another order, so a
    single curve is projected as two equal columns.
    """
    N, m, p = values.shape
    if N == 1:
        values = np.repeat(values, 2, axis=0)
    comps = np.ascontiguousarray(values.transpose(2, 1, 0)).reshape(p * m, -1)
    return np.einsum("jn,jd->dn", comps, dirs_w)[:, :N]


def _pair_counts(sorted_ref: np.ndarray, rows: np.ndarray, values: np.ndarray):
    """The pair search: (#{ref <= v}, #{ref < v}) of each value v against its
    own ascending reference row ``rows`` of ``sorted_ref``, one branch-free
    binary search over all the pairs at once."""
    n = sorted_ref.shape[1]
    flat = sorted_ref.reshape(-1)
    # #{ref < v} is #{ref <= the float just below v}, so one search gives
    # both; below the most negative finite float lies -inf, which numpy
    # flags as an overflow though -inf is the float wanted there
    with np.errstate(over="ignore"):
        v = np.concatenate([values, np.nextafter(values, -np.inf)])
    start = np.concatenate([rows, rows]) * n
    # each row's count lies in [pos, pos + size]; each step halves the range
    pos, size = start.copy(), n
    while size > 1:
        half = size // 2
        pos += half * (np.take(flat, pos + half) <= v)
        size -= half
    count = pos - start + (np.take(flat, pos) <= v)
    count[len(values):][values == -np.inf] = 0  # the float below -inf is -inf itself
    return count[:len(values)], count[len(values):]


def _sorted_counts(sorted_ref: np.ndarray, sorted_q: np.ndarray):
    """The merge: (#{ref <= q}, #{ref >= q}) of ascending (R, N) query rows
    against ascending (R, n) reference rows, in the queries' order. A stable
    merge of each row puts tied references first, and the query of rank i
    lands at #{ref <= q} + i."""
    (R, n), N = sorted_ref.shape, sorted_q.shape[1]
    merged = np.argsort(np.concatenate([sorted_ref, sorted_q], axis=1), axis=1, kind="stable")
    le = np.flatnonzero(merged >= n).reshape(R, N) - (n + N) * np.arange(R)[:, None] - np.arange(N)
    ge = n - le
    # #{ref < q} differs only where a reference equals q, the one just below
    # it in the merge; those pairs take the pair search
    below = np.take(sorted_ref, np.maximum(le - 1, 0) + n * np.arange(R)[:, None])
    tied = np.flatnonzero(below == sorted_q)
    if tied.size:
        ge.flat[tied] = n - _pair_counts(sorted_ref, tied // N, sorted_q.flat[tied])[1]
    return le, ge


def _sort_queries(queries: np.ndarray):
    """(R, N) query rows sorted row by row, and where each sorted entry came
    from as a flat index into ``queries``."""
    order = np.argsort(queries, axis=1)
    flat = order + queries.shape[1] * np.arange(len(queries))[:, None]
    return np.take(queries, flat), flat


def _tukey_counts(sorted_ref: np.ndarray, sorted_q: np.ndarray, flat: np.ndarray, out: np.ndarray):
    """min(#{ref <= q}, #{ref >= q}) of sorted queries, put back at the
    queries' own places (``flat`` from ``_sort_queries``) in the C-contiguous
    ``out``."""
    le, ge = _sorted_counts(sorted_ref, sorted_q)
    out.reshape(-1)[flat] = np.minimum(le, ge, out=le)
    return out


def _fm_project(
    values: np.ndarray, dirs: np.ndarray, out: np.ndarray | None = None, scratch=()
) -> np.ndarray:
    """Projections onto the Tukey directions, (N, m, p) -> (m, D, N), made the
    same way for references and queries so that equal curves tie exactly;
    written into ``out`` when one is given, with the odd sum and the later
    terms in views of the flat float arrays of ``scratch``.

    Each component's products are one einsum outer product. The even
    components' are added in order, then the odd ones', then the two sums:
    the bits of ``einsum("nmk,dk->mdn")``. Einsum adds each product into a
    zeroed output, so no product is -0.0 and no sum of them can be; that is
    the one way a sum that starts from +0.0 could differ.
    """
    comps = np.ascontiguousarray(values.transpose(2, 1, 0))  # (p, m, N)
    shape = (comps.shape[1], len(dirs), comps.shape[2])
    # einsum allocates the odd sum or a term where ``scratch`` holds no array for it
    odd, term = [s[:math.prod(shape)].reshape(shape) for s in scratch] + [None] * (2 - len(scratch))
    even = np.einsum("d,mn->mdn", dirs.T[0], comps[0], out=out)
    if len(comps) > 1:
        odd = np.einsum("d,mn->mdn", dirs.T[1], comps[1], out=odd)
        for k in range(2, len(comps)):
            sums = (even, odd)[k % 2]
            sums += np.einsum("d,mn->mdn", dirs.T[k], comps[k], out=term)
        even += odd
    return even


def train(groups, method: str, *, rng_seed: int = 0) -> TrainedModel:
    """Fit a classifier of the given method on K labeled groups.

    The N_PROJECTIONS RP directions (and, for multivariate FM1, the
    TUKEY_N_DIRS Tukey directions) are drawn once from the seed and shared
    across groups and all later queries; RMD's MCD fits take the default h.
    """
    method = check_method(method)
    groups = tuple(groups)
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    if len({g.label for g in groups}) != len(groups):
        raise ValueError("group labels must be distinct")
    check_same_grid(groups)
    return TrainedModel(method, groups, _METHODS[method].fit(groups, rng_seed))


def _frames(groups, seed) -> tuple[FunctionalGroup, ...]:
    """The groups, with the moments and medians RMD and VOM read computed now, in train."""
    return tuple(map(reference_frame, groups))


def _fm2_fit(groups, seed):
    return tuple(g.moments for g in groups)


def _features(values: np.ndarray, frame: FunctionalGroup) -> np.ndarray:
    """(MO^T, VO) feature vectors for a batch of curves: (N, p+1)."""
    summaries = summarize_values(values, frame)
    return np.hstack([summaries.mo, summaries.vo[:, None]])


def _rmd_fit(groups, seed):
    """The groups and the MCD fit of each group's (MO, VO) features."""
    frames = _frames(groups, seed)
    fits = []
    for i, g in enumerate(frames):
        if g.n < g.p + 4:
            raise ValueError(f"group {g.label!r} has n={g.n}; RMD needs at least p+4={g.p + 4}")
        feats = _features(g.values, g)
        fits.append(mcd_fit(feats, rng_seed=derive_seed(seed, 1, i)))
    return frames, tuple(fits)


def _rmd_score(state, values: np.ndarray) -> np.ndarray:
    frames, fits = state
    return np.stack([rmd(_features(values, f), fit) for f, fit in zip(frames, fits)], axis=1)


def _vom_score(frames, values: np.ndarray) -> np.ndarray:
    voms = [summarize_values(values, frame).vom for frame in frames]
    return np.stack([np.sqrt(np.einsum("nij,nij->n", vom, vom)) for vom in voms], axis=1)


def _fm2_score(moments, values: np.ndarray) -> np.ndarray:
    """Integrated point-wise Mahalanobis depth 1 / (1 + squared distance)."""
    return np.stack(
        [(1.0 / (1.0 + squared_mahalanobis(values, s)) * s.weights).sum(axis=1) for s in moments],
        axis=1,
    )


def _fm1_fit(groups, seed):
    """(D, p) Tukey directions, the grid weights and each group's curves;
    for p = 1 the direction 1: exact halfspace depth."""
    p, rng = groups[0].p, np.random.default_rng(derive_seed(seed, 3))
    dirs = np.ones((1, 1)) if p == 1 else random_unit_directions(TUKEY_N_DIRS, p, rng)
    return dirs, groups[0].grid.weights, tuple(g.values for g in groups)


def _fm1_score(state, values: np.ndarray) -> np.ndarray:
    """Integrated point-wise (random) Tukey depth. Per block of grid points
    the queries' projections are sorted once for every group, on the head
    directions only, and each group's curves are projected and sorted beside
    them. The merge counts the head exactly, and its least count per query
    bounds that query's depth count from above; ``_lower_by_tail`` then
    counts only the pairs of the remaining directions that can go below it."""
    dirs, w, refs = state
    (N, m), D = values.shape[:2], len(dirs)
    head = math.isqrt(D)
    # a block of grid points taken together keeps its arrays in cache: one
    # point for 500 directions, the whole grid for p = 1
    step = min(max(1, 512 // D), m)
    depths = [np.empty((N, m)) for _ in refs]
    q_buffer = np.empty((step, D, N))
    ref_buffers = [np.empty((step, D, len(ref))) for ref in refs]
    # the odd sum and, for p >= 3, each later term, for the queries and every group
    scratch = [np.empty(step * D * max(N, *map(len, refs))) for _ in range(min(dirs.shape[1], 3) - 1)]
    counts = np.empty((step * head, N), dtype=np.intp)
    tail = (np.empty((D - head, N)), np.empty((D - head, N), dtype=bool),
            np.empty((D - head, N), dtype=bool), np.empty(N, dtype=np.intp))
    for start in range(0, m, step):
        size = min(step, m - start)
        block = slice(start, start + size)
        proj_q = _fm_project(values[:, block], dirs, q_buffer[:size], scratch)
        sorted_q, flat = _sort_queries(proj_q[:, :head].reshape(-1, N))
        rows = counts[:len(sorted_q)]
        for depth, ref, buffer in zip(depths, refs, ref_buffers):
            n = len(ref)
            sorted_ref = _fm_project(ref[:, block], dirs, buffer[:size], scratch)
            sorted_ref.sort(axis=2)
            _tukey_counts(sorted_ref[:, :head].reshape(-1, n), sorted_q, flat, rows)
            least = rows.reshape(size, head, N).min(axis=1)
            if head < D:
                for t in range(size):
                    _lower_by_tail(sorted_ref[t, head:], proj_q[t, head:], least[t], tail)
            depth[:, block] = (least / n).T
    return np.stack([(depth * w).sum(axis=1) for depth in depths], axis=1)


def _lower_by_tail(sorted_ref: np.ndarray, queries: np.ndarray, least: np.ndarray, buffers):
    """Lower ``least``, each query's count so far, to its minimum over the
    directions of the (T, n) ascending reference rows and (T, N) query rows.

    With c = least and A a sorted row, a query v with A[c-1] <= v has
    #{A <= v} >= c, and one with v <= A[n-c] has #{A >= v} >= c; so only a
    pair with v < A[c-1] or v > A[n-c] can go below c, and only those pairs
    are counted, by the pair search. A query at c = 0 is skipped.
    """
    bound, low, high, index = buffers
    n = sorted_ref.shape[1]
    np.take(sorted_ref, np.subtract(least, 1, out=index), axis=1, out=bound, mode="clip")
    np.less(queries, bound, out=low)
    np.take(sorted_ref, np.subtract(n, least, out=index), axis=1, out=bound, mode="clip")
    np.greater(queries, bound, out=high)
    np.logical_or(low, high, out=low)
    np.logical_and(low, least > 0, out=low)
    pairs = np.flatnonzero(low)
    if pairs.size:
        d, j = np.divmod(pairs, len(least))
        le, lt = _pair_counts(sorted_ref, d, queries.reshape(-1)[pairs])
        np.minimum.at(least, j, np.minimum(le, n - lt))


def _rp_projections(groups, seed):
    """The weighted directions and each group's (NR, n) projections. Row
    k*m + t of the (p*m, NR) weighted directions holds component k of every
    direction at grid point t, times that point's weight."""
    grid, rng = groups[0].grid, np.random.default_rng(derive_seed(seed, 2))
    dirs = rp_directions(N_PROJECTIONS, grid, groups[0].p, rng)
    dirs_w = np.ascontiguousarray((dirs * grid.weights[:, None]).transpose(2, 1, 0)).reshape(-1, len(dirs))
    return dirs_w, [_project(g.values, dirs_w) for g in groups]


def _rp1_fit(groups, seed):
    dirs_w, projections = _rp_projections(groups, seed)
    return dirs_w, tuple(np.sort(proj, axis=1) for proj in projections)


def _rp1_score(state, values: np.ndarray) -> np.ndarray:
    """Direction-wise univariate Tukey depths averaged over directions; the
    query sort is shared across groups."""
    dirs_w, sorted_refs = state
    sorted_q, flat = _sort_queries(_project(values, dirs_w))
    counts = np.empty(sorted_q.shape, dtype=np.intp)
    # C order: each curve's depths are summed as one row, whatever the batch
    return np.stack(
        [
            np.divide(_tukey_counts(ref, sorted_q, flat, counts).T, ref.shape[1], order="C")
            .mean(axis=1)
            for ref in sorted_refs
        ],
        axis=1,
    )


def _rp2_fit(groups, seed):
    # the C-ordered (n, NR) copies add the curves one after another; one
    # curve's variance is 0, not nan, so the degenerate rule scores it
    dirs_w, projections = _rp_projections(groups, seed)
    projections = [np.ascontiguousarray(proj.T) for proj in projections]
    return dirs_w, tuple(
        (proj.mean(axis=0), proj.var(axis=0, ddof=min(1, len(proj) - 1))) for proj in projections
    )


def _rp2_score(state, values: np.ndarray) -> np.ndarray:
    dirs_w, moments = state
    # C order: each curve's depths are averaged as one row, whatever the batch
    proj_x = np.ascontiguousarray(_project(values, dirs_w).T)
    return np.stack([_rp_md_depths(proj_x, mom) for mom in moments], axis=1)


def _rp_md_depths(proj_x: np.ndarray, moments) -> np.ndarray:
    mean, var = moments
    diff2 = (proj_x - mean[None, :]) ** 2
    # a projected sample of identical values has zero spread up to roundoff;
    # the depth limit there is 1 at the common value and 0 elsewhere
    tol2 = (1e-12 * (1.0 + np.abs(mean))) ** 2
    degenerate = var <= tol2
    safe_var = np.where(degenerate, 1.0, var)
    depth = np.where(
        degenerate[None, :],
        np.where(diff2 <= tol2[None, :], 1.0, 0.0),
        1.0 / (1.0 + diff2 / safe_var[None, :]),
    )
    return depth.mean(axis=1)


class _Method(NamedTuple):
    fit: Callable  # (groups, seed) -> the method's frozen state
    score: Callable  # (state, values (N, m, p)) -> scores (N, K)
    higher_is_better: bool


# Each classifier, defined once. The state its fit returns:
#   RMD: (groups, MCD fits); VOM: the groups; FM2: their moments;
#   FM1: (directions (D, p), weights, values (n, m, p) per group);
#   RP1: (weighted directions (p*m, NR), sorted projections (NR, n) per group);
#   RP2: (weighted directions, projection (mean, variance) per group).
# Depths are integrated by row sums, not a matrix product, so that a curve's
# score does not depend on its batch.
_METHODS = {
    "RMD": _Method(_rmd_fit, _rmd_score, False),
    "VOM": _Method(_frames, _vom_score, False),
    "FM1": _Method(_fm1_fit, _fm1_score, True),
    "FM2": _Method(_fm2_fit, _fm2_score, True),
    "RP1": _Method(_rp1_fit, _rp1_score, True),
    "RP2": _Method(_rp2_fit, _rp2_score, True),
}
METHODS = tuple(_METHODS)


def check_method(method) -> str:
    """The name in ``METHODS`` of a method given in any case.

    Raises:
        ValueError: if the name is none of ``METHODS``.
    """
    name = str(method).upper()
    if name not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return name


def predict_batch(model: TrainedModel, queries: FunctionalGroup) -> BatchPredictions:
    """Classify every curve of a group into one record of label and score
    arrays; ties go to the smallest group index. One curve is a group of one."""
    check_same_grid((model.groups[0], queries))
    method = _METHODS[model.method]
    scores = method.score(model.state, queries.values)
    higher = method.higher_is_better
    best = np.argmax(scores, axis=1) if higher else np.argmin(scores, axis=1)
    labels = model.labels
    return BatchPredictions(np.asarray(labels)[best], scores, labels, higher)
