"""Curve classifiers: outlyingness-based rules and depth-based baselines.

Two rules assign a curve to the group where it is least outlying, scored
either by the robust Mahalanobis distance of the (MO, VO) feature under a
per-group MCD fit ("RMD") or by the Frobenius norm of the outlyingness
matrix ("VOM"). Four baselines assign to the group of maximal functional
depth: integrated point-wise depth ("FM1" with random Tukey depth, "FM2"
with Mahalanobis depth) and random-projection depth ("RP1" Tukey, "RP2"
Mahalanobis). The query curve is never pooled into a reference group.
The Tukey baselines FM1 and RP1 count through one exact merge kernel. FM1
keeps only the groups' curves, and each score projects, sorts and counts
the references beside the queries, one block of grid points at a time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curves import Curve, FunctionalGroup, Grid
from .outlyingness import reference_frame, squared_mahalanobis, summarize_values
from .pointwise import random_unit_directions
from .robust import mcd_fit, rmd
from .seeding import derive_seed
from .simulate import cholesky_with_jitter

__all__ = [
    "METHODS",
    "ClassifierConfig",
    "TrainedModel",
    "Prediction",
    "train",
    "predict",
    "predict_batch",
    "halfspace_counts",
    "rp_directions",
]


@dataclass(frozen=True)
class ClassifierConfig:
    """Shared knobs: projection count for RP, Tukey direction count, MCD h."""

    n_projections: int = 50
    tukey_n_dirs: int = 500
    mcd_h: int | None = None

    def __post_init__(self):
        for name in ("n_projections", "tukey_n_dirs", "mcd_h"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) and not (name == "mcd_h" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("n_projections", "tukey_n_dirs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class Prediction:
    """A predicted group label with the per-group scores that produced it."""

    label: str
    labels: tuple[str, ...]
    scores: np.ndarray
    higher_is_better: bool


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Per-group reference data plus the method's frozen state.

    The method's fit function in ``_METHODS`` computes the state at training
    time. FM1's state is only its directions and the groups' curves, so each
    prediction call projects and sorts the references again. The model is
    read-only afterwards and safe to share across workers.
    """

    method: str
    labels: tuple[str, ...]
    groups: tuple[FunctionalGroup, ...]
    config: ClassifierConfig
    seed: int
    state: object

    @property
    def grid(self) -> Grid:
        return self.groups[0].grid

    @property
    def p(self) -> int:
        return self.groups[0].p


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


def _project(values: np.ndarray, dirs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Inner products <a_j, x_i> summed over components: (N, m, p) -> (N, NR)."""
    return np.einsum("dmk,m,nmk->nd", dirs, weights, values)


def _refs_at_or_below(sorted_ref: np.ndarray, sorted_q: np.ndarray) -> np.ndarray:
    """#{ref <= q} per sorted query: a stable merge of each row puts tied
    references first, and the query of rank i lands at #{ref <= q} + i."""
    (R, n), N = sorted_ref.shape, sorted_q.shape[1]
    merged = np.argsort(np.concatenate([sorted_ref, sorted_q], axis=1), axis=1, kind="stable")
    position = np.flatnonzero(merged >= n).reshape(R, N) - (n + N) * np.arange(R)[:, None]
    return position - np.arange(N)


def _sorted_counts(sorted_ref: np.ndarray, sorted_q: np.ndarray):
    """The counting kernel: (#{ref <= q}, #{ref >= q}) of ascending (R, N)
    query rows against ascending (R, n) reference rows, in the queries' order."""
    R, n = sorted_ref.shape
    le = _refs_at_or_below(sorted_ref, sorted_q)
    ge = n - le
    # #{ref < q} differs only where a reference equals q, the one just below
    # it in the merge; there it is #{ref <= the float just below q}
    below = np.take(sorted_ref, np.maximum(le - 1, 0) + n * np.arange(R)[:, None])
    rows = np.flatnonzero((below == sorted_q).any(axis=1))
    if rows.size:
        ge[rows] = n - _refs_at_or_below(sorted_ref[rows], np.nextafter(sorted_q[rows], -np.inf))
    return le, ge


def _sort_queries(queries: np.ndarray):
    """(R, N) query rows sorted row by row, and where each sorted entry came
    from as a flat index into ``queries``."""
    order = np.argsort(queries, axis=1)
    flat = order + queries.shape[1] * np.arange(len(queries))[:, None]
    return np.take(queries, flat), flat


def halfspace_counts(sorted_ref: np.ndarray, queries: np.ndarray):
    """Exact halfspace counts (#{ref <= q}, #{ref >= q}) of (R, N) queries
    against (R, n) ascending reference rows, row by row."""
    sorted_q, flat = _sort_queries(queries)
    counts = np.empty((2, queries.size), dtype=np.intp)
    counts[:, flat] = _sorted_counts(sorted_ref, sorted_q)
    return counts.reshape((2,) + queries.shape)


def _tukey_counts(sorted_ref: np.ndarray, sorted_q: np.ndarray, flat: np.ndarray, out: np.ndarray):
    """min(#{ref <= q}, #{ref >= q}) of sorted queries, put back at the
    queries' own places (``flat`` from ``_sort_queries``) in the C-contiguous
    ``out``."""
    le, ge = _sorted_counts(sorted_ref, sorted_q)
    out.reshape(-1)[flat] = np.minimum(le, ge, out=le)
    return out


def _fm_project(values: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Projections onto the Tukey directions, (N, m, p) -> (m, D, N), made the
    same way for references and queries so that equal curves tie exactly.

    The products of the even components are added in order, then those of
    the odd ones onto +0.0, and the two sums last: the bits of
    ``einsum("nmk,dk->mdn")``, which adds into a zeroed output.
    """
    comps = np.ascontiguousarray(values.transpose(2, 1, 0))[:, :, None, :]  # (p, m, 1, N)
    weights = dirs.T[:, :, None]  # (p, D, 1)
    sums = [comps[0] * weights[0], 0.0]
    for k in range(1, len(comps)):
        sums[k % 2] += comps[k] * weights[k]
    return sums[0] + sums[1]


def train(groups, method: str, config: ClassifierConfig | None = None, rng_seed: int = 0) -> TrainedModel:
    """Fit a classifier of the given method on K labeled groups.

    RP directions (and, for multivariate FM1, Tukey directions) are drawn once
    from the seed and shared across groups and all later queries.
    """
    method = str(method).upper()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    groups = tuple(groups)
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    grid, p = groups[0].grid, groups[0].p
    labels = tuple(g.label for g in groups)
    if len(set(labels)) != len(labels):
        raise ValueError("group labels must be distinct")
    for g in groups[1:]:
        if not g.grid.same_points(grid) or g.p != p:
            raise ValueError("all groups must share grid and dimension")
    config = config or ClassifierConfig()
    state = _METHODS[method].fit(groups, config, rng_seed)
    return TrainedModel(method, labels, groups, config, rng_seed, state)


def _frames(groups, config, seed) -> tuple[FunctionalGroup, ...]:
    """The groups, with the moments and medians RMD and VOM read computed now, in train."""
    return tuple(map(reference_frame, groups))


def _fm2_fit(groups, config, seed):
    return tuple(g.moments for g in groups)


def _features(values: np.ndarray, frame: FunctionalGroup) -> np.ndarray:
    """(MO^T, VO) feature vectors for a batch of curves: (N, p+1)."""
    summaries = summarize_values(values, frame)
    return np.hstack([summaries.mo, summaries.vo[:, None]])


def _rmd_fit(groups, config, seed):
    """The groups and the MCD fit of each group's (MO, VO) features."""
    frames = _frames(groups, config, seed)
    fits = []
    for i, g in enumerate(frames):
        if g.n < g.p + 4:
            raise ValueError(f"group {g.label!r} has n={g.n}; RMD needs at least p+4={g.p + 4}")
        feats = _features(g.values, g)
        fits.append(mcd_fit(feats, h=config.mcd_h, rng_seed=derive_seed(seed, 1, i)))
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


def _fm1_fit(groups, config, seed):
    """(D, p) Tukey directions, the grid weights and each group's curves;
    for p = 1 the direction 1: exact halfspace depth."""
    p, rng = groups[0].p, np.random.default_rng(derive_seed(seed, 3))
    dirs = np.ones((1, 1)) if p == 1 else random_unit_directions(config.tukey_n_dirs, p, rng)
    return dirs, groups[0].grid.weights, tuple(g.values for g in groups)


def _fm_blocks(m: int, n_dirs: int):
    """Slices of grid points taken together, so that a block's arrays stay in
    cache: one point for 500 directions, the whole grid for p = 1."""
    step = max(1, 512 // n_dirs)
    return [slice(t, t + step) for t in range(0, m, step)]


def _fm1_score(state, values: np.ndarray) -> np.ndarray:
    """Integrated point-wise (random) Tukey depth. Per block of grid points:
    the queries are projected and sorted once for every group, each group's
    curves are projected and sorted beside them, and each group's counts are
    scattered once and reduced over the directions."""
    dirs, w, refs = state
    (N, m), D = values.shape[:2], len(dirs)
    blocks = _fm_blocks(m, D)
    depths = [np.empty((N, m)) for _ in refs]
    counts = np.empty((min(blocks[0].stop, m) * D, N), dtype=np.intp)
    for block in blocks:
        sorted_q, flat = _sort_queries(_fm_project(values[:, block], dirs).reshape(-1, N))
        rows = counts[:len(sorted_q)]
        for depth, ref in zip(depths, refs):
            n = len(ref)
            sorted_ref = _fm_project(ref[:, block], dirs).reshape(-1, n)
            sorted_ref.sort(axis=1)
            _tukey_counts(sorted_ref, sorted_q, flat, rows)
            depth[:, block] = (rows.reshape(-1, D, N).min(axis=1) / n).T
    return np.stack([(depth * w).sum(axis=1) for depth in depths], axis=1)


def _rp_projections(groups, config, seed):
    """Shared directions, the weights, and each group's (n, NR) projections."""
    grid, rng = groups[0].grid, np.random.default_rng(derive_seed(seed, 2))
    dirs = rp_directions(config.n_projections, grid, groups[0].p, rng)
    return dirs, grid.weights, [_project(g.values, dirs, grid.weights) for g in groups]


def _rp1_fit(groups, config, seed):
    dirs, w, projections = _rp_projections(groups, config, seed)
    return dirs, w, tuple(np.sort(proj.T, axis=1) for proj in projections)


def _rp1_score(state, values: np.ndarray) -> np.ndarray:
    """Direction-wise univariate Tukey depths averaged over directions; the
    query sort is shared across groups."""
    dirs, w, sorted_refs = state
    sorted_q, flat = _sort_queries(_project(values, dirs, w).T)
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


def _rp2_fit(groups, config, seed):
    dirs, w, projections = _rp_projections(groups, config, seed)
    return dirs, w, tuple((proj.mean(axis=0), proj.var(axis=0, ddof=1)) for proj in projections)


def _rp2_score(state, values: np.ndarray) -> np.ndarray:
    dirs, w, moments = state
    proj_x = _project(values, dirs, w)
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
    fit: Callable  # (groups, config, seed) -> the method's frozen state
    score: Callable  # (state, values (N, m, p)) -> scores (N, K)
    higher_is_better: bool


# Each classifier, defined once. The state its fit returns:
#   RMD: (groups, MCD fits); VOM: the groups; FM2: their moments;
#   FM1: (directions (D, p), weights, values (n, m, p) per group);
#   RP1: (directions (NR, m, p), weights, sorted projections (NR, n) per group);
#   RP2: (directions, weights, projection (mean, variance) per group).
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


def _check_batch(model: TrainedModel, curves) -> np.ndarray:
    """Query values (N, m, p): a group's own array, checked once, or a list of
    curves checked one by one and stacked."""
    group = isinstance(curves, FunctionalGroup)
    queries = [curves] if group else list(curves)
    if not queries:
        raise ValueError("no curves to classify")
    for q in queries:
        if not q.grid.same_points(model.grid) or q.p != model.p:
            raise ValueError("query curves must match the model's grid and dimension")
    return curves.values if group else np.stack([q.values for q in queries])


def predict_batch(model: TrainedModel, curves) -> list[Prediction]:
    """Classify many curves at once; ties go to the smallest group index."""
    values = _check_batch(model, curves)
    method = _METHODS[model.method]
    scores = method.score(model.state, values)
    higher = method.higher_is_better
    best = np.argmax(scores, axis=1) if higher else np.argmin(scores, axis=1)
    return [
        Prediction(model.labels[best[i]], model.labels, scores[i], higher)
        for i in range(values.shape[0])
    ]


def predict(model: TrainedModel, x0: Curve) -> Prediction:
    """Classify a single curve with the model's method."""
    return predict_batch(model, [x0])[0]
