"""Curve classifiers: outlyingness-based rules and depth-based baselines.

Two rules assign a curve to the group where it is least outlying, scored
either by the robust Mahalanobis distance of the (MO, VO) feature under a
per-group MCD fit ("RMD") or by the Frobenius norm of the outlyingness
matrix ("VOM"). Four baselines assign to the group of maximal functional
depth: integrated point-wise depth ("FM1" with random Tukey depth, "FM2"
with Mahalanobis depth) and random-projection depth ("RP1" Tukey, "RP2"
Mahalanobis). The query curve is never pooled into a reference group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, FunctionalGroup, Grid
from .outlyingness import ReferenceFrame, reference_frame, summarize_values
from .pointwise import random_unit_directions
from .robust import McdFit, mcd_fit
from .seeding import derive_seed
from .simulate import _cholesky_with_jitter

__all__ = [
    "METHODS",
    "ClassifierConfig",
    "TrainedModel",
    "Prediction",
    "train",
    "predict",
    "predict_batch",
    "predict_rmd",
    "predict_vom",
    "predict_maxdepth",
    "functional_depth_fm",
    "functional_depth_rp",
    "halfspace_counts",
    "rp_directions",
]

METHODS = ("RMD", "VOM", "FM1", "FM2", "RP1", "RP2")
_OUTLYINGNESS_METHODS = ("RMD", "VOM")


@dataclass(frozen=True)
class ClassifierConfig:
    """Shared knobs: projection count for RP, Tukey direction count, MCD h."""

    n_projections: int = 50
    tukey_n_dirs: int = 500
    mcd_h: int | None = None

    def __post_init__(self):
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
    """Per-group reference data plus method-specific precomputations.

    Everything a prediction needs is computed at training time; the model is
    read-only afterwards and safe to share across workers.
    """

    method: str
    labels: tuple[str, ...]
    groups: tuple[FunctionalGroup, ...]
    config: ClassifierConfig
    seed: int
    frames: tuple[ReferenceFrame, ...] | None = None
    mcd_fits: tuple[McdFit, ...] | None = None
    rp_dirs: np.ndarray | None = None  # (NR, m, p), shared across groups
    rp_moments: tuple[tuple[np.ndarray, np.ndarray], ...] = field(default=())
    tukey_dirs: np.ndarray | None = None  # (D, p) for FM1; the direction 1 when p = 1
    # per group, sorted reference projections: (NR, n) for RP1, (m, D, n) for FM1
    sorted_proj: tuple[np.ndarray, ...] = field(default=())

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
    factor = _cholesky_with_jitter(cov)
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


def halfspace_counts(sorted_ref: np.ndarray, queries: np.ndarray, order=None):
    """Exact halfspace counts (#{ref <= q}, #{ref >= q}) of (R, N) queries
    against (R, n) ascending reference rows, row by row. ``order``, an argsort
    of ``queries`` along axis 1, may be shared across references."""
    if order is None:
        order = np.argsort(queries, axis=1)
    (R, n), N = sorted_ref.shape, queries.shape[1]
    flat = order + N * np.arange(R)[:, None]
    sorted_q = np.take(queries, flat)
    le = _refs_at_or_below(sorted_ref, sorted_q)
    ge = n - le
    # #{ref < q} differs only where a reference equals q, the one just below
    # it in the merge; there it is #{ref <= the float just below q}
    below = np.take(sorted_ref, np.maximum(le - 1, 0) + n * np.arange(R)[:, None])
    rows = np.flatnonzero((below == sorted_q).any(axis=1))
    ge[rows] = n - _refs_at_or_below(sorted_ref[rows], np.nextafter(sorted_q[rows], -np.inf))
    counts = np.empty((2, R * N), dtype=le.dtype)
    counts[0, flat], counts[1, flat] = le, ge
    return counts.reshape(2, R, N)


def _tukey_directions(p: int, n_dirs: int, seed: int) -> np.ndarray:
    """FM1's (D, p) directions; for p = 1 the direction 1: exact halfspace depth."""
    if p == 1:
        return np.ones((1, 1))
    return random_unit_directions(n_dirs, p, np.random.default_rng(seed))


def _fm_project(values: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Projections onto the Tukey directions, (N, m, p) -> (m, D, N), made the
    same way for references and queries so that equal curves tie exactly."""
    return np.einsum("nmk,dk->mdn", values, dirs, order="C")


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

    frames = mcd_fits = rp_dirs = tukey_dirs = None
    rp_moments: tuple = ()
    sorted_proj: tuple = ()

    if method in ("RMD", "VOM", "FM2"):
        frames = tuple(reference_frame(g) for g in groups)
    if method == "RMD":
        fits = []
        for i, g in enumerate(groups):
            if g.n < p + 4:
                raise ValueError(
                    f"group {g.label!r} has n={g.n}; RMD needs at least p+4={p + 4}"
                )
            feats = _features(g.values, frames[i])
            h = config.mcd_h
            fits.append(mcd_fit(feats, h=h, rng_seed=derive_seed(rng_seed, 1, i)))
        mcd_fits = tuple(fits)
    elif method in ("RP1", "RP2"):
        rng = np.random.default_rng(derive_seed(rng_seed, 2))
        rp_dirs = rp_directions(config.n_projections, grid, p, rng)
        projections = [_project(g.values, rp_dirs, grid.weights) for g in groups]
        if method == "RP1":
            sorted_proj = tuple(np.sort(proj.T, axis=1) for proj in projections)
        else:
            rp_moments = tuple(
                (proj.mean(axis=0), proj.var(axis=0, ddof=1)) for proj in projections
            )
    elif method == "FM1":
        tukey_dirs = _tukey_directions(p, config.tukey_n_dirs, derive_seed(rng_seed, 3))
        sorted_proj = tuple(np.sort(_fm_project(g.values, tukey_dirs), axis=2) for g in groups)

    return TrainedModel(
        method=method,
        labels=labels,
        groups=groups,
        config=config,
        seed=rng_seed,
        frames=frames,
        mcd_fits=mcd_fits,
        rp_dirs=rp_dirs,
        rp_moments=rp_moments,
        tukey_dirs=tukey_dirs,
        sorted_proj=sorted_proj,
    )


def _features(values: np.ndarray, frame: ReferenceFrame) -> np.ndarray:
    """(MO^T, VO) feature vectors for a batch of curves: (N, p+1)."""
    summaries = summarize_values(values, frame)
    return np.hstack([summaries.mo, summaries.vo[:, None]])


def _rmd_scores(values: np.ndarray, frame: ReferenceFrame, fit: McdFit) -> np.ndarray:
    feats = _features(values, frame)
    diff = feats - fit.location
    d2 = np.einsum("ni,in->n", diff, np.linalg.solve(fit.scatter, diff.T))
    return np.sqrt(np.maximum(d2, 0.0))


def _vom_scores(values: np.ndarray, frame: ReferenceFrame) -> np.ndarray:
    vom = summarize_values(values, frame).vom
    return np.sqrt(np.einsum("nij,nij->n", vom, vom))


def _md_depths(values: np.ndarray, frame: ReferenceFrame) -> np.ndarray:
    """Point-wise Mahalanobis depths of a batch: (N, m)."""
    diff = values - frame.means[None]
    maha2 = np.einsum("nmi,mij,nmj->nm", diff, frame.inv_cov, diff)
    return 1.0 / (1.0 + np.maximum(maha2, 0.0))


def _fm_td_depths(values: np.ndarray, dirs: np.ndarray, sorted_refs) -> list[np.ndarray]:
    """FM1's integrand, (N, m) per-gridpoint (random) Tukey depths, against
    each (m, D, n) sorted reference; one query sort per block serves all."""
    proj = _fm_project(values, dirs)
    m, D, N = proj.shape
    depths = [np.empty((N, m)) for _ in sorted_refs]
    step = max(1, 512 // D)  # grid points per call: one for 500 directions, all for p = 1
    for t in range(0, m, step):
        queries = proj[t:t + step].reshape(-1, N)
        order = np.argsort(queries, axis=1)
        for depth, ref in zip(depths, sorted_refs):
            n = ref.shape[2]
            counts = halfspace_counts(ref[t:t + step].reshape(-1, n), queries, order)
            depth[:, t:t + step] = (counts.min(axis=0).reshape(-1, D, N).min(axis=1) / n).T
    return depths


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


def _rp_td_depths(proj_x: np.ndarray, sorted_refs) -> list[np.ndarray]:
    """Direction-wise univariate Tukey depths averaged over directions: one
    (N,) array per (NR, n) sorted reference; the query sort is shared."""
    order = np.argsort(proj_x.T, axis=1)
    # C order: each curve's depths are summed as one row, whatever the batch
    return [
        np.divide(halfspace_counts(ref, proj_x.T, order).min(axis=0).T, ref.shape[1], order="C")
        .mean(axis=1)
        for ref in sorted_refs
    ]


def _score_matrix(model: TrainedModel, values: np.ndarray) -> np.ndarray:
    """Per-group scores for a batch of curves: (N, K).

    Depths are integrated by row sums, not a matrix product, so that a
    curve's score does not depend on the rest of its batch.
    """
    method, w = model.method, model.grid.weights
    if method == "RMD":
        columns = [_rmd_scores(values, f, fit) for f, fit in zip(model.frames, model.mcd_fits)]
    elif method == "VOM":
        columns = [_vom_scores(values, frame) for frame in model.frames]
    elif method == "FM2":
        columns = [(_md_depths(values, frame) * w).sum(axis=1) for frame in model.frames]
    elif method == "FM1":
        depths = _fm_td_depths(values, model.tukey_dirs, model.sorted_proj)
        columns = [(depth * w).sum(axis=1) for depth in depths]
    elif method == "RP1":
        columns = _rp_td_depths(_project(values, model.rp_dirs, w), model.sorted_proj)
    else:
        proj_x = _project(values, model.rp_dirs, w)
        columns = [_rp_md_depths(proj_x, moments) for moments in model.rp_moments]
    return np.stack(columns, axis=1)


def _check_batch(model: TrainedModel, curves) -> np.ndarray:
    if isinstance(curves, FunctionalGroup):
        curves = curves.curves
    curves = list(curves)
    if not curves:
        raise ValueError("no curves to classify")
    for c in curves:
        if not c.grid.same_points(model.grid) or c.p != model.p:
            raise ValueError("query curves must match the model's grid and dimension")
    return np.stack([c.values for c in curves])


def predict_batch(model: TrainedModel, curves) -> list[Prediction]:
    """Classify many curves at once; ties go to the smallest group index."""
    values = _check_batch(model, curves)
    scores = _score_matrix(model, values)
    higher = model.method not in _OUTLYINGNESS_METHODS
    best = np.argmax(scores, axis=1) if higher else np.argmin(scores, axis=1)
    return [
        Prediction(model.labels[best[i]], model.labels, scores[i], higher)
        for i in range(values.shape[0])
    ]


def predict(model: TrainedModel, x0: Curve) -> Prediction:
    """Classify a single curve with the model's method."""
    return predict_batch(model, [x0])[0]


def predict_rmd(model: TrainedModel, x0: Curve) -> Prediction:
    """Assign to the group minimizing the robust Mahalanobis feature distance."""
    if model.method != "RMD":
        raise ValueError(f"model method is {model.method}, expected RMD")
    return predict(model, x0)


def predict_vom(model: TrainedModel, x0: Curve) -> Prediction:
    """Assign to the group minimizing the Frobenius norm of the outlyingness matrix."""
    if model.method != "VOM":
        raise ValueError(f"model method is {model.method}, expected VOM")
    return predict(model, x0)


def predict_maxdepth(model: TrainedModel, x0: Curve) -> Prediction:
    """Assign to the group where the curve attains maximal functional depth."""
    if model.method not in ("FM1", "FM2", "RP1", "RP2"):
        raise ValueError(f"model method is {model.method}, expected FM1/FM2/RP1/RP2")
    return predict(model, x0)


def functional_depth_fm(
    x0: Curve,
    group: FunctionalGroup,
    pointwise: str = "MD",
    n_dirs: int = 500,
    rng_seed: int = 0,
    directions: np.ndarray | None = None,
) -> float:
    """Integrated point-wise depth of a curve within a group.

    ``pointwise`` selects the point-wise depth: "TD" (random Tukey for p >= 2,
    exact univariate halfspace for p = 1) or "MD" (Mahalanobis). Directions
    for the multivariate Tukey case may be passed in to pair evaluations
    across groups; otherwise they are drawn from ``rng_seed``.
    """
    pointwise = pointwise.upper()
    values = x0.values[None]
    if pointwise == "MD":
        depth = _md_depths(values, reference_frame(group))
    elif pointwise == "TD":
        if directions is None or group.p == 1:
            directions = _tukey_directions(group.p, n_dirs, rng_seed)
        sorted_ref = np.sort(_fm_project(group.values, directions), axis=2)
        depth = _fm_td_depths(values, directions, [sorted_ref])[0]
    else:
        raise ValueError(f"pointwise must be TD or MD, got {pointwise!r}")
    return float((depth[0] * group.grid.weights).sum())


def functional_depth_rp(
    x0: Curve, group: FunctionalGroup, pointwise: str, directions: np.ndarray
) -> float:
    """Random-projection depth: mean direction-wise univariate depth.

    ``directions`` is an (NR, m, p) array of projection functions, drawn once
    and shared across the groups being compared.
    """
    pointwise = pointwise.upper()
    w = group.grid.weights
    proj_x = _project(x0.values[None], directions, w)
    proj_g = _project(group.values, directions, w)
    if pointwise == "TD":
        return float(_rp_td_depths(proj_x, [np.sort(proj_g.T, axis=1)])[0][0])
    if pointwise == "MD":
        moments = (proj_g.mean(axis=0), proj_g.var(axis=0, ddof=1))
        return float(_rp_md_depths(proj_x, moments)[0])
    raise ValueError(f"pointwise must be TD or MD, got {pointwise!r}")
