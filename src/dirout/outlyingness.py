"""Directional outlyingness of curves relative to a reference group.

At each grid point the outlyingness vector is (1/depth - 1) times the unit
vector from the point-wise median to the observation, with Mahalanobis depth
as the point-wise depth. Averaging over the grid yields the scalar summaries
(MO, VO, FO) and their matrix-valued counterparts (FOM, VOM); the latter
satisfy FOM = MO MO^T + VOM with FO = tr(FOM) and VO = tr(VOM), and VOM is
conjugated by A0 when the data are transformed by t-dependent positive
rescaling, an orthogonal map A0, shifts, and a time re-indexing.

Curves enter as an (N, m, p) array of values, checked against the reference
group's m and p; one curve is a batch of one, ``values[None]``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .curves import FunctionalGroup
from .pointwise import PointwiseMoments, distances, quadratic_forms
from .pointwise import geometric_medians_batch  # unused here: perfbench/tracing.py wraps it by name

__all__ = [
    "reference_frame",
    "pointwise_outlyingness",
    "summarize_values",
    "squared_mahalanobis",
    "check_transformation_invariance",
]

# Below this distance from the point-wise median the direction is undefined
# and the outlyingness vector is taken to be zero.
ZERO_DIRECTION_TOL = 1e-12

# Values in each of _outer_sums's two block buffers: 128 KB
_BLOCK = 16384


def reference_frame(group: FunctionalGroup) -> FunctionalGroup:
    """``group``, with its moments and medians computed now, so their cost and errors fall here."""
    group.moments, group.medians
    return group


def squared_mahalanobis(values: np.ndarray, moments: PointwiseMoments) -> np.ndarray:
    """Point-wise squared Mahalanobis distances of a batch of curves to the
    means, clipped at zero: (N, m, p) -> (N, m)."""
    diff = (values - moments.means[None]).transpose(2, 0, 1)
    maha2 = quadratic_forms(diff, moments.inv_cov.transpose(1, 2, 0))
    return np.maximum(maha2, 0.0, out=maha2)


def pointwise_outlyingness(values: np.ndarray, reference: FunctionalGroup) -> np.ndarray:
    """Outlyingness vectors of a batch of curves at every grid point:
    (N, m, p) -> (N, m, p).

    Raises:
        ValueError: if ``values`` is not (N, m, p) with the reference's m and
            p, or holds a value that is not finite; before any statistic of
            the reference is computed.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1:] != (reference.grid.m, reference.p):
        raise ValueError(
            f"expected (N, {reference.grid.m}, {reference.p}) values for reference "
            f"group {reference.label!r}, got shape {values.shape}"
        )
    if not np.isfinite(values).all():
        raise ValueError("curve values must be finite")
    maha2 = squared_mahalanobis(values, reference.moments)
    dev = values - reference.medians[None]
    dist = distances(values.transpose(2, 0, 1), reference.medians.T)
    safe = np.maximum(dist, ZERO_DIRECTION_TOL)
    unit = dev / safe[:, :, None]
    unit[dist < ZERO_DIRECTION_TOL] = 0.0
    # 1/depth - 1 equals the squared Mahalanobis distance for this depth
    return maha2[:, :, None] * unit


def _outer_sums(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Grid-weighted outer products of an (N, m, p) batch,
    sum_m weights[m] * a[n, m, i] * a[n, m, j]: (N, p, p).

    Gives the bits of ``np.einsum("m,nmi,nmj->nij", weights, a, a)``: each
    term is (w_m a_i) a_j, the m terms are added in grid order by reducing an
    (m, curves) block over its outer axis, and +0.0 is added last, as einsum
    adds into a zeroed output. The blocks are written from strided views of
    ``a`` into two buffers of at most _BLOCK values, reused block after block.
    Numpy sums a single column pairwise, so no block holds one curve: one
    curve is summed as two equal rows, and a last block of one curve starts a
    curve early.
    """
    n, m, p = a.shape
    if n == 1:
        a = np.concatenate([a, a])
    rows = len(a)
    step = max(2, _BLOCK // m)
    wa = np.empty((m, min(step, rows)))
    term = np.empty_like(wa)
    out = np.empty((rows, p, p))
    for start in range(0, rows, step):
        start = min(start, rows - 2)
        block = a[start : start + step]
        size = len(block)
        for i in range(p):
            np.multiply(weights[:, None], block[:, :, i].T, out=wa[:, :size])
            for j in range(p):
                np.multiply(wa[:, :size], block[:, :, j].T, out=term[:, :size])
                term[:, :size].sum(axis=0, out=out[start : start + size, i, j])
    out += 0.0
    return out[:n]


class BatchSummaries:
    """Column-stacked summaries of a batch of N curves against one group:
    ``mo`` (N, p) and ``vo`` (N,) computed at construction; ``fo`` (N,) and
    the outlyingness matrices ``fom`` and ``vom`` (N, p, p) computed on first
    read and kept."""

    def __init__(self, outlyingness: np.ndarray, weights: np.ndarray):
        self._o = outlyingness
        self._weights = weights
        self.mo = np.einsum("m,nmi->ni", weights, outlyingness)
        self._dev = outlyingness - self.mo[:, None, :]
        self.vo = np.einsum("m,nmi,nmi->n", weights, self._dev, self._dev)

    @cached_property
    def fo(self) -> np.ndarray:
        return np.einsum("m,nmi,nmi->n", self._weights, self._o, self._o)

    @cached_property
    def fom(self) -> np.ndarray:
        return _outer_sums(self._weights, self._o)

    @cached_property
    def vom(self) -> np.ndarray:
        return _outer_sums(self._weights, self._dev)


def summarize_values(values: np.ndarray, reference: FunctionalGroup) -> BatchSummaries:
    """MO, VO, FO and the outlyingness matrices of an (N, m, p) batch of
    curves against one group, checked as ``pointwise_outlyingness`` does.

    The curves are never pooled into the reference: the group's empirical
    distribution alone defines the point-wise depths and medians.
    """
    return BatchSummaries(pointwise_outlyingness(values, reference), reference.moments.weights)


def _apply_transform(
    values: np.ndarray, a0: np.ndarray, b: np.ndarray, f: np.ndarray, perm: np.ndarray
) -> np.ndarray:
    """Apply x(t_i) -> f(t_{g(i)}) * A0 x(t_{g(i)}) + b along the last two axes."""
    out = f[:, None] * (values @ a0.T) + b[None, :]
    return out[..., perm, :]


def check_transformation_invariance(
    values: np.ndarray,
    reference: FunctionalGroup,
    a0: np.ndarray,
    b=None,
    f=None,
    g=None,
) -> float:
    """Deviation of VOM from exact conjugation under a response/time transform.

    Transforms the (N, m, p) batch of curves and every reference curve by
    ``T(x)(t_i) = f(t_{g(i)}) * A0 x(t_{g(i)}) + b``, recomputes VOM from
    scratch, and returns ``max |VOM_transformed - A0 VOM A0^T|`` over the
    batch. On uniform grids with measure-preserving re-indexings (identity,
    reversal) the deviation is at the level of solver tolerances.

    Args:
        a0: orthogonal (p, p) matrix.
        b: finite constant shift, default zero.
        f: positive, finite scale values at the grid points, default all ones.
        g: integer permutation of grid indices, default identity.
    """
    p, grid = reference.p, reference.grid
    m = grid.m
    a0 = np.asarray(a0, dtype=float)
    if a0.shape != (p, p) or not (np.max(np.abs(a0.T @ a0 - np.eye(p))) <= 1e-10):
        raise ValueError("a0 must be orthogonal (p x p)")
    b = np.zeros(p) if b is None else np.asarray(b, dtype=float)
    if b.shape != (p,) or not np.isfinite(b).all():
        raise ValueError(f"b must be a finite length-{p} vector")
    f = np.ones(m) if f is None else np.asarray(f, dtype=float)
    if f.shape != (m,) or not np.all((f > 0.0) & (f < np.inf)):
        raise ValueError("f must be positive and finite at every grid point")
    perm = np.arange(m) if g is None else np.asarray(g)
    if perm.dtype.kind not in "iu" or sorted(perm.tolist()) != list(range(m)):
        raise ValueError("g must be a permutation of grid indices")

    vom = summarize_values(values, reference).vom
    t_ref = FunctionalGroup.from_values(
        reference.label, _apply_transform(reference.values, a0, b, f, perm), grid
    )
    t_vom = summarize_values(_apply_transform(values, a0, b, f, perm), t_ref).vom
    return float(np.max(np.abs(t_vom - a0 @ vom @ a0.T)))
