"""Seeded generators for the benchmark datasets.

Univariate settings ride on a squared-exponential Gaussian noise process;
the bivariate settings use a bivariate Matern cross-covariance, for which
modified Bessel functions of the second kind are implemented here (power
series for small arguments, a Steed-type continued fraction for large ones;
see Abramowitz & Stegun 9.6 for the series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import FunctionalGroup, Grid, derivative_augment
from .errors import UnsupportedParameterError, check_integer
from .pointwise import cholesky_with_jitter

__all__ = [
    "GeneratorSpec",
    "DATASETS",
    "default_grid",
    "bessel_k",
    "matern",
    "matern_matrix",
    "joint_covariance",
    "generate",
    "derivative_dataset",
]

DATASETS = ("1", "2", "3", "1c", "4", "5", "6")
UNIVARIATE = ("1", "2", "3", "1c")

_EULER_GAMMA = 0.5772156649015328606


def default_grid(m: int = 50) -> Grid:
    """The benchmark grid: m equidistant points i/m on (0, 1]."""
    return Grid(np.arange(1, m + 1) / m)


# ---------------------------------------------------------------------------
# modified Bessel functions of the second kind


def _k0_k1_series(x: float) -> tuple[float, float]:
    """K0 and K1 by the ascending power series, reliable for x <= 2."""
    q = 0.25 * x * x
    lg = math.log(0.5 * x)
    term = 1.0
    i0 = term
    s0 = 0.0
    hk = 0.0
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        hk += 1.0 / k
        i0 += term
        s0 += hk * term
        if term * max(1.0, hk) < 1e-19 * i0:
            break
    k0 = -(lg + _EULER_GAMMA) * i0 + s0

    term = 1.0
    i1sum = term
    s1 = term
    hk = 0.0
    hk1 = 1.0
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + 1))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        i1sum += term
        s1 += (hk + hk1) * term
        if term * (hk + hk1 + 1.0) < 1e-19 * i1sum:
            break
    i1 = 0.5 * x * i1sum
    k1 = 1.0 / x + lg * i1 - 0.25 * x * (s1 - 2.0 * _EULER_GAMMA * i1sum)
    return k0, k1


def _k0_k1_continued_fraction(x: float) -> tuple[float, float]:
    """K0 and K1 by Steed's continued fraction, reliable for x >= 2."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 10000):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-16:
            break
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    k1 = k0 * (x + 0.5 - h) / x
    return k0, k1


def bessel_k(order: int, x: float) -> float:
    """Modified Bessel function of the second kind of integer order.

    Relative error is at the 1e-14 level for x in [1e-6, 50]. Orders above 1
    use the upward recurrence K_{j+1}(x) = K_{j-1}(x) + (2j/x) K_j(x).
    """
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if order != int(order) or order < 0:
        raise UnsupportedParameterError(f"order must be a non-negative integer, got {order}")
    order = int(order)
    k0, k1 = _k0_k1_series(x) if x <= 2.0 else _k0_k1_continued_fraction(x)
    if order == 0:
        return k0
    km, k = k0, k1
    for j in range(1, order):
        km, k = k, km + (2.0 * j / x) * k
    return k


def matern(h: float, nu: float, alpha: float) -> float:
    """Matern correlation 2^(1-nu)/Gamma(nu) (alpha h)^nu K_nu(alpha h).

    Supports positive integer and half-odd-integer smoothness: half-integers
    via the closed exponential-polynomial form, integers via bessel_k. Returns
    exactly 1 at h = 0.
    """
    if nu <= 0.0 or alpha <= 0.0:
        raise ValueError("nu and alpha must be positive")
    h = abs(h)
    if h == 0.0:
        return 1.0
    x = alpha * h
    two_nu = 2.0 * nu
    if two_nu == int(two_nu) and int(two_nu) % 2 == 1:
        n = int(nu - 0.5)
        acc = 0.0
        for i in range(n + 1):
            coef = math.factorial(n + i) / (math.factorial(i) * math.factorial(n - i))
            acc += coef * (2.0 * x) ** (n - i)
        return math.exp(-x) * (math.factorial(n) / math.factorial(2 * n)) * acc
    if nu == int(nu):
        n = int(nu)
        return (2.0 ** (1 - n) / math.factorial(n - 1)) * x**n * bessel_k(n, x)
    raise UnsupportedParameterError(
        f"only integer and half-integer smoothness supported, got nu={nu}"
    )


def matern_matrix(dists: np.ndarray, nu: float, alpha: float) -> np.ndarray:
    """Elementwise Matern correlation of a distance array."""
    dists = np.asarray(dists, dtype=float)
    uniq, inverse = np.unique(np.abs(dists), return_inverse=True)
    vals = np.array([matern(h, nu, alpha) for h in uniq])
    return vals[inverse].reshape(dists.shape)


# ---------------------------------------------------------------------------
# Gaussian process sampling


def joint_covariance(grid: Grid, p: int) -> np.ndarray:
    """Joint covariance of the benchmark noise over the grid.

    p = 1: the squared-exponential process 0.25 exp(-(s - t)^2), (m, m).
    p = 2: the bivariate Matern cross-covariance rho_ij sigma_i sigma_j
    M(|s - t|; nu_ij, alpha_ij) with sigma = 0.01, nu = 2, alpha = (0.2, 0.1)
    on the diagonal blocks, alpha = 0.16 and rho = 0.6 on the cross block,
    (2m, 2m).
    """
    t = grid.points
    dists = np.abs(t[:, None] - t[None, :])
    if p == 1:
        return 0.25 * np.exp(-(dists**2))
    if p == 2:
        block11 = 0.01**2 * matern_matrix(dists, 2.0, 0.2)
        block22 = 0.01**2 * matern_matrix(dists, 2.0, 0.1)
        cross = 0.6 * 0.01 * 0.01 * matern_matrix(dists, 2.0, 0.16)
        return np.block([[block11, cross], [cross, block22]])
    raise ValueError(f"the benchmark noise has p = 1 or 2, got {p!r}")


def _draw_gp(grid: Grid, n: int, p: int, rng) -> np.ndarray:
    """Draw n zero-mean (n, m, p) curves of the benchmark noise."""
    joint = joint_covariance(grid, p)
    factor = cholesky_with_jitter(joint)
    z = rng.standard_normal((n, joint.shape[0]))
    return (z @ factor.T).reshape(n, p, grid.m).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# benchmark dataset generators


@dataclass(frozen=True)
class GeneratorSpec:
    """What to simulate: dataset id, class, sample size, grid, and seed.

    ``include_noise=False`` emits the noiseless mean construction, which is
    handy for diagnostics.
    """

    dataset: str
    class_label: int
    n: int
    grid: Grid = field(default_factory=default_grid)
    seed: int = 0
    include_noise: bool = True

    def __post_init__(self):
        ds = str(self.dataset).lower()
        if ds not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; choose from {DATASETS}")
        object.__setattr__(self, "dataset", ds)
        for name in ("class_label", "n", "seed"):
            check_integer(name, getattr(self, name))
        if self.class_label not in (0, 1):
            raise ValueError("class_label must be 0 or 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _univariate_mean(spec: GeneratorSpec, t: np.ndarray, rng) -> np.ndarray:
    n = spec.n
    sin2 = np.sin(2 * np.pi * t)
    cos2 = np.cos(2 * np.pi * t)
    ds, cls = spec.dataset, spec.class_label
    if ds == "1" or (ds == "1c" and cls == 1):  # dataset 1c's class 1 is dataset 1's
        low, high = (0.5, 1.0) if cls == 0 else (1.0, 1.2)
        u1 = rng.uniform(low, high, n)
        u2 = rng.uniform(low, high, n)
        return u1[:, None] * sin2 + u2[:, None] * cos2
    if ds == "2":
        base = 10.0 * sin2
        if cls == 1:
            base = base + np.sin(20 * np.pi * t)
        return np.tile(base, (n, 1))
    if ds == "3":
        if cls == 0:
            u = rng.uniform(0.5, 1.0, n)
            return u[:, None] * sin2
        u = rng.uniform(-1.0, 1.0, n)
        return np.tile(u[:, None], (1, t.size))
    # dataset 1c, class 0: the sine coefficient follows the class-1 law with
    # probability 0.1
    u01 = rng.uniform(0.5, 1.0, n)
    u02 = rng.uniform(0.5, 1.0, n)
    u11 = rng.uniform(1.0, 1.2, n)
    v = rng.uniform(0.0, 1.0, n)
    coef = np.where(v < 0.1, u11, u01)
    return coef[:, None] * sin2 + u02[:, None] * cos2


def _bivariate_mean(spec: GeneratorSpec, t: np.ndarray, rng) -> np.ndarray:
    n = spec.n
    sin4 = np.sin(4 * np.pi * t)
    cos4 = np.cos(4 * np.pi * t)
    if spec.dataset == "4":
        c1, c2 = sin4.copy(), cos4.copy()
        if spec.class_label == 1:
            c1 = c1 + np.sin(20 * np.pi * t) / 10.0
            c2 = c2 + np.cos(20 * np.pi * t) / 10.0
        return np.stack([np.tile(c1, (n, 1)), np.tile(c2, (n, 1))], axis=2)
    # dataset 5
    if spec.class_label == 0:
        u1 = rng.uniform(-2.0, 2.0, n)
        u2 = rng.uniform(-2.0, 2.0, n)
        c1 = np.tile(u1[:, None], (1, t.size))
        c2 = np.tile(u2[:, None], (1, t.size))
    else:
        u1 = rng.uniform(-0.5, 0.5, n)
        u2 = rng.uniform(-0.5, 0.5, n)
        c1 = u1[:, None] + sin4[None, :]
        c2 = u2[:, None] + cos4[None, :]
    return np.stack([c1, c2], axis=2)


def generate(spec: GeneratorSpec) -> FunctionalGroup:
    """Generate one class of one benchmark dataset as a labeled group."""
    rng = np.random.default_rng(spec.seed)
    t = spec.grid.points
    if spec.dataset != "6":
        mean = _univariate_mean if spec.dataset in UNIVARIATE else _bivariate_mean
        values = mean(spec, t, rng).reshape(spec.n, spec.grid.m, -1)
        if spec.include_noise:
            values = values + _draw_gp(spec.grid, spec.n, values.shape[2], rng)
    else:  # dataset 6 stacks the three univariate settings, drawn independently
        child_seeds = np.random.SeedSequence(spec.seed).generate_state(3)
        parts = []
        for ds, child in zip(("1", "2", "3"), child_seeds):
            sub = GeneratorSpec(
                ds,
                spec.class_label,
                spec.n,
                grid=spec.grid,
                seed=int(child),
                include_noise=spec.include_noise,
            )
            parts.append(generate(sub).values)
        values = np.concatenate(parts, axis=2)
    return FunctionalGroup.from_values(str(spec.class_label), values, spec.grid)


def derivative_dataset(spec: GeneratorSpec) -> FunctionalGroup:
    """Univariate dataset augmented with first derivatives (bivariate output)."""
    if spec.dataset not in UNIVARIATE:
        raise ValueError(f"derivative augmentation applies to datasets {UNIVARIATE}")
    return derivative_augment(generate(spec))
