"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured quantities so a
full run doubles as a results table. Heavy benchmark checks run the same
protocol throughout: 10 replicates, 100/100 train-test per class, 50-point
grid, fixed seeds.
"""

import itertools
import time

import numpy as np
from scipy.integrate import quad

import dirout
from dirout.classify import METHODS
from dirout.curves import FunctionalGroup, Grid, read_groups_csv, write_groups_csv
from dirout.experiment import ExperimentSpec, run_experiment
from dirout.outlyingness import check_transformation_invariance, summarize_values
from dirout.robust import c_step, mcd_fit
from dirout.simulate import (
    GeneratorSpec,
    bessel_k,
    default_grid,
    generate,
    matern,
    sample_gp,
)

SEED = 2024
BENCH = dict(n_train=100, n_test=100, replicates=10)


def report(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_reference(rng, n, m, p, label="ref"):
    grid = Grid(np.linspace(0.0, 1.0, m))
    base = rng.normal(size=(n, 1, p))
    vals = base + rng.normal(scale=0.6, size=(n, m, p))
    return FunctionalGroup.from_values(label, vals, grid)


def random_orthogonal(rng, p):
    q, r = np.linalg.qr(rng.normal(size=(p, p)))
    return q * np.sign(np.diag(r))


def test_criterion_01_decomposition_identities():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = {"eq": 0.0, "mat": 0.0, "tr_fo": 0.0, "tr_vo": 0.0}
    pairs = 0
    for p in (1, 2, 3):
        for _ in range(14):  # 14 references x 5 curves x 3 dims = 210 pairs
            ref = random_reference(rng, n=12, m=50, p=p)
            for _ in range(5):
                if pairs >= 200:
                    break
                values = rng.normal(size=(50, p))
                s = summarize_values(values[None], ref)
                mo, vo, fo, fom, vom = s.mo[0], s.vo[0], s.fo[0], s.fom[0], s.vom[0]
                worst["eq"] = max(worst["eq"], abs(fo - float(mo @ mo) - vo))
                worst["mat"] = max(worst["mat"], float(np.max(np.abs(fom - np.outer(mo, mo) - vom))))
                worst["tr_fo"] = max(worst["tr_fo"], abs(fo - float(np.trace(fom))))
                worst["tr_vo"] = max(worst["tr_vo"], abs(vo - float(np.trace(vom))))
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-9 for v in worst.values()) and elapsed < 10.0 and pairs >= 200
    report(
        "decomposition identities",
        ok,
        f"{pairs} pairs, max dev {max(worst.values()):.2e} (tol 1e-9), {elapsed:.1f}s",
    )


def test_criterion_02_vom_conjugation_invariance():
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        p = 2 if i % 2 == 0 else 3
        ref = random_reference(rng, n=15, m=50, p=p)
        values = rng.normal(size=(50, p))
        a0 = random_orthogonal(rng, p)
        b = rng.normal(size=p)
        f = 1.0 + ref.grid.points
        g = np.arange(50) if i % 4 < 2 else np.arange(50)[::-1]
        dev = check_transformation_invariance(values[None], ref, a0, b=b, f=f, g=g)
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(
        "outlyingness matrix conjugation invariance",
        ok,
        f"50 transforms, max dev {worst:.2e} (tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_03_mcd_matches_exhaustive_search():
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    hits = 0
    monotone = True
    for i in range(50):
        n = int(rng.integers(10, 13))
        h = int(rng.integers(7, min(10, n) + 1))
        pts = rng.normal(size=(n, 2))
        pts[: n // 4] += rng.normal(scale=8.0, size=(n // 4, 2))  # some far points
        fit = mcd_fit(pts, h=h, rng_seed=int(rng.integers(1 << 30)))
        best = np.inf
        for subset in itertools.combinations(range(n), h):
            sel = pts[list(subset)]
            diff = sel - sel.mean(axis=0)
            best = min(best, float(np.linalg.det(diff.T @ diff / h)))
        if abs(fit.determinant - best) <= 1e-10 * max(1.0, best):
            hits += 1
        # concentration chain from a fresh random start must be monotone
        subset = np.sort(rng.choice(n, size=h, replace=False))
        prev = np.inf
        for _ in range(30):
            new_subsets, _, _, dets = c_step(pts, subset[None], h)
            new_subset, det = new_subsets[0], float(dets[0])
            monotone &= det <= prev + 1e-12 * max(1.0, abs(prev if np.isfinite(prev) else 1.0))
            prev = det
            if det <= 0.0 or np.array_equal(new_subset, subset):
                break
            subset = new_subset
    elapsed = time.perf_counter() - t0
    ok = hits >= 48 and monotone and elapsed < 60.0
    report(
        "minimum determinant subset vs exhaustive search",
        ok,
        f"{hits}/50 exact, c-step monotone={monotone}, {elapsed:.1f}s",
    )


def test_criterion_04_bessel_and_matern_accuracy():
    def oracle(nu, x):
        upper = np.arccosh(750.0 / x) + 1.0
        return quad(lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t), 0.0, upper,
                    limit=200, epsabs=1e-13, epsrel=1e-12)[0]

    dev_k0 = abs(bessel_k(0, 1.0) - oracle(0, 1.0))
    dev_k1 = abs(bessel_k(1, 1.0) - oracle(1, 1.0))
    dev_exp = max(
        abs(matern(h, 0.5, alpha) - np.exp(-alpha * h))
        for h in np.linspace(0.0, 3.0, 61)
        for alpha in (0.2, 1.0, 3.0)
    )
    unit_at_zero = all(matern(0.0, nu, 0.7) == 1.0 for nu in (0.5, 1.0, 2.0))
    ok = dev_k0 <= 1e-7 and dev_k1 <= 1e-7 and dev_exp <= 1e-12 and unit_at_zero
    report(
        "bessel and matern accuracy",
        ok,
        f"K0 dev {dev_k0:.1e}, K1 dev {dev_k1:.1e} (tol 1e-7), "
        f"exp-form dev {dev_exp:.1e} (tol 1e-12), unit at zero lag: {unit_at_zero}",
    )


def test_criterion_05_gp_sampler_statistics():
    grp = sample_gp(default_grid(), n=5000, p=2, seed=SEED + 3)
    var = grp.values.var(axis=0, ddof=1)  # (m, 2)
    sigma2 = np.array([0.01**2, 0.01**2])
    rel = np.max(np.abs(var - sigma2[None, :]) / sigma2[None, :])
    c1, c2 = grp.values[:, :, 0], grp.values[:, :, 1]
    corr = np.array([np.corrcoef(c1[:, t], c2[:, t])[0, 1] for t in range(50)])
    corr_dev = float(np.max(np.abs(corr - 0.6)))
    ok = rel <= 0.10 and corr_dev <= 0.05
    report(
        "gp sampler statistics",
        ok,
        f"max variance rel dev {rel:.3f} (tol 0.10), max cross-corr dev {corr_dev:.3f} (tol 0.05)",
    )


def _bench(dataset, seed=SEED, derivatives=False):
    spec = ExperimentSpec(dataset, METHODS, seed=seed, derivatives=derivatives, **BENCH)
    return run_experiment(spec).mean_rates


def _fmt(means):
    return " ".join(f"{k}={v:.3f}" for k, v in means.items())


def test_criterion_06_univariate_benchmarks():
    t0 = time.perf_counter()
    means = {ds: _bench(ds) for ds in ("1", "2", "3")}
    elapsed = time.perf_counter() - t0
    ok = all(means[ds][m] >= 0.90 for ds in means for m in ("RMD", "VOM"))
    ok &= all(means["2"][m] <= 0.85 for m in ("FM1", "FM2", "RP1", "RP2"))
    ok &= all(means["2"][m] >= 0.95 for m in ("RMD", "VOM"))
    ok &= elapsed < 600.0
    detail = "; ".join(f"data {ds}: {_fmt(v)}" for ds, v in means.items())
    report("univariate benchmark", ok, f"{detail}; {elapsed:.0f}s")


def test_criterion_07_derivative_augmented_benchmarks():
    means = {ds: _bench(ds, derivatives=True) for ds in ("1", "2", "3")}
    ok = all(v["VOM"] >= max(v.values()) for v in means.values())
    detail = "; ".join(f"data {ds}: {_fmt(v)}" for ds, v in means.items())
    report("derivative-augmented benchmark (VOM leads)", ok, detail)


def test_criterion_08_multivariate_benchmarks():
    means = {ds: _bench(ds) for ds in ("4", "5", "6")}
    ok = all(v["VOM"] >= 0.95 for v in means.values())
    ok &= all(means["5"][m] <= 0.75 for m in ("FM1", "FM2", "RP1", "RP2"))
    detail = "; ".join(f"data {ds}: {_fmt(v)}" for ds, v in means.items())
    report("multivariate benchmark", ok, detail)


def test_criterion_09_contamination_robustness():
    clean = _bench("1")
    contaminated = _bench("1c")
    d_rmd = abs(clean["RMD"] - contaminated["RMD"])
    d_vom = abs(clean["VOM"] - contaminated["VOM"])
    ok = d_rmd <= 0.05 and d_vom <= 0.05
    report(
        "contamination robustness",
        ok,
        f"RMD {clean['RMD']:.3f}->{contaminated['RMD']:.3f} (|d|={d_rmd:.3f}), "
        f"VOM {clean['VOM']:.3f}->{contaminated['VOM']:.3f} (|d|={d_vom:.3f}), tol 0.05",
    )


def _phoneme_like_fixture(path, n_per_class=16, m=150):
    grid = Grid(np.arange(1, m + 1) / m)
    t = grid.points
    rng = np.random.default_rng(SEED + 4)
    shapes = [
        8.0 * np.exp(-((t - 0.2) ** 2) / 0.01),
        8.0 * np.exp(-((t - 0.6) ** 2) / 0.02),
        4.0 * np.sin(3 * np.pi * t),
        4.0 * np.cos(5 * np.pi * t),
        6.0 * t + 2.0 * np.sin(8 * np.pi * t),
    ]
    groups = []
    for k, shape in enumerate(shapes):
        vals = shape[None, :, None] + rng.normal(scale=1.0, size=(n_per_class, m, 1))
        groups.append(FunctionalGroup.from_values(f"ph{k}", vals, grid))
    write_groups_csv(groups, path)


def test_criterion_10_format_support_and_determinism(tmp_path):
    # ingest round trip is exact
    data4 = generate(GeneratorSpec("4", 1, 8, seed=SEED + 5))
    rt_path = tmp_path / "rt.csv"
    write_groups_csv([data4], rt_path)
    loaded, _ = read_groups_csv(rt_path)
    rt_exact = np.array_equal(loaded["1"].values, data4.values) and np.array_equal(
        loaded["1"].grid.points, data4.grid.points
    )

    # five-class fixture runs every method end to end
    fx_path = tmp_path / "phoneme_like.csv"
    _phoneme_like_fixture(fx_path)
    spec = ExperimentSpec(str(fx_path), METHODS, n_train=8, n_test=8, replicates=2, seed=SEED + 6)
    result = run_experiment(spec)
    five_class_ok = result.rates.shape == (6, 2) and np.all(result.rates >= 0.0)

    # byte-identical reruns of a bench spec
    bspec = ExperimentSpec("2", ("VOM", "RMD"), n_train=20, n_test=20, replicates=3, seed=SEED + 7)
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    run_experiment(bspec).write_csv(out1)
    run_experiment(bspec).write_csv(out2)
    deterministic = out1.read_bytes() == out2.read_bytes()

    ok = rt_exact and five_class_ok and deterministic
    report(
        "format support and determinism",
        ok,
        f"round-trip exact: {rt_exact}; 5-class x 6 methods ran "
        f"(rates {np.round(result.rates.mean(axis=1), 2).tolist()}); "
        f"byte-identical reruns: {deterministic}",
    )
