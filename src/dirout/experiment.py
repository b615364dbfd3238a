"""Replicated train/test benchmark runs with correct-classification rates.

Each replicate regenerates (or re-splits) the data with seeds derived from
the master seed and the replicate index, trains every requested method on the
same stratified split, and scores the held-out curves. Results are collected
per method as one rate per replicate.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .classify import METHODS, predict_batch, train
from .curves import (
    FunctionalGroup, check_same_grid, default_curve_ids, derivative_augment, read_groups_csv, write_rows,
)
from .errors import check_integer
from .outlyingness import summarize_values
from .simulate import DATASETS, GeneratorSpec, default_grid, derivative_dataset, generate
from .seeding import derive_seed

__all__ = ["ExperimentSpec", "ExperimentResult", "run_experiment", "emit_diagnostics"]

# role tags for per-replicate seed derivation
_ROLE_DATA = 10
_ROLE_SPLIT = 20
_ROLE_TRAIN = 30


@dataclass(frozen=True)
class ExperimentSpec:
    """A benchmark definition: data source, methods, split sizes, seeding.

    ``dataset`` is either a generator id ("1", "2", "3", "1c", "4", "5", "6")
    or a path to a curves CSV file. Sizes are per class.
    """

    dataset: str
    methods: tuple[str, ...]
    n_train: int
    n_test: int
    replicates: int
    seed: int = 0
    derivatives: bool = False
    m: int = 50

    def __post_init__(self):
        if not isinstance(self.methods, (list, tuple)):
            raise ValueError(f"methods must be a list of method names, got {self.methods!r}")
        methods = tuple(str(m).upper() for m in self.methods)
        if not methods:
            raise ValueError("methods must be non-empty")
        for i, m in enumerate(methods):
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
            if m in methods[:i]:
                raise ValueError(f"method {m!r} is listed twice")
        object.__setattr__(self, "methods", methods)
        ds = str(self.dataset)
        object.__setattr__(self, "dataset", ds.lower() if ds.lower() in DATASETS else ds)
        for name in ("n_train", "n_test", "replicates", "seed", "m"):
            check_integer(name, getattr(self, name))
        if not isinstance(self.derivatives, bool):
            raise ValueError(f"derivatives must be a bool, got {self.derivatives!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.m < 2:
            raise ValueError("m must be >= 2")

    @property
    def is_generated(self) -> bool:
        return self.dataset in DATASETS

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """The spec of a JSON object that names every required field and no
        other; ``ValueError`` names the field."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"spec must be a JSON object, got {json.dumps(payload)}")
        for f in fields(cls):
            if f.name not in payload and f.default is MISSING:
                raise ValueError(f"spec is missing field {f.name!r}")
        unknown = sorted(payload.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"spec has unknown field {unknown[0]!r}")
        return cls(**payload)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Per-method correct-classification rates across replicates."""

    spec: ExperimentSpec
    methods: tuple[str, ...]
    rates: np.ndarray  # (n_methods, replicates)
    replicate_seeds: tuple[int, ...]

    @property
    def mean_rates(self) -> dict[str, float]:
        return {m: float(self.rates[i].mean()) for i, m in enumerate(self.methods)}

    @property
    def sd_rates(self) -> dict[str, float]:
        ddof = 1 if self.rates.shape[1] > 1 else 0
        return {m: float(self.rates[i].std(ddof=ddof)) for i, m in enumerate(self.methods)}

    def write_csv(self, path) -> None:
        """One row per (method, replicate); deterministic byte-for-byte."""
        rows = (
            [m, r, seed, rate]
            for m, rates in zip(self.methods, self.rates.tolist())
            for r, (seed, rate) in enumerate(zip(self.replicate_seeds, rates))
        )
        write_rows(path, ["method", "replicate", "seed", "p_c"], rows)

    def summary_table(self) -> str:
        header = f"{'method':<8}{'mean p_c':>12}{'sd':>12}"
        rows = [header, "-" * len(header)]
        means, sds = self.mean_rates, self.sd_rates
        for m in self.methods:
            rows.append(f"{m:<8}{means[m]:>12.4f}{sds[m]:>12.4f}")
        return "\n".join(rows)


def _replicate_groups(spec: ExperimentSpec, r: int, csv_groups) -> list[FunctionalGroup]:
    if not spec.is_generated:
        if spec.derivatives:
            return [derivative_augment(g) for g in csv_groups]
        return csv_groups
    grid = default_grid(spec.m)
    out = []
    for cls in (0, 1):
        gspec = GeneratorSpec(
            spec.dataset,
            cls,
            spec.n_train + spec.n_test,
            grid=grid,
            seed=derive_seed(spec.seed, r, _ROLE_DATA + cls),
        )
        out.append(derivative_dataset(gspec) if spec.derivatives else generate(gspec))
    return out


def _split(group: FunctionalGroup, n_train: int, n_test: int, rng):
    """Training and test curves as two groups; every method of a replicate shares the first."""
    if group.n < n_train + n_test:
        raise ValueError(
            f"group {group.label!r} has {group.n} curves, need {n_train + n_test}"
        )
    perm = rng.permutation(group.n)
    train_idx, test_idx = perm[:n_train], perm[n_train : n_train + n_test]
    train_g = FunctionalGroup.from_values(group.label, group.values[train_idx], group.grid)
    test_g = FunctionalGroup.from_values(group.label, group.values[test_idx], group.grid)
    return train_g, test_g


def _run_replicate(spec: ExperimentSpec, r: int, csv_groups) -> np.ndarray:
    try:
        groups = _replicate_groups(spec, r, csv_groups)
        rng = np.random.default_rng(derive_seed(spec.seed, r, _ROLE_SPLIT))
        train_groups, test_values = [], []
        for g in groups:
            tr, te = _split(g, spec.n_train, spec.n_test, rng)
            train_groups.append(tr)
            test_values.append(te.values)
        # every test curve in one batch, with its group's label as the truth
        queries = FunctionalGroup.from_values("test", np.concatenate(test_values), groups[0].grid)
        truth = np.repeat([g.label for g in groups], spec.n_test)
    except Exception as exc:
        raise RuntimeError(f"replicate {r}: {exc}") from exc
    rates = np.empty(len(spec.methods))
    for i, method in enumerate(spec.methods):
        try:
            model = train(train_groups, method, rng_seed=derive_seed(spec.seed, r, _ROLE_TRAIN + i))
            predicted = predict_batch(model, queries).label
        except Exception as exc:
            raise RuntimeError(f"replicate {r}, method {method}: {exc}") from exc
        rates[i] = np.count_nonzero(predicted == truth) / truth.size
    return rates


def _replicate_worker(args):
    spec, r, csv_groups = args
    return r, _run_replicate(spec, r, csv_groups)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run all replicates of a benchmark spec.

    Replicates derive their randomness independently from (seed, replicate),
    so the result is identical whether they run sequentially or in parallel.

    Raises:
        ValueError: if ``workers`` is not an integer >= 1; before any
            replicate runs or any worker starts.
    """
    check_integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    csv_groups = None if spec.is_generated else list(read_groups_csv(spec.dataset)[0].values())
    rep_seeds = tuple(derive_seed(spec.seed, r) for r in range(spec.replicates))
    rates = np.empty((len(spec.methods), spec.replicates))
    if workers > 1 and spec.replicates > 1:
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(spec, r, csv_groups) for r in range(spec.replicates)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for r, rep_rates in pool.map(_replicate_worker, jobs):
                rates[:, r] = rep_rates
    else:
        for r in range(spec.replicates):
            rates[:, r] = _run_replicate(spec, r, csv_groups)
    return ExperimentResult(spec, spec.methods, rates, rep_seeds)


def emit_diagnostics(group: FunctionalGroup, reference: FunctionalGroup, out_path, curve_ids=None) -> None:
    """Write per-curve outlyingness rows ``curve_id, MO_1..MO_p, VO, FO``.

    Scores every curve of ``group`` against ``reference``; suitable for
    scatter plots of shape versus scale outlyingness. Without ``curve_ids``
    the curves take the ids ``write_groups_csv`` gives them.
    """
    check_same_grid((reference, group))
    if curve_ids is None:
        curve_ids = default_curve_ids(group.label, group.n)
    elif len(curve_ids) != group.n:
        raise ValueError("curve_ids length must match the group size")
    summaries = summarize_values(group.values, reference)
    header = ["curve_id"] + [f"MO_{k + 1}" for k in range(group.p)] + ["VO", "FO"]
    rows = zip(curve_ids, summaries.mo.tolist(), summaries.vo.tolist(), summaries.fo.tolist())
    write_rows(out_path, header, ([cid, *mo, vo, fo] for cid, mo, vo, fo in rows))
