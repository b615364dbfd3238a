"""Command-line entry points: simulate, bench, classify, diagnose."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .classify import check_method, predict_batch, train
from .curves import derivative_augment, read_groups_csv, write_groups_csv, write_rows
from .experiment import ExperimentSpec, emit_diagnostics, run_experiment
from .simulate import DATASETS, GeneratorSpec, default_grid, generate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirout",
        description="Shape-based classification of multivariate functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a benchmark dataset as CSV")
    p_sim.add_argument("--data", required=True, choices=DATASETS)
    p_sim.add_argument("--class", dest="class_label", required=True, type=int, choices=(0, 1))
    p_sim.add_argument("--n", required=True, type=int)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--m", type=int, default=50, help="grid size (default 50)")
    p_sim.add_argument("--noiseless", action="store_true", help="omit the noise process")
    p_sim.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="run a replicated benchmark from a JSON spec")
    p_bench.add_argument("--spec", required=True, help="JSON experiment spec file")
    p_bench.add_argument("--out", required=True, help="per-replicate rates CSV")
    p_bench.add_argument("--workers", type=int, default=1)

    p_cls = sub.add_parser("classify", help="train on one CSV, classify another")
    p_cls.add_argument("--train", required=True)
    p_cls.add_argument("--test", required=True)
    p_cls.add_argument("--method", required=True)
    p_cls.add_argument("--seed", type=int, default=0)
    p_cls.add_argument("--derivatives", action="store_true")
    p_cls.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="emit per-curve MO/VO/FO rows")
    p_diag.add_argument("--group", required=True, help="CSV with the curves to score")
    p_diag.add_argument("--reference", required=True, help="CSV with the reference group")
    p_diag.add_argument("--group-label", default=None)
    p_diag.add_argument("--reference-label", default=None)
    p_diag.add_argument("--out", required=True)
    return parser


def _pick_group(path: str, label: str | None, what: str):
    groups, curve_ids = read_groups_csv(path)
    if label is None:
        if len(groups) != 1:
            raise ValueError(
                f"{what} file has groups {sorted(groups)}; pass --{what}-label to pick one"
            )
        label = next(iter(groups))
    elif label not in groups:
        raise ValueError(f"{what} file has no group {label!r} (found {sorted(groups)})")
    return groups[label], curve_ids[label]


def _cmd_simulate(args) -> int:
    spec = GeneratorSpec(
        args.data,
        args.class_label,
        args.n,
        grid=default_grid(args.m),
        seed=args.seed,
        include_noise=not args.noiseless,
    )
    write_groups_csv([generate(spec)], args.out)
    return 0


def _cmd_bench(args) -> int:
    with open(args.spec) as fh:
        spec = ExperimentSpec.from_json(fh.read())
    result = run_experiment(spec, workers=args.workers)
    result.write_csv(args.out)
    print(result.summary_table())
    return 0


def _cmd_classify(args) -> int:
    method = check_method(args.method)
    train_groups, _ = read_groups_csv(args.train)
    test_groups, test_ids = read_groups_csv(args.test)
    groups = list(train_groups.values())
    n_per_group = {g.label: g.n for g in groups}
    print(f"train: {n_per_group} (m={groups[0].grid.m}, p={groups[0].p})")
    if args.derivatives:
        groups = [derivative_augment(g) for g in groups]
    model = train(groups, method, rng_seed=args.seed)

    header = ["curve_id", "true_group", "predicted"] + [f"score_{g}" for g in model.labels]
    rows = []
    correct = total = 0
    for label, g in test_groups.items():
        queries = derivative_augment(g) if args.derivatives else g
        preds = predict_batch(model, queries)
        correct += np.count_nonzero(preds.label == label)
        total += len(preds)
        for cid, predicted, scores in zip(test_ids[label], preds.label.tolist(), preds.scores.tolist()):
            rows.append([cid, label, predicted, *scores])
    write_rows(args.out, header, rows)
    print(f"accuracy: {correct / total:.4f} ({correct}/{total})")
    return 0


def _cmd_diagnose(args) -> int:
    group, curve_ids = _pick_group(args.group, args.group_label, "group")
    reference, _ = _pick_group(args.reference, args.reference_label, "reference")
    emit_diagnostics(group, reference, args.out, curve_ids=curve_ids)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "classify": _cmd_classify,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # surface a clean message, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
