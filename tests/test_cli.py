import csv
import json

import numpy as np
import pytest

from dirout import classify
from dirout.classify import METHODS, predict_batch, train
from dirout.cli import main
from dirout.curves import read_groups_csv


def test_simulate_writes_readable_csv(tmp_path, capsys):
    out = tmp_path / "d4.csv"
    rc = main([
        "simulate", "--data", "4", "--class", "1", "--n", "6", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    groups, _ = read_groups_csv(out)
    assert (groups["1"].n, groups["1"].grid.m, groups["1"].p) == (6, 50, 2)


def test_simulate_then_diagnose(tmp_path):
    grp = tmp_path / "c0.csv"
    ref = tmp_path / "c1.csv"
    diag = tmp_path / "diag.csv"
    assert main(["simulate", "--data", "2", "--class", "0", "--n", "8", "--seed", "1", "--out", str(grp)]) == 0
    assert main(["simulate", "--data", "2", "--class", "1", "--n", "12", "--seed", "2", "--out", str(ref)]) == 0
    assert main(["diagnose", "--group", str(grp), "--reference", str(ref), "--out", str(diag)]) == 0
    lines = diag.read_text().strip().split("\n")
    assert lines[0] == "curve_id,MO_1,VO,FO"
    assert len(lines) == 9


def test_classify_command(tmp_path, capsys):
    train_f = tmp_path / "train.csv"
    test_f = tmp_path / "test.csv"
    out = tmp_path / "pred.csv"
    rng = np.random.default_rng(0)

    # two well-separated level groups in one file
    rows = ["curve_id,group,t,c1"]
    t = np.linspace(0, 1, 10)
    for label, level, n in (("a", 0.0, 12), ("b", 40.0, 12)):
        for i in range(n):
            vals = level + rng.normal(size=10)
            for tj, vj in zip(t, vals):
                rows.append(f"{label}{i},{label},{float(tj)!r},{float(vj)!r}")
    train_f.write_text("\n".join(rows) + "\n")

    rows = ["curve_id,group,t,c1"]
    for label, level in (("a", 0.0), ("b", 40.0)):
        for i in range(5):
            vals = level + rng.normal(size=10)
            for tj, vj in zip(t, vals):
                rows.append(f"q{label}{i},{label},{float(tj)!r},{float(vj)!r}")
    test_f.write_text("\n".join(rows) + "\n")

    rc = main(["classify", "--train", str(train_f), "--test", str(test_f),
               "--method", "fm2", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("train: {'a': 12, 'b': 12} (m=10, p=1)\n")
    assert "accuracy: 1.0000" in printed
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "curve_id,true_group,predicted,score_a,score_b"
    assert len(lines) == 11


def test_bench_command_deterministic(tmp_path, capsys):
    spec = {
        "dataset": "3",
        "methods": ["VOM", "FM2"],
        "n_train": 10,
        "n_test": 10,
        "replicates": 2,
        "seed": 7,
        "m": 15,
    }
    spec_f = tmp_path / "spec.json"
    spec_f.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["bench", "--spec", str(spec_f), "--out", str(out1)]) == 0
    assert main(["bench", "--spec", str(spec_f), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "method,replicate,seed,p_c"
    assert len(lines) == 5
    for line in lines[1:]:
        method, rep, seed, p_c = line.split(",")
        assert method in ("VOM", "FM2")
        assert 0.0 <= float(p_c) <= 1.0
    assert "mean p_c" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, value, message",
    [("seed", 1.5, "seed must be an integer, got 1.5"),
     ("replicates", 1.5, "replicates must be an integer, got 1.5"),
     ("n_train", True, "n_train must be an integer, got True"),
     ("m", 1, "m must be >= 2")],
)
def test_bench_rejects_a_spec_with_bad_counts(tmp_path, capsys, field, value, message):
    spec = {"dataset": "4", "methods": ["VOM"], "n_train": 10, "n_test": 5, "replicates": 2,
            "m": 10, field: value}
    spec_f, out = tmp_path / "spec.json", tmp_path / "rates.csv"
    spec_f.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(spec_f), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("method", METHODS)
def test_classify_writes_the_first_best_score_and_its_accuracy(tmp_path, capsys, method):
    files = {}
    for role, seed in (("train", 60), ("test", 70)):
        text = []
        for cls in (0, 1):
            path = tmp_path / f"{role}{cls}.csv"
            assert main(["simulate", "--data", "1", "--class", str(cls), "--n", "25", "--m", "12",
                         "--seed", str(seed + cls), "--out", str(path)]) == 0
            text += path.read_text().splitlines()[cls:]  # one header
        files[role] = tmp_path / f"{role}.csv"
        files[role].write_text("\n".join(text) + "\n")
    out = tmp_path / "pred.csv"
    assert main(["classify", "--train", str(files["train"]), "--test", str(files["test"]),
                 "--method", method, "--derivatives", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "curve_id,true_group,predicted,score_0,score_1"
    assert len(rows) == 50
    higher = classify._METHODS[method].higher_is_better
    correct = 0
    for row in rows:
        _, truth, predicted, *scores = row.split(",")
        scores = [float(s) for s in scores]
        best = max(scores) if higher else min(scores)
        assert predicted == ("0", "1")[scores.index(best)]  # the first best
        correct += predicted == truth
    assert f"accuracy: {correct / 50:.4f} ({correct}/50)\n" in capsys.readouterr().out


def test_diagnose_refuses_a_group_it_cannot_pick(tmp_path, capsys):
    both, out = tmp_path / "both.csv", tmp_path / "diag.csv"
    for cls in (0, 1):
        path = tmp_path / f"c{cls}.csv"
        assert main(["simulate", "--data", "2", "--class", str(cls), "--n", "4", "--m", "8",
                     "--out", str(path)]) == 0
    c0, c1 = (tmp_path / f"c{cls}.csv" for cls in (0, 1))
    both.write_text(c0.read_text() + c1.read_text().split("\n", 1)[1])
    assert main(["diagnose", "--group", str(both), "--reference", str(c1), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: group file has groups ['0', '1']; pass --group-label to pick one\n"
    assert main(["diagnose", "--group", str(c0), "--reference", str(both), "--reference-label", "x",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: reference file has no group 'x' (found ['0', '1'])\n"
    assert not out.exists()


def test_bench_and_classify_refuse_an_unknown_method_alike(tmp_path, capsys):
    spec = {"dataset": "4", "methods": ["VOM", "svm"], "n_train": 10, "n_test": 5, "replicates": 2, "m": 10}
    spec_f, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec_f.write_text(json.dumps(spec))
    error = f"error: unknown method 'svm'; choose from {METHODS}\n"
    assert main(["bench", "--spec", str(spec_f), "--out", str(out)]) == 1
    assert capsys.readouterr().err == error
    # the method is checked before either file is read
    assert main(["classify", "--train", "missing.csv", "--test", "missing.csv", "--method", "svm",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == error
    assert not out.exists()


def test_error_exit_code(tmp_path, capsys):
    rc = main(["bench", "--spec", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--n-projections", "--tukey-n-dirs", "--mcd-h"])
def test_classify_refuses_the_removed_settings_flags(tmp_path, capsys, flag):
    # argparse refuses the flag before any file is read
    out = tmp_path / "pred.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", "--train", "t.csv", "--test", "t.csv", "--method", "FM1", flag, "5",
              "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bench_refuses_a_worker_count_below_one(tmp_path, capsys, workers):
    spec = {"dataset": "4", "methods": ["VOM"], "n_train": 10, "n_test": 5, "replicates": 2, "m": 10}
    spec_f, out = tmp_path / "spec.json", tmp_path / "rates.csv"
    spec_f.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(spec_f), "--out", str(out), "--workers", workers]) == 1
    assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
    assert not out.exists()


def test_bench_refuses_a_spec_that_sets_classifier_settings(tmp_path, capsys):
    spec = {"dataset": "4", "methods": ["RP1"], "n_train": 10, "n_test": 5, "replicates": 2, "m": 10,
            "config": {"n_projections": 5}}
    spec_f, out = tmp_path / "spec.json", tmp_path / "rates.csv"
    spec_f.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(spec_f), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spec has unknown field 'config'\n"
    assert not out.exists()


def test_bench_rejects_methods_given_as_a_string(tmp_path, capsys):
    spec = {"dataset": "4", "methods": "RMD", "n_train": 10, "n_test": 5, "replicates": 2, "m": 10}
    spec_f, out = tmp_path / "spec.json", tmp_path / "rates.csv"
    spec_f.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(spec_f), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: methods must be a list of method names, got 'RMD'\n"
    assert not out.exists()


# a comma, a double quote, CR LF and a lone CR, each of which needs csv quoting
QUOTED_IDS = ('0,"x",0000', "c\r\nd", "e\rf")
QUOTED_LABELS = ("g,0", 'h"1\r\n')


def _write_curves(path, curves, t):
    """A curves CSV of (curve id, group label, values) triples, quoted by csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve_id", "group", "t", "c1"])
        for cid, label, values in curves:
            writer.writerows([cid, label, tj, vj] for tj, vj in zip(t.tolist(), values.tolist()))


def _level_curves(rng, t, labels, n, prefix, suffixes=("",)):
    """n noisy curves per label at levels 0, 40, ...; curve i of label k has
    the id ``prefix``, k, i and the suffix i of ``suffixes``, cycled."""
    return [
        (f"{prefix}{k}{i}{suffixes[i % len(suffixes)]}", label, 40.0 * k + rng.normal(size=t.size))
        for k, label in enumerate(labels)
        for i in range(n)
    ]


def _records(path):
    """The header and rows of a CSV file, each row checked to have the header's field count."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [len(row) for row in rows] == [len(header)] * len(rows)
    return header, rows


def test_classify_and_diagnose_quote_ids_and_labels(tmp_path, capsys):
    rng = np.random.default_rng(21)
    t = np.linspace(0, 1, 10)
    train_f, test_f = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_curves(train_f, _level_curves(rng, t, QUOTED_LABELS, 12, "t"), t)
    queries = _level_curves(rng, t, QUOTED_LABELS, 6, "q", QUOTED_IDS)
    _write_curves(test_f, queries, t)

    pred = tmp_path / "pred.csv"
    assert main(["classify", "--train", str(train_f), "--test", str(test_f), "--method", "FM2",
                 "--out", str(pred)]) == 0
    assert "accuracy: 1.0000 (12/12)" in capsys.readouterr().out
    header, rows = _records(pred)
    assert header == ["curve_id", "true_group", "predicted"] + [f"score_{g}" for g in QUOTED_LABELS]
    assert [row[:3] for row in rows] == [[cid, label, label] for cid, label, _ in queries]

    diag = tmp_path / "diag.csv"
    assert main(["diagnose", "--group", str(test_f), "--group-label", QUOTED_LABELS[1],
                 "--reference", str(train_f), "--reference-label", QUOTED_LABELS[0],
                 "--out", str(diag)]) == 0
    header, rows = _records(diag)
    assert header == ["curve_id", "MO_1", "VO", "FO"]
    assert [row[0] for row in rows] == [cid for cid, label, _ in queries if label == QUOTED_LABELS[1]]


def test_classify_writes_plain_fields_unquoted_with_lf_ends(tmp_path):
    rng = np.random.default_rng(22)
    t = np.linspace(0, 1, 8)
    train_f, test_f, pred = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "pred.csv"
    _write_curves(train_f, _level_curves(rng, t, ("a", "b"), 10, "t"), t)
    _write_curves(test_f, _level_curves(rng, t, ("a", "b"), 2, "p"), t)
    assert main(["classify", "--train", str(train_f), "--test", str(test_f), "--method", "FM2",
                 "--out", str(pred)]) == 0

    model = train(list(read_groups_csv(train_f)[0].values()), "FM2")
    test_groups, curve_ids = read_groups_csv(test_f)
    lines = ["curve_id,true_group,predicted,score_a,score_b"]
    for label, group in test_groups.items():
        preds = predict_batch(model, group)
        for cid, predicted, scores in zip(curve_ids[label], preds.label, preds.scores):
            lines.append(f"{cid},{label},{predicted}," + ",".join(repr(float(s)) for s in scores))
    assert lines[1].startswith("p00,a,a,")
    assert pred.read_bytes() == ("\n".join(lines) + "\n").encode()
