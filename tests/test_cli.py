import json

import numpy as np
import pytest

from dirout import classify
from dirout.classify import METHODS
from dirout.cli import main
from dirout.curves import read_groups_csv


def test_simulate_writes_readable_csv(tmp_path, capsys):
    out = tmp_path / "d4.csv"
    rc = main([
        "simulate", "--data", "4", "--class", "1", "--n", "6", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    groups, report = read_groups_csv(out)
    assert report == {**report, "m": 50, "p": 2}
    assert groups["1"].n == 6


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
    assert "accuracy: 1.0000" in capsys.readouterr().out
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


def test_error_exit_code(tmp_path, capsys):
    rc = main(["bench", "--spec", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_classify_rejects_zero_tukey_directions(tmp_path, capsys):
    data = tmp_path / "d4.csv"
    assert main(["simulate", "--data", "4", "--class", "0", "--n", "5", "--m", "8",
                 "--out", str(data)]) == 0
    out = tmp_path / "pred.csv"
    rc = main(["classify", "--train", str(data), "--test", str(data), "--method", "FM1",
               "--tukey-n-dirs", "0", "--out", str(out)])
    assert rc == 1
    assert "error: tukey_n_dirs must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()
