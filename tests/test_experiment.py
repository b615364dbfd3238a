import json

import numpy as np
import pytest

from dirout import curves, experiment
from dirout.classify import METHODS
from dirout.curves import FunctionalGroup, Grid, write_groups_csv
from dirout.experiment import (
    ExperimentSpec,
    emit_diagnostics,
    run_experiment,
)
from dirout.outlyingness import reference_frame
from dirout.curves import Curve
from dirout.simulate import GeneratorSpec, generate


def make_level_groups(rng, levels, n=24, m=12, noise=0.5):
    grid = Grid(np.linspace(0.0, 1.0, m))
    groups = []
    for label, level in levels:
        vals = level + noise * rng.normal(size=(n, m, 1))
        groups.append(FunctionalGroup.from_values(label, vals, grid))
    return groups


class TestRunExperiment:
    def test_perfectly_separated_classes(self, tmp_path):
        rng = np.random.default_rng(0)
        groups = make_level_groups(rng, [("0", 0.0), ("1", 1000.0)])
        path = tmp_path / "sep.csv"
        write_groups_csv(groups, path)
        spec = ExperimentSpec(
            str(path), ("RMD", "VOM", "FM1", "FM2", "RP1", "RP2"),
            n_train=12, n_test=12, replicates=3, seed=1,
        )
        result = run_experiment(spec)
        assert np.all(result.rates == 1.0)

    def test_identical_generators_score_at_chance(self):
        # both "classes" drawn from the same law: accuracy must sit at chance
        from dirout.classify import predict_batch, train

        rates = []
        for r in range(20):
            g0 = generate(GeneratorSpec("3", 0, 70, seed=1000 + 4 * r, grid=Grid(np.linspace(0, 1, 15))))
            g1 = generate(GeneratorSpec("3", 0, 70, seed=1001 + 4 * r, grid=Grid(np.linspace(0, 1, 15))))
            g1 = FunctionalGroup("1", g1.curves)
            model = train([g0, g1], "VOM", rng_seed=r)
            correct = 0
            for cls, seed in (("0", 1002 + 4 * r), ("1", 1003 + 4 * r)):
                queries = generate(GeneratorSpec("3", 0, 50, seed=seed, grid=Grid(np.linspace(0, 1, 15))))
                correct += sum(p.label == cls for p in predict_batch(model, queries))
            rates.append(correct / 100)
        assert abs(np.mean(rates) - 0.5) <= 0.05

    def test_rates_structure_and_mean(self):
        spec = ExperimentSpec("3", ("VOM", "FM2"), n_train=15, n_test=15, replicates=4, seed=4, m=20)
        result = run_experiment(spec)
        assert result.rates.shape == (2, 4)
        assert np.all((0.0 <= result.rates) & (result.rates <= 1.0))
        for i, m in enumerate(result.methods):
            assert result.mean_rates[m] == pytest.approx(result.rates[i].mean(), abs=1e-15)

    def test_byte_identical_reruns(self, tmp_path):
        spec = ExperimentSpec("2", ("VOM", "RP2"), n_train=12, n_test=12, replicates=3, seed=5, m=20)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(spec).write_csv(p1)
        run_experiment(spec).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_workers_match_sequential(self):
        spec = ExperimentSpec("3", ("VOM",), n_train=10, n_test=10, replicates=4, seed=6, m=15)
        seq = run_experiment(spec, workers=1)
        par = run_experiment(spec, workers=2)
        assert np.array_equal(seq.rates, par.rates)

    def test_one_predict_call_per_method_and_replicate(self, monkeypatch):
        calls = []
        original = experiment.predict_batch

        def counting(model, queries):
            calls.append((model.method, queries.n))
            return original(model, queries)

        monkeypatch.setattr(experiment, "predict_batch", counting)
        spec = ExperimentSpec("4", METHODS, n_train=15, n_test=5, replicates=2, seed=3, m=12)
        run_experiment(spec)
        assert calls == [(method, 10) for method in METHODS] * 2

    def test_method_failure_names_replicate(self, tmp_path):
        rng = np.random.default_rng(7)
        groups = make_level_groups(rng, [("0", 0.0), ("1", 1.0)], n=8)
        path = tmp_path / "small.csv"
        write_groups_csv(groups, path)
        # RMD needs p+4 curves per class; 4 train curves are too few
        spec = ExperimentSpec(str(path), ("RMD",), n_train=4, n_test=4, replicates=2, seed=8)
        with pytest.raises(RuntimeError, match="replicate 0"):
            run_experiment(spec)

    def test_json_round_trip(self):
        spec = ExperimentSpec("1c", ("VOM", "RMD"), n_train=10, n_test=10, replicates=2, seed=9)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "field, value", [("n_projections", 5.0), ("tukey_n_dirs", 50.0), ("mcd_h", 20.0), ("mcd_h", "7")]
    )
    def test_json_config_rejects_non_integers(self, field, value):
        spec = ExperimentSpec("1", ("RP1",), n_train=10, n_test=10, replicates=1)
        payload = json.loads(spec.to_json())
        payload["config"][field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ExperimentSpec.from_json(json.dumps(payload))


class TestSharedFrames:
    def test_one_median_computation_per_training_group(self, monkeypatch):
        calls = []
        original = curves.geometric_medians_batch

        def counting(values):
            calls.append(values.shape)
            return original(values)

        monkeypatch.setattr(curves, "geometric_medians_batch", counting)
        spec = ExperimentSpec("4", METHODS, n_train=15, n_test=5, replicates=2, seed=3, m=12)
        run_experiment(spec)
        assert calls == [(15, 12, 2)] * 4


class TestSplitProtocol:
    def test_exact_disjoint_stratified_split(self):
        from dirout.experiment import _split

        rng = np.random.default_rng(10)
        grid = Grid(np.linspace(0, 1, 5))
        grp = FunctionalGroup.from_values("g", rng.normal(size=(30, 5, 1)), grid)
        tr, te = _split(grp, 18, 12, rng)
        assert tr.n == 18 and te.n == 12
        tr_rows = {tuple(v[:, 0]) for v in tr.values}
        te_rows = {tuple(v[:, 0]) for v in te.values}
        assert not tr_rows & te_rows

    def test_insufficient_curves(self):
        from dirout.experiment import _split

        rng = np.random.default_rng(11)
        grid = Grid(np.linspace(0, 1, 5))
        grp = FunctionalGroup.from_values("g", rng.normal(size=(10, 5, 1)), grid)
        with pytest.raises(ValueError):
            _split(grp, 8, 4, rng)


class TestEmitDiagnostics:
    def test_rows_and_identity(self, tmp_path):
        g0 = generate(GeneratorSpec("1", 0, 12, seed=12))
        ref = generate(GeneratorSpec("1", 1, 15, seed=13))
        out = tmp_path / "diag.csv"
        emit_diagnostics(g0, ref, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "curve_id,MO_1,VO,FO"
        assert len(lines) == 13
        for line in lines[1:]:
            _, mo, vo, fo = line.split(",")
            assert float(fo) == pytest.approx(float(mo) ** 2 + float(vo), abs=1e-9)

    def test_median_curve_row_is_zero(self, tmp_path):
        rng = np.random.default_rng(14)
        grid = Grid(np.linspace(0, 1, 8))
        ref = FunctionalGroup.from_values("r", rng.normal(size=(20, 8, 2)), grid)
        med = Curve(reference_frame(ref).medians, grid)
        grp = FunctionalGroup("q", (med,))
        out = tmp_path / "diag.csv"
        emit_diagnostics(grp, ref, out, curve_ids=["median"])
        line = out.read_text().strip().split("\n")[1]
        assert line == "median,0.0,0.0,0.0,0.0"
