import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from dirout import curves, experiment
from dirout.classify import METHODS
from dirout.curves import FunctionalGroup, Grid, derivative_augment, write_groups_csv
from dirout.experiment import (
    ExperimentResult,
    ExperimentSpec,
    emit_diagnostics,
    run_experiment,
)
from dirout.outlyingness import reference_frame
from dirout.simulate import GeneratorSpec, generate


def make_level_groups(rng, levels, n=24, m=12, noise=0.5):
    grid = Grid(np.linspace(0.0, 1.0, m))
    groups = []
    for label, level in levels:
        vals = level + noise * rng.normal(size=(n, m, 1))
        groups.append(FunctionalGroup.from_values(label, vals, grid))
    return groups


def spec_json(spec):
    """The spec as a JSON object with every field, as ``from_json`` reads it."""
    return json.dumps(dataclasses.asdict(spec), indent=2, sort_keys=True)


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
            g1 = FunctionalGroup.from_values("1", g1.values, g1.grid)
            model = train([g0, g1], "VOM", rng_seed=r)
            correct = 0
            for cls, seed in (("0", 1002 + 4 * r), ("1", 1003 + 4 * r)):
                queries = generate(GeneratorSpec("3", 0, 50, seed=seed, grid=Grid(np.linspace(0, 1, 15))))
                correct += np.count_nonzero(predict_batch(model, queries).label == cls)
            rates.append(correct / 100)
        assert abs(np.mean(rates) - 0.5) <= 0.05

    def test_rates_structure_and_mean(self):
        spec = ExperimentSpec("3", ("VOM", "FM2"), n_train=15, n_test=15, replicates=4, seed=4, m=20)
        result = run_experiment(spec)
        assert result.rates.shape == (2, 4)
        assert np.all((0.0 <= result.rates) & (result.rates <= 1.0))
        for i, m in enumerate(spec.methods):
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

    @pytest.mark.parametrize(
        "workers, message",
        [(0, "workers must be >= 1, got 0"),
         (-1, "workers must be >= 1, got -1"),
         (True, "workers must be an integer, got True"),
         (1.5, "workers must be an integer, got 1.5")],
    )
    def test_a_worker_count_that_is_not_a_positive_integer_is_refused(self, monkeypatch, workers, message):
        import concurrent.futures

        def no_run(*args, **kwargs):
            raise AssertionError("a replicate or a worker pool started")

        monkeypatch.setattr(experiment, "_run_replicate", no_run)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
        spec = ExperimentSpec("3", ("VOM",), n_train=10, n_test=10, replicates=4, seed=6, m=15)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(spec, workers=workers)

    def test_the_pool_starts_at_most_one_worker_per_replicate(self, monkeypatch):
        import concurrent.futures

        asked = []

        class InProcessPool:
            """Records the worker count asked for and runs the jobs in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        spec = ExperimentSpec("3", ("VOM", "RP1"), n_train=10, n_test=10, replicates=2, seed=6, m=15)
        pooled = run_experiment(spec, workers=500)
        assert asked == [2]
        assert np.array_equal(pooled.rates, run_experiment(spec, workers=1).rates)
        assert asked == [2]  # one worker runs in this process, with no pool

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

    def test_rates_count_the_record_labels_equal_to_the_truth(self, monkeypatch):
        records = []
        original = experiment.predict_batch

        def keeping(model, queries):
            records.append(original(model, queries))
            return records[-1]

        monkeypatch.setattr(experiment, "predict_batch", keeping)
        spec = ExperimentSpec("1c", METHODS, n_train=15, n_test=20, replicates=2, seed=11, m=12)
        rates = run_experiment(spec).rates
        truth = np.repeat(["0", "1"], spec.n_test)
        counts = [np.count_nonzero(record.label == truth) for record in records]
        # one record per (replicate, method), in that order
        assert rates.T.reshape(-1).tolist() == [c / truth.size for c in counts]
        assert counts == [sum(p == t for p, t in zip(rec.label.tolist(), truth)) for rec in records]
        assert 0 < min(counts) < truth.size

    def test_method_failure_names_replicate(self, tmp_path):
        rng = np.random.default_rng(7)
        groups = make_level_groups(rng, [("0", 0.0), ("1", 1.0)], n=8)
        path = tmp_path / "small.csv"
        write_groups_csv(groups, path)
        # RMD needs p+4 curves per class; 4 train curves are too few
        spec = ExperimentSpec(str(path), ("RMD",), n_train=4, n_test=4, replicates=2, seed=8)
        with pytest.raises(RuntimeError, match="replicate 0"):
            run_experiment(spec)

    def test_data_failure_names_replicate(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "small.csv"
        write_groups_csv(make_level_groups(rng, [("0", 0.0), ("1", 1.0)], n=8), path)
        spec = ExperimentSpec(str(path), ("VOM",), n_train=6, n_test=4, replicates=2, seed=8)
        with pytest.raises(RuntimeError, match="^replicate 0: group '0' has 8 curves, need 10$"):
            run_experiment(spec)

    def test_csv_derivatives_equal_a_csv_of_augmented_curves(self, tmp_path):
        # augmenting each curve commutes with splitting the curves, so the
        # rates of a 2-column CSV with derivatives are those of its augmented
        # 4-column CSV without, bit for bit
        rng = np.random.default_rng(12)
        grid = Grid(np.linspace(0.0, 1.0, 12))
        groups = [
            FunctionalGroup.from_values(label, level + np.cumsum(rng.normal(size=(20, 12, 2)), axis=1), grid)
            for label, level in (("0", 0.0), ("1", 0.8))
        ]
        raw, augmented = tmp_path / "raw.csv", tmp_path / "augmented.csv"
        write_groups_csv(groups, raw)
        write_groups_csv([derivative_augment(g) for g in groups], augmented)
        outs = []
        for path, derivatives in ((raw, True), (augmented, False), (raw, False)):
            spec = ExperimentSpec(str(path), METHODS, n_train=12, n_test=8, replicates=2, seed=13,
                                  derivatives=derivatives)
            outs.append(tmp_path / f"rates-{len(outs)}.csv")
            run_experiment(spec).write_csv(outs[-1])
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() != outs[2].read_bytes()

    def test_json_round_trip(self):
        spec = ExperimentSpec("1c", ("VOM", "RMD"), n_train=10, n_test=10, replicates=2, seed=9)
        assert ExperimentSpec.from_json(spec_json(spec)) == spec


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
        assert tr.n == 18 and len(te) == 12
        tr_rows = {tuple(v[:, 0]) for v in tr.values}
        te_rows = {tuple(v[:, 0]) for v in te}
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
        grp = FunctionalGroup.from_values("q", reference_frame(ref).medians[None], grid)
        out = tmp_path / "diag.csv"
        emit_diagnostics(grp, ref, out, curve_ids=["median"])
        line = out.read_text().strip().split("\n")[1]
        assert line == "median,0.0,0.0,0.0,0.0"

    def test_default_ids_of_a_quoted_label_read_back(self, tmp_path):
        rng = np.random.default_rng(15)
        grid = Grid(np.linspace(0, 1, 8))
        ref = FunctionalGroup.from_values("r", rng.normal(size=(20, 8, 1)), grid)
        grp = FunctionalGroup.from_values('q,"1"\r\n', rng.normal(size=(3, 8, 1)), grid)
        out = tmp_path / "diag.csv"
        emit_diagnostics(grp, ref, out)
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["curve_id", "MO_1", "VO", "FO"]
        assert [row[0] for row in rows] == [f'q,"1"\r\n-000{i}' for i in range(3)]
        assert all(len(row) == 4 for row in rows)


def test_result_csv_bytes(tmp_path):
    spec = ExperimentSpec("2", ("RMD", "VOM"), n_train=5, n_test=5, replicates=2)
    result = ExperimentResult(spec, np.array([[0.5, 0.25], [1.0, 0.1]]))
    out = tmp_path / "rates.csv"
    result.write_csv(out)
    # each replicate's seed is derive_seed(spec.seed, replicate)
    assert out.read_bytes() == (
        b"method,replicate,seed,p_c\nRMD,0,2968811710,0.5\nRMD,1,3964924996,0.25\n"
        b"VOM,0,2968811710,1.0\nVOM,1,3964924996,0.1\n"
    )


class TestSpecValidation:
    """A spec read from JSON is outside input: its fields are checked when it
    is built, not when the run reaches them."""

    BASE = {"dataset": "4", "methods": ["VOM"], "n_train": 10, "n_test": 5, "replicates": 2}

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("m", 2.5), ("replicates", 1.5), ("n_train", True), ("n_test", 5.0),
         ("m", "20"), ("seed", False)],
    )
    def test_non_integer_counts_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ExperimentSpec.from_json(json.dumps({**self.BASE, field: value}))

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_grids_below_two_points_are_rejected(self, m):
        with pytest.raises(ValueError, match="^m must be >= 2$"):
            ExperimentSpec(**{**self.BASE, "methods": ("VOM",), "m": m})

    def test_numpy_integers_are_accepted(self):
        spec = ExperimentSpec(**{**self.BASE, "methods": ("VOM",), "seed": np.int64(3), "m": np.int32(2)})
        assert (spec.seed, spec.m) == (3, 2)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_derivatives_that_are_not_bools_are_rejected(self, value):
        with pytest.raises(ValueError, match=f"^derivatives must be a bool, got {value!r}$"):
            ExperimentSpec.from_json(json.dumps({**self.BASE, "derivatives": value}))

    @pytest.mark.parametrize("value", [True, False])
    def test_json_booleans_load_as_derivatives(self, value):
        spec = ExperimentSpec.from_json(json.dumps({**self.BASE, "derivatives": value}))
        assert spec.derivatives is value
        assert ExperimentSpec.from_json(spec_json(spec)).derivatives is value

    @pytest.mark.parametrize(
        "field, value, message",
        [("methods", (), "methods must be non-empty"),
         ("methods", ("VOM", "svm"), f"unknown method 'svm'; choose from {METHODS}"),
         ("replicates", 0, "replicates must be >= 1"),
         ("n_train", 0, "n_train and n_test must be >= 1"),
         ("n_test", -2, "n_train and n_test must be >= 1"),
         ("seed", -1, "seed must be non-negative")],
    )
    def test_out_of_range_fields_are_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec(**{**self.BASE, field: value})

    def test_a_method_listed_twice_is_rejected(self):
        with pytest.raises(ValueError, match="^method 'RP1' is listed twice$"):
            ExperimentSpec(**{**self.BASE, "methods": ("RP1", "rp1")})

    @pytest.mark.parametrize("text", ["[1, 2]", '"RMD"', "null", "3"])
    def test_a_spec_that_is_not_an_object_is_rejected(self, text):
        with pytest.raises(ValueError, match=f"^spec must be a JSON object, got {re.escape(text)}$"):
            ExperimentSpec.from_json(text)

    @pytest.mark.parametrize("field", ["dataset", "methods", "n_train", "n_test", "replicates"])
    def test_a_missing_field_is_named(self, field):
        payload = {name: value for name, value in self.BASE.items() if name != field}
        with pytest.raises(ValueError, match=f"^spec is missing field '{field}'$"):
            ExperimentSpec.from_json(json.dumps(payload))

    def test_an_unknown_field_is_named(self):
        with pytest.raises(ValueError, match="^spec has unknown field 'method'$"):
            ExperimentSpec.from_json(json.dumps({**self.BASE, "method": ["RMD"]}))
        # the classifier settings are constants; a spec that sets one is refused
        for config in ({"n_projections": 5}, {}, None):
            with pytest.raises(ValueError, match="^spec has unknown field 'config'$"):
                ExperimentSpec.from_json(json.dumps({**self.BASE, "config": config}))

    def test_methods_given_as_a_string_are_rejected(self):
        message = "^methods must be a list of method names, got 'RMD'$"
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_json(json.dumps({**self.BASE, "methods": "RMD"}))
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**{**self.BASE, "methods": "RMD"})
