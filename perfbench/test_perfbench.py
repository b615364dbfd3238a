"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import importlib
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from dirout import METHODS  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
SEED = REFERENCE["default_seed"]


def test_self_times_account_for_nested_toy_call():
    tracer = tracing.Tracer()

    def leaf():
        with tracer.span("leaf"):
            time.sleep(0.01)

    def middle():
        with tracer.span("middle"):
            time.sleep(0.005)
            leaf()
            leaf()

    with tracer.span("root"):
        middle()
        time.sleep(0.005)

    duration = {}
    for name, start, end, _ in tracer.spans:
        duration.setdefault(name, []).append(end - start)
    self_times = tracer.self_times()
    assert self_times["leaf"] == pytest.approx(sum(duration["leaf"]), abs=1e-12)
    assert self_times["middle"] == pytest.approx(
        duration["middle"][0] - sum(duration["leaf"]), abs=1e-12
    )
    assert self_times["root"] == pytest.approx(
        duration["root"][0] - duration["middle"][0], abs=1e-12
    )
    assert sum(self_times.values()) == pytest.approx(tracer.root_seconds(), abs=1e-12)
    assert tracer.root_seconds() == duration["root"][0]
    assert self_times["root"] >= 0.005 and self_times["middle"] >= 0.005


def test_yardstick_samples_outside_the_timed_region_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    work = workloads.Workload("toy", [("spin", lambda: time.sleep(0.25) or b"x", lambda r: r)])
    stick = yardstick.Yardstick(interval=0.02)
    seconds, outputs = workloads.run_pass(work, around=stick)
    assert outputs == {"spin": b"x"}
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # entry, exit and at least a few timer samples; none after the block
    assert len(stick.samples) >= 5 and 0 < stick.spent < seconds
    n = len(stick.samples)
    time.sleep(0.05)
    assert len(stick.samples) == n


@pytest.fixture(scope="module")
def univariate(tmp_path_factory):
    """One untraced univariate pass at the seed with stored digests."""
    workdir = str(tmp_path_factory.mktemp("univariate"))
    workloads.prepare("univariate", SEED, workdir)
    work = workloads.build("univariate", SEED, workdir)[0]
    _, outputs = workloads.run_pass(work)
    return work, workloads.digests(outputs)


def _originals():
    return {
        (mod, attr): getattr(importlib.import_module(f"dirout.{mod}"), attr)
        for mod, attr, _, _ in tracing.LAYERS
    }


def test_traced_pass_restores_wrappers_and_keeps_outputs(univariate):
    work, untraced = univariate
    before = _originals()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert all(_originals()[key] is not fn for key, fn in before.items())
        _, outputs = workloads.run_pass(work, tracer)
    assert all(_originals()[key] is fn for key, fn in before.items())
    assert workloads.digests(outputs) == untraced
    assert tracer.counts["robust.c_steps"] > 0
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_seconds(), rel=1e-9)


def test_wrappers_restored_when_the_traced_body_raises():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.traced(tracing.Tracer()):
            1 / 0
    assert all(_originals()[key] is fn for key, fn in before.items())


def test_stored_digests_match_and_a_wrong_one_counts_as_failed(univariate):
    _, digests = univariate
    expected = REFERENCE["digests"]["univariate"]

    check = workloads.OutputCheck(expected)
    check.record_pass(digests)
    assert (check.attempted, check.failed, check.fail_ratio) == (4, 0, 0.0)

    tampered = dict(expected, **{"1-0": "0" * 64})
    check = workloads.OutputCheck(tampered)
    check.record_pass(digests)
    assert (check.attempted, check.failed, check.fail_ratio) == (4, 1, 0.25)


def test_without_stored_digests_later_passes_must_repeat_the_first():
    check = workloads.OutputCheck()
    check.record_pass({"a": "x", "b": "y"})
    check.record_pass({"a": "x", "b": "z"})
    check.record_pass({"a": RuntimeError("boom"), "b": "y"})
    assert (check.attempted, check.failed) == (6, 2)


def test_benchmark_json_lists_exactly_the_traced_metrics():
    produced = {"outlyingness.frame_hit_ratio", "trace.overhead_s"}
    for _, _, name, counter in tracing.LAYERS:
        if callable(name):
            produced |= {f"classify.{kind}.{m}_s" for kind in ("train", "predict") for m in METHODS}
        else:
            produced.add(name)
        if counter is not None:
            produced.add(counter[0])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == produced
