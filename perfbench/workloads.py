"""The benchmark's workloads: inputs made from a seed, one pass, output bytes.

Every workload follows the acceptance protocol where it runs experiments:
100 training and 100 test curves per class, a 50-point grid and all six
methods. Why each workload exists:

- ``univariate``: datasets 1, 2, 3 and 1c. With p = 1 the reference frame
  reduces to a column median and FM1 takes the sorted-row path, so the MCD
  fit inside RMD training does most of the work.
- ``multivariate``: datasets 4 and 6 and dataset 1 with derivatives. FM1
  scoring with random Tukey depth dominates; dataset 4 and the derivative
  curves make the geometric median snap to vertices, dataset 6 does not.
- ``csv_classify``: ``dirout classify --method VOM`` on a train and a test
  CSV file of dataset 4 with 1,000 curves per class each. CSV ingest and the
  n = 1,000 reference frame dominate; MCD and FM1 are not used.

Each workload makes ``INPUTS`` input sets from its seed; passes cycle
through them.

Each operation returns the bytes a user would get: the per-replicate rates
CSV of ``ExperimentResult.write_csv``, or the predictions CSV of the CLI.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time

import numpy as np

from dirout import METHODS
from dirout import cli, experiment
from dirout.curves import write_groups_csv
from dirout.simulate import GeneratorSpec, default_grid, generate

from tracing import ROOT_SPAN

N_PER_CLASS = 100  # training and test curves per class, per replicate
REPLICATES = 1
CSV_CURVES = 1000  # curves per class in each CSV file
# The cost of some inputs departs far from the rest: Weiszfeld's iteration
# count in the geometric median depends on the data (of 120 groups of 1,000
# curves, 9 took twice the median time or more and 3 took 4-20x), and one
# multivariate seed in ten ran 25% slower on every pass. A run therefore
# makes this many inputs from its seed and cycles through them pass by pass,
# so that its median pass time is a median over inputs, not one draw.
INPUTS = 3

EXPERIMENTS = {
    "univariate": (("1", False), ("2", False), ("3", False), ("1c", False)),
    "multivariate": (("4", False), ("6", False), ("1", True)),
}


class Workload:
    """A named list of operations with fixed inputs.

    ``ops`` is a list of ``(name, call, to_bytes)``: ``call()`` is the timed
    operation and ``to_bytes(result)`` turns its result into output bytes
    after the clock stops.
    """

    def __init__(self, name: str, ops):
        self.name = name
        self.ops = ops


def _experiment_op(spec: experiment.ExperimentSpec, out_path: str):
    def call():
        # looked up at call time so a traced run sees the wrapper
        return experiment.run_experiment(spec, workers=1)

    def to_bytes(result) -> bytes:
        result.write_csv(out_path)
        with open(out_path, "rb") as fh:
            return fh.read()

    return call, to_bytes


def _classify_op(argv, out_path: str):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def to_bytes(code) -> bytes:
        if code != 0:
            raise RuntimeError(f"dirout classify exited with {code}")
        with open(out_path, "rb") as fh:
            return fh.read()

    return call, to_bytes


def prepare(name: str, seed: int, workdir: str) -> None:
    """Write the input files of workload ``name`` for ``seed`` into ``workdir``."""
    if name != "csv_classify":
        return
    role_seeds = np.random.SeedSequence(seed).generate_state(2 * INPUTS)
    for k in range(INPUTS):
        for role, role_seed in (("train", role_seeds[2 * k]), ("test", role_seeds[2 * k + 1])):
            class_seeds = np.random.SeedSequence(int(role_seed)).generate_state(2)
            groups = [
                generate(GeneratorSpec("4", cls, CSV_CURVES, grid=default_grid(50), seed=int(s)))
                for cls, s in zip((0, 1), class_seeds)
            ]
            write_groups_csv(groups, os.path.join(workdir, f"{role}-{k}.csv"))


def build(name: str, seed: int, workdir: str) -> list[Workload]:
    """The inputs of workload ``name`` made by ``prepare``; passes cycle through them."""
    if name in EXPERIMENTS:
        works = []
        for k, input_seed in enumerate(np.random.SeedSequence(seed).generate_state(INPUTS)):
            ops = []
            for dataset, derivatives in EXPERIMENTS[name]:
                op = f"{dataset}{'+d' if derivatives else ''}-{k}"
                spec = experiment.ExperimentSpec(
                    dataset, METHODS, N_PER_CLASS, N_PER_CLASS, REPLICATES,
                    seed=int(input_seed), derivatives=derivatives,
                )
                ops.append((op, *_experiment_op(spec, os.path.join(workdir, f"rates-{op}.csv"))))
            works.append(Workload(name, ops))
        return works
    if name != "csv_classify":
        raise ValueError(f"unknown workload {name!r}")
    works = []
    for k in range(INPUTS):
        out = os.path.join(workdir, f"pred-{k}.csv")
        argv = ["classify", "--train", os.path.join(workdir, f"train-{k}.csv"),
                "--test", os.path.join(workdir, f"test-{k}.csv"), "--method", "VOM", "--out", out]
        works.append(Workload(name, [(f"classify-{k}", *_classify_op(argv, out))]))
    return works


def run_pass(work: Workload, tracer=None, around=None):
    """Run every operation once, closed loop, one caller.

    ``around``, if given, is a context manager entered just outside the timed
    region. Returns ``(seconds, outputs)``: the wall time of the operations
    and, per operation, its output bytes or the exception it raised.
    """
    results = {}
    root = tracer.span(ROOT_SPAN) if tracer is not None else contextlib.nullcontext()
    with root, around or contextlib.nullcontext():
        start = time.perf_counter()
        for op, call, _ in work.ops:
            try:
                results[op] = call()
            except Exception as exc:  # an operation failure is counted, not fatal
                results[op] = exc
        seconds = time.perf_counter() - start
    outputs = {}
    for op, _, to_bytes in work.ops:
        result = results[op]
        if not isinstance(result, Exception):
            try:
                result = to_bytes(result)
            except Exception as exc:
                result = exc
        outputs[op] = result
    return seconds, outputs


def digests(outputs: dict) -> dict:
    """sha256 hex digest per operation; exceptions pass through."""
    return {
        op: out if isinstance(out, Exception) else hashlib.sha256(out).hexdigest()
        for op, out in outputs.items()
    }


class OutputCheck:
    """Counts operations and failures against reference digests.

    With ``expected`` (op -> sha256 hex) every output must match it. Without,
    the first output of each operation becomes the reference, so every later
    pass must give the same bytes.
    """

    def __init__(self, expected=None):
        self.expected = dict(expected or {})
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op: str, digest) -> None:
        """Count one operation given its output digest or its exception."""
        self.attempted += 1
        if isinstance(digest, Exception):
            self.failed += 1
            self.errors.append(f"{op}: {type(digest).__name__}: {digest}")
            return
        reference = self.expected.setdefault(op, digest)
        if digest != reference:
            self.failed += 1
            self.errors.append(f"{op}: digest {digest[:16]} != reference {reference[:16]}")

    def record_pass(self, outputs: dict) -> None:
        for op, output in outputs.items():
            self.record(op, output)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def rate_rows(name: str, outputs: dict) -> dict[str, dict[str, float]]:
    """Mean correct-classification rate per (dataset, method) over the inputs."""
    rates: dict[str, dict[str, list[float]]] = {}
    for op, output in outputs.items():
        if isinstance(output, Exception):
            continue
        dataset = "4 (csv)" if name == "csv_classify" else op.rsplit("-", 1)[0]
        row = rates.setdefault(dataset, {})
        for line in output.decode().splitlines()[1:]:
            if name == "csv_classify":  # curve_id,true_group,predicted,score_...
                _, truth, predicted, *_ = line.split(",")
                row.setdefault("VOM", []).append(float(truth == predicted))
            else:  # method,replicate,seed,p_c
                method, _, _, rate = line.split(",")
                row.setdefault(method, []).append(float(rate))
    return {ds: {m: sum(v) / len(v) for m, v in row.items()} for ds, row in rates.items()}
