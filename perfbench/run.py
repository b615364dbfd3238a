"""Benchmark of dirout's acceptance protocol, end to end and layer by layer.

Usage (from the root of a dirout checkout):

    python3 perfbench/run.py --workload univariate --seed 1 --seconds 20 --trace 0

One process is one closed-loop caller: it runs passes of the workload back to
back (``run_experiment(..., workers=1)`` or ``dirout.cli.main`` in-process)
for ``--seconds`` seconds, with BLAS capped at ``nproc`` threads.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
``wall_s``, the median wall time of one pass; ``setup_s``, the median time
for a fresh interpreter to finish ``import dirout`` and ``import dirout.cli``;
``peak_rss_mib``, the peak resident set of a fresh process running one pass.
Both times are scaled to a reference machine speed by a kernel sampled during
each measured interval (see yardstick.py); the raw times are printed beside
them. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer self times and counts (see
tracing.py) as medians over passes.

Every operation's output bytes are hashed. At the seed stored in
reference.json they must equal the stored digests; at other seeds every pass,
traced or not, must give the same bytes. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from yardstick import REFERENCE_S, Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("univariate", "multivariate", "csv_classify"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed with stored digests)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "cpu": _first_line("/proc/cpuinfo", "model name"),
        "llc": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_pinned": CPU,
        "blas_threads": BLAS_THREADS,
        "workers": 1,
    }


def probe(args=()):
    """Run probe.py in a fresh interpreter; return (import seconds, report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *map(str, args)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["imported"] - start, report


def describe(label: str, values) -> None:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"{label}: n={len(values)} min {min(values):.4f} q1 {q[0]:.4f} "
          f"median {q[1]:.4f} q3 {q[2]:.4f} max {max(values):.4f} s")


def measure(workloads, works, check, args, workdir):
    """Untraced run: one fresh-process pass, set-up probes, then timed passes.

    Times are scaled to the reference speed (see yardstick.py); the raw times
    are printed beside them.
    """
    _, report = probe((args.workload, args.seed, workdir))
    for op, digest in report["outputs"].items():
        check.record(op, RuntimeError(digest["error"]) if isinstance(digest, dict) else digest)

    raw_setups, setups, samples = [], [], []
    for _ in range(SETUP_SAMPLES):
        # samples on entry and exit only: a sample taken while the probe runs
        # would share the one CPU with it
        with Yardstick(interval=0) as stick:
            seconds, _ = probe()
        raw_setups.append(seconds)
        setups.append(stick.scaled(seconds))

    raw_passes, passes, outputs = [], [], {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        stick = Yardstick()
        seconds, out = workloads.run_pass(works[len(passes) % len(works)], around=stick)
        check.record_pass(workloads.digests(out))
        raw_passes.append(seconds)
        passes.append(stick.scaled(seconds))
        samples += stick.samples
        for op, output in out.items():
            outputs.setdefault(op, output)
    print(f"{len(passes)} passes in {time.perf_counter() - start:.1f} s; times scaled "
          f"to the speed at which the yardstick kernel takes {REFERENCE_S} s")
    describe("yardstick kernel", samples)
    describe("pass wall, raw", raw_passes)
    describe("pass wall, scaled", passes)
    describe("set-up, raw", raw_setups)
    describe("set-up, scaled", setups)
    values = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": report["peak_rss_mib"],
    }
    return values, outputs, True


def layer_values(tracer, names) -> dict:
    self_times, counts = tracer.self_times(), tracer.counts
    values = {name: self_times.get(name, counts.get(name, 0)) for name in names}
    frames = counts.get("outlyingness.frame_calls", 0)
    if frames:
        values["outlyingness.frame_hit_ratio"] = (
            1.0 - counts.get("pointwise.geomedian_calls", 0) / frames
        )
    return values


def measure_traced(workloads, works, check, args, names):
    """Traced run: alternate untraced and traced passes; medians per layer.

    Self times are raw. ``trace.overhead_s`` compares pass times scaled by
    yardstick samples before and after each pass (none inside, where they
    would land in spans), so that a change of machine speed between the two
    passes of a pair does not show as overhead.
    """
    from tracing import ROOT_SPAN, Tracer, traced

    untraced, traced_walls, layers, outputs = [], [], [], {}
    accounted = True
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < args.seconds:
        work = works[len(untraced) % len(works)]
        with Yardstick(interval=0) as stick:
            seconds, out = workloads.run_pass(work)
        untraced.append(stick.scaled(seconds))
        check.record_pass(workloads.digests(out))
        for op, output in out.items():
            outputs.setdefault(op, output)

        tracer = Tracer()
        with Yardstick(interval=0) as stick, traced(tracer):
            seconds, out = workloads.run_pass(work, tracer)
        traced_walls.append(stick.scaled(seconds))
        check.record_pass(workloads.digests(out))
        layers.append(layer_values(tracer, names))
        self_times = tracer.self_times()
        total_self = sum(self_times.values())
        ok = abs(seconds - total_self) <= 0.01 * seconds
        accounted &= ok
        print(f"accounting: self times sum to {total_self:.4f} s of traced wall "
              f"{seconds:.4f} s (root self {self_times[ROOT_SPAN]:.6f} s)"
              + ("" if ok else "  MISMATCH"))
    values = {name: statistics.median(v[name] for v in layers) for name in names}
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    print(f"passes: {len(untraced)} untraced + {len(traced_walls)} traced "
          f"in {time.perf_counter() - start:.1f} s")
    return values, outputs, accounted


def print_rates(rows: dict) -> None:
    methods = list(dict.fromkeys(m for row in rows.values() for m in row))
    print("mean correct-classification rate (dataset x method):")
    print(f"  {'dataset':<13}" + "".join(f"{m:>8}" for m in methods))
    for ds, row in rows.items():
        cells = "".join(f"{row[m]:>8.3f}" if m in row else f"{'':>8}" for m in methods)
        print(f"  {ds:<13}{cells}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dirout" / "__init__.py").is_file():
        print(f"error: no dirout sources at {SRC}; run from a dirout checkout",
              file=sys.stderr)
        return 2
    # One CPU for the caller, its BLAS and the probes it starts, so that each
    # yardstick sample measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {CPU})
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import dirout
    import workloads

    if Path(dirout.__file__).resolve().parent != SRC / "dirout":
        print(f"error: imported dirout from {dirout.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    if args.seed is None:
        args.seed = reference["default_seed"]
    stored = args.seed == reference["default_seed"]
    check = workloads.OutputCheck(reference["digests"][args.workload] if stored else None)

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}, closed loop with 1 caller, "
          f"{args.seconds:g} s, trace {args.trace}, reference: "
          + ("stored digests" if stored else "first pass"))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workloads.prepare(args.workload, args.seed, workdir)
        works = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            values, outputs, accounted = measure_traced(workloads, works, check, args, units)
        else:
            values, outputs, accounted = measure(workloads, works, check, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_rates(workloads.rate_rows(args.workload, outputs))
    for op, digest in workloads.digests(outputs).items():
        print(f"output {op}: {digest}")
    for error in check.errors:
        print(f"failed {error}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:<36}{m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':<36}{check.fail_ratio:>14.6g} failed/attempted "
          f"({check.failed}/{check.attempted})")
    print(json.dumps({
        "correct": check.failed == 0 and accounted,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
