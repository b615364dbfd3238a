"""Mutation check: each decision constant and each comparison of the counting
and selection kernels is pinned by a test.

A mutant changes one piece of text in one module of ``src/dirout``. For each
mutant the runner copies ``src/`` into a temporary directory, applies the
mutant there and runs only the mutant's named test against the copy, which
must fail. An equivalent mutant, which no input can tell from the source,
gives its reason in place of a test and is only applied. Every named test
first runs once against an unchanged copy, where it must pass. The working
tree is never written: the runs keep no pytest cache and write no bytecode.

Usage, from any directory:

    python tests/mutants.py

Prints one line per mutant and exits 1 if a mutant's text does not occur
exactly once, a named test passes under its mutant or fails without it, or
pytest cannot run a named test. Needs the standard library and the named
tests' own dependencies (pytest, numpy, hypothesis).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # module under src/dirout
    old: str  # must occur exactly once in the module
    new: str
    test: str | None  # pytest node id that must fail under the mutant
    equivalent: str | None = None  # why no input tells the mutant apart


MUTANTS = (
    Mutant("classify.py", "np.logical_and(low, least > 0, out=low)",
           "np.logical_and(low, least >= 0, out=low)",
           "tests/test_classify.py::TestFm1Pruning::test_benchmark_shape_merges_the_head_and_searches_few_pairs"),
    Mutant("classify.py", "    count[len(values):][values == -np.inf] = 0  # the float below -inf is -inf itself\n",
           "", "tests/test_classify.py::TestFm1Pruning::test_pair_search_equals_brute_counts"),
    Mutant("classify.py", "np.less(queries, bound, out=low)", "np.less_equal(queries, bound, out=low)", None,
           "it only flags more pairs for the pair search, which counts every flagged pair exactly"),
    Mutant("classify.py", "pos += half * (np.take(flat, pos + half) <= v)",
           "pos += half * (np.take(flat, pos + half) < v)",
           "tests/test_classify.py::TestHalfspaceCounts::test_fm1_query_one_ulp_above_a_reference_projection"),
    Mutant("classify.py", "count = pos - start + (np.take(flat, pos) <= v)",
           "count = pos - start + (np.take(flat, pos) < v)",
           "tests/test_classify.py::TestHalfspaceCounts::test_fm1_query_one_ulp_above_a_reference_projection"),
    Mutant("classify.py", "tied = np.flatnonzero(below == sorted_q)", "tied = np.flatnonzero(below != sorted_q)",
           "tests/test_classify.py::TestHalfspaceCounts::test_most_negative_float_counts_without_a_warning"),
    Mutant("classify.py", "tied = np.flatnonzero(below == sorted_q)", "tied = np.flatnonzero(below <= sorted_q)", None,
           "the reference just below a query in the merge is <= it whenever one is, so it only sends "
           "more pairs to the pair search, which counts every pair exactly"),
    Mutant("classify.py", "tol2 = (1e-12 * (1.0 + np.abs(mean))) ** 2", "tol2 = (1e-9 * (1.0 + np.abs(mean))) ** 2",
           "tests/test_classify.py::TestFunctionalDepthRp::test_a_projected_variance_just_above_the_degenerate_tolerance"),
    Mutant("pointwise.py", "\n_TOL = 1e-12\n", "\n_TOL = 1e-10\n",
           "tests/test_pointwise.py::TestMedianKernelAgainstWeiszfeldOracle::test_random_clouds[2]"),
    Mutant("pointwise.py", "stalled = np.flatnonzero(steps[:B] > 1e-9 * scale)",
           "stalled = np.flatnonzero(steps[:B] > 1e-8 * scale)",
           "tests/test_pointwise.py::TestMedianKernelAgainstWeiszfeldOracle::"
           "test_the_stall_threshold_decides_between_the_iterate_and_an_error"),
    Mutant("pointwise.py", "stalled = np.flatnonzero(steps[:B] > 1e-9 * scale)",
           "stalled = np.flatnonzero(steps[:B] > 1e-10 * scale)",
           "tests/test_pointwise.py::TestMedianKernelAgainstWeiszfeldOracle::"
           "test_the_stall_threshold_decides_between_the_iterate_and_an_error"),
    Mutant("pointwise.py", "<= coincident.sum(axis=0) + 1e-12", "<= coincident.sum(axis=0)",
           "tests/test_pointwise.py::TestMedianVertexTests::test_a_resultant_that_rounds_above_the_multiplicity_snaps"),
    Mutant("pointwise.py", "\nCOND_LIMIT = 1e12\n", "\nCOND_LIMIT = 1e10\n",
           "tests/test_pointwise.py::TestCovarianceRidge::test_ridge_only_above_the_ratio_limit[100000000000.0-False]"),
    Mutant("pointwise.py", "\nRIDGE_EPS = 1e-10\n", "\nRIDGE_EPS = 1e-8\n",
           "tests/test_pointwise.py::TestCovarianceRidge::test_ridge_only_above_the_ratio_limit[10000000000000.0-True]"),
    Mutant("outlyingness.py", "\n_BLOCK = 16384\n", "\n_BLOCK = 64\n", None,
           "a block only sets how many curves share a buffer; each curve's sums are added in grid "
           "order in any block, which test_bits_of_the_einsum checks against einsum"),
    Mutant("outlyingness.py", "\nZERO_DIRECTION_TOL = 1e-12\n", "\nZERO_DIRECTION_TOL = 1e-9\n",
           "tests/test_outlyingness.py::TestPointwiseOutlyingness::"
           "test_direction_is_dropped_only_below_the_zero_tolerance[1e-10-False]"),
    Mutant("robust.py", "(0.5 * x if cdf > p else 2.0 * x)", "(0.5 * x if cdf < p else 2.0 * x)",
           "tests/test_robust.py::TestConsistencyFactor::test_matches_scipy_over_admissible_h[4]"),
    Mutant("robust.py", "\nN_KEEP = 10\n", "\nN_KEEP = 5\n",
           "tests/test_robust.py::TestStackedIterate::test_the_best_fit_comes_from_the_seventh_candidate"),
    Mutant("robust.py", "\nN_STARTS = 500\n", "\nN_STARTS = 250\n",
           "tests/test_robust.py::TestStackedIterate::test_starts_past_the_250th_find_a_lower_determinant"),
    Mutant("robust.py", "\nMAX_FULL_STEPS = 100\n", "\nMAX_FULL_STEPS = 10\n",
           "tests/test_robust.py::TestStackedIterate::test_a_fit_that_takes_more_than_ten_full_steps"),
    Mutant("robust.py", "    new_subsets[det <= 0.0] = -1  # an exact fit takes no step; a nan determinant steps\n", "",
           "tests/test_robust.py::TestRepeatedRows::test_exact_fit_repeats_and_permutations"),
    Mutant("robust.py", "\nSCREEN_STEPS = 2\n", "\nSCREEN_STEPS = 1\n",
           "tests/test_robust.py::TestRepeatedRows::test_screen_fits_each_repeated_subset_alike[3-False]"),
    Mutant("robust.py", "within = d2 <= kth", "within = d2 < kth",
           "tests/test_robust.py::TestCStepParts::test_nearest_sorts_only_the_rows_tied_at_the_cut"),
    Mutant("robust.py", "\nDET_RTOL = 1e-12\n", "\nDET_RTOL = 1e-9\n",
           "tests/test_robust.py::TestStackedIterate::test_a_determinant_fall_just_above_the_stopping_tolerance"),
)


def _label(mutant: Mutant) -> str:
    old, new = (" ".join(text.split()) or "(deleted)" for text in (mutant.old, mutant.new))
    return f"{mutant.file}: {old} -> {new}"


def _copy_src(dest: Path, mutant: Mutant | None = None) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "dirout" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{_label(mutant)}: the old text occurs {text.count(mutant.old)} times, not once")
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def _pytest(src: Path, tests: list[str]) -> int:
    """Exit code of pytest on ``tests``, with ``dirout`` imported from ``src``.

    pytest runs in the copy's directory, so that hypothesis keeps its
    example database there."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    found = subprocess.run([sys.executable, "-c", "import dirout; print(dirout.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(found).is_relative_to(src):
        raise RuntimeError(f"dirout imported from {found}, not from the copy at {src}")
    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml")]
    done = subprocess.run([sys.executable, "-m", "pytest", *args, *(str(ROOT / test) for test in tests)],
                          cwd=src.parent, env=env, capture_output=True, text=True)
    return done.returncode


def main() -> int:
    started = time.perf_counter()
    named = sorted({m.test for m in MUTANTS if m.test is not None})
    failures = 0
    with tempfile.TemporaryDirectory(prefix="dirout-mutants-") as tmp:
        base = Path(tmp) / "base"
        code = _pytest(_copy_src(base), named)
        if code != 0:
            print(f"FAIL  the named tests do not all pass on the unchanged source (pytest exit {code})")
            failures += 1
        for i, mutant in enumerate(MUTANTS):
            work = Path(tmp) / f"mutant-{i}"
            try:
                src = _copy_src(work, mutant)
            except ValueError as exc:
                print(f"FAIL  {exc}")
                failures += 1
                continue
            if mutant.test is None:
                print(f"equivalent  {_label(mutant)}: {mutant.equivalent}")
                continue
            code = _pytest(src, [mutant.test])
            if code == 1:
                print(f"killed  {_label(mutant)}: {mutant.test} fails")
            else:
                verdict = "survived" if code == 0 else f"pytest exit {code}"
                print(f"FAIL  {_label(mutant)}: {verdict} on {mutant.test}")
                failures += 1
    print(f"{len(MUTANTS)} mutants, {failures} failures, {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
