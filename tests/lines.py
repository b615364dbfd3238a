"""Line census: every executable line of ``src/dirout`` runs in Tier-1.

The runner runs the Tier-1 suite, less ``tests/test_acceptance.py``, in this
process under a ``sys.settrace`` and ``threading.settrace`` tracer that
follows only frames whose code lies in ``src/dirout``. Tracing starts before
``dirout`` is imported, so module-level lines count. The executable lines of
a module are the line numbers of its compiled code objects, nested ones
included. A line that never runs must be on ``ALLOWED`` with a reason; an
allowed line that runs is an error too, so the list cannot go stale.

An allowed line is keyed by its module, the qualified name of the function
around it (``<module>`` at module level) and its stripped source text, not by
its number, so edits elsewhere in the module do not move it. A key must match
exactly one executable line.

Hypothesis draws from a fixed seed, so the census does not depend on the
examples drawn. The working tree is never written: pytest keeps no cache,
Python writes no bytecode, and the tests run from a temporary directory that
also holds Hypothesis' example database.

Usage, from any directory:

    python tests/lines.py

Prints the allowed lines with their reasons, then every failure, and exits 1
if the suite fails, a line that is not allowed never runs, an allowed line
runs, or an allowed key matches no line or more than one. Needs the standard
library and the Tier-1 suite's own dependencies (pytest, numpy, scipy,
hypothesis).
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dirout"
HYPOTHESIS_SEED = "0"


class Allowed(NamedTuple):
    file: str  # module under src/dirout
    function: str  # qualified name of the enclosing function, or <module>
    text: str  # the line's stripped source text
    reason: str  # why no Tier-1 test runs it


ALLOWED = (
    Allowed("robust.py", "_chi2_ppf",
            'raise ConvergenceError(f"chi-square quantile of {p} with {k} degrees of freedom", x)',
            "a safety cap; of about 18,000 probed (h, n, d), n up to 10^12, it is reached only at d = 3 with "
            "1 - h/n from 3e-12 to 2e-8, where one ulp of the CDF moves x by more than the 1e-10 tolerance"),
)


def _code_lines(code, function, owner):
    """Map each line of ``code`` and its nested code objects to the qualified
    name of the function that holds it; comprehensions and lambdas belong
    to the function around them, and an outer code object claims a line
    first."""
    for _, _, line in code.co_lines():
        if line is not None:
            owner.setdefault(line, function)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            nested = function
            if not const.co_name.startswith("<"):
                nested = const.co_name if function == "<module>" else f"{function}.{const.co_name}"
            _code_lines(const, nested, owner)


def executable_lines() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, line) -> (function, stripped text) for every executable line
    of the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        owner: dict[int, str] = {}
        _code_lines(compile(source, str(path), "exec"), "<module>", owner)
        text = source.splitlines()
        for line, function in owner.items():
            if line > 0:
                found[path.name, line] = (function, text[line - 1].strip())
    return found


def run_suite() -> tuple[int, set[tuple[str, int]]]:
    """Exit code of the traced Tier-1 suite and the (file, line) pairs run."""
    prefix = str(PACKAGE) + os.sep
    run: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            run.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    if "dirout" in sys.modules:
        raise RuntimeError("dirout was imported before tracing started")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # for the subprocesses some tests start
    sys.dont_write_bytecode = True  # also keeps pytest from caching rewritten test modules
    import pytest

    args = ["-q", "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}",
            "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
            "--ignore", str(ROOT / "tests" / "test_acceptance.py"), str(ROOT / "tests")]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="dirout-lines-") as tmp:
        os.chdir(tmp)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            code = pytest.main(args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)
    imported = Path(sys.modules["dirout"].__file__).resolve()
    if imported.parent != PACKAGE:
        raise RuntimeError(f"dirout imported from {imported}, not from {PACKAGE}")
    return int(code), {(Path(name).name, line) for name, line in run}


def main() -> int:
    started = time.perf_counter()
    code, run = run_suite()
    lines = executable_lines()
    failures = []
    if code != 0:
        failures.append(f"the traced suite failed (pytest exit {code})")
    allowed = set()
    for entry in ALLOWED:
        matches = [key for key, found in lines.items()
                   if key[0] == entry.file and found == (entry.function, entry.text)]
        if len(matches) != 1:
            failures.append(f"{entry.file} {entry.function}: {entry.text!r} matches {len(matches)} lines, not one")
            continue
        (key,) = matches
        allowed.add(key)
        print(f"allowed  {key[0]}:{key[1]} {entry.function}: {entry.text}  -- {entry.reason}")
        if key in run:
            failures.append(f"{key[0]}:{key[1]} {entry.function}: allowed, but it runs: {entry.text}")
    never = sorted(key for key in lines if key not in run and key not in allowed)
    failures += [f"{file}:{line} {lines[file, line][0]}: never runs: {lines[file, line][1]}" for file, line in never]
    for failure in failures:
        print(f"FAIL  {failure}")
    ran = sum(key in run for key in lines)
    print(f"{len(lines)} executable lines, {ran} run, {len(allowed)} allowed, {len(failures)} failures, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
