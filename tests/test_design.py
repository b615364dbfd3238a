"""Structural rules of the package source, checked on its syntax trees."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirout

MODULES = sorted(Path(dirout.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_private_imports_across_modules(path):
    """A module uses only the public names of the other package modules."""
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "dirout")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


FUNCTOOLS_CACHES = {"cache", "lru_cache"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_hidden_module_state(path):
    """No module keeps state across calls: no weak-reference tables, no
    functools caches, no ``global`` rebinding. Per-object ``cached_property``
    values live and die with their object, so they are allowed."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "weakref"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = (node.module or "").split(".")[0]
            found += [
                f"from {node.module} import {a.name}"
                for a in node.names
                if module == "weakref" or (module == "functools" and a.name in FUNCTOOLS_CACHES)
            ]
        elif isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"functools.{node.attr}")
        elif isinstance(node, ast.Global):
            found.append(f"global {', '.join(node.names)}")
    assert not found, f"{path.name} keeps module-level state: {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_scipy_imports(path):
    """The runtime needs only numpy: no module imports scipy, at module level
    or inside a function."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not found, f"{path.name} imports scipy: {found}"


def _module_level_names(tree):
    """Names bound by the module's top-level defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_private_names(path):
    """Every module-level private function, class or constant is used again
    in its own module: no leftover twin of a kernel and no dead helper."""
    tree = ast.parse(path.read_text(), str(path))
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    unused = [
        name
        for name in _module_level_names(tree)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")) and name not in loaded
    ]
    assert not unused, f"{path.name} defines private names it never uses: {unused}"


BENCH_FILES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")
    if not path.name.startswith("test_")
)

# public names that nothing in the package or the benchmark calls, each kept for a reason
UNCALLED_BY_DESIGN = {
    "outlyingness.BatchSummaries.fom": "the paper's FOM summary, computed only when read; "
    "criterion 01 checks FOM = MO MO^T + VOM on it",
}


def _public_defs(path):
    """Qualified names of a module's public functions and of the public
    methods of its public classes, each with its bare name."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def _references(path, strings=False):
    """Names a file reads, as variables or attributes, outside the body of a
    def of the same name; with ``strings``, its string constants as well,
    since the benchmark names the functions it wraps as strings."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(), str(path)), frozenset())
    return found


def test_every_public_name_has_a_caller():
    """Each public function and method of the package, and each name that
    ``dirout`` exports, is called from another place in the package or from
    the benchmark: code that only tests run lives with the tests."""
    init = Path(dirout.__file__)
    called = set().union(
        *(_references(path) for path in MODULES if path != init),
        *(_references(path, strings=True) for path in BENCH_FILES),
    )
    uncalled = {qualified for path in MODULES for qualified, name in _public_defs(path) if name not in called}
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    uncalled |= {f"dirout.{name}" for name in exported - called}
    assert uncalled == set(UNCALLED_BY_DESIGN), (
        f"no caller outside the tests: {sorted(uncalled - set(UNCALLED_BY_DESIGN))}; "
        f"listed but called: {sorted(set(UNCALLED_BY_DESIGN) - uncalled)}"
    )


FILE_WRITERS = {"write_text", "write_bytes", "savetxt", "tofile"}


def _file_writes(tree):
    """The lines that import ``csv`` or write a file: an ``open`` call whose
    mode is not a constant read mode, or a call of ``FILE_WRITERS``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            modules = []
        if any(module.split(".")[0] == "csv" for module in modules):
            yield f"line {node.lineno}: import csv"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            reads = all(isinstance(m, ast.Constant) and not set(str(m.value)) & set("wax+") for m in modes)
            if name in FILE_WRITERS or (name == "open" and not reads):
                yield f"line {node.lineno}: {name}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "curves"], ids=lambda path: path.stem)
def test_only_curves_writes_files(path):
    """Every file the package writes is a CSV written by ``curves.write_rows``:
    no other module imports ``csv`` or opens a file for writing, so none
    builds CSV records by hand."""
    found = list(_file_writes(ast.parse(path.read_text(), str(path))))
    assert not found, f"{path.name} writes files itself: {found}"


def test_the_file_writer_guard_sees_writes():
    tree = ast.parse(
        "import csv\nopen(p, 'w')\nopen(p, mode='a')\nopen(p, m)\nopen(p)\nopen(p, 'rb')\nq.write_text(s)"
    )
    assert [line.split(":")[0] for line in _file_writes(tree)] == [
        "line 1", "line 2", "line 3", "line 4", "line 7"
    ]


# runs ``python -m dirout ARGS`` with every import of scipy failing
WITHOUT_SCIPY = """
import runpy, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
runpy.run_module("dirout", run_name="__main__", alter_sys=True)
"""


def test_cli_runs_rmd_without_scipy(tmp_path):
    def dirout_cli(*args):
        src = str(Path(dirout.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, *args],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    for label in ("0", "1"):
        dirout_cli("simulate", "--data", "4", "--class", label, "--n", "20", "--m", "10",
                   "--seed", label, "--out", f"class{label}.csv")
    class0, class1 = ((tmp_path / f"class{label}.csv").read_text() for label in ("0", "1"))
    (tmp_path / "both.csv").write_text(class0 + class1.split("\n", 1)[1])
    dirout_cli("classify", "--train", "both.csv", "--test", "both.csv", "--method", "RMD",
               "--out", "pred.csv")
    assert len((tmp_path / "pred.csv").read_text().splitlines()) == 41


def test_import_starts_no_process_pool():
    """``concurrent.futures`` is imported only when replicates run in parallel."""
    src = str(Path(dirout.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, dirout, dirout.cli; print('concurrent.futures' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_only_vom_forms_outlyingness_matrices(monkeypatch):
    """The (N, p, p) outlyingness matrices are formed only where they are
    read: an RMD train and predict, which read MO and VO, form none, and a
    VOM predict forms VOM once per reference group and never reads FOM."""
    from dirout import outlyingness
    from dirout.classify import predict_batch, train
    from dirout.simulate import GeneratorSpec, default_grid, generate

    formed = []
    kernel = outlyingness._outer_sums

    def counting(weights, a):
        formed.append(a.shape)
        return kernel(weights, a)

    def no_fom(summaries):
        raise AssertionError("FOM read")

    monkeypatch.setattr(outlyingness, "_outer_sums", counting)
    monkeypatch.setattr(outlyingness.BatchSummaries, "fom", property(no_fom))
    groups = [generate(GeneratorSpec("4", cls, 20, grid=default_grid(10), seed=cls)) for cls in (0, 1)]
    predict_batch(train(groups, "RMD"), groups[0])
    assert formed == []
    predict_batch(train(groups, "VOM"), groups[1])
    assert formed == [(20, 10, 2), (20, 10, 2)]
