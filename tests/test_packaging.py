"""Packaging guards: sysmean imports only the standard library and its declared
dependencies, pyproject.toml carries the package's version, every name in
`sysmean.__all__` resolves once, the benchmark's tracer still finds every
function it wraps and the imports marked `noqa: F401` bind only the ones a
module never calls, the README's library example runs, its command examples
exit as it states, the README names only options the CLI has and lists
`simulate`'s report fields, its Install section names every build
requirement, and no module calls BLAS."""
import argparse
import ast
import dataclasses
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sysmean"


def pyproject(table: str) -> dict:
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[table]


def declared_dependencies() -> set[str]:
    specs = pyproject("project")["dependencies"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in specs)
    return {name.lower() for name in names}


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in the file, nested ones included."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_project_version_is_the_package_version():
    # Both are bumped by hand; a release that bumps one of them only fails here.
    assert pyproject("project")["version"] == importlib.import_module("sysmean").__version__


def test_every_public_name_resolves_once():
    sysmean = importlib.import_module("sysmean")
    names = sysmean.__all__
    assert len(names) == len(set(names)), "sysmean.__all__ lists a name twice"
    missing = [name for name in names if not hasattr(sysmean, name)]
    assert not missing, f"sysmean.__all__ names undefined {missing}"
    namespace: dict = {}
    exec("from sysmean import *", namespace)
    assert set(names) <= set(namespace)


def test_import_does_not_load_scipy():
    code = "import sys, sysmean; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.stdout.strip() == "False"


def test_every_import_is_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | {"sysmean"} | declared_dependencies()
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        undeclared = imported_packages(path) - allowed
        assert not undeclared, f"{path.name} imports undeclared {sorted(undeclared)}"


# numpy calls that go through BLAS or LAPACK, whose rounding depends on the
# CPU kernel and thread count that OpenBLAS picks at run time.
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "corrcoef", "cov", "linalg"}


def blas_calls(path: Path) -> list[str]:
    """Each `@`, BLAS-backed numpy name or `numpy.linalg` import in the file, by line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {node.module.split(".")[-1]} | {alias.name for alias in node.names}
            found += [(node.lineno, f"import {name}") for name in sorted(names & BLAS_NAMES)]
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, f"import {alias.name}")
                for alias in node.names if alias.name.startswith("numpy.linalg")
            ]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_no_module_sums_through_blas():
    # Reports are the same bytes whatever BLAS kernel or thread count numpy uses.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        calls = blas_calls(path)
        assert not calls, f"{path.name} calls BLAS: {calls}"


def test_the_blas_check_sees_each_form(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import numpy.linalg\nfrom numpy import dot\nfrom numpy.linalg import norm\n"
        "a @ b\na @= b\nnp.corrcoef(a, b)\nnp.cov(a)\na.dot(b)\nnp.linalg.norm(a)\n"
        "np.add.reduce(a * b)\n",
        encoding="utf-8",
    )
    assert blas_calls(path) == [
        "line 1: import numpy.linalg", "line 2: import dot", "line 3: import linalg",
        "line 4: @", "line 5: @", "line 6: .corrcoef", "line 7: .cov", "line 8: .dot",
        "line 9: .linalg",
    ]


def benchmark_targets() -> list[tuple[str, str, object]]:
    """perfbench/tracing.py's TARGETS: (module, attribute, span name)."""
    path = ROOT / "perfbench" / "tracing.py"
    tracing: dict = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    return tracing["TARGETS"]


def test_every_traced_benchmark_target_resolves():
    # perfbench/tracing.py wraps each (module, attribute) of TARGETS with getattr;
    # a name the program no longer exposes would break `perfbench/run.py --trace 1`.
    targets = benchmark_targets()
    assert targets
    missing = [
        (module, attr)
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"benchmark targets not found: {missing}"


@pytest.mark.parametrize("module", ["cli", "montecarlo"])
def test_only_uncalled_benchmark_targets_are_bound_under_noqa(module):
    # The tracer wraps a module attribute; one the module never calls is bound
    # by an import marked `noqa: F401`, and no other unused import hides there.
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    under_noqa = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names
    }
    called = {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    uncalled = {
        attr for name, attr, _ in benchmark_targets()
        if name == f"sysmean.{module}" and attr not in called | defined
    }
    assert under_noqa == uncalled


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The example simulates as the `simulate` command the README pairs it with.
    from sysmean.cli import main

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    assert main(["synthesize", "--units", "240", "--seed", "28", "--out", "pop.csv"]) == 0
    namespace: dict = {"__name__": "readme_example"}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.replicates == 10_000
    assert namespace["nr"].stratum and namespace["w2"] == 0.25
    capsys.readouterr()
    command = ("simulate pop.csv --n 12 --w2 0.25 --ell 2 --seed 7 --replicates 10000 "
               "--estimators hh,family")
    assert " ".join(command.split()) in " ".join(readme.split())
    assert main([*command.split(), "--format", "json"]) in (0, 1)
    reported = json.loads(capsys.readouterr().out)
    assert reported["alpha"] == namespace["alpha"]
    assert [(row["label"], row["empirical_mse"]) for row in reported["results"]] == [
        (result.label, result.empirical_mse) for result in report.results
    ]


def readme_commands() -> list[str]:
    """The README's `sysmean` command lines, continuation lines joined, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```$", readme, flags=re.S | re.M)
    return [
        line for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("sysmean ")
    ]


def readme_options() -> set[str]:
    """Every --option in the README's inline code spans and `sysmean` command lines."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"^```\w*\n.*?^```$", "", readme, flags=re.S | re.M)
    texts = [*re.findall(r"`([^`]+)`", prose), *readme_commands()]
    return {option for text in texts for option in re.findall(r"(?<![\w-])--[a-z][\w-]*", text)}


def test_readme_commands_exit_as_stated(tmp_path, monkeypatch):
    # The README says the first `simulate` example exits 1 (a check fails
    # against first-order theory) and every other command exits 0.
    from sysmean.cli import main

    commands = [shlex.split(line, comments=True)[1:] for line in readme_commands()]
    # The first command to name pop.csv writes it for the others.
    assert next(argv for argv in commands if "pop.csv" in argv)[0] == "synthesize"
    first_simulate = next(argv for argv in commands if argv[0] == "simulate")
    monkeypatch.chdir(tmp_path)
    codes = [main(argv) for argv in commands]
    assert codes == [1 if argv is first_simulate else 0 for argv in commands]


def test_readme_names_only_options_the_cli_has():
    from sysmean.cli import build_parser

    parser = build_parser()
    (commands,) = (
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    known = set(parser._option_string_actions)
    for subparser in commands.choices.values():
        known.update(subparser._option_string_actions)
    options = readme_options()
    assert {"--alpha", "--expect-sha256", "--n", "--format"} <= options
    assert not options - known, f"README names unknown options {sorted(options - known)}"


def test_readme_lists_simulates_report_columns():
    from sysmean.cli import _SIM_COLUMNS
    from sysmean.montecarlo import EstimatorResult, TheoryComparison

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (table,) = re.findall(r"^\| JSON key \|.*\n\|[-|]+\|\n((?:\|.*\n)+)", readme, flags=re.M)
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]

    def code(name: str | None) -> str:
        return f"`{name}`" if name else "—"

    # The text table's INVALID flag, a column without a heading, shows `valid`.
    json_key = {"flag": "valid"}
    assert [row[:3] for row in rows] == [
        [code(json_key.get(c.key, c.key)), code(c.csv), code(c.head)] for c in _SIM_COLUMNS
    ]
    fields = [f.name for c in (EstimatorResult, TheoryComparison) for f in dataclasses.fields(c)]
    assert {row[0] for row in rows} == set(map(code, [*fields, "target"]))


def test_readme_install_names_every_build_requirement():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (install,) = re.findall(r"^## Install\n(.*?)(?=^## )", readme, flags=re.S | re.M)
    requires = pyproject("build-system")["requires"]
    assert requires
    missing = [spec for spec in requires if spec not in install]
    assert not missing, f"README's Install section does not name {missing}"
