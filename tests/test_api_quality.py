"""API quality gates: public items are documented and importable, and the
package's `__all__` lists are honest."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if "__pycache__" not in name
]


def test_every_module_imports():
    for name in MODULES:
        importlib.import_module(name)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_are_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, (
        f"{module_name}: public items without docstrings: {undocumented}"
    )


def test_dunder_all_entries_exist():
    for module_name in MODULES + ["repro"]:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_top_level_exports_cover_the_pipeline():
    essential = [
        "Optimizer",
        "OptimizerOptions",
        "Database",
        "parse",
        "parse_and_translate",
        "prepare",
        "unnest",
        "unnest_query",
        "simplify",
        "evaluate",
        "evaluate_plan",
        "execute",
        "pretty",
        "pretty_plan",
        "classify_oql",
    ]
    for name in essential:
        assert name in repro.__all__, f"{name} missing from repro.__all__"


def test_version_is_set():
    assert repro.__version__


def test_production_code_does_not_import_the_reference_plan_evaluator():
    """``repro.algebra.evaluator`` is the executable form of Figure 5's
    equations, a reference the tests and the oracle compare against.  The
    layers that run queries must not build on it: reachable from
    ``repro.algebra``, ``repro.testing`` and the top-level re-export only."""
    import ast

    reference_names = {"evaluator", "PlanEvaluator", "evaluate_plan"}
    production = ("repro.engine", "repro.backends", "repro.core", "repro.server")
    offenders = []
    for name in MODULES:
        if not name.startswith(production):
            continue
        module = importlib.import_module(name)
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Import):
                hit = any(
                    alias.name == "repro.algebra.evaluator" for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "repro.algebra.evaluator" or (
                    node.module == "repro.algebra"
                    and any(alias.name in reference_names for alias in node.names)
                )
            else:
                continue
            if hit:
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_production_code_does_not_import_the_test_harness():
    """``repro.testing`` — fuzzer, generators, oracle and, through the
    oracle, the reference evaluators — is for tests and ``repro fuzz``.
    Nothing else under ``src/repro`` imports it at module level (the
    subcommand imports it inside its function), so a server process never
    loads it."""
    import ast
    import subprocess
    import sys

    offenders = []
    for name in MODULES + ["repro"]:
        if name.startswith("repro.testing"):
            continue
        module = importlib.import_module(name)
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "repro":
                    names = [f"repro.{alias.name}" for alias in node.names]
            else:
                continue
            if any((n + ".").startswith("repro.testing.") for n in names):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.server; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.testing')))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(Path(repro.__file__).parent.parent)},
    )
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.strip() == "[]"


def test_the_cli_does_not_load_the_server():
    """``import repro.cli`` and a one-shot query load neither ``asyncio`` nor
    the server: ``repro serve`` imports them inside its function, and the
    options' table and checks live beside ``OptimizerOptions``."""
    import subprocess
    import sys

    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; repro.cli.main(['count(Employees)']); "
            "print(sorted(m for m in ('asyncio', 'repro.server.server') "
            "if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(Path(repro.__file__).parent.parent)},
    )
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.splitlines()[-1] == "[]"


def test_generated_code_enters_through_one_door():
    """Source text becomes code in exactly one function under ``src/repro``
    — ``engine/compile.py:_factory`` — and that function has one caller, so
    what may be generated, how it is cached and what it can name are
    decided in one place."""
    import ast

    doors = {"exec", "eval", "compile"}
    found, factory_callers = set(), []

    def visit(module_name, node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id in doors:
                found.add((module_name, function))
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr in doors
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("builtins", "__builtins__")
            ):
                found.add((module_name, function))
            elif isinstance(callee, ast.Name) and callee.id == "_factory":
                factory_callers.append((module_name, function))
        for child in ast.iter_child_nodes(node):
            visit(module_name, child, function)

    for name in MODULES + ["repro"]:
        module = importlib.import_module(name)
        visit(name, ast.parse(inspect.getsource(module)), None)
    assert found == {("repro.engine.compile", "_factory")}
    assert factory_callers == [("repro.engine.compile", "kernel")]


#: The modules that define physical operators.
OPERATOR_MODULES = (
    "repro.engine.physical",
    "repro.engine.exchange",
    "repro.backends.shred",
)


def _root(expr):
    """The name an attribute, subscript or call chain starts from."""
    while isinstance(expr, (ast.Attribute, ast.Subscript, ast.Call)):
        expr = expr.func if isinstance(expr, ast.Call) else expr.value
    return expr.id if isinstance(expr, ast.Name) else None


SETTERS = ("setattr", "delattr")


def _writes(method):
    """What *method* stores to: ``(node, root name)`` for every attribute
    or subscript it assigns or deletes, and every ``setattr``/``delattr``."""
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            if isinstance(node, ast.Call) and _root(node.func) in SETTERS:
                yield node, None
            continue
        for target in targets:
            for written in ast.walk(target):
                if isinstance(getattr(written, "ctx", None), (ast.Store, ast.Del)):
                    yield written, _root(written)


def _of_execution(method):
    """``ex`` and the names *method* binds only from it."""
    roots: dict[str, set] = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for bound in ast.walk(target):
                    if isinstance(bound, ast.Name):
                        roots.setdefault(bound.id, set()).add(_root(node.value))
    return {"ex"} | {name for name, found in roots.items() if found == {"ex"}}


def test_a_physical_plan_is_never_written_once_built():
    """One physical plan is kept per compiled query and database state and
    run by every session at once, so an operator is fixed when its
    ``__init__`` returns.  No other method of a ``PhysicalOperator``
    subclass assigns an attribute of itself or of another operator — of
    anything but the execution passed in (``ex``) and names bound only from
    it — nor an item of its own state: what a run builds and counts lives
    in its :class:`~repro.engine.physical.Execution`."""
    classes = {}
    for name in OPERATOR_MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (name, node)
    operators = {"PhysicalOperator"}
    grown = True
    while grown:
        grown = False
        for name, (_, node) in classes.items():
            if name not in operators and {_root(b) for b in node.bases} & operators:
                operators.add(name)
                grown = True
    assert {"PIndexScan", "PSharedNest", "PGather", "PSqlSegment"} <= operators

    found = []
    for name in sorted(operators):
        module, cls = classes[name]
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                continue
            allowed = _of_execution(method)
            for written, root in _writes(method):
                if (
                    root == "self"
                    or isinstance(written, (ast.Attribute, ast.Call))
                    and root not in allowed
                ):
                    found.append(f"{module}:{written.lineno} {name}.{method.name}")
    assert found == []
