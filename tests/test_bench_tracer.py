"""The benchmark reaches into ``netval`` by name from outside.

``bench/tracer.py`` looks each listed function up with ``getattr`` when a
traced run starts, and the workloads call library functions as ``nv.<name>``
attributes, so a rename under ``src/`` would only show as a failed benchmark
run.  These tests read the files without running them and check every name
against the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _patch_lists() -> dict:
    lists = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("SPANNED", "COUNTED", "MAP_CLASSES"):
                lists[name] = ast.literal_eval(node.value)
    return lists


def test_tracer_patch_list_names_exist():
    lists = _patch_lists()
    assert set(lists) == {"SPANNED", "COUNTED", "MAP_CLASSES"}
    for table in (lists["SPANNED"], lists["COUNTED"]):
        for module, names in table.items():
            mod = importlib.import_module(f"netval.{module}")
            missing = [name for name in names if not callable(getattr(mod, name, None))]
            assert missing == [], f"netval.{module}"
    comonotonic = importlib.import_module("netval.comonotonic")
    for cname in lists["MAP_CLASSES"]:
        # the tracer wraps cls.__call__: the class or one of its bases must define it
        cls = getattr(comonotonic, cname)
        assert any("__call__" in vars(k) for k in cls.__mro__[:-1]), cname


def _netval_names(path: Path) -> set:
    """``(module, name)`` for every name a file imports from ``netval`` or
    reads as an attribute of ``import netval as <alias>``."""
    tree = ast.parse(path.read_text())
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "netval"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "netval":
            names |= {(node.module, a.name) for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(("netval", node.attr))
    return names


def test_bench_netval_names_exist():
    for path in sorted(BENCH.glob("*.py")):
        for module, name in _netval_names(path):
            mod = importlib.import_module(module)
            # a submodule imported by name (``from netval import cli``) need not be loaded yet
            found = hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}") is not None
            assert found, f"{path.name}: {module}.{name}"
    # the workloads' attribute calls and imports are both read
    names = {name for _, name in _netval_names(BENCH / "workloads.py")}
    assert {"expected_values", "simulate", "FactorModel"} <= names
