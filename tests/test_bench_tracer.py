"""The benchmark's tracer patches ``netval`` by name from outside.

``bench/tracer.py`` looks each listed function up with ``getattr`` when a
traced run starts, so a rename under ``src/`` would only show as a failed
benchmark run.  This test reads the lists from the file without running it
and checks them against the package.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
