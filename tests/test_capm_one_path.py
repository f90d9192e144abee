"""Every CAPM price comes from one path through ``capm.py``.

``_eta_maps`` is the only code that builds the eta power maps
``f_i(q) = (s_i q0 + extra_i) hat_eta_i(z_i, q) + shift_i``, and one
function turns a factor model into discounted prices and caps through
``expected_values``.  The bounds and the single-firm baseline both go
through them, so a second copy of either cannot drift from the first.
These tests read the source without running it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "netval" / "capm.py"


def _callers(name: str) -> list:
    """Top-level functions or classes of ``capm.py`` that call ``name``, once per call."""
    owners = []
    for top in ast.parse(SRC.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    owners.append(owner)
    return owners


def test_only_eta_maps_builds_power_maps():
    assert _callers("PowerMap") == ["_eta_maps"]
    assert _callers("AffineMap") == []


def test_one_function_takes_expectations():
    assert len(_callers("expected_values")) == 1
