"""Every failure ``netval`` raises on purpose is one of two kinds.

``SchemaError`` is malformed input (CLI exit 4) and ``DomainError`` is
well-formed input outside the model's domain (exit 5), both defined in
``netval.network``.  These tests read the package's source, so a new error
class outside the two kinds, or a CLI that maps a class of its own, fails
here rather than as an ``internal`` exit 1 at run time.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "netval"


def test_every_error_class_is_a_domain_or_schema_error():
    from netval.network import DomainError, SchemaError

    seen = []
    for path in sorted(SRC.glob("*.py")):
        name = "netval" if path.stem == "__init__" else f"netval.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException) and cls not in (DomainError, SchemaError):
                    seen.append(node.name)
                    assert issubclass(cls, (DomainError, SchemaError)), f"{path.name}: {node.name}"
    assert {"NetworkError", "ModelError", "QuadratureError", "OracleError"} <= set(seen)
    # two kinds, and none is both
    assert not issubclass(DomainError, SchemaError) and not issubclass(SchemaError, DomainError)


def test_cli_imports_only_the_two_error_kinds():
    cli = importlib.import_module("netval.cli")
    imported = set()
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    classes = {name: getattr(cli, name) for name in imported}
    errors = {n for n, c in classes.items() if isinstance(c, type) and issubclass(c, Exception)}
    assert errors == {"DomainError", "SchemaError"}
