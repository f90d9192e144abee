"""The default-set map ``V = M(z)^{-1} (a_x(z) x - c(z))`` is written out once.

``clearing._haircuts`` is the only code that turns the recovery rates into
the shares ``1 - (1 - alpha) z`` a bank keeps, and ``clearing._block_inverse``
the only code that inverts a coupled block ``A = I - K[T, T]``.  The
clearing kernel, ``delta_matrix``, ``delta_vector`` and the threshold sweep
all call them.  ``psi_star`` keeps its own haircut: it is the independent
reference behind ``helpers.upper_picard_clearing``.  These tests read the
sources without running them, so a second copy of either formula fails here
before it can drift from the first.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "netval"
MODULES = ("clearing.py", "comonotonic.py")
RATES = ("alpha_x", "alpha_L")


def _owned_nodes(module: str):
    """``(owner, node)`` for every node of a module; the owner is the name of
    the top-level function or class the node sits in, else ``<module>``."""
    for top in ast.parse((SRC / module).read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            yield owner, node


def _call_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _is_eye(node) -> bool:
    return isinstance(node, ast.Call) and _call_name(node) in ("eye", "identity")


def test_recovery_rates_read_only_in_haircuts():
    readers = {}
    for module in MODULES:
        for owner, node in _owned_nodes(module):
            attr = isinstance(node, ast.Attribute) and node.attr in RATES
            # getattr(net, "alpha_x") counts as a read too
            name = isinstance(node, ast.Constant) and node.value in RATES
            if attr or name:
                readers.setdefault(module, set()).add(owner)
    assert readers == {"clearing.py": {"_haircuts", "psi_star"}}


def test_only_block_inverse_solves_against_the_identity():
    owners = {module: [] for module in MODULES}
    for module in MODULES:
        nodes = list(_owned_nodes(module))
        # names bound to an identity matrix, per owner
        eyes = {
            (owner, target.id)
            for owner, node in nodes
            if isinstance(node, ast.Assign) and _is_eye(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for owner, node in nodes:
            if not (isinstance(node, ast.Call) and _call_name(node) == "_solve"):
                continue
            rhs = node.args[1] if len(node.args) > 1 else None
            if _is_eye(rhs) or (isinstance(rhs, ast.Name) and (owner, rhs.id) in eyes):
                owners[module].append(owner)
        # nor an explicit inverse anywhere else
        owners[module] += [
            owner for owner, node in nodes
            if isinstance(node, ast.Call) and _call_name(node) in ("inv", "pinv")
        ]
    assert owners == {"clearing.py": ["_block_inverse"], "comonotonic.py": []}
