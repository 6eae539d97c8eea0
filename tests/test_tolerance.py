"""The tolerance policy: every numerical threshold lives in ``luorbit.tolerance``."""

import ast
from pathlib import Path

import luorbit
from luorbit import rank, tolerance

SOURCE = Path(luorbit.__file__).parent


def _small_float_literals(path: Path) -> list:
    """(line, value) of every float literal with 0 < |value| <= 1e-6; docstrings are strings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) <= 1e-6
    ]


def test_only_the_tolerance_module_holds_thresholds():
    assert _small_float_literals(SOURCE / "tolerance.py")
    found = {
        path.name: literals
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "tolerance.py" and (literals := _small_float_literals(path))
    }
    assert found == {}


def test_rank_reexports_the_policy():
    assert rank.DEFAULT_TOL is tolerance.DEFAULT_TOL == luorbit.DEFAULT_TOL
    assert rank.GAP_WARNING_THRESHOLD is tolerance.GAP_WARNING_THRESHOLD
    assert rank.check_tol is tolerance.check_tol
