"""The Jacobian route (griffiths, gaussmanin) imports nothing of the window
route (forms, linalg), and the test oracles (tests/oracles.py) are not
package names."""

import ast
from pathlib import Path

import pytest

import dworkcohom


def sibling_imports(module: str) -> set:
    """The modules of the package that src/dworkcohom/<module>.py imports
    (the package imports its own modules only relatively)."""
    path = Path(dworkcohom.__file__).resolve().parent / f"{module}.py"
    return {node.module or alias.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


@pytest.mark.parametrize("module", ["griffiths", "gaussmanin"])
def test_jacobian_route_imports_nothing_of_the_window_route(module):
    assert sibling_imports(module) & {"forms", "linalg"} == set()


def test_moved_names_are_not_package_names():
    moved = ("DifferentialForm", "gradient_form", "strand_basis",
             "rank_mod_p", "ComplexDims", "dF_only_cohomology")
    assert [name for name in moved if hasattr(dworkcohom, name)] == []
