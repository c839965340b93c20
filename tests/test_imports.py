"""No import statement inside a function body of src/oddsym, and sympy
imported by one module only.

A function-local import repeats the module lookup on every call and hides
a dependency from the top of the file.  The one exception is
``SuperExpr.__repr__``: grammar imports superexpr, so superexpr can only
import grammar late.

The polynomials, their ring and the symbol table are oddsym's own; sympy
is imported only by scalars.py, for the ``Scalar.f`` view.
"""

import ast
from pathlib import Path

from oddsym.polys import Ring
from oddsym.symbols import SymbolTable, standard_table

SRC = Path(__file__).resolve().parents[1] / "src" / "oddsym"
ALLOWED = {("superexpr.py", "SuperExpr.__repr__")}


def _local_imports(path):
    """(file, qualified scope, line) of each import inside a function."""
    found = []

    def walk(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + [child.name], in_function)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    found.append((path.name, ".".join(scope), child.lineno))
            else:
                walk(child, scope, in_function)

    walk(ast.parse(path.read_text(encoding="utf-8")), [], False)
    return found


def test_no_function_local_imports():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _local_imports(path)]
    assert {hit[:2] for hit in found} >= ALLOWED  # the walk sees the cycle
    assert [hit for hit in found if hit[:2] not in ALLOWED] == []


def _imports_sympy(path):
    """True when the module imports sympy or one of its submodules."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == "sympy" for name in names):
            return True
    return False


def test_only_scalars_imports_sympy():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if _imports_sympy(path)] == ["scalars.py"]


def test_symbol_table_holds_no_sympy_field():
    for table in (standard_table(2, aux=1), SymbolTable((), ("th1",))):
        assert not hasattr(table, "field")
        assert isinstance(table.ring, Ring)
        assert table.ring.ngens == len(table.even_symbols)
