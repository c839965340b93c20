"""No import statement inside a function body of src/oddsym, sympy
imported by one module only, and ``functools`` memos on listed functions
only.

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


# The functions that ``functools.cache`` or ``lru_cache`` may decorate,
# each for the reuse it is kept for.  A memo that no workload reads again
# is state with no return, so a new one is added here with its count.
CACHED = {
    # one generated monomial product per number of generators, read by
    # every Ring of that size
    ("polys.py", "_monomial_product"),
    # one parser per process: all 159 requests of a warm cli-rational
    # pass hit it
    ("cli.py", "build_parser"),
    # a caller's requests on one manifest come in a row: 131 of the 159
    # requests of a warm cli-rational pass hit it
    ("manifests.py", "_manifest_of"),
}


def _memoized(path):
    """(file, function) of each function decorated with functools.cache
    or lru_cache, by attribute or by name imported from functools."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {"cache", "lru_cache"}
    aliases = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "functools"
               for alias in node.names if alias.name in names}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                decorator = decorator.func
            if isinstance(decorator, ast.Attribute) and \
                    decorator.attr in names or \
                    isinstance(decorator, ast.Name) and \
                    decorator.id in aliases:
                found.append((path.name, node.name))
    return found


def test_memoized_functions_are_the_listed_ones():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _memoized(path)]
    assert sorted(found) == sorted(CACHED)
