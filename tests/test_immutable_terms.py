"""No module of src/oddsym changes a SuperExpr's terms after construction.

``SuperExpr.diff`` caches each derivative on the expression, keyed by
symbol name alone.  The cache is correct only while an expression's
``terms`` never change once ``SuperExpr.__init__`` has set them, so this
scan fails on any assignment to ``<x>.terms`` outside that constructor,
any assignment through or deletion from ``<x>.terms[...]``, and any call
of a mutating dict method on ``<x>.terms``.  It reads the syntax only, so
a terms dict reached through another name escapes it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oddsym"
ALLOWED = {("superexpr.py", "SuperExpr.__init__")}
MUTATORS = {"pop", "update", "setdefault", "clear", "popitem"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _targets(node):
    """Assignment targets, with tuple and list unpacking flattened."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _terms_writes(name, source):
    """(file, qualified scope, line) of each write to a ``terms`` dict."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, (ast.Assign, ast.Delete)):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            else:
                targets = []
            hit = any(_is_terms(t) or
                      (isinstance(t, ast.Subscript) and _is_terms(t.value))
                      for target in targets for t in _targets(target))
            if isinstance(child, ast.Call):
                func = child.func
                hit = isinstance(func, ast.Attribute) and \
                    func.attr in MUTATORS and _is_terms(func.value)
            if hit:
                found.append((name, ".".join(scope), child.lineno))
            walk(child, scope)

    walk(ast.parse(source), [])
    return found


def test_scan_sees_every_kind_of_write():
    source = ("def f(e, o):\n"
              "    e.terms = {}\n"
              "    e.terms[()] = 1\n"
              "    a, o.terms[1] = 1, 2\n"
              "    e.terms[()] += 1\n"
              "    del e.terms[()]\n"
              "    e.terms.pop(())\n"
              "    o.x.terms.update({})\n"
              "    e.terms.setdefault((), 1)\n"
              "    e.terms.clear()\n"
              "    e.terms.popitem()\n"
              "    e.terms.get(())\n"
              "    terms = dict(e.terms)\n"
              "    terms[()] = 1\n")
    assert [line for _, _, line in _terms_writes("m.py", source)] == \
        list(range(2, 12))


def test_no_terms_mutation_outside_the_constructor():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _terms_writes(path.name,
                                      path.read_text(encoding="utf-8"))]
    assert {hit[:2] for hit in found} >= ALLOWED  # the scan sees __init__
    assert [hit for hit in found if hit[:2] not in ALLOWED] == []
