"""No module of src/oddsym changes a SuperExpr's terms, or a Scalar's
coefficient, after construction.

``SuperExpr.diff`` caches each derivative on the expression, keyed by
symbol name alone.  The cache is correct only while an expression's
``terms`` never change once ``SuperExpr.__init__`` has set them.  The
Scalar kernel hands one numerator or denominator polynomial dict to many
Scalars (a product by 1 returns the other operand itself; a negation
keeps its operand's denominator), which is correct only while none of
them changes.

So this scan fails on any assignment to ``<x>.terms`` outside the
SuperExpr constructor, or to ``<x>.numer``, ``<x>.denom`` or ``<x>.f``
outside the Scalar one; on any
assignment through or deletion from ``<x>.terms[...]``, ``<x>.numer[...]``
or ``<x>.denom[...]``; and on any call of a mutating dict method on
``<x>.terms``, or of a mutating dict or in-place PolyElement method on
``<x>.numer`` or ``<x>.denom``.  It reads the syntax only, so a terms dict
or a polynomial reached through another name escapes it.

The value dataclasses built on them (``VolumeForm``, ``Semidensity``,
``DifferentialForm``, ``MultivectorField``) are frozen; the last test
assigns to their fields.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from oddsym.bv import VolumeForm
from oddsym.forms import DifferentialForm, MultivectorField
from oddsym.grammar import parse_expr
from oddsym.symbols import standard_chart
from oddsym.symplectic import Semidensity

SRC = Path(__file__).resolve().parents[1] / "src" / "oddsym"
ALLOWED = {("superexpr.py", "SuperExpr.__init__"),
           ("scalars.py", "Scalar.__init__")}
MUTATORS = {"pop", "update", "setdefault", "clear", "popitem"}
POLY_MUTATORS = MUTATORS | {"strip_zero", "imul_num", "_iadd_monom",
                            "_iadd_poly_monom"}
CONTAINERS = {"terms": MUTATORS, "numer": POLY_MUTATORS,
              "denom": POLY_MUTATORS}
FIELDS = {"terms", "numer", "denom", "f"}  # set once, by the constructor


def _attribute(node, names):
    return isinstance(node, ast.Attribute) and node.attr in names


def _targets(node):
    """Assignment targets, with tuple and list unpacking flattened."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _writes(name, source):
    """(file, qualified scope, line) of each write to a ``terms`` dict, a
    Scalar's ``numer``, ``denom`` or ``f``, or a coefficient's ``numer``
    or ``denom`` polynomial."""
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
            hit = any(_attribute(t, FIELDS) or
                      (isinstance(t, ast.Subscript) and
                       _attribute(t.value, CONTAINERS))
                      for target in targets for t in _targets(target))
            if isinstance(child, ast.Call):
                func = child.func
                hit = isinstance(func, ast.Attribute) and \
                    _attribute(func.value, CONTAINERS) and \
                    func.attr in CONTAINERS[func.value.attr]
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
    assert [line for _, _, line in _writes("m.py", source)] == \
        list(range(2, 12))


def test_scan_sees_every_kind_of_coefficient_write():
    source = ("def f(s, g, m):\n"
              "    s.f = g\n"
              "    s.numer = g\n"
              "    s.denom, t = 1, 2\n"
              "    s.numer[m] = 1\n"
              "    s.f.numer[m] = 1\n"
              "    s.f.denom[m] += 1\n"
              "    del s.f.numer[m]\n"
              "    s.f.numer.strip_zero()\n"
              "    g.denom.strip_zero()\n"
              "    g.numer.imul_num(2)\n"
              "    g.numer._iadd_monom((m, 1))\n"
              "    g.denom.pop(m)\n"
              "    g.numer.update({})\n"
              "    s.f.numer.strip_zero\n"
              "    h = g.numer.quo_ground(2)\n"
              "    h[m] = 1\n"
              "    g.numer.get(m)\n"
              "    numer = s.numer\n"
              "    return s.f\n")
    assert [line for _, _, line in _writes("m.py", source)] == \
        list(range(2, 15))


def test_no_terms_mutation_outside_the_constructor():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _writes(path.name,
                                      path.read_text(encoding="utf-8"))]
    assert {hit[:2] for hit in found} >= ALLOWED  # the scan sees __init__
    assert [hit for hit in found if hit[:2] not in ALLOWED] == []


def test_value_dataclasses_are_frozen():
    # a manifest's values are shared by every request on it; an odd
    # density assigned to a checked VolumeForm would also leave its cached
    # inverse and root stale
    chart = standard_chart(2, frame=True)
    table = chart.table
    th1 = parse_expr("th1", table)
    values = [(VolumeForm(parse_expr("1 + th1*th2", table), chart),
               "density"),
              (Semidensity(parse_expr("x1", table), chart), "coefficient"),
              (DifferentialForm(parse_expr("x1*xi1", table), chart), "expr"),
              (MultivectorField(parse_expr("x1*th1", table), chart), "expr")]
    for value, field in values:
        before = getattr(value, field)
        for name in (field, "chart"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, th1)
        assert getattr(value, field) is before
