"""Every parameter of a function in src/oddsym is read by its body.

A parameter that nothing reads is an input the caller must supply for
nothing.  The uniform interfaces are the exceptions: every verify suite
takes ``seed``, and methods keep their receiver and special methods
their signature.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oddsym"


def _exempt(function, name):
    """A method's receiver, a special method's fixed signature and a
    suite's ``seed``."""
    if name in ("self", "cls") or function.name.startswith("__"):
        return True
    return function.name.startswith("suite_") and name == "seed"


def _unread(function):
    """The parameters of ``function`` that its body, nested functions
    included, never loads."""
    args = function.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in function.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in params
            if name not in read and not _exempt(function, name)]


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unread += [f"{path.name}:{node.lineno} {node.name}({name})"
                           for name in _unread(node)]
    assert unread == []
