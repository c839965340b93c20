"""Every name the benchmark's tracer patches must exist in oddsym.

perfbench/tracer.py wraps library functions by module and attribute path,
so renaming one breaks traced benchmark runs.  The lists are read from the
tracer's source without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_list(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


def _defined(module_name, path):
    # the tracer reads vars(owner)[attr], so inherited names do not count
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return attr in vars(owner)


def test_traced_names_resolve():
    traced = _tracer_list("TRACED")
    assert traced
    missing = [(module, path) for _, module, path in traced
               if not _defined(module, path)]
    assert missing == []


def test_sampling_names_resolve():
    sampling = _tracer_list("SAMPLING")
    assert sampling
    missing = [fn for fn in sampling if not _defined("oddsym.sampling", fn)]
    assert missing == []
