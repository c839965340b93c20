"""Outside-in tracing of oddsym's public functions.

The tracer wraps functions and methods from here, without touching the
library's source: each wrapper replaces the original both where it is
defined and everywhere an ``oddsym`` module imported it by name.  Every
call becomes a span (layer, start, end, parent span, item id) kept in flat
arrays in memory; ``summary`` turns them into per-layer counts and self
times, and ``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (layer, module, attribute path).  Several paths may share one layer.
# SuperExpr.__sub__/__rsub__/__rmul__ delegate to __add__/__mul__, so
# wrapping those would count one operation twice; Scalar's subtraction
# does its own field arithmetic and is counted with addition.
TRACED = [
    ("scalars.mul", "oddsym.scalars", "Scalar.__mul__"),
    ("scalars.add", "oddsym.scalars", "Scalar.__add__"),
    ("scalars.add", "oddsym.scalars", "Scalar.__sub__"),
    ("scalars.add", "oddsym.scalars", "Scalar.__rsub__"),
    ("scalars.div", "oddsym.scalars", "Scalar.__truediv__"),
    ("scalars.diff", "oddsym.scalars", "Scalar.diff"),
    ("scalars.subs_even", "oddsym.scalars", "Scalar.subs_even"),
    ("scalars.from_int", "oddsym.scalars", "Scalar.from_int"),
    ("scalars.sqrt", "oddsym.scalars", "Scalar.sqrt"),
    ("superexpr.mul", "oddsym.superexpr", "SuperExpr.__mul__"),
    ("superexpr.add", "oddsym.superexpr", "SuperExpr.__add__"),
    ("superexpr.substitute", "oddsym.superexpr", "SuperExpr.substitute"),
    ("superexpr.invert_even", "oddsym.superexpr", "SuperExpr.invert_even"),
    ("superexpr.sqrt_series", "oddsym.superexpr", "SuperExpr.sqrt_series"),
    ("superexpr.diff", "oddsym.superexpr", "SuperExpr.diff"),
    ("flows.exp_flow", "oddsym.flows", "exp_flow"),
    ("flows.hamiltonian_from_adjusted", "oddsym.flows",
     "hamiltonian_from_adjusted"),
    ("darboux.darboux_pipeline", "oddsym.darboux", "darboux_pipeline"),
    ("darboux.darboux_step", "oddsym.darboux", "darboux_step"),
    ("symplectic.bracket", "oddsym.symplectic", "bracket"),
    ("symplectic.berezinian", "oddsym.symplectic", "berezinian"),
    ("symplectic.ber_sqrt", "oddsym.symplectic", "ber_sqrt"),
    ("symplectic.invert_map", "oddsym.symplectic", "invert_map"),
    ("symplectic.is_canonical", "oddsym.symplectic", "is_canonical"),
    ("symplectic.compose", "oddsym.symplectic", "SuperMap.compose"),
    ("symplectic.pullback_semidensity", "oddsym.symplectic",
     "pullback_semidensity"),
    ("bv.delta0", "oddsym.bv", "delta0"),
    ("bv.delta_sharp", "oddsym.bv", "delta_sharp"),
    ("bv.bv_identity_residuals", "oddsym.bv", "bv_identity_residuals"),
    ("forms.tau_sharp", "oddsym.forms", "tau_sharp"),
    ("forms.tau_sharp_inverse", "oddsym.forms", "tau_sharp_inverse"),
    ("surfaces.pullback_K", "oddsym.surfaces", "pullback_K"),
    ("surfaces.dual_density", "oddsym.surfaces", "dual_density"),
    ("grammar.parse_expr", "oddsym.grammar", "parse_expr"),
    ("grammar.render_expr", "oddsym.grammar", "render_expr"),
    ("manifests.load_manifest", "oddsym.manifests", "load_manifest"),
    ("cli.main", "oddsym.cli", "main"),
]

# Entry points of fixture generation; every public function of the module.
SAMPLING = [
    "random_scalar", "random_expr", "random_homogeneous",
    "random_special_map", "random_point_map", "random_flow_hamiltonian",
    "random_flow_map", "random_canonical_map", "random_messy_map",
    "pushforward_structure",
]

LAYERS = list(dict.fromkeys(layer for layer, _, _ in TRACED))
SHARE_LAYERS = ("scalars.mul", "scalars.add")


def _rational(value):
    f = getattr(value, "f", None)
    return f is not None and not f.denom.is_ground


class Tracer:
    """Span recorder.  ``install`` patches the library in this process."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.stack = [-1]
        self.current_item = -1
        self.rational = {layer: 0 for layer in SHARE_LAYERS}
        self.term_pairs = 0

    def _layer_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn, hook=None):
        lid = self._layer_id(name)
        start, end, layer, parent, item = (self.start, self.end, self.layer,
                                           self.parent, self.item)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(lid)
            parent.append(stack[-1])
            item.append(self.current_item)
            start.append(0.0)
            end.append(0.0)
            if hook is not None:
                hook(args)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def _share_hook(self, name):
        def hook(args):
            if _rational(args[0]) or (len(args) > 1 and _rational(args[1])):
                self.rational[name] += 1
        return hook

    def _pairs_hook(self, args):
        other = args[1]
        terms = getattr(other, "terms", None)
        self.term_pairs += len(args[0].terms) * (
            1 if terms is None else len(terms))

    def install(self):
        """Wrap every traced function where it is defined and imported."""
        for name, module, path in TRACED:
            hook = None
            if name in SHARE_LAYERS:
                hook = self._share_hook(name)
            elif name == "superexpr.mul":
                hook = self._pairs_hook
            self._patch(module, path, name, hook)
        for fn in SAMPLING:
            self._patch("oddsym.sampling", fn, "sampling." + fn, None)

    def _patch(self, module_name, path, name, hook):
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, hook))
        else:
            new = self._wrap(name, raw, hook)
        # every alias of the same object: __radd__ = __add__, and names
        # imported with ``from .module import fn``
        targets = [owner] if owner_name else [
            mod for key, mod in sys.modules.items()
            if key == "oddsym" or key.startswith("oddsym.")]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is raw:
                    setattr(target, key, new)

    # -- analysis -------------------------------------------------------

    def summary(self):
        """Per-layer calls, self time and the derived counters."""
        n = len(self.layer)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        lid = {name: i for i, name in enumerate(self.names)}
        sampling = {i for i, name in enumerate(self.names)
                    if name.startswith("sampling.")}
        flow = lid["flows.exp_flow"]
        subst = lid["superexpr.substitute"]
        in_sampling = bytearray(n)
        in_flow = bytearray(n)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        busy = 0.0
        busy_by_item = {}
        flow_substitutes = 0
        layer, parent, item = self.layer, self.parent, self.item
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
                in_sampling[i] = in_sampling[p] or layer[p] in sampling
                in_flow[i] = in_flow[p] or layer[p] == flow
            if layer[i] in sampling and not in_sampling[i] and item[i] >= 0:
                busy += dur[i]
                busy_by_item[item[i]] = busy_by_item.get(item[i], 0.0) \
                    + dur[i]
            if layer[i] == subst and in_flow[i]:
                flow_substitutes += 1
        for i in range(n):
            calls[layer[i]] += 1
            self_s[layer[i]] += dur[i] - covered[i]
        out = {}
        for name in LAYERS:  # install() registered every layer
            out[f"{name}.calls"] = calls[lid[name]]
            out[f"{name}.self_s"] = self_s[lid[name]]
        for name in SHARE_LAYERS:
            total = out[f"{name}.calls"]
            out[f"{name}.rational_share"] = \
                self.rational[name] / total if total else 0.0
        out["superexpr.mul.term_pairs"] = self.term_pairs
        flows = out["flows.exp_flow.calls"]
        out["flows.exp_flow.substitute_per_call"] = \
            flow_substitutes / flows if flows else 0.0
        out["sampling.busy_s"] = busy
        return out, busy_by_item

    def write_spans(self, path):
        """Save the spans: a JSON header line, then five raw arrays."""
        with open(path, "wb") as handle:
            header = {"layers": self.names, "spans": len(self.layer),
                      "arrays": ["start:d", "end:d", "layer:i", "parent:i",
                                 "item:i"]}
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.layer, self.parent,
                        self.item):
                arr.tofile(handle)
