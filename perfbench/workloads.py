"""The benchmark's workloads, run inside one fresh worker process.

A workload builds its inputs from the seed in ``__init__`` (that is set-up)
and then runs passes.  A pass is a fixed list of items, the same on every
pass of one seed, so repeated passes time the same work and a traced pass
counts the same operations.  ``Pass.item`` times one item and records why
it failed, if it did; in a measured pass it also times ``reference()``
before each item, so that run.py can scale each item to a fixed host speed.

* ``verify``: the 19 suites of ``oddsym.verify.SUITES`` through the real
  ``oddsym verify`` command, one item per suite.  Suite seeds are offset
  by the benchmark seed; seed 0 is the shipped report, whose hash is
  stored in ``expected.json``.
* ``maps-n3``: a stream of canonical maps on an n=3 chart, each put
  through five exact round trips (the pipeline layers, no grammar).  The
  stream is fixed; the seed rescales every map (see ``rescaling``).
* ``cli-rational``: in-process ``oddsym.cli.main`` requests, one client,
  closed loop: the committed manifests in ``tests/data`` against their
  goldens, plus generated manifests with rational-function coefficients,
  rescaled by the seed like the maps.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import random
import shutil
import time

from sympy.polys.domains import ZZ
from sympy.polys.fields import field

from oddsym import bv, cli, darboux, flows, sampling, symplectic, verify
from oddsym.grammar import render_expr
from oddsym.scalars import Scalar
from oddsym.superexpr import SuperExpr
from oddsym.symbols import Chart, standard_table

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, "tests", "data")

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

SEED_STRIDE = 1000   # suite seed = shipped default + SEED_STRIDE * seed
CORPUS_SEED = 0      # the shapes of generated inputs; see rescaling()
MAPS_PER_PASS = 12
MANIFESTS_PER_PASS = 24
SMOKE_SUITES = ("invariant-constant", "tau-table")


# The shared host's speed swings by 10-70% for seconds to minutes at a time,
# and CPU time swings with it: the virtual CPU itself runs slower.  A fixed
# computation timed next to each item tracks that speed.  In one noisy
# minute a maps-n3 item's median time moved by 18% between 10 s windows
# while its ratio to a reference moved by 5%.  The reference does the
# arithmetic oddsym's Scalar is built on (sympy rational functions over ZZ)
# but runs no oddsym code, so no change to oddsym can move it.
_FIELD, _X, _Y, _Z = field("x,y,z", ZZ)


def reference():
    """Time a fixed computation, about 5 ms on a calm 2-core Xeon VM.

    The collector is held off while it runs: a collection due to the
    item before would otherwise be charged to the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, a = {}, _X + 2 * _Y
        for i in range(1, 111):
            key = (i % 7, i % 5)
            acc[key] = acc.get(key, _FIELD(0)) + a * (_Z + i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


reference()   # warm up during set-up


class Pass:
    """Latency and outcome of every item of one pass.

    With ``with_reference=True`` it keeps ``refs``: the reference's time
    before each item and, after ``end()``, after the last one.
    """

    def __init__(self, tracer=None, with_reference=False):
        self.tracer = tracer
        self.labels = []
        self.seconds = []
        self.failures = {}
        self.refs = [] if with_reference else None

    def end(self):
        if self.refs is not None:
            self.refs.append(reference())

    @contextlib.contextmanager
    def item(self, label):
        if self.refs is not None:
            self.refs.append(reference())
        index = len(self.labels)
        self.labels.append(label)
        if self.tracer is not None:
            self.tracer.current_item = index
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # an item that raises is a failed item
            self.fail(label, f"{type(exc).__name__}: {exc}")
        finally:
            self.seconds.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.current_item = -1

    def fail(self, label, reason):
        self.failures.setdefault(label, reason)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _chart(n, aux=2):
    table = standard_table(n, aux=aux, extra_even=("t",))
    return Chart(table, table.even_symbols[:n], table.coordinate_odds)


class Workload:
    """Set-up in ``__init__(seed, smoke)``; ``run_pass(p)`` runs one pass
    and reports each item to the Pass ``p``; ``close()`` removes what
    set-up wrote."""

    def close(self):
        pass


class VerifyWorkload(Workload):
    def __init__(self, seed, smoke):
        self.seed = seed
        self.names = sorted(SMOKE_SUITES if smoke else verify.SUITES)
        self.full = not smoke
        self.suites = {}
        for name in self.names:
            fn = verify.SUITES[name]
            default = inspect.signature(fn).parameters["seed"].default
            self.suites[name] = (fn, default + SEED_STRIDE * seed)
        # only the timed suites stay registered, so `oddsym verify` runs
        # exactly these, in its own order
        verify.SUITES.clear()

    def run_pass(self, p):
        for name, (fn, suite_seed) in self.suites.items():
            verify.SUITES[name] = self._timed(p, name, fn, suite_seed)
        code, report = _capture(["verify"])
        self._check(p, code, report)

    @staticmethod
    def _timed(p, name, fn, suite_seed):
        def run():
            with p.item(name):
                return fn(seed=suite_seed)
            return []   # the suite raised; Pass.item recorded why
        return run

    def _check(self, p, code, report):
        lines = report.splitlines()
        by_suite = {name: [] for name in self.names}
        for line in lines[:-1]:
            label, _, value = line.partition(": ")
            by_suite.setdefault(label.partition(".")[0], []).append(line)
            if value != "ok":
                p.fail(label.partition(".")[0], line)
        want = EXPECTED["verify_seed0"] if self.seed == 0 else None
        for name in self.names:
            text = "\n".join(by_suite[name])
            if want and _sha(text) != want["suites"][name]:
                p.fail(name, "report differs from the shipped seed-0 report")
        whole_ok = code == 0 and lines[-1:] == ["verify: pass"]
        if want and self.full:
            whole_ok = whole_ok and _sha(report) == want["report_sha256"]
        if not whole_ok:
            for name in self.names:
                p.fail(name, f"verify exited {code} or its report differs")


def rescaling(rng, chart):
    """The canonical point map x_i -> c_i x_i, th_i -> th_i / c_i.

    The generated inputs of ``maps-n3`` and ``cli-rational`` are drawn from
    a fixed stream (CORPUS_SEED) and then moved by this map with seeded
    integers c_i.  That changes every coefficient but no input's shape.
    Their cost is heavy-tailed (one map in ten costs several times the
    median; one flow request can cost as much as forty others), so drawing
    the shapes from the seed as well made the work of a run vary by a
    quarter or more between seeds.
    """
    table = chart.table
    cs = [rng.choice((-3, -2, 2, 3)) for _ in chart.xs]
    body = [Scalar.symbol(table, x) * c for x, c in zip(chart.xs, cs)]
    inverse = [Scalar.symbol(table, x) / c for x, c in zip(chart.xs, cs)]
    return symplectic.point_map(chart, body, inverse)


class MapsWorkload(Workload):
    def __init__(self, seed, smoke):
        self.count = 2 if smoke else MAPS_PER_PASS
        self.chart = _chart(3)
        self.identity = symplectic.SuperMap.identity(self.chart).targets
        self.rescale = rescaling(random.Random(seed), self.chart)

    def run_pass(self, p):
        chart, s = self.chart, self.rescale
        rng = random.Random(CORPUS_SEED)
        for k in range(self.count):
            with p.item(k):
                fmap = sampling.random_canonical_map(rng, chart).compose(s)
                if not bv.delta0(symplectic.ber_sqrt(fmap), chart).is_zero:
                    p.fail(k, "delta0(ber_sqrt(f)) != 0")
                inv = symplectic.invert_map(fmap)
                if fmap.compose(inv).targets != self.identity or \
                        inv.compose(fmap).targets != self.identity:
                    p.fail(k, "invert_map does not compose to the identity")
                q = s.apply(sampling.random_flow_hamiltonian(rng, chart))
                flow = flows.exp_flow(q, chart, 1)
                if flows.hamiltonian_from_adjusted(flow) != q:
                    p.fail(k, "exp_flow/hamiltonian_from_adjusted mismatch")
                # s after the messy map: the other order would push the
                # same structure forward, since s is canonical
                messy = s.compose(sampling.random_messy_map(rng, chart))
                omega, _ = sampling.pushforward_structure(rng, chart, messy)
                if not darboux.darboux_pipeline(omega, chart).ok:
                    p.fail(k, "darboux_pipeline residuals nonzero")


# -- cli-rational -------------------------------------------------------------

COMMITTED = [
    ("bracket", "bracket.json"), ("delta0", "bracket.json"),
    ("flow", "bracket.json"), ("darboux", "n1_rescale.json"),
    ("tau-sharp", "worked_example.json"),
    ("pullback-surface", "worked_example.json"),
    ("tau-sharp-inv", "worked_example.json"),
    ("delta-vol", "operators.json"), ("delta-sharp", "operators.json"),
    ("berezinian", "operators.json"), ("shift", "operators.json"),
    ("star", "operators.json"), ("dual-density", "operators.json"),
    ("densities-p", "operators.json"),
    ("hamiltonian-from-map", "operators.json"),
]
GOLDEN_FILES = {
    ("darboux", "n1_rescale.json"): "n1_rescale.golden",
    ("tau-sharp", "worked_example.json"): "worked_example_tau_sharp.golden",
    ("densities-p", "operators.json"): "operators_densities_p.golden",
}
GENERATED = ["bracket", "delta0", "delta-vol", "flow", "berezinian",
             "darboux"]


def _rational(rng, table, **kw):
    """random_expr with rational-function coefficients, never zero."""
    while True:
        expr = sampling.random_expr(rng, table, rational=True, aux=True,
                                    even_names=("x1", "x2"), **kw)
        if not expr.is_zero:
            return expr


def _unit(rng, table, names):
    """A nonzero rational scalar in ``names``: an invertible entry."""
    while True:
        c = sampling.random_scalar(rng, table, 2, names=names, rational=True,
                                   allow_zero=False)
        if not c.is_zero:
            return c


def generated_manifest(rng, plane, line):
    """One manifest with a section for each command in GENERATED.

    ``plane`` and ``line`` are (chart, rescaling) pairs: every expression
    is moved by its chart's rescaling before it is rendered.
    """
    (plane, s2), (line, s1) = plane, line
    table, table1 = plane.table, line.table
    xs = ("x1", "x2")

    def f(expr):
        return render_expr((s1 if expr.table is table1 else s2).apply(expr))
    flow_q = SuperExpr.zero(table)
    while flow_q.is_zero:
        flow_q = _rational(rng, table, theta_degree=2, min_theta=2).odd_part()
    rho = SuperExpr.from_scalar(_unit(rng, table, xs)) + _rational(
        rng, table, theta_degree=2, min_theta=1).even_part()
    targets = []
    for x in xs:
        targets.append(SuperExpr.symbol(table, x) + _rational(
            rng, table, theta_degree=2, min_theta=1).even_part())
    for th in plane.thetas:
        targets.append(SuperExpr.from_scalar(_unit(rng, table, xs))
                       * SuperExpr.symbol(table, th)
                       + _rational(rng, table, theta_degree=2,
                                   min_theta=2).odd_part())
    entry = SuperExpr.from_scalar(_unit(rng, table1, ("x1",)))
    return {
        "charts": {
            "plane": {"n": 2, "even": list(xs), "odd": ["th1", "th2"],
                      "aux": ["b1", "b2"]},
            "line": {"n": 1, "even": ["x1"], "odd": ["th1"], "aux": ["b1"]},
        },
        "volume_forms": {"vol": {"chart": "plane", "rho": f(rho)}},
        "maps": {"m": {"source": "plane", "targets": [f(t) for t in targets]}},
        "structures": {"s": {"chart": "line", "bracket": [
            ["0", f(entry)], [f(-entry), "0"]]}},
        "bracket": {"chart": "plane", "f": f(_rational(rng, table)),
                    "g": f(_rational(rng, table))},
        "delta0": {"chart": "plane", "f": f(_rational(rng, table,
                                                      theta_degree=2))},
        "delta_vol": {"volume": "vol", "f": f(_rational(rng, table))},
        "flow": {"chart": "plane", "Q": f(flow_q),
                 "t": rng.choice(["1/2", "1", "2"])},
        "berezinian": {"map": "m"},
        "darboux": {"structure": "s"},
    }


class CliWorkload(Workload):
    def __init__(self, seed, smoke):
        self.requests = []
        for command, manifest in COMMITTED:
            golden = GOLDEN_FILES.get((command, manifest))
            if golden:
                with open(os.path.join(DATA, golden), encoding="utf-8") as fh:
                    want = fh.read()
            else:
                want = EXPECTED["cli"][f"{command} {manifest}"]
            self.requests.append((command, os.path.join(DATA, manifest),
                                  want))
        work = os.path.join(ROOT, ".perfbench", f"cli-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        self.work = work
        scales = random.Random(seed)
        plane, line = _chart(2), _chart(1, aux=1)
        plane = plane, rescaling(scales, plane)
        line = line, rescaling(scales, line)
        rng = random.Random(CORPUS_SEED)
        for j in range(1 if smoke else MANIFESTS_PER_PASS):
            path = os.path.join(work, f"generated{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(generated_manifest(rng, plane, line), fh, indent=1)
            for command in GENERATED:
                self.requests.append((command, path, None))
        # outputs of generated requests on the first pass; later passes
        # must reproduce them byte for byte
        self.first = {}

    def run_pass(self, p):
        for k, (command, path, want) in enumerate(self.requests):
            label = f"{command} {os.path.basename(path)}"
            with p.item(label):
                code, out = _capture([command, "--manifest", path])
                if code != 0:
                    p.fail(label, f"exit code {code}")
                if want is None:
                    want = self.first.setdefault(k, out)
                if out != want:
                    p.fail(label, "output differs from its golden")

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    "verify": VerifyWorkload,
    "maps-n3": MapsWorkload,
    "cli-rational": CliWorkload,
}
