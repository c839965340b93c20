"""Acceptance gate: every criterion at exact (zero-tolerance) equality.

Each test prints one pass/fail line; the detailed sampling lives in the
named verification suites so the command line `oddsym verify` exercises
the identical checks.
"""

import contextlib
import hashlib
import inspect
import json
from pathlib import Path

import pytest

from oddsym import sampling, verify
from oddsym.cli import cmd_verify
from oddsym.grammar import render_expr
from oddsym.scalars import Scalar
from oddsym.superexpr import SuperExpr
from oddsym.symplectic import OddSymplecticStructure, Semidensity, SuperMap
from oddsym.verify import SUITES, worked_example_chart, worked_example_values

# sha256 of each suite's lines in the seed-0 `oddsym verify` report
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
SUITE_SHA256 = json.loads(EXPECTED.read_text(encoding="utf-8"))[
    "verify_seed0"]["suites"]

# sha256, per suite, of the rendered values that the names below return
# inside the seed-0 run: labels alone pass when a fixture or an operator
# changes but every residual still vanishes
VALUES = Path(__file__).resolve().parent / "data" / "verify_values.json"
VALUE_SHA256 = json.loads(VALUES.read_text(encoding="utf-8"))
GENERATORS = sorted(name for name, obj in vars(sampling).items()
                    if inspect.isfunction(obj) and name in vars(verify)
                    and obj.__module__ == sampling.__name__)
OPERATORS = ["ber_sqrt", "pullback_semidensity", "delta_sharp", "tau_sharp"]


def _render(value):
    if isinstance(value, SuperExpr):
        return render_expr(value)
    if isinstance(value, Scalar):
        return render_expr(SuperExpr.from_scalar(value))
    if isinstance(value, Semidensity):
        return _render(value.coefficient)
    if isinstance(value, SuperMap):
        return _render(value.targets)
    if isinstance(value, OddSymplecticStructure):
        return _render(value.matrix)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    raise TypeError(f"no rendering for {type(value).__name__}")


def _recording(name, fn, digest):
    def recorded(*args, **kwargs):
        value = fn(*args, **kwargs)
        digest.update(f"{name}: {_render(value)}\n".encode("utf-8"))
        return value
    return recorded


@contextlib.contextmanager
def _recorded_values(digest):
    """Wrap the pinned names in ``oddsym.verify`` (whatever they are bound
    to now) so that each call feeds its rendered result into digest."""
    with pytest.MonkeyPatch.context() as mp:
        for name in GENERATORS + OPERATORS:
            mp.setattr(verify, name,
                       _recording(name, getattr(verify, name), digest))
        yield


def _run(names, criterion):
    failures = []
    for name in names:
        digest = hashlib.sha256()
        with _recorded_values(digest):
            lines, _ = cmd_verify(name)
        if digest.hexdigest() != VALUE_SHA256[name]:
            failures.append(f"{name}: values differ from the seed-0 run")
        lines = lines[:-1]  # the closing "verify: pass" line
        failures += [f"{label}: {value}" for label, value in lines
                     if value != "ok"]
        text = "\n".join(f"{label}: {value}" for label, value in lines)
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != \
                SUITE_SHA256[name]:
            failures.append(f"{name}: report lines differ from the "
                            f"seed-0 report")
    status = "PASS" if not failures else "FAIL"
    print(f"{status} {criterion}")
    assert not failures, "\n".join(failures)


def test_criterion_01_worked_example_reproduction():
    _run(["worked-example"],
         "criterion 1: three-dimensional worked example, symbolic "
         "coefficients and three instantiations")


def test_criterion_01_p1_sign_note():
    """The quoted closing line of the example flips the sign of P1
    relative to the definition P1 = K(sqrt dv) K(delta sqrt dv) combined
    with the quoted values of both factors; the factors commute, so no
    ordering convention reconciles them.  The definition wins; this
    asserts the relation between the two."""
    chart, bs = worked_example_chart()
    _, _, ks, kd, _, p1 = worked_example_values(chart, bs)
    quoted = kd.coefficient * (-ks.coefficient)
    if p1 == quoted:
        pytest.fail("quoted sign unexpectedly matches the definition")
    assert p1 == -quoted
    print("PASS criterion 1 note: P1 equals minus the quoted closing line, "
          "consistent with the stated factors")


@pytest.mark.xfail(
    strict=True,
    reason="the closing line of the worked example contradicts the "
           "product of its own two stated factors; the factors commute, "
           "so the literal line cannot hold alongside them")
def test_criterion_01_p1_literal_closing_line():
    chart, bs = worked_example_chart()
    _, _, ks, kd, _, p1 = worked_example_values(chart, bs)
    assert p1 == kd.coefficient * (-ks.coefficient)


def test_criterion_02_transform_table():
    _run(["tau-table"],
         "criterion 2: n=2 transform table reproduced bit-exactly")


def test_criterion_03_identity_suites():
    _run(["jacobi", "delta-squared", "leibniz", "chart-change",
          "module-rule", "square-formula", "ber-root"],
         "criterion 3: operator identity suites, >=200 samples each")


def test_criterion_04_covariance():
    _run(["covariance"],
         "criterion 4: semidensity operator commutes with pull-back for "
         "20 maps of each class")


def test_criterion_05_intertwining_and_divergence():
    _run(["intertwining", "divergence"],
         "criterion 5: exterior-derivative intertwining and divergence "
         "agreement")


def test_criterion_06_darboux_pipeline():
    _run(["darboux"],
         "criterion 6: normalization pipeline on pushed-forward "
         "structures, the n=1 rescale, and the identity case")


def test_criterion_07_flow_round_trip():
    _run(["flows"],
         "criterion 7: generator recovery round trip and canonicity at "
         "rational times")


def test_criterion_08_moser_transport():
    _run(["moser"],
         "criterion 8: deformation flow returns the transported "
         "semidensity exactly")


def test_criterion_09_surface_relation():
    _run(["surface"],
         "criterion 9: surface pull-back anticommutes with the operator; "
         "dual-density cross-check")


def test_criterion_10_invariant_constant():
    _run(["invariant-constant"],
         "criterion 10: top-coefficient constant invariant; odd-constant "
         "classifier")


def test_all_suites_registered():
    # the acceptance criteria must cover every registered suite at least
    # once, aside from the base algebra self-checks
    covered = {"worked-example", "tau-table", "jacobi", "delta-squared",
               "leibniz", "chart-change", "module-rule", "square-formula",
               "ber-root", "covariance", "intertwining", "divergence",
               "darboux", "flows", "moser", "surface", "invariant-constant",
               "shift-routes", "superalgebra"}
    assert covered == set(SUITES)


def test_supporting_suites():
    _run(["superalgebra", "shift-routes"],
         "supporting: ring laws, shift routes, homotopy, round trips")


def test_value_pin_sees_a_changed_fixture(monkeypatch):
    """Identity maps keep every ber-root residual at zero, so the report
    lines stay the same; the values returned along the way do not."""
    monkeypatch.setattr(verify, "random_canonical_map",
                        lambda rng, chart: SuperMap.identity(chart))
    with pytest.raises(AssertionError) as failed:
        _run(["ber-root"], "mutation: identity canonical maps")
    assert str(failed.value).splitlines()[0] == \
        "ber-root: values differ from the seed-0 run"
    assert "report lines differ" not in str(failed.value)
