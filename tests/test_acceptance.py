"""Acceptance gate: every criterion at exact (zero-tolerance) equality.

Each test prints one pass/fail line; the detailed sampling lives in the
named verification suites so the command line `oddsym verify` exercises
the identical checks.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from oddsym.cli import cmd_verify
from oddsym.verify import SUITES, worked_example_chart, worked_example_values

# sha256 of each suite's lines in the seed-0 `oddsym verify` report
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
SUITE_SHA256 = json.loads(EXPECTED.read_text(encoding="utf-8"))[
    "verify_seed0"]["suites"]


def _run(names, criterion):
    failures = []
    for name in names:
        lines, _ = cmd_verify(None, argparse.Namespace(suite=name))
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
