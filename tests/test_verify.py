"""The sampling driver behind the verify suites, and the suite contract.

``perfbench/workloads.py`` reads each suite's ``seed`` default through
``inspect.signature`` and offsets it per benchmark seed, so every suite
must keep an ``int`` ``seed`` keyword.
"""

import inspect

import oddsym.bv as bv
import oddsym.verify as verify
from oddsym.grammar import parse_expr
from oddsym.superexpr import SuperExpr
from oddsym.symbols import standard_table


def test_sampled_reports_first_failing_residual():
    table = standard_table(1)
    zero = SuperExpr.zero(table)
    script = iter([zero, parse_expr("x1*th1", table), "",
                   [zero, parse_expr("th1", table)]])
    check = verify._sampled("scripted", 7, 4, lambda: next(script))
    assert check == verify.Check(
        "scripted", False, "2 failing residuals; seed 7, sample 1: x1*th1")


def test_sampled_reports_messages_and_runs_every_sample():
    calls = []

    def sample():
        calls.append(len(calls))
        return "c = 4" if len(calls) in (2, 3) else ""

    check = verify._sampled("messages", 3, 5, sample)
    assert calls == [0, 1, 2, 3, 4]
    assert check.detail == "2 failing residuals; seed 3, sample 1: c = 4"
    zero = SuperExpr.zero(standard_table(1))
    assert verify._sampled("clean", 3, 4, lambda: [zero, ""]) == \
        verify.Check("clean", True, "")


def test_failing_flow_check_leaves_later_checks_alone(monkeypatch):
    real = verify.hamiltonian_from_adjusted

    def wrong(fmap):
        q = real(fmap)
        return q + SuperExpr.symbol(q.table, "th1")

    monkeypatch.setattr(verify, "hamiltonian_from_adjusted", wrong)
    checks = {c.label: c for c in verify.suite_flows()}
    round_trip = checks["flow-round-trip[20 generators]"]
    assert not round_trip.ok
    assert round_trip.detail == \
        "20 failing residuals; seed 13, sample 0: th1"
    assert checks["flow-canonical[t in 1/2,1,2]"].ok
    assert checks["flow-group-law[6 generators]"].ok


def test_leibniz_sample_takes_one_delta_vol_per_part(monkeypatch):
    """One leibniz sample takes delta_vol of the even and odd parts of f
    and of g once each (4) and of each pair's bracket and product (8)."""
    real = bv.delta_vol
    calls = []

    def counted(f, dv):
        calls.append(f)
        return real(f, dv)

    monkeypatch.setattr(bv, "delta_vol", counted)
    monkeypatch.setattr(verify, "delta_vol", counted)
    monkeypatch.setattr(verify, "_sampled",
                        lambda label, seed, count, sample: sample())
    [residuals] = verify.suite_leibniz()
    assert len(residuals) == 8 and not any(residuals)
    assert len(calls) == 12


def test_tau_table_grid_failure_names_the_mask(monkeypatch):
    real = verify.tau_sharp

    def wrong(w):
        s = real(w)
        chart = w.chart
        if chart.n != 3:
            return s
        xi2 = SuperExpr.symbol(chart.table, verify.chart_frames(chart)[1])
        if w.expr != xi2:  # mask 0b010 of n = 3
            return s
        return verify.Semidensity(s.coefficient + 1, chart)

    monkeypatch.setattr(verify, "tau_sharp", wrong)
    checks = {c.label: c for c in verify.suite_tau_table()}
    assert checks["table-grid-n3"] == verify.Check(
        "table-grid-n3", False, "1 failing residuals; seed 17, sample 2: 1")
    assert all(c.ok for label, c in checks.items()
               if label != "table-grid-n3")


def test_every_suite_takes_an_int_seed_keyword():
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD,
               inspect.Parameter.KEYWORD_ONLY)
    for name, fn in verify.SUITES.items():
        param = inspect.signature(fn).parameters.get("seed")
        assert param is not None and param.kind in keyword, name
        assert type(param.default) is int, name
