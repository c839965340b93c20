import codecs
import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

import oddsym.cli as cli
import oddsym.darboux as darboux
import oddsym.scalars as scalars
import oddsym.verify as verify
from oddsym.grammar import render_expr
from oddsym.manifests import load_manifest
from oddsym.superexpr import SuperExpr
from oddsym.symplectic import (OddSymplecticStructure, ResidualReport,
                               SuperMap)
from test_properties import refuse_sympy_gcds

DATA = os.path.join(os.path.dirname(__file__), "data")
EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "expected.json")


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_darboux_n1_golden(capsys):
    code, out, _ = run_cli(
        ["darboux", "--manifest", os.path.join(DATA, "n1_rescale.json")],
        capsys)
    assert code == 0
    assert out == (
        "step0[F1].x1: x1\n"
        "step0[F1].th1: 1/(x1 + 1)*th1\n"
        "composite.x1: x1\n"
        "composite.th1: 1/(x1 + 1)*th1\n"
        "residuals: all zero\n")


def test_darboux_nonzero_residual_exits_one(monkeypatch, capsys):
    # a composite that fails the bracket check is a failed residual: exit
    # 1 with the residual shown, not an input error
    def failing(fmap, omega=None):
        th1 = SuperExpr.symbol(fmap.source.table, "th1")
        return ResidualReport({("x1", "x1"): th1})

    monkeypatch.setattr(darboux, "is_canonical", failing)
    code, out, err = run_cli(
        ["darboux", "--manifest", os.path.join(DATA, "n1_rescale.json")],
        capsys)
    assert code == 1
    assert out.endswith("residual('x1', 'x1'): th1\nresiduals: NONZERO\n")
    assert err == ""


def test_tau_sharp_worked_example_golden(capsys):
    path = os.path.join(DATA, "worked_example.json")
    code, out, _ = run_cli(["tau-sharp", "--manifest", path], capsys)
    assert code == 0
    assert out == "coefficient: 1 + b2*th0*th1 - b1*th0*th2 + b0*th1*th2\n"
    code, out, _ = run_cli(["pullback-surface", "--manifest", path], capsys)
    assert code == 0
    assert out == "coefficient: b2*th1 - b1*th2\n"
    code, out, _ = run_cli(["tau-sharp-inv", "--manifest", path], capsys)
    assert code == 0
    assert out == "form: b0*dx0 + b1*dx1 + b2*dx2 - dx0^dx1^dx2\n"


def test_bracket_and_delta0_golden(capsys):
    path = os.path.join(DATA, "bracket.json")
    code, out, _ = run_cli(["bracket", "--manifest", path], capsys)
    assert code == 0 and out == "bracket: th2\n"
    code, out, _ = run_cli(["delta0", "--manifest", path], capsys)
    assert code == 0 and out == "delta0: -x1*th1 + x2*th2\n"


def test_flow_command(capsys):
    path = os.path.join(DATA, "bracket.json")
    code, out, _ = run_cli(["flow", "--manifest", path], capsys)
    assert code == 0
    assert out == (
        "x1: x1 - 1/2*x1*th2*b1\n"
        "x2: x2 + 1/2*x1*th1*b1\n"
        "th1: th1 + 1/2*th1*th2*b1\n"
        "th2: th2\n"
        "canonical: yes\n")


def test_flow_with_time_in_denominator_exit_two(tmp_path, capsys):
    doc = {
        "charts": {"plane": {"n": 2, "even": ["x1", "x2", "t"],
                             "odd": ["th1", "th2"], "aux": ["b1"]}},
        "flow": {"chart": "plane", "Q": "th1*th2*b1/(1 + t)"},
    }
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["flow", "--manifest", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: denominator depends on t\n"


def test_hamiltonian_from_map_between_two_charts(tmp_path, capsys):
    # source and target charts have their own symbol tables; canonicity
    # is checked on the source table alone
    doc = {
        "charts": {"a": {"n": 1}, "b": {"n": 1}},
        "maps": {"f": {"source": "a", "target": "b",
                       "targets": ["x1", "th1"]}},
        "hamiltonian_from_map": {"map": "f"},
    }
    path = tmp_path / "two_charts.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["hamiltonian-from-map", "--manifest", str(path)], capsys)
    assert (code, out, err) == (0, "generator: 0\nround_trip: exact\n", "")


def test_reports_are_deterministic(capsys):
    path = os.path.join(DATA, "worked_example.json")
    first = run_cli(["tau-sharp", "--manifest", path], capsys)
    second = run_cli(["tau-sharp", "--manifest", path], capsys)
    assert first == second


def test_json_report(capsys):
    path = os.path.join(DATA, "bracket.json")
    code, out, _ = run_cli(["bracket", "--manifest", path, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "bracket"
    assert payload["results"] == [{"label": "bracket", "value": "th2"}]
    assert payload["ok"] is None


def test_out_file(tmp_path, capsys):
    path = os.path.join(DATA, "bracket.json")
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        ["bracket", "--manifest", path, "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "bracket: th2\n"


def test_verify_suite_exit_zero(capsys):
    code, out, _ = run_cli(["verify", "--suite", "tau-table"], capsys)
    assert code == 0
    assert out.endswith("verify: pass\n")
    for line in out.splitlines()[:-1]:
        assert ": ok" in line


def test_verify_failure_exit_one(monkeypatch, capsys):
    def broken():
        return [verify.Check("forced", False, "synthetic failure")]

    monkeypatch.setitem(verify.SUITES, "tau-table", broken)
    code, out, _ = run_cli(["verify", "--suite", "tau-table"], capsys)
    assert code == 1
    assert "FAIL synthetic failure" in out
    assert out.endswith("verify: fail\n")


def test_crashing_suite_reported_as_failure(monkeypatch, capsys):
    def crashing():
        raise KeyError("missing fixture")

    monkeypatch.setattr(cli, "SUITES", {
        "crash": crashing, "tau-table": verify.SUITES["tau-table"]})
    code, out, err = run_cli(["verify"], capsys)
    assert code == 1
    assert "crash.error: FAIL KeyError: 'missing fixture'\n" in out
    assert "tau-table." in out  # the suite after the crash still ran
    assert out.endswith("verify: fail\n")
    assert "Traceback" in err
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "nope"])
    assert info.value.code == 2


def test_solve_r_failure_reported(monkeypatch, capsys):
    def failing_solve_r(E, F, table):
        raise verify.CanonicityError("series solution failed the residual")

    monkeypatch.setattr(verify, "solve_R", failing_solve_r)
    code, out, _ = run_cli(["verify", "--suite", "darboux"], capsys)
    assert code == 1
    assert ("darboux.solve-R-residual[10 samples]: FAIL 10 failing "
            "residuals; seed 12, sample 0: series solution failed the "
            "residual\n") in out
    assert out.endswith("verify: fail\n")


def test_failing_sample_named_in_verify_line(monkeypatch, capsys):
    real = verify.jacobi_residual
    calls = []

    def jacobi_with_defect(f, g, h, chart):
        calls.append(None)
        res = real(f, g, h, chart)
        if len(calls) == 7:  # sample 3, its first residual
            res = res + verify.SuperExpr.symbol(chart.table, "th1")
        return res

    monkeypatch.setattr(verify, "jacobi_residual", jacobi_with_defect)
    code, out, _ = run_cli(["verify", "--suite", "jacobi"], capsys)
    assert code == 1
    assert out == ("jacobi.jacobi-identity[200 samples]: FAIL 1 failing "
                   "residuals; seed 1, sample 3: th1\n"
                   "verify: fail\n")


def test_bad_manifest_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(
        ["bracket", "--manifest", str(bad)], capsys)
    assert code == 2
    assert "error:" in err


def test_manifest_not_utf8_exit_two(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"charts": {"c": {"n": 1, "even": ["x\xff"]}}}')
    code, out, err = run_cli(["bracket", "--manifest", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: manifest is not valid UTF-8: ")
    assert "0xff" in err


def test_manifest_with_bom_exit_two(tmp_path, capsys):
    # a byte order mark is not JSON: the manifest is decoded as plain
    # UTF-8, never sniffed for another encoding
    with open(os.path.join(DATA, "bracket.json"), "rb") as handle:
        data = handle.read()
    bom = tmp_path / "bom.json"
    bom.write_bytes(codecs.BOM_UTF8 + data)
    code, out, err = run_cli(["bracket", "--manifest", str(bom)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: manifest is not valid JSON: ")


def test_integer_past_the_digit_limit_exit_two(tmp_path, capsys):
    # json.loads refuses a 5,000-digit integer with a plain ValueError
    path = tmp_path / "digits.json"
    path.write_text('{"charts": {"c": {"n": 1}}, "bracket": {"chart": "c", '
                    '"f": ' + "7" * 5000 + ', "g": "th1"}}')
    code, out, err = run_cli(["bracket", "--manifest", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: manifest is not valid JSON: ")


def test_nesting_past_the_recursion_limit_exit_two(tmp_path, capsys):
    # json.loads gives up on 100,000 nested arrays with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"bracket": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(["bracket", "--manifest", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: manifest is not valid JSON: ")
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("count", [1001, 100_000])
@pytest.mark.parametrize("key", ["even", "aux"])
def test_long_chart_name_list_exit_two(tmp_path, capsys, key, count):
    # a name list is refused by its length, before any name is read
    path = tmp_path / "names.json"
    path.write_text(json.dumps({
        "charts": {"c": {"n": 1, key: [f"y{i}" for i in range(count)]}},
        "bracket": {"chart": "c", "f": "th1", "g": "th1"}}))
    start = time.perf_counter()
    code, out, err = run_cli(["bracket", "--manifest", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.endswith(f"chart '{key}' lists more than 1000 names\n")
    assert len(err.encode()) < 200


def _bracket_of(tmp_path, capsys, text):
    doc = {
        "charts": {"c": {"n": 1, "even": ["x1"], "odd": ["th1"]}},
        "bracket": {"chart": "c", "f": text, "g": "th1"},
    }
    bad = tmp_path / "expr.json"
    bad.write_text(json.dumps(doc))
    return run_cli(["bracket", "--manifest", str(bad)], capsys)


def test_bad_expression_exit_two(tmp_path, capsys):
    code, out, err = _bracket_of(tmp_path, capsys, "x1 +* 2")
    assert code == 2
    assert "error:" in err


def test_parse_errors_quote_tokens_cut(tmp_path, capsys):
    # a token is quoted cut to 60 characters, as the expression is
    name = "y" * 5000
    cut = "'" + "y" * 56 + "..."
    for text, message in (
            ("x1 + " + name, f"unknown symbol {cut} (line 1, column 6)"),
            ("x1 " + name, f"unexpected token {cut} (line 1, column 4)"),
            ("x1 " + "9" * 4000,
             f"unexpected token {'9' * 57}... (line 1, column 4)")):
        code, out, err = _bracket_of(tmp_path, capsys, text)
        assert (code, out) == (2, "")
        assert err.endswith(f": {message}\n") and len(err) < 200
    code, out, err = _bracket_of(tmp_path, capsys, "x1 + y1")
    assert (code, out) == (2, "")
    assert err == ("error: bad expression 'x1 + y1': unknown symbol 'y1' "
                   "(line 1, column 6)\n")
    code, out, err = _bracket_of(tmp_path, capsys, "x1 y1")
    assert err == ("error: bad expression 'x1 y1': unexpected token 'y1' "
                   "(line 1, column 4)\n")


def test_deep_nesting_exit_two(tmp_path, capsys):
    text = "(" * 3000 + "x1" + ")" * 3000
    code, out, err = _bracket_of(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error:") and "nesting deeper than 100" in err


def test_exponent_cap_exit_two(tmp_path, capsys):
    code, out, _ = _bracket_of(tmp_path, capsys, "x1^100")
    assert code == 0 and out == "bracket: 100*x1^99\n"
    code, out, err = _bracket_of(tmp_path, capsys, "x1^101")
    assert code == 2
    assert err.startswith("error:") and "exponent larger than 100" in err


def _delta0_of(tmp_path, capsys, n, text):
    xs = [f"x{i}" for i in range(1, n + 1)]
    doc = {
        "charts": {"c": {"n": n, "even": xs,
                         "odd": [f"th{i}" for i in range(1, n + 1)]}},
        "delta0": {"chart": "c", "f": text},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(["delta0", "--manifest", str(path)], capsys)
    return code, err, time.perf_counter() - start


def test_power_of_a_power_exit_two(tmp_path, capsys):
    # the outer power would hold about 5 * 10^7 monomials: it is refused
    # once the inner one, 5151 monomials, is built
    code, err, elapsed = _delta0_of(tmp_path, capsys, 3,
                                    "((x1 + x2 + x3)^100)^100")
    assert code == 2
    assert err.startswith("error:") and \
        "result would exceed 10000 coefficient monomials" in err
    assert elapsed < 30


def test_sparse_power_under_the_cap_exit_zero(tmp_path, capsys):
    # 496 monomials: a power holds at most C(m + k - 1, k) of them, one
    # for each multiset of k of the base's m monomials
    code, err, _ = _delta0_of(tmp_path, capsys, 3, "(x1*x2 + x3 + 2)^30")
    assert code == 0 and err == ""


def test_rational_term_power_under_the_cap_exit_zero(tmp_path, capsys):
    # 862 monomials: p^k/q^k holds at most C(m_p + k - 1, k) of them in
    # its numerator and C(m_q + k - 1, k) in its denominator
    code, err, _ = _delta0_of(tmp_path, capsys, 3, "(1/(x1 + x2 + x3))^40")
    assert code == 0 and err == ""


def test_quotient_of_large_powers_exit_two(tmp_path, capsys):
    # each power holds 1771 monomials; a quotient is bounded as the
    # product of its operands, and the gcd of these two took over a second
    code, err, elapsed = _delta0_of(
        tmp_path, capsys, 3, "(x1 + x2 + x3 + 1)^20/(x1 + x2 + x3 + 2)^20")
    assert code == 2
    assert "result would exceed 10000 coefficient monomials" in err
    assert "column 22" in err  # the '/'
    assert elapsed < 1


def test_small_quotients_exit_zero(tmp_path, capsys):
    for text in ("th1/(1 + x1)", "(1/(x1 + x2 + x3))^40"):
        code, err, _ = _delta0_of(tmp_path, capsys, 3, text)
        assert (code, err) == (0, ""), text


def test_product_of_capped_powers_exit_two(tmp_path, capsys):
    # each factor holds 3003 monomials, the product of two 53130
    power = "(x1 + x2 + x3 + x4 + x5 + x6)^10"
    code, err, elapsed = _delta0_of(tmp_path, capsys, 6,
                                    " * ".join([power] * 4))
    assert code == 2
    assert "result would exceed 10000 coefficient monomials" in err
    assert "column 34" in err  # the first '*': no later factor is built
    assert elapsed < 30


def test_missing_section_key_exit_two(tmp_path, capsys):
    doc = {
        "charts": {"c": {"n": 1, "even": ["x1"], "odd": ["th1"]}},
        "bracket": {"chart": "c", "f": "x1"},
    }
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["bracket", "--manifest", str(path)], capsys)
    assert code == 2
    assert err == "error: 'bracket' section has no 'g' entry\n"


def test_internal_key_error_is_not_input_error(monkeypatch):
    def broken(f, chart):
        raise KeyError("internal bug")

    monkeypatch.setattr(cli, "delta0", broken)
    with pytest.raises(KeyError, match="internal bug"):
        cli.main(["delta0", "--manifest", os.path.join(DATA, "bracket.json")])


def test_unknown_reference_exit_two(tmp_path, capsys):
    doc = {"darboux": {"structure": "nope"}}
    bad = tmp_path / "ref.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["darboux", "--manifest", str(bad)], capsys)
    assert code == 2


def test_forms_declared_by_n_share_a_chart(tmp_path, capsys):
    # two forms declared with the same "n" are on one standard chart, the
    # same as when both name an explicit chart
    forms = {"a": {"n": 1, "expr": "4*xi1"}, "b": {"n": 1, "expr": "xi1"}}
    named = {"charts": {"c": {"n": 1}},
             "forms": {name: {"chart": "c", "expr": form["expr"]}
                       for name, form in forms.items()}}
    outputs = []
    for doc in ({"forms": forms}, named):
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(dict(doc, star={"w1": "a", "w2": "b"})))
        outputs.append(run_cli(["star", "--manifest", str(path)], capsys))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


OPERATOR_OUTPUTS = {
    "delta-vol": "delta_vol: th1*th2\n",
    "delta-sharp": "delta_sharp: th2\n",
    "berezinian": "berezinian: 4\n",
    "shift": "coefficient: th1*th2 + th1*b2 - th2*b1 + b1*b2\n",
    "star": "form: -2*dx1^dx2\n",
    "dual-density": "coefficient: x1*th1\n",
    "densities-p": "P0: 1\nP1: -x1*th1\n",
}
HAMILTONIAN_OUTPUT = "generator: x1*th1*th2*b1\nround_trip: exact\n"


def test_operator_commands_golden(capsys):
    path = os.path.join(DATA, "operators.json")
    for command, want in OPERATOR_OUTPUTS.items():
        code, out, _ = run_cli([command, "--manifest", path], capsys)
        assert code == 0, command
        assert out == want, command


def test_hamiltonian_from_map_command(capsys):
    path = os.path.join(DATA, "operators.json")
    code, out, _ = run_cli(["hamiltonian-from-map", "--manifest", path],
                           capsys)
    assert code == 0
    assert out == HAMILTONIAN_OUTPUT


@pytest.mark.parametrize("argv, option", [
    (["bracket", "--manifest", os.path.join(DATA, "bracket.json"),
      "--suite", "jacobi"], "--suite jacobi"),
    (["verify", "--manifest", os.path.join(DATA, "bracket.json")],
     "--manifest " + os.path.join(DATA, "bracket.json"))],
    ids=["suite-on-bracket", "manifest-on-verify"])
def test_option_the_command_does_not_take_exit_two(argv, option, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: oddsym ")
    assert captured.err.endswith(f"error: unrecognized arguments: {option}\n")


def test_manifest_maps_read_no_body_inverse(tmp_path, capsys):
    # operators.json gives its stretch map a body_inverse; without one, or
    # with one no map could have, every command prints the same
    with open(os.path.join(DATA, "operators.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    requests = dict(OPERATOR_OUTPUTS,
                    **{"hamiltonian-from-map": HAMILTONIAN_OUTPUT})
    path = tmp_path / "operators.json"
    for body_inverse in (None, ["th1", "x2"]):
        doc["maps"]["stretch"].pop("body_inverse", None)
        if body_inverse is not None:
            doc["maps"]["stretch"]["body_inverse"] = body_inverse
        path.write_text(json.dumps(doc))
        for command, want in requests.items():
            code, out, _ = run_cli([command, "--manifest", str(path)], capsys)
            assert (code, out) == (0, want), command


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "oddsym.cli", "delta0", "--manifest",
         os.path.join(DATA, "bracket.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "delta0: -x1*th1 + x2*th2\n"


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "oddsym", "verify", "--suite", "tau-table"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.endswith("verify: pass\n")


# rational.json has rational-function coefficients throughout, in the
# shape of the benchmark's generated manifests; one golden per command
RATIONAL_COMMANDS = ("bracket", "delta0", "delta-vol", "flow", "berezinian",
                     "darboux")


GOLDEN_REQUESTS = [
    ("darboux", "n1_rescale.json", "n1_rescale.golden"),
    ("tau-sharp", "worked_example.json", "worked_example_tau_sharp.golden"),
    ("densities-p", "operators.json", "operators_densities_p.golden"),
] + [(command, "rational.json", f"rational_{command}.golden")
     for command in RATIONAL_COMMANDS]


def _golden(name):
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("command,manifest,golden", GOLDEN_REQUESTS)
def test_golden_files(command, manifest, golden, capsys):
    code, out, _ = run_cli(
        [command, "--manifest", os.path.join(DATA, manifest)], capsys)
    assert code == 0
    assert out == _golden(golden)


def test_committed_requests_take_no_sympy_gcd(capsys):
    # the benchmark's committed requests (the outputs it expects, or their
    # goldens) and every rational.json golden, with each sympy gcd routine
    # refused: the polynomial gcds are oddsym's own
    with open(EXPECTED, encoding="utf-8") as fh:
        requests = [(*request.split(), want)
                    for request, want in json.load(fh)["cli"].items()]
    requests += [(command, manifest, _golden(golden))
                 for command, manifest, golden in GOLDEN_REQUESTS]
    assert len(requests) == 12 + 3 + len(RATIONAL_COMMANDS)
    with refuse_sympy_gcds():
        for command, manifest, want in requests:
            code, out, _ = run_cli(
                [command, "--manifest", os.path.join(DATA, manifest)], capsys)
            assert (code, out) == (0, want), f"{command} {manifest}"


def test_rational_requests_take_no_gcd_with_a_unit_side(capsys,
                                                        monkeypatch):
    # a side of +-1 cancels nothing, so the kernel takes no polynomial gcd
    # with one on any rational.json request
    real, calls = scalars._gcd, []

    def checked(ring, p, q):
        units = ({ring.zero_monom: 1}, {ring.zero_monom: -1})
        assert p not in units and q not in units, "a gcd with a unit side"
        calls.append(1)
        return real(ring, p, q)

    monkeypatch.setattr(scalars, "_gcd", checked)
    for command in RATIONAL_COMMANDS:
        code, out, _ = run_cli(
            [command, "--manifest", os.path.join(DATA, "rational.json")],
            capsys)
        assert (code, out) == (0, _golden(f"rational_{command}.golden")), \
            command
    assert calls


def test_verify_json_deterministic(capsys):
    first = run_cli(["verify", "--suite", "darboux", "--json"], capsys)
    second = run_cli(["verify", "--suite", "darboux", "--json"], capsys)
    assert first == second
    assert first[0] == 0


def test_unwritable_out_exit_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(
        ["bracket", "--manifest", os.path.join(DATA, "bracket.json"),
         "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write report: ")
    assert str(target) in err


def _bracket_manifest(tmp_path, capsys, **changes):
    doc = {
        "charts": {"c": {"n": 1, "even": ["x1"], "odd": ["th1"]}},
        "bracket": {"chart": "c", "f": "x1", "g": "th1"},
    }
    doc.update(changes)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    return run_cli(["bracket", "--manifest", str(path)], capsys)


def test_pool_that_is_not_an_object_exit_two(tmp_path, capsys):
    code, out, err = _bracket_manifest(tmp_path, capsys, charts=[])
    assert (code, out) == (2, "")
    assert err == "error: 'charts' must be an object\n"


def test_chart_n_not_a_positive_int_exit_two(tmp_path, capsys):
    for n in ("2", 0, True, 1.0):
        code, out, err = _bracket_manifest(
            tmp_path, capsys, charts={"c": {"n": n}})
        assert (code, out) == (2, ""), n
        assert err == "error: chart 'n' must be a positive integer\n"


def test_expression_not_a_string_exit_two(tmp_path, capsys):
    # a long value is quoted cut to 60 characters
    for f, quoted in ((5, "5"), ([1] * 3000, "[1" + ", 1" * 18 + ",...")):
        code, out, err = _bracket_manifest(
            tmp_path, capsys, bracket={"chart": "c", "f": f, "g": "th1"})
        assert (code, out) == (2, "")
        assert err == f"error: expression {quoted} is not a string\n"


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = os.path.join(DATA, "bracket.json")
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(["bracket", "--manifest", path, "--json"], capsys)
    assert code == 0 and json.loads(out)["command"] == "bracket"
    code, out, _ = run_cli(["bracket", "--manifest", path], capsys)
    assert (code, out) == (0, "bracket: th2\n")
    code, out, _ = run_cli(
        ["bracket", "--manifest", path, "--out", str(target)], capsys)
    assert (code, out) == (0, "")
    target.unlink()
    code, out, _ = run_cli(["delta0", "--manifest", path], capsys)
    assert (code, out) == (0, "delta0: -x1*th1 + x2*th2\n")
    assert not target.exists()


def test_suite_choices_follow_patched_suites(monkeypatch, capsys):
    monkeypatch.setattr(cli, "SUITES", {
        "crash": lambda: [verify.Check("forced", True, "")]})
    code, out, _ = run_cli(["verify", "--suite", "crash"], capsys)
    assert (code, out) == (0, "crash.forced: ok\nverify: pass\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "nope"])
    assert info.value.code == 2
    assert "invalid choice: 'nope' (choose from 'crash')" in \
        capsys.readouterr().err
    monkeypatch.undo()
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "crash"])
    assert info.value.code == 2


def test_names_of_the_wrong_type_exit_two(tmp_path, capsys):
    code, _, err = _bracket_manifest(
        tmp_path, capsys, charts={"c": {"n": 1, "even": 5}})
    assert (code, err) == (2, "error: chart 'even' must be a list of names\n")
    code, _, err = _bracket_manifest(
        tmp_path, capsys, bracket={"chart": ["c"], "f": "x1", "g": "th1"})
    assert (code, err) == (2, "error: unknown chart ['c']\n")
    path = tmp_path / "darboux.json"
    path.write_text(json.dumps({"darboux": {"structure": []}}))
    code, _, err = run_cli(["darboux", "--manifest", str(path)], capsys)
    assert (code, err) == (2, "error: unknown structure []\n")


def test_pool_entries_are_named_in_the_singular(tmp_path, capsys):
    plane = {"n": 1, "even": ["x1"], "odd": ["th1"]}
    cases = [
        ({"charts": {"c": plane},
          "delta_sharp": {"semidensity": "nope"}}, "delta-sharp",
         "unknown semidensity 'nope'"),
        ({"semidensities": {"bad": 1}}, "bracket",
         "semidensity 'bad' must be an object"),
        ({"volume_forms": {"v": []}}, "bracket",
         "volume form 'v' must be an object"),
        ({"charts": {"c": plane},
          "delta_vol": {"volume": "v", "f": "x1"}}, "delta-vol",
         "unknown volume form 'v'"),
        ({"charts": {"c": plane}, "berezinian": {"map": "m"}},
         "berezinian", "unknown map 'm'"),
        ({"charts": {"c": plane}, "shift": {"form": "w", "semidensity": "s"}},
         "shift", "unknown form 'w'"),
    ]
    for doc, command, message in cases:
        path = tmp_path / "pools.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, "--manifest", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), command


def test_rational_two_form_potential_exit_two(tmp_path, capsys):
    # F = b1/(1 + x1) is closed but not polynomial: its radial integral
    # refuses it
    doc = {
        "charts": {"c": {"n": 2, "even": ["x1", "x2"], "odd": ["th1", "th2"],
                         "aux": ["b1"]}},
        "structures": {"s": {"chart": "c", "bracket": [
            ["0", "0", "1", "0"], ["0", "0", "0", "1"],
            ["-1", "0", "0", "b1/(1 + x1)"], ["0", "-1", "-b1/(1 + x1)", "0"]]}},
        "darboux": {"structure": "s"},
    }
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["darboux", "--manifest", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: radial integral needs a polynomial\n"


def _render(value):
    """Every field of a manifest object, rendered; memoized values that
    are not fields (a volume form's inverse, say) are left out."""
    if isinstance(value, SuperExpr):
        return render_expr(value)
    if isinstance(value, (tuple, list)):
        return [_render(item) for item in value]
    if isinstance(value, dict):
        return {key: _render(item) for key, item in value.items()}
    if isinstance(value, (SuperMap, OddSymplecticStructure)):
        return _render(vars(value))
    if dataclasses.is_dataclass(value):
        return {field.name: _render(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    return repr(value)


def _render_manifest(manifest):
    pools = ("charts", "structures", "maps", "volume_forms",
             "semidensities", "forms", "surfaces")
    rendered = {pool: _render(getattr(manifest, pool)) for pool in pools}
    rendered["raw"] = json.dumps(manifest.raw, sort_keys=True)
    return rendered


def _golden(name):
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("manifest", ["operators.json", "rational.json"])
def test_commands_leave_cached_manifest_unchanged(manifest, capsys):
    # load_manifest hands the same Manifest to every request on the same
    # bytes, so no command may change it
    if manifest == "operators.json":
        requests = dict(OPERATOR_OUTPUTS,
                        **{"hamiltonian-from-map": HAMILTONIAN_OUTPUT})
    else:
        requests = {command: _golden(f"rational_{command}.golden")
                    for command in RATIONAL_COMMANDS}
    path = os.path.join(DATA, manifest)
    cached = load_manifest(path)
    before = _render_manifest(cached)
    for command in list(requests) + list(reversed(requests)):
        code, out, _ = run_cli([command, "--manifest", path], capsys)
        assert (code, out) == (0, requests[command]), command
    assert load_manifest(path) is cached
    assert _render_manifest(cached) == before


@pytest.mark.parametrize("other, rows", [
    ({"n": 2, "even": ["x1", "x2"], "odd": ["th1", "th2"]},
     [["0", "0", "1", "0"], ["0", "0", "0", "1"],
      ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]]),
    ({"n": 1, "even": ["x1"], "odd": ["th1"]}, [["0", "1"], ["-1", "0"]])],
    ids=["n2", "n1"])
def test_structure_on_another_chart_exit_two(tmp_path, capsys, other, rows):
    code, out, err = _bracket_manifest(
        tmp_path, capsys,
        charts={"c": {"n": 1, "even": ["x1"], "odd": ["th1"]}, "d": other},
        structures={"s": {"chart": "d", "bracket": rows}},
        bracket={"chart": "c", "f": "x1", "g": "th1", "structure": "s"})
    assert (code, out) == (2, "")
    assert err == "error: structure 's' is not on chart 'c'\n"


@pytest.mark.parametrize("command, pool, name, message", [
    ("shift", "semidensities", "shiftable",
     "form 'one_form' is not on the chart of semidensity 'shiftable'"),
    ("star", "forms", "w1", "form 'w1' is not on the chart of form 'w4'"),
    ("dual-density", "surfaces", "C",
     "surface 'C' is not on the chart of volume form 'squared'"),
    ("densities-p", "surfaces", "C",
     "surface 'C' is not on the chart of volume form 'squared'")])
def test_objects_on_two_charts_named_exit_two(tmp_path, capsys, command,
                                              pool, name, message):
    # the object moves to "twin", a second chart with the same definition
    with open(os.path.join(DATA, "operators.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    entry = doc[pool][name]
    doc["charts"]["twin"] = doc["charts"][entry["chart"]]
    entry["chart"] = "twin"
    path = tmp_path / "two_charts.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--manifest", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text", ["2³", "x1^²", "9" * 5000],
                         ids=["superscript", "superscript-exponent",
                              "5000-digits"])
def test_integer_literal_int_refuses_exit_two(tmp_path, capsys, text):
    code, out, err = _bracket_of(tmp_path, capsys, text)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "line 1, column" in err


# a text of 58 characters has a 60-character repr, the longest quoted whole
@pytest.mark.parametrize("text, quoted, fault", [
    ("x1 +* 2", "'x1 +* 2'", "unexpected token '*' (line 1, column 5)"),
    ("x1 +* " + "2" * 52, "'x1 +* " + "2" * 52 + "'",
     "unexpected token '*' (line 1, column 5)"),
    ("x1 +* " + "2" * 53, "'x1 +* " + "2" * 50 + "...",
     "unexpected token '*' (line 1, column 5)"),
    ("9" * 5000, "'" + "9" * 56 + "...",
     "invalid integer literal (line 1, column 1)")],
    ids=["short", "longest-whole", "cut", "5000-digits"])
def test_bad_expression_quote_is_bounded(tmp_path, capsys, text, quoted,
                                         fault):
    code, out, err = _bracket_of(tmp_path, capsys, text)
    assert (code, out) == (2, "")
    assert err == f"error: bad expression {quoted}: {fault}\n"


LONG = "z" * 5000
LONG_CUT = "'" + "z" * 56 + "..."
N1 = {"n": 1, "even": ["x1"], "odd": ["th1"]}


def _bounded_error(code, out, err, message):
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n" and len(err.encode()) < 200


def test_bad_time_value_quote_is_bounded(tmp_path, capsys):
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({
        "charts": {"c": N1}, "flow": {"chart": "c", "Q": "th1", "t": LONG}}))
    _bounded_error(*run_cli(["flow", "--manifest", str(path)], capsys),
                   f"bad time value {LONG_CUT}")


@pytest.mark.parametrize("t", ["1e10000000", "1e-10000000"])
def test_time_exponent_past_the_digit_limit_exit_two(tmp_path, capsys, t):
    # refused before Fraction builds 10^10,000,000
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({
        "charts": {"c": N1}, "flow": {"chart": "c", "Q": "th1", "t": t}}))
    start = time.perf_counter()
    result = run_cli(["flow", "--manifest", str(path)], capsys)
    assert time.perf_counter() - start < 1
    _bounded_error(*result, f"bad time value {t!r}")


@pytest.mark.parametrize("pools", [
    {"charts": {"c": N1, "big": {"n": 1_000_000}}},
    {"forms": {"w": {"n": 1_000_000, "expr": "xi1"}}}],
    ids=["chart", "form"])
def test_chart_n_past_the_cap_exit_two(tmp_path, capsys, pools):
    start = time.perf_counter()
    result = _bracket_manifest(tmp_path, capsys, **pools)
    assert time.perf_counter() - start < 1
    _bounded_error(*result, "chart 'n' is larger than 1000")


@pytest.mark.parametrize("changes, message", [
    ({"bracket": {"chart": LONG, "f": "x1", "g": "th1"}},
     f"unknown chart {LONG_CUT}"),
    ({"bracket": {"chart": "c", "f": "x1", "g": "th1", "structure": LONG}},
     f"unknown structure {LONG_CUT}")],
    ids=["chart", "structure"])
def test_unknown_name_quote_is_bounded(tmp_path, capsys, changes, message):
    _bounded_error(*_bracket_manifest(tmp_path, capsys, **changes), message)


def test_pool_entry_not_an_object_quote_is_bounded(tmp_path, capsys):
    _bounded_error(*_bracket_manifest(tmp_path, capsys,
                                      charts={"c": N1, LONG: []}),
                   f"chart {LONG_CUT} must be an object")


@pytest.mark.parametrize("key", ["even", "odd", "aux"])
def test_bad_symbol_name_quote_is_bounded(tmp_path, capsys, key):
    chart = {**N1, key: ["!" * 5000]}
    _bounded_error(*_bracket_manifest(tmp_path, capsys, charts={"c": chart}),
                   f"bad symbol name '{'!' * 56}...")


def test_objects_on_two_charts_quote_is_bounded(tmp_path, capsys):
    # a structure and a chart whose names are 5,000 characters long
    code, out, err = _bracket_manifest(
        tmp_path, capsys, charts={LONG: N1, "d": N1},
        structures={LONG: {"chart": "d",
                           "bracket": [["0", "1"], ["-1", "0"]]}},
        bracket={"chart": LONG, "f": "x1", "g": "th1", "structure": LONG})
    _bounded_error(code, out, err,
                   f"structure {LONG_CUT} is not on chart {LONG_CUT}")
