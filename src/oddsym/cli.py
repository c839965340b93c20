"""Command line front end.

    oddsym verify [--suite <name>] [--out <path>] [--json]
    oddsym <command> --manifest <path> [--out <path>] [--json]

Each other command reads the manifest section named after it, with "-"
read as "_": ``oddsym delta-vol`` reads ``delta_vol``.

Exit codes: 0 when all residuals are the zero expression (or the command
only computes values), 1 when a residual check fails, 2 on input errors.
Reports are rendered deterministically so golden files stay stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from .bv import delta0, delta_sharp, delta_vol
from .darboux import darboux_pipeline
from .flows import exp_flow, hamiltonian_from_adjusted
from .forms import (one_form_shift, render_form, star, tau_sharp,
                    tau_sharp_inverse)
from .grammar import ParseError, render_expr
from .manifests import ManifestError, load_manifest, parse_time
from .scalars import ScalarError
from .superexpr import ParityError
from .surfaces import densities_P, dual_density, pullback_K
from .symbols import quoted
from .symplectic import (CanonicityError, bracket, is_canonical,
                         map_berezinian)
from .verify import SUITES

_INPUT_ERRORS = (ManifestError, ParseError, ParityError, ScalarError,
                 CanonicityError, ValueError)


def _structure_arg(manifest, entry):
    name = entry.get("structure", "canonical")
    if name == "canonical":
        return None
    return manifest.named("structures", name)


def _same_chart(chart, other, what, where):
    """Refuse the manifest object ``what``, on ``other``, unless that is
    ``chart``, the chart that ``where`` names."""
    if other != chart:
        raise ManifestError(f"{what} is not on {where}")


def cmd_bracket(manifest, entry):
    chart = manifest.named("charts", entry["chart"])
    f = manifest.parse(chart, entry["f"])
    g = manifest.parse(chart, entry["g"])
    omega = _structure_arg(manifest, entry)
    if omega is not None:
        _same_chart(chart, omega.chart,
                    f"structure {quoted(entry['structure'])}",
                    f"chart {quoted(entry['chart'])}")
    out = bracket(f, g, chart, omega)
    return [("bracket", render_expr(out))], None


def cmd_delta0(manifest, entry):
    chart = manifest.named("charts", entry["chart"])
    f = manifest.parse(chart, entry["f"])
    return [("delta0", render_expr(delta0(f, chart)))], None


def cmd_delta_vol(manifest, entry):
    dv = manifest.named("volume_forms", entry["volume"])
    f = manifest.parse(dv.chart, entry["f"])
    return [("delta_vol", render_expr(delta_vol(f, dv)))], None


def cmd_delta_sharp(manifest, entry):
    s = manifest.named("semidensities", entry["semidensity"])
    out = delta_sharp(s)
    return [("delta_sharp", render_expr(out.coefficient))], None


def cmd_berezinian(manifest, entry):
    fmap = manifest.named("maps", entry["map"])
    return [("berezinian", render_expr(map_berezinian(fmap)))], None


def cmd_darboux(manifest, entry):
    omega = manifest.named("structures", entry["structure"])
    result = darboux_pipeline(omega, omega.chart)
    lines = []
    for index, (kind, fmap) in enumerate(result.steps):
        for name, target in zip(omega.chart.coordinate_names, fmap.targets):
            lines.append((f"step{index}[{kind}].{name}",
                          render_expr(target)))
    for name, target in zip(omega.chart.coordinate_names,
                            result.composite.targets):
        lines.append((f"composite.{name}", render_expr(target)))
    bad = result.report.nonzero()
    for key in sorted(bad):
        lines.append((f"residual{key}", render_expr(bad[key])))
    lines.append(("residuals", "all zero" if result.ok else "NONZERO"))
    return lines, result.ok


def cmd_flow(manifest, entry):
    chart = manifest.named("charts", entry["chart"])
    q = manifest.parse(chart, entry["Q"])
    t_value = parse_time(entry.get("t", 1))
    fmap = exp_flow(q, chart, t_value)
    lines = [(name, render_expr(target)) for name, target in
             zip(chart.coordinate_names, fmap.targets)]
    report = is_canonical(fmap)
    bad = report.nonzero()
    for key in sorted(bad):
        lines.append((f"residual{key}", render_expr(bad[key])))
    lines.append(("canonical", "yes" if report.ok else "NO"))
    return lines, report.ok


def cmd_hamiltonian_from_map(manifest, entry):
    fmap = manifest.named("maps", entry["map"])
    # raises CanonicityError unless the unit-time flow of q is fmap
    q = hamiltonian_from_adjusted(fmap)
    return [("generator", render_expr(q)), ("round_trip", "exact")], True


def cmd_tau_sharp(manifest, entry):
    w = manifest.named("forms", entry["form"])
    s = tau_sharp(w)
    return [("coefficient", render_expr(s.coefficient))], None


def cmd_tau_sharp_inv(manifest, entry):
    s = manifest.named("semidensities", entry["semidensity"])
    w = tau_sharp_inverse(s)
    return [("form", render_form(w))], None


def cmd_shift(manifest, entry):
    a = manifest.named("forms", entry["form"])
    s = manifest.named("semidensities", entry["semidensity"])
    _same_chart(s.chart, a.chart, f"form {quoted(entry['form'])}",
                f"the chart of semidensity {quoted(entry['semidensity'])}")
    out = one_form_shift(a, s)
    return [("coefficient", render_expr(out.coefficient))], None


def cmd_star(manifest, entry):
    w1 = manifest.named("forms", entry["w1"])
    w2 = manifest.named("forms", entry["w2"])
    _same_chart(w1.chart, w2.chart, f"form {quoted(entry['w2'])}",
                f"the chart of form {quoted(entry['w1'])}")
    return [("form", render_form(star(w1, w2)))], None


def cmd_pullback_surface(manifest, entry):
    s = manifest.named("semidensities", entry["semidensity"])
    surface = manifest.named("surfaces", entry["surface"])
    _same_chart(s.chart, surface.chart, f"surface {quoted(entry['surface'])}",
                f"the chart of semidensity {quoted(entry['semidensity'])}")
    out = pullback_K(s, surface)
    return [("coefficient", render_expr(out.coefficient))], None


def cmd_dual_density(manifest, entry):
    dv = manifest.named("volume_forms", entry["volume"])
    surface = manifest.named("surfaces", entry["surface"])
    _same_chart(dv.chart, surface.chart,
                f"surface {quoted(entry['surface'])}",
                f"the chart of volume form {quoted(entry['volume'])}")
    f = manifest.parse(dv.chart, entry["f"])
    phi = manifest.parse(dv.chart, entry["phi"])
    out = dual_density(f, phi, dv, surface)
    return [("coefficient", render_expr(out.coefficient))], None


def cmd_densities_p(manifest, entry):
    dv = manifest.named("volume_forms", entry["volume"])
    surface = manifest.named("surfaces", entry["surface"])
    _same_chart(dv.chart, surface.chart,
                f"surface {quoted(entry['surface'])}",
                f"the chart of volume form {quoted(entry['volume'])}")
    p0, p1 = densities_P(dv, surface)
    return [("P0", render_expr(p0)), ("P1", render_expr(p1))], None


def cmd_verify(suite):
    """Run the suite called ``suite``, or every suite when it is None."""
    names = [suite] if suite else sorted(SUITES)
    lines = []
    all_ok = True
    for name in names:
        run = SUITES[name]  # argparse restricts --suite to these names
        try:
            checks = run()
        except Exception as exc:  # a crashing suite is a failure, not input
            traceback.print_exc()
            lines.append((f"{name}.error",
                          f"FAIL {type(exc).__name__}: {exc}"))
            all_ok = False
            continue
        for check in checks:
            status = "ok" if check.ok else "FAIL"
            text = status if not check.detail else f"{status} {check.detail}"
            lines.append((f"{name}.{check.label}", text))
            all_ok = all_ok and check.ok
    lines.append(("verify", "pass" if all_ok else "fail"))
    return lines, all_ok


COMMANDS = {
    "bracket": cmd_bracket,
    "delta0": cmd_delta0,
    "delta-vol": cmd_delta_vol,
    "delta-sharp": cmd_delta_sharp,
    "berezinian": cmd_berezinian,
    "darboux": cmd_darboux,
    "flow": cmd_flow,
    "hamiltonian-from-map": cmd_hamiltonian_from_map,
    "tau-sharp": cmd_tau_sharp,
    "tau-sharp-inv": cmd_tau_sharp_inv,
    "shift": cmd_shift,
    "star": cmd_star,
    "pullback-surface": cmd_pullback_surface,
    "dual-density": cmd_dual_density,
    "densities-p": cmd_densities_p,
    "verify": cmd_verify,
}


@functools.lru_cache(maxsize=1)
def build_parser(suite_names):
    """The parser for ``--suite`` choices ``suite_names`` (a sorted tuple).

    Parsing leaves a parser unchanged, so one per process serves every
    request; a new set of suite names builds a new one.
    """
    parser = argparse.ArgumentParser(
        prog="oddsym",
        description="exact calculus on odd symplectic superspace")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        if name == "verify":
            cmd.add_argument("--suite", default=None, choices=suite_names,
                             help="verification suite name")
        else:
            cmd.add_argument("--manifest", required=True,
                             help="path to the JSON manifest")
        cmd.add_argument("--out", default=None,
                         help="write the report to this file")
        cmd.add_argument("--json", action="store_true",
                         help="emit a machine-readable report")
    return parser


def _render_report(command, lines, ok, as_json):
    if as_json:
        payload = {
            "command": command,
            "results": [{"label": label, "value": value}
                        for label, value in lines],
            "ok": ok,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    text = [f"{label}: {value}" for label, value in lines]
    return "\n".join(text) + "\n"


def main(argv=None):
    args = build_parser(tuple(sorted(SUITES))).parse_args(argv)
    try:
        if args.command == "verify":
            lines, ok = cmd_verify(args.suite)
        else:
            manifest = load_manifest(args.manifest)
            entry = manifest.section(args.command.replace("-", "_"))
            lines, ok = COMMANDS[args.command](manifest, entry)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _render_report(args.command, lines, ok, args.json)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    return 0 if ok is None or ok else 1


if __name__ == "__main__":
    sys.exit(main())
