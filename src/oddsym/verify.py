"""Named verification suites: every identity as a machine-checked residual.

Each suite returns a list of Check records; a suite passes when every
residual is the zero expression.  All randomness is seeded, so reports
are byte-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .bv import (VolumeForm, bracket_leibniz, c_invariant, chart_change,
                 classify_nu, delta0, delta_sharp, delta_vol,
                 divergence_delta, module_rule, product_leibniz,
                 square_formula)
from .darboux import darboux_pipeline, solve_R
from .flows import exp_flow, hamiltonian_from_adjusted, moser_flow
from .forms import (DifferentialForm, MultivectorField, basis_sign,
                    chart_frames, divergence, exterior_d, one_form_shift_form,
                    one_form_shift_series, poincare_homotopy, tau_sharp,
                    tau_sharp_inverse)
from .grammar import parse_expr, render_expr
from .sampling import (pushforward_structure, random_canonical_map,
                       random_expr, random_flow_hamiltonian,
                       random_point_map, random_scalar, random_special_map)
from .scalars import Scalar, binomial_half
from .superexpr import SuperExpr, sum_of_products
from .surfaces import AdjustedSurface, densities_P, dual_density, pullback_K
from .symbols import TIME_SYMBOL, Chart, SymbolTable, standard_chart
from .symplectic import (CanonicityError, OddSymplecticStructure,
                         Semidensity, ber_sqrt, is_canonical,
                         jacobi_residual, pullback_semidensity)


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


def _sampled(label, seed, count, sample):
    """Call ``sample()`` ``count`` times and summarize its residuals.

    Each call draws a fixture and returns a residual or a list of them; a
    residual passes when it is falsy (the zero expression or an empty
    message).  Every sample runs, even after a failure, so the checks that
    follow draw the same fixtures from the suite's generator.
    """
    failing = []
    for index in range(count):
        got = sample()
        failing += [(index, r) for r in
                    (got if isinstance(got, list) else [got]) if r]
    if not failing:
        return Check(label, True)
    index, first = failing[0]
    text = render_expr(first) if isinstance(first, SuperExpr) else str(first)
    return Check(label, False, f"{len(failing)} failing residuals; "
                               f"seed {seed}, sample {index}: {text}")


def _equal(label, got, want):
    ok = got == want
    detail = "" if ok else f"got {render_expr(got)}, want {render_expr(want)}"
    return Check(label, ok, detail)


def _chart(n, aux=2, frame=False, extra=()):
    return standard_chart(n, aux=aux, frame=frame,
                          extra_even=(TIME_SYMBOL,) + extra)


def _xs_expr(rng, chart):
    return random_expr(rng, chart.table, theta_degree=2, coeff_degree=1,
                       aux=True, even_names=chart.xs)


def _volume(rng, chart):
    base = SuperExpr.one(chart.table) + random_expr(
        rng, chart.table, theta_degree=2, coeff_degree=1, min_theta=1,
        even_names=chart.xs).even_part()
    return VolumeForm(base * base, chart)


def suite_superalgebra(seed=0):
    rng = random.Random(seed)
    table = _chart(3).table
    one = SuperExpr.one(table)

    def laws():
        a = random_expr(rng, table, theta_degree=3, coeff_degree=2, aux=True)
        b = random_expr(rng, table, theta_degree=3, coeff_degree=2, aux=True)
        c = random_expr(rng, table, theta_degree=2, coeff_degree=1)
        out = [(a * b) * c - a * (b * c)]
        for ah in (a.even_part(), a.odd_part()):
            for bh in (b.even_part(), b.odd_part()):
                sign = -1 if (ah.is_odd() and bh.is_odd()) else 1
                out.append(ah * bh - sign * (bh * ah))
        return out

    def round_trips():
        f = one + random_expr(rng, table, theta_degree=3, coeff_degree=1,
                              aux=True, min_theta=1).even_part()
        square = f * f
        root = square.sqrt_even()
        return [f * f.invert_even() - one, root * root - square]

    return [_sampled("associativity+supercommutativity[200 samples]", seed,
                     200, laws),
            _sampled("inverse+sqrt round trips[50 samples]", seed, 50,
                     round_trips)]


def suite_jacobi(seed=1):
    rng = random.Random(seed)
    chart = _chart(3)

    def sample():
        f, g, h = (random_expr(rng, chart.table, theta_degree=2,
                               coeff_degree=2, aux=True) for _ in range(3))
        return [jacobi_residual(f.even_part(), g.odd_part(), h.even_part(),
                                chart),
                jacobi_residual(f.odd_part(), g.even_part(), h.odd_part(),
                                chart)]

    return [_sampled("jacobi-identity[200 samples]", seed, 200, sample)]


def suite_delta_squared(seed=2):
    rng = random.Random(seed)
    chart = _chart(3)

    def sample():
        f = random_expr(rng, chart.table, theta_degree=3, coeff_degree=2,
                        aux=True, rational=True)
        return delta0(delta0(f, chart), chart)

    return [_sampled("delta-squared[200 samples]", seed, 200, sample)]


def suite_leibniz(seed=3):
    rng = random.Random(seed)
    chart = _chart(2)

    def sample():
        dv = _volume(rng, chart)
        f, g = _xs_expr(rng, chart), _xs_expr(rng, chart)
        fs = [(h, delta_vol(h, dv)) for h in (f.even_part(), f.odd_part())]
        gs = [(h, delta_vol(h, dv)) for h in (g.even_part(), g.odd_part())]
        out = []
        for fh, df in fs:
            for gh, dg in gs:
                out += [bracket_leibniz(fh, gh, dv, df, dg),
                        product_leibniz(fh, gh, dv, df, dg)]
        return out

    return [_sampled("leibniz-pair[200 samples]", seed, 50, sample)]


def suite_chart_change(seed=4):
    rng = random.Random(seed)
    chart = _chart(2)

    def sample():
        fmap = random_canonical_map(rng, chart)
        fs = []
        for _ in range(5):
            f = _xs_expr(rng, chart)
            fs += [f.even_part(), f.odd_part()]
        return chart_change(fmap, fs)

    return [_sampled("chart-change[400 samples]", seed, 40, sample)]


def suite_module_rule(seed=5):
    rng = random.Random(seed)
    chart = _chart(2)

    def sample():
        dv = _volume(rng, chart)
        f = _xs_expr(rng, chart)
        out = []
        for fh in (f.even_part(), f.odd_part()):
            out += [module_rule(fh, dv), delta0(delta0(fh, chart), chart)]
        return out

    return [_sampled("module-rule[240 samples]", seed, 60, sample)]


def suite_square_formula(seed=6):
    rng = random.Random(seed)
    chart = _chart(2)

    def sample():
        dv = _volume(rng, chart)
        f = _xs_expr(rng, chart)
        return [square_formula(fh, dv) for fh in (f.even_part(), f.odd_part())]

    return [_sampled("square-formula[200 samples]", seed, 100, sample)]


def suite_ber_root(seed=7):
    rng = random.Random(seed)
    chart = _chart(2)

    def sample():
        return delta0(ber_sqrt(random_canonical_map(rng, chart)), chart)

    return [_sampled("berezinian-root-closed[200 samples]", seed, 200,
                     sample)]


def suite_covariance(seed=8):
    rng = random.Random(seed)
    chart = _chart(2)
    makers = [
        ("special", random_special_map),
        ("point", random_point_map),
        ("adjusted-flow",
         lambda r, ch: exp_flow(random_flow_hamiltonian(r, ch), ch, 1)),
    ]

    def residual(maker):
        fmap = maker(rng, chart)
        s = Semidensity(_xs_expr(rng, chart), chart)
        return (delta_sharp(pullback_semidensity(fmap, s)).coefficient
                - pullback_semidensity(fmap, delta_sharp(s)).coefficient)

    return [_sampled(f"covariance-{name}[20 maps]", seed, 20,
                     lambda: residual(maker))
            for name, maker in makers]


def _random_form(rng, chart, aux=False):
    table = chart.table
    frames = chart_frames(chart)
    raw = []
    for _ in range(rng.randint(1, 4)):
        c = random_scalar(rng, table, 2, names=chart.xs, allow_zero=False)
        names = rng.sample(list(frames), rng.randint(0, chart.n))
        if aux and table.aux_odds and rng.random() < 0.4:
            names.append(rng.choice(list(table.aux_odds)))
        raw.append((c, names))
    return DifferentialForm(SuperExpr.from_raw_terms(table, raw), chart)


def suite_intertwining(seed=9):
    rng = random.Random(seed)

    def residual(chart):
        w = _random_form(rng, chart, aux=True)
        return (delta_sharp(tau_sharp(w)).coefficient
                - tau_sharp(exterior_d(w)).coefficient)

    out = []
    for n in (2, 3, 4):
        chart = _chart(n, aux=1, frame=True)
        rounds = 40 if n < 4 else 10
        out.append(_sampled(f"intertwine-n{n}[{rounds} forms]", seed, rounds,
                            lambda: residual(chart)))
    return out


def suite_divergence(seed=10):
    rng = random.Random(seed)
    chart = _chart(2, frame=True)
    table = chart.table

    def transform():
        comps = [random_scalar(rng, table, 2, names=chart.xs)
                 for _ in range(chart.n)]
        rho = Scalar.from_int(table, 1) + \
            random_scalar(rng, table, 2, names=chart.xs) ** 2
        fexpr = SuperExpr.from_raw_terms(
            table, [(comp, [th]) for comp, th in zip(comps, chart.thetas)])
        top = DifferentialForm(SuperExpr.from_raw_terms(
            table, [(rho, chart_frames(chart))]), chart)
        div = divergence(MultivectorField(fexpr, chart), top)
        s = tau_sharp(top)
        dv = VolumeForm(s.coefficient * s.coefficient, chart)
        return delta_vol(fexpr, dv) - div

    def derivation():
        dv = _volume(rng, chart)
        f = _xs_expr(rng, chart)
        return divergence_delta(f, dv) - delta_vol(f, dv)

    return [_sampled("divergence-transform[40 fields]", seed, 40, transform),
            _sampled("divergence-vs-derivation[40 samples]", seed, 40,
                     derivation)]


def suite_shift_routes(seed=11):
    rng = random.Random(seed)
    chart = _chart(2, frame=True)
    table = chart.table

    def routes():
        raw = []
        for xi in chart_frames(chart):
            aux = rng.choice(list(table.aux_odds))
            raw.append((random_scalar(rng, table, 1, names=chart.xs),
                        [aux, xi]))
        a = DifferentialForm(SuperExpr.from_raw_terms(table, raw), chart)
        w = _random_form(rng, chart)
        return (one_form_shift_form(a, w).expr
                - one_form_shift_series(a, w).expr)

    def homotopy():
        w = _random_form(rng, chart, aux=True)
        w = DifferentialForm(w.expr - w.degree_part(0).expr, chart)
        return exterior_d(poincare_homotopy(w)).expr + \
            poincare_homotopy(exterior_d(w)).expr - w.expr

    def round_trip():
        w = _random_form(rng, chart, aux=True)
        return tau_sharp_inverse(tau_sharp(w)).expr - w.expr

    return [_sampled("shift-route-equivalence[30 samples]", seed, 30, routes),
            _sampled("poincare-homotopy[30 samples]", seed, 30, homotopy),
            _sampled("transform-round-trip[30 samples]", seed, 30,
                     round_trip)]


def suite_darboux(seed=12):
    rng = random.Random(seed)
    out = []
    chart = _chart(2)
    omega = OddSymplecticStructure.canonical(chart)
    result = darboux_pipeline(omega, chart)
    out.append(Check("pipeline-identity-on-canonical",
                     result.composite.is_identity() and not result.steps))

    chart1 = _chart(1)
    table1 = chart1.table
    zero = SuperExpr.zero(table1)
    a = parse_expr("1 + x1", table1)
    omega1 = OddSymplecticStructure(chart1, [[zero, a], [-a, zero]])
    result1 = darboux_pipeline(omega1, chart1)
    out.append(_equal("pipeline-n1-rescale", result1.composite.targets[1],
                      parse_expr("th1/(1 + x1)", table1)))
    out.append(Check("pipeline-n1-residuals", result1.ok))

    def pushforward():
        omega_k, _ = pushforward_structure(rng, chart)
        report = darboux_pipeline(omega_k, chart).report
        return list(report.residuals.values())

    out.append(_sampled("pipeline-pushforward[10 structures]", seed, 10,
                        pushforward))

    out.append(Check("series-c0", binomial_half(1) == Fraction(1, 2)))
    out.append(Check("series-c1", binomial_half(2) == Fraction(-1, 8)))

    def solve():
        zero = SuperExpr.zero(chart.table)
        e01 = _xs_expr(rng, chart).odd_part()
        f01 = _xs_expr(rng, chart).odd_part()
        try:  # raises unless the residual vanishes
            solve_R([[zero, e01], [e01, zero]], [[zero, f01], [-f01, zero]],
                    chart.table)
        except CanonicityError as exc:
            return str(exc)
        return ""

    out.append(_sampled("solve-R-residual[10 samples]", seed, 10, solve))
    return out


def suite_flows(seed=13):
    rng = random.Random(seed)
    chart = _chart(3)

    def round_trip():
        q = random_flow_hamiltonian(rng, chart)
        return hamiltonian_from_adjusted(exp_flow(q, chart, 1)) - q

    def canonical():
        q = random_flow_hamiltonian(rng, chart)
        out = []
        for t in (Fraction(1, 2), 1, 2):
            out += is_canonical(exp_flow(q, chart, t)).residuals.values()
        return out

    def group_law():
        q = random_flow_hamiltonian(rng, chart)
        f1 = exp_flow(q, chart, Fraction(1, 2))
        f2 = exp_flow(q, chart, Fraction(5, 2))
        return [a - b for a, b in zip(f1.compose(f2).targets,
                                      exp_flow(q, chart, 3).targets)]

    return [_sampled("flow-round-trip[20 generators]", seed, 20, round_trip),
            _sampled("flow-canonical[t in 1/2,1,2]", seed, 8, canonical),
            _sampled("flow-group-law[6 generators]", seed, 6, group_law)]


def suite_moser(seed=14):
    rng = random.Random(seed)
    chart = _chart(3)
    table = chart.table

    def sample():
        r = random_expr(rng, table, theta_degree=3, coeff_degree=1,
                        aux=True, min_theta=2, even_names=chart.xs).odd_part()
        r = SuperExpr(table, {key: v for key, v in r.terms.items()
                              if table.theta_degree(key) >= 2})
        _, residual = moser_flow(Semidensity(SuperExpr.one(table), chart),
                                 Semidensity(r, chart))
        return residual

    return [_sampled("moser-transport[10 samples]", seed, 10, sample)]


def _surface_chart():
    names_x = ("x0", "x1", "x2")
    names_th = ("th0", "th1", "th2")
    table = SymbolTable(names_x + (TIME_SYMBOL,), names_th, (), ("b1", "b2"))
    chart = Chart(table, names_x, names_th)
    return chart, AdjustedSurface(chart, "x0", "th0")


def suite_surface(seed=15):
    rng = random.Random(seed)
    chart, surf = _surface_chart()
    table = chart.table

    def anticommutation():
        coeff = random_expr(rng, table, theta_degree=3, coeff_degree=2,
                            aux=True, even_names=chart.xs)
        s = Semidensity(coeff, chart)
        return pullback_K(delta_sharp(s), surf).coefficient + \
            delta_sharp(pullback_K(s, surf)).coefficient

    def dual_vs_pullback():
        base = SuperExpr.one(table) + random_expr(
            rng, table, theta_degree=3, coeff_degree=1, min_theta=1,
            even_names=chart.xs).even_part()
        dv = VolumeForm(base * base, chart)
        dual = dual_density(parse_expr("x0", table), parse_expr("th0", table),
                            dv, surf)
        k_coeff = pullback_K(Semidensity(base, chart), surf).coefficient
        return dual.coefficient * surf.restrict(base) - k_coeff

    return [_sampled("surface-anticommutation[20 samples]", seed, 20,
                     anticommutation),
            _sampled("dual-vs-pullback[10 volumes]", seed, 10,
                     dual_vs_pullback)]


def suite_invariant_constant(seed=16):
    rng = random.Random(seed)
    chart = _chart(2)
    table = chart.table
    s = Semidensity(parse_expr("1 + 5*th1*th2", table), chart)

    def sample():
        pulled = pullback_semidensity(random_canonical_map(rng, chart), s)
        c = c_invariant(pulled).as_fraction()
        return "" if c == 5 else f"c = {c}"

    out = [_sampled("constant-under-canonical[20 maps]", seed, 20, sample)]

    chart1 = _chart(1)
    table1 = chart1.table
    flat = Semidensity(SuperExpr.one(table1), chart1)
    nu0 = classify_nu(flat)
    eigen = Semidensity(parse_expr("1 - b1*x1*th1", table1), chart1)
    nu1 = classify_nu(eigen)
    out.append(Check("nu-flat-zero", nu0 is not None and nu0.is_zero))
    out.append(Check("nu-eigen-b1", nu1 == parse_expr("b1", table1)))
    return out


def suite_tau_table(seed=17):
    out = []
    chart = _chart(2, frame=True, extra=("c1", "c2"))
    table = chart.table

    def form(text):
        return DifferentialForm(parse_expr(text, table), chart)

    out.append(_equal("table-function",
                      tau_sharp(form("c1*x1")).coefficient,
                      parse_expr("c1*x1*th1*th2", table)))
    out.append(_equal("table-one-form",
                      tau_sharp(form("c1*xi1 + c2*xi2")).coefficient,
                      parse_expr("c1*th2 - c2*th1", table)))
    out.append(_equal("table-top-form",
                      tau_sharp(form("c1*xi1*xi2")).coefficient,
                      parse_expr("-c1", table)))
    for n in (1, 2, 3, 4):
        chart_n = _chart(n, aux=0, frame=True)
        tbl = chart_n.table
        frames = chart_frames(chart_n)
        masks = iter(range(1 << n))

        def grid_residual():
            # one sample per mask: the frame slots the mask selects
            mask = next(masks)
            slots = [i for i in range(n) if mask & (1 << i)]
            xi_term = SuperExpr.one(tbl)
            for i in slots:
                xi_term = xi_term * SuperExpr.symbol(tbl, frames[i])
            image = tau_sharp(DifferentialForm(xi_term, chart_n)).coefficient
            want = SuperExpr.one(tbl)
            for i in range(n):
                if i not in slots:
                    want = want * SuperExpr.symbol(tbl, chart_n.thetas[i])
            return image - basis_sign(slots) * want

        out.append(_sampled(f"table-grid-n{n}", seed, 1 << n, grid_residual))
    return out


def worked_example_chart():
    """The three-dimensional example chart with generic linear b's.

    b_i = c_i0 + c_i1 x0 + c_i2 x1 + c_i3 x2 for i = 0,1,2; twelve free
    coefficient symbols make the reproduction a polynomial identity.
    """
    names_x = ("x0", "x1", "x2")
    coeffs = tuple(f"c{i}{j}" for i in range(3) for j in range(4))
    table = SymbolTable(names_x + coeffs + (TIME_SYMBOL,),
                        ("th0", "th1", "th2"), ("xi0", "xi1", "xi2"), ("a1",))
    chart = Chart(table, names_x, ("th0", "th1", "th2"))
    bs = []
    for i in range(3):
        b = parse_expr(f"c{i}0 + c{i}1*x0 + c{i}2*x1 + c{i}3*x2", table)
        bs.append(b)
    return chart, bs


def worked_example_values(chart, bs):
    """tau_sharp image, both pull-backs and both densities for
    w = -dx0^dx1^dx2 + b0 dx0 + b1 dx1 + b2 dx2."""
    table = chart.table
    xi = [SuperExpr.symbol(table, f"xi{i}") for i in range(3)]
    w = DifferentialForm(sum_of_products(table, zip(bs, xi)) -
                         xi[0] * xi[1] * xi[2], chart)
    s = tau_sharp(w)
    surf = AdjustedSurface(chart, "x0", "th0")
    ks = pullback_K(s, surf)
    kd = pullback_K(delta_sharp(s), surf)
    dv = VolumeForm(s.coefficient * s.coefficient, chart)
    p0, p1 = densities_P(dv, surf)
    return w, s, ks, kd, p0, p1


def suite_worked_example(seed=18):
    out = []
    chart, bs = worked_example_chart()
    table = chart.table

    def run(tag, bs_inst):
        w, s, ks, kd, p0, p1 = worked_example_values(chart, bs_inst)
        th = [SuperExpr.symbol(table, f"th{i}") for i in range(3)]
        b0, b1, b2 = bs_inst
        want_s = SuperExpr.one(table) + b0 * th[1] * th[2] \
            + b1 * th[2] * th[0] + b2 * th[0] * th[1]
        out.append(_equal(f"{tag}-transform", s.coefficient, want_s))
        surf_restrict = {"x0": SuperExpr.zero(table),
                         "th0": SuperExpr.zero(table)}
        want_ks = (b2 * th[1] - b1 * th[2]).substitute(surf_restrict)
        out.append(_equal(f"{tag}-pullback", ks.coefficient, want_ks))
        curl = (b1.diff("x2") - b2.diff("x1")).substitute(surf_restrict)
        out.append(_equal(f"{tag}-pullback-delta", kd.coefficient, curl))
        out.append(_equal(f"{tag}-P0", p0, curl * curl))
        out.append(_equal(f"{tag}-P1", p1, want_ks * curl))

    run("generic", bs)
    concrete = [
        [parse_expr(t, table) for t in ("x1", "x2", "x0")],
        [parse_expr(t, table) for t in ("x1*x2", "x0 + 2*x2", "x1^2")],
        [parse_expr(t, table) for t in ("3", "x2^2 + x0*x1", "x0*x2")],
    ]
    for idx, inst in enumerate(concrete, 1):
        run(f"instance{idx}", inst)
    return out


SUITES = {
    "superalgebra": suite_superalgebra,
    "jacobi": suite_jacobi,
    "delta-squared": suite_delta_squared,
    "leibniz": suite_leibniz,
    "chart-change": suite_chart_change,
    "module-rule": suite_module_rule,
    "square-formula": suite_square_formula,
    "ber-root": suite_ber_root,
    "covariance": suite_covariance,
    "intertwining": suite_intertwining,
    "divergence": suite_divergence,
    "shift-routes": suite_shift_routes,
    "darboux": suite_darboux,
    "flows": suite_flows,
    "moser": suite_moser,
    "surface": suite_surface,
    "invariant-constant": suite_invariant_constant,
    "tau-table": suite_tau_table,
    "worked-example": suite_worked_example,
}
