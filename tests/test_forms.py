import random

import pytest

from oddsym import forms
from oddsym.bv import delta_sharp, delta_vol, VolumeForm
from oddsym.forms import (DifferentialForm, MultivectorField, basis_sign,
                          chart_frames, divergence, exterior_d,
                          one_form_shift, one_form_shift_form,
                          one_form_shift_series, poincare_homotopy,
                          render_form, schouten, star, tau_sharp,
                          tau_sharp_inverse)
from oddsym.grammar import parse_expr
from oddsym.sampling import random_expr, random_scalar
from oddsym.scalars import Scalar, ScalarError
from oddsym.superexpr import ParityError, SuperExpr
from oddsym.surfaces import AdjustedSurface
from oddsym.symbols import Chart, standard_table
from oddsym.symplectic import Semidensity, bracket
from oddsym.verify import worked_example_chart


def make_chart(n, aux=2, extra=()):
    table = standard_table(n, aux=aux, frame=True, extra_even=("t",) + extra)
    return Chart(table, table.even_symbols[:n], table.coordinate_odds)


def e(chart, text):
    return parse_expr(text, chart.table)


def form(chart, text):
    return DifferentialForm(e(chart, text), chart)


def random_form(rng, chart, max_degree=None, coeff_degree=2, aux=False,
                rational=False):
    table = chart.table
    frames = chart_frames(chart)
    n = chart.n
    max_degree = n if max_degree is None else max_degree
    total = SuperExpr.zero(table)
    for _ in range(rng.randint(1, 4)):
        c = random_scalar(rng, table, coeff_degree, names=chart.xs,
                          rational=rational, allow_zero=False)
        term = SuperExpr.from_scalar(c)
        for name in rng.sample(list(frames), rng.randint(0, max_degree)):
            term = term * SuperExpr.symbol(table, name)
        if aux and table.aux_odds and rng.random() < 0.4:
            term = term * SuperExpr.symbol(
                table, rng.choice(list(table.aux_odds)))
        total = total + term
    return DifferentialForm(total, chart)


def test_tau_is_representation_identity():
    c = make_chart(2)
    field = MultivectorField(e(c, "th1"), c)
    assert field.expr == e(c, "th1")
    back = MultivectorField(e(c, "x1*th1*th2"), c)
    assert back.expr == e(c, "x1*th1*th2")
    with pytest.raises(ValueError):
        MultivectorField(e(c, "xi1"), c)


def test_tau_sharp_table_n2():
    c = make_chart(2, extra=("c1", "c2"))
    # scalar functions go to the full theta monomial
    f = form(c, "c1*x1")
    assert tau_sharp(f).coefficient == e(c, "c1*x1*th1*th2")
    # one-forms pick one theta with alternating signs
    w = form(c, "c1*xi1 + c2*xi2")
    assert tau_sharp(w).coefficient == e(c, "c1*th2 - c2*th1")
    # the top form flips sign
    top = form(c, "c1*xi1*xi2")
    assert tau_sharp(top).coefficient == e(c, "-c1")


def test_tau_sharp_general_table_row():
    # tau_sharp(dx_{i1} ^ ... ^ dx_{ik}) =
    #   (-1)^(i1+...+ik+k) theta_complement, indices 1-based ascending;
    # basis_sign states it with 0-based slots
    for n in (1, 2, 3, 4, 5):
        c = make_chart(n, aux=0)
        table = c.table
        frames = chart_frames(c)
        for mask in range(1 << n):
            slots = [i for i in range(n) if mask & (1 << i)]
            xi_term = SuperExpr.one(table)
            for i in slots:
                xi_term = xi_term * SuperExpr.symbol(table, frames[i])
            image = tau_sharp(DifferentialForm(xi_term, c)).coefficient
            sign = (-1) ** (sum(i + 1 for i in slots) + len(slots))
            want = SuperExpr.one(table)
            for i in range(n):
                if i not in slots:
                    want = want * SuperExpr.symbol(table, c.thetas[i])
            assert image == sign * want
            assert basis_sign(slots) == sign


def test_tau_sharp_inverse_round_trip():
    c = make_chart(3)
    rng = random.Random(31)
    for _ in range(30):
        w = random_form(rng, c, aux=True)
        assert tau_sharp_inverse(tau_sharp(w)).expr == w.expr
    for _ in range(30):
        coeff = random_expr(rng, c.table, theta_degree=3, coeff_degree=2,
                            aux=True, even_names=c.xs)
        s = Semidensity(coeff, c)
        assert tau_sharp(tau_sharp_inverse(s)).coefficient == coeff


def induced_chart():
    """The worked example's chart with the pair (x1, th1) cut out: its
    thetas th0, th2 are a subset of its table's."""
    chart, _ = worked_example_chart()
    return AdjustedSurface(chart, "x1", "th1").induced_chart()


def kernel(chart, sign):
    """exp(sign theta_i xi^i) as the product of its 2^n terms."""
    table = chart.table
    out = SuperExpr.one(table)
    for th, xi in zip(chart.thetas, chart_frames(chart)):
        out = out * (SuperExpr.one(table) + sign * SuperExpr.symbol(table, th)
                     * SuperExpr.symbol(table, xi))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, "induced"])
def test_tau_sharp_both_ways_match_the_kernel_product(n):
    # oracle: one Berezin integral against the whole kernel, forward over
    # the reversed frames, inverse over the thetas
    chart = induced_chart() if n == "induced" else make_chart(n)
    table = chart.table
    frames = list(chart_frames(chart))
    outside = {th: SuperExpr.zero(table) for th in table.coordinate_odds
               if th not in chart.thetas}
    forward, backward = kernel(chart, 1), kernel(chart, -1)
    rng = random.Random(67)
    for _ in range(8):
        w = random_form(rng, chart, aux=True, rational=True)
        assert tau_sharp(w).coefficient == \
            (w.expr * forward).berezin_integral(reversed(frames))
        coeff = random_expr(rng, table, theta_degree=chart.n, aux=True,
                            rational=True, even_names=chart.xs)
        coeff = coeff.substitute(outside)
        assert tau_sharp_inverse(Semidensity(coeff, chart)).expr == \
            (coeff * backward).berezin_integral(chart.thetas)


def test_tau_sharp_inverse_input_checks():
    c = make_chart(2)
    with pytest.raises(ValueError,
                       match="semidensity coefficient carries frame odds"):
        tau_sharp_inverse(Semidensity(e(c, "th1*xi1"), c))
    ind = induced_chart()
    with pytest.raises(ValueError,
                       match="coefficient uses odds outside the chart"):
        tau_sharp_inverse(Semidensity(e(ind, "th0*th1"), ind))


def test_tau_sharp_inverse_transforms_once(monkeypatch):
    # the inverse is its own integral; the one forward transform is the
    # round-trip check
    c = make_chart(3)
    calls = []

    def counted(w):
        calls.append(w)
        return tau_sharp(w)

    monkeypatch.setattr(forms, "tau_sharp", counted)
    s = Semidensity(e(c, "1 + x1*th1*th2 - 2*th1*th3*b1 + th2*th3"), c)
    w = forms.tau_sharp_inverse(s)
    assert len(calls) == 1
    assert tau_sharp(w) == s


def test_exterior_d_basic():
    c = make_chart(2, extra=("c1", "c2"))
    w = form(c, "c1*x2*xi1 + c2*x1^2*xi2")
    dw = exterior_d(w)
    assert dw.expr == e(c, "(2*c2*x1 - c1)*xi1*xi2")
    assert exterior_d(dw).expr.is_zero


def test_exterior_d_squares_to_zero():
    c = make_chart(3)
    rng = random.Random(37)
    for _ in range(40):
        w = random_form(rng, c, aux=True)
        assert exterior_d(exterior_d(w)).expr.is_zero


def test_intertwining_with_delta_sharp():
    c = make_chart(3)
    rng = random.Random(41)
    for _ in range(30):
        w = random_form(rng, c, aux=True)
        lhs = delta_sharp(tau_sharp(w)).coefficient
        rhs = tau_sharp(exterior_d(w)).coefficient
        assert lhs == rhs


def test_intertwining_n4():
    c = make_chart(4, aux=1)
    rng = random.Random(43)
    for _ in range(10):
        w = random_form(rng, c, coeff_degree=2)
        assert delta_sharp(tau_sharp(w)).coefficient == \
            tau_sharp(exterior_d(w)).coefficient


def test_poincare_homotopy_constant_curl():
    c = make_chart(2)
    w = form(c, "xi1*xi2")
    a = poincare_homotopy(w)
    assert a.expr == e(c, "-1/2*x2*xi1 + 1/2*x1*xi2")
    assert exterior_d(a).expr == w.expr


def test_poincare_homotopy_linear_curl():
    c = make_chart(2)
    w = form(c, "x1*xi1*xi2")
    a = poincare_homotopy(w)
    assert a.expr == e(c, "-1/3*x1*x2*xi1 + 1/3*x1^2*xi2")
    assert exterior_d(a).expr == w.expr


def test_poincare_homotopy_kills_constants():
    c = make_chart(2)
    w = form(c, "7")
    assert poincare_homotopy(w).expr.is_zero


def test_poincare_homotopy_refuses_rational_coefficients():
    c = make_chart(2)
    with pytest.raises(ScalarError, match="radial integral needs a "
                                          "polynomial"):
        poincare_homotopy(form(c, "xi1/(1 + x2)"))


def test_homotopy_identity():
    c = make_chart(3)
    rng = random.Random(47)
    for _ in range(25):
        w = random_form(rng, c, aux=True)
        w = DifferentialForm(w.expr - w.degree_part(0).expr, c)
        recovered = exterior_d(poincare_homotopy(w)).expr + \
            poincare_homotopy(exterior_d(w)).expr
        assert recovered == w.expr


def test_inner_product_examples():
    # the contraction of T with w is tau_sharp^-1(tau(T) tau_sharp(w))
    def contract(field, w):
        s = tau_sharp(w)
        return tau_sharp_inverse(
            Semidensity(field.expr * s.coefficient, w.chart))

    c1 = make_chart(1)
    field = MultivectorField(e(c1, "th1"), c1)
    assert contract(field, form(c1, "xi1")).expr == \
        SuperExpr.one(c1.table)
    c2 = make_chart(2)
    field = MultivectorField(e(c2, "th1"), c2)
    out = contract(field, form(c2, "xi1*xi2"))
    assert out.expr == e(c2, "xi2")
    zero = MultivectorField(SuperExpr.zero(c2.table), c2)
    assert contract(zero, form(c2, "xi1*xi2")).expr.is_zero


def test_schouten_vs_composition_oracle():
    # vector fields: tau([X,Y]) = -{tau X, tau Y} under these conventions,
    # with [X,Y] the composition commutator on coefficient functions
    c = make_chart(2, extra=("c1", "c2"))
    rng = random.Random(53)
    for _ in range(15):
        xcomp = [random_scalar(rng, c.table, 2, names=c.xs) for _ in range(2)]
        ycomp = [random_scalar(rng, c.table, 2, names=c.xs) for _ in range(2)]
        table = c.table
        tau_x = SuperExpr.zero(table)
        tau_y = SuperExpr.zero(table)
        for i, th in enumerate(c.thetas):
            tau_x = tau_x + SuperExpr.from_scalar(xcomp[i]) * \
                SuperExpr.symbol(table, th)
            tau_y = tau_y + SuperExpr.from_scalar(ycomp[i]) * \
                SuperExpr.symbol(table, th)
        lie = []
        for i in range(2):
            comp = Scalar.from_int(table, 0)
            for j, xj in enumerate(c.xs):
                comp = comp + xcomp[j] * ycomp[i].diff(xj) \
                    - ycomp[j] * xcomp[i].diff(xj)
            lie.append(comp)
        tau_lie = SuperExpr.zero(table)
        for i, th in enumerate(c.thetas):
            tau_lie = tau_lie + SuperExpr.from_scalar(lie[i]) * \
                SuperExpr.symbol(table, th)
        assert tau_lie == -bracket(tau_x, tau_y, c)
        assert schouten(MultivectorField(tau_x, c),
                        MultivectorField(tau_y, c)).expr == \
            bracket(tau_x, tau_y, c)


def test_one_form_shift_example():
    c = make_chart(2)
    s = Semidensity(e(c, "th1*th2"), c)
    a = form(c, "b1*xi1 + b2*xi2")
    shifted = one_form_shift(a, s)
    assert shifted.coefficient == \
        e(c, "th1*th2 + th1*b2 + b1*th2 + b1*b2")


def test_one_form_shift_routes_agree():
    c = make_chart(2)
    rng = random.Random(59)
    for _ in range(15):
        comps = []
        table = c.table
        for _ in range(2):
            aux = SuperExpr.symbol(table, rng.choice(list(table.aux_odds)))
            comps.append(SuperExpr.from_scalar(
                random_scalar(rng, table, 1, names=c.xs)) * aux)
        a_expr = SuperExpr.zero(table)
        for comp, xi in zip(comps, chart_frames(c)):
            a_expr = a_expr + comp * SuperExpr.symbol(table, xi)
        a = DifferentialForm(a_expr, c)
        w = random_form(rng, c)
        assert one_form_shift_form(a, w).expr == \
            one_form_shift_series(a, w).expr


def test_one_form_shift_input_checks():
    c = make_chart(2)
    s = Semidensity(e(c, "th1*th2"), c)
    for impure in ("b1*xi1*xi2", "b1 + b2*xi1"):
        with pytest.raises(ValueError, match="shift needs a pure one-form"):
            one_form_shift(form(c, impure), s)
    with pytest.raises(ParityError,
                       match="shift one-form must be odd-valued"):
        one_form_shift(form(c, "x1*xi1"), s)


def test_one_form_shift_group_action():
    c = make_chart(2)
    s = Semidensity(e(c, "x1*th1*th2 + th1"), c)
    a = form(c, "b1*xi1")
    b = form(c, "b2*x1*xi2")
    ab = DifferentialForm(a.expr + b.expr, c)
    one = one_form_shift(b, one_form_shift(a, s))
    assert one.coefficient == one_form_shift(ab, s).coefficient
    zero_shift = DifferentialForm(SuperExpr.zero(c.table), c)
    assert one_form_shift(zero_shift, s).coefficient == s.coefficient


def test_star_examples():
    c1 = make_chart(1)
    out = star(form(c1, "4*xi1"), form(c1, "xi1"))
    assert out.expr == e(c1, "2*xi1")
    w = form(c1, "xi1 + 3")
    assert star(w, w).expr == w.expr
    with pytest.raises(ScalarError,
                       match="both top components must be nonzero"):
        star(form(c1, "1"), form(c1, "xi1"))


def test_divergence_routes():
    c = make_chart(2, extra=("c1", "c2"))
    table = c.table
    field = MultivectorField(e(c, "x1*th1"), c)
    top = form(c, "xi1*xi2")
    assert divergence(field, top) == SuperExpr.one(table)
    rng = random.Random(61)
    for _ in range(15):
        comps = [random_scalar(rng, table, 2, names=c.xs) for _ in range(2)]
        rho = Scalar.from_int(table, 1) + \
            random_scalar(rng, table, 2, names=c.xs) ** 2
        fexpr = SuperExpr.zero(table)
        for comp, th in zip(comps, c.thetas):
            fexpr = fexpr + SuperExpr.from_scalar(comp) * \
                SuperExpr.symbol(table, th)
        field = MultivectorField(fexpr, c)
        top = DifferentialForm(
            SuperExpr.from_scalar(rho)
            * e(c, "xi1*xi2"), c)
        div = divergence(field, top)
        s = tau_sharp(top)
        dv = VolumeForm(s.coefficient * s.coefficient, c)
        assert delta_vol(fexpr, dv) == div


def test_divergence_input_checks():
    c = make_chart(2)
    field = MultivectorField(e(c, "x1*th1"), c)
    with pytest.raises(ValueError,
                       match="weight comes from a pure top-degree form"):
        divergence(field, form(c, "xi1*xi2 + xi1"))
    with pytest.raises(ScalarError, match="degenerate top form"):
        divergence(field, form(c, "b1*b2*xi1*xi2"))


def test_lagrangian_top_form():
    c = make_chart(3)
    s = Semidensity(SuperExpr.one(c.table), c)
    # the integrand over the body surface theta = 0 is the top-degree
    # part of the inverse transform
    out = tau_sharp_inverse(s).degree_part(c.n)
    assert out.expr == e(c, "-xi1*xi2*xi3")
    degenerate = Semidensity(e(c, "th1"), c)
    assert tau_sharp_inverse(degenerate).degree_part(c.n).expr.is_zero


def test_render_form():
    c = make_chart(2, extra=("c1",))
    w = form(c, "-xi1*xi2 + c1*xi1 + 3")
    assert render_form(w) == "3 + c1*dx1 - dx1^dx2"
    # a bare coefficient that is a sum is parenthesized, and a lead that
    # is already a product, or a quotient, is not; a lead of -1 leaves a
    # bare minus; an odd lead moves in front of an odd wedge with its sign
    w = form(c, "(x1 + 1)*xi1 + (x1 + 1)*b1*xi2 - xi1*xi2")
    assert render_form(w) == \
        "(x1 + 1)*dx1 - dx1^dx2 + (x1 + 1)*b1*dx2"
    w = form(c, "1/(x1 + 2)*xi1 - 3/2*b1*xi2")
    assert render_form(w) == "1/(x1 + 2)*dx1 - 3/2*b1*dx2"
    assert render_form(form(c, "b1*b2*xi1 + b1*xi1*xi2")) == \
        "b1*dx1^dx2 + b1*b2*dx1"
    assert render_form(form(c, "-xi2")) == "-dx2"
