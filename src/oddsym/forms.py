"""Dictionary between base-manifold calculus and superspace objects.

Multivector fields are functions of (x, theta); differential forms are
functions of (x, xi) where the frame odds xi transform like dx.  The two
sides are tied together by

    tau       multivector  ->  function      (the shared representation:
                                              ``MultivectorField.expr``)
    tau_sharp form         ->  semidensity   (Berezin transform against
                                              exp(theta_i xi^i))

The kernel exp(+-theta_i xi^i) is the product of the even factors
1 +- theta_i xi^i, the i-th holding the only xi^i and theta_i, so both
directions integrate one slot at a time: multiply by the slot's factor,
then take the right derivative by its xi^i (``tau_sharp``, xi^1 first)
or its theta_i (``tau_sharp_inverse``, theta_n first, against
exp(-theta_i xi^i)).  Every operation here is calibrated so the
low-dimensional mapping table comes out exactly: for n = 2,

    f(x)            ->  f th1*th2
    w1 dx1 + w2 dx2 ->  w1 th2 - w2 th1
    w dx1^dx2       ->  -w
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .grammar import join_signed, render_product, render_scalar
from .scalars import ScalarError
from .superexpr import (ParityError, SuperExpr, nilpotent_series, sum_of,
                        sum_of_products)
from .symbols import Chart
from .symplectic import Semidensity, bracket


@dataclass(frozen=True)
class MultivectorField:
    expr: SuperExpr
    chart: Chart

    def __post_init__(self):
        if any(map(self.chart.table.frame_degree, self.expr.terms)):
            raise ValueError("multivector fields carry no frame odds")


@dataclass(frozen=True)
class DifferentialForm:
    expr: SuperExpr
    chart: Chart

    def __post_init__(self):
        if any(map(self.chart.table.theta_degree, self.expr.terms)):
            raise ValueError("forms carry no coordinate odds")

    def degree_part(self, k):
        table = self.chart.table
        kept = {key: c for key, c in self.expr.terms.items()
                if table.frame_degree(key) == k}
        return DifferentialForm(SuperExpr(table, kept), self.chart)


def chart_frames(chart: Chart):
    """Frame odd names paired slot-by-slot with the chart coordinates."""
    table = chart.table
    if not table.frame_odds:
        raise ValueError("symbol table carries no frame odds")
    return tuple(table.frame_odds[table.odd_index(th)]
                 for th in chart.thetas)


def schouten(t1: MultivectorField, t2: MultivectorField) -> MultivectorField:
    """Bracket of multivectors, defined as the transported odd bracket."""
    out = bracket(t1.expr, t2.expr, t1.chart)
    return MultivectorField(out, t1.chart)


def _slots(chart: Chart):
    """(theta_i, xi^i, theta_i xi^i) for each slot i of the chart."""
    table = chart.table
    return [(th, xi, SuperExpr.symbol(table, th) * SuperExpr.symbol(table, xi))
            for th, xi in zip(chart.thetas, chart_frames(chart))]


def tau_sharp(w: DifferentialForm) -> Semidensity:
    """Berezin transform of the form against exp(theta_i xi^i).

    The xi^1-first order is the one normalization making the n = 2 table
    exact.
    """
    out = w.expr
    for _, xi, pair in _slots(w.chart):
        out = (out + out * pair).right_diff(xi)
    return Semidensity(out, w.chart)


def basis_sign(slots):
    """The sign s with tau_sharp(xi_T) = s theta_{T complement}, for the
    increasing frame slots T counted from 0: (-1)^(sum(i + 1) + |T|),
    which is (-1)^(sum of the slots).  The transform never reads it: it
    is the table grid's independent statement of the table."""
    return -1 if sum(slots) % 2 else 1


def tau_sharp_inverse(s: Semidensity) -> DifferentialForm:
    """Recover the form with tau_sharp(w) = s: the Berezin transform of
    s against exp(-theta_i xi^i) over the chart's thetas, theta_n first."""
    chart = s.chart
    table = chart.table
    inside = {table.odd_index(th) for th in chart.thetas}
    for key in s.coefficient.terms:
        if table.frame_degree(key):
            raise ValueError("semidensity coefficient carries frame odds")
        if not inside.issuperset(key[:table.theta_degree(key)]):
            raise ValueError("coefficient uses odds outside the chart")
    out = s.coefficient
    for th, _, pair in reversed(_slots(chart)):
        out = (out - out * pair).right_diff(th)
    w = DifferentialForm(out, chart)
    if tau_sharp(w).coefficient != s.coefficient:
        raise AssertionError("inverse transform failed to round-trip")
    return w


def exterior_d(w: DifferentialForm) -> DifferentialForm:
    """xi^i d/dx^i acting from the left."""
    chart = w.chart
    table = chart.table
    total = sum_of_products(table, (
        (SuperExpr.symbol(table, xi), w.expr.diff(x))
        for x, xi in zip(chart.xs, chart_frames(chart))))
    return DifferentialForm(total, chart)


def poincare_homotopy(w: DifferentialForm) -> DifferentialForm:
    """Radial homotopy h with d h + h d = id on degrees >= 1.

    Polynomial coefficients only (``Scalar.radial`` raises on any other):
    on a term of x-degree m and form degree k the operator contracts with
    the Euler field and divides by m + k.
    """
    chart = w.chart
    table = chart.table
    scaled = {}
    for key, c in w.expr.terms.items():
        k = table.frame_degree(key)
        if k == 0:
            continue
        scaled[key] = c.radial(chart.xs, k)
    scaled = SuperExpr(table, scaled)
    out = sum_of_products(table, (
        (SuperExpr.symbol(table, x), scaled.diff(xi))
        for x, xi in zip(chart.xs, chart_frames(chart))))
    return DifferentialForm(out, chart)


def _one_form_components(a: DifferentialForm):
    table = a.chart.table
    if any(table.frame_degree(key) != 1 for key in a.expr.terms):
        raise ValueError("shift needs a pure one-form")
    comps = []
    for xi in chart_frames(a.chart):
        # coefficients sit to the left of xi, so strip from the right
        comp = a.expr.right_diff(xi)
        if not comp.is_odd():
            raise ParityError("shift one-form must be odd-valued")
        comps.append(comp)
    return comps


def one_form_shift(a: DifferentialForm, s: Semidensity) -> Semidensity:
    """s(x, theta_i + a_i) for an odd-valued one-form a."""
    chart = s.chart
    table = chart.table
    comps = _one_form_components(a)
    binds = {th: SuperExpr.symbol(table, th) + comp
             for th, comp in zip(chart.thetas, comps)}
    return Semidensity(s.coefficient.substitute(binds), chart)


def one_form_shift_form(a: DifferentialForm,
                        w: DifferentialForm) -> DifferentialForm:
    """Form-level shift, computed through the transform."""
    return tau_sharp_inverse(one_form_shift(a, tau_sharp(w)))


def one_form_shift_series(a: DifferentialForm,
                          w: DifferentialForm) -> DifferentialForm:
    """Independent wedge-series route: sum_p a^p / p! wedge w."""
    series = nilpotent_series(w.expr, lambda t: a.expr * t,
                              lambda p: Fraction(1, math.factorial(p)))
    return DifferentialForm(series, w.chart)


def star(w1: DifferentialForm, w2: DifferentialForm) -> DifferentialForm:
    """Product-square-root operation on forms with nonzero top parts."""
    s1 = tau_sharp(w1)
    s2 = tau_sharp(w2)
    product = s1.coefficient * s2.coefficient
    if product.body().is_zero:
        raise ScalarError("both top components must be nonzero")
    root = product.sqrt_series()
    return tau_sharp_inverse(Semidensity(root, w1.chart))


def divergence(field: MultivectorField, w: DifferentialForm) -> SuperExpr:
    """(1/rho) d_i (rho X^i) for a vector field against a top form."""
    chart = w.chart
    table = chart.table
    if any(table.frame_degree(key) != chart.n for key in w.expr.terms):
        raise ValueError("weight comes from a pure top-degree form")
    # rho up to a sign, which (1/rho) d_i (rho X^i) does not see
    rho = w.expr.berezin_integral(chart_frames(chart))
    if rho.body().is_zero:
        raise ScalarError("degenerate top form")
    rho_inv = rho.invert_even()
    total = sum_of(table, ((rho * field.expr.diff(th)).diff(x)
                           for x, th in zip(chart.xs, chart.thetas)))
    return rho_inv * total


# -- rendering ------------------------------------------------------------------


def render_form(w: DifferentialForm) -> str:
    """dx-wedge notation with ascending indices."""
    chart = w.chart
    table = chart.table
    frames = chart_frames(chart)
    slot_by_index = {table.odd_index(xi): k for k, xi in enumerate(frames)}
    pieces = []
    for key in sorted(w.expr.terms, key=lambda k: (len(k), k)):
        coeff = w.expr.terms[key]
        frame_part = [i for i in key if i in slot_by_index]
        rest = tuple(i for i in key if i not in slot_by_index)
        # the key holds the frame odds before the aux odds; the text
        # puts the aux odds in the lead, in front of the wedge
        if len(frame_part) * len(rest) % 2:
            coeff = -coeff
        wedge = "^".join(f"d{chart.xs[slot_by_index[i]]}"
                         for i in frame_part)
        # a lead with odd factors is a product; a bare coefficient is as
        # safe a factor as render_scalar says
        text, safe = render_scalar(coeff)
        lead = render_product(text, safe,
                              "*".join(table.odd_name(i) for i in rest))
        pieces.append(render_product(lead, safe or bool(rest), wedge))
    return join_signed(pieces)
