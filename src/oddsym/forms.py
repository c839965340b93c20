"""Dictionary between base-manifold calculus and superspace objects.

Multivector fields are functions of (x, theta); differential forms are
functions of (x, xi) where the frame odds xi transform like dx.  The two
sides are tied together by

    tau       multivector  ->  function      (the shared representation:
                                              ``MultivectorField.expr``)
    tau_sharp form         ->  semidensity   (Berezin transform against
                                              exp(theta_i xi^i))

and every operation here is calibrated so the low-dimensional mapping
table comes out exactly: for n = 2,

    f(x)            ->  f th1*th2
    w1 dx1 + w2 dx2 ->  w1 th2 - w2 th1
    w dx1^dx2       ->  -w
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .grammar import join_signed, render_expr
from .scalars import ScalarError
from .superexpr import (ParityError, SuperExpr, nilpotent_series, sum_of,
                        sum_of_products)
from .symbols import Chart
from .symplectic import Semidensity, bracket


@dataclass
class MultivectorField:
    expr: SuperExpr
    chart: Chart

    def __post_init__(self):
        if any(map(self.chart.table.frame_degree, self.expr.terms)):
            raise ValueError("multivector fields carry no frame odds")


@dataclass
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

    def xi_degree(self):
        return max(map(self.chart.table.frame_degree, self.expr.terms),
                   default=0)


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


# One entry: a caller's tau_sharp calls on one chart come in a row (in
# verify, 377 calls on 11 charts, each chart's calls together).
@functools.lru_cache(maxsize=1)
def _exp_kernel(chart):
    """prod_i (1 + th_i xi_i) over the chart; SuperExpr is immutable, so
    callers share the cached one."""
    table = chart.table
    out = SuperExpr.one(table)
    for th, xi in zip(chart.thetas, chart_frames(chart)):
        out = out * (SuperExpr.one(table)
                     + SuperExpr.symbol(table, th)
                     * SuperExpr.symbol(table, xi))
    return out


def tau_sharp(w: DifferentialForm) -> Semidensity:
    """Berezin transform of the form against exp(theta_i xi^i).

    The xi integration runs in reversed coordinate order, which is the
    one normalization making the n = 2 table exact.
    """
    chart = w.chart
    frames = chart_frames(chart)
    integrand = w.expr * _exp_kernel(chart)
    coeff = integrand.berezin_integral(list(reversed(frames)))
    return Semidensity(coeff, chart)


def basis_sign(slots):
    """The sign s with tau_sharp(xi_T) = s theta_{T complement}, for the
    increasing frame slots T counted from 0: (-1)^(sum(i + 1) + |T|),
    which is (-1)^(sum of the slots)."""
    return -1 if sum(slots) % 2 else 1


def tau_sharp_inverse(s: Semidensity) -> DifferentialForm:
    """Recover the form with tau_sharp(w) = s on a full Darboux chart."""
    chart = s.chart
    table = chart.table
    frames = chart_frames(chart)
    slot_of = {table.odd_index(th): k for k, th in enumerate(chart.thetas)}
    raw = []
    for key, c in s.coefficient.terms.items():
        if table.frame_degree(key):
            raise ValueError("semidensity coefficient carries frame odds")
        theta_part = key[:table.theta_degree(key)]
        aux_part = key[len(theta_part):]
        try:
            slots = {slot_of[i] for i in theta_part}
        except KeyError:
            raise ValueError("coefficient uses odds outside the chart") \
                from None
        xi_slots = [i for i in range(chart.n) if i not in slots]
        sign = basis_sign(xi_slots)
        if (len(slots) * len(aux_part)) % 2:
            sign = -sign
        names = [table.odd_name(i) for i in aux_part] + \
            [frames[i] for i in xi_slots]
        raw.append((c if sign > 0 else -c, names))
    w = DifferentialForm(SuperExpr.from_raw_terms(table, raw), chart)
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
    chart = a.chart
    if a.xi_degree() > 1 or a.degree_part(0).expr:
        raise ValueError("shift needs a pure one-form")
    frames = chart_frames(chart)
    comps = []
    for xi in frames:
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
    top = w.degree_part(chart.n)
    if top.expr != w.expr:
        raise ValueError("weight comes from a pure top-degree form")
    frames = chart_frames(chart)
    rho = w.expr
    for xi in reversed(frames):
        rho = rho.diff(xi)
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
        wedge = "^".join(f"d{chart.xs[slot_by_index[i]]}"
                         for i in frame_part)
        lead = SuperExpr(table, {rest: coeff})
        text = render_expr(lead)
        if wedge:
            if text == "1":
                text = wedge
            elif text == "-1":
                text = "-" + wedge
            else:
                if " + " in text or " - " in text:
                    text = f"({text})"
                text = f"{text}*{wedge}"
        pieces.append(text)
    return join_signed(pieces)
