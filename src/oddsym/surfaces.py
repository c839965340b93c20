"""Pull-back invariants on codimension-(1.1) surfaces.

A surface is presented through an adjusted Darboux chart: one conjugate
pair (x0, th0) is distinguished and the surface is its common zero locus;
the remaining pairs form a Darboux chart for the induced structure.  The
pull-back of a semidensity differentiates once along th0 and restricts,
flipping parity; combined with the flat operator it produces the two
weight-one surface densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bv import VolumeForm, delta_sharp, delta_vol
from .scalars import Scalar
from .superexpr import ParityError, SuperExpr
from .symbols import Chart
from .symplectic import Semidensity, bracket


@dataclass(frozen=True)
class AdjustedSurface:
    chart: Chart
    x0: str
    theta0: str

    def __post_init__(self):
        if self.x0 not in self.chart.xs or \
                self.theta0 not in self.chart.thetas:
            raise ValueError("distinguished pair must belong to the chart")
        if self.chart.xs.index(self.x0) != \
                self.chart.thetas.index(self.theta0):
            raise ValueError("x0 and theta0 must be a conjugate pair")

    @property
    def slot(self):
        return self.chart.xs.index(self.x0)

    def induced_chart(self):
        keep = [k for k in range(self.chart.n) if k != self.slot]
        return Chart(self.chart.table,
                     tuple(self.chart.xs[k] for k in keep),
                     tuple(self.chart.thetas[k] for k in keep))

    def restrict(self, expr):
        table = self.chart.table
        return expr.substitute({self.x0: SuperExpr.zero(table),
                                self.theta0: SuperExpr.zero(table)})


def pullback_K(s: Semidensity, surface: AdjustedSurface):
    """d(coefficient)/d th0 restricted to the surface; parity flips."""
    if s.chart != surface.chart:
        raise ValueError("semidensity lives on a different chart")
    coeff = surface.restrict(s.coefficient.diff(surface.theta0))
    return Semidensity(coeff, surface.induced_chart())


def dual_density(f, phi, dv: VolumeForm, surface: AdjustedSurface):
    """Surface semidensity of a pair of cut-out functions.

    For an even f and odd phi vanishing on the surface,

      (1/sqrt{f,phi}) ( delta_dv f - ({f,f}/2{f,phi}) delta_dv phi
          - {f,{f,phi}}/{f,phi} - ({f,f}/2{f,phi}^2) {phi,{f,phi}} )

    restricted to the surface.  The bracket {f,phi} must have an
    invertible body that is a perfect square.
    """
    chart = dv.chart
    table = chart.table
    if not f.is_even() or not phi.is_odd():
        raise ParityError("the cut-out pair must be (even, odd)")
    w = bracket(f, phi, chart)
    if w.body().is_zero:
        raise ValueError("degenerate pair: {f,phi} has no body")
    w_inv = w.invert_even()
    root_inv = w.sqrt_even().invert_even()
    half = Scalar.from_fraction(table, Fraction(1, 2))
    ff = bracket(f, f, chart)
    out = delta_vol(f, dv)
    out = out - half * ff * w_inv * delta_vol(phi, dv)
    out = out - bracket(f, w, chart) * w_inv
    out = out - half * ff * w_inv * w_inv * bracket(phi, w, chart)
    out = root_inv * out
    return Semidensity(surface.restrict(out), surface.induced_chart())


def densities_P(dv: VolumeForm, surface: AdjustedSurface):
    """The two weight-one surface densities built from sqrt(dv).

    P0 = K(delta sqrt dv)^2 is even-valued, P1 = K(sqrt dv) K(delta
    sqrt dv) is odd-valued; both vanish when sqrt(dv) is closed.
    """
    chart = dv.chart
    s = Semidensity(dv.root, chart)
    ks = pullback_K(s, surface)
    kd = pullback_K(delta_sharp(s), surface)
    p0 = kd.coefficient * kd.coefficient
    p1 = ks.coefficient * kd.coefficient
    return p0, p1
