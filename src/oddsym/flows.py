"""Graded integration of odd Hamiltonian flows and its inverse problem.

The flow equations

    dy^i/dt = {Q, y^i} = -dQ/dth_i,      deta_j/dt = {Q, eta_j} = dQ/dx^j

are solved by Picard iteration in the nilpotent filtration: every pass
gains at least one unit of odd weight, so the iteration reaches a fixed
point after finitely many rounds and the result is an exact polynomial in
the formal time symbol.
"""

from __future__ import annotations

from fractions import Fraction

from .bv import delta0, delta_sharp, moser_hamiltonian
from .scalars import Scalar, ScalarError
from .superexpr import ParityError, SuperExpr
from .symbols import Chart
from .symplectic import (CanonicityError, Semidensity, SuperMap,
                         graded_fixed_point, hamiltonian_field, is_canonical,
                         pullback_semidensity, theta_rescale_integral)


class FlowHamiltonian:
    """Odd generator with no theta-linear component.

    A theta-linear part would produce genuine even-variable differential
    equations whose solutions leave the rational function field; those
    transformations are built directly as point maps instead.
    """

    def __init__(self, expr: SuperExpr, chart: Chart, time_name=None):
        if not expr.is_odd():
            raise ParityError("flow generator must be odd")
        if not expr.homogeneous_part(1).is_zero:
            raise CanonicityError(
                "theta-linear generators are outside the integrable class")
        self.expr = expr
        self.chart = chart
        self.time_name = time_name

    def theta_profile(self):
        return sorted({expr_degree for expr_degree in
                       (self.expr.theta_degree_of_key(k)
                        for k in self.expr.terms)})


def _integrate_time(expr, time_name):
    out = {}
    for key, coeff in expr.terms.items():
        out[key] = coeff.integrate_monomial(time_name)
    return SuperExpr(expr.table, {k: v for k, v in out.items()
                                  if not v.is_zero})


def _formal_flow(q, chart, time_name):
    """The generator, its Hamiltonian field and the flow targets, still in
    the formal time symbol."""
    if isinstance(q, FlowHamiltonian):
        q = q.expr
    else:
        q = FlowHamiltonian(q, chart, time_name).expr
    table = chart.table
    if not table.is_even(time_name):
        raise ScalarError(f"table has no even time symbol {time_name!r}")
    names = chart.coordinate_names
    coords = [SuperExpr.symbol(table, name) for name in names]
    ham = hamiltonian_field(q, chart)

    def update(current):
        binds = dict(zip(names, current))
        return [z + _integrate_time(component.substitute(binds), time_name)
                for z, component in zip(coords, ham)]

    current = graded_fixed_point(update, coords, table, "flow integration")
    return q, ham, current


def _at_time(targets, t_value, time_name, sign=1):
    """The targets at time sign * t_value (t_value may be "formal")."""
    table = targets[0].table
    if t_value == "formal":
        if sign > 0:
            return list(targets)
        image = -SuperExpr.symbol(table, time_name)
    else:
        image = SuperExpr.constant(table, sign * Fraction(t_value))
    return [tgt.substitute({time_name: image}) for tgt in targets]


def flow_targets(q, chart, t_value=1, time_name="t"):
    """The targets of ``exp_flow(q, chart, t_value, time_name)`` alone,
    without the inverse map that ``exp_flow`` also builds."""
    return _at_time(_formal_flow(q, chart, time_name)[2], t_value, time_name)


def exp_flow(q, chart: Chart, t_value=1, time_name="t"):
    """Exact flow map of an odd generator, polynomial in time.

    ``t_value`` may be a rational number or the string "formal", in which
    case the map keeps the symbolic time variable.  Time-dependent
    generators are supported as polynomials in that same symbol; for the
    others the inverse map is the flow at time -t_value.
    """
    q, ham, current = _formal_flow(q, chart, time_name)
    table = chart.table
    inverse = None
    if not any(c.depends_on(time_name) for comp in ham
               for c in comp.scalars()):
        inverse = _at_time(current, t_value, time_name, sign=-1)
    identity_body = [Scalar.symbol(table, x) for x in chart.xs]
    return SuperMap(chart, chart, _at_time(current, t_value, time_name),
                    body_inverse=identity_body, kind="flow",
                    inverse_targets=inverse, check=False)


def _delta_map(chart, components):
    """-sum_i th_i int_0^1 f^i(x, tau th) dtau.

    Every caller's components have no theta-free part (an adjusted map's
    displacement, or its difference from a flow of an O(theta^2)
    generator), so the degree-0 term of the integral is zero.
    """
    table = chart.table
    total = SuperExpr.zero(table)
    for th, comp in zip(chart.thetas, components):
        total = total - SuperExpr.symbol(table, th) * \
            theta_rescale_integral(comp, 0, table)
    return total


def hamiltonian_from_adjusted(fmap: SuperMap, time_name="t"):
    """The unique O(theta^2) generator whose unit-time flow is the map.

    Built by graded correction: seed with the delta map of the even
    displacement components, re-flow, and repeat; each round fixes one
    more theta-degree, and uniqueness makes the fixed point the answer.
    """
    chart = fmap.source
    table = chart.table
    n = chart.n
    for i in range(n):
        if fmap.targets[i].homogeneous_part(0) != \
                SuperExpr.symbol(table, chart.xs[i]):
            raise CanonicityError("map is not adjusted")
        if not fmap.targets[n + i].homogeneous_part(0).is_zero:
            raise CanonicityError("map is not adjusted")
    ok, _ = is_canonical(fmap)
    if not ok:
        raise CanonicityError("map is not canonical")

    displacement = [fmap.targets[i] - SuperExpr.symbol(table, chart.xs[i])
                    for i in range(n)]
    q = _delta_map(chart, displacement)
    for _ in range(table.n_theta + 2):
        targets = flow_targets(q, chart, 1, time_name)
        if targets == list(fmap.targets):
            return q
        error = [fmap.targets[i] - targets[i] for i in range(n)]
        correction = _delta_map(chart, error)
        if correction.is_zero:
            raise CanonicityError(
                "no O(theta^2) generator reproduces the map")
        q = q + correction
    raise CanonicityError("generator recursion did not converge")


def moser_flow(s: Semidensity, r: Semidensity, time_name="t"):
    """Flow transporting s + delta r back to s, with its exact residual.

    The generator is r/(s + t delta r); with this sign the operational
    pull-back (substitute targets, multiply by the Berezinian root) of
    s + delta r along the unit-time flow returns s on the nose.
    """
    chart = s.chart
    closed = delta_sharp(s)
    if not closed.coefficient.is_zero:
        raise CanonicityError("transported semidensity must be closed")
    if r.coefficient.theta_order() < 2:
        raise CanonicityError("deformation direction must be O(theta^2)")
    q = -moser_hamiltonian(s, r, time_name)
    flow = exp_flow(q, chart, 1, time_name)
    target = Semidensity(s.coefficient + delta0(r.coefficient, chart), chart)
    residual = pullback_semidensity(flow, target).coefficient - s.coefficient
    return flow, residual
