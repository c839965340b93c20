"""Odd Hamiltonian flows and their inverse problem, as finite Lie series.

An odd generator Q with no theta-linear part has the even field
X = {Q, -}, which raises odd weight.  The flow of

    dy^i/dt = {Q, y^i} = -dQ/dth_i,      deta_j/dt = {Q, eta_j} = dQ/dx^j

is therefore the finite Lie series

    z^A(t) = sum_k t^k/k! (Y^k z^A)|_{t=0},     Y = X + d/dt,

where d/dt enters only when Q depends on the time symbol.  Its inverse
problem is the finite logarithm X = log F* = sum_k (-1)^(k+1)/k (F* - id)^k
of the unit-time pull-back F*.
"""

from __future__ import annotations

from fractions import Fraction

from .bv import delta0, delta_sharp, moser_hamiltonian
from .polys import _degrees, _involves
from .scalars import EvenImages, Scalar, ScalarError
from .superexpr import (ParityError, Pullback, SuperExpr, nilpotent_series,
                        sum_of_products)
from .symbols import TIME_SYMBOL, Chart
from .symplectic import (CanonicityError, Semidensity, SuperMap,
                         adjusted_map, hamiltonian_field, is_canonical,
                         pullback_semidensity, theta_rescale_integral)


def _time_degree(q):
    """The degree of ``q`` in the time symbol, which may not divide."""
    idx = q.table.even_index(TIME_SYMBOL)
    degree = 0
    for c in q.scalars():
        if c.integer_denominator() is None and _involves(c.denom, (idx,)):
            raise ScalarError(f"denominator depends on {TIME_SYMBOL}")
        degree = max(degree, _degrees(c.numer)[idx])
    return degree


def _series(q, chart, t_value):
    """The Lie series table [(Y^k z^A)|_{t=0} for A] by k, the time to sum
    it at, and whether the field depends on time.

    X raises odd weight by at least one and d/dt lowers the time degree,
    which X raises by at most that of Q, so Y^k z^A vanishes once k
    exceeds the table's odd weight times (time degree of Q + 1).
    """
    if not q.is_odd():
        raise ParityError("flow generator must be odd")
    # a theta-linear part would give even-variable differential equations
    # whose solutions leave the rational function field; point maps build
    # those transformations instead
    if not q.homogeneous_part(1).is_zero:
        raise CanonicityError(
            "theta-linear generators are outside the integrable class")
    table = chart.table
    if not table.is_even(TIME_SYMBOL):
        raise ScalarError(f"table has no even time symbol {TIME_SYMBOL!r}")
    time = SuperExpr.symbol(table, TIME_SYMBOL) if t_value == "formal" \
        else Fraction(t_value)
    bound = table.odd_weight * (_time_degree(q) + 1)
    names = chart.coordinate_names
    ham = hamiltonian_field(q, chart)
    timed = any(c.depends_on(TIME_SYMBOL) for comp in ham
                for c in comp.scalars())
    at_zero = EvenImages(table, {TIME_SYMBOL: Scalar.from_int(table, 0)})

    def step(f):
        out = sum_of_products(table, zip(ham, map(f.diff, names)))
        return f.diff(TIME_SYMBOL) + out if timed else out

    def at_start(f):
        return SuperExpr(table, {k: v for k, c in f.terms.items()
                                 if (v := at_zero(c))})

    current = [SuperExpr.symbol(table, name) for name in names]
    series = []
    for _ in range(bound + 1):
        series.append([at_start(f) for f in current] if timed else current)
        current = [step(f) for f in current]
        if not any(current):
            return series, time, timed
    raise CanonicityError("flow series did not terminate")


def _summed(series, time):
    """sum_k time^k/k! series[k], for a rational or SuperExpr time."""
    table = series[0][0].table
    factors = []
    power = 1
    for k in range(1, len(series)):
        power = power * time / k
        factors.append(power if isinstance(power, SuperExpr)
                       else SuperExpr.constant(table, power))
    return [start + sum_of_products(table, zip(factors, rest))
            for start, *rest in zip(*series)]


def exp_flow(q, chart: Chart, t_value=1):
    """Exact flow map of an odd generator, summed as its Lie series.

    ``t_value`` may be a rational number or the string "formal", in which
    case the map keeps the symbolic time variable ``TIME_SYMBOL``.
    Time-dependent generators are supported as polynomials in that same
    symbol.  For the others the inverse map is the same series summed at
    -t_value; a time-dependent flow's is peeled off its targets.  Either
    is built on its first read.
    """
    series, time, timed = _series(q, chart, t_value)
    return SuperMap(chart, chart, _summed(series, time),
                    recipe=None if timed else lambda: _summed(series, -time))


def _delta_map(chart, components):
    """-sum_i th_i int_0^1 f^i(x, tau th) dtau.

    The components, the x-part of the field of an adjusted map's
    generator, have no theta-free part, so the degree-0 term of the
    integral is zero.
    """
    table = chart.table
    return -sum_of_products(table, (
        (SuperExpr.symbol(table, th), theta_rescale_integral(comp, 0, table))
        for th, comp in zip(chart.thetas, components)))


def hamiltonian_from_adjusted(fmap: SuperMap):
    """The unique O(theta^2) generator whose unit-time flow is the map.

    The x-components of its field are the finite logarithm
    X(x_i) = sum_k (-1)^(k+1)/k (F* - id)^k(x_i), where F* substitutes the
    map's bindings and raises odd weight on an adjusted canonical map;
    ``_delta_map`` reads the generator off them, and one unit-time flow
    checks that it reproduces the map.
    """
    chart = fmap.source
    table = chart.table
    adjusted_map(chart, fmap.targets)  # raises unless the map is adjusted
    if not is_canonical(fmap).ok:
        raise CanonicityError("map is not canonical")

    # a pull-back of its own rather than the kept ``fmap.pullback``: the
    # map may belong to a loaded manifest, which requests share unchanged
    pull = Pullback(table, fmap.bindings())
    field = [nilpotent_series(
        SuperExpr.symbol(table, x), lambda f: pull(f) - f,
        lambda k: Fraction((-1) ** (k + 1), k) if k else 0) for x in chart.xs]
    q = _delta_map(chart, field)
    if exp_flow(q, chart).targets != fmap.targets:
        raise CanonicityError("no O(theta^2) generator reproduces the map")
    return q


def moser_flow(s: Semidensity, r: Semidensity):
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
    q = -moser_hamiltonian(s, r)
    flow = exp_flow(q, chart, 1)
    target = Semidensity(s.coefficient + delta0(r.coefficient, chart), chart)
    residual = pullback_semidensity(flow, target).coefficient - s.coefficient
    return flow, residual
