"""Constructive normalization of an odd bracket to canonical form.

The structure in the current coordinates is summarized by three matrices

    E^{ij} = {x^i, x^j}    odd, symmetric
    F_{ij} = {th_i, th_j}  odd, antisymmetric
    A^i_j  = {x^i, th_j} = delta^i_j + P^i_j   even, invertible body

and coordinates are graded by the class (p, q): E = O(theta^p),
P = O(theta^q).  Four normalization maps walk the class lattice up to
(n+1, n+1), after which F depends on x alone and is closed, and a final
gradient shift of theta kills it.

Every structure on the walk checks its parities, graded antisymmetry
and body when it is built.  Beyond that, three checks run, one per fact.
Each step must make its class transition, recomputed from the bracket in
the new coordinates; the last structure must be the canonical matrix;
and the brackets of the composite's targets, taken under the input
structure, must equal the canonical ones (``is_canonical``).  The first
two raise; the third is the pipeline's report, whose nonzero residuals
the caller shows.  Step inverses are not re-verified: they only serve to
write each intermediate structure in its new coordinates, and the last
check reads no inverse, so a wrong inverse can stop the walk but cannot
pass a wrong composite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import binomial_half
from .superexpr import SuperExpr, sum_of_products
from .symbols import Chart
from .symplectic import (CanonicityError, OddSymplecticStructure,
                         ResidualReport, SuperMap, is_canonical, mat_inv,
                         mat_mul, pushforward_matrix, theta_linear,
                         theta_rescale_integral, theta_shift)


@dataclass(frozen=True)
class StructureMatrices:
    omega: OddSymplecticStructure
    E: tuple
    F: tuple
    A: tuple
    P: tuple
    p_class: int
    q_class: int


def _matrix_order(entries, cap):
    order = cap
    for row in entries:
        for entry in row:
            order = min(order, entry.theta_order())
    return int(min(order, cap))


def structure_matrices(omega: OddSymplecticStructure, chart: Chart):
    """The blocks E, F, A, P of ``omega`` and its class; the symmetry of E
    and F and the invertible body of A were checked when ``omega`` was
    built.  The walk reads each structure once and hands its blocks on
    from step to step."""
    n = chart.n
    table = chart.table
    m = omega.matrix
    E = tuple(m[i][:n] for i in range(n))
    F = tuple(m[n + i][n:] for i in range(n))
    A = tuple(m[i][n:] for i in range(n))
    delta = [[SuperExpr.one(table) if i == j else SuperExpr.zero(table)
              for j in range(n)] for i in range(n)]
    P = tuple(tuple(A[i][j] - delta[i][j] for j in range(n))
              for i in range(n))
    cap = table.n_theta + 1
    return StructureMatrices(omega, E, F, A, P, _matrix_order(E, cap),
                             _matrix_order(P, cap))


def solve_R(E, F, table):
    """Symmetric odd solution of 2R + RFR = E by the square-root series.

    R = sum_k c_k (EF)^k E with sum c_k t^k = (sqrt(1+t) - 1)/t, i.e.
    c_0 = 1/2, c_1 = -1/8, ...; the series is finite by nilpotency and
    the residual is re-checked exactly.  E and F are odd-valued: the
    blocks of a structure, whose constructor checked their parity, or
    odd parts.
    """
    n = len(E)
    series = []  # (c_k, (EF)^k E)
    term = E
    # (EF)^k E has at least 2k + 1 odd factors, so it vanishes once 2k + 1
    # exceeds the number of odd symbols, before k reaches the odd weight
    for k in range(table.odd_weight + 1):
        if k > 0 and not any(entry for row in term for entry in row):
            break
        series.append((SuperExpr.constant(table, binomial_half(k + 1)), term))
        term = mat_mul(mat_mul(term, F), E)
    R = [[sum_of_products(table, ((c, t[i][j]) for c, t in series))
          for j in range(n)] for i in range(n)]
    residual = _solve_r_residual(R, E, F)
    for i in range(n):
        for j in range(n):
            if not residual[i][j].is_zero:
                raise CanonicityError("series solution failed the residual")
            if R[i][j] != R[j][i]:
                raise CanonicityError("solution lost its symmetry")
    return R


def _solve_r_residual(R, E, F):
    n = len(E)
    RFR = mat_mul(mat_mul(R, F), R)
    return [[R[i][j] * 2 + RFR[i][j] - E[i][j] for j in range(n)]
            for i in range(n)]


def darboux_step(kind, sm: StructureMatrices, chart: Chart):
    """One normalization map of the structure whose blocks are ``sm``;
    returns (map, blocks of the new structure).

    The new structure must show the class transition of ``kind``.  A step
    that comes out as the identity returns ``sm`` itself and is held to
    the same transition, so it fails wherever the step was needed.
    """
    table = chart.table
    n = chart.n
    xs = [SuperExpr.symbol(table, x) for x in chart.xs]
    ths = [SuperExpr.symbol(table, th) for th in chart.thetas]

    if kind == "F1":
        ainv, _ = mat_inv(sm.A, SuperExpr.invert_even)
        targets = xs + [theta_linear(ths, ainv, j) for j in range(n)]
    elif kind == "F2":
        if sm.q_class < 1:
            raise CanonicityError("F2 needs A = id + O(theta)")
        R = solve_R(sm.E, sm.F, table)
        targets = [xs[i] - theta_linear(ths, R, i)
                   for i in range(n)] + ths
    elif kind == "F3":
        if sm.p_class < 1 or sm.q_class < 1:
            raise CanonicityError("F3 needs class at least (1,1)")
        W = [[theta_rescale_integral(sm.E[m][i], 1, table)
              for i in range(n)] for m in range(n)]
        targets = [xs[i] - theta_linear(ths, W, i)
                   for i in range(n)] + ths
    elif kind == "F4":
        if sm.p_class < table.n_theta + 1:
            raise CanonicityError("F4 needs E = 0")
        if sm.q_class < 1:
            raise CanonicityError("F4 needs P = O(theta)")
        V = [[theta_rescale_integral(sm.P[m][j], 0, table)
              for j in range(n)] for m in range(n)]
        targets = xs + [ths[j] - theta_linear(ths, V, j) for j in range(n)]
    else:
        raise ValueError(f"unknown step kind {kind!r}")

    if targets == xs + ths:
        fmap, new_sm = SuperMap.identity(chart), sm
    else:
        fmap = SuperMap(chart, chart, targets)
        new_sm = structure_matrices(OddSymplecticStructure(
            chart, pushforward_matrix(fmap, sm.omega)), chart)
    _check_transition(kind, sm, new_sm, chart)
    return fmap, new_sm


def _check_transition(kind, before, after, chart):
    cap = chart.table.n_theta + 1
    ok = True
    if kind == "F1":
        ok = after.q_class >= 1 and after.p_class >= before.p_class
    elif kind == "F2":
        ok = after.p_class >= 1
    elif kind == "F3":
        ok = after.p_class >= min(before.p_class + 1, cap) \
            and after.q_class >= 1
    elif kind == "F4":
        ok = after.q_class >= min(before.q_class + 1, cap) \
            and after.p_class >= cap
    if not ok:
        raise CanonicityError(
            f"step {kind} missed its class transition "
            f"({before.p_class},{before.q_class}) -> "
            f"({after.p_class},{after.q_class})")


def two_form_potential(fmat, chart):
    """A_j with dA = F for a closed x-dependent two-form matrix.

    The degree-2 radial homotopy in closed form:
    A_j = sum_i x^i int_0^1 F_ij(t x) t dt, one ``Scalar.radial`` per
    coefficient.
    """
    table = chart.table
    n = chart.n
    for i in range(n):
        for j in range(n):
            entry = fmat[i][j]
            if entry.max_theta_degree() > 0:
                raise CanonicityError("two-form still depends on theta")
            for k in range(n):
                closed = fmat[i][j].diff(chart.xs[k]) \
                    + fmat[j][k].diff(chart.xs[i]) \
                    + fmat[k][i].diff(chart.xs[j])
                if not closed.is_zero:
                    raise CanonicityError("two-form is not closed")
    xs = [SuperExpr.symbol(table, x) for x in chart.xs]
    radial = [[SuperExpr(table, {key: c.radial(chart.xs, 2)
                                 for key, c in entry.terms.items()})
               for entry in row] for row in fmat]
    return [sum_of_products(table, ((radial[i][j], xs[i]) for i in range(n)))
            for j in range(n)]


@dataclass
class PipelineResult:
    steps: list
    composite: SuperMap
    final_omega: OddSymplecticStructure
    report: ResidualReport

    @property
    def ok(self):
        return self.report.ok


# The walk up the class lattice: each kind runs while its class
# coordinate is below its bound, where None stands for the cap n_theta + 1.
# A step that misses its transition raises, so no loop can spin.
_SCHEDULE = (("F1", "q_class", 1), ("F2", "p_class", 1), ("F1", "q_class", 1),
             ("F3", "p_class", None), ("F4", "q_class", None))


def darboux_pipeline(omega: OddSymplecticStructure, chart: Chart):
    """Full normalization; the composite map sends the given structure to
    the canonical one.

    Checked: the class transition of every step and the canonical matrix
    at the end.  The composite's bracket residuals against ``omega`` are
    the report, which the caller reads: a nonzero one is a failed check,
    not an error.  Step inverses are not re-verified (see the module
    docstring).
    """
    cap = chart.table.n_theta + 1
    sm = structure_matrices(omega, chart)
    composite = SuperMap.identity(chart)
    steps = []
    for kind, coordinate, bound in _SCHEDULE:
        while getattr(sm, coordinate) < (bound or cap):
            fmap, sm = darboux_step(kind, sm, chart)
            steps.append((kind, fmap))
            composite = fmap.compose(composite)

    state = sm.omega
    if any(entry for row in sm.F for entry in row):
        # not a special map: dA is the two-form being killed, not zero
        shift = theta_shift(chart, two_form_potential(sm.F, chart))
        state = OddSymplecticStructure(chart,
                                       pushforward_matrix(shift, state))
        steps.append(("shift", shift))
        composite = shift.compose(composite)

    if not state.is_canonical_matrix:
        raise CanonicityError("pipeline did not reach canonical form")
    return PipelineResult(steps, composite, state,
                          is_canonical(composite, omega))
