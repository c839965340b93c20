"""Constructive normalization of an odd bracket to canonical form.

The structure in the current coordinates is summarized by three matrices

    E^{ij} = {x^i, x^j}    odd, symmetric
    F_{ij} = {th_i, th_j}  odd, antisymmetric
    A^i_j  = {x^i, th_j} = delta^i_j + P^i_j   even, invertible body

and coordinates are graded by the class (p, q): E = O(theta^p),
P = O(theta^q).  Four normalization maps walk the class lattice up to
(n+1, n+1), after which F depends on x alone and is closed, and a final
gradient shift of theta kills it.  Every step recomputes the bracket in
the new coordinates through the step's exact inverse, and every class
transition is re-verified from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import Scalar, binomial_half
from .superexpr import SuperExpr
from .symbols import Chart
from .symplectic import (CanonicityError, OddSymplecticStructure,
                         ResidualReport, SuperMap, invert_map, is_canonical,
                         mat_det, mat_inv, mat_mul, pushforward_matrix,
                         theta_linear, theta_rescale_integral, theta_shift)


@dataclass
class StructureMatrices:
    E: list
    F: list
    A: list
    P: list
    p_class: int
    q_class: int


def _matrix_order(entries, cap):
    order = cap
    for row in entries:
        for entry in row:
            order = min(order, entry.theta_order())
    return int(min(order, cap))


def structure_matrices(omega: OddSymplecticStructure, chart: Chart):
    n = chart.n
    table = chart.table
    m = omega.matrix
    E = [[m[i][j] for j in range(n)] for i in range(n)]
    F = [[m[n + i][n + j] for j in range(n)] for i in range(n)]
    A = [[m[i][n + j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if E[i][j] != E[j][i]:
                raise ValueError("even-even brackets must be symmetric")
            if F[i][j] != -F[j][i]:
                raise ValueError("odd-odd brackets must be antisymmetric")
    delta = [[SuperExpr.one(table) if i == j else SuperExpr.zero(table)
              for j in range(n)] for i in range(n)]
    P = [[A[i][j] - delta[i][j] for j in range(n)] for i in range(n)]
    body = [[A[i][j].body() for j in range(n)] for i in range(n)]
    if mat_det(body).is_zero:
        raise CanonicityError("structure body is degenerate")
    cap = table.n_theta + 1
    return StructureMatrices(E, F, A, P, _matrix_order(E, cap),
                             _matrix_order(P, cap))


def solve_R(E, F, table):
    """Symmetric odd solution of 2R + RFR = E by the square-root series.

    R = sum_k c_k (EF)^k E with sum c_k t^k = (sqrt(1+t) - 1)/t, i.e.
    c_0 = 1/2, c_1 = -1/8, ...; the series is finite by nilpotency and
    the residual is re-checked exactly.
    """
    n = len(E)
    for mat in (E, F):
        for row in mat:
            for entry in row:
                if entry and not entry.is_odd():
                    raise ValueError("structure matrices must be odd-valued")
    bound = max(n * (n - 1) // 2, table.total_odds // 2 + 1)
    R = [[SuperExpr.zero(table) for _ in range(n)] for _ in range(n)]
    term = E
    for k in range(bound + 1):
        coeff = Scalar.from_fraction(table, binomial_half(k + 1))
        nonzero = False
        for i in range(n):
            for j in range(n):
                piece = coeff * term[i][j]
                if piece:
                    nonzero = True
                R[i][j] = R[i][j] + piece
        if not nonzero and k > 0:
            break
        term = mat_mul(mat_mul(term, F), E)
    residual = _solve_r_residual(R, E, F, table)
    for i in range(n):
        for j in range(n):
            if not residual[i][j].is_zero:
                raise CanonicityError("series solution failed the residual")
            if R[i][j] != R[j][i]:
                raise CanonicityError("solution lost its symmetry")
    return R


def _solve_r_residual(R, E, F, table):
    n = len(E)
    RFR = mat_mul(mat_mul(R, F), R)
    return [[R[i][j] * 2 + RFR[i][j] - E[i][j] for j in range(n)]
            for i in range(n)]


def _new_structure(omega, chart, fmap, inverse_targets):
    return OddSymplecticStructure(
        chart, pushforward_matrix(fmap, inverse_targets, omega), check=False)


def darboux_step(kind, omega: OddSymplecticStructure, chart: Chart):
    """One normalization map; returns (map, new structure)."""
    table = chart.table
    n = chart.n
    sm = structure_matrices(omega, chart)
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
        return SuperMap.identity(chart), omega
    fmap = SuperMap(chart, chart, targets, kind=f"darboux-{kind}",
                    check=False)
    new_omega = _new_structure(omega, chart, fmap, invert_map(fmap).targets)
    _check_transition(kind, sm, structure_matrices(new_omega, chart), chart)
    return fmap, new_omega


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
    A_j = sum_i int_0^1 x^i F_ij(t x) t dt, evaluated monomial by
    monomial as division by (x-degree + 2).
    """
    from sympy.polys.domains import ZZ

    table = chart.table
    n = chart.n
    x_index = {table.even_index(x) for x in chart.xs}
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
    potential = [SuperExpr.zero(table) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            entry = fmat[i][j]
            if entry.is_zero:
                continue
            for key, c in entry.terms.items():
                if not c.is_polynomial():
                    raise CanonicityError("pipeline needs polynomial data")
                den = int(c.f.denom.coeff(1))
                for mono, icoeff in c.numer_terms:
                    m = sum(p for idx, p in enumerate(mono)
                            if idx in x_index)
                    scal = Scalar(table, table.field(
                        table.field.ring.from_dict({tuple(mono): ZZ(1)})))
                    scal = scal * Scalar.from_fraction(
                        table, Fraction(icoeff, den * (m + 2)))
                    piece = SuperExpr(table, {key: scal}) * \
                        SuperExpr.symbol(table, chart.xs[i])
                    potential[j] = potential[j] + piece
    return potential


@dataclass
class PipelineResult:
    steps: list
    composite: SuperMap
    final_omega: OddSymplecticStructure
    report: ResidualReport

    @property
    def ok(self):
        return self.report.ok


def darboux_pipeline(omega: OddSymplecticStructure, chart: Chart):
    """Full normalization; the composite map sends the given structure to
    the canonical one, verified through the bracket residuals."""
    table = chart.table
    cap = table.n_theta + 1
    state = omega
    composite = SuperMap.identity(chart)
    steps = []

    def run(kind):
        nonlocal state, composite
        fmap, state = darboux_step(kind, state, chart)
        if not fmap.is_identity():
            steps.append((kind, fmap))
            composite = fmap.compose(composite)

    sm = structure_matrices(state, chart)
    if sm.q_class == 0:
        run("F1")
        sm = structure_matrices(state, chart)
    if sm.p_class == 0:
        run("F2")
        sm = structure_matrices(state, chart)
        if sm.q_class == 0:
            run("F1")
            sm = structure_matrices(state, chart)
    guard = 0
    while sm.p_class < cap:
        run("F3")
        new_sm = structure_matrices(state, chart)
        if new_sm.p_class <= sm.p_class:
            raise CanonicityError("normalization stalled on E")
        sm = new_sm
        guard += 1
        if guard > cap:
            raise CanonicityError("too many E-normalization steps")
    guard = 0
    while sm.q_class < cap:
        run("F4")
        new_sm = structure_matrices(state, chart)
        if new_sm.q_class <= sm.q_class:
            raise CanonicityError("normalization stalled on P")
        sm = new_sm
        guard += 1
        if guard > cap:
            raise CanonicityError("too many P-normalization steps")

    if any(entry for row in sm.F for entry in row):
        potential = two_form_potential(sm.F, chart)
        # not a special map: dA is the two-form being killed, not zero
        shift = theta_shift(chart, potential, "darboux-shift")
        state = _new_structure(state, chart, shift, shift.inverse_targets)
        steps.append(("shift", shift))
        composite = shift.compose(composite)

    final = structure_matrices(state, chart)
    if final.p_class < cap or final.q_class < cap or \
            any(entry for row in final.F for entry in row):
        raise CanonicityError("pipeline did not reach canonical form")
    ok, report = is_canonical(composite, omega)
    if not ok:
        raise CanonicityError("composite map failed the bracket check")
    return PipelineResult(steps, composite, state, report)
