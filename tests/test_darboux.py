import hashlib
import random
from fractions import Fraction

import pytest

from oddsym import darboux
from oddsym.darboux import (darboux_pipeline, darboux_step, solve_R,
                            structure_matrices, two_form_potential)
from oddsym.grammar import parse_expr, render_expr
from oddsym.sampling import (pushforward_structure, random_expr,
                             random_messy_map)
from oddsym.scalars import Scalar, ScalarError, binomial_half
from oddsym.superexpr import SuperExpr
from oddsym.symbols import Chart, standard_table
from oddsym.symplectic import (CanonicityError, OddSymplecticStructure,
                               SuperMap, bracket)


def make_chart(n, aux=2):
    table = standard_table(n, aux=aux, extra_even=("t",))
    return Chart(table, table.even_symbols[:n], table.coordinate_odds)


def e(chart, text):
    return parse_expr(text, chart.table)


def n1_structure():
    """n = 1 chart with {x, th} = 1 + x."""
    chart = make_chart(1)
    zero = SuperExpr.zero(chart.table)
    a = e(chart, "1 + x1")
    rows = [[zero, a], [-a, zero]]
    return chart, OddSymplecticStructure(chart, rows)


def test_structure_matrices_canonical():
    chart = make_chart(2)
    omega = OddSymplecticStructure.canonical(chart)
    sm = structure_matrices(omega, chart)
    assert sm.p_class == 3 and sm.q_class == 3
    assert all(v.is_zero for row in sm.E for v in row)
    assert all(v.is_zero for row in sm.F for v in row)
    assert all(v.is_zero for row in sm.P for v in row)


def test_structure_matrices_n1_read_off():
    chart, omega = n1_structure()
    sm = structure_matrices(omega, chart)
    assert sm.A[0][0] == e(chart, "1 + x1")
    assert sm.p_class == 2 and sm.q_class == 0


def test_structure_matrices_match_pushforward_oracle():
    chart = make_chart(2)
    rng = random.Random(3)
    omega, fmap = pushforward_structure(rng, chart)
    sm = structure_matrices(omega, chart)
    from oddsym.symplectic import invert_map
    inv = invert_map(fmap)
    binds = inv.bindings()
    n = chart.n
    for i in range(n):
        for j in range(n):
            want = bracket(fmap.targets[i], fmap.targets[j],
                           chart).substitute(binds)
            assert sm.E[i][j] == want
            want = bracket(fmap.targets[n + i], fmap.targets[n + j],
                           chart).substitute(binds)
            assert sm.F[i][j] == want


def test_solve_r_series_coefficients():
    assert binomial_half(1) == Fraction(1, 2)
    assert binomial_half(2) == Fraction(-1, 8)
    assert binomial_half(3) == Fraction(1, 16)


def test_solve_r_f_zero():
    chart = make_chart(2)
    table = chart.table
    zero = SuperExpr.zero(table)
    E = [[zero, e(chart, "b1")], [e(chart, "b1"), zero]]
    F = [[zero, zero], [zero, zero]]
    R = solve_R(E, F, table)
    assert R[0][1] == e(chart, "1/2*b1")
    assert R[0][0].is_zero


def test_solve_r_random_residual():
    chart = make_chart(2)
    table = chart.table
    rng = random.Random(7)
    for _ in range(10):
        def odd_entry():
            return random_expr(rng, table, theta_degree=2, coeff_degree=1,
                               aux=True, even_names=chart.xs).odd_part()
        e01 = odd_entry()
        f01 = odd_entry()
        zero = SuperExpr.zero(table)
        E = [[zero, e01], [e01, zero]]
        F = [[zero, f01], [-f01, zero]]
        R = solve_R(E, F, table)  # residual verified inside
        assert R[0][1] == R[1][0]


def test_darboux_step_f1_n1():
    chart, omega = n1_structure()
    fmap, sm = darboux_step("F1", structure_matrices(omega, chart), chart)
    assert fmap.targets[1] == e(chart, "th1/(1 + x1)")
    assert sm.q_class == 2  # A becomes exactly the identity here
    assert sm.omega.matrix[0][1] == SuperExpr.one(chart.table)


def test_darboux_step_rejects_broken_antisymmetry(monkeypatch):
    # a step whose pushed-forward bracket breaks {th1,x1} = -{x1,th1} must
    # raise when the new structure is built; that entry lies in no block
    # that the class bookkeeping reads
    pushforward = darboux.pushforward_matrix

    def broken(fmap, omega=None):
        rows = [list(row) for row in pushforward(fmap, omega)]
        rows[1][0] = rows[1][0] + SuperExpr.one(fmap.source.table)
        return rows

    monkeypatch.setattr(darboux, "pushforward_matrix", broken)
    chart, omega = n1_structure()
    with pytest.raises(ValueError,
                       match=r"^graded antisymmetry fails at \(0,1\)$"):
        darboux_step("F1", structure_matrices(omega, chart), chart)


def test_darboux_step_f1_identity_on_canonical():
    chart = make_chart(2)
    omega = OddSymplecticStructure.canonical(chart)
    sm = structure_matrices(omega, chart)
    fmap, new_sm = darboux_step("F1", sm, chart)
    assert fmap.is_identity()
    assert new_sm is sm and new_sm.omega is omega


def test_darboux_step_f2():
    chart = make_chart(2)
    table = chart.table
    zero = SuperExpr.zero(table)
    one = SuperExpr.one(table)
    # canonical structure with {x1,x2} = b1 inserted
    b = e(chart, "b1")
    rows = [[zero, b, one, zero],
            [b, zero, zero, one],
            [-one, zero, zero, zero],
            [zero, -one, zero, zero]]
    omega = OddSymplecticStructure(chart, rows)
    sm = structure_matrices(omega, chart)
    assert sm.p_class == 0 and sm.q_class == 3
    fmap, new_sm = darboux_step("F2", sm, chart)
    # x_i shifted by theta_m R^{mi} with R = E/2
    assert fmap.targets[0] == e(chart, "x1 - 1/2*th2*b1")
    assert fmap.targets[1] == e(chart, "x2 - 1/2*th1*b1")
    assert new_sm.p_class >= 1
    assert new_sm == structure_matrices(new_sm.omega, chart)


def test_pipeline_identity_on_darboux_input():
    chart = make_chart(2)
    omega = OddSymplecticStructure.canonical(chart)
    result = darboux_pipeline(omega, chart)
    assert result.steps == []
    assert result.composite.is_identity()
    assert result.ok


def test_pipeline_n1_example():
    chart, omega = n1_structure()
    result = darboux_pipeline(omega, chart)
    assert result.ok
    assert result.composite.targets[1] == e(chart, "th1/(1 + x1)")
    assert result.composite.targets[0] == e(chart, "x1")
    assert [kind for kind, _ in result.steps] == ["F1"]


def test_pipeline_step_budget():
    chart = make_chart(2)
    rng = random.Random(11)
    omega, _ = pushforward_structure(rng, chart)
    result = darboux_pipeline(omega, chart)
    assert result.ok
    assert len(result.steps) <= 2 * chart.n + 4


def test_pipeline_reads_each_structure_once(monkeypatch):
    # each read takes the class of E and of P once; the loop test, the
    # step and the transition check share one read per structure
    chart = make_chart(2)
    omega, _ = pushforward_structure(random.Random(11), chart)
    structures, reads = [omega], []
    order = darboux._matrix_order

    def built(*args):
        structures.append(OddSymplecticStructure(*args))
        return structures[-1]

    def counted(entries, cap):
        reads.append(entries)
        return order(entries, cap)

    monkeypatch.setattr(darboux, "OddSymplecticStructure", built)
    monkeypatch.setattr(darboux, "_matrix_order", counted)
    result = darboux_pipeline(omega, chart)
    assert result.ok and len(result.steps) > 1
    assert len(reads) <= 2 * len({id(s) for s in structures})


def test_pipeline_reads_blocks_once_per_structure(monkeypatch):
    # the walk hands each structure's blocks on to the next step, so the
    # blocks are read for the input and once per step, with no memo; the
    # final shift's structure is compared with the canonical matrix whole
    chart = make_chart(2)
    rng = random.Random(11)
    read = darboux.structure_matrices
    calls = []

    def counted(omega, chart):
        calls.append(omega)
        return read(omega, chart)

    monkeypatch.setattr(darboux, "structure_matrices", counted)
    for _ in range(2):
        omega, _ = pushforward_structure(rng, chart)
        calls.clear()
        result = darboux_pipeline(omega, chart)
        assert result.ok
        walk = [kind for kind, _ in result.steps if kind != "shift"]
        assert len(walk) > 1
        assert len(calls) == 1 + len(walk)
        assert calls[0] is omega
        assert len({id(s) for s in calls}) == len(calls)


def test_pipeline_random_pushforwards():
    chart = make_chart(2)
    rng = random.Random(13)
    for _ in range(6):
        omega, fmap = pushforward_structure(rng, chart)
        result = darboux_pipeline(omega, chart)
        assert result.ok, result.report.nonzero()
        final = structure_matrices(result.final_omega, chart)
        assert final.p_class == chart.n + 1
        assert final.q_class == chart.n + 1
        assert all(v.is_zero for row in final.F for v in row)


def test_pipeline_uses_shift_for_pure_f_structure():
    chart = make_chart(2)
    table = chart.table
    zero = SuperExpr.zero(table)
    one = SuperExpr.one(table)
    f12 = e(chart, "b1*x1")
    rows = [[zero, zero, one, zero],
            [zero, zero, zero, one],
            [-one, zero, zero, f12],
            [zero, -one, -f12, zero]]
    omega = OddSymplecticStructure(chart, rows)
    result = darboux_pipeline(omega, chart)
    assert result.ok
    assert [kind for kind, _ in result.steps] == ["shift"]
    # the shift is theta_j -> theta_j + A_j with dA the two-form
    pot = two_form_potential(structure_matrices(omega, chart).F, chart)
    assert pot[1].diff("x1") - pot[0].diff("x2") == f12


def test_two_form_potential_rejects_nonclosed():
    chart = make_chart(3)
    table = chart.table
    zero = SuperExpr.zero(table)
    f = [[zero] * 3 for _ in range(3)]
    f[0][1] = e(chart, "b1*x3")
    f[1][0] = -f[0][1]
    with pytest.raises(CanonicityError):
        two_form_potential(f, chart)


def test_two_form_potential_refuses_rational_coefficients():
    chart = make_chart(2)
    zero = SuperExpr.zero(chart.table)
    f = [[zero, e(chart, "b1/(1 + x1)")], [e(chart, "-b1/(1 + x1)"), zero]]
    with pytest.raises(ScalarError, match="radial integral needs a "
                                          "polynomial"):
        two_form_potential(f, chart)


def test_jacobi_class_identity_on_intermediates():
    # theta_m dE^{mj}/dth_i + (i<->j) + r E^{ij} vanishes mod theta^(r+1)
    chart = make_chart(2)
    rng = random.Random(17)
    omega, _ = pushforward_structure(rng, chart)
    sm = structure_matrices(omega, chart)
    for kind in ("F1", "F2", "F1"):
        if (kind == "F2" and sm.p_class > 0) or \
                (kind == "F1" and sm.q_class > 0):
            continue
        fmap, sm = darboux_step(kind, sm, chart)
    r = sm.p_class
    cap = chart.table.n_theta + 1
    if 1 <= r <= chart.n:
        table = chart.table
        for i in range(chart.n):
            for j in range(chart.n):
                total = SuperExpr.zero(table)
                for m in range(chart.n):
                    total = total + SuperExpr.symbol(
                        table, chart.thetas[m]) * \
                        sm.E[m][j].diff(chart.thetas[i])
                    total = total + SuperExpr.symbol(
                        table, chart.thetas[m]) * \
                        sm.E[m][i].diff(chart.thetas[j])
                total = total + r * sm.E[i][j]
                for p in range(r + 1):
                    assert total.homogeneous_part(p).is_zero


def test_pipeline_n3_pushforward():
    chart = make_chart(3)
    rng = random.Random(19)
    omega, _ = pushforward_structure(rng, chart)
    result = darboux_pipeline(omega, chart)
    assert result.ok
    final = structure_matrices(result.final_omega, chart)
    assert final.p_class == 4 and final.q_class == 4


def test_darboux_step_f1_inverse_n1():
    from oddsym.symplectic import invert_map
    chart, omega = n1_structure()
    fmap, _ = darboux_step("F1", structure_matrices(omega, chart), chart)
    inv = invert_map(fmap)
    assert inv.targets[0] == e(chart, "x1")
    assert inv.targets[1] == e(chart, "th1*(1 + x1)")


def test_pipeline_identity_step_fails_its_transition():
    # F3 on E = b1*b2*th1 is x1 -> x1 - th1*(b1*b2*th1/3) = x1, the
    # identity; the class stays (1,2) and the pipeline must raise, not spin
    chart = make_chart(1)
    one = SuperExpr.one(chart.table)
    rows = [[e(chart, "b1*b2*th1"), one], [-one, SuperExpr.zero(chart.table)]]
    omega = OddSymplecticStructure(chart, rows)
    missed = r"F3 missed its class transition \(1,2\) -> \(1,2\)"
    with pytest.raises(CanonicityError, match=missed):
        darboux_pipeline(omega, chart)


def aux_shear(chart):
    """x_i -> x_i + b1 th_(n+1-i): gives {x, x} a theta-free part, so the
    pushed-forward structure starts at p = 0 and needs F2."""
    table = chart.table
    b1 = SuperExpr.symbol(table, "b1")
    ths = [SuperExpr.symbol(table, th) for th in chart.thetas]
    xs = [SuperExpr.symbol(table, x) + b1 * th
          for x, th in zip(chart.xs, reversed(ths))]
    return SuperMap(chart, chart, xs + ths,
                    body_inverse=[Scalar.symbol(table, x) for x in chart.xs])


# (n, seed, aux shear, step kinds, rendered composite or its sha256)
PINNED = [
    (1, 3, True, ["F1", "F2"], "x1 + th1*b1, 1/3*th1"),
    (2, 2, False, ["F3"], "x1 + (2*x2 + 1)*th1*th2, x2, th1, th2"),
    (2, 3, True, ["F1", "F2", "F3", "F4"],
     "x1 + (4*x2^2 + 8*x2 + 6)*th1*th2 + (x2^2 - x1 + 5/3*x2 + 1)*th1*b1"
     " + 2*th2*b1, x2 + (2*x2 + 4)*th1*th2 + 2/3*th1*b1, 1/3*th1,"
     " (x2^2 - x1 + 5/3*x2 + 1)*th1 + th2 - th1*th2*b1"),
    (3, 5, True, ["F1", "F2", "F3"],
     "x1 + 3*th1*th2 + 2*th3*b1, x2 - 2*th2*th3 + th2*b1,"
     " x3 + 3*th1*th3 + 2/3*th1*b1, 1/3*th1, th2, th3"),
    (3, 7, False, ["F3", "F4"],
     "x1 + (16*x3^5 + 32*x2*x3^3 + 16*x2^2*x3 + 8*x1*x3)*th1*th2"
     " + (-8*x3^4 - 16*x2*x3^2 - 8*x2^2 - 4*x1)*th1*th3,"
     " x2 - 20*x3^2*th1*th2 + 10*x3*th1*th3, x3 + 10*x3*th1*th2 - 5*th1*th3,"
     " th1, th2, th3 + 10*th1*th2*th3"),
    (3, 1, True, ["F1", "F2", "F3", "F3", "F4"],
     "sha256:ca63ef66af027048a2a3879c0df570dd"
     "467a2a36d270c38d7a723f141e9c67ed"),
]


@pytest.mark.parametrize("n, seed, shear, kinds, composite", PINNED)
def test_pipeline_pinned_schedule(n, seed, shear, kinds, composite):
    chart = make_chart(n)
    rng = random.Random(seed)
    fmap = aux_shear(chart).compose(random_messy_map(rng, chart)) \
        if shear else None
    omega, _ = pushforward_structure(rng, chart, fmap)
    result = darboux_pipeline(omega, chart)
    assert [kind for kind, _ in result.steps] == kinds
    text = ", ".join(render_expr(t) for t in result.composite.targets)
    if composite.startswith("sha256:"):
        text = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    assert text == composite
