import random
from fractions import Fraction

import pytest

from oddsym.bv import delta0, moser_hamiltonian
from oddsym.flows import exp_flow, hamiltonian_from_adjusted, moser_flow
from oddsym.grammar import parse_expr
from oddsym.sampling import random_expr, random_flow_hamiltonian
from oddsym.superexpr import ParityError, SuperExpr
from oddsym.symbols import Chart, standard_table
from oddsym.symplectic import (CanonicityError, Semidensity, SuperMap,
                               adjusted_map, hamiltonian_field, invert_map,
                               is_canonical, pullback_semidensity,
                               special_map)


def make_chart(n, aux=2):
    table = standard_table(n, aux=aux, extra_even=("t",))
    return Chart(table, table.even_symbols[:n], table.coordinate_odds)


def e(chart, text):
    return parse_expr(text, chart.table)


def test_flow_of_zero_is_identity():
    c = make_chart(2)
    fmap = exp_flow(SuperExpr.zero(c.table), c, 1)
    assert fmap.targets == SuperMap.identity(c).targets


def test_flow_cubic_example():
    # dy/dt = -dQ/dth integrates in one step for Q = th1 th2 th3
    c = make_chart(3)
    fmap = exp_flow(e(c, "th1*th2*th3"), c, 1)
    assert fmap.targets[0] == e(c, "x1 - th2*th3")
    assert fmap.targets[1] == e(c, "x2 + th1*th3")
    assert fmap.targets[2] == e(c, "x3 - th1*th2")
    assert list(fmap.targets[3:]) == [e(c, "th1"), e(c, "th2"), e(c, "th3")]
    assert is_canonical(fmap).ok


def test_flow_aux_example_formal_time():
    # hand integration with the left-derivative sign rule:
    #   dQ/dth1 = -b1 x1 th2, dQ/dth2 = b1 x1 th1, dQ/dx1 = b1 th1 th2
    c = make_chart(2)
    fmap = exp_flow(e(c, "b1*x1*th1*th2"), c, "formal")
    assert fmap.targets[0] == e(c, "x1 + t*b1*x1*th2")
    assert fmap.targets[1] == e(c, "x2 - t*b1*x1*th1")
    assert fmap.targets[2] == e(c, "th1 + t*b1*th1*th2")
    assert fmap.targets[3] == e(c, "th2")
    report = is_canonical(fmap)
    assert report.ok, report.nonzero()


def test_flow_rejects_theta_linear():
    c = make_chart(2)
    with pytest.raises(CanonicityError):
        exp_flow(e(c, "x1*th1"), c, 1)
    with pytest.raises(ParityError, match="flow generator must be odd"):
        exp_flow(e(c, "x1"), c, 1)


def test_flow_group_law():
    c = make_chart(2)
    rng = random.Random(41)
    for _ in range(6):
        q = random_flow_hamiltonian(rng, c)
        f1 = exp_flow(q, c, Fraction(1, 2))
        f2 = exp_flow(q, c, Fraction(3, 2))
        f3 = exp_flow(q, c, 2)
        assert f1.compose(f2).targets == f3.targets
        assert f2.compose(f1).targets == f3.targets


def test_flow_canonical_at_rational_times():
    c = make_chart(2)
    rng = random.Random(43)
    for _ in range(6):
        q = random_flow_hamiltonian(rng, c)
        for t in (Fraction(1, 2), 1, 2):
            report = is_canonical(exp_flow(q, c, t))
            assert report.ok, report.nonzero()


def test_flow_inverse_is_negative_time():
    c = make_chart(2)
    rng = random.Random(47)
    q = random_flow_hamiltonian(rng, c)
    fmap = exp_flow(q, c, 1)
    inv = invert_map(fmap)
    assert list(inv.targets) == list(exp_flow(q, c, -1).targets)


def test_flow_fixes_surface():
    c = make_chart(3)
    rng = random.Random(53)
    zero_thetas = {th: SuperExpr.zero(c.table) for th in c.thetas}
    for _ in range(6):
        q = random_flow_hamiltonian(rng, c)
        fmap = exp_flow(q, c, 1)
        for i in range(3):
            assert fmap.targets[i].substitute(zero_thetas) == \
                SuperExpr.symbol(c.table, c.xs[i])
            assert fmap.targets[3 + i].substitute(zero_thetas).is_zero


def test_hamiltonian_roundtrip_cubic():
    c = make_chart(3)
    fmap = exp_flow(e(c, "th1*th2*th3"), c, 1)
    assert hamiltonian_from_adjusted(fmap) == e(c, "th1*th2*th3")


def test_hamiltonian_roundtrip_aux():
    c = make_chart(2)
    fmap = exp_flow(e(c, "b1*x1*th1*th2"), c, 1)
    assert hamiltonian_from_adjusted(fmap) == e(c, "b1*x1*th1*th2")


def test_hamiltonian_identity():
    c = make_chart(2)
    assert hamiltonian_from_adjusted(SuperMap.identity(c)).is_zero


def test_hamiltonian_roundtrip_random():
    c = make_chart(3)
    rng = random.Random(59)
    for _ in range(8):
        q = random_flow_hamiltonian(rng, c)
        fmap = exp_flow(q, c, 1)
        assert hamiltonian_from_adjusted(fmap) == q


def test_distinct_generators_distinct_flows():
    c = make_chart(3)
    rng = random.Random(61)
    seen = []
    for _ in range(6):
        q = random_flow_hamiltonian(rng, c)
        fmap = exp_flow(q, c, 1)
        for prev_q, prev_t in seen:
            if prev_q != q:
                assert list(prev_t) != list(fmap.targets)
        seen.append((q, fmap.targets))


def test_flow_derivative_is_minus_infinitesimal_action():
    # the operational pullback runs against the transformation action:
    # d/dt at 0 of pullback(exp_flow(Q,t), s) = -(Q delta s + delta(Q s))
    from oddsym.bv import infinitesimal_action

    c = make_chart(2)
    rng = random.Random(67)
    tsym = "t"
    zero_t = {tsym: SuperExpr.zero(c.table)}
    for _ in range(6):
        q = random_flow_hamiltonian(rng, c)
        s = Semidensity(random_expr(rng, c.table, theta_degree=2,
                                    coeff_degree=1, aux=True,
                                    even_names=c.xs), c)
        fmap = exp_flow(q, c, "formal")
        pulled = pullback_semidensity(fmap, s).coefficient
        first_order = pulled.diff(tsym).substitute(zero_t)
        action = infinitesimal_action(q, s).coefficient
        assert first_order == -action


def test_moser_hamiltonian_zero_direction():
    c = make_chart(3)
    s = Semidensity(SuperExpr.one(c.table), c)
    r = Semidensity(SuperExpr.zero(c.table), c)
    assert moser_hamiltonian(s, r).is_zero


def test_moser_hamiltonian_nilpotent_inverse():
    c = make_chart(3)
    s = Semidensity(SuperExpr.one(c.table), c)
    r = Semidensity(e(c, "x1*th1*th2*th3"), c)
    q = moser_hamiltonian(s, r)
    # multiply-back: Q (s + t delta r) = -r identically
    t = SuperExpr.symbol(c.table, "t")
    denom = s.coefficient + t * delta0(r.coefficient, c)
    assert q * denom == -r.coefficient
    residual = delta0(r.coefficient, c) + delta0(q * denom, c)
    assert residual.is_zero


def test_moser_flow_trivial():
    c = make_chart(2)
    s = Semidensity(SuperExpr.one(c.table), c)
    r = Semidensity(SuperExpr.zero(c.table), c)
    fmap, residual = moser_flow(s, r)
    assert fmap.targets == SuperMap.identity(c).targets
    assert residual.is_zero


def test_moser_flow_basic():
    c = make_chart(2)
    s = Semidensity(SuperExpr.one(c.table), c)
    r = Semidensity(e(c, "b1*x1*th1*th2"), c)
    fmap, residual = moser_flow(s, r)
    assert residual.is_zero
    # the flow indeed moves s + delta r back to s
    target = Semidensity(s.coefficient + delta0(r.coefficient, c), c)
    assert pullback_semidensity(fmap, target).coefficient == s.coefficient


def test_moser_flow_random_samples():
    c = make_chart(3)
    rng = random.Random(71)
    for _ in range(4):
        r = random_expr(rng, c.table, theta_degree=3, coeff_degree=1,
                        aux=True, min_theta=2).odd_part()
        r = SuperExpr(c.table, {k: v for k, v in r.terms.items()
                                if c.table.theta_degree(k) >= 2})
        fmap, residual = moser_flow(
            Semidensity(SuperExpr.one(c.table), c),
            Semidensity(r, c))
        assert residual.is_zero


def test_flow_hamiltonian_validation():
    c = make_chart(3)
    q = e(c, "b1*th1*th2 + x1*th1*th2*th3")
    assert hamiltonian_from_adjusted(exp_flow(q, c)) == q
    with pytest.raises(ParityError, match="flow generator must be odd"):
        exp_flow(e(c, "x1*th1*th2"), c)
    with pytest.raises(ParityError, match="flow generator must be odd"):
        exp_flow(e(c, "b1*th1*th2 + th1*th2"), c)
    with pytest.raises(CanonicityError, match="theta-linear"):
        exp_flow(e(c, "x1*th1 + b1*th1*th2"), c)


def test_time_dependent_flow_reduces_to_rescaled_time():
    # for Q(t) = t q0 the directions commute, so the unit-time flow is
    # the autonomous flow of q0 at time 1/2
    c = make_chart(2)
    q0 = e(c, "b1*x1*th1*th2")
    tq = e(c, "t*b1*x1*th1*th2")
    lhs = exp_flow(tq, c, 1)
    rhs = exp_flow(q0, c, Fraction(1, 2))
    assert list(lhs.targets) == list(rhs.targets)


def test_time_dependent_flow_solves_its_equation():
    # Q(t) = t x1 th1 th2 th3 + b1 th1 th2: the directions at different
    # times do not commute, yet the formal-time targets z(t) satisfy
    # dz^A/dt = {Q(t), z^A} evaluated at z(t)
    c = make_chart(3)
    q = e(c, "t*x1*th1*th2*th3 + b1*th1*th2")
    fmap = exp_flow(q, c, "formal")
    binds = fmap.bindings()
    for target, component in zip(fmap.targets, hamiltonian_field(q, c)):
        assert target.diff("t") == component.substitute(binds)
    # no recipe for a time-dependent flow's inverse: it is peeled
    inv = invert_map(fmap)
    coords = [SuperExpr.symbol(c.table, n) for n in c.coordinate_names]
    assert list(fmap.compose(inv).targets) == coords
    assert list(inv.compose(fmap).targets) == coords


def test_hamiltonian_from_map_that_is_not_adjusted():
    c = make_chart(2)
    fmap = special_map(c, [e(c, "b1*x2"), e(c, "b1*x1")])
    with pytest.raises(CanonicityError, match="theta targets must vanish"):
        hamiltonian_from_adjusted(fmap)


def test_hamiltonian_from_map_that_is_not_canonical():
    c = make_chart(2)
    fmap = adjusted_map(c, [e(c, "x1 + th1*th2"), e(c, "x2"),
                            e(c, "th1"), e(c, "th2")])
    with pytest.raises(CanonicityError, match="map is not canonical"):
        hamiltonian_from_adjusted(fmap)
