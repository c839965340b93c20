import random
from fractions import Fraction

import pytest

from oddsym.bv import (VolumeForm, bracket_leibniz, bv_identity_residuals,
                       c_invariant, chart_change,
                       classify_nu, delta0, delta_sharp, delta_vol,
                       divergence_delta, infinitesimal_action, module_rule,
                       product_leibniz, square_formula, top_coefficient)
from oddsym.grammar import parse_expr
from oddsym.sampling import (random_canonical_map, random_expr,
                             random_flow_hamiltonian, random_point_map,
                             random_special_map)
from oddsym.scalars import Scalar
from oddsym.superexpr import ParityError, SuperExpr
from oddsym.symbols import Chart, standard_table
from oddsym.symplectic import (Semidensity, ber_sqrt, bracket,
                               pullback_semidensity)


def make_chart(n, aux=2):
    table = standard_table(n, aux=aux, extra_even=("t",))
    return Chart(table, table.even_symbols[:n], table.coordinate_odds)


def e(chart, text):
    return parse_expr(text, chart.table)


def unit_volume(chart):
    return VolumeForm(SuperExpr.one(chart.table), chart)


def test_delta0_basics():
    c = make_chart(2)
    assert delta0(e(c, "x1*th1"), c) == SuperExpr.one(c.table)
    assert delta0(e(c, "x1*x2*th1*th2"), c) == e(c, "x2*th2 - x1*th1")


def test_delta0_squares_to_zero():
    c = make_chart(3)
    rng = random.Random(3)
    for _ in range(200):
        f = random_expr(rng, c.table, theta_degree=3, coeff_degree=2,
                        aux=True, rational=True)
        assert delta0(delta0(f, c), c).is_zero


def test_delta_vol_unit_density():
    c = make_chart(2)
    rng = random.Random(5)
    dv = unit_volume(c)
    for _ in range(20):
        f = random_expr(rng, c.table, theta_degree=2, coeff_degree=2)
        assert delta_vol(f, dv) == delta0(f, c)
    assert delta_vol(e(c, "x1"), dv).is_zero


def test_delta_vol_hand_example():
    # f = th1, rho = 1 + 2 x1 th1 th2:
    #   delta0 f = 0 and (1/2) rho^{-1} {rho, th1} picks d rho/dx1
    c = make_chart(2)
    dv = VolumeForm(e(c, "1 + 2*x1*th1*th2"), c)
    assert delta_vol(e(c, "th1"), dv) == e(c, "th1*th2")
    assert dv.inverse == e(c, "1 - 2*x1*th1*th2")


def test_divergence_route_matches():
    c = make_chart(2)
    rng = random.Random(7)
    for _ in range(25):
        rho = SuperExpr.one(c.table) + random_expr(
            rng, c.table, theta_degree=2, coeff_degree=2, min_theta=1,
            even_names=c.xs).even_part()
        dv = VolumeForm(rho, c)
        f = random_expr(rng, c.table, theta_degree=2, coeff_degree=2,
                        aux=True, even_names=c.xs)
        assert divergence_delta(f, dv) == delta_vol(f, dv)


def test_delta_sharp_flat_density():
    c = make_chart(2)
    s = Semidensity(SuperExpr.one(c.table), c)
    assert delta_sharp(s).coefficient.is_zero


def test_delta_sharp_three_dim_example():
    # chart (x1,x2,x3): s = 1 + b-like even functions times theta pairs
    table = standard_table(3, extra_even=("c1", "c2", "c3", "t"))
    c = Chart(table, table.even_symbols[:3], table.coordinate_odds)

    def f(i):
        return e(c, f"c{i}*x1*x2 + x{i}^2")

    coeff = SuperExpr.one(table) \
        + f(1) * e(c, "th2*th3") + f(2) * e(c, "th3*th1") \
        + f(3) * e(c, "th1*th2")
    out = delta_sharp(Semidensity(coeff, c)).coefficient
    want = (f(2).diff("x3") - f(3).diff("x2")) * e(c, "th1") \
        + (f(3).diff("x1") - f(1).diff("x3")) * e(c, "th2") \
        + (f(1).diff("x2") - f(2).diff("x1")) * e(c, "th3")
    assert out == want


def test_delta_sharp_is_odd_operator():
    c = make_chart(2)
    rng = random.Random(11)
    for _ in range(20):
        f = random_expr(rng, c.table, theta_degree=2, coeff_degree=1,
                        aux=True)
        for part in (f.even_part(), f.odd_part()):
            if part.is_zero:
                continue
            image = delta_sharp(Semidensity(part, c)).coefficient
            if image.is_zero:
                continue
            assert image.is_odd() == part.is_even()


def _identity_residuals(f, g, dv, fmap=None):
    """Every identity residual for one f, g, volume form and map."""
    chart = dv.chart
    out = {"bracket_leibniz": bracket_leibniz(f, g, dv),
           "product_leibniz": product_leibniz(f, g, dv),
           "module_rule": module_rule(f, dv),
           "square_formula": square_formula(f, dv),
           "delta0_squared": delta0(delta0(f, chart), chart)}
    if fmap is not None:
        [out["chart_change"]] = chart_change(fmap, [f])
        out["ber_root_closed"] = delta0(ber_sqrt(fmap), chart)
    return out


def test_bv_identities_hand_case():
    c = make_chart(2)
    dv = unit_volume(c)
    out = _identity_residuals(e(c, "x1*th1"), e(c, "th1"), dv)
    assert all(v.is_zero for v in out.values())


def test_bv_identity_residuals_wrapper():
    c = make_chart(2)
    dv = VolumeForm(e(c, "1 + 2*x1*th1*th2"), c)
    fmap = random_canonical_map(random.Random(3), c)
    out = bv_identity_residuals(e(c, "x1*th1"), e(c, "th1"), dv, fmap)
    assert sorted(out) == sorted([
        "bracket_leibniz", "product_leibniz", "module_rule",
        "square_formula", "delta0_squared", "chart_change",
        "ber_root_closed"])
    assert all(v.is_zero for v in out.values())


def test_bv_identities_random():
    c = make_chart(2)
    rng = random.Random(13)
    for _ in range(15):
        base = SuperExpr.one(c.table) + random_expr(
            rng, c.table, theta_degree=2, coeff_degree=1, min_theta=1,
            even_names=c.xs).even_part()
        dv = VolumeForm(base * base, c)
        f = random_expr(rng, c.table, theta_degree=2, coeff_degree=1,
                        aux=True, even_names=c.xs)
        g = random_expr(rng, c.table, theta_degree=2, coeff_degree=1,
                        aux=True, even_names=c.xs)
        fmap = random_canonical_map(rng, c)
        for fh in (f.even_part(), f.odd_part()):
            for gh in (g.even_part(), g.odd_part()):
                out = _identity_residuals(fh, gh, dv, fmap)
                bad = {k: v for k, v in out.items() if not v.is_zero}
                assert not bad, bad


def test_covariance_all_classes():
    from oddsym.flows import exp_flow

    c = make_chart(2)
    rng = random.Random(17)
    makers = [random_special_map, random_point_map,
              lambda r, ch: exp_flow(random_flow_hamiltonian(r, ch), ch, 1)]
    for maker in makers:
        for _ in range(5):
            fmap = maker(rng, c)
            s = Semidensity(random_expr(rng, c.table, theta_degree=2,
                                        coeff_degree=1, aux=True,
                                        even_names=c.xs), c)
            lhs = delta_sharp(pullback_semidensity(fmap, s))
            rhs = pullback_semidensity(fmap, delta_sharp(s))
            assert lhs.coefficient == rhs.coefficient


def test_infinitesimal_action_examples():
    c = make_chart(3)
    q = e(c, "th1*th2*th3")
    s = Semidensity(SuperExpr.one(c.table), c)
    assert infinitesimal_action(q, s).coefficient.is_zero
    s2 = Semidensity(e(c, "x1"), c)
    assert infinitesimal_action(q, s2).coefficient == e(c, "th2*th3")
    zero = SuperExpr.zero(c.table)
    assert infinitesimal_action(zero, s2).coefficient.is_zero


def test_canonical_objects_unit():
    # sqrt(dv), delta0 sqrt(dv), their product and their ratio
    c = make_chart(2)
    s = unit_volume(c).root
    ds = delta0(s, c)
    assert s == SuperExpr.one(c.table)
    assert ds.is_zero and (s * ds).is_zero and (s.invert_even() * ds).is_zero


def test_canonical_objects_nontrivial():
    c = make_chart(2)
    s = VolumeForm(e(c, "1 + 2*x1*th1*th2"), c).root
    ds = delta0(s, c)
    assert s == e(c, "1 + x1*th1*th2 - 1/2*x1^2*th1*th2*th1*th2")
    # the nilpotent square kills the last piece
    assert s == e(c, "1 + x1*th1*th2")
    assert ds == e(c, "th2")
    assert s * ds == e(c, "th2 + x1*th1*th2*th2") == e(c, "th2")
    assert s.invert_even() * ds == e(c, "(1 - x1*th1*th2)*th2") == \
        e(c, "th2")


def test_canonical_objects_squared_semidensity():
    c = make_chart(2)
    rng = random.Random(19)
    base = SuperExpr.one(c.table) + random_expr(
        rng, c.table, theta_degree=2, coeff_degree=2, min_theta=1,
        even_names=c.xs).even_part()
    dv = VolumeForm(base * base, c)
    assert dv.root == base


def test_c_invariant():
    c = make_chart(2)
    s = Semidensity(e(c, "1 + 5*th1*th2"), c)
    assert c_invariant(s).as_fraction() == Fraction(5)
    neg = Semidensity(e(c, "1 - 5*th1*th2"), c)
    assert c_invariant(neg).as_fraction() == Fraction(5)
    assert top_coefficient(neg).as_fraction() == Fraction(-5)
    flat = Semidensity(SuperExpr.one(c.table), c)
    assert c_invariant(flat).as_fraction() == 0


def test_c_invariant_rejects_nonconstant_top():
    c = make_chart(2)
    s = Semidensity(e(c, "1 + x1*th1*th2"), c)
    with pytest.raises(ValueError):
        c_invariant(s)
    assert top_coefficient(s) == Scalar.symbol(c.table, "x1")


def test_c_invariant_under_canonical_maps():
    c = make_chart(2)
    rng = random.Random(23)
    s = Semidensity(e(c, "1 + 5*th1*th2"), c)
    assert delta_sharp(s).coefficient.is_zero
    for _ in range(8):
        fmap = random_canonical_map(rng, c)
        pulled = pullback_semidensity(fmap, s)
        assert c_invariant(pulled).as_fraction() == Fraction(5)


def test_classify_nu():
    c = make_chart(1)
    flat = Semidensity(SuperExpr.one(c.table), c)
    assert classify_nu(flat).is_zero
    eigen = Semidensity(e(c, "1 - b1*x1*th1"), c)
    nu = classify_nu(eigen)
    assert nu == e(c, "b1")
    assert delta0(eigen.coefficient, c) == nu * eigen.coefficient
    not_eigen = Semidensity(e(c, "1 + b1*x1^2*th1"), c)
    assert classify_nu(not_eigen) is None


def test_square_formula_connects_nu_function():
    c = make_chart(2)
    rng = random.Random(29)
    for _ in range(10):
        base = SuperExpr.one(c.table) + random_expr(
            rng, c.table, theta_degree=2, coeff_degree=1, min_theta=1,
            even_names=c.xs).even_part()
        dv = VolumeForm(base * base, c)
        ratio = dv.root.invert_even() * delta0(dv.root, c)
        f = random_expr(rng, c.table, theta_degree=2, coeff_degree=1,
                        even_names=c.xs)
        for fh in (f.even_part(), f.odd_part()):
            lhs = delta_vol(delta_vol(fh, dv), dv)
            assert lhs == bracket(ratio, fh, c)


def test_identity_functions_reject_mixed_parity():
    c = make_chart(2)
    dv = unit_volume(c)
    mixed, odd = e(c, "x1 + th1"), e(c, "th1")
    fmap = random_canonical_map(random.Random(5), c)
    for call in (lambda: bracket_leibniz(mixed, odd, dv),
                 lambda: product_leibniz(mixed, odd, dv),
                 lambda: module_rule(mixed, dv),
                 lambda: square_formula(mixed, dv),
                 lambda: chart_change(fmap, [odd, mixed])):
        with pytest.raises(ParityError, match="f must be homogeneous"):
            call()
    for call in (lambda: bracket_leibniz(odd, mixed, dv),
                 lambda: product_leibniz(odd, mixed, dv)):
        with pytest.raises(ParityError, match="g must be homogeneous"):
            call()


def test_chart_change_list_matches_single_calls():
    c = make_chart(2)
    rng = random.Random(31)
    for _ in range(4):
        fmap = random_canonical_map(rng, c)
        f1 = random_expr(rng, c.table, theta_degree=2, coeff_degree=1,
                         aux=True, even_names=c.xs).odd_part()
        f2 = random_expr(rng, c.table, theta_degree=2, coeff_degree=1,
                         aux=True, even_names=c.xs).even_part()
        assert chart_change(fmap, [f1, f2]) == \
            chart_change(fmap, [f1]) + chart_change(fmap, [f2])
