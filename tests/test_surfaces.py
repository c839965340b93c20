import random

import pytest

from oddsym.bv import VolumeForm, delta_sharp
from oddsym.grammar import parse_expr
from oddsym.sampling import random_expr
from oddsym.superexpr import SuperExpr
from oddsym.surfaces import (AdjustedSurface, densities_P, dual_density,
                             pullback_K)
from oddsym.symbols import Chart, standard_table
from oddsym.symplectic import Semidensity


def surface_setup(n=3, aux=2):
    """Chart (x0..x_{n-1}, th0..th_{n-1}) with the first pair cut out."""
    table = standard_table(0, aux=0)
    names_x = tuple(f"x{i}" for i in range(n))
    names_th = tuple(f"th{i}" for i in range(n))
    from oddsym.symbols import SymbolTable
    table = SymbolTable(names_x + ("t",), names_th, (),
                        tuple(f"b{i}" for i in range(1, aux + 1)))
    chart = Chart(table, names_x, names_th)
    return chart, AdjustedSurface(chart, "x0", "th0")


def e(chart, text):
    return parse_expr(text, chart.table)


def test_surface_validation():
    chart, _ = surface_setup()
    with pytest.raises(ValueError):
        AdjustedSurface(chart, "x0", "th1")
    with pytest.raises(ValueError):
        AdjustedSurface(chart, "q", "th0")


def test_induced_chart():
    chart, surf = surface_setup()
    sub = surf.induced_chart()
    assert sub.xs == ("x1", "x2") and sub.thetas == ("th1", "th2")


def test_pullback_flat_density_vanishes():
    chart, surf = surface_setup()
    s = Semidensity(SuperExpr.one(chart.table), chart)
    assert pullback_K(s, surf).coefficient.is_zero


def test_pullback_K_parity_flip():
    chart, surf = surface_setup()
    rng = random.Random(3)
    for _ in range(10):
        coeff = random_expr(rng, chart.table, theta_degree=3, coeff_degree=1,
                            aux=True, even_names=chart.xs)
        for part in (coeff.even_part(), coeff.odd_part()):
            if part.is_zero:
                continue
            out = pullback_K(Semidensity(part, chart), surf).coefficient
            if out.is_zero:
                continue
            assert out.is_odd() == part.is_even()


def test_worked_example_pullbacks():
    # s = (1 + f0 th1 th2 + f1 th2 th0 + f2 th0 th1) sqrt(D) with the f's
    # depending on all three x's
    chart, surf = surface_setup()

    def f(i):
        return e(chart, f"x{i} + x0*x1*x2")

    coeff = SuperExpr.one(chart.table) \
        + f(0) * e(chart, "th1*th2") + f(1) * e(chart, "th2*th0") \
        + f(2) * e(chart, "th0*th1")
    s = Semidensity(coeff, chart)
    ks = pullback_K(s, surf)
    want = surf.restrict(f(2) * e(chart, "th1") - f(1) * e(chart, "th2"))
    assert ks.coefficient == want
    kd = pullback_K(delta_sharp(s), surf)
    curl = f(1).diff("x2") - f(2).diff("x1")
    assert kd.coefficient == surf.restrict(curl)


def test_surface_anticommutation_rule():
    # K(delta s) = - delta_induced K(s) on the nose
    chart, surf = surface_setup()
    sub = surf.induced_chart()
    rng = random.Random(5)
    for _ in range(20):
        coeff = random_expr(rng, chart.table, theta_degree=3, coeff_degree=2,
                            aux=True, even_names=chart.xs)
        s = Semidensity(coeff, chart)
        lhs = pullback_K(delta_sharp(s), surf).coefficient
        rhs = delta_sharp(pullback_K(s, surf)).coefficient
        assert lhs == -rhs


def test_dual_density_flat():
    chart, surf = surface_setup()
    dv = VolumeForm(SuperExpr.one(chart.table), chart)
    out = dual_density(e(chart, "x0"), e(chart, "th0"), dv, surf)
    assert out.coefficient.is_zero


def test_dual_density_hand_example():
    # rho = (1 + x1 th0 th1)^2: the density reduces to
    # rho^{-1/2} d sqrt(rho) / d th0 = x1 th1 on the surface
    chart, surf = surface_setup()
    rho = e(chart, "(1 + x1*th0*th1)^2")
    dv = VolumeForm(rho, chart)
    out = dual_density(e(chart, "x0"), e(chart, "th0"), dv, surf)
    assert out.coefficient == e(chart, "x1*th1")


def test_dual_density_square_rescaling():
    # replacing x0 by 4 x0 multiplies the result by the Berezinian root
    # sqrt(4/1) = 2 of the rescaling
    chart, surf = surface_setup()
    rho = e(chart, "(1 + x1*th0*th1)^2")
    dv = VolumeForm(rho, chart)
    base = dual_density(e(chart, "x0"), e(chart, "th0"), dv, surf)
    scaled = dual_density(e(chart, "4*x0"), e(chart, "th0"), dv, surf)
    assert scaled.coefficient == 2 * base.coefficient


def test_dual_density_cross_check_with_pullback():
    # for the standard pair, dual * sqrt(rho)|_C = K(sqrt dv) coefficient
    chart, surf = surface_setup()
    rng = random.Random(7)
    for _ in range(10):
        base = SuperExpr.one(chart.table) + random_expr(
            rng, chart.table, theta_degree=3, coeff_degree=1, min_theta=1,
            even_names=chart.xs).even_part()
        dv = VolumeForm(base * base, chart)
        dual = dual_density(e(chart, "x0"), e(chart, "th0"), dv, surf)
        s = Semidensity(dv.density.sqrt_even(), chart)
        k = pullback_K(s, surf)
        assert dual.coefficient * surf.restrict(base) == \
            surf.restrict(base) * dual.coefficient
        assert dual.coefficient == \
            k.coefficient * surf.restrict(base).invert_even()


def test_dual_density_mixing_covariance():
    # (f, phi) -> (a f + alpha phi, beta f + b phi) with aux-odd
    # off-diagonal entries rescales the density by the full Berezinian
    # root of the mixing supermatrix, nilpotent correction included
    from oddsym.symplectic import berezinian

    chart, surf = surface_setup()
    base = SuperExpr.one(chart.table) + \
        e(chart, "x1*th0*th1 + x2^2*th1*th2")
    dv = VolumeForm(base * base, chart)
    f0, p0 = e(chart, "x0"), e(chart, "th0")
    reference = dual_density(f0, p0, dv, surf)
    a = SuperExpr.constant(chart.table, 9)
    b = SuperExpr.constant(chart.table, 4)
    alpha = e(chart, "b1*x1")
    beta = e(chart, "b2")
    f1 = a * f0 + alpha * p0
    p1 = beta * f0 + b * p0
    mixed = dual_density(f1, p1, dv, surf)
    factor = berezinian([[a, alpha], [beta, b]], 1).sqrt_even()
    want = surf.restrict(factor) * reference.coefficient
    assert mixed.coefficient == want


def test_densities_P_flat():
    chart, surf = surface_setup()
    dv = VolumeForm(SuperExpr.one(chart.table), chart)
    p0, p1 = densities_P(dv, surf)
    assert p0.is_zero and p1.is_zero


def test_densities_P_worked_example():
    chart, surf = surface_setup()

    def f(i):
        return e(chart, f"x{i}^2 + x1*x2")

    coeff = SuperExpr.one(chart.table) \
        + f(0) * e(chart, "th1*th2") + f(1) * e(chart, "th2*th0") \
        + f(2) * e(chart, "th0*th1")
    dv = VolumeForm(coeff * coeff, chart)
    p0, p1 = densities_P(dv, surf)
    curl = surf.restrict(f(1).diff("x2") - f(2).diff("x1"))
    want_p0 = curl * curl
    want_p1 = surf.restrict(f(2) * e(chart, "th1") - f(1) * e(chart, "th2")) \
        * curl
    assert p0 == want_p0
    assert p1 == want_p1
    # P1 is odd-valued, so it squares to zero
    assert (p1 * p1).is_zero
    assert p0.is_even() and p1.is_odd()
