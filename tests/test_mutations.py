"""Each identity can fail: a wrong formula, patched in place of the right
one, makes a verify suite report FAIL.

Every mutation below changes one term of a formula of the paper, or of
a kernel that the pull-back keeps.  It is patched into every oddsym module
that holds the routine by name (verify, flows and surfaces import by
name), or onto the class that owns a method, with no source edit.  Then
the cheapest suite whose residuals catch it runs through
``cli.cmd_verify``, and one of its checks, not an exception, must report
FAIL.
"""

import sys

import pytest

import oddsym.bv as bv
import oddsym.forms as forms
import oddsym.polys as polys
import oddsym.symplectic as symplectic
from oddsym.cli import cmd_verify
from oddsym.scalars import EvenImages, Scalar
from oddsym.superexpr import SuperExpr, _accumulate, sum_of
from oddsym.symplectic import Semidensity, mat_det

# the routines as written, for the mutations that wrap them
DELTA0, DELTA_VOL, DIVERGENCE_DELTA = bv.delta0, bv.delta_vol, \
    bv.divergence_delta
BEREZINIAN, HAMILTONIAN_FIELD, PULLBACK_SEMIDENSITY = \
    symplectic.berezinian, symplectic.hamiltonian_field, \
    symplectic.pullback_semidensity
PRIMITIVE = polys._primitive


def delta0_unsigned(f, chart):
    """delta0 without the (-1)^pos of th_i's position in a term."""
    table = chart.table
    x_of = {table.odd_index(th): x for x, th in zip(chart.xs, chart.thetas)}
    out = {}
    for key, c in f.terms.items():
        for pos, idx in enumerate(key):
            x = x_of.get(idx)
            if x is not None:
                d = c.diff(x)
                if not d.is_zero:
                    _accumulate(out, key[:pos] + key[pos + 1:], d, 1)
    return SuperExpr(table, out)


def delta_vol_full(f, dv):
    """delta0 f + rho^-1 {rho, f}: the whole rho-term, not its half."""
    return 2 * DELTA_VOL(f, dv) - DELTA0(f, dv.chart)


def berezinian_without_inverse_det(matrix, n):
    """Ber times det D: det(A - B D^-1 C) without the 1/det D."""
    return BEREZINIAN(matrix, n) * \
        mat_det([row[n:] for row in matrix[n:]])


def hamiltonian_field_negated(f, chart, omega=None):
    """The Hamiltonian field with the canonical {f, x^i} negated."""
    field = HAMILTONIAN_FIELD(f, chart, omega)
    if omega is None or omega.is_canonical_matrix:
        field = [-c for c in field[:chart.n]] + field[chart.n:]
    return field


def tau_sharp_minus(w):
    """The Berezin transform against exp(-theta_i xi^i)."""
    out = w.expr
    for _, xi, pair in forms._slots(w.chart):
        out = (out - out * pair).right_diff(xi)
    return Semidensity(out, w.chart)


def pullback_semidensity_ber(fmap, s):
    """The pull-back with Ber in place of Ber^(1/2)."""
    pulled = PULLBACK_SEMIDENSITY(fmap, s)
    return Semidensity(pulled.coefficient * fmap.ber_root, pulled.chart)


def divergence_delta_theta_sign(f, dv):
    """divergence_delta with the theta terms of its odd part negated."""
    chart = dv.chart
    names = chart.coordinate_names
    field = HAMILTONIAN_FIELD(f.odd_part(), chart)
    thetas = sum_of(chart.table, [field[a].diff(names[a])
                                  for a in range(chart.n, 2 * chart.n)])
    return DIVERGENCE_DELTA(f, dv) - thetas


def primitive_unsigned(poly):
    """The primitive part with |c| for its signed content c: a batch's
    -p would reuse the image of p."""
    c, q = PRIMITIVE(poly)
    return abs(c), q


def evaluate_without_rest(images, poly, den=1):
    """EvenImages.evaluate with the kept b^e standing for the whole of
    c x^m: the exponents of the generators not replaced are dropped."""
    total = Scalar.from_int(images.table, 0)
    for mono, c in poly.items():
        e = images.key(mono)
        b = (images.monomials.get(e) or images._monomial(e))[0]
        total = total + b * c
    return total / den


# (routine, its mutation, the cheapest suite whose residuals catch it); a
# method is given as (class, name)
MUTATIONS = {
    "delta0-sign": (DELTA0, delta0_unsigned, "worked-example"),
    "delta_vol-full-rho": (DELTA_VOL, delta_vol_full, "surface"),
    "berezinian-det-D": (BEREZINIAN, berezinian_without_inverse_det,
                         "moser"),
    "canonical-field-sign": (HAMILTONIAN_FIELD, hamiltonian_field_negated,
                             "surface"),
    "tau_sharp-minus": (forms.tau_sharp, tau_sharp_minus, "tau-table"),
    "pullback-ber": (PULLBACK_SEMIDENSITY, pullback_semidensity_ber,
                     "moser"),
    "divergence-theta-sign": (DIVERGENCE_DELTA, divergence_delta_theta_sign,
                              "divergence"),
    "pullback-primitive-sign": (PRIMITIVE, primitive_unsigned, "flows"),
    "body-monomial-rest": ((EvenImages, "evaluate"), evaluate_without_rest,
                           "surface"),
}


def patch_everywhere(monkeypatch, routine, replacement):
    """Put ``replacement`` in place of ``routine`` in every oddsym module
    that holds it by name; returns how many names were patched."""
    held = [(module, name) for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("oddsym")
            for name, value in vars(module).items() if value is routine]
    for module, name in held:
        monkeypatch.setattr(module, name, replacement)
    return len(held)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_makes_its_suite_fail(monkeypatch, mutation):
    routine, replacement, suite = MUTATIONS[mutation]
    if isinstance(routine, tuple):
        monkeypatch.setattr(*routine, replacement)
    else:
        assert patch_everywhere(monkeypatch, routine, replacement)
    lines, ok = cmd_verify(suite)
    assert not ok
    # a check's residual fails: the suite runs to its end, not into an
    # exception
    assert f"{suite}.error" not in dict(lines)
    assert any(key.startswith(f"{suite}.") and text.startswith("FAIL")
               for key, text in lines)
