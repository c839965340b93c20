"""Property-based checks of the core algebra laws."""

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys import euclidtools, heuristicgcd
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracField
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement

from oddsym.bv import delta0
from oddsym.grammar import _monomial_bound, parse_expr, render_expr
from oddsym.sampling import (pushforward_structure, random_canonical_map,
                             random_expr, random_point_map, random_scalar)
from oddsym import polys as dict_polys
from oddsym.polys import _gcd
from oddsym.scalars import Scalar, ScalarError
from oddsym.superexpr import (Pullback, SuperExpr, _merge_keys, sum_of,
                              sum_of_products)
from oddsym.symbols import (TIME_SYMBOL, Chart, SymbolError, standard_chart,
                            standard_table)
from oddsym.symplectic import (OddSymplecticStructure, SuperMap, bracket,
                               bracket_matrix, hamiltonian_field)

TABLE = standard_table(2, aux=1)
CHART = Chart(TABLE, TABLE.even_symbols[:2], TABLE.coordinate_odds)

coefficients = st.integers(min_value=-5, max_value=5)
even_powers = st.tuples(st.integers(min_value=0, max_value=2),
                        st.integers(min_value=0, max_value=2))


@st.composite
def exprs(draw, table=TABLE):
    """Up to three terms over x1, x2 and up to three odd symbols."""
    odd_monomials = st.lists(st.sampled_from(table.odd_names), max_size=3)
    total = SuperExpr.zero(table)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coeff = draw(coefficients)
        powers = draw(even_powers)
        term = SuperExpr.constant(table, coeff)
        for name, power in zip(("x1", "x2"), powers):
            term = term * SuperExpr.symbol(table, name) ** power
        for odd in draw(odd_monomials):
            term = term * SuperExpr.symbol(table, odd)
        total = total + term
    return total


@given(exprs(), exprs(), exprs())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exprs(), exprs())
@settings(max_examples=60, deadline=None)
def test_supercommutativity(a, b):
    for ah in (a.even_part(), a.odd_part()):
        for bh in (b.even_part(), b.odd_part()):
            sign = -1 if (ah.is_odd() and bh.is_odd() and ah and bh) else 1
            assert ah * bh == sign * (bh * ah)


@given(exprs(), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_power_is_repeated_product(a, k):
    product = SuperExpr.one(TABLE)
    for _ in range(k):
        product = product * a
    assert a ** k == product


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_odd_derivatives_square_to_zero(a):
    for name in ("th1", "th2", "b1"):
        assert a.diff(name).diff(name).is_zero


@st.composite
def kernel_operands(draw):
    """An operand of the sum-of-products kernel: a SuperExpr that is
    mixed, even or odd (possibly empty, its odd monomials possibly
    repeating a symbol), one with rational-function coefficients, or
    the constant expression of a Scalar (possibly zero, a rational
    number or a rational function)."""
    base = draw(exprs())
    kind = draw(st.sampled_from(["mixed", "even", "odd", "rational",
                                 "scalar"]))
    if kind == "even":
        return base.even_part()
    if kind == "odd":
        return base.odd_part()
    den = Scalar.symbol(TABLE, "x1") + draw(st.integers(1, 3))
    if kind == "rational":
        return base * (Scalar.from_int(TABLE, 1) / den)
    return SuperExpr.from_scalar(base.body() /
                                 draw(st.sampled_from([1, 3, den])))


def reference_sum_of_products(pairs):
    """The chained arithmetic that ``sum_of_products`` fuses."""
    total = SuperExpr.zero(TABLE)
    for a, b in pairs:
        total = total + a * b
    return total


@given(st.lists(st.tuples(kernel_operands(), kernel_operands()),
                max_size=4), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sum_of_products_matches_chained_arithmetic(pairs, cancel):
    if cancel:  # every product again with the opposite sign
        pairs = pairs + [(-a, b) for a, b in pairs]
    got = sum_of_products(TABLE, pairs)
    assert got == reference_sum_of_products(pairs)
    assert not any(c.is_zero for c in got.terms.values())
    if cancel:
        assert got.terms == {}


@given(st.lists(kernel_operands(), max_size=5))
@settings(max_examples=100, deadline=None)
def test_sum_of_matches_chained_addition(operands):
    total = SuperExpr.zero(TABLE)
    for value in operands:
        total = total + value
    got = sum_of(TABLE, operands)
    assert got == total
    assert not any(c.is_zero for c in got.terms.values())


def test_kernel_refuses_mixed_tables():
    other = SuperExpr.one(standard_table(2, aux=1))
    one = SuperExpr.one(TABLE)
    with pytest.raises(SymbolError, match="mixed symbol tables"):
        sum_of_products(TABLE, [(one, other)])
    with pytest.raises(SymbolError, match="mixed symbol tables"):
        sum_of(TABLE, [one, other])


# th1 th2 | xi1 xi2 | b1: every kind of odd symbol
FRAMED = standard_table(2, aux=1, frame=True)


def _right_diff_by_term_walk(expr, name):
    """The right derivative term by term: the factor at position pos of a
    key of length len moves to the right end past len - 1 - pos odd
    factors."""
    idx = expr.table.odd_index(name)
    out = {}
    for key, c in expr.terms.items():
        if idx not in key:
            continue
        pos = key.index(idx)
        new_key = key[:pos] + key[pos + 1:]
        value = c if (len(key) - 1 - pos) % 2 == 0 else -c
        out[new_key] = out[new_key] + value if new_key in out else value
    return SuperExpr(expr.table,
                     {k: v for k, v in out.items() if not v.is_zero})


@given(exprs(FRAMED))
@settings(max_examples=60, deadline=None)
def test_right_diff_matches_term_walk(a):
    for name in FRAMED.odd_names:
        want = _right_diff_by_term_walk(a, name)
        assert a.right_diff(name) == want
        assert a.signed_diff(name) == -want


def test_right_diff_of_even_name_raises():
    f = parse_expr("x1*th1 + x2", FRAMED)
    for name in ("x1", "x2", "y"):
        with pytest.raises(SymbolError, match="is not an odd symbol"):
            f.right_diff(name)
        with pytest.raises(SymbolError, match="is not an odd symbol"):
            f.signed_diff(name)


def test_theta_and_frame_degrees_count_by_name():
    table = standard_table(3, aux=2, frame=True)
    n = len(table.odd_names)
    for size in range(n + 1):
        for key in itertools.combinations(range(n), size):
            names = [table.odd_name(i) for i in key]
            assert table.theta_degree(key) == \
                sum(name in table.coordinate_odds for name in names)
            assert table.frame_degree(key) == \
                sum(name in table.frame_odds for name in names)


def _monomial_count(expr):
    return sum(len(c.f.numer) + (not c.f.denom.is_ground) * len(c.f.denom)
               for c in expr.terms.values())


@given(exprs(), exprs(), st.integers(min_value=0, max_value=4),
       st.sampled_from(["1", "x1 + 2", "x2^2 + 3", "x1*x2 - 1"]),
       st.sampled_from(["1", "x1 + 1", "x1^2 + 2*x2"]))
@settings(max_examples=60, deadline=None)
def test_monomial_bound_holds(a, b, k, den_a, den_b):
    """The parser's bound never undercounts, for polynomial and rational
    coefficients, with shared and distinct denominators."""
    a = a / parse_expr(den_a, TABLE)
    b = a + b / parse_expr(den_b, TABLE)
    assert _monomial_count(a * b) <= _monomial_bound([(a, 1), (b, 1)])
    assert _monomial_count(b ** k) <= _monomial_bound([(b, k)])


@given(exprs(), exprs(), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=8))
@example(parse_expr("x1*x2 + x1 + 2", TABLE), SuperExpr.one(TABLE), 30, 0)
@settings(max_examples=60, deadline=None)
def test_monomial_bound_holds_for_powers(a, b, j, k):
    """Powers of polynomial-coefficient expressions, where a factor taken
    k times is bounded by the multisets of k of its monomials."""
    assert _monomial_count(a ** j * b ** k) <= \
        _monomial_bound([(a, j), (b, k)])
    assert _monomial_count((a + b) ** k) <= _monomial_bound([(a + b, k)])


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(a):
    assert parse_expr(render_expr(a), TABLE) == a


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_homogeneous_parts_sum_back(a):
    total = SuperExpr.zero(TABLE)
    for p in range(TABLE.n_theta + 1):
        total = total + a.homogeneous_part(p)
    assert total == a


@given(exprs())
@settings(max_examples=40, deadline=None)
def test_invert_even_round_trip(a):
    f = SuperExpr.one(TABLE) + a.even_part() - \
        SuperExpr.from_scalar(a.even_part().body())
    assert f * f.invert_even() == SuperExpr.one(TABLE)


# -- the Scalar kernel against plain FracField arithmetic -------------------

def sympy_field(table):
    """The sympy FracField of the table's even symbols in graded-lex order,
    the oracle of the Scalar kernel: sympy fields compare by value."""
    return FracField(table.even_symbols, ZZ, grlex)


FIELD = sympy_field(TABLE)
RING = FIELD.ring

def ring_polys(ring):
    return st.dictionaries(
        even_powers, st.integers(min_value=-6, max_value=6),
        max_size=4).map(
        lambda d: ring.from_dict({m: c for m, c in d.items() if c}))


polys = ring_polys(RING)
nonzero_ints = st.integers(min_value=-12, max_value=12).filter(bool)


@st.composite
def fracs(draw, field=FIELD):
    """A FracElement in canonical form, built by FracField itself."""
    numer = ring_polys(field.ring)
    denominators = st.one_of(nonzero_ints.map(field.ring.ground_new),
                             numer.filter(bool))
    return field.new(draw(numer), draw(denominators))


def plain(poly):
    """The polynomial dict a Scalar holds for a PolyElement."""
    return {mono: int(c) for mono, c in poly.items()}


def refuse_sympy_gcds():
    """A context in which sympy's polynomial gcd and exact-division
    routines raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sympy gcd routine ran")
    stack = contextlib.ExitStack()
    for owner, name in [(PolyElement, "cofactors"), (PolyElement, "exquo"),
                        (PolyElement, "gcd"), (euclidtools, "dup_gcd"),
                        (euclidtools, "dup_inner_gcd"),
                        (euclidtools, "dmp_inner_gcd"),
                        (heuristicgcd, "heugcd")]:
        stack.enter_context(mock.patch.object(owner, name, refuse))
    return stack


def scalar(f, table=TABLE):
    """The Scalar of a FracField element, taken as it is: FracField's own
    lowest terms are the Scalar form, with a constant denominator read as
    an int."""
    denom = f.denom
    return Scalar(table, plain(f.numer),
                  int(denom.LC) if denom.is_ground else plain(denom))


def assert_polynomial_dict(poly, ring):
    """A plain dict from exponent tuples of the ring to nonzero ints."""
    assert type(poly) is dict
    for mono, c in poly.items():
        assert type(mono) is tuple and len(mono) == ring.ngens
        assert type(c) is int and c


def assert_canonical(s):
    """The one form a Scalar is held in (see oddsym.scalars): a numerator
    dict of the table's ring over either a positive integer coprime to
    its content or a nonconstant polynomial dict with positive leading
    coefficient, coprime to it; zero is 0/1."""
    ring = sympy_field(s.table).ring
    numer, denom = s.numer, s.denom
    assert_polynomial_dict(numer, ring)
    if isinstance(denom, dict):
        assert_polynomial_dict(denom, ring)
        denom = ring.dtype(denom)
        assert not denom.is_ground and denom.LC > 0
        assert ring.dtype(numer).gcd(denom) == 1
    else:
        assert isinstance(denom, int) or ZZ.of_type(denom)
        assert denom > 0 and math.gcd(denom, *numer.values()) == 1


def same(got, want):
    assert got.f == want
    assert_canonical(got)
    reference = scalar(want)
    assert got.numer_terms == reference.numer_terms
    assert got.denom_terms == reference.denom_terms


@given(fracs(), fracs(), st.integers(min_value=-40, max_value=40))
@settings(max_examples=200, deadline=None)
def test_scalar_kernel_matches_frac_field(f, g, k):
    a, b = scalar(f), scalar(g)
    same(a * b, f * g)
    same(a + b, f + g)
    same(a - b, f - g)
    same(a - a, FIELD.zero)
    same(k - a, FIELD(k) - f)
    same(a * k, f * k)
    if g:
        same(a / b, f / g)
    if k:
        same(a / k, f / FIELD(k))
    for name, gen in zip(("x1", "x2"), FIELD.gens):
        same(a.diff(name), f.diff(gen))
    same(Scalar.from_int(TABLE, k), FIELD(k))
    same(Scalar.from_fraction(TABLE, Fraction(k, 6)), FIELD(k) / 6)
    same(a ** 3, f * f * f)
    if f:
        same(a ** -1, FIELD.one / f)


nonconstant_polys = polys.filter(lambda p: not p.is_ground)
nonzero_polys = polys.filter(bool)


@st.composite
def factor_sharing_fracs(draw):
    """(f, g) in canonical form with a nonconstant factor h forced where
    the field path cancels it: across a product (f = h p/q against
    g = r/(h s)), between denominators (b and d sharing h), or squared
    in a denominator (b = h^2 q, for diff)."""
    h = draw(nonconstant_polys)
    p, r = draw(polys), draw(polys)
    q, s = draw(nonzero_polys), draw(nonzero_polys)
    shape = draw(st.sampled_from(["across", "shared", "squared"]))
    if shape == "across":
        f = FIELD.new(h * p, q)
    elif shape == "shared":
        f = FIELD.new(p, h * q)
    else:
        f = FIELD.new(p, h * h * q)
    g = FIELD.new(r, h * s)
    return (f, g) if draw(st.booleans()) else (g, f)


def _scalar_ops(f, g):
    """a * b, a + b, a - b, a / b, a ** -1, da/dx1 and da/dx2 for the
    Scalars a and b of f and g; None where an operand is zero."""
    a, b = scalar(f), scalar(g)
    out = [a * b, a + b, a - b, a / b if g else None, a ** -1 if f else None]
    return out + [a.diff(name) for name in ("x1", "x2")]


def _frac_ops(f, g):
    """The same operations in plain FracField arithmetic."""
    out = [f * g, f + g, f - g, f / g if g else None,
           FIELD.one / f if f else None]
    return out + [f.diff(gen) for gen in FIELD.gens]


def _compare(gots, wants):
    for got, want in zip(gots, wants, strict=True):
        if want is not None:
            same(got, want)


@given(factor_sharing_fracs())
@settings(max_examples=200, deadline=None)
def test_cross_cancellation_matches_frac_field(pair):
    _compare(_scalar_ops(*pair), _frac_ops(*pair))


def _support(poly):
    return {i for mono in poly for i, e in enumerate(mono) if e}


@given(factor_sharing_fracs())
@settings(max_examples=30, deadline=None)
def test_field_path_takes_no_whole_product_gcd(pair):
    # FracField reaches lowest terms through PolyElement.cancel on the
    # whole product; the Scalar kernel cancels factor by factor instead,
    # with no sympy gcd, and only operands that share a generator and
    # have two terms or more each reach the heuristic gcd
    def refuse(self, other):
        raise AssertionError("PolyElement.cancel called")

    calls = []
    heuristic = dict_polys._heuristic_gcd

    def count(ring, p, q, i):
        calls.append((p, q, i))
        return heuristic(ring, p, q, i)

    f = pair[0]
    with mock.patch.object(PolyElement, "cancel", refuse), \
            mock.patch.object(dict_polys, "_heuristic_gcd", count):
        with refuse_sympy_gcds():
            gots = _scalar_ops(*pair)
        root = (scalar(f) * scalar(f)).sqrt() if f else None
    _compare(gots, _frac_ops(*pair))
    if f:
        same(root, f if scalar(f).leading_sign() > 0 else -f)
    assert all(i in _support(p) & _support(q) and len(p) > 1 and len(q) > 1
               for p, q, i in calls)


@given(fracs(), fracs())
@settings(max_examples=40, deadline=None)
def test_kernel_results_are_canonical(f, g):
    """Each kernel site that makes a polynomial or a zero gives it the
    canonical form with the integer denominator 1; the operations on them
    give the canonical form and change no operand."""
    x1, x2 = Scalar.symbol(TABLE, "x1"), Scalar.symbol(TABLE, "x2")
    polys = [x1 * x2 + 1, x1 - x2 * 3, (x1 * x1).diff("x1"),
             Scalar.from_int(TABLE, 20), Scalar.from_fraction(TABLE, 7),
             (x1 / (x2 + 1)) * (x2 + 1), (x1 * x1).subs_even({"x1": x2}),
             ((x1 + 1) * (x1 + 1)).sqrt(), x1, x1 * 1, -x2,
             (2 * x1) / 2, Scalar.from_fraction(TABLE, Fraction(1, 2)) * 2,
             Scalar.from_poly(TABLE, {}, 3)]
    # a zero from each kernel site that makes one: polynomial and field
    # products, a field sum, a field derivative and an unbound body
    rat = x1 / (x2 + 1)
    zeros = [x1 * 0, rat * 0, rat - rat, (1 / (x2 + 1)).diff("x1"),
             Pullback(TABLE, {"x1": parse_expr("th1*th2", TABLE)})
             .bodies["x1"]]
    assert all(z.is_zero for z in zeros)
    polys += zeros
    for p in polys:
        assert_canonical(p)
        assert p.integer_denominator() == 1
    before = [(p.numer_terms, p.denom_terms) for p in polys]
    for outs in [_scalar_ops(f, g)] + [_scalar_ops(a.f, f) for a in polys]:
        for out in outs:
            if out is not None:
                assert_canonical(out)
    assert [(p.numer_terms, p.denom_terms) for p in polys] == before


@given(fracs().filter(lambda f: f and not f.denom.is_ground),
       st.sampled_from([(), ("th1",), ("th1", "b1")]),
       st.integers(min_value=0, max_value=8))
@example(FIELD.one / (FIELD.gens[0] + FIELD.gens[1] + 1), (), 8)
@settings(max_examples=60, deadline=None)
def test_monomial_bound_holds_for_a_rational_term_power(f, odds, k):
    """One rational term p/q taken k times is p^k/q^k in lowest terms."""
    term = SuperExpr.from_raw_terms(TABLE, [(scalar(f), odds)])
    assert _monomial_count(term ** k) <= _monomial_bound([(term, k)])


def field_power(f, k):
    """f ** k in FracField arithmetic, with f ** 0 = 1 for every f."""
    out = FIELD.one
    for _ in range(abs(k)):
        out *= f
    return out if k >= 0 else FIELD.one / out


@given(fracs(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_powers_negation_and_roots_match_frac_field(f, k):
    a = scalar(f)
    same(-a, -f)
    if k >= 0 or f:
        same(a ** k, field_power(f, k))
    same((a * a).sqrt(), f if a.leading_sign() >= 0 else -f)


@given(fracs().filter(lambda f: f.denom.is_ground),
       st.sampled_from([("x1",), ("x2",), ("x1", "x2")]),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_radial_matches_frac_field(f, names, k):
    indices = [TABLE.even_index(name) for name in names]
    want = FIELD.zero
    for mono, coeff in f.numer.terms():
        want += FIELD(RING.from_dict({mono: coeff})) / \
            (sum(mono[i] for i in indices) + k)
    same(scalar(f).radial(names, k), want / f.denom)


def test_zeroth_power_is_one_and_negative_powers_invert():
    zero = Scalar.from_int(TABLE, 0)
    assert zero ** 0 == 1 and SuperExpr.zero(TABLE) ** 0 == 1
    assert parse_expr("0^0", TABLE) == 1
    with pytest.raises(ScalarError):
        zero ** -1
    for v in (-2, Fraction(-2, 3), Fraction(5, 7), 1, -1):
        c = Scalar.from_fraction(TABLE, v)
        for k in range(-4, 5):
            got = c ** k
            assert_canonical(got)
            assert got == Fraction(v) ** k
    x1, x2 = Scalar.symbol(TABLE, "x1"), Scalar.symbol(TABLE, "x2")
    for c in (-3 * (x1 - 2) / (x2 + 1), (x1 * x2 - 1) / -6):
        assert_canonical(c ** -2)
        assert c ** -2 * c ** 2 == 1 and c ** 0 == 1


numbers = st.one_of(st.integers(min_value=-2, max_value=2),
                    st.fractions(min_value=-2, max_value=2,
                                 max_denominator=3))


@st.composite
def values(draw):
    """An int, a Fraction, a Scalar or a SuperExpr, often a small constant
    and so often equal to a value of another of those types."""
    kind = draw(st.sampled_from(["int", "fraction", "scalar", "superexpr"]))
    if kind == "int":
        return draw(st.integers(min_value=-2, max_value=2))
    number = Fraction(draw(numbers))
    if kind == "fraction":
        return number
    c = draw(st.one_of(st.just(Scalar.from_fraction(TABLE, number)),
                       fracs().map(scalar)))
    if kind == "scalar":
        return c
    return draw(st.one_of(st.just(SuperExpr.from_scalar(c)),
                          st.just(SuperExpr.zero(TABLE)), exprs()))


def test_values_of_different_tables_are_unequal():
    other = standard_table(2, aux=1)
    for a, b in ((SuperExpr.constant(TABLE, 1), Scalar.from_int(other, 1)),
                 (SuperExpr.symbol(TABLE, "x1"),
                  Scalar.symbol(other, "x1")),
                 (SuperExpr.constant(TABLE, 1), SuperExpr.one(other)),
                 (Scalar.from_int(TABLE, 1), Scalar.from_int(other, 1))):
        assert a != b and b != a
        assert not a == b and not b == a


@given(st.lists(values(), min_size=2, max_size=6))
@example([3, Fraction(3), Scalar.from_int(TABLE, 3),
          SuperExpr.constant(TABLE, 3)])
@example([0, Scalar.from_int(TABLE, 0), SuperExpr.zero(TABLE),
          SuperExpr.from_scalar(Scalar.from_int(TABLE, 0))])
@example([Fraction(-1, 2), Scalar.from_fraction(TABLE, Fraction(-1, 2)),
          SuperExpr.constant(TABLE, Fraction(-1, 2))])
@example([Scalar.symbol(TABLE, "x1") / 2,
          SuperExpr.symbol(TABLE, "x1") / 2])
@settings(max_examples=100, deadline=None)
def test_equal_values_hash_equal(items):
    for a, b in itertools.combinations(items, 2):
        if a == b:
            assert hash(a) == hash(b)


# -- the fast lanes: trivial operands against plain FracField arithmetic ------

constants = st.one_of(st.sampled_from([0, 1, -1]),
                      st.integers(min_value=-20, max_value=20),
                      st.fractions(min_value=-20, max_value=20,
                                   max_denominator=12))


def field_constant(c):
    c = Fraction(c)
    return FIELD(c.numerator) / c.denominator


@given(fracs(), constants)
@example(FIELD.gens[0] / 6, Fraction(3, 4))
@settings(max_examples=200, deadline=None)
def test_constant_side_products_match_frac_field(f, c):
    """A side that is 0, 1, -1, an integer or a rational constant, as a
    number or a Scalar, on either side of a polynomial or rational one."""
    a, k = scalar(f), Scalar.from_fraction(TABLE, c)
    want = f * field_constant(c)
    for got in (a * k, k * a, a * c, c * a):
        same(got, want)
    same(k * k, field_constant(c) ** 2)


def field_terms(expr):
    return {key: c.f for key, c in expr.terms.items()}


def reference_sum(a, b):
    out = field_terms(a)
    for key, c in b.terms.items():
        out[key] = out.get(key, FIELD.zero) + c.f
    return {key: c for key, c in out.items() if c}


def reference_product(a, b):
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            merged = _merge_keys(ka, kb)
            if merged is not None:
                sign, key = merged
                out[key] = out.get(key, FIELD.zero) + ca.f * cb.f * sign
    return {key: c for key, c in out.items() if c}


maybe_empty = st.one_of(st.just(SuperExpr.zero(TABLE)), exprs())


@given(st.lists(st.tuples(kernel_operands(), kernel_operands()),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_memoized_key_merges_match_frac_field_products(pairs):
    # every example runs on TABLE, so most merges come from the memo the
    # earlier examples filled; the second call reads all of them from it
    for a, b in pairs:
        want = reference_product(a, b)
        for _ in range(2):
            assert field_terms(sum_of_products(TABLE, [(a, b)])) == want
    assert all(merged == _merge_keys(ka, kb)
               for ka, row in TABLE.key_merges.items()
               for kb, merged in row.items())


@given(maybe_empty, maybe_empty)
@settings(max_examples=100, deadline=None)
def test_empty_side_sums_and_products_match_frac_field(a, b):
    assert field_terms(a + b) == reference_sum(a, b)
    assert field_terms(a * b) == reference_product(a, b)
    assert field_terms(a - b) == reference_sum(a, -b)
    if not b:
        assert a + b is a and a - b is a
        assert b + a is (a if a else b)
        assert not a * b and not b * a
    for zero in (0, Fraction(0), Scalar.from_int(TABLE, 0)):
        assert a + zero is a and zero + a is a
        assert not a * zero and not zero * a


@st.composite
def fracs_free_of(draw, i):
    """A polynomial or rational FracElement in which x_(i+1) does not
    occur."""
    def poly(exponents):
        return RING.from_dict({tuple(e if j != i else 0 for j in range(2)): c
                               for e, c in exponents.items() if c})
    numer = st.dictionaries(st.integers(min_value=0, max_value=3),
                            st.integers(min_value=-6, max_value=6),
                            max_size=4).map(poly)
    den = st.one_of(nonzero_ints.map(RING.ground_new), numer.filter(bool))
    return FIELD.new(draw(numer), draw(den))


@given(st.sampled_from([0, 1]).flatmap(
    lambda i: st.tuples(st.just(i), fracs_free_of(i))))
@settings(max_examples=100, deadline=None)
def test_variable_free_derivatives_match_frac_field(case):
    i, f = case
    name = ("x1", "x2")[i]
    got = scalar(f).diff(name)
    same(got, f.diff(FIELD.gens[i]))
    assert got.is_zero
    expr = SuperExpr.from_scalar(scalar(f)) * SuperExpr.symbol(TABLE,
                                                                      "th1")
    assert not expr.diff(name)


def test_constant_products_multiply_no_polynomials():
    # a polynomial times 1, -1, 7 or 2/3 scales its numerator
    x1, x2 = Scalar.symbol(TABLE, "x1"), Scalar.symbol(TABLE, "x2")
    poly = x1 * x1 * x2 - x2 * 3 + 5
    cases = [(p, c) for p in (poly, poly / 6, poly / 2)
             for c in (1, -1, 7, Fraction(2, 3))]
    wants = [p.f * field_constant(c) for p, c in cases]

    def refuse(self, other):
        raise AssertionError("PolyElement.__mul__ called")

    with mock.patch.object(PolyElement, "__mul__", refuse), \
            mock.patch.object(PolyElement, "__rmul__", refuse):
        gots = [(p * c, c * p, p * Scalar.from_fraction(TABLE, c),
                 Scalar.from_fraction(TABLE, c) * p) for p, c in cases]
    for products, want in zip(gots, wants, strict=True):
        for got in products:
            same(got, want)
    assert poly * 1 is poly


# -- the polynomial dicts against PolyElement arithmetic ----------------------

_X1, _X2 = RING.gens


@given(polys, polys, st.sampled_from([0, 1]), nonzero_ints,
       st.integers(min_value=1, max_value=4))
@example(_X1 + 1, _X1 - 1, 0, -1, 2)  # the cross terms of a product cancel
@example(_X1 * _X2 - 3, 3 - _X2 * _X1, 1, 5, 1)  # a sum cancels to zero
@example(RING.zero, _X1 ** 2 + _X2, 1, 2, 3)
@example(_X2 ** 2 - 1, RING.zero, 0, 3, 2)  # x1 does not occur
@settings(max_examples=200, deadline=None)
def test_polynomial_dict_helpers_match_poly_element(p, q, i, k, n):
    """Products, sums, differences, negation, scaling, exact quotients,
    derivatives (plain and divided) and powers of the dicts a Scalar holds
    equal the PolyElement results, store no zero coefficient and leave
    their operands as they were: operands are shared between Scalars."""
    a, b = plain(p), plain(q)
    before = (dict(a), dict(b))
    gen = RING.gens[i]
    free = {m: c for m, c in a.items() if not m[i]}
    cases = [
        (dict_polys._product(TABLE.ring, a, b), p * q),
        (dict_polys._product(TABLE.ring, b, a), p * q),
        (dict_polys._sum(a, b), p + q),
        (dict_polys._sum(a, b, True), p - q),
        (dict_polys._sum(a, a, True), RING.zero),
        (dict_polys._sum(a, dict_polys._scaled(a, -1)), RING.zero),
        (dict_polys._scaled(a, -1), -p),
        (dict_polys._scaled(a, k), p * k),
        (dict_polys._quotient(dict_polys._scaled(a, k), k), p),
        (dict_polys.divided_derivative(a, i), p.diff(gen)),
        (dict_polys.divided_derivative(dict_polys._scaled(a, k), i, k),
         p.diff(gen)),
        (dict_polys.divided_derivative(free, i), RING.zero),
        (dict_polys._power(TABLE.ring, a, n), p ** n),
    ]
    for got, want in cases:
        assert_polynomial_dict(got, RING)
        assert got == plain(want)
    assert (a, b) == before


def test_integer_denominator_arithmetic_builds_no_poly_elements():
    """The polynomial-first path works on the dicts alone: with
    PolyElement construction refused it still multiplies, adds,
    subtracts, differentiates, negates, raises to powers, takes radial
    integrals, substitutes and pulls back through nilpotent even images."""
    x1, x2 = Scalar.symbol(TABLE, "x1"), Scalar.symbol(TABLE, "x2")
    p = (x1 * x1 * x2 - x2 * 3 + 5) / 6
    q = (x1 + x2 * 2 - 1) / 4
    images = {"x1": q, "x2": x1 + 1}
    expr = SuperExpr.from_scalar(p) * SuperExpr.symbol(TABLE, "b1") + \
        SuperExpr.from_scalar(q)
    binding = {"x1": parse_expr("x1 + x2*th1*th2", TABLE),
               "x2": parse_expr("x2 - 2*th1*th2 + 3", TABLE)}
    wants = [p.f * q.f, p.f + q.f, p.f - q.f, -p.f, p.f ** 3,
             p.f.diff(FIELD.gens[0]), p.f.diff(FIELD.gens[1])]

    def refuse(self, *args):
        raise AssertionError("PolyElement built")

    with mock.patch.object(PolyElement, "__init__", refuse):
        gots = [p * q, p + q, p - q, -p, p ** 3, p.diff("x1"), p.diff("x2")]
        rest = [p ** 0, p.radial(("x1", "x2"), 2), p.subs_even(images),
                Pullback(TABLE, binding)(expr)]
    for got, want in zip(gots, wants, strict=True):
        same(got, want)
    assert rest[0] == 1
    assert rest[1] == p.radial(("x1", "x2"), 2)
    assert rest[2] == p.subs_even(images)
    assert rest[3] == expr.substitute(binding)


def test_repr_reads_as_a_quotient():
    x1, x2 = Scalar.symbol(TABLE, "x1"), Scalar.symbol(TABLE, "x2")
    assert repr(x1 / (x1 + 1)) == "Scalar((x1)/(x1 + 1))"
    assert repr((x1 * x1 - 4) / 6) == "Scalar((x1**2 - 4)/(6))"
    assert repr(Scalar.from_int(TABLE, 0)) == "Scalar((0)/(1))"
    assert repr(-(x2 - 3 * x1) / (x1 * x2 + 2)) == \
        "Scalar((3*x1 - x2)/(x1*x2 + 2))"


@given(fracs())
@settings(max_examples=100, deadline=None)
def test_terms_come_in_poly_element_order(f):
    # every golden is rendered from numer_terms and denom_terms
    s = scalar(f)
    assert s.numer_terms == [(m, int(c)) for m, c in f.numer.terms()]
    assert s.denom_terms == [(m, int(c)) for m, c in f.denom.terms()]


# -- the gcd routes against PolyElement.cofactors ----------------------------

GCD_TABLE = standard_table(2, aux=1, extra_even=("t",))  # x1, x2, t
GCD_RING = sympy_field(GCD_TABLE).ring


def polys_in(gens, max_degree=2):
    """Nonzero polynomials of GCD_RING in the generators of index gens."""
    def monomial(exps):
        mono = [0, 0, 0]
        for i, e in zip(gens, exps):
            mono[i] = e
        return tuple(mono)
    exponents = st.lists(st.integers(min_value=0, max_value=max_degree),
                         min_size=len(gens), max_size=len(gens))
    return st.dictionaries(exponents.map(monomial), nonzero_ints,
                           min_size=1, max_size=4).map(GCD_RING.from_dict)


contents = st.integers(min_value=1, max_value=12)
GCD_ROUTES = {"disjoint": 0, "factor": 1, "contents": 1, "many": 2}


@st.composite
def gcd_pairs(draw):
    """Nonconstant (p, q), shaped to reach one lane of _gcd:
    no shared generator with a common integer content; one shared
    generator with a forced common factor in it; one shared generator
    with only integer contents, so that a constant step may be reduced
    by later coefficients; or two or more shared generators."""
    s, u, w = draw(st.permutations(range(3)))
    shape = draw(st.sampled_from(sorted(GCD_ROUTES)))

    def having(*gens):
        return lambda poly: set(gens) <= _support(poly)
    if shape == "disjoint":
        k = draw(contents)
        p = draw(polys_in([s])) * k
        q = draw(polys_in(draw(st.sampled_from([[u], [w], [u, w]])))) * k
    elif shape == "factor":
        h = draw(polys_in([s]).filter(having(s)))
        p = h * draw(polys_in([s, u])) * draw(contents)
        q = h * draw(polys_in([s, w])) * draw(contents)
    elif shape == "contents":
        p = draw(polys_in([s, u]).filter(having(s))) * draw(contents)
        q = draw(polys_in([s, w]).filter(having(s))) * draw(contents)
    else:
        h = draw(st.one_of(st.just(GCD_RING.one), polys_in([s, u])))
        full = polys_in([s, u, w]).filter(having(s, u))
        p = h * draw(full) * draw(contents)
        q = h * draw(full) * draw(contents)
    assume(not p.is_ground and not q.is_ground)
    shared = len(_support(p) & _support(q))
    assert min(shared, 2) == GCD_ROUTES[shape]
    return p, q


_x1, _x2, _t = GCD_RING.gens


@given(gcd_pairs())
@example((3 * _x1 * _x2 + 6, 9 * _x1 ** 2 + 3))
@example((6 * _x1 * _t + 4, 2 * _x1 ** 2 * _x2 + 2 * _x1 + 3))
@example((_x1 * _x2 + 1, _x1 ** 2 - _t))
@example((4 * _x2 ** 2 + 2, 6 * _x1 * _t - 6))
@example((3 - _x1 * _x2, 3 - _x1 * _x2))  # equal sides, negative lead
@settings(max_examples=300, deadline=None)
def test_gcd_routes_match_cofactors(pair):
    p, q = pair
    assert _gcd(GCD_TABLE.ring, plain(p), plain(q)) == \
        tuple(map(plain, p.cofactors(q)))
    assert _gcd(GCD_TABLE.ring, plain(q), plain(p)) == \
        tuple(map(plain, q.cofactors(p)))


def test_two_entry_chain_takes_one_gcd_call():
    # p = a(x1) x2 and q = b(x1) t^2: one coefficient each in Z[x1], so
    # the images at x1 = xi are one-term sides, and h and both cofactors
    # come from one heuristic gcd, with no sympy routine
    pairs = [(4 * (_x1 + 1) * (_x1 - 2) * _x2, 6 * (_x1 + 1) * (2 * _x1 + 3) * _t ** 2),
             (-(_x1 ** 2 - 1) * _x2 ** 2, (3 * _x1 + 3) * _t),
             ((_x1 + 1) * _x2, (_x1 + 2) * _t)]
    calls = []
    for p, q in pairs:
        for a, b in ((p, q), (q, p)):
            want = tuple(map(plain, a.cofactors(b)))
            with refuse_sympy_gcds(), \
                    mock.patch.object(dict_polys, "_heuristic_gcd",
                                      wraps=dict_polys._heuristic_gcd) as heu:
                assert _gcd(GCD_TABLE.ring, plain(a), plain(b)) == want
            calls.append(heu.call_count)
    assert calls == [1] * 6


def owned_gcd(a, b):
    """_gcd of two PolyElements of GCD_RING."""
    return _gcd(GCD_TABLE.ring, plain(a), plain(b))


def prs_gcd(a, b):
    """The primitive PRS fallback alone, on two PolyElements of GCD_RING,
    its gcd signed as _gcd signs one."""
    p, q = plain(a), plain(b)
    out = dict_polys._prs_gcd(GCD_TABLE.ring, p, q)
    if out[0][dict_polys._gcd_lead(GCD_TABLE.ring, out[0], p, q)] < 0:
        out = tuple(dict_polys._scaled(poly, -1) for poly in out)
    return out


def assert_gcd_matches_cofactors(p, q, gcd=owned_gcd):
    """``gcd`` against sympy's cofactors in both argument orders, with
    every sympy gcd routine refused while it runs, and h (p/h) == p;
    returns the seconds ``gcd`` took."""
    seconds = 0
    for a, b in ((p, q), (q, p)):
        want = tuple(map(plain, a.cofactors(b)))
        with refuse_sympy_gcds():
            start = time.perf_counter()
            got = gcd(a, b)
            seconds += time.perf_counter() - start
        assert got == want
        assert dict_polys._product(GCD_TABLE.ring, got[0],
                                   got[1]) == plain(a)
    return seconds


big_contents = st.integers(min_value=1, max_value=10 ** 40)


@st.composite
def owned_gcd_pairs(draw):
    """(p, q) in all three generators of GCD_RING, of degree up to 6 in
    each, times contents up to 10^40: a shared factor in two generators,
    a coprime pair, or a one-term side."""
    shape = draw(st.sampled_from(["shared", "coprime", "one-term"]))
    s, u, w = draw(st.permutations(range(3)))
    factors = polys_in([0, 1, 2], max_degree=3)
    if shape == "shared":
        h = draw(polys_in([s, u], max_degree=3).filter(
            lambda poly: {s, u} <= _support(poly)))
        p, q = h * draw(factors), h * draw(factors)
    elif shape == "coprime":
        p = draw(polys_in([s, u], max_degree=6))
        q = draw(polys_in([w], max_degree=6)) + draw(polys_in([s, u, w]))
        assume(p.gcd(q) == 1)
    else:
        p = draw(polys_in([0, 1, 2], max_degree=6).map(
            lambda poly: GCD_RING({poly.LM: poly.LC})))
        q = draw(polys_in([0, 1, 2], max_degree=6))
    return p * draw(big_contents), q * draw(big_contents)


@given(owned_gcd_pairs())
@settings(max_examples=200, deadline=None)
def test_owned_gcd_matches_cofactors(pair):
    assert_gcd_matches_cofactors(*pair)


HOSTILE_PAIRS = {
    "x1^600-1,x1^400-1": (_x1 ** 600 - 1, _x1 ** 400 - 1),
    "degree-40-shared": (
        (_x1 ** 40 - 3 * _x1 ** 17 * _x2 ** 23 + 5 * _x2 ** 40 + 7)
        * (_x1 * _x2 - 2),
        (_x1 ** 40 - 3 * _x1 ** 17 * _x2 ** 23 + 5 * _x2 ** 40 + 7)
        * (_x2 ** 2 + _x1 * _t + 1)),
    "coprime-30": (_x1 ** 30 + 4 * _x1 ** 11 * _x2 ** 19 - 9,
                   2 * _x1 ** 29 * _x2 - _x1 + 5),
    "coprime-30-t": (_x1 ** 30 * _t - 7 * _x2 ** 30 + 1,
                     _x1 ** 30 + _x2 ** 30 * _t ** 2),
}


@pytest.mark.parametrize("gcd", [owned_gcd, prs_gcd], ids=["gcd", "prs"])
@pytest.mark.parametrize("name", sorted(HOSTILE_PAIRS))
def test_owned_gcd_hostile_operands(name, gcd):
    assert assert_gcd_matches_cofactors(*HOSTILE_PAIRS[name], gcd) < 1


@given(st.one_of(gcd_pairs(), owned_gcd_pairs()))
@settings(max_examples=100, deadline=None)
def test_prs_fallback_matches_cofactors(pair):
    # the fallback on its own, as if the heuristic gave up on this pair;
    # its gcds of coefficients still take the heuristic first
    assert_gcd_matches_cofactors(*pair, prs_gcd)


def test_radial_inverts_euler_plus_k():
    # r = int_0^1 s^(k-1) c(s x) ds solves sum_i x^i dr/dx^i + k r = c;
    # the extra symbol t is not scaled
    table = standard_table(2, extra_even=("t",))
    xs = ("x1", "x2")
    rng = random.Random(23)
    for _ in range(20):
        c = random_scalar(rng, table, coeff_degree=4) / rng.choice([1, 2, 6])
        for k in range(1, 5):
            r = c.radial(xs, k)
            euler = sum((Scalar.symbol(table, x) * r.diff(x) for x in xs),
                        k * r)
            assert euler == c
    with pytest.raises(ScalarError):
        (1 / (Scalar.symbol(table, "x1") + 1)).radial(xs, 1)


@given(fracs(), fracs(), fracs())
@settings(max_examples=60, deadline=None)
def test_subs_even_matches_frac_field(f, g, h):
    images = {"x1": scalar(g), "x2": scalar(h)}

    def evaluate(poly):
        total = FIELD.zero
        for mono, coeff in poly.terms():
            term = FIELD(coeff)
            for image, power in zip((g, h), mono):
                if power:
                    term *= image ** power
            total += term
        return total

    den = evaluate(f.denom)
    if den:
        same(scalar(f).subs_even(images), evaluate(f.numer) / den)


# -- substitution and bracket matrices against the term-by-term oracles ------

# Four odd symbols, so that squares and cross products of nilpotent even
# images survive and the Taylor expansion reaches second order.
SUB_TABLE = standard_table(2, aux=2)
SUB_FIELD = sympy_field(SUB_TABLE)


def _reference_eval_poly(table, poly, even_images, power_cache):
    field = sympy_field(table)
    ring = field.ring
    total = SuperExpr.zero(table)
    for mono, coeff in poly.terms():
        residual = list(mono)
        factors = []
        for idx, power in enumerate(mono):
            if power and idx in even_images:
                residual[idx] = 0
                factors.append((idx, power))
        piece = SuperExpr.from_scalar(scalar(
            field(ring.from_dict({tuple(residual): coeff})), table))
        for idx, power in factors:
            if (idx, power) not in power_cache:
                power_cache[(idx, power)] = even_images[idx] ** power
            piece = piece * power_cache[(idx, power)]
        total = total + piece
    return total


def reference_substitute(expr, bindings):
    """Substitution monomial by monomial, image powers multiplied out."""
    table = expr.table
    even_images, odd_images = {}, {}
    for name, value in bindings.items():
        if table.is_even(name):
            even_images[table.even_index(name)] = value
        else:
            odd_images[table.odd_index(name)] = value
    power_cache = {}
    result = SuperExpr.zero(table)
    for key, c in expr.terms.items():
        occurring = {idx for poly in (c.f.numer, c.f.denom) for mono in poly
                     for idx, e in enumerate(mono) if e}
        if occurring.isdisjoint(even_images):
            piece = SuperExpr.from_scalar(c)
        else:
            num = _reference_eval_poly(table, c.f.numer, even_images,
                                       power_cache)
            den = _reference_eval_poly(table, c.f.denom, even_images,
                                       power_cache)
            if den.body().is_zero:
                raise ScalarError("denominator body vanishes")
            piece = num * den.invert_even()
        for idx in key:
            one = SuperExpr(table, {(idx,): Scalar.from_int(table, 1)})
            piece = piece * odd_images.get(idx, one)
        result = result + piece
    return result


def sub_exprs():
    return exprs(SUB_TABLE)


@st.composite
def nilpotents(draw):
    """Even and bodiless: polynomial multiples of products of two odd
    symbols, so that squares and cross products often survive."""
    pairs = st.sampled_from(list(itertools.combinations(
        SUB_TABLE.odd_names, 2)))
    total = SuperExpr.zero(SUB_TABLE)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coeff = scalar(SUB_FIELD(draw(ring_polys(SUB_FIELD.ring))), SUB_TABLE)
        total = total + SuperExpr.from_raw_terms(
            SUB_TABLE, [(coeff, draw(pairs))])
    return total


@st.composite
def bindings(draw):
    """Identity, pure-body (polynomial or rational), body + nilpotent and
    nilpotent-shifted images of the even symbols; identity or general odd
    images of the odd ones; any symbol may be left out."""
    out = {}
    for name in ("x1", "x2"):
        kind = draw(st.sampled_from(
            ["absent", "identity", "body", "shift", "body+shift"]))
        if kind == "absent":
            continue
        image = SuperExpr.symbol(SUB_TABLE, name)
        if kind.startswith("body"):
            image = SuperExpr.from_scalar(
                scalar(draw(fracs(SUB_FIELD)), SUB_TABLE))
        if kind.endswith("shift"):
            image = image + draw(nilpotents())
        out[name] = image
    for name in SUB_TABLE.odd_names:
        kind = draw(st.sampled_from(["absent", "identity", "image"]))
        if kind == "identity":
            out[name] = SuperExpr.symbol(SUB_TABLE, name)
        elif kind == "image":
            out[name] = draw(sub_exprs()).odd_part()
    return out


@st.composite
def rational_exprs(draw):
    """An expression with rational-function coefficients, and the
    denominator it was divided by."""
    den = draw(ring_polys(SUB_FIELD.ring).filter(bool))
    one_over = scalar(SUB_FIELD.one / SUB_FIELD(den), SUB_TABLE)
    return draw(sub_exprs()) * one_over, den


def substituted(expr, binds):
    """expr.substitute(binds), or None when a denominator body vanishes;
    the term-by-term oracle must agree either way."""
    try:
        want = reference_substitute(expr, binds)
    except ScalarError:
        with pytest.raises(ScalarError):
            expr.substitute(binds)
        return None
    got = expr.substitute(binds)
    assert got == want
    return got


@given(sub_exprs(), rational_exprs(), bindings())
@settings(max_examples=100, deadline=None)
def test_substitute_matches_term_by_term_oracle(a, rational, binds):
    substituted(a, binds)
    substituted(rational[0], binds)


def test_substitute_second_order_taylor_terms():
    parse = lambda text: parse_expr(text, SUB_TABLE)  # noqa: E731
    binds = {"x1": parse("x1 + th1*th2 + x2*b1*b2"),
             "x2": parse("2 + th1*b1")}
    expr = parse("x1^2*x2^2*th1 + x1^2/(1 + x2^2) + 3*x1*x2*b2")
    got = expr.substitute(binds)
    assert got == reference_substitute(expr, binds)
    # only (th1*th2 + x2*b1*b2)^2 / 5 reaches all four odd symbols
    assert got.coefficient(["th1", "th2", "b1", "b2"]) == \
        parse("2*x2/5").body()


@given(sub_exprs(), sub_exprs(), bindings())
@settings(max_examples=80, deadline=None)
def test_substitute_is_a_ring_homomorphism(a, b, binds):
    sa, sb = a.substitute(binds), b.substitute(binds)
    assert (a + b).substitute(binds) == sa + sb
    assert (a * b).substitute(binds) == sa * sb


@given(rational_exprs(), bindings())
@settings(max_examples=60, deadline=None)
def test_substitute_respects_denominators(rational, binds):
    expr, den = rational
    image = substituted(expr, binds)
    if image is None:
        return
    den_image = SuperExpr.from_scalar(scalar(SUB_FIELD(den), SUB_TABLE))
    assert image * den_image.substitute(binds) == \
        (expr * den_image).substitute(binds)


def reference_bracket(f, g, chart, omega=None):
    """{f,g} from the full structure matrix, f split by parity: the
    summand of an odd z^A flips sign for the even part of f."""
    matrix = (omega or OddSymplecticStructure.canonical(chart)).matrix
    names = chart.coordinate_names
    total = SuperExpr.zero(chart.table)
    for part, part_even in ((f.even_part(), True), (f.odd_part(), False)):
        for a, name_a in enumerate(names):
            da = part.diff(name_a)
            flip = a >= chart.n and part_even
            for b, name_b in enumerate(names):
                piece = da * matrix[a][b] * g.diff(name_b)
                total = total - piece if flip else total + piece
    return total


def _check_bracket_matrix(es, omega):
    matrix = bracket_matrix(es, CHART, omega)
    assert len(matrix) == len(es)
    for f, row in zip(es, matrix):
        assert len(row) == len(es)
        for g, entry in zip(es, row):
            assert entry == bracket(f, g, CHART, omega)
            assert entry == reference_bracket(f, g, CHART, omega)


@given(st.lists(exprs(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_bracket_matrix_canonical(es):
    _check_bracket_matrix(es, None)


def contraction_bracket(f, g, chart, omega):
    """sum_AB L_A Omega^{AB} dg/dz^B, with L_x = df/dx and L_th the right
    derivative of f."""
    names = chart.coordinate_names
    left = [f.diff(x) for x in chart.xs] + \
        [f.right_diff(th) for th in chart.thetas]
    return sum_of(chart.table, (left[a] * entry * g.diff(name)
                                for a, row in enumerate(omega.matrix)
                                for entry, name in zip(row, names)))


def delta0_by_derivatives(f, chart):
    return sum_of(chart.table, (f.diff(th).diff(x)
                                for x, th in zip(chart.xs, chart.thetas)))


COORDS = [SuperExpr.symbol(TABLE, name) for name in CHART.coordinate_names]


@given(kernel_operands())
@settings(max_examples=100, deadline=None)
def test_delta0_and_canonical_field_match_their_definitions(f):
    assert delta0(f, CHART) == delta0_by_derivatives(f, CHART)
    assert hamiltonian_field(f, CHART) == [bracket(f, z, CHART)
                                           for z in COORDS]
    assert hamiltonian_field(f, CHART) == [reference_bracket(f, z, CHART)
                                           for z in COORDS]


@given(st.integers(min_value=0, max_value=10 ** 6), kernel_operands(),
       kernel_operands())
@settings(max_examples=10, deadline=None)
def test_general_bracket_matches_right_derivative_contraction(seed, f, g):
    omega, _ = pushforward_structure(random.Random(seed), CHART)
    assert bracket(f, g, CHART, omega) == \
        contraction_bracket(f, g, CHART, omega)
    assert hamiltonian_field(f, CHART, omega) == \
        [contraction_bracket(f, z, CHART, omega) for z in COORDS]


def test_bracket_field_and_delta0_build_no_intermediate_derivatives():
    def fresh():
        return parse_expr("x1^2*th1*th2 + x2*th2*b1 + x1*x2*th1 + 3", TABLE)

    def refuse(self):
        raise AssertionError("SuperExpr.__neg__ called")

    f, g = fresh(), parse_expr("x2*th1 + x1^2*th2*b1", TABLE)
    with mock.patch.object(SuperExpr, "__neg__", refuse):
        got = bracket(f, g, CHART)
    assert got == reference_bracket(fresh(), g, CHART)

    diffs = []
    real = SuperExpr._diff

    def counting(self, name):
        diffs.append(name)
        return real(self, name)

    f, h = fresh(), fresh()
    with mock.patch.object(SuperExpr, "_diff", counting):
        field = hamiltonian_field(f, CHART)
        assert len(diffs) <= 2 * CHART.n
        del diffs[:]
        delta = delta0(h, CHART)
        assert diffs == []
    assert field == [reference_bracket(fresh(), z, CHART) for z in COORDS]
    assert delta == delta0_by_derivatives(fresh(), CHART)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.lists(exprs(), min_size=1, max_size=3))
@settings(max_examples=8, deadline=None)
def test_bracket_matrix_pushforward_structure(seed, es):
    omega, _ = pushforward_structure(random.Random(seed), CHART)
    _check_bracket_matrix(es, omega)
    coords = [SuperExpr.symbol(TABLE, name) for name in CHART.coordinate_names]
    assert bracket_matrix(coords, CHART, omega) == \
        [list(row) for row in omega.matrix]


# -- the term kernels: direct coefficient calls, no zero coefficient ----------


def _guard_operands():
    x1 = Scalar.symbol(TABLE, "x1")
    rational = Scalar.from_int(TABLE, 1) / (x1 * x1 + 2)
    a = parse_expr("x1*th1 + (x2 - 1)/3*th2 + th1*th2*b1 + x1*x2", TABLE)
    b = parse_expr("2*th2 - x1*th1*th2 + x2 + 1/2", TABLE)
    return [(a, b), (a * rational, b), (a, b * rational - a)]


def test_term_kernels_call_no_scalar_operator():
    """Products and sums of SuperExprs reach the coefficient kernels
    directly: with the Scalar operator methods refused they still give
    the same results, on polynomial and on rational coefficients."""
    cases = _guard_operands()

    def results(a, b):
        return [a * b, b * a, a + b, a - b,
                sum_of_products(TABLE, [(a, b), (b, a), (-a, b)]),
                sum_of(TABLE, [a, b, -a])]
    wants = [results(a, b) for a, b in cases]

    def refuse(*args):
        raise AssertionError("a Scalar operator method ran")
    with contextlib.ExitStack() as stack:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                     "__sub__"):
            stack.enter_context(mock.patch.object(Scalar, name, refuse))
        gots = [results(a, b) for a, b in cases]
    assert gots == wants
    assert any(not c.is_constant() and c.integer_denominator() is None
               for got in gots for expr in got for c in expr.terms.values())


raw_terms = st.lists(st.tuples(
    st.integers(min_value=-2, max_value=2),
    st.lists(st.sampled_from(TABLE.odd_names), max_size=3)), max_size=5)


@given(kernel_operands(), kernel_operands(), raw_terms)
@settings(max_examples=100, deadline=None)
def test_kernel_results_hold_no_zero_coefficient(a, b, raw):
    """Every term kernel drops a coefficient that is zero or cancels: sums
    that cancel, raw terms with a zero coefficient, pull-backs."""
    cancelling = raw + [(-c, names) for c, names in raw]
    zero = Scalar.from_int(TABLE, 0)
    results = {
        "sum": a + b, "difference": a - b, "product": a * b,
        "sum_of": sum_of(TABLE, [a, b, -a]),
        "sum_of_products": sum_of_products(TABLE, [(a, b), (-b, a)]),
        "raw": SuperExpr.from_raw_terms(TABLE, raw),
        "raw zeros": SuperExpr.from_raw_terms(
            TABLE, [(zero, names) for _, names in raw] + raw),
        "pull-back": Pullback(TABLE, {
            "x1": parse_expr("x1 + th1*th2", TABLE),
            "th1": parse_expr("th1 + x2*th2", TABLE)}).many([a, b, a])[-1],
    }
    cancelled = {
        "a - a": a - a, "a + -a": a + (-a),
        "sum_of": sum_of(TABLE, [a, b, -a, -b]),
        "sum_of_products": sum_of_products(TABLE, [(a, b), (-a, b)]),
        "raw": SuperExpr.from_raw_terms(TABLE, cancelling),
        "raw zeros": SuperExpr.from_raw_terms(
            TABLE, [(0, names) for _, names in raw]),
    }
    for name, out in {**results, **cancelled}.items():
        assert not any(c.is_zero for c in out.terms.values()), name
    assert all(not out.terms for out in cancelled.values())


# -- pull-backs in batches ------------------------------------------------------


# canonical maps draw flows, which need the time symbol
TIMED = standard_chart(2, aux=1, extra_even=(TIME_SYMBOL,))


def _rescaling(scales):
    """The canonical map x_i -> c_i x_i, th_i -> th_i / c_i."""
    table = TIMED.table
    return SuperMap(TIMED, TIMED, [
        SuperExpr.symbol(table, x) * c for x, c in zip(TIMED.xs, scales)] + [
        SuperExpr.symbol(table, th) * (1 / Fraction(c))
        for th, c in zip(TIMED.thetas, scales)])


nonzero_fractions = st.fractions(min_value=-4, max_value=4,
                                 max_denominator=3).filter(bool)


@st.composite
def batch_maps(draw):
    kind = draw(st.sampled_from(["point", "rescaling", "canonical"]))
    if kind == "rescaling":
        return _rescaling(draw(st.tuples(nonzero_fractions,
                                         nonzero_fractions)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    if kind == "point":
        return random_point_map(rng, TIMED)
    return random_canonical_map(rng, TIMED)


@given(batch_maps(), st.integers(min_value=0, max_value=10 ** 6),
       st.lists(st.booleans(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_batched_pullback_matches_one_at_a_time(fmap, seed, rational):
    """A batch that repeats its coefficients, across its expressions and
    on other odd monomials, pulls back as each expression does alone."""
    table = TIMED.table
    rng = random.Random(seed)
    es = [random_expr(rng, table, aux=True, rational=r) for r in rational]
    b1 = SuperExpr.symbol(table, "b1")
    batch = es + [expr * b1 for expr in es] + es[::-1] + list(fmap.targets)
    bindings = fmap.bindings()
    pull = Pullback(table, bindings)
    got = pull.many(batch)
    want = [Pullback(table, bindings)(expr) for expr in batch]
    assert [(out.table, out.terms) for out in got] == \
        [(out.table, out.terms) for out in want]
    assert got == [pull(expr) for expr in batch]
    # a composite's targets are the batch of its first factor's targets
    assert list(_rescaling((2, 3)).compose(fmap).targets) == \
        [fmap.pullback(t) for t in _rescaling((2, 3)).targets]
