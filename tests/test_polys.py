"""The integer-polynomial module against sympy: the monomial ring, the
square root, and a table with no even symbols at all."""

import hashlib
import json
import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyRing

import oddsym.cli as cli
from oddsym.grammar import parse_expr, render_expr
from oddsym.polys import Ring, _poly_sqrt, _product, _scaled, _terms
from oddsym.scalars import Scalar, ScalarError
from oddsym.superexpr import SuperExpr
from oddsym.symbols import SymbolTable, standard_table


def sympy_ring(ngens):
    """sympy's graded-lex ring over ZZ in ngens generators."""
    return PolyRing([f"x{i}" for i in range(ngens)], ZZ, grlex)


def monomials(ngens, top=10 ** 4):
    return st.tuples(*[st.integers(min_value=0, max_value=top)] * ngens)


@st.composite
def ring_cases(draw):
    """(ngens, two monomials, a nonzero polynomial dict) for 0 to 5
    generators, exponents up to 10^4."""
    ngens = draw(st.integers(min_value=0, max_value=5))
    mono = monomials(ngens)
    poly = draw(st.dictionaries(mono, st.integers(-9, 9).filter(bool),
                                min_size=1, max_size=8))
    return ngens, draw(mono), draw(mono), poly


# -- the ring -----------------------------------------------------------------

@given(ring_cases())
@example((0, (), (), {(): 3}))
@example((2, (1, 2), (3, 0), {(2, 0): 1, (0, 2): -1, (1, 1): 2}))
@settings(max_examples=300, deadline=None)
def test_ring_matches_sympy_ring(case):
    ngens, a, b, poly = case
    ring, oracle = Ring(ngens), sympy_ring(ngens)
    assert ring.ngens == oracle.ngens
    assert ring.zero_monom == oracle.zero_monom
    assert ring.mul(a, b) == oracle.monomial_mul(a, b)
    assert ring.order(a) == oracle.order(a)
    assert ring.leading(poly) == oracle.leading_expv(poly)
    assert [ring.basis(i) for i in range(ngens)] == \
        [oracle.monomial_basis(i) for i in range(ngens)]
    assert _terms(ring, poly) == \
        [(m, int(c)) for m, c in oracle.from_dict(poly).terms()]


def test_monomial_product_is_generated_once_per_generator_count():
    assert Ring(3).mul is Ring(3).mul
    assert Ring(3).mul is not Ring(4).mul
    assert Ring(0).mul((), ()) == ()


# -- the square root ----------------------------------------------------------

SQRT_TABLE = standard_table(3)
SQRT_RING = SQRT_TABLE.ring
SQRT_ORACLE = sympy_ring(3)


def factor_list_root(poly):
    """The positive-content root of a polynomial dict of SQRT_RING by
    sympy's factor_list, or None when it is not a square."""
    if not poly:
        return {}
    content, factors = sympy.factor_list(
        SQRT_ORACLE.from_dict(poly).as_expr(), *SQRT_ORACLE.symbols)
    content = Fraction(str(content))
    if content < 0 or content.denominator != 1 or \
            math.isqrt(content.numerator) ** 2 != content.numerator or \
            any(exp % 2 for _, exp in factors):
        return None
    out = SQRT_ORACLE.ground_new(math.isqrt(content.numerator))
    for base, exp in factors:
        out *= SQRT_ORACLE.from_expr(base) ** int(exp // 2)
    return {m: int(c) for m, c in out.items()}


def same_up_to_sign(got, want):
    return got == want or got == _scaled(want, -1)


sqrt_polys = st.dictionaries(monomials(3, top=3),
                             st.integers(-6, 6).filter(bool), max_size=5)
big_contents = st.integers(min_value=1, max_value=10 ** 30)


@given(sqrt_polys, big_contents, st.integers(-50, 50).filter(bool))
@example({(1, 0, 0): 1, (0, 1, 0): -1}, 1, 1)
@example({(0, 0, 0): 3}, 1, 16)  # 9 + 16 is a square
@example({(2, 0, 0): 1, (0, 0, 0): 1}, 4, -1)
@settings(max_examples=150, deadline=None)
def test_sqrt_matches_factor_list(p, k, c):
    p = _scaled(p, k)
    square = _product(SQRT_RING, p, p)
    root = _poly_sqrt(SQRT_RING, square)
    assert same_up_to_sign(root, p)
    assert root == {} or root[SQRT_RING.leading(root)] > 0
    shifted = dict(square)
    zero = SQRT_RING.zero_monom
    shifted[zero] = shifted.get(zero, 0) + c
    shifted = {m: e for m, e in shifted.items() if e}
    for operand in (_scaled(square, c), shifted, p):
        got, want = _poly_sqrt(SQRT_RING, operand), factor_list_root(operand)
        assert (got is None) == (want is None)
        if got is not None:
            assert same_up_to_sign(got, want)


@given(sqrt_polys.filter(bool), sqrt_polys.filter(bool),
       st.fractions(max_denominator=10 ** 6).filter(bool))
@settings(max_examples=100, deadline=None)
def test_scalar_sqrt_of_a_square_quotient(p, q, c):
    p = Scalar.from_poly(SQRT_TABLE, p) * c
    f = p / Scalar.from_poly(SQRT_TABLE, q)
    root = (f * f).sqrt()
    assert root in (f, -f)
    assert root.leading_sign() > 0


def test_sqrt_of_negative_content_and_constant_sides():
    x1 = Scalar.symbol(SQRT_TABLE, "x1")
    assert _poly_sqrt(SQRT_RING, {(2, 0, 0): -4}) is None
    assert _poly_sqrt(SQRT_RING, {(0, 0, 0): -9}) is None
    assert _poly_sqrt(SQRT_RING, {(0, 0, 0): 12}) is None
    assert _poly_sqrt(SQRT_RING, {(1, 0, 0): 4}) is None  # odd exponent
    # x1^2 + 3 x1 + 1: the next root term would be 3/2
    assert _poly_sqrt(SQRT_RING,
                      {(2, 0, 0): 1, (1, 0, 0): 3, (0, 0, 0): 1}) is None
    with pytest.raises(ScalarError):
        (-(x1 + 1) ** 2 / 4).sqrt()
    with pytest.raises(ScalarError):
        (Scalar.from_int(SQRT_TABLE, 4) / (1 - x1 ** 2)).sqrt()
    assert (Scalar.from_int(SQRT_TABLE, 4) / (x1 + 1) ** 2).sqrt() == \
        2 / (x1 + 1)
    assert ((x1 - 1) ** 2 / 9).sqrt() == (x1 - 1) / 3
    assert Scalar.from_fraction(SQRT_TABLE, Fraction(9, 49)).sqrt() == \
        Fraction(3, 7)
    assert Scalar.from_int(SQRT_TABLE, 0).sqrt() == 0


def test_sqrt_at_a_high_exponent():
    x1 = Scalar.symbol(SQRT_TABLE, "x1")
    square = x1 ** 1200 - 2 * x1 ** 600 + 1
    assert square.sqrt() == x1 ** 600 - 1
    assert _poly_sqrt(SQRT_RING, (square + 1).numer) is None


# Two volumes of degree 24 in x0, x1, x2 that the parser admits: the
# first body is not a square (2,085 terms), the second is (3,492 terms).
# The time bound holds for a root taken term by term; a factorization
# (sympy's factor_list) took 1.3 and 3.7 s on these bodies, and
# densities-p 1.9 and 5.3 s, on one core of a 2-core Xeon, where the root
# takes 0.1 and 0.2 s.
VOLUMES = {
    "not-a-square": "(x0 + x1 + x2 + 2)^12*(x1^3 + x0*x2 + 5)^4 + 1"
                    " + x1*th0*th1",
    "square": "(x0^3 + 2*x1^2*x2 + x1 + 7)^8*(x0 - 3*x2 + x1^2 + 1)^6"
              " + x1*th0*th1",
}
DENSITIES_P_SHA256 = \
    "820cbcfeb85ed175c58a61392cbc2f322af68463cd000b6c54599fcea136e7d7"


@pytest.mark.parametrize("name", sorted(VOLUMES))
def test_degree_24_volumes(name, tmp_path, capsys):
    table = SymbolTable(("x0", "x1", "x2"), ("th0", "th1", "th2"))
    body = parse_expr(VOLUMES[name], table).body()
    start = time.perf_counter()
    try:
        root = body.sqrt()
    except ScalarError:
        root = None
    assert time.perf_counter() - start < 1.5
    assert (root is not None) == (name == "square")
    assert root is None or root * root == body
    manifest = {
        "charts": {"space": {"n": 3, "even": ["x0", "x1", "x2"],
                             "odd": ["th0", "th1", "th2"], "aux": []}},
        "volume_forms": {"v": {"chart": "space", "rho": VOLUMES[name]}},
        "surfaces": {"C": {"chart": "space", "x0": "x0", "theta0": "th0"}},
        "densities_p": {"volume": "v", "surface": "C"},
    }
    path = tmp_path / "volume.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    start = time.perf_counter()
    code = cli.main(["densities-p", "--manifest", str(path)])
    seconds = time.perf_counter() - start
    out = capsys.readouterr().out
    assert seconds < 1.5
    if name == "square":
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DENSITIES_P_SHA256
    else:
        assert (code, out) == (2, "")


# -- a table with no even symbols ---------------------------------------------

def test_table_with_no_even_symbols():
    table = SymbolTable((), ("th1",), (), ("b1",))
    e = parse_expr("2*th1*b1 - 1/3", table)
    assert render_expr(e) == "-1/3 + 2*th1*b1"
    assert render_expr(e * e) == "1/9 - 4/3*th1*b1"
    assert render_expr(e.invert_even()) == "-3 - 18*th1*b1"
    assert e * e.invert_even() == SuperExpr.one(table)
    assert Scalar.from_int(table, 4).sqrt() == 2
    third = Scalar.from_fraction(table, Fraction(-1, 3))
    assert repr(third) == "Scalar((-1)/(3))"
    assert str(third.f) == "-1/3"
    assert third.f.numer == -1 and third.f.denom == 3
