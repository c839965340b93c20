"""Property-based checks of the core algebra laws."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oddsym.grammar import parse_expr, render_expr
from oddsym.scalars import Scalar
from oddsym.superexpr import SuperExpr
from oddsym.symbols import Chart, standard_table

TABLE = standard_table(2, aux=1)
CHART = Chart(TABLE, TABLE.even_symbols[:2], TABLE.coordinate_odds)

coefficients = st.integers(min_value=-5, max_value=5)
odd_monomials = st.lists(
    st.sampled_from(["th1", "th2", "b1"]), max_size=3)
even_powers = st.tuples(st.integers(min_value=0, max_value=2),
                        st.integers(min_value=0, max_value=2))


@st.composite
def exprs(draw):
    total = SuperExpr.zero(TABLE)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coeff = draw(coefficients)
        powers = draw(even_powers)
        term = SuperExpr.constant(TABLE, coeff)
        for name, power in zip(("x1", "x2"), powers):
            term = term * SuperExpr.symbol(TABLE, name) ** power
        for odd in draw(odd_monomials):
            term = term * SuperExpr.symbol(TABLE, odd)
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

FIELD = TABLE.field
RING = FIELD.ring

polys = st.dictionaries(even_powers, st.integers(min_value=-6, max_value=6),
                        max_size=4).map(
    lambda d: RING.from_dict({m: c for m, c in d.items() if c}))
nonzero_ints = st.integers(min_value=-12, max_value=12).filter(bool)
denominators = st.one_of(nonzero_ints.map(RING.ground_new),
                         polys.filter(bool))


@st.composite
def fracs(draw):
    """A FracElement in canonical form, built by FracField itself."""
    return FIELD.new(draw(polys), draw(denominators))


def same(got, want):
    assert got.f == want
    reference = Scalar(TABLE, want)
    assert got.numer_terms == reference.numer_terms
    assert got.denom_terms == reference.denom_terms


@given(fracs(), fracs(), st.integers(min_value=-40, max_value=40))
@settings(max_examples=200, deadline=None)
def test_scalar_kernel_matches_frac_field(f, g, k):
    a, b = Scalar(TABLE, f), Scalar(TABLE, g)
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
    if not any(mono[0] for mono in f.denom):
        antiderivative = FIELD.zero
        for (p1, p2), coeff in f.numer.terms():
            antiderivative += FIELD(RING({(p1 + 1, p2): coeff})) / (p1 + 1)
        same(a.integrate_monomial("x1"), antiderivative / FIELD(f.denom))
    same(a ** 3, f * f * f)
    if f:
        same(a ** -1, FIELD.one / f)


@given(fracs(), fracs(), fracs())
@settings(max_examples=60, deadline=None)
def test_subs_even_matches_frac_field(f, g, h):
    images = {"x1": Scalar(TABLE, g), "x2": Scalar(TABLE, h)}

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
        same(Scalar(TABLE, f).subs_even(images), evaluate(f.numer) / den)
