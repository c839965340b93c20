import os
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddsym.grammar import ParseError, parse_expr, render_expr
from oddsym.manifests import load_manifest
from oddsym.scalars import Scalar, ScalarError
from oddsym.superexpr import (ParityError, Pullback, SuperExpr,
                              nilpotent_series)
from oddsym.symbols import Parity, SymbolError, standard_table

from oddsym.sampling import random_expr


@pytest.fixture
def tab():
    return standard_table(3, aux=2)


def e(tab, text):
    return parse_expr(text, tab)


def test_normalize_anticommutation_sign(tab):
    assert SuperExpr.from_raw_terms(tab, [(1, ["th2", "th1"])]) == \
        e(tab, "-th1*th2")


def test_normalize_nilpotency(tab):
    assert SuperExpr.from_raw_terms(tab, [(1, ["th1", "th1"])]).is_zero


def test_normalize_cancellation(tab):
    raw = [(1, ["th1", "th2"]), (-1, ["th1", "th2"])]
    assert SuperExpr.from_raw_terms(tab, raw).is_zero


def test_normalize_order_insensitive(tab):
    rng = random.Random(7)
    raw = [(2, ["th1", "th3"]), (1, ["th2"]), (-1, ["th1", "th3"]),
           (3, ["b1", "th1", "th2"]), (1, ["th2", "b1", "th1"])]
    reference = SuperExpr.from_raw_terms(tab, raw)
    for _ in range(10):
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert SuperExpr.from_raw_terms(tab, shuffled) == reference
    # idempotence: feeding the canonical terms back in changes nothing
    canonical = [(c, [tab.odd_name(i) for i in k])
                 for k, c in reference.terms.items()]
    again = SuperExpr.from_raw_terms(tab, canonical)
    assert again == reference


def test_multiply_basics(tab):
    assert e(tab, "th2") * e(tab, "th1") == e(tab, "-th1*th2")
    assert e(tab, "1+th1*th2") * e(tab, "1-th1*th2") == SuperExpr.one(tab)
    assert e(tab, "x1*th1") * e(tab, "x2*th2") == e(tab, "x1*x2*th1*th2")


def test_supercommutativity_and_associativity(tab):
    rng = random.Random(11)
    for _ in range(200):
        a = random_expr(rng, tab, theta_degree=3, coeff_degree=2)
        b = random_expr(rng, tab, theta_degree=3, coeff_degree=2)
        c = random_expr(rng, tab, theta_degree=2, coeff_degree=1)
        assert (a * b) * c == a * (b * c)
        for ah in (a.even_part(), a.odd_part()):
            for bh in (b.even_part(), b.odd_part()):
                sign = -1 if (ah.is_odd() and bh.is_odd()) else 1
                assert ah * bh == sign * (bh * ah)


def test_left_derivative(tab):
    assert e(tab, "th1*th2").diff("th1") == e(tab, "th2")
    assert e(tab, "th1*th2").diff("th2") == e(tab, "-th1")
    assert e(tab, "x1*x2*th1").diff("x1") == e(tab, "x2*th1")
    assert e(tab, "b1*th1").diff("th1") == e(tab, "-b1")


def test_odd_derivatives_anticommute(tab):
    rng = random.Random(13)
    for _ in range(100):
        f = random_expr(rng, tab, theta_degree=3, coeff_degree=2, aux=True)
        for a in ("th1", "th2", "th3"):
            for b in ("th1", "th2", "b1"):
                lhs = f.diff(a).diff(b) + f.diff(b).diff(a)
                assert lhs.is_zero


DIFF_TABLE = standard_table(2, aux=2, frame=True, extra_even=("t",))


@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_cached_diff_matches_a_cold_copy(seed, rational):
    """diff answers from the expression's cache: for every symbol of the
    table it equals diff on a fresh copy, before and after the cache is
    warm, and a second call returns the same object."""
    f = random_expr(random.Random(seed), DIFF_TABLE, theta_degree=2,
                    aux=True, rational=rational)
    names = DIFF_TABLE.even_symbols + DIFF_TABLE.odd_names
    for _ in range(2):
        for name in names:
            got = f.diff(name)
            assert got == SuperExpr(f.table, dict(f.terms)).diff(name)
            assert f.diff(name) is got


def test_threads_sharing_an_expression_agree_on_its_derivatives(tab):
    """Threads that fill one expression's cache at once may repeat work
    but all read the derivatives a cold copy gives."""
    f = random_expr(random.Random(5), tab, theta_degree=3, coeff_degree=2,
                    aux=True)
    names = tab.even_symbols + tab.odd_names
    want = {n: SuperExpr(tab, dict(f.terms)).diff(n) for n in names}
    got = []

    def work():
        got.append({(n, m): f.diff(n).diff(m) for n in names for m in names})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6
    for seen in got:
        for (n, m), d in seen.items():
            assert d == want[n].diff(m)


def test_diff_unknown_symbol_caches_nothing(tab):
    f = e(tab, "x1*th1 + b1")
    for g in (f, SuperExpr.zero(tab)):
        with pytest.raises(SymbolError):
            g.diff("y")
        assert g._derivs == {}
    f.diff("x1")
    with pytest.raises(SymbolError):
        f.diff("y")
    assert list(f._derivs) == ["x1"]


def test_berezin_integral_convention(tab):
    assert e(tab, "th1*th2*th3").berezin_integral(["th1", "th2", "th3"]) \
        == SuperExpr.one(tab)
    f = e(tab, "5 + x1*th1 + 3*th1*th2")
    assert f.berezin_integral(["th1", "th2"]) == e(tab, "3")
    assert e(tab, "th2*th1").berezin_integral(["th1", "th2"]) == e(tab, "-1")


def test_berezin_matches_iterated_extraction(tab):
    rng = random.Random(17)
    odds = ["th1", "th2", "th3"]
    for _ in range(50):
        f = random_expr(rng, tab, theta_degree=3, coeff_degree=2, aux=True)
        step = f
        for name in reversed(odds):
            step = step.right_diff(name)
        assert f.berezin_integral(odds) == step


def test_substitute_shift(tab):
    f = e(tab, "th1*th2")
    shifted = f.substitute({"th1": e(tab, "th1 + b1")})
    assert shifted == e(tab, "th1*th2 + b1*th2")


def test_substitute_even_nilpotent(tab):
    f = e(tab, "x1")
    assert f.substitute({"x1": e(tab, "x1 - th1*th2")}) \
        == e(tab, "x1 - th1*th2")


def test_substitute_swap(tab):
    f = e(tab, "th1*th2")
    swapped = f.substitute({"th1": e(tab, "th2"), "th2": e(tab, "th1")})
    assert swapped == e(tab, "-th1*th2")


def test_substitute_rational_composition(tab):
    f = e(tab, "x1/(x2 + 1)")
    g = f.substitute({"x1": e(tab, "x2^2"), "x2": e(tab, "x1")})
    assert g == e(tab, "x2^2/(x1 + 1)")


def test_substitute_parity_mismatch(tab):
    with pytest.raises(ParityError, match="bound to odd value"):
        e(tab, "x1").substitute({"x1": e(tab, "th1")})


def test_substitute_zero_body_denominator(tab):
    f = e(tab, "1/x1")
    with pytest.raises(ScalarError):
        f.substitute({"x1": e(tab, "th1*th2")})


def test_homogeneous_part(tab):
    f = e(tab, "1 + b1*th1 + th1*th2")
    assert f.homogeneous_part(1) == e(tab, "b1*th1")
    assert f.homogeneous_part(2) == e(tab, "th1*th2")
    assert f.homogeneous_part(3).is_zero
    total = SuperExpr.zero(tab)
    for p in range(4):
        total = total + f.homogeneous_part(p)
    assert total == f


def test_invert_even(tab):
    assert e(tab, "1 + th1*th2").invert_even() == e(tab, "1 - th1*th2")
    assert e(tab, "x1").invert_even() == e(tab, "1/x1")
    f = e(tab, "x1*(1 + th1*th2)")
    inv = f.invert_even()
    assert f * inv == SuperExpr.one(tab)


def test_invert_even_roundtrip_random(tab):
    rng = random.Random(23)
    for _ in range(40):
        f = SuperExpr.one(tab) + random_expr(rng, tab, theta_degree=3,
                                             coeff_degree=2, aux=True,
                                             min_theta=1)
        g = f.invert_even() if f.is_even() else None
        if g is None:
            f = f.even_part() + SuperExpr.one(tab)
            g = f.invert_even()
        assert f * g == SuperExpr.one(tab)


def test_invert_even_errors(tab):
    with pytest.raises(ScalarError):
        e(tab, "th1*th2").invert_even()
    with pytest.raises(ParityError,
                       match="inverse needs a purely even argument"):
        e(tab, "th1").invert_even()


def test_sqrt_even(tab):
    assert e(tab, "1 + 2*th1*th2").sqrt_even() == e(tab, "1 + th1*th2")
    assert e(tab, "x1^2").sqrt_even() == e(tab, "x1")
    f = e(tab, "(1 + th1*th2)^2")
    assert f.sqrt_even() == e(tab, "1 + th1*th2")


def test_sqrt_even_square_back_random(tab):
    rng = random.Random(29)
    for _ in range(25):
        base = SuperExpr.one(tab) + random_expr(
            rng, tab, theta_degree=2, coeff_degree=1, aux=True, min_theta=1)
        base = base.even_part()
        square = base * base
        root = square.sqrt_even()
        assert root * root == square


def test_sqrt_even_not_square(tab):
    with pytest.raises(ScalarError):
        e(tab, "x1").sqrt_even()
    with pytest.raises(ScalarError):
        e(tab, "2").sqrt_even()


def test_parity(tab):
    assert e(tab, "1 + th1*th2").parity() is Parity.EVEN
    assert e(tab, "th1 + b1").parity() is Parity.ODD
    assert e(tab, "1 + th1").parity() is Parity.MIXED


def test_unknown_symbol_rejected(tab):
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_expr("q7", tab)
    with pytest.raises(SymbolError):
        SuperExpr.symbol(tab, "nope")


def test_parse_nesting_is_capped(tab):
    assert e(tab, "(" * 100 + "x1" + ")" * 100) == e(tab, "x1")
    assert e(tab, "-" * 100 + "x1") == e(tab, "x1")
    for text in ("(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_expr(text, tab)


def test_scalar_canonical_form(tab):
    a = Scalar.symbol(tab, "x1")
    b = Scalar.symbol(tab, "x2")
    q = (a * a - b * b) / (a + b)
    assert q == a - b
    r = a / (-2 * a)
    assert r.as_fraction() == Fraction(-1, 2)


def test_render_round_trip_random(tab):
    rng = random.Random(31)
    for _ in range(150):
        f = random_expr(rng, tab, theta_degree=3, coeff_degree=2, aux=True,
                        rational=True)
        assert parse_expr(render_expr(f), tab) == f


def test_render_examples(tab):
    assert render_expr(e(tab, "-th1*th2")) == "-th1*th2"
    assert render_expr(SuperExpr.zero(tab)) == "0"
    assert render_expr(e(tab, "1/2*x1")) == "1/2*x1"


def test_sqrt_even_with_content(tab):
    assert e(tab, "4*x1^2").sqrt_even() == e(tab, "2*x1")
    assert e(tab, "9*x1^2*x2^2 + 9*x1^2*x2^2*th1*th2").sqrt_even() == \
        e(tab, "3*x1*x2 + 3/2*x1*x2*th1*th2")


def test_pullback_reuse_matches_fresh_substitute(tab):
    binds = {"x1": e(tab, "x1 + x2 + th1*th2"),
             "x2": e(tab, "2*x2 + b1*th3"),
             "x3": e(tab, "x3 + th2*th3"),
             "th1": e(tab, "th2 + x1*b2"),
             "th2": e(tab, "th1 - x3*th2 + x2*th1*th2*th3")}
    exprs = [e(tab, text) for text in [
        "x1/(x2^2 + 1)",
        "(x1*x3 + th1*th2)/(x2^2 + 1)",
        "th3/(x2^2 + 1) + x2/(x1 + 2)",
        "x1^3*x3^2 + x1*x2",
        "x1*x2*x3 + th1*th3",
        "th1*th2*th3",
        "x1*th2 + th1",
        "1 + th1 + x2*th2*th3 + b1*th1*th2 + x3/(x1 + 2)",
    ]]
    pull = Pullback(tab, binds)
    for _ in range(2):  # the second pass runs on filled caches
        for f in exprs:
            assert pull(f) == f.substitute(binds)
    assert pull.odd_products and pull.nil_powers
    assert len(pull.body_images.monomials) > 1  # b^0 is there from the start


def test_pullback_errors(tab):
    with pytest.raises(ParityError):
        Pullback(tab, {"x1": e(tab, "th1")})
    with pytest.raises(ParityError):
        Pullback(tab, {"th1": e(tab, "x1")})
    pull = Pullback(tab, {"x1": e(tab, "th1*th2")})
    assert pull(e(tab, "x2*x1")) == e(tab, "x2*th1*th2")
    with pytest.raises(ScalarError):
        pull(e(tab, "1/x1"))


def test_from_raw_terms_refuses_a_scalar_of_another_table():
    a, b = standard_table(2), standard_table(2)
    with pytest.raises(SymbolError, match="mixed symbol tables"):
        SuperExpr.from_raw_terms(a, [(Scalar.symbol(b, "x1"), ["th1"])])
    assert SuperExpr.from_raw_terms(
        a, [(Scalar.symbol(a, "x1"), ["th1"])]) == e(a, "x1*th1")


def test_pullback_many(tab, monkeypatch):
    pull = Pullback(tab, {"x1": e(tab, "x1 + th1*th2"),
                          "th3": e(tab, "th3 + x2*th1")})
    assert pull.many([]) == []
    other = e(standard_table(3, aux=2), "x1")
    for call in (pull, lambda f: pull.many([e(tab, "x1"), f])):
        with pytest.raises(SymbolError, match="mixed symbol tables"):
            call(other)
    # a batch expands each primitive part once, on any monomial and in
    # any of its expressions; a single call shares none with the next
    shifted = []
    real = Pullback._shifted

    def counting(self, poly, den):
        shifted.append((frozenset(poly.items()), den))
        return real(self, poly, den)
    monkeypatch.setattr(Pullback, "_shifted", counting)
    batch = [e(tab, "x1^2*th3 + x1^2/2*b1 + (x1^2 + 0)*th2"),
             e(tab, "x1^2*b2 + x1*x2"), e(tab, "x1^2*th3")]
    got = pull.many(batch)
    assert len(shifted) == len(set(shifted)) == 2
    del shifted[:]
    assert got == [pull(f) for f in batch]
    assert len(shifted) == 4


def test_pullback_many_keeps_no_memo():
    # a manifest's map, and so its Pullback, is shared by every request
    # on the same bytes: a batch leaves no attribute behind
    path = os.path.join(os.path.dirname(__file__), "data", "rational.json")
    fmap = load_manifest(path).maps["m"]
    pull = fmap.pullback
    before = {name: id(value) for name, value in vars(pull).items()}
    assert pull.many(list(fmap.targets) * 2) == \
        [pull(t) for t in fmap.targets * 2]
    assert {name: id(value) for name, value in vars(pull).items()} == before


def test_nilpotent_series_stops_at_first_zero_term(tab):
    # th1 -> th1*th2 -> 0: two steps, the second one gives the zero term
    steps = []

    def step(term):
        steps.append(term)
        return term * e(tab, "th2")

    total = nilpotent_series(e(tab, "th1"), step, lambda k: Fraction(1, k + 1))
    assert total == e(tab, "th1 + 1/2*th1*th2")
    assert len(steps) == 2


def test_nilpotent_series_caps_terms_at_odd_weight(tab):
    # a step that never vanishes still ends after odd_weight + 1 terms
    steps = []

    def step(term):
        steps.append(term)
        return term

    one = SuperExpr.one(tab)
    total = nilpotent_series(one, step, lambda k: 0 if k % 2 else 1)
    assert tab.odd_weight == 7
    assert len(steps) == tab.odd_weight
    assert total == 4 * one


def test_integer_literals_int_refuses_are_parse_errors(tab):
    # str.isdigit admits '²' and '³', which int() refuses, and int()
    # refuses a literal of more than 4300 digits
    assert e(tab, "٣*x1") == e(tab, "3*x1")
    for text, column in (("2³", 1), ("x1^²", 4), ("9" * 5000, 1)):
        with pytest.raises(ParseError, match="invalid integer literal") \
                as raised:
            parse_expr(text, tab)
        assert (raised.value.line, raised.value.column) == (1, column)
