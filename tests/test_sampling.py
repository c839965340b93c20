"""The fixture generators against the product chains they replaced.

Each generator builds its terms in one normalisation pass.  It must draw
from the rng in the same order, and return the same canonical value, as
the chain of ring and ``SuperExpr`` products that it used to build; the
values pinned in tests/data/verify_values.json depend on both.  The
``_chain_*`` functions below are those chains, kept here as the
reference.
"""

import functools
import random
from collections import Counter
from unittest import mock

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracField
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement

from oddsym import flows, symplectic
from oddsym.flows import exp_flow
from oddsym.sampling import (random_canonical_map, random_expr,
                             random_flow_hamiltonian, random_messy_map,
                             random_point_map, random_scalar,
                             random_special_map)
from oddsym.scalars import Scalar
from oddsym.superexpr import Pullback, SuperExpr
from oddsym.symbols import TIME_SYMBOL, standard_chart
from oddsym.symplectic import (SuperMap, _check_body_inverse, invert_map,
                               point_map, special_map, theta_linear)

SEEDS = range(200)


def _chart(n, aux=2):
    return standard_chart(n, aux=aux, extra_even=(TIME_SYMBOL,))


# -- the product chains -----------------------------------------------------


@functools.cache
def _sympy_ring(names):
    """The ring of sympy's FracField of the even symbols ``names``, in
    graded-lex order, that the chains multiply in."""
    return FracField(names, ZZ, grlex).ring


def _chain_scalar(rng, table, coeff_degree=2, names=None, rational=False,
                  allow_zero=True):
    names = list(names if names is not None else table.even_symbols)
    ring = _sympy_ring(table.even_symbols)
    total = ring.zero
    for _ in range(rng.randint(0 if allow_zero else 1, 3)):
        coeff = rng.randint(-4, 4)
        if coeff == 0:
            continue
        term = ring.ground_new(coeff)
        for _ in range(rng.randint(0, coeff_degree)):
            if names:
                term = term * ring.gens[table.even_index(rng.choice(names))]
        total = total + term
    out = Scalar.from_poly(table, {m: int(c) for m, c in total.items()})
    if rational and names and rng.random() < 0.4:
        den = Scalar.from_int(table, rng.choice([2, 3])) + \
            Scalar.symbol(table, rng.choice(names)) ** 2
        out = out / den
    return out


def _chain_expr(rng, table, theta_degree=2, coeff_degree=2, aux=False,
                rational=False, min_theta=0, even_names=None):
    thetas = list(table.coordinate_odds)
    total = SuperExpr.zero(table)
    for _ in range(rng.randint(1, 4)):
        c = _chain_scalar(rng, table, coeff_degree, names=even_names,
                          rational=rational, allow_zero=False)
        if c.is_zero:
            continue
        k_theta = rng.randint(min_theta, theta_degree)
        monomial = rng.sample(thetas, min(k_theta, len(thetas)))
        if aux and table.aux_odds and rng.random() < 0.5:
            monomial += rng.sample(list(table.aux_odds),
                                   rng.randint(0, len(table.aux_odds)))
        term = SuperExpr.from_scalar(c)
        for name in monomial:
            term = term * SuperExpr.symbol(table, name)
        total = total + term
    return total


def _chain_flow_hamiltonian(rng, chart, seen=None):
    """``seen`` collects the (zero coefficient, k) of each drawn term."""
    table = chart.table
    total = SuperExpr.zero(table)
    thetas = list(chart.thetas)
    for _ in range(rng.randint(1, 3)):
        c = _chain_scalar(rng, table, coeff_degree=2, names=chart.xs,
                          allow_zero=False)
        term = SuperExpr.from_scalar(c)
        k = rng.choice([2, 3] if len(thetas) >= 3 else [2])
        k = min(k, len(thetas))
        if seen is not None:
            seen.add((c.is_zero, k))
        for name in rng.sample(thetas, k):
            term = term * SuperExpr.symbol(table, name)
        if term.is_even() and table.aux_odds:
            term = term * SuperExpr.symbol(
                table, rng.choice(list(table.aux_odds)))
        if term.is_odd():
            total = total + term
    return total.odd_part()


def _chain_special_map(rng, chart):
    table = chart.table
    phi = SuperExpr.zero(table)
    for _ in range(rng.randint(1, 2)):
        c = _chain_scalar(rng, table, coeff_degree=2, names=chart.xs,
                          allow_zero=False)
        phi = phi + SuperExpr.from_scalar(c) * \
            SuperExpr.symbol(table, rng.choice(list(table.aux_odds)))
    return special_map(chart, [phi.diff(x) for x in chart.xs])


def _chain_flow_map(rng, chart):
    q = _chain_flow_hamiltonian(rng, chart)
    return exp_flow(q, chart, rng.choice([1]))


def _chain_canonical_map(rng, chart):
    out = SuperMap.identity(chart)
    atoms = (_chain_special_map, random_point_map, _chain_flow_map)
    for make in rng.sample(atoms, rng.randint(1, len(atoms))):
        out = make(rng, chart).compose(out)
    return out


def _chain_messy_map(rng, chart):
    table = chart.table
    n = chart.n
    atoms = []
    mat = [[Scalar.from_int(table, 1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for i in range(n):
        if rng.random() < 0.7:
            mat[i][i] = Scalar.from_int(table, rng.choice([1, 2, 3]))
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                mat[i][j] = _chain_scalar(rng, table, coeff_degree=1,
                                          names=chart.xs)
    xs = [SuperExpr.symbol(table, x) for x in chart.xs]
    ths = [SuperExpr.symbol(table, th) for th in chart.thetas]
    targets = xs + [theta_linear(ths, mat, j) for j in range(n)]
    ident_body = [Scalar.symbol(table, x) for x in chart.xs]
    atoms.append(SuperMap(chart, chart, targets, body_inverse=ident_body))
    shear = list(xs)
    for i in range(n):
        if rng.random() < 0.8 and n >= 2:
            pair = rng.sample(list(chart.thetas), 2)
            c = _chain_scalar(rng, table, coeff_degree=1, names=chart.xs,
                              allow_zero=False)
            shear[i] = shear[i] + SuperExpr.from_scalar(c) * \
                SuperExpr.symbol(table, pair[0]) * \
                SuperExpr.symbol(table, pair[1])
    atoms.append(SuperMap(chart, chart, shear + ths, body_inverse=ident_body))
    if rng.random() < 0.6:
        atoms.append(random_point_map(rng, chart))
    out = atoms[0]
    for atom in atoms[1:]:
        out = atom.compose(out)
    return out


# -- same values, same streams -----------------------------------------------


def _draws(make, reference, *args, **kw):
    """(got, want) for each seed, after checking that both leave the rng
    in the same state."""
    for seed in SEEDS:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = make(rng, *args, **kw), reference(ref_rng, *args, **kw)
        assert rng.getstate() == ref_rng.getstate(), seed
        yield got, want


TABLE = _chart(3).table


@pytest.mark.parametrize("kw", [
    {}, {"names": []}, {"rational": True}, {"allow_zero": False},
    {"coeff_degree": 0}, {"coeff_degree": 4, "names": ["x1", "x2"]},
    {"names": [], "rational": True, "allow_zero": False}])
def test_random_scalar_keeps_its_stream(kw):
    for got, want in _draws(random_scalar, _chain_scalar, TABLE, **kw):
        assert got == want


@pytest.mark.parametrize("kw", [
    {}, {"aux": True}, {"rational": True}, {"min_theta": 1},
    {"theta_degree": 3, "coeff_degree": 1},
    {"even_names": ["x1", "x3"]}, {"even_names": []},
    {"theta_degree": 3, "aux": True, "rational": True, "min_theta": 2,
     "even_names": ["x2"]}])
def test_random_expr_keeps_its_stream(kw):
    for got, want in _draws(random_expr, _chain_expr, TABLE, **kw):
        assert got == want


@pytest.mark.parametrize("n, aux", [(3, 2), (3, 0), (2, 1), (1, 1)])
def test_random_flow_hamiltonian_keeps_its_stream(n, aux):
    seen = set()

    def reference(rng, chart):
        return _chain_flow_hamiltonian(rng, chart, seen)

    for got, want in _draws(random_flow_hamiltonian, reference,
                            _chart(n, aux)):
        assert got == want
    if n == 3:
        # a zero coefficient is even as well as odd, whatever k is
        assert (True, 3) in seen


@pytest.mark.parametrize("n", [2, 3])
def test_random_special_map_keeps_its_stream(n):
    for got, want in _draws(random_special_map, _chain_special_map,
                            _chart(n)):
        assert got == want
        assert got.inverse.targets == want.inverse.targets
        assert got.body_inverse == want.body_inverse


@pytest.mark.parametrize("n", [2, 3])
def test_random_messy_map_keeps_its_stream(n):
    for got, want in _draws(random_messy_map, _chain_messy_map, _chart(n)):
        assert got == want
        assert got.body_inverse == want.body_inverse


@pytest.mark.parametrize("n", [2, 3])
def test_random_canonical_map_keeps_its_stream(n):
    chart = _chart(n)
    for got, want in _draws(random_canonical_map, _chain_canonical_map,
                            chart):
        assert got == want
        assert got.inverse.targets == want.inverse.targets
        # the chain began at the identity, which has no body inverse, so
        # it dropped the composite's; the generator keeps it
        assert want.body_inverse is None
        if got.body_inverse is not None:
            _check_body_inverse(chart, got.body_map(), got.body_inverse)


def test_generators_take_no_products():
    def refuse(self, other):
        raise AssertionError("product taken while drawing a fixture")

    chart = _chart(3)
    with mock.patch.object(SuperExpr, "__mul__", refuse), \
            mock.patch.object(PolyElement, "__mul__", refuse):
        for seed in range(20):
            rng = random.Random(seed)
            random_scalar(rng, chart.table, coeff_degree=3)
            random_expr(rng, chart.table, theta_degree=3, aux=True)
            random_flow_hamiltonian(rng, chart)


# -- inverses are built on their first read -----------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Calls, by name, of the steps that build map targets and inverses."""
    seen = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kw):
            seen[name] += 1
            return original(*args, **kw)

        monkeypatch.setattr(owner, name, counted)

    count(flows, "_summed")
    count(symplectic, "theta_linear")
    count(Pullback, "_pull")
    count(SuperMap, "compose")
    return seen


def test_maps_build_no_inverse_until_read(calls):
    chart = _chart(2)
    n = chart.n
    flow = exp_flow(random_flow_hamiltonian(random.Random(1), chart), chart)
    assert calls["_summed"] == 1
    for _ in range(2):
        assert flow.inverse.targets is not None
        assert calls["_summed"] == 2

    calls.clear()
    point = random_point_map(random.Random(0), chart)
    assert calls["theta_linear"] == n
    for _ in range(2):
        assert point.inverse.targets is not None
        assert calls["theta_linear"] == 2 * n

    seen = Counter()
    for seed in range(20):
        calls.clear()
        fmap = random_canonical_map(random.Random(seed), chart)
        built = calls.copy()
        # a composition pulls back the 2n targets alone
        assert built["_pull"] == 2 * n * built["compose"]
        assert fmap.inverse.targets is not None
        for name in ("_summed", "theta_linear", "_pull"):
            assert calls[name] == 2 * built[name], (seed, name)
        seen.update(name for name, count in built.items() if count)
    assert all(seen[name] for name in
               ("_summed", "theta_linear", "_pull", "compose"))


def _eager_special_map(rng, chart):
    fmap = random_special_map(rng, chart)
    # x -> x, th -> th + a inverts to z -> 2z - F(z): x -> x, th -> th - a
    return fmap, tuple(z + z - t
                       for z, t in zip(_coordinates(chart), fmap.targets))


def _eager_point_map(rng, chart):
    fmap = random_point_map(rng, chart)
    body = fmap.body_map()
    return fmap, point_map(chart, fmap.body_inverse, body).targets


def _eager_flow_map(rng, chart):
    q = random_flow_hamiltonian(rng, chart)
    rng.choice([1])
    return exp_flow(q, chart, 1), exp_flow(q, chart, -1).targets


def _coordinates(chart):
    return tuple(SuperExpr.symbol(chart.table, name)
                 for name in chart.coordinate_names)


def _eager_canonical_map(rng, chart):
    """``random_canonical_map`` with the inverse of each atom built with
    the atom, composed in reverse order: (map, inverse map)."""
    atoms = (_eager_special_map, _eager_point_map, _eager_flow_map)
    first, *rest = rng.sample(atoms, rng.randint(1, len(atoms)))
    out, inverse = first(rng, chart)
    inv = SuperMap(chart, chart, inverse)
    for make in rest:
        atom, inverse = make(rng, chart)
        out = atom.compose(out)
        inv = inv.compose(SuperMap(chart, chart, inverse))
    return out, inv


@pytest.mark.parametrize("n", [2, 3])
def test_lazy_inverses_match_eager_construction(n):
    chart = _chart(n)
    for seed in range(40):
        got = random_canonical_map(random.Random(seed), chart)
        want, inv = _eager_canonical_map(random.Random(seed), chart)
        assert got == want
        assert got.inverse.targets == inv.targets
        assert [t.body() for t in got.inverse.targets[:n]] == inv.body_map()
        assert invert_map(got).targets == inv.targets
