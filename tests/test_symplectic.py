import gc
import random
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oddsym import symplectic
from oddsym.bv import delta0
from oddsym.flows import exp_flow
from oddsym.grammar import parse_expr
from oddsym.sampling import (pushforward_structure, random_canonical_map,
                             random_expr, random_flow_hamiltonian,
                             random_messy_map, random_point_map,
                             random_scalar, random_special_map)
from oddsym.scalars import Scalar
from oddsym.superexpr import SuperExpr
from oddsym.scalars import ScalarError
from oddsym.symbols import (Chart, Parity, SymbolError, standard_chart,
                            standard_table)
from oddsym.symplectic import (CanonicityError, OddSymplecticStructure,
                               Semidensity, SuperMap, ber_sqrt, bracket,
                               adjusted_map, bracket_matrix,
                               decompose_canonical_map,
                               hamiltonian_field, invert_map, is_canonical,
                               jacobi_residual, map_berezinian, mat_det,
                               mat_inv, mat_mul, point_map,
                               pullback_semidensity, scalar_reciprocal,
                               special_map, theta_shift)


def make_chart(n, aux=2):
    table = standard_table(n, aux=aux, extra_even=("t",))
    return Chart(table, table.even_symbols[:n], table.coordinate_odds)


@pytest.fixture
def c2():
    return make_chart(2)


@pytest.fixture
def c3():
    return make_chart(3)


def e(chart, text):
    return parse_expr(text, chart.table)


def test_bracket_canonical_pairs(c2):
    assert bracket(e(c2, "x1"), e(c2, "th1"), c2) == e(c2, "1")
    assert bracket(e(c2, "th1"), e(c2, "th1"), c2).is_zero
    assert bracket(e(c2, "th1"), e(c2, "x1"), c2) == e(c2, "-1")
    assert bracket(e(c2, "x1"), e(c2, "x2"), c2).is_zero


def test_bracket_worked_example(c2):
    # {th1*th2, x1} expands through the odd-derivative slot
    assert bracket(e(c2, "th1*th2"), e(c2, "x1"), c2) == e(c2, "th2")


def test_bracket_general_matches_canonical(c2):
    rng = random.Random(5)
    omega = OddSymplecticStructure.canonical(c2)
    for _ in range(60):
        f = random_expr(rng, c2.table, theta_degree=2, coeff_degree=2,
                        aux=True)
        g = random_expr(rng, c2.table, theta_degree=2, coeff_degree=2,
                        aux=True)
        assert bracket(f, g, c2, omega) == bracket(f, g, c2)


def test_hamiltonian_field(c2):
    dfield = hamiltonian_field(e(c2, "th1"), c2)
    assert dfield[0] == e(c2, "-1")
    assert all(v.is_zero for v in dfield[1:])
    dfield = hamiltonian_field(e(c2, "x1"), c2)
    assert dfield[2] == e(c2, "1")
    assert sum(1 for v in dfield if not v.is_zero) == 1
    assert all(v.is_zero for v in hamiltonian_field(
        SuperExpr.zero(c2.table), c2))


def test_omega_of_hamiltonian_fields(c2):
    # the structure evaluated on two Hamiltonian fields returns -{f,g}
    from oddsym.symplectic import canonical_pairing

    rng = random.Random(6)
    for _ in range(20):
        f = random_expr(rng, c2.table, theta_degree=2, coeff_degree=1)
        g = random_expr(rng, c2.table, theta_degree=2, coeff_degree=1)
        for fh in (f.even_part(), f.odd_part()):
            for gh in (g.even_part(), g.odd_part()):
                df = hamiltonian_field(fh, c2)
                dg = hamiltonian_field(gh, c2)
                field_odd = gh.is_even() and bool(gh)
                paired = canonical_pairing(df, dg, c2, field_odd)
                assert paired == -bracket(fh, gh, c2)


def test_jacobi_canonical(c3):
    assert jacobi_residual(e(c3, "x1"), e(c3, "th1"), e(c3, "x1*th1"),
                           c3).is_zero
    rng = random.Random(7)
    for _ in range(40):
        f = random_expr(rng, c3.table, theta_degree=2, coeff_degree=2,
                        aux=True).even_part()
        g = random_expr(rng, c3.table, theta_degree=2, coeff_degree=2,
                        aux=True).odd_part()
        h = random_expr(rng, c3.table, theta_degree=2, coeff_degree=2)
        for hh in (h.even_part(), h.odd_part()):
            assert jacobi_residual(f, g, hh, c3).is_zero


def test_jacobi_detects_bad_structure(c2):
    omega = OddSymplecticStructure.canonical(c2)
    rows = [list(r) for r in omega.matrix]
    bad = e(c2, "b1*x1")
    rows[0][1] = bad
    rows[1][0] = bad
    broken = OddSymplecticStructure(c2, rows)
    # hand expansion: only the {th1, {x1, x2}} leg survives and equals -b1
    res = jacobi_residual(e(c2, "x1"), e(c2, "x2"), e(c2, "th1"),
                          c2, broken)
    assert res == e(c2, "-b1")


def test_berezinian_diagonal(c2):
    table = c2.table
    zero = SuperExpr.zero(table)
    a = e(c2, "x1")
    d = e(c2, "x2")
    one = SuperExpr.one(table)
    m = [[a, zero, zero, zero], [zero, one, zero, zero],
         [zero, zero, d, zero], [zero, zero, zero, one]]
    from oddsym.symplectic import berezinian
    assert berezinian(m, 2) == e(c2, "x1/x2")
    ident = [[one if i == j else zero for j in range(4)] for i in range(4)]
    assert berezinian(ident, 2) == one


def test_point_map_berezinian_squares():
    chart = make_chart(1)
    table = chart.table
    body = [Scalar.symbol(table, "x1") ** 2]
    inverse = None
    # x -> x^2 has no global rational inverse; build the map by hand
    jac_inv = [[1 / (2 * Scalar.symbol(table, "x1"))]]
    targets = [e(chart, "x1^2"), e(chart, "th1/(2*x1)")]
    fmap = SuperMap(chart, chart, targets)
    assert map_berezinian(fmap) == e(chart, "4*x1^2")
    assert ber_sqrt(fmap) == e(chart, "2*x1")


def test_ber_sqrt_positive_branch():
    chart = make_chart(1)
    fmap = SuperMap(chart, chart, [e(chart, "2*x1"), e(chart, "th1/2")])
    assert ber_sqrt(fmap) == e(chart, "2")
    ident = SuperMap.identity(chart)
    assert ber_sqrt(ident) == SuperExpr.one(chart.table)


def test_construct_special(c2):
    # gradient of b1*x1 shifts th1 only
    psis = [e(c2, "b1"), SuperExpr.zero(c2.table)]
    fmap = special_map(c2, psis)
    assert fmap.targets[2] == e(c2, "th1 + b1")
    assert fmap.targets[3] == e(c2, "th2")
    assert is_canonical(fmap).ok


def test_construct_special_rejects_nonclosed(c2):
    psis = [e(c2, "b1*x2"), SuperExpr.zero(c2.table)]
    with pytest.raises(CanonicityError):
        special_map(c2, psis)


def test_construct_point_scaling():
    chart = make_chart(1)
    table = chart.table
    fmap = point_map(chart, [2 * Scalar.symbol(table, "x1")],
                     [Scalar.symbol(table, "x1") / 2])
    assert fmap.targets[1] == e(chart, "th1/2")
    assert is_canonical(fmap).ok


def test_construct_point_shear(c2):
    table = c2.table
    x1, x2 = Scalar.symbol(table, "x1"), Scalar.symbol(table, "x2")
    fmap = point_map(c2, [x1 + x2, x2], [x1 - x2, x2])
    assert fmap.targets[2] == e(c2, "th1")
    assert fmap.targets[3] == e(c2, "th2 - th1")
    assert is_canonical(fmap).ok


def test_is_canonical_detects_scaling():
    chart = make_chart(1)
    fmap = SuperMap(chart, chart, [e(chart, "2*x1"), e(chart, "th1")])
    report = is_canonical(fmap)
    assert not report.ok
    assert report.nonzero()[("x1", "th1")] == e(chart, "1")


def test_invert_special(c2):
    fmap = special_map(c2, [e(c2, "b1"), e(c2, "b2")])
    inv = invert_map(fmap)
    assert inv.targets[2] == e(c2, "th1 - b1")


def test_invert_identity(c2):
    ident = SuperMap.identity(c2)
    assert invert_map(ident).targets == ident.targets


def test_invert_generic_nilpotent(c2):
    targets = [e(c2, "x1 + th1*th2"), e(c2, "x2"),
               e(c2, "th1"), e(c2, "th2 + b1*th1*th2")]
    fmap = SuperMap(c2, c2, targets)
    inv = invert_map(fmap)
    coords = [SuperExpr.symbol(c2.table, n) for n in c2.coordinate_names]
    assert list(fmap.compose(inv).targets) == coords
    assert list(inv.compose(fmap).targets) == coords


def test_invert_messy_maps(c2):
    rng = random.Random(11)
    for _ in range(8):
        fmap = random_messy_map(rng, c2)
        inv = invert_map(fmap)
        coords = [SuperExpr.symbol(c2.table, n) for n in c2.coordinate_names]
        assert list(fmap.compose(inv).targets) == coords


def test_decompose_roundtrip(c2):
    rng = random.Random(13)
    for _ in range(6):
        f_s = random_special_map(rng, c2)
        f_p = random_point_map(rng, c2)
        from oddsym.flows import exp_flow
        from oddsym.sampling import random_flow_hamiltonian
        f_adj = exp_flow(random_flow_hamiltonian(rng, c2), c2, 1)
        fmap = f_s.compose(f_p.compose(f_adj))
        gs, gp, gadj = decompose_canonical_map(fmap)
        assert gs.compose(gp.compose(gadj)).targets == fmap.targets
        assert list(gs.targets) == list(f_s.targets)
        assert list(gp.targets) == list(f_p.targets)
        assert list(gadj.targets) == list(f_adj.targets)


def test_decompose_trivial_cases(c2):
    from oddsym.flows import exp_flow

    ident = SuperMap.identity(c2)
    f_adj = exp_flow(e(c2, "b1*x1*th1*th2"), c2, 1)
    f_adj = adjusted_map(c2, list(f_adj.targets))
    assert is_canonical(f_adj).ok
    gs, gp, gadj = decompose_canonical_map(f_adj)
    assert gs.targets == ident.targets and gp.targets == ident.targets
    assert gadj.targets == f_adj.targets
    f_p = random_point_map(random.Random(17), c2)
    gs, gp, gadj = decompose_canonical_map(f_p)
    assert gs.targets == ident.targets and gadj.targets == ident.targets
    assert list(gp.targets) == list(f_p.targets)


def test_pullback_identity(c2):
    s = Semidensity(e(c2, "1 + x1*th1*th2"), c2)
    assert pullback_semidensity(SuperMap.identity(c2), s) == s


def test_pullback_point_scaling():
    chart = make_chart(1)
    fmap = point_map(chart, [2 * Scalar.symbol(chart.table, "x1")],
                     [Scalar.symbol(chart.table, "x1") / 2])
    s = Semidensity(e(chart, "x1 + th1"), chart)
    pulled = pullback_semidensity(fmap, s)
    assert pulled.coefficient == e(chart, "2*(2*x1) + 2*(th1/2)")


def test_pullback_special_unit_factor(c2):
    fmap = special_map(c2, [e(c2, "b1"), SuperExpr.zero(c2.table)])
    s = Semidensity(e(c2, "th1*th2"), c2)
    pulled = pullback_semidensity(fmap, s)
    assert pulled.coefficient == e(c2, "(th1 + b1)*th2")


def test_pullback_semidensity_takes_one_berezinian_per_map(c2, monkeypatch):
    calls = []
    berezinian = symplectic.berezinian

    def counted(matrix, n):
        calls.append(n)
        return berezinian(matrix, n)

    monkeypatch.setattr(symplectic, "berezinian", counted)
    fmap = random_canonical_map(random.Random(3), c2)
    s = Semidensity(e(c2, "x1 + x2*th1*th2"), c2)
    first = pullback_semidensity(fmap, s)
    assert pullback_semidensity(fmap, s) == first
    assert len(calls) == 1
    assert first.coefficient == \
        s.coefficient.substitute(fmap.bindings()) * ber_sqrt(fmap)


def test_pullback_functorial(c2):
    rng = random.Random(19)
    for _ in range(6):
        f = random_canonical_map(rng, c2)
        g = random_canonical_map(rng, c2)
        s = Semidensity(random_expr(rng, c2.table, theta_degree=2,
                                    coeff_degree=1, aux=True), c2)
        combined = pullback_semidensity(f.compose(g), s)
        nested = pullback_semidensity(g, pullback_semidensity(f, s))
        assert combined == nested


def test_berezinian_multiplicative(c2):
    rng = random.Random(23)
    for _ in range(6):
        f = random_canonical_map(rng, c2)
        g = random_canonical_map(rng, c2)
        composed = f.compose(g)
        lhs = map_berezinian(composed)
        rhs = map_berezinian(f).substitute(g.bindings()) * map_berezinian(g)
        assert lhs == rhs


def test_ber_sqrt_squares_back(c2):
    rng = random.Random(29)
    for _ in range(6):
        f = random_canonical_map(rng, c2)
        root = ber_sqrt(f)
        ber = map_berezinian(f)
        assert root * root == ber
        # the numeric part of the Berezinian is positive at sample points
        body = ber.body()
        for point in ((2, 3), (1, 5), (7, 2)):
            val = body.subs_even({
                "x1": Scalar.from_fraction(c2.table, point[0]),
                "x2": Scalar.from_fraction(c2.table, point[1])})
            if not val.is_zero:
                assert val.as_fraction() > 0
                break
        else:
            raise AssertionError("no generic sample point found")


def test_ber_sqrt_cubic_flow_is_one():
    chart = make_chart(3)
    from oddsym.flows import exp_flow
    fmap = exp_flow(e(chart, "th1*th2*th3"), chart, 1)
    assert ber_sqrt(fmap) == SuperExpr.one(chart.table)


def test_canonical_samples_pass(c2):
    rng = random.Random(31)
    for _ in range(6):
        f = random_canonical_map(rng, c2)
        report = is_canonical(f)
        assert report.ok, report.nonzero()


def test_pushforward_structure_oracle(c2):
    rng = random.Random(37)
    omega, fmap = pushforward_structure(rng, c2)
    # bracket computed through the pushed structure must agree with the
    # bracket computed upstairs and transported: check on coordinates
    inv = invert_map(fmap)
    for a in range(4):
        for b in range(4):
            upstairs = bracket(fmap.targets[a], fmap.targets[b], c2)
            assert omega.matrix[a][b] == upstairs.substitute(inv.bindings())


def _inverse_body(fmap):
    return [t.body() for t in fmap.inverse.targets[:fmap.source.n]]


def _count_peels(monkeypatch):
    """The maps that ``_peeled_inverse`` runs on, from now on."""
    peeled = []
    peel = symplectic._peeled_inverse

    def counted(fmap):
        peeled.append(fmap)
        return peel(fmap)

    monkeypatch.setattr(symplectic, "_peeled_inverse", counted)
    return peeled


def test_invert_map_body_peel_path(c2, monkeypatch):
    # non-identity body with no inverse recipe: the point part is peeled
    # off through body_inverse and the unipotent remainder is iterated
    rng = random.Random(41)
    point = random_point_map(rng, c2)
    from oddsym.flows import exp_flow
    from oddsym.sampling import random_flow_hamiltonian
    flow = exp_flow(random_flow_hamiltonian(rng, c2), c2, 1)
    composite = flow.compose(point)
    stripped = SuperMap(c2, c2, composite.targets,
                        body_inverse=_inverse_body(composite))
    peels = _count_peels(monkeypatch)
    assert peels == []
    inv = invert_map(stripped)
    # one peel, on the first of two reads
    assert stripped.inverse.targets == inv.targets
    assert len(peels) == 1 and peels[0] is stripped
    coords = [SuperExpr.symbol(c2.table, n) for n in c2.coordinate_names]
    assert list(stripped.compose(inv).targets) == coords
    assert list(inv.compose(stripped).targets) == coords


def _maps_with_recipes(rng, chart):
    table = chart.table
    xs = [Scalar.symbol(table, x) for x in chart.xs]
    # x1 -> x1 / (1 + x1): a body inverse that is not a polynomial, and a
    # theta-linear part that must be taken at the inverse body
    rational = point_map(chart, [xs[0] / (1 + xs[0])] + xs[1:],
                         [xs[0] / (1 - xs[0])] + xs[1:])
    shifts = [SuperExpr.from_raw_terms(table, [(
        random_scalar(rng, table, names=chart.xs, allow_zero=False),
        [rng.choice(list(table.aux_odds))])]) for _ in chart.thetas]
    q = random_flow_hamiltonian(rng, chart)
    return [random_special_map(rng, chart), random_point_map(rng, chart),
            rational, exp_flow(q, chart, 1), exp_flow(q, chart, "formal"),
            theta_shift(chart, shifts), SuperMap.identity(chart)]


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_recipes_agree_with_peeling(n):
    chart = make_chart(n)
    for seed in range(4):
        for fmap in _maps_with_recipes(random.Random(seed), chart):
            peeled = SuperMap(chart, chart, fmap.targets,
                              body_inverse=fmap.body_inverse)
            assert peeled.inverse.targets == fmap.inverse.targets


def test_apply_is_the_kept_pullback(c2, monkeypatch):
    # apply pulls back through the map's kept Pullback, built once
    fmap = SuperMap(c2, c2, random_canonical_map(random.Random(5), c2).targets)
    rng = random.Random(6)
    exprs = [random_expr(rng, c2.table) for _ in range(3)]
    want = [expr.substitute(fmap.bindings()) for expr in exprs]
    built = []
    real = symplectic.Pullback.__init__

    def counting(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(symplectic.Pullback, "__init__", counting)
    assert [fmap.apply(expr) for expr in exprs] == want
    assert [fmap.pullback(expr) for expr in exprs] == want
    assert built == [fmap.pullback]


def test_inverse_is_one_map_built_once(c2, monkeypatch):
    # peeled: invert_map checks the map's inverse and hands back that map
    fmap = random_canonical_map(random.Random(7), c2)
    stripped = SuperMap(c2, c2, fmap.targets,
                        body_inverse=_inverse_body(fmap))
    peels = _count_peels(monkeypatch)
    inv = invert_map(stripped)
    assert isinstance(inv, SuperMap) and (inv.source, inv.target) == (c2, c2)
    assert inv is stripped.inverse and invert_map(stripped) is inv
    assert len(peels) == 1
    # from a recipe: called once, on the first read
    calls = []

    def recipe():
        calls.append(1)
        return inv.targets

    fmap = SuperMap(c2, c2, stripped.targets, recipe=recipe)
    assert calls == []
    assert invert_map(fmap) is fmap.inverse is invert_map(fmap)
    assert calls == [1] and fmap.inverse == inv


def test_map_with_read_inverse_is_freed_without_gc(c2):
    # a map and its inverse form no reference cycle: reference counting
    # alone frees the map once its inverse and their pull-backs were read
    def composite():
        return random_canonical_map(random.Random(7), c2)

    def peeled():
        fmap = composite()
        return SuperMap(c2, c2, fmap.targets,
                        body_inverse=_inverse_body(fmap))

    gc.disable()
    try:
        for make in (composite, peeled):
            fmap = make()
            invert_map(fmap).pullback(fmap.pullback(e(c2, "x1*th2")))
            ref = weakref.ref(fmap)
            del fmap
            assert ref() is None
    finally:
        gc.enable()


def test_compose_with_inverse_leaves_no_garbage(c2):
    # a pull-back builds no reference cycle: reference counting alone
    # frees every term dict, Scalar and polynomial of a composite
    for seed in range(4):
        fmap = random_canonical_map(random.Random(seed), c2)
        inverse = fmap.inverse
        gc.collect()
        gc.disable()
        try:
            fmap.compose(inverse)
            assert gc.collect() == 0, seed
        finally:
            gc.enable()


def test_symbol_table_leaves_no_garbage():
    # a table holds no Scalar of its own, so a chart, its expressions and
    # their bracket and delta0 are freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        chart = standard_chart(2, aux=1)
        f = parse_expr("x1*th1 + 3*x2*th1*th2 + b1", chart.table)
        g = parse_expr("x2^2*th2 - 1/(1 + x1)", chart.table)
        results = bracket(f, g, chart), delta0(f * g, chart)
        del chart, f, g, results
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("make", [random_point_map, random_canonical_map])
def test_inverse_of_inverse_has_the_map_targets(c2, make):
    # the inverse carries the map's body as its body inverse, so it can
    # be inverted again by peeling
    for seed in range(20):
        fmap = make(random.Random(seed), c2)
        assert fmap.inverse.inverse.targets == fmap.targets


def test_composites_share_one_inverse_pullback(c2, monkeypatch):
    # s o m_1, ..., s o m_k: every composite's inverse pulls back along
    # s's inverse through its one kept Pullback
    rng = random.Random(10)
    s = random_point_map(rng, c2)
    composites = [s.compose(random_canonical_map(rng, c2)) for _ in range(3)]
    built = []
    real = symplectic.Pullback.__init__

    def counting(self, table, bindings):
        built.append(bindings)
        real(self, table, bindings)

    monkeypatch.setattr(symplectic.Pullback, "__init__", counting)
    for composite in composites:
        assert composite.inverse.targets
    assert built.count(s.inverse.bindings()) == 1


def test_peel_series_runs_to_the_odd_weight():
    # theta -> theta + x1*xi2 moves a theta by a bare frame odd, which
    # keeps the odd weight; (U* - id)^k x1 is still nonzero at k = 4, the
    # table's odd weight, and the peeled inverse checks out both ways
    table = standard_table(2, frame=True)
    chart = Chart(table, table.even_symbols[:2], table.coordinate_odds)
    fmap = SuperMap(chart, chart, [parse_expr(t, table) for t in [
        "x1 + 2*x1*th2*xi2 + 2*x1*th1*th2", "x2",
        "th1 + x1*th1*xi2*th2 + x1*xi2", "th2 + xi1*th2*xi2 + 2*x1*xi1"]])
    term = SuperExpr.symbol(table, "x1")
    for _ in range(table.odd_weight):
        term = fmap.pullback(term) - term
    assert table.odd_weight == 4 and not term.is_zero
    invert_map(fmap)


def test_composite_needs_body_inverse_only_when_read(c2):
    scaled = SuperMap(c2, c2, [e(c2, t) for t in
                               ["2*x1", "x2", "(1 + x1)*th1", "th2"]])
    shift = special_map(c2, [e(c2, "b1"), SuperExpr.zero(c2.table)])
    composite = shift.compose(scaled)
    assert composite.targets[2] == e(c2, "(1 + x1)*th1 + b1")
    with pytest.raises(CanonicityError, match="body inverse unavailable"):
        composite.inverse.targets


def test_decompose_point_after_flow(c2):
    # the point factor's body inverse is read off the composite's inverse
    rng = random.Random(19)
    f_p = random_point_map(rng, c2)
    assert f_p.body_map() != [Scalar.symbol(c2.table, x) for x in c2.xs]
    f_adj = exp_flow(random_flow_hamiltonian(rng, c2), c2, 1)
    fmap = f_p.compose(f_adj)
    gs, gp, gadj = decompose_canonical_map(fmap)
    assert gs.compose(gp.compose(gadj)).targets == fmap.targets
    assert gs.targets == SuperMap.identity(c2).targets
    assert list(gp.targets) == list(f_p.targets)
    assert list(gadj.targets) == list(f_adj.targets)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_mat_inv_scalar_and_even_entries(c2, size):
    rng = random.Random(size)
    table = c2.table
    unit = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(3):
        body = [[random_scalar(rng, table, coeff_degree=1, names=c2.xs,
                               rational=True) for _ in range(size)]
                for _ in range(size)]
        if mat_det(body).is_zero:
            continue
        inv, det_inv = mat_inv(body, scalar_reciprocal)
        assert det_inv * mat_det(body) == Scalar.from_int(table, 1)
        assert mat_mul(body, inv) == [
            [Scalar.from_int(table, u) for u in row] for row in unit]
        even = [[SuperExpr.from_scalar(c) + random_expr(
            rng, table, min_theta=2, aux=True).even_part()
            for c in row] for row in body]
        inv, det_inv = mat_inv(even, SuperExpr.invert_even)
        assert det_inv * mat_det(even) == SuperExpr.one(table)
        assert mat_mul(even, inv) == [
            [SuperExpr.constant(table, u) for u in row] for row in unit]


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_mat_det_is_multiplicative(c2, size):
    rng = random.Random(100 + size)
    table = c2.table

    def scalars():
        return [[random_scalar(rng, table, coeff_degree=1, names=c2.xs)
                 for _ in range(size)] for _ in range(size)]

    def even(matrix):
        return [[SuperExpr.from_scalar(c) + random_expr(
            rng, table, min_theta=2, aux=True).even_part() for c in row]
            for row in matrix]

    a, b = scalars(), scalars()
    assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)
    a, b = even(a), even(b)
    assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def test_mat_inv_singular_scalar_matrix(c2):
    x1, x2 = (Scalar.symbol(c2.table, x) for x in c2.xs)
    with pytest.raises(ScalarError, match="singular matrix"):
        mat_inv([[x1, x2], [x1 * 2, x2 * 2]], scalar_reciprocal)


def test_invert_map_peels_body_and_theta_linear_part(c2, monkeypatch):
    # no inverse recipe, a body that is not the identity and a theta-linear
    # part that is not either and depends on the moved x1: both are peeled
    # off in closed form
    rng = random.Random(76)
    messy = random_messy_map(rng, c2)
    point = random_point_map(rng, c2)
    composite = point.compose(messy)
    stripped = SuperMap(c2, c2, composite.targets,
                        body_inverse=_inverse_body(composite))
    peels = _count_peels(monkeypatch)
    table = c2.table
    assert stripped.body_map() != [Scalar.symbol(table, x) for x in c2.xs]
    theta_linear_part = [[t.coefficient([th]) for t in stripped.targets[2:]]
                         for th in c2.thetas]
    assert theta_linear_part != [[Scalar.from_int(table, int(i == j))
                                  for j in range(2)] for i in range(2)]
    assert any(c.depends_on("x1") for row in theta_linear_part for c in row)
    assert peels == []
    inv = invert_map(stripped)
    # one peel, on the first of two reads
    assert stripped.inverse.targets == inv.targets
    assert len(peels) == 1 and peels[0] is stripped
    coords = [SuperExpr.symbol(table, n) for n in c2.coordinate_names]
    assert list(stripped.compose(inv).targets) == coords
    assert list(inv.compose(stripped).targets) == coords
    # the inverse is unique: F^-1 = messy^-1 o point^-1
    want = invert_map(messy).compose(invert_map(point))
    assert list(inv.targets) == list(want.targets)


def test_invert_map_error_paths(c2):
    def inverse_of(texts, body_inverse=None):
        fmap = SuperMap(c2, c2, [e(c2, t) for t in texts],
                        body_inverse=body_inverse)
        return invert_map(fmap)

    scaled = ["2*x1", "x2", "(1 + x1)*th1", "th2"]
    with pytest.raises(CanonicityError, match="body inverse unavailable"):
        inverse_of(scaled)
    wrong = [Scalar.symbol(c2.table, x) for x in c2.xs]
    with pytest.raises(CanonicityError,
                       match="body inverse does not invert the body"):
        inverse_of(scaled, body_inverse=wrong)
    with pytest.raises(CanonicityError,
                       match="theta-linear part is singular"):
        inverse_of(["x1", "x2", "th1 + th2 + b1", "x1*th1 + x1*th2"])
    right = [e(c2, "1/2*x1").body(), Scalar.symbol(c2.table, "x2")]
    # theta_1 -> theta_1 / (1 + x1) taken at the inverse body x1 / 2
    assert inverse_of(scaled, body_inverse=right).targets[2] == \
        e(c2, "2*th1/(2 + x1)")


def _structure(chart, texts):
    return OddSymplecticStructure(
        chart, [[e(chart, t) for t in row] for row in texts])


def test_structure_rejects_wrong_parity():
    chart = make_chart(1)
    with pytest.raises(ValueError, match=r"entry \(0,0\) has wrong parity"):
        _structure(chart, [["x1", "1"], ["-1", "0"]])
    with pytest.raises(ValueError, match=r"entry \(0,1\) has wrong parity"):
        _structure(chart, [["0", "th1"], ["th1", "0"]])


def test_structure_rejects_broken_antisymmetry():
    chart = make_chart(1)
    with pytest.raises(ValueError,
                       match=r"graded antisymmetry fails at \(0,1\)"):
        _structure(chart, [["0", "1 + x1"], ["-1", "0"]])
    with pytest.raises(ValueError,
                       match=r"graded antisymmetry fails at \(1,1\)"):
        # {th,th} is antisymmetric, so its diagonal vanishes
        _structure(chart, [["0", "1"], ["-1", "b1"]])


def test_structure_rejects_degenerate_body(c2):
    degenerate = [["0", "0", "1", "1"], ["0", "0", "1", "1"],
                  ["-1", "-1", "0", "0"], ["-1", "-1", "0", "0"]]
    with pytest.raises(ValueError, match="structure body is degenerate"):
        _structure(c2, degenerate)
    # a nilpotent {x,th} entry has no body either
    nilpotent = [["0", "b1*x1", "b1*b2", "0"], ["b1*x1", "0", "0", "1"],
                 ["-b1*b2", "0", "0", "0"], ["0", "-1", "0", "0"]]
    with pytest.raises(ValueError, match="structure body is degenerate"):
        _structure(c2, nilpotent)
    # the same odd {x,x} entries with an invertible block are accepted
    nilpotent[0][2], nilpotent[2][0] = "1 + b1*b2", "-1 - b1*b2"
    _structure(c2, nilpotent)


def _reference_bracket(f, g, omega):
    """sum_{A,B} left[A] * Omega^{AB} * right[B] as a plain triple sum."""
    chart = omega.chart
    n = chart.n
    names = chart.coordinate_names
    p_f = 1 if f.parity() is Parity.ODD else 0
    total = SuperExpr.zero(chart.table)
    for a in range(2 * n):
        left = f.diff(names[a])
        if ((p_f + 1) * (a >= n)) % 2:
            left = -left
        for b in range(2 * n):
            total = total + left * omega.matrix[a][b] * g.diff(names[b])
    return total


# at n = 2 and 3 the pushed structures carry odd {x,x} entries, off the
# x-theta blocks
@pytest.mark.parametrize("n, seed, off_block", [(1, 3, False), (2, 11, True),
                                                (3, 17, True)])
def test_general_structure_brackets_match_triple_sum(n, seed, off_block):
    chart = make_chart(n)
    rng = random.Random(seed)
    omega, fmap = pushforward_structure(rng, chart)
    assert not omega.is_canonical_matrix
    assert off_block is any(omega.matrix[a][b] for a in range(2 * n)
                            for b in range(2 * n) if (a < n) == (b < n))

    def homogeneous():
        even = rng.choice([True, False])  # drawn before the expression
        f = random_expr(rng, chart.table, theta_degree=2, coeff_degree=1,
                        aux=True)
        return f.even_part() if even else f.odd_part()

    exprs = [homogeneous() for _ in range(3)] + list(fmap.targets)
    matrix = bracket_matrix(exprs, chart, omega)
    for i, f in enumerate(exprs):
        for j, g in enumerate(exprs):
            want = _reference_bracket(f, g, omega)
            assert matrix[i][j] == want
            assert bracket(f, g, chart, omega) == want
    # the inverse of the pushing map is canonical from omega; the map
    # itself is not, and its residuals are the brackets minus the target
    names = chart.coordinate_names
    for g in (invert_map(fmap), fmap):
        report = is_canonical(g, omega)
        for a in range(2 * n):
            for b in range(a, 2 * n):
                want = _reference_bracket(g.targets[a], g.targets[b], omega)
                if a < n and b == n + a:
                    want = want - SuperExpr.one(chart.table)
                assert report.residuals[(names[a], names[b])] == want
        assert report.ok is (g is not fmap)


def test_structure_on_another_chart_is_refused(c2):
    # a structure on an n=2 chart with an n=1 chart, and two n=1 charts on
    # tables of their own: every bracket entry point refuses the pair
    chart = make_chart(1)
    f, g = e(chart, "x1*th1"), e(chart, "th1")
    fmap = SuperMap.identity(chart)
    for other in (c2, make_chart(1)):
        omega = OddSymplecticStructure.canonical(other)
        calls = [lambda: bracket(f, g, chart, omega),
                 lambda: bracket_matrix([f, g], chart, omega),
                 lambda: hamiltonian_field(f, chart, omega),
                 lambda: is_canonical(fmap, omega),
                 lambda: jacobi_residual(f, g, g, chart, omega)]
        for call in calls:
            with pytest.raises(SymbolError, match="another chart"):
                call()
    # an equal chart is the same chart
    same = Chart(c2.table, c2.xs, c2.thetas)
    omega = OddSymplecticStructure.canonical(c2)
    assert bracket(e(c2, "x1"), e(c2, "th1"), same, omega) == e(c2, "1")


def test_structure_is_contracted_in_one_place(c2, monkeypatch):
    calls = []
    field = symplectic.hamiltonian_field

    def counted(f, chart, omega=None):
        calls.append(f)
        return field(f, chart, omega)

    monkeypatch.setattr(symplectic, "hamiltonian_field", counted)
    rng = random.Random(23)
    omega, fmap = pushforward_structure(rng, c2)
    es = [e(c2, "x1*th1 + th2"), e(c2, "x2*th1*th2"), e(c2, "th1")]
    for structure in (None, omega):
        del calls[:]
        bracket(es[0], es[1], c2, structure)
        assert calls == [es[0]]
        del calls[:]
        bracket_matrix(es, c2, structure)
        assert calls == es
        del calls[:]
        is_canonical(fmap, structure)
        assert calls == list(fmap.targets)
        assert len(calls) == 2 * c2.n


def test_canonical_matrix_is_recognised(c2):
    texts = [["0", "0", "1", "0"], ["0", "0", "0", "1"],
             ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]]
    assert _structure(c2, texts).is_canonical_matrix
    # {x1, x1} = b1 is odd and graded symmetric, so the structure is valid
    texts[0][0] = "b1"
    assert not _structure(c2, texts).is_canonical_matrix


def test_only_a_general_structure_builds_signed_columns(c2):
    texts = [["0", "0", "1", "0"], ["0", "0", "0", "1"],
             ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]]
    canonical = _structure(c2, texts)
    texts[0][0] = "b1"
    general = _structure(c2, texts)
    assert canonical.signed_columns is None
    assert len(general.signed_columns) == 2 * c2.n
    rng = random.Random(29)
    for _ in range(8):
        f, g = (random_expr(rng, c2.table, theta_degree=2, coeff_degree=1,
                            aux=True) for _ in range(2))
        for f, g in ((f.odd_part(), g.even_part()),
                     (f.even_part(), g.odd_part())):
            for omega in (canonical, general):
                assert bracket(f, g, c2, omega) == \
                    _reference_bracket(f, g, omega)


# -- the two Berezinian formulas ------------------------------------------------


def _blocks(matrix, n):
    return ([row[:n] for row in matrix[:n]], [row[n:] for row in matrix[:n]],
            [row[:n] for row in matrix[n:]], [row[n:] for row in matrix[n:]])


def _ber_by_odd_block(matrix, n):
    """det(A - B D^-1 C) det(D)^-1."""
    a, b, c, d = _blocks(matrix, n)
    d_inv, det_d_inv = mat_inv(d, SuperExpr.invert_even)
    bdc = mat_mul(mat_mul(b, d_inv), c)
    return mat_det([[a[i][j] - bdc[i][j] for j in range(n)]
                    for i in range(n)]) * det_d_inv


def _ber_by_even_block(matrix, n):
    """det A det(D - C A^-1 B)^-1."""
    a, b, c, d = _blocks(matrix, n)
    a_inv, _ = mat_inv(a, SuperExpr.invert_even)
    cab = mat_mul(mat_mul(c, a_inv), b)
    return mat_det(a) * mat_det([[d[i][j] - cab[i][j] for j in range(n)]
                                 for i in range(n)]).invert_even()


def _rational_odd_body_map(rng, chart, units=None):
    """x_i + (even, theta-degree >= 1) and th_i u_i + (odd, theta-degree
    >= 2), all with rational coefficients: the Jacobian's even-even block
    has body 1 and its odd-odd block body diag(u), each u_i a polynomial
    over 2 + x_j^2 unless ``units`` gives them."""
    table = chart.table
    if units is None:
        units = [random_scalar(rng, table, names=chart.xs, allow_zero=False)
                 / (2 + Scalar.symbol(table, rng.choice(chart.xs)) ** 2)
                 for _ in chart.thetas]
    targets = [SuperExpr.symbol(table, x) + random_expr(
        rng, table, rational=True, aux=True, min_theta=1).even_part()
        for x in chart.xs]
    targets += [SuperExpr.symbol(table, th) * SuperExpr.from_scalar(u)
                + random_expr(rng, table, rational=True, aux=True,
                              min_theta=2).odd_part()
                for th, u in zip(chart.thetas, units)]
    return SuperMap(chart, chart, targets)


@given(st.integers(min_value=0, max_value=2 ** 32), st.booleans())
@settings(max_examples=25, deadline=None)
def test_berezinian_agrees_with_both_formulas(seed, canonical):
    # the maps of the CLI's rational manifests take the even-block route
    # (constant even-even body, rational odd-odd body); canonical maps
    # take the odd-block one; either equals both formulas
    rng = random.Random(seed)
    chart = make_chart(2)
    if canonical:
        fmap = random_canonical_map(rng, chart)
    else:
        fmap = _rational_odd_body_map(rng, chart)
        assume(not any(t.coefficient([th]).is_constant() for t, th in
                       zip(fmap.targets[2:], chart.thetas)))
    matrix = fmap.jacobian()
    a, _, _, d = _blocks(matrix, 2)
    even_route = symplectic._constant_invertible_body(a) \
        and not symplectic._constant_body(d)
    assert even_route is not canonical
    ber = symplectic.berezinian(matrix, 2)
    assert ber == _ber_by_odd_block(matrix, 2)
    assert ber == _ber_by_even_block(matrix, 2)


def test_singular_odd_block_raises_the_same_on_both_routes(c2, monkeypatch):
    table = c2.table
    zero = Scalar.from_int(table, 0)
    unit = (Scalar.symbol(table, "x1") + 1) / (Scalar.symbol(table, "x2")
                                               ** 2 + 2)
    fmap = _rational_odd_body_map(random.Random(5), c2, [zero, unit])
    matrix = fmap.jacobian()
    messages = []
    for route in (True, False):
        if not route:
            monkeypatch.setattr(symplectic, "_constant_invertible_body",
                                lambda block: False)
        with pytest.raises(ScalarError) as info:
            symplectic.berezinian(matrix, 2)
        messages.append(str(info.value))
    assert messages == ["odd-odd block has singular body"] * 2
