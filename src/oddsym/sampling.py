"""Seeded random generators for expressions, structures and maps.

The verification suites and the test corpus both draw from here, always
through an explicit random.Random so reports stay byte-reproducible.
"""

from __future__ import annotations

from .flows import exp_flow
from .scalars import Scalar
from .superexpr import SuperExpr
from .symplectic import (OddSymplecticStructure, SuperMap, point_map,
                         pushforward_matrix, special_map, theta_linear)


def random_scalar(rng, table, coeff_degree=2, names=None, rational=False,
                  allow_zero=True):
    names = list(names if names is not None else table.even_symbols)
    ring = table.field.ring
    terms = {}  # exponent tuple -> summed coefficient
    for _ in range(rng.randint(0 if allow_zero else 1, 3)):
        coeff = rng.randint(-4, 4)
        if coeff == 0:
            continue
        mono = [0] * ring.ngens
        for _ in range(rng.randint(0, coeff_degree)):
            if names:
                mono[table.even_index(rng.choice(names))] += 1
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + coeff
    out = Scalar.from_poly(table, {m: c for m, c in terms.items() if c})
    if rational and names and rng.random() < 0.4:
        den = Scalar.from_int(table, rng.choice([2, 3])) + \
            Scalar.symbol(table, rng.choice(names)) ** 2
        out = out / den
    return out


def random_expr(rng, table, theta_degree=2, coeff_degree=2, aux=False,
                rational=False, min_theta=0, even_names=None):
    """Random SuperExpr at desk scale; deterministic under the given rng."""
    thetas = list(table.coordinate_odds)
    raw = []
    for _ in range(rng.randint(1, 4)):
        c = random_scalar(rng, table, coeff_degree, names=even_names,
                          rational=rational, allow_zero=False)
        if c.is_zero:
            continue
        k_theta = rng.randint(min_theta, theta_degree)
        monomial = rng.sample(thetas, min(k_theta, len(thetas)))
        if aux and table.aux_odds and rng.random() < 0.5:
            monomial += rng.sample(list(table.aux_odds),
                                   rng.randint(0, len(table.aux_odds)))
        raw.append((c, monomial))
    return SuperExpr.from_raw_terms(table, raw)


def random_homogeneous(rng, table, parity, **kw):
    out = random_expr(rng, table, **kw)
    return out.even_part() if parity == 0 else out.odd_part()


# -- canonical map generators ---------------------------------------------------


def random_special_map(rng, chart):
    """Gradient shift theta -> theta + dPhi with odd-constant coefficients."""
    table = chart.table
    if not table.aux_odds:
        raise ValueError("special maps need aux odd constants")
    raw = []
    for _ in range(rng.randint(1, 2)):
        c = random_scalar(rng, table, coeff_degree=2, names=chart.xs,
                          allow_zero=False)
        raw.append((c, [rng.choice(list(table.aux_odds))]))
    phi = SuperExpr.from_raw_terms(table, raw)
    return special_map(chart, [phi.diff(x) for x in chart.xs])


def random_point_map(rng, chart):
    """Unipotent triangular polynomial base change (polynomial inverse)."""
    table = chart.table
    body = []
    for i in range(chart.n):
        expr = Scalar.symbol(table, chart.xs[i])
        later = list(chart.xs[i + 1:])
        if later and rng.random() < 0.9:
            term = Scalar.from_int(table, rng.choice([-2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 2)):
                term = term * Scalar.symbol(table, rng.choice(later))
            expr = expr + term
        body.append(expr)
    inverse = _invert_triangular_body(chart, body)
    return point_map(chart, body, inverse)


def _invert_triangular_body(chart, body):
    table = chart.table
    n = chart.n
    inverse = [None] * n
    # back-substitute: the last component is the identity on x_n
    for i in range(n - 1, -1, -1):
        correction = body[i] - Scalar.symbol(table, chart.xs[i])
        images = {chart.xs[j]: inverse[j] for j in range(i + 1, n)}
        inverse[i] = Scalar.symbol(table, chart.xs[i]) - \
            correction.subs_even(images)
    return inverse


def random_flow_hamiltonian(rng, chart):
    """Odd generator with vanishing theta-linear part."""
    table = chart.table
    raw = []
    thetas = list(chart.thetas)
    for _ in range(rng.randint(1, 3)):
        c = random_scalar(rng, table, coeff_degree=2, names=chart.xs,
                          allow_zero=False)
        k = rng.choice([2, 3] if len(thetas) >= 3 else [2])
        k = min(k, len(thetas))
        names = rng.sample(thetas, k)
        # a zero term is even as well as odd, so it takes an aux factor too
        if (c.is_zero or k % 2 == 0) and table.aux_odds:
            names.append(rng.choice(list(table.aux_odds)))
        if len(names) % 2:
            raw.append((c, names))
    return SuperExpr.from_raw_terms(table, raw)


def random_flow_map(rng, chart):
    q = random_flow_hamiltonian(rng, chart)
    # a draw with one outcome, kept so the fixture stream of the shipped
    # reports stays the same
    return exp_flow(q, chart, rng.choice([1]))


def random_canonical_map(rng, chart):
    """Composition of invertible canonical atoms, inverses included."""
    atoms = (random_special_map, random_point_map, random_flow_map)
    first, *rest = rng.sample(atoms, rng.randint(1, len(atoms)))
    out = first(rng, chart)
    for make in rest:
        out = make(rng, chart).compose(out)
    return out


def random_messy_map(rng, chart):
    """Invertible but generally non-canonical coordinate change; its
    factors have no inverse recipe, so each is peeled when read."""
    table = chart.table
    n = chart.n
    # theta rescale by an invertible triangular scalar matrix
    mat = [[Scalar.from_int(table, 1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for i in range(n):
        if rng.random() < 0.7:
            mat[i][i] = Scalar.from_int(table, rng.choice([1, 2, 3]))
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                mat[i][j] = random_scalar(rng, table, coeff_degree=1,
                                          names=chart.xs)
    xs = [SuperExpr.symbol(table, x) for x in chart.xs]
    ths = [SuperExpr.symbol(table, th) for th in chart.thetas]
    targets = xs + [theta_linear(ths, mat, j) for j in range(n)]
    out = SuperMap(chart, chart, targets)
    # nilpotent shear of the even coordinates
    shear = list(xs)
    for i in range(n):
        if rng.random() < 0.8 and n >= 2:
            pair = rng.sample(list(chart.thetas), 2)
            c = random_scalar(rng, table, coeff_degree=1, names=chart.xs,
                              allow_zero=False)
            shear[i] = shear[i] + SuperExpr.from_raw_terms(table, [(c, pair)])
    sheared = SuperMap(chart, chart, shear + ths)
    out = sheared.compose(out)
    if rng.random() < 0.6:
        out = random_point_map(rng, chart).compose(out)
    return out


def pushforward_structure(rng, chart, fmap=None):
    """Push the canonical bracket through an invertible map.

    Returns the structure matrix expressed in the new coordinates; used to
    manufacture non-Darboux inputs whose normalization target is known.
    """
    if fmap is None:
        fmap = random_messy_map(rng, chart)
    rows = pushforward_matrix(fmap)
    return OddSymplecticStructure(chart, rows), fmap

