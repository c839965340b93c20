"""Delta operators on functions and semidensities, and their identities.

delta0 is the flat operator sum_i d^2/dx^i dth_i in a Darboux chart; with
a volume form rho D(x,th) the operator on functions becomes

    delta_vol f = delta0 f + (1/2) rho^{-1} {rho, f},

the log never being materialized because the bracket is a derivation in
its first slot.  On semidensities the chart expression of the intrinsic
odd operator is delta0 on the coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .scalars import Scalar
from .superexpr import (ParityError, SuperExpr, _accumulate, sum_of,
                        sum_of_products)
from .symbols import TIME_SYMBOL, Chart, Parity, SymbolError
from .symplectic import (Semidensity, SuperMap, bracket, ber_sqrt,
                         hamiltonian_field, map_berezinian)


@dataclass(frozen=True)
class VolumeForm:
    """rho(x,theta) D(x,theta) with invertible body."""

    density: SuperExpr
    chart: Chart

    def __post_init__(self):
        if not self.density.is_even():
            raise ParityError("volume density must be even")
        if self.density.body().is_zero:
            raise ValueError("volume density has vanishing body")

    @cached_property
    def inverse(self):
        """rho^-1, taken once per volume form."""
        return self.density.invert_even()

    @cached_property
    def root(self):
        """sqrt(rho), taken once per volume form."""
        return self.density.sqrt_even()

    @cached_property
    def delta0_root(self):
        """delta0 sqrt(rho), taken once per volume form."""
        return delta0(self.root, self.chart)

    @cached_property
    def nu(self):
        """The odd nu with delta^2 f = {nu, f}: here
        sqrt(rho)^-1 delta0 sqrt(rho), taken once per volume form."""
        return self.root.invert_even() * self.delta0_root


def delta0(f, chart: Chart):
    """sum_i d/dx^i of the left derivative d/dth_i of f, in one pass over
    the terms of f: a term c th_K with th_i at position pos of K adds
    (-1)^pos dc/dx^i at K without th_i.  No derivative of f is built."""
    table = chart.table
    if f.table is not table:
        raise SymbolError("mixed symbol tables")
    x_of = {table.odd_index(th): x for x, th in zip(chart.xs, chart.thetas)}
    out = {}
    for key, c in f.terms.items():
        for pos, idx in enumerate(key):
            x = x_of.get(idx)
            if x is not None:
                d = c.diff(x)
                if not d.is_zero:
                    _accumulate(out, key[:pos] + key[pos + 1:], d,
                                -1 if pos % 2 else 1)
    return SuperExpr(table, out)


def _half(table):
    return Scalar.from_fraction(table, Fraction(1, 2))


def delta_vol(f, dv: VolumeForm):
    """delta0 f + (1/2) rho^{-1} {rho, f}."""
    chart = dv.chart
    corr = dv.inverse * bracket(dv.density, f, chart)
    return delta0(f, chart) + _half(chart.table) * corr


def divergence_delta(f, dv: VolumeForm):
    """The same operator computed as half the signed divergence of the
    Hamiltonian field of f.

    Sign table pinned by exact agreement with delta_vol: the A-th term of
    the divergence carries (-1)^(p(f) p(z^A)) in front of d_A {f, z^A},
    and the density term {f, z^A} rho^{-1} d_A rho carries no extra sign.
    """
    chart = dv.chart
    table = chart.table
    names = chart.coordinate_names
    log_grad = [dv.inverse * dv.density.diff(name) for name in names]
    pieces, pairs = [], []
    for part, p_odd in ((f.even_part(), False), (f.odd_part(), True)):
        if part.is_zero:
            continue
        for a, comp in enumerate(hamiltonian_field(part, chart)):
            piece = comp.diff(names[a])
            # the odd part's terms are negated, its theta terms twice
            pieces.append(-piece if p_odd and a < chart.n else piece)
            pairs.append((-comp if p_odd else comp, log_grad[a]))
    return _half(table) * (sum_of(table, pieces) +
                           sum_of_products(table, pairs))


def delta_sharp(s: Semidensity):
    """Coefficient-wise delta0; parity of the result is flipped."""
    return Semidensity(delta0(s.coefficient, s.chart), s.chart)


def infinitesimal_action(q, s: Semidensity):
    """Anticommutator action Q * (delta s) + delta(Q * s) of an odd q."""
    if not q.is_odd():
        raise ParityError("generator must be odd")
    chart = s.chart
    return Semidensity(q * delta0(s.coefficient, chart)
                       + delta0(q * s.coefficient, chart), chart)


def _is_odd(name, f):
    """Whether f is odd and nonzero; f must be homogeneous."""
    if f.parity() is Parity.MIXED:
        raise ParityError(f"{name} must be homogeneous")
    return f.is_odd() and not f.is_zero


def bracket_leibniz(f, g, dv: VolumeForm, df=None, dg=None):
    """delta{f,g} - {delta f, g} + (-1)^p(f) {f, delta g}; df and dg, when
    given, are delta f and delta g."""
    odd = _is_odd("f", f)
    _is_odd("g", g)
    chart = dv.chart
    df = delta_vol(f, dv) if df is None else df
    dg = delta_vol(g, dv) if dg is None else dg
    lhs = delta_vol(bracket(f, g, chart), dv)
    rhs = bracket(df, g, chart)
    second = bracket(f, dg, chart)
    return lhs - (rhs + second if odd else rhs - second)


def product_leibniz(f, g, dv: VolumeForm, df=None, dg=None):
    """delta(fg) - (delta f) g - (-1)^p(f) (f delta g + {f,g}); df and dg
    as in bracket_leibniz."""
    odd = _is_odd("f", f)
    _is_odd("g", g)
    df = delta_vol(f, dv) if df is None else df
    dg = delta_vol(g, dv) if dg is None else dg
    lhs = delta_vol(f * g, dv)
    rhs = df * g
    tail = f * dg + bracket(f, g, dv.chart)
    return lhs - (rhs - tail if odd else rhs + tail)


def module_rule(f, dv: VolumeForm):
    """delta0(f s) - (delta f) s - (-1)^p(f) f delta0 s, s = sqrt(rho)."""
    odd = _is_odd("f", f)
    s = dv.root
    lhs = delta0(f * s, dv.chart)
    rhs = delta_vol(f, dv) * s
    tail = f * dv.delta0_root
    return lhs - (rhs - tail if odd else rhs + tail)


def square_formula(f, dv: VolumeForm):
    """delta^2 f - {nu, f}, nu = s^-1 delta0 s, s = sqrt(rho)."""
    _is_odd("f", f)
    return delta_vol(delta_vol(f, dv), dv) - bracket(dv.nu, f, dv.chart)


def chart_change(fmap: SuperMap, fs):
    """For each f in fs, the flat operators of the two Darboux charts of
    fmap compared through the Berezinian correction:

        delta0(F*f) - F*(delta0 f) + (1/2) Ber^-1 {Ber, F*f}.

    The map's kept pull-back takes the fs in one batch and their delta0
    images in another, and the Berezinian and its inverse are taken once
    for all of them.
    """
    for f in fs:
        _is_odd("f", f)
    source = fmap.source
    pull = fmap.pullback
    ber = map_berezinian(fmap)
    half_ber_inv = _half(source.table) * ber.invert_even()
    return [delta0(pulled, source) - pulled_delta
            + half_ber_inv * bracket(ber, pulled, source)
            for pulled, pulled_delta in zip(
                pull.many(fs),
                pull.many([delta0(f, fmap.target) for f in fs]))]


def bv_identity_residuals(f, g, dv: VolumeForm, fmap: SuperMap = None):
    """Every identity residual above for one f, g (and map) by name, with
    delta0_squared and ber_root_closed, the statement that the
    Berezinian root of a canonical map is annihilated by delta0.
    """
    chart = dv.chart
    out = {"bracket_leibniz": bracket_leibniz(f, g, dv),
           "product_leibniz": product_leibniz(f, g, dv),
           "module_rule": module_rule(f, dv),
           "square_formula": square_formula(f, dv),
           "delta0_squared": delta0(delta0(f, chart), chart)}
    if fmap is not None:
        [out["chart_change"]] = chart_change(fmap, [f])
        out["ber_root_closed"] = delta0(ber_sqrt(fmap), fmap.source)
    return out


def top_coefficient(s: Semidensity):
    """Signed coefficient of th_1...th_n, no constancy requirement."""
    return s.coefficient.coefficient(s.chart.thetas)


def c_invariant(s: Semidensity):
    """|c| for the top term c th_1...th_n; needs a constant top part."""
    chart = s.chart
    raw = top_coefficient(s)
    top = s.coefficient.homogeneous_part(chart.n)
    expected = SuperExpr.from_scalar(raw)
    for th in chart.thetas:
        expected = expected * SuperExpr.symbol(chart.table, th)
    if top != expected or not raw.is_constant():
        raise ValueError("top term is not a constant multiple of the "
                         "full theta monomial")
    return Scalar.from_fraction(chart.table, abs(raw.as_fraction()))


def classify_nu(s: Semidensity):
    """The odd constant nu with delta s = nu s, or None.

    nu is sought in the span of the aux odd generators with rational
    constant coefficients, the only odd constants this model has.
    """
    if not s.coefficient.is_even():
        raise ParityError("eigen-semidensity classification needs even s")
    if s.coefficient.body().is_zero:
        raise ValueError("degenerate semidensity")
    chart = s.chart
    table = chart.table
    ratio = s.coefficient.invert_even() * delta0(s.coefficient, chart)
    if ratio.is_zero:
        return SuperExpr.zero(table)
    for key, coeff in ratio.terms.items():
        if len(key) != 1 or not table.is_aux_index(key[0]) \
                or not coeff.is_constant():
            return None
    if delta0(s.coefficient, chart) != ratio * s.coefficient:
        return None
    return ratio


def moser_hamiltonian(s: Semidensity, r: Semidensity):
    """-r / (s + t delta r) as a polynomial in the formal time symbol.

    The denominator body is theta-free, so the nilpotent inversion is a
    finite t-polynomial; by construction Q(t) (s + t delta r) = -r.
    """
    chart = s.chart
    table = chart.table
    if not s.coefficient.is_even():
        raise ParityError("the transported semidensity must be even")
    if s.coefficient.body().is_zero:
        raise ValueError("degenerate semidensity")
    if not r.coefficient.is_odd():
        raise ParityError("the deformation direction must be odd")
    t = SuperExpr.symbol(table, TIME_SYMBOL)
    denom = s.coefficient + t * delta0(r.coefficient, chart)
    return -(r.coefficient * denom.invert_even())
