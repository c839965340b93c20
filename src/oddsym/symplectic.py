"""Odd Poisson brackets, canonical maps, Berezinians, semidensities.

The canonical bracket on a chart (x1..xn, th1..thn) is

    {f,g} = sum_i  df/dx^i dg/dth_i + (-1)^p(f) df/dth_i dg/dx^i

with left odd derivatives throughout.  A general structure is carried as
the full matrix of coordinate brackets and fed through the same sign
conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .grammar import render_expr
from .scalars import EvenImages, Scalar, ScalarError
from .superexpr import (ParityError, Pullback, SuperExpr, nilpotent_series,
                        sum_of, sum_of_products)
from .symbols import Chart, Parity, SymbolError


class CanonicityError(ValueError):
    pass


# -- matrices of even SuperExprs ------------------------------------------------


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[_dot(a[i], [b[k][j] for k in range(inner)])
             for j in range(cols)] for i in range(rows)]


def _dot(row, col):
    """sum_k row[k] * col[k], for SuperExpr or Scalar entries."""
    if isinstance(row[0], SuperExpr):
        return sum_of_products(row[0].table, zip(row, col))
    out = row[0] * col[0]
    for x, y in zip(row[1:], col[1:]):
        out = out + x * y
    return out


def mat_det(a):
    """Determinant of a square matrix of commuting (even) entries, by
    cofactor expansion along the first row; zero entries are skipped."""
    if not a:
        raise ValueError("empty matrix")
    if len(a) == 1:
        return a[0][0]
    cols = [j for j, entry in enumerate(a[0]) if not entry.is_zero]
    if not cols:
        # a first row of zeros: its first entry is the zero determinant
        return a[0][0]
    return _dot([a[0][j] for j in cols], [_cofactor(a, 0, j) for j in cols])


def _minor(a, i, j):
    """``a`` without row i and column j."""
    return [row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i]


def _cofactor(a, i, j):
    minor = mat_det(_minor(a, i, j))
    return -minor if (i + j) % 2 else minor


def mat_inv(a, reciprocal):
    """Adjugate inverse of a square matrix of commuting entries.

    ``reciprocal`` inverts the determinant: ``SuperExpr.invert_even`` for
    even SuperExpr entries, ``scalar_reciprocal`` for Scalar entries.  The
    determinant is read off the first row of cofactors.  Returns the
    inverse and 1/det.
    """
    inverse, _, det_inv = _inverse(a, reciprocal)
    return inverse, det_inv


def _inverse(a, reciprocal):
    """``mat_inv``'s inverse, det and 1/det."""
    size = len(a)
    if size <= 1:
        det = mat_det(a)
        det_inv = reciprocal(det)
        return [[det_inv]], det, det_inv
    cof = [[_cofactor(a, i, j) for j in range(size)] for i in range(size)]
    det = _dot(a[0], cof[0])
    det_inv = reciprocal(det)
    return [[cof[i][j] * det_inv for i in range(size)]
            for j in range(size)], det, det_inv


def scalar_reciprocal(det):
    if det.is_zero:
        raise ScalarError("singular matrix")
    return 1 / det


def theta_linear(thetas, matrix, j):
    """sum_m thetas[m] * matrix[m][j]: odd generators times column j of a
    matrix of even entries (SuperExpr or Scalar)."""
    column = [row[j] for row in matrix]
    if not isinstance(column[0], SuperExpr):
        column = [SuperExpr.from_scalar(c) for c in column]
    return sum_of_products(thetas[0].table, zip(thetas, column))


def theta_rescale_integral(entry, weight, table):
    """int_0^1 tau^weight entry(x, tau theta) dtau, exact on components:
    the theta-degree p part is divided by p + weight + 1."""
    return sum_of_products(table, (
        (SuperExpr.constant(table, Fraction(1, p + weight + 1)),
         entry.homogeneous_part(p)) for p in range(table.n_theta + 1)))


# -- structures ------------------------------------------------------------------


def _canonical_rows(table, n):
    """The canonical structure's rows over ``table``: Omega^{x_i th_i} = 1,
    Omega^{th_i x_i} = -1 and every other entry 0."""
    zero = SuperExpr.zero(table)
    one = SuperExpr.one(table)
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = one
        rows[n + i][i] = -one
    return tuple(tuple(row) for row in rows)


class OddSymplecticStructure:
    """Bracket matrix Omega^{AB} = {z^A, z^B} over a chart.

    Entry parities, graded antisymmetry and invertibility of the body are
    checked at construction, for every matrix but the canonical one.
    ``signed_columns``, the columns of Omega' = Omega with its theta rows
    negated that ``hamiltonian_field`` dots with the signed left factors,
    are built then too; the canonical matrix needs none, and has None.
    """

    def __init__(self, chart: Chart, matrix):
        self.chart = chart
        self.matrix = tuple(tuple(row) for row in matrix)
        size = 2 * chart.n
        if len(self.matrix) != size or any(len(r) != size for r in self.matrix):
            raise ValueError("bracket matrix must be 2n x 2n")
        self.is_canonical_matrix = \
            self.matrix == _canonical_rows(chart.table, chart.n)
        self.signed_columns = None
        if not self.is_canonical_matrix:
            self._validate()
            self.signed_columns = tuple(zip(*(
                row if a < chart.n else tuple(-entry for entry in row)
                for a, row in enumerate(self.matrix))))

    @classmethod
    def canonical(cls, chart: Chart):
        return cls(chart, _canonical_rows(chart.table, chart.n))

    def _validate(self):
        n = self.chart.n
        for a in range(2 * n):
            pa = 0 if a < n else 1
            for b in range(2 * n):
                pb = 0 if b < n else 1
                entry = self.matrix[a][b]
                want = Parity.ODD if (pa + pb + 1) % 2 else Parity.EVEN
                if entry and entry.parity() is not want:
                    raise ValueError(f"entry ({a},{b}) has wrong parity")
                # {zA,zB} = -(-1)^((pA+1)(pB+1)) {zB,zA}
                other = self.matrix[b][a]
                if entry != (other if (pa + 1) * (pb + 1) % 2 else -other):
                    raise ValueError(
                        f"graded antisymmetry fails at ({a},{b})")
        # the {x,x} and {th,th} entries are odd, so their body is zero and
        # the body of the whole matrix is degenerate exactly when the
        # body of the {x,th} block is
        body = [[self.matrix[a][n + b].body() for b in range(n)]
                for a in range(n)]
        if mat_det(body).is_zero:
            raise ValueError("structure body is degenerate")


def _coordinate_exprs(chart):
    table = chart.table
    return [SuperExpr.symbol(table, name) for name in chart.coordinate_names]


def hamiltonian_field(f, chart, omega=None):
    """Components {f, z^C} in coordinate order, the one place a bracket
    reads the structure; ``omega`` must be on ``chart``.

    {f, z^C} = sum_A left_A Omega'^{AC}, with left_A = (-1)^(p(f) p(z^A))
    df/dz^A on each homogeneous part (df/dx^i and the cached
    ``signed_diff`` by th_i) and Omega' = Omega with its theta rows
    negated: the two split the sign (-1)^((p(f) + 1) p(z^A)).  For the
    canonical structure {f, x_i} is the left factor by th_i and
    {f, th_i} = df/dx^i, so nothing is multiplied.
    """
    if omega is not None and omega.chart != chart:
        raise SymbolError("the structure is on another chart")
    left = [f.diff(x) for x in chart.xs] + \
        [f.signed_diff(th) for th in chart.thetas]
    if omega is None or omega.is_canonical_matrix:
        return left[chart.n:] + left[:chart.n]
    return [sum_of_products(chart.table, zip(left, column))
            for column in omega.signed_columns]


def bracket(f, g, chart, omega=None):
    """Odd Poisson bracket {f,g} = sum_C {f, z^C} dg/dz^C with left
    derivatives; f may have mixed parity."""
    return sum_of_products(chart.table, zip(
        hamiltonian_field(f, chart, omega),
        [g.diff(z) for z in chart.coordinate_names]))


def _fields_and_derivatives(exprs, chart, omega):
    """The Hamiltonian field and the derivative row of each expression:
    {e_A, e_B} is the dot product of fields[A] with derivatives[B]."""
    return ([hamiltonian_field(e, chart, omega) for e in exprs],
            [[e.diff(z) for z in chart.coordinate_names] for e in exprs])


def bracket_matrix(exprs, chart, omega=None):
    """The matrix {e_A, e_B} over every pair of the expressions.

    Each expression is differentiated once, and its field is taken once.
    Every entry is computed by the rule of ``bracket``, none is filled in
    by antisymmetry, so the symmetry checks on a structure built from the
    matrix still test it.
    """
    fields, rows = _fields_and_derivatives(exprs, chart, omega)
    return [[sum_of_products(chart.table, zip(field, row)) for row in rows]
            for field in fields]


def canonical_pairing(xcomps, ycomps, chart, y_odd):
    """Evaluate the canonical two-form on two coordinate vector fields.

    The evaluation convention is pinned by the identity
    Omega(D_f, D_g) = -{f, g}: the A-summand carries (-1)^(p(Y) p(z^A)).
    The lower-index canonical matrix is Omega_{x th} = -1, Omega_{th x} = 1.
    """
    n = chart.n
    right = [-y for y in ycomps[n:]] + \
        [-y if y_odd else y for y in ycomps[:n]]
    return sum_of_products(chart.table, zip(xcomps, right))


def jacobi_residual(f, g, h, chart, omega=None):
    """Cyclic Jacobi combination; identically zero for closed structures."""
    def par(u):
        p = u.parity()
        if p is Parity.MIXED:
            raise ParityError("jacobi residual needs homogeneous arguments")
        return 1 if p is Parity.ODD else 0

    pf, pg, ph = par(f), par(g), par(h)
    terms = [
        (f, g, h, (pf + 1) * (ph + 1)),
        (g, h, f, (pg + 1) * (pf + 1)),
        (h, f, g, (ph + 1) * (pg + 1)),
    ]
    pieces = []
    for a, b, c, exp in terms:
        piece = bracket(a, bracket(b, c, chart, omega), chart, omega)
        pieces.append(-piece if exp % 2 else piece)
    return sum_of(chart.table, pieces)


# -- supermaps --------------------------------------------------------------------


class SuperMap:
    """Coordinate transformation: target coordinates as source expressions.

    ``targets`` lists the images of the target chart's x's then thetas as
    functions of the source coordinates; their count and parities are
    checked at construction.  ``recipe`` optionally builds the inverse
    map's targets, a function of no arguments; ``body_inverse``
    optionally gives the inverse of the underlying even map as rational
    substitutions, which ``_peeled_inverse`` reads when there is no
    recipe and the body is not the identity.

    Three values derived from the map are built on first use and kept:
    ``inverse``, the inverse map, on the recipe's targets or else on
    targets peeled off the map's; ``pullback``, the ``Pullback`` of the
    map's bindings; and ``ber_root``, its ``ber_sqrt``.  Every pull-back
    along an inverse is its ``inverse.pullback``.  The inverse keeps no
    reference back to the map and has no recipe of its own; its
    ``body_inverse`` is the map's body, so it can be inverted in turn.
    """

    def __init__(self, source: Chart, target: Chart, targets,
                 recipe=None, body_inverse=None):
        self.source = source
        self.target = target
        self.targets = tuple(targets)
        self.body_inverse = body_inverse
        self._recipe = recipe
        self._validate()

    def _validate(self):
        n = self.target.n
        if len(self.targets) != 2 * n:
            raise ValueError("need one target expression per coordinate")
        for k, expr in enumerate(self.targets):
            want_odd = k >= n
            if expr.is_zero:
                continue
            if want_odd and not expr.is_odd():
                raise ParityError(f"target {k} must be odd")
            if not want_odd and not expr.is_even():
                raise ParityError(f"target {k} must be even")

    @cached_property
    def inverse(self):
        """The inverse map, taken unchecked (``invert_map`` is the checked
        route)."""
        return SuperMap(self.target, self.source,
                        self._recipe() if self._recipe
                        else _peeled_inverse(self),
                        body_inverse=self.body_map())

    @cached_property
    def pullback(self):
        """The pull-back along the map, set up once per map."""
        return Pullback(self.source.table, self.bindings())

    @cached_property
    def ber_root(self):
        """ber_sqrt of the map, taken once per map."""
        return ber_sqrt(self)

    # -- basic structure ---------------------------------------------------

    @classmethod
    def identity(cls, chart: Chart):
        exprs = _coordinate_exprs(chart)
        return cls(chart, chart, exprs, recipe=lambda: exprs)

    def is_identity(self):
        return list(self.targets) == _coordinate_exprs(self.source)

    def bindings(self):
        return dict(zip(self.target.coordinate_names, self.targets))

    def apply(self, expr):
        """Pull a function on the target chart back to the source chart."""
        return self.pullback(expr)

    def compose(self, other: "SuperMap"):
        """self after other: z -> self(other(z)).  The composite's recipe
        is other's inverse pulled back along self's: each factor's inverse
        is built by its own recipe or peeled off that factor alone, and
        self's inverse keeps its one pull-back for every composite."""
        return SuperMap(other.source, self.target,
                        other.pullback.many(self.targets), recipe=lambda:
                        self.inverse.pullback.many(other.inverse.targets))

    def body_map(self):
        """Scalar parts of the even targets."""
        return [t.body() for t in self.targets[:self.target.n]]

    def jacobian(self):
        """Left-derivative matrix, rows = targets, columns = source."""
        names = self.source.coordinate_names
        return [[t.diff(name) for name in names] for t in self.targets]

    def __eq__(self, other):
        if not isinstance(other, SuperMap):
            return NotImplemented
        return self.source == other.source and self.target == other.target \
            and list(self.targets) == list(other.targets)

    def __repr__(self):
        body = ", ".join(render_expr(t) for t in self.targets)
        return f"SuperMap({body})"


def berezinian(matrix, n):
    """Ber of a (n|n) block supermatrix [[A, B], [C, D]] of SuperExpr
    entries, A even-even and D odd-odd:

        Ber = det(A - B D^-1 C) det(D)^-1 = det A det(D - C A^-1 B)^-1.

    The second form is taken when every entry of A has a constant body,
    det(body A) is nonzero, and some entry of D has a nonconstant body:
    then A^-1 needs no rational-function reciprocal, and the one taken is
    of det(D - C A^-1 B), whose body is det(body D).  Otherwise the first
    form.  Either way a singular body of D raises the same ScalarError.
    """
    i00 = [row[:n] for row in matrix[:n]]
    i01 = [row[n:] for row in matrix[:n]]
    i10 = [row[:n] for row in matrix[n:]]
    i11 = [row[n:] for row in matrix[n:]]
    if _constant_invertible_body(i00) and not _constant_body(i11):
        inv00, det00, _ = _inverse(i00, SuperExpr.invert_even)
        return det00 * _block_reciprocal(
            mat_det(_complement(i11, i10, inv00, i01)))
    inv11, det11_inv = mat_inv(i11, _block_reciprocal)
    return mat_det(_complement(i00, i01, inv11, i10)) * det11_inv


def _complement(block, left, inverse, right):
    """block - left inverse right, the Schur complement."""
    corr = mat_mul(mat_mul(left, inverse), right)
    return [[x - y for x, y in zip(row, corr_row)]
            for row, corr_row in zip(block, corr)]


def _constant_body(block):
    return all(entry.body().is_constant() for row in block for entry in row)


def _constant_invertible_body(block):
    return _constant_body(block) and not mat_det(
        [[entry.body() for entry in row] for row in block]).is_zero


def _block_reciprocal(det):
    """1/det for det the determinant of the odd-odd block or of its
    Schur complement, whose bodies agree."""
    if det.body().is_zero:
        raise ScalarError("odd-odd block has singular body")
    return det.invert_even()


def map_berezinian(fmap: SuperMap):
    return berezinian(fmap.jacobian(), fmap.target.n)


def ber_sqrt(fmap: SuperMap):
    """Square root of the Berezinian of a canonical map.

    The body of the Berezinian must equal the square of the determinant of
    the underlying even Jacobian; the root keeps the positive-leading
    branch of that determinant.
    """
    ber = map_berezinian(fmap)
    body_jac = [[b.diff(x) for x in fmap.source.xs]
                for b in fmap.body_map()]
    detb = mat_det(body_jac)
    if ber.body() != detb * detb:
        raise CanonicityError(
            "Berezinian body is not the square of the even Jacobian "
            "determinant; the map cannot be canonical")
    return ber.sqrt_even(body_root=detb)


# -- canonical map constructors -----------------------------------------------


def special_map(chart: Chart, psis):
    """theta_i -> theta_i + Psi_i(x) with a closed odd-valued Psi."""
    table = chart.table
    psis = list(psis)
    if len(psis) != chart.n:
        raise ValueError("need one shift per theta")
    for psi in psis:
        if psi.is_zero:
            continue
        if not psi.is_odd():
            raise ParityError("shift components must be odd-valued")
        for key in psi.terms:
            if any(not table.is_aux_index(i) for i in key):
                raise ValueError("shift components must be functions of x "
                                 "with odd-constant coefficients")
    for i in range(chart.n):
        for j in range(i + 1, chart.n):
            closed = psis[j].diff(chart.xs[i]) - psis[i].diff(chart.xs[j])
            if not closed.is_zero:
                raise CanonicityError("shift one-form is not closed")
    return theta_shift(chart, psis)


def theta_shift(chart: Chart, shifts):
    """theta_j -> theta_j + A_j, with its inverse theta_j -> theta_j - A_j;
    no closedness check (``special_map`` makes the canonical one)."""
    table = chart.table
    xs = [SuperExpr.symbol(table, x) for x in chart.xs]
    ths = [SuperExpr.symbol(table, th) for th in chart.thetas]
    targets = xs + [th + a for th, a in zip(ths, shifts)]
    return SuperMap(chart, chart, targets, recipe=lambda: xs + [
        th - a for th, a in zip(ths, shifts)])


def point_map(chart: Chart, body, body_inverse):
    """Lift of an invertible base map: theta transforms by the inverse
    transposed Jacobian so that the canonical bracket is preserved."""
    table = chart.table
    body = [b if isinstance(b, Scalar) else Scalar.from_fraction(table, b)
            for b in body]
    body_inverse = [b if isinstance(b, Scalar)
                    else Scalar.from_fraction(table, b) for b in body_inverse]
    if len(body) != chart.n or len(body_inverse) != chart.n:
        raise ValueError("need n body components and n inverse components")
    _check_body_inverse(chart, body, body_inverse)
    ths = [SuperExpr.symbol(table, th) for th in chart.thetas]

    def lift(b_map):
        jac = [[b.diff(x) for x in chart.xs] for b in b_map]
        inv_jac, _ = mat_inv(jac, scalar_reciprocal)
        return [SuperExpr.from_scalar(b) for b in b_map] + \
            [theta_linear(ths, inv_jac, i) for i in range(chart.n)]

    return SuperMap(chart, chart, lift(body),
                    recipe=lambda: lift(body_inverse),
                    body_inverse=body_inverse)


def _check_body_inverse(chart, body, body_inverse):
    """Both compositions of the body map and its inverse are the identity."""
    table = chart.table
    forward = EvenImages(table, dict(zip(chart.xs, body)))
    backward = EvenImages(table, dict(zip(chart.xs, body_inverse)))
    if len(body_inverse) != chart.n or any(
            forward(g) != Scalar.symbol(table, x) or
            backward(f) != Scalar.symbol(table, x)
            for x, g, f in zip(chart.xs, body_inverse, body)):
        raise CanonicityError("body inverse does not invert the body")


def adjusted_map(chart: Chart, targets):
    """Wrap target expressions after checking the adjusted shape."""
    table = chart.table
    targets = list(targets)
    n = chart.n
    for i in range(n):
        fixed = targets[i].homogeneous_part(0)
        if fixed != SuperExpr.symbol(table, chart.xs[i]):
            raise CanonicityError("x targets must reduce to x at theta=0")
        if not targets[n + i].homogeneous_part(0).is_zero:
            raise CanonicityError("theta targets must vanish at theta=0")
    return SuperMap(chart, chart, targets)


# -- canonicity -----------------------------------------------------------------


@dataclass
class ResidualReport:
    residuals: dict

    @property
    def ok(self):
        return all(v.is_zero for v in self.residuals.values())

    def nonzero(self):
        return {k: v for k, v in self.residuals.items() if not v.is_zero}


def pushforward_matrix(fmap: SuperMap, omega=None):
    """Bracket matrix {F^A, F^B} of the new coordinates F, written in them
    by pulling back along the map's ``inverse`` in one batch, taken
    unchecked (``invert_map`` is the checked route)."""
    rows = bracket_matrix(fmap.targets, fmap.source, omega)
    size = len(rows)
    entries = fmap.inverse.pullback.many(
        [entry for row in rows for entry in row])
    return [entries[i:i + size] for i in range(0, len(entries), size)]


def is_canonical(fmap: SuperMap, omega=None):
    """Residuals of {F^A, F^B} = Omega_canonical^{AB} entry by entry, for
    A <= B; the canonical entries are constants, so they are compared on
    the source chart's table."""
    chart = fmap.source
    names = fmap.target.coordinate_names
    fields, rows = _fields_and_derivatives(fmap.targets, chart, omega)
    want = _canonical_rows(chart.table, fmap.target.n)
    residuals = {}
    for a, field in enumerate(fields):
        for b in range(a, len(rows)):
            lhs = sum_of_products(chart.table, zip(field, rows[b]))
            residuals[(names[a], names[b])] = lhs - want[a][b]
    return ResidualReport(residuals)


# -- inversion -------------------------------------------------------------------


def invert_map(fmap: SuperMap):
    """The map's ``inverse``, verified by composing it with the map both
    ways; the same object is returned on every call."""
    out = fmap.inverse
    coords = _coordinate_exprs(fmap.source)
    if list(fmap.compose(out).targets) != coords or \
            list(out.compose(fmap).targets) != coords:
        raise CanonicityError("inverse check by substitution failed")
    return out


def _peeled_inverse(fmap):
    """Inverse targets of a map with no recipe for them.

    The map is split as F = U o L, where L is its linear part: the body
    map x -> b(x) and theta_j -> sum_m theta_m M[m][j](x), with M[m][j]
    the coefficient of theta_m in the j-th theta target.  L^-1 is closed
    form, x -> b^-1(x) from ``body_inverse`` (not needed when b is the
    identity) and theta_j -> sum_m theta_m M^-1[m][j](b^-1(x)).  The rest
    U = F o L^-1 has exactly the identity for its body and theta-linear
    part, so U* - id replaces a coordinate factor of each term: an x by a
    nilpotent even term, two odd factors at least, and a theta by odd
    terms that are not a single theta.  Each replacement raises the odd
    weight, but one by a bare frame odd, which keeps it and fills one of
    the term's frame slots for good.  So U* - id is nilpotent, and on a
    table with no more frame odds than thetas and aux odds together
    (every table oddsym builds) its powers vanish past the table's odd
    weight.  The targets of U^-1 are the Neumann series
    (U*)^-1 z = sum_k (-1)^k (U* - id)^k z, one ``nilpotent_series``
    each, and F^-1 = L^-1 o U^-1.
    """
    chart = fmap.source
    table = chart.table
    n = chart.n
    coords = _coordinate_exprs(chart)
    linear = [[fmap.targets[n + j].coefficient([th]) for j in range(n)]
              for th in chart.thetas]
    linear_inv, _ = mat_inv(linear, _linear_reciprocal)
    body = fmap.body_map()
    body_inverse = [Scalar.symbol(table, x) for x in chart.xs]
    if body != body_inverse:
        if not fmap.body_inverse:
            raise CanonicityError("body inverse unavailable")
        body_inverse = list(fmap.body_inverse)
        _check_body_inverse(chart, body, body_inverse)
        back = EvenImages(table, dict(zip(chart.xs, body_inverse)))
        linear_inv = [[back(c) for c in row] for row in linear_inv]
    l_inv = SuperMap(chart, chart, [
        SuperExpr.from_scalar(b) for b in body_inverse] + [
        theta_linear(coords[n:], linear_inv, j) for j in range(n)])
    rest = fmap.compose(l_inv)
    u_inv = SuperMap(chart, chart, [nilpotent_series(
        z, lambda f: rest.pullback(f) - f, lambda k: -1 if k % 2 else 1)
        for z in coords])
    return l_inv.compose(u_inv).targets


def _linear_reciprocal(det):
    if det.is_zero:
        raise CanonicityError("theta-linear part is singular")
    return 1 / det


# -- the decomposition into special, point, adjusted ------------------------------


def decompose_canonical_map(fmap: SuperMap):
    """Split a canonical map as F = F_special o F_point o F_adjusted."""
    if not is_canonical(fmap).ok:
        raise CanonicityError("map is not canonical")
    chart = fmap.source
    table = chart.table
    n = chart.n
    psis_raw = [fmap.targets[n + i].homogeneous_part(0) for i in range(n)]
    body = fmap.body_map()
    for i in range(n):
        drift = fmap.targets[i].homogeneous_part(0) - \
            SuperExpr.from_scalar(body[i])
        if not drift.is_zero:
            raise CanonicityError(
                "even targets carry nilpotent theta-free drift; "
                "not in the supported decomposition class")
    body_is_id = all(b == Scalar.symbol(table, x)
                     for b, x in zip(body, chart.xs))
    if body_is_id:
        f_point = SuperMap.identity(chart)
    else:
        f_point = point_map(chart, body, fmap.inverse.body_map())
    psis = f_point.inverse.pullback.many(psis_raw)
    if all(psi.is_zero for psi in psis):
        f_special = SuperMap.identity(chart)
    else:
        f_special = special_map(chart, psis)
    middle = invert_map(f_special).compose(fmap)
    f_adj_targets = invert_map(f_point).compose(middle).targets
    f_adj = adjusted_map(chart, f_adj_targets)
    recomposed = f_special.compose(f_point.compose(f_adj))
    if list(recomposed.targets) != list(fmap.targets):
        raise CanonicityError("decomposition failed to recompose")
    return f_special, f_point, f_adj


# -- semidensities ------------------------------------------------------------------


@dataclass(frozen=True)
class Semidensity:
    """Coefficient of sqrt(D(x,theta)) on a chart."""

    coefficient: SuperExpr
    chart: Chart

    def parity(self):
        return self.coefficient.parity()

    def __repr__(self):
        return f"Semidensity({render_expr(self.coefficient)})"


def pullback_semidensity(fmap: SuperMap, s: Semidensity):
    """Coefficient -> (coefficient o F) * Ber^(1/2)(dF/dz), with the
    map's kept pull-back and Berezinian root."""
    coeff = fmap.pullback(s.coefficient) * fmap.ber_root
    return Semidensity(coeff, fmap.source)
