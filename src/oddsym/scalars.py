"""Exact rational-function coefficients over the integers.

A Scalar is a quotient of multivariate integer polynomials in the even
symbols of its table, kept in lowest terms with the denominator's leading
coefficient positive under graded-lex order.  Every operation returns that
canonical form, so equal Scalars have equal numerators and denominators.

The arithmetic takes one of two paths, chosen by the operands alone:

* polynomial-first: when every denominator involved is an integer (almost
  all coefficients are polynomials), the numerators are combined as
  polynomials over the common integer denominator and only the integer
  content is cancelled, with ``math.gcd``;
* field: otherwise the operands are combined as quotients of
  ``FracField`` elements, cancelling across before multiplying out
  (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1).  Both operands are already
  in lowest terms, so no factor can cancel except between a numerator and
  the other operand's denominator (a product), or between the sum and the
  gcd of the two denominators (a sum).  Those gcds are of the smaller
  factors, not of the whole product, and a gcd with a constant side takes
  only integers.

Most products in the identities have a constant side, and a
polynomial-first product with one multiplies no polynomials: by 1 it
returns the other operand's element, by any other c the other numerator
scaled by c over the product of the two integer denominators.  Elements
are shared between Scalars, so nothing may change one in place.

A gcd of two nonconstant polynomials p and q is routed by V, the set of
generators that occur in both.  Any common divisor lies in Z[V], and a
polynomial in Z[V] divides p exactly when it divides every coefficient of
p read as a polynomial in the other generators (coefficients in Z[V]).
So when V is empty the gcd is the integer gcd of all coefficients of p and
q; when V = {x_i} it is the gcd of those coefficients in Z[x_i], one
chain of dense univariate gcds (``dup_gcd``) that falls back to the
integer gcd as soon as it reaches degree 0, or, when p and q have one
coefficient each, one ``dup_inner_gcd`` that also gives both cofactors;
only when V has two or more generators does it take sympy's multivariate
``PolyElement.cofactors`` (heuristic gcd; Char, Geddes and Gonnet 1989).

Both paths give the canonical element that ``FracField`` itself would
give; the property tests compare them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd, dup_inner_gcd


class ScalarError(ArithmeticError):
    pass


# Scalar.from_int keeps the constants in this range, per symbol table.
_CACHED_INTS = range(-16, 17)


class Scalar:
    __slots__ = ("table", "f")

    def __init__(self, table, frac_element):
        self.table = table
        self.f = frac_element

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_int(cls, table, value):
        value = int(value)
        cached = table.int_scalars.get(value)
        if cached is not None:
            return cached
        field = table.field
        out = cls(table, _reduce(field, field.ring.ground_new(value), 1))
        if value in _CACHED_INTS:
            table.int_scalars[value] = out
        return out

    @classmethod
    def from_fraction(cls, table, value):
        value = Fraction(value)
        field = table.field
        num = field.ring.ground_new(value.numerator)
        return cls(table, _reduce(field, num, value.denominator))

    @classmethod
    def from_poly(cls, table, poly, den=1):
        """poly / den for a PolyElement of the table's ring and an int
        den > 0."""
        return cls(table, _reduce(table.field, poly, den))

    @classmethod
    def symbol(cls, table, name):
        field = table.field
        gen = field.gens[table.even_index(name)]
        return cls(table, field.raw_new(gen.numer, field.one.denom))

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.table is not self.table:
                raise ScalarError("mixed symbol tables")
            return other
        if isinstance(other, int):
            return Scalar.from_int(self.table, other)
        if isinstance(other, Fraction):
            return Scalar.from_fraction(self.table, other)
        return NotImplemented

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.table, _add(self.f, other.f))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.table, _add(self.f, other.f, subtract=True))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.table, _add(other.f, self.f, subtract=True))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.table, _mul(self.f, other.f))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.f:
            raise ScalarError("division by zero scalar")
        return Scalar(self.table, _div(self.f, other.f))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        f = self.f
        if exponent < 0:
            if not f:
                raise ScalarError("division by zero scalar")
            # FracElement's negative power can leave a negative denominator.
            f, exponent = _div(f.field.one, f), -exponent
        return Scalar(self.table, f ** exponent)

    def __neg__(self):
        return Scalar(self.table, -self.f)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        return self.table is other.table and self.f == other.f

    def __hash__(self):
        return hash(self.f)

    def __bool__(self):
        return bool(self.f)

    @property
    def is_zero(self):
        return not self.f

    # -- structure queries --------------------------------------------------

    @property
    def numer_terms(self):
        """[(exponent tuple, int coeff)] in graded-lex descending order."""
        return [(m, int(c)) for m, c in self.f.numer.terms()]

    @property
    def denom_terms(self):
        return [(m, int(c)) for m, c in self.f.denom.terms()]

    def is_constant(self):
        return self.f.numer.is_ground and self.f.denom.is_ground

    def as_fraction(self):
        if not self.is_constant():
            raise ScalarError("scalar is not a rational constant")
        num = int(self.f.numer.coeff(1)) if self.f.numer else 0
        den = int(self.f.denom.coeff(1))
        return Fraction(num, den)

    def depends_on(self, name):
        idx = self.table.even_index(name)
        return any(m[idx] for m, _ in self.f.numer.terms()) or \
            any(m[idx] for m, _ in self.f.denom.terms())

    # -- calculus ------------------------------------------------------------

    def diff(self, name):
        idx = self.table.even_index(name)
        f = self.f
        den = _ground(f.denom)
        if den is None:
            return Scalar(self.table, _diff_quotient(f, idx))
        return Scalar(self.table, _reduce(f.field, f.numer.diff(idx), den))

    def radial(self, names, k):
        """int_0^1 s^(k-1) c(s x) ds for a polynomial c, with x the even
        symbols ``names`` and k >= 1.

        A monomial of degree m in those symbols is divided by m + k; the
        quotients share one integer denominator.
        """
        den = _ground(self.f.denom)
        if den is None:
            raise ScalarError("radial integral needs a polynomial")
        indices = [self.table.even_index(name) for name in names]
        numer = self.f.numer
        weights = {mono: sum(mono[i] for i in indices) + k for mono in numer}
        lcm = math.lcm(*weights.values())
        scaled = numer.new({mono: c * (lcm // weights[mono])
                            for mono, c in numer.items()})
        return Scalar(self.table, _reduce(self.f.field, scaled, den * lcm))

    def subs_even(self, images, powers=None):
        """Simultaneous substitution of even symbols by Scalars.

        ``images`` maps even-symbol names to Scalars of the same table;
        unmentioned symbols stay put.  ``powers`` may be a dict that keeps
        the powers of the images between calls with the same ``images``.
        """
        table = self.table
        args = {table.even_index(name): self._coerce(value).f
                for name, value in images.items()}
        if powers is None:
            powers = {}
        num = _eval_poly(table, self.f.numer, args, powers)
        den = _eval_poly(table, self.f.denom, args, powers)
        if not den:
            raise ScalarError("substitution makes the denominator vanish")
        return Scalar(table, _div(num, den))

    def integer_denominator(self):
        """The denominator as an int when it is constant, else None."""
        return _ground(self.f.denom)

    def sqrt(self):
        """The root with positive leading numerator coefficient.

        Defined only when numerator and denominator are perfect squares in
        the polynomial ring (including the integer content).
        """
        num = _poly_sqrt(self.table, self.f.numer)
        den = _poly_sqrt(self.table, self.f.denom)
        if num is None or den is None:
            raise ScalarError("scalar is not a perfect square")
        root = Scalar(self.table, _canonical(self.table.field, num, den))
        if root.leading_sign() < 0:
            root = -root
        return root

    def leading_sign(self):
        terms = self.f.numer.terms()
        if not terms:
            return 0
        return 1 if terms[0][1] > 0 else -1

    def __repr__(self):
        return f"Scalar({self.f})"


# -- the kernel on FracElements ---------------------------------------------

def _ground(poly):
    """The integer value of a nonzero constant PolyElement, else None."""
    if len(poly) == 1:
        return poly.get(poly.ring.zero_monom)
    return None


def _reduce(field, num, den):
    """The canonical element num/den for an integer den > 0.

    A polynomial and an integer share only integer content, so cancelling
    gcd(den, coefficients) gives lowest terms without a polynomial gcd.
    A polynomial, den = 1 here or after cancelling, takes the field's one
    unit denominator, ``field.one.denom``, rather than a fresh ``ring.one``
    per element.
    """
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = num.quo_ground(g)
            den //= g
        if den != 1:
            return field.raw_new(num, field.ring.ground_new(den))
    return field.raw_new(num, field.one.denom)


def _mul(f, g):
    da = _ground(f.denom)
    db = _ground(g.denom)
    if da is None or db is None:
        if not f or not g:
            return _reduce(f.field, f.field.ring.zero, 1)
        # a/b * c/d = (a/g1)(c/g2) / ((b/g2)(d/g1)), gi the cross gcds
        _, a, d = _gcd(f.numer, g.denom)
        _, c, b = _gcd(g.numer, f.denom)
        return _canonical(f.field, a * c, b * d)
    if not f or not g:
        return _reduce(f.field, f.field.ring.zero, 1)
    c = _ground(g.numer)
    if c is None:
        c = _ground(f.numer)
        if c is None:
            return _reduce(f.field, f.numer * g.numer, da * db)
        f, g, da, db = g, f, db, da
    # g = c/db is a constant: scale f's numerator, multiply no polynomials
    if c == 1 and db == 1:
        return f
    return _reduce(f.field, f.numer.mul_ground(c), da * db)


def _add(f, g, subtract=False):
    """f + g, or f - g when ``subtract``."""
    da = _ground(f.denom)
    db = _ground(g.denom)
    if da is None or db is None:
        return _add_quotients(f, g, subtract)
    if not g:
        return f
    if not f:
        return -g if subtract else g
    a, b = f.numer, g.numer
    if da != db:
        lcm = da // math.gcd(da, db) * db
        a = a.mul_ground(lcm // da)
        b = b.mul_ground(lcm // db)
        da = lcm
    return _reduce(f.field, a - b if subtract else a + b, da)


def _div(f, g):
    """f / g for nonzero g; polynomial-first when g is a rational constant,
    else f times the reciprocal of g."""
    da = _ground(f.denom)
    p = _ground(g.numer)
    q = _ground(g.denom)
    if da is None or p is None or q is None:
        return _mul(f, _canonical(f.field, g.denom, g.numer))
    num = f.numer.mul_ground(q)
    den = da * p
    if den < 0:
        num, den = -num, -den
    return _reduce(f.field, num, den)


def _gcd(p, q):
    """(h, p/h, q/h) for h a gcd of the nonzero PolyElements p and q.

    When either side is a constant, h is the integer gcd of its value and
    the other side's coefficients; equal sides need no gcd at all.
    Otherwise the generators that occur in both sides choose the route
    (see the module docstring): none, an integer content; one, a dense
    univariate gcd chain; two or more, ``PolyElement.cofactors``.
    """
    c = _ground(p)
    if c is None:
        c = _ground(q)
        if c is None:
            if p == q:
                return p, p.ring.one, p.ring.one
            shared = _support(p) & _support(q)
            if len(shared) > 1:
                return p.cofactors(q)
            if shared:
                out = _univariate_gcd(p, q, shared.pop())
                if out is not None:
                    return out
            h = math.gcd(*p.values(), *q.values())
        else:
            h = math.gcd(c, *p.values())
    else:
        h = math.gcd(c, *q.values())
    if h == 1:
        return p.ring.one, p, q
    return p.ring.ground_new(h), p.quo_ground(h), q.quo_ground(h)


def _support(poly):
    """The indices of the generators that occur in poly."""
    return {i for i, exps in enumerate(zip(*poly)) if any(exps)}


def _univariate_gcd(p, q, i):
    """(h, p/h, q/h) for h = gcd(p, q) when x_i is the only generator that
    occurs in both and h has positive degree in x_i; None when the gcd is
    an integer.

    Read p and q as polynomials in the other generators; their
    coefficients lie in Z[x_i], and h is the gcd of all of them, folded
    from the lowest degree up.  Once the running gcd is a constant, h is
    the integer gcd of all the coefficients of p and q, which the caller
    takes.  When p = a M and q = b N have one coefficient each (M and N
    monomials in the other generators), one ``dup_inner_gcd`` gives h
    together with a/h and b/h.
    """
    cp, cq = _coefficients_in(p, i), _coefficients_in(q, i)
    if len(cp) == len(cq) == 1:
        (m, a), = cp.items()
        (n, b), = cq.items()
        h, a, b = dup_inner_gcd(a, b, ZZ)
        if len(h) == 1:
            return None
        return (_from_dense(p, i, h, p.ring.zero_monom[1:]),
                _from_dense(p, i, a, m), _from_dense(p, i, b, n))
    chain = sorted([*cp.values(), *cq.values()], key=len)
    g = chain[0]
    for f in chain[1:]:
        if len(g) == 1:
            break
        g = dup_gcd(g, f, ZZ)
    if len(g) == 1:
        return None
    h = _from_dense(p, i, g, p.ring.zero_monom[1:])
    return h, p.exquo(h), q.exquo(h)


def _coefficients_in(poly, i):
    """The coefficients of poly read as a polynomial in the generators
    other than x_i, by their exponents in those generators: dense
    univariate lists in x_i, leading term first."""
    groups = {}
    for mono, coeff in poly.items():
        groups.setdefault(mono[:i] + mono[i + 1:], {})[mono[i]] = coeff
    return {rest: [terms.get(e, ZZ.zero) for e in range(max(terms), -1, -1)]
            for rest, terms in groups.items()}


def _from_dense(poly, i, dense, rest):
    """The PolyElement of poly's ring with the coefficient ``dense`` (a
    dense list in x_i, leading term first) at the monomial ``rest`` in
    the other generators."""
    top = len(dense) - 1
    return poly.new({rest[:i] + (top - k,) + rest[i:]: c
                     for k, c in enumerate(dense) if c})


def _canonical(field, num, den):
    """The element num/den for coprime num and den, with the sign moved
    so that den.LC > 0."""
    if den.LC < 0:
        num, den = -num, -den
    if _ground(den) == 1:
        return field.raw_new(num, field.one.denom)
    return field.raw_new(num, den)


def _add_quotients(f, g, subtract):
    """a/b + c/d, or a/b - c/d, for lowest-terms operands.

    With h = gcd(b, d), t = a (d/h) + c (b/h) shares no factor with b/h
    or d/h, so the one gcd left to take is gcd(t, h).
    """
    if not g:
        return f
    if not f:
        return -g if subtract else g
    h, b, d = _gcd(f.denom, g.denom)
    a, c = f.numer * d, g.numer * b
    t = a - c if subtract else a + c
    if not t:
        return _reduce(f.field, f.field.ring.zero, 1)
    _, t, h = _gcd(t, h)
    return _canonical(f.field, t, h * b * d)


def _diff_quotient(f, idx):
    """d(a/b)/dx_idx for a lowest-terms a/b with b not constant.

    With h = gcd(b, b'), u = b/h and v = b'/h, the derivative is
    (a'u - a v) / (b u), and its numerator shares no factor with u.
    """
    a, b = f.numer, f.denom
    da, db = a.diff(idx), b.diff(idx)
    if not db:
        if not da:
            return _reduce(f.field, f.field.ring.zero, 1)
        _, da, b = _gcd(da, b)
        return _canonical(f.field, da, b)
    h, u, v = _gcd(b, db)
    t = da * u - a * v
    if not t:
        return _reduce(f.field, f.field.ring.zero, 1)
    _, t, h = _gcd(t, h)
    return _canonical(f.field, t, h * u * u)


def _eval_poly(table, poly, images, powers):
    """The FracElement of a PolyElement with the generators in ``images``
    (index -> FracElement) replaced; the other generators stay.

    Monomials are grouped by their exponents in the replaced generators,
    so each group costs one product of image powers; ``powers`` holds
    those powers by (index, exponent) and is filled as they are needed.
    """
    field = table.field
    bound = tuple(images)
    groups = {}
    for mono, coeff in poly.items():
        exps = tuple(mono[idx] for idx in bound)
        if any(exps):
            rest = list(mono)
            for idx in bound:
                rest[idx] = 0
            mono = tuple(rest)
        groups.setdefault(exps, {})[mono] = coeff
    total = field.zero
    for exps, rest in groups.items():
        term = _reduce(field, poly.new(rest), 1)
        for idx, e in zip(bound, exps):
            if e:
                power = powers.get((idx, e))
                if power is None:
                    power = powers[(idx, e)] = images[idx] ** e
                term = _mul(term, power)
        total = _add(total, term)
    return total


def _poly_sqrt(table, poly):
    """Square root of a perfect-square PolyElement, or None."""
    if poly.is_ground:
        value = int(poly.coeff(1)) if poly else 0
        if value < 0:
            return None
        root = _isqrt(value)
        if root is None:
            return None
        return table.field.ring.ground_new(ZZ(root))
    expr = poly.as_expr()
    content, factors = sympy.factor_list(expr)
    content = Fraction(str(content))
    if content < 0 or content.denominator != 1:
        return None
    croot = _isqrt(content.numerator)
    if croot is None:
        return None
    ring = table.field.ring
    out = ring.ground_new(ZZ(croot))
    for base, exp in factors:
        exp = int(exp)
        if exp % 2:
            return None
        out = out * ring.from_expr(base) ** (exp // 2)
    return out


def _isqrt(value):
    root = math.isqrt(value)
    return root if root * root == value else None


def binomial_half(k):
    """Coefficient of t^k in the square-root series of 1 + t."""
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(1, 2) - j
        out /= j + 1
    return out
