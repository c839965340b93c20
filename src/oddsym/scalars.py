"""Exact rational-function coefficients over the integers.

A Scalar is a quotient ``numer / denom`` of multivariate integer
polynomials in the even symbols of its table.  ``numer`` is a
``PolyElement`` of the table's ring; ``denom`` is either a positive int
coprime to the content of ``numer``, or a nonconstant ``PolyElement``
coprime to ``numer`` with leading coefficient positive under graded-lex
order; zero is 0/1.  Every operation returns that canonical form, so equal
Scalars have equal numerators and denominators.  ``Scalar.f`` is a view
that builds the equal sympy ``FracElement``; the arithmetic never does.

The arithmetic takes one of two paths, chosen by the operands alone:

* polynomial-first: when every denominator involved is an integer (almost
  all coefficients are polynomials), the numerators are combined as
  polynomials over the common integer denominator and only the integer
  content is cancelled, with ``math.gcd``;
* field: otherwise the operands are combined as quotients of
  polynomials (an int denominator as a constant one), cancelling across
  before multiplying out (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1).
  Both operands are already in lowest terms, so no factor can cancel
  except between a numerator and the other operand's denominator (a
  product), or between the sum and the gcd of the two denominators (a
  sum).  Those gcds are of the smaller factors, not of the whole product,
  and a gcd with a constant side takes only integers.

Most products in the identities have a constant side, and a
polynomial-first product with one multiplies no polynomials: by 1 it
returns the other operand, by any other c the other numerator scaled by c
over the product of the two integer denominators.  Polynomials are shared
between Scalars, so nothing may change one in place.

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

Both paths give the quotient ``FracField`` itself would give; the
property tests compare them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd, dup_inner_gcd
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement


class ScalarError(ArithmeticError):
    pass


# Scalar.from_int keeps the constants in this range, per symbol table.
_CACHED_INTS = range(-16, 17)


class Scalar:
    __slots__ = ("table", "numer", "denom")

    def __init__(self, table, numer, denom):  # canonical, as stated above
        self.table = table
        self.numer = numer
        self.denom = denom

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_int(cls, table, value):
        value = int(value)
        cached = table.int_scalars.get(value)
        if cached is not None:
            return cached
        out = cls(table, table.field.ring.ground_new(value), 1)
        if value in _CACHED_INTS:
            table.int_scalars[value] = out
        return out

    @classmethod
    def from_fraction(cls, table, value):
        value = Fraction(value)
        return cls(table, table.field.ring.ground_new(value.numerator),
                   value.denominator)

    @classmethod
    def from_poly(cls, table, poly, den=1):
        """poly / den for a PolyElement of the table's ring and an int
        den > 0."""
        return _reduce(table, poly, den)

    @classmethod
    def symbol(cls, table, name):
        return cls(table, table.field.ring.gens[table.even_index(name)], 1)

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

    @property
    def f(self):
        """The equal sympy ``FracElement``, built on each read."""
        return FracElement(self.table.field, self.numer, _denominator(self))

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else _add(self, other, True)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else _add(other, self, True)

    def __mul__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.numer:
            raise ScalarError("division by zero scalar")
        return _div(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, exponent):
        # c ** 0 is 1 for every c, 0 included, as for SuperExpr and "0^0"
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            if not self.numer:
                raise ScalarError("division by zero scalar")
            base, exponent = _reciprocal(self), -exponent
        if not exponent:
            return Scalar(self.table, self.numer.ring.one, 1)
        return Scalar(self.table, base.numer ** exponent,
                      base.denom ** exponent)

    def __neg__(self):
        return Scalar(self.table, -self.numer, self.denom)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        return self.table is other.table and self.numer == other.numer \
            and self.denom == other.denom

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as one
        return hash(self.as_fraction() if self.is_constant()
                    else (self.numer, self.denom))

    def __bool__(self):
        return bool(self.numer)

    @property
    def is_zero(self):
        return not self.numer

    # -- structure queries --------------------------------------------------

    @property
    def numer_terms(self):
        """[(exponent tuple, int coeff)] in graded-lex descending order."""
        return [(m, int(c)) for m, c in self.numer.terms()]

    @property
    def denom_terms(self):
        return [(m, int(c)) for m, c in _denominator(self).terms()]

    def is_constant(self):
        return self.numer.is_ground and not isinstance(self.denom, PolyElement)

    def as_fraction(self):
        if not self.is_constant():
            raise ScalarError("scalar is not a rational constant")
        return Fraction(int(_ground(self.numer) or 0), int(self.denom))

    def depends_on(self, name):
        idx = self.table.even_index(name)
        return any(m[idx] for m in self.numer.itermonoms()) or \
            any(m[idx] for m in _denominator(self).itermonoms())

    # -- calculus ------------------------------------------------------------

    def diff(self, name):
        idx = self.table.even_index(name)
        if isinstance(self.denom, PolyElement):
            return _diff_quotient(self, idx)
        return _reduce(self.table, self.numer.diff(idx), self.denom)

    def radial(self, names, k):
        """int_0^1 s^(k-1) c(s x) ds for a polynomial c, with x the even
        symbols ``names`` and k >= 1.

        A monomial of degree m in those symbols is divided by m + k; the
        quotients share one integer denominator.
        """
        if isinstance(self.denom, PolyElement):
            raise ScalarError("radial integral needs a polynomial")
        indices = [self.table.even_index(name) for name in names]
        numer = self.numer
        weights = {mono: sum(mono[i] for i in indices) + k for mono in numer}
        lcm = math.lcm(*weights.values())
        scaled = numer.new({mono: c * (lcm // weights[mono])
                            for mono, c in numer.items()})
        return _reduce(self.table, scaled, self.denom * lcm)

    def subs_even(self, images, powers=None):
        """Simultaneous substitution of even symbols by Scalars.

        ``images`` maps even-symbol names to Scalars of the same table;
        unmentioned symbols stay put.  ``powers`` may be a dict that keeps
        the powers of the images between calls with the same ``images``.
        """
        table = self.table
        args = {table.even_index(name): self._coerce(value)
                for name, value in images.items()}
        if powers is None:
            powers = {}
        num = _eval_poly(table, self.numer, args, powers)
        if not isinstance(self.denom, PolyElement):
            return _mul(num, Scalar(table, num.numer.ring.one, self.denom))
        den = _eval_poly(table, self.denom, args, powers)
        if not den:
            raise ScalarError("substitution makes the denominator vanish")
        return _div(num, den)

    def integer_denominator(self):
        """The denominator as an int when it is constant, else None."""
        denom = self.denom
        return None if isinstance(denom, PolyElement) else denom

    def sqrt(self):
        """The root with positive leading numerator coefficient.

        Defined only when numerator and denominator are perfect squares in
        the polynomial ring (including the integer content).
        """
        num = _poly_sqrt(self.table, self.numer)
        den = _poly_sqrt(self.table, _denominator(self))
        if num is None or den is None:
            raise ScalarError("scalar is not a perfect square")
        root = _canonical(self.table, num, den)
        if root.leading_sign() < 0:
            root = -root
        return root

    def leading_sign(self):
        lc = self.numer.LC
        return (lc > 0) - (lc < 0)

    def __repr__(self):
        return f"Scalar(({self.numer})/({self.denom}))"


# -- the kernel ---------------------------------------------------------------

def _ground(poly):
    """The integer value of a nonzero constant PolyElement, else None."""
    if len(poly) == 1:
        return poly.get(poly.ring.zero_monom)
    return None


def _denominator(f):
    """f's denominator as a PolyElement, as the field path reads it."""
    d = f.denom
    return d if isinstance(d, PolyElement) else f.numer.ring.ground_new(d)


def _zero(table):
    return Scalar(table, table.field.ring.zero, 1)


def _reduce(table, num, den):
    """The Scalar num/den for an integer den > 0.

    A polynomial and an integer share only integer content, so cancelling
    gcd(den, coefficients) gives lowest terms without a polynomial gcd.
    """
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = num.quo_ground(g)
            den //= g
    return Scalar(table, num, den)


def _mul(f, g):
    if not f.numer or not g.numer:
        return _zero(f.table)
    da, db = f.denom, g.denom
    if isinstance(da, PolyElement) or isinstance(db, PolyElement):
        # a/b * c/d = (a/g1)(c/g2) / ((b/g2)(d/g1)), gi the cross gcds
        _, a, d = _gcd(f.numer, _denominator(g))
        _, c, b = _gcd(g.numer, _denominator(f))
        return _canonical(f.table, a * c, b * d)
    c = _ground(g.numer)
    if c is None:
        c = _ground(f.numer)
        if c is None:
            return _reduce(f.table, f.numer * g.numer, da * db)
        f, g, da, db = g, f, db, da
    # g = c/db is a constant: scale f's numerator, multiply no polynomials
    if c == 1 and db == 1:
        return f
    return _reduce(f.table, f.numer.mul_ground(c), da * db)


def _add(f, g, subtract=False):
    """f + g, or f - g when ``subtract``."""
    if not g.numer:
        return f
    if not f.numer:
        return -g if subtract else g
    da, db = f.denom, g.denom
    if isinstance(da, PolyElement) or isinstance(db, PolyElement):
        return _add_quotients(f, g, subtract)
    a, b = f.numer, g.numer
    if da != db:
        lcm = da // math.gcd(da, db) * db
        a = a.mul_ground(lcm // da)
        b = b.mul_ground(lcm // db)
        da = lcm
    return _reduce(f.table, a - b if subtract else a + b, da)


def _div(f, g):
    """f / g for nonzero g; polynomial-first when g is a rational constant,
    else f times the reciprocal of g."""
    da, q = f.denom, g.denom
    p = _ground(g.numer)
    if p is None or isinstance(da, PolyElement) or isinstance(q, PolyElement):
        return _mul(f, _reciprocal(g))
    num = f.numer.mul_ground(q)
    den = da * p
    if den < 0:
        num, den = -num, -den
    return _reduce(f.table, num, den)


def _reciprocal(f):
    """1/f for nonzero f."""
    return _canonical(f.table, _denominator(f), f.numer)


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


def _canonical(table, num, den):
    """The Scalar num/den for coprime PolyElements num and den, with the
    sign moved so that den.LC > 0 and a constant den kept as an int."""
    if den.LC < 0:
        num, den = -num, -den
    c = _ground(den)
    return Scalar(table, num, den if c is None else c)


def _add_quotients(f, g, subtract):
    """a/b + c/d, or a/b - c/d, for nonzero lowest-terms operands.

    With h = gcd(b, d), t = a (d/h) + c (b/h) shares no factor with b/h
    or d/h, so the one gcd left to take is gcd(t, h).
    """
    h, b, d = _gcd(_denominator(f), _denominator(g))
    a, c = f.numer * d, g.numer * b
    t = a - c if subtract else a + c
    if not t:
        return _zero(f.table)
    _, t, h = _gcd(t, h)
    return _canonical(f.table, t, h * b * d)


def _diff_quotient(f, idx):
    """d(a/b)/dx_idx for a lowest-terms a/b with b not constant.

    With h = gcd(b, b'), u = b/h and v = b'/h, the derivative is
    (a'u - a v) / (b u), and its numerator shares no factor with u.
    """
    a, b = f.numer, f.denom
    da, db = a.diff(idx), b.diff(idx)
    if not db:
        if not da:
            return _zero(f.table)
        _, da, b = _gcd(da, b)
        return _canonical(f.table, da, b)
    h, u, v = _gcd(b, db)
    t = da * u - a * v
    if not t:
        return _zero(f.table)
    _, t, h = _gcd(t, h)
    return _canonical(f.table, t, h * u * u)


def _eval_poly(table, poly, images, powers):
    """The Scalar of a PolyElement with the generators in ``images``
    (index -> Scalar) replaced; the other generators stay.

    Monomials are grouped by their exponents in the replaced generators,
    so each group costs one product of image powers; ``powers`` holds
    those powers by (index, exponent) and is filled as they are needed.
    """
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
    total = _zero(table)
    for exps, rest in groups.items():
        term = Scalar(table, poly.new(rest), 1)
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
