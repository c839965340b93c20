"""Exact rational-function coefficients over the integers.

A Scalar is a quotient ``numer / denom`` of multivariate integer
polynomials in the even symbols of its table, each a plain ``dict`` from
exponent tuples to nonzero ints.  ``denom`` is either a positive int
coprime to the content of ``numer``, or a nonconstant polynomial coprime
to ``numer`` with leading coefficient positive under graded-lex order;
zero is {}/1.  Every operation returns that canonical form, so equal
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

The dicts are multiplied here, through the ring's generated
``monomial_mul``; sympy sees them, as ``PolyElement``s, only in the gcds
below and in ``sqrt``.  Most products in the identities have a constant
side, and a polynomial-first product with one multiplies no polynomials:
by 1 it returns the other operand, by any other c the other numerator
scaled by c over the product of the two integer denominators.
Polynomials are shared between Scalars, so nothing may change one.

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
        out = cls(table, _constant(table, value), 1)
        if value in _CACHED_INTS:
            table.int_scalars[value] = out
        return out

    @classmethod
    def from_fraction(cls, table, value):
        value = Fraction(value)
        return cls(table, _constant(table, value.numerator),
                   value.denominator)

    @classmethod
    def from_poly(cls, table, poly, den=1):
        """poly / den for a polynomial dict (exponent tuple -> nonzero
        int) of the table's generators and an int den > 0."""
        return _reduce(table, poly, den)

    @classmethod
    def symbol(cls, table, name):
        ring = table.field.ring
        return cls(table, {ring.monomial_basis(table.even_index(name)): 1}, 1)

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
        field = self.table.field
        return FracElement(field, field.ring.dtype(self.numer),
                           field.ring.dtype(_denominator(self)))

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
        base, table = self, self.table
        if exponent < 0:
            if not self.numer:
                raise ScalarError("division by zero scalar")
            base, exponent = _reciprocal(self), -exponent
        if not exponent:
            return Scalar(table, _constant(table, 1), 1)
        q = base.integer_denominator()
        return Scalar(table, _power(table, base.numer, exponent),
                      _power(table, base.denom, exponent) if q is None
                      else q ** exponent)

    def __neg__(self):
        return Scalar(self.table, _scaled(self.numer, -1), self.denom)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        return self.table is other.table and self.numer == other.numer \
            and self.denom == other.denom

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as one
        return hash(self.as_fraction() if self.is_constant() else (
            frozenset(self.numer.items()),
            self.integer_denominator() or frozenset(self.denom.items())))

    def __bool__(self):
        return bool(self.numer)

    @property
    def is_zero(self):
        return not self.numer

    @property
    def is_one(self):
        return self.denom == 1 and self.numer == _constant(self.table, 1)

    # -- structure queries --------------------------------------------------

    @property
    def numer_terms(self):
        """[(exponent tuple, int coeff)] in graded-lex descending order."""
        return _terms(self.table, self.numer)

    @property
    def denom_terms(self):
        return _terms(self.table, _denominator(self))

    def is_constant(self):
        numer, zero = self.numer, self.table.field.ring.zero_monom
        return not isinstance(self.denom, dict) and (
            not numer or _ground(numer, zero) is not None)

    def as_fraction(self):
        if not self.is_constant():
            raise ScalarError("scalar is not a rational constant")
        return Fraction(self.numer.get(self.table.field.ring.zero_monom, 0),
                        self.denom)

    def depends_on(self, name):
        idx = self.table.even_index(name)
        return any(m[idx] for m in self.numer) or \
            any(m[idx] for m in _denominator(self))

    # -- calculus ------------------------------------------------------------

    def diff(self, name):
        idx = self.table.even_index(name)
        if isinstance(self.denom, dict):
            return _diff_quotient(self, idx)
        return _reduce(self.table, divided_derivative(self.numer, idx),
                       self.denom)

    def radial(self, names, k):
        """int_0^1 s^(k-1) c(s x) ds for a polynomial c, with x the even
        symbols ``names`` and k >= 1.

        A monomial of degree m in those symbols is divided by m + k; the
        quotients share one integer denominator.
        """
        if isinstance(self.denom, dict):
            raise ScalarError("radial integral needs a polynomial")
        indices = [self.table.even_index(name) for name in names]
        numer = self.numer
        weights = {mono: sum(mono[i] for i in indices) + k for mono in numer}
        lcm = math.lcm(*weights.values())
        scaled = {mono: c * (lcm // weights[mono])
                  for mono, c in numer.items()}
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
        if not isinstance(self.denom, dict):
            return _mul(num, Scalar(table, _constant(table, 1), self.denom))
        den = _eval_poly(table, self.denom, args, powers)
        if not den:
            raise ScalarError("substitution makes the denominator vanish")
        return _div(num, den)

    def integer_denominator(self):
        """The denominator as an int when it is constant, else None."""
        denom = self.denom
        return None if isinstance(denom, dict) else denom

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
        numer = self.numer
        lc = numer[self.table.field.ring.leading_expv(numer)] if numer else 0
        return (lc > 0) - (lc < 0)

    def __repr__(self):
        new = self.table.field.ring.dtype
        denom = self.integer_denominator() or new(self.denom)
        return f"Scalar(({new(self.numer)})/({denom}))"


# -- polynomial dicts ---------------------------------------------------------

def _constant(table, value):
    """The polynomial dict of an int."""
    return {table.field.ring.zero_monom: value} if value else {}


def _ground(poly, zero):
    """The value of a nonzero constant polynomial dict, else None; zero is
    the ring's zero monomial."""
    return poly.get(zero) if len(poly) == 1 else None


def _terms(table, poly):
    """The items of a polynomial dict in graded-lex descending order."""
    order = table.field.ring.order
    return sorted(poly.items(), key=lambda term: order(term[0]),
                  reverse=True)


def _plain(poly):
    """The polynomial dict of a sympy PolyElement."""
    return {mono: int(c) for mono, c in poly.items()}


def _product(ring, p, q):
    """p * q for polynomial dicts, by the ring's generated monomial
    product; a monomial side cannot cancel anything."""
    mul = ring.monomial_mul
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        (n, b), = q.items()
        return {mul(m, n): a * b for m, a in p.items()}
    out = {}
    get = out.get
    for m, a in p.items():
        for n, b in q.items():
            mono = mul(m, n)
            out[mono] = get(mono, 0) + a * b
    if 0 in out.values():
        return {mono: c for mono, c in out.items() if c}
    return out


def _sum(p, q, subtract=False):
    """p + q, or p - q when ``subtract``, for polynomial dicts."""
    out = dict(p)
    get = out.get
    for mono, c in q.items():
        c = get(mono, 0) - c if subtract else get(mono, 0) + c
        if c:
            out[mono] = c
        else:
            del out[mono]
    return out


def _scaled(poly, k):
    """poly * k for a nonzero int k."""
    return poly if k == 1 else {mono: c * k for mono, c in poly.items()}


def _quotient(poly, k):
    """poly / k for an int k that divides every coefficient."""
    return {mono: c // k for mono, c in poly.items()}


def divided_derivative(poly, idx, k=1):
    """(d poly / dx_idx) / k for a polynomial dict, when k divides every
    coefficient of the derivative.  No two monomials of poly map to the
    same one, so nothing cancels."""
    out = {}
    for mono, c in poly.items():
        e = mono[idx]
        if e:
            out[mono[:idx] + (e - 1,) + mono[idx + 1:]] = c * e // k
    return out


def _power(table, poly, k):
    """poly ** k for k >= 1, as k - 1 products with poly."""
    ring, out = table.field.ring, poly
    for _ in range(k - 1):
        out = _product(ring, out, poly)
    return out


# -- the kernel ---------------------------------------------------------------

def _denominator(f):
    """f's denominator as a polynomial dict, as the field path reads it."""
    d = f.denom
    return d if isinstance(d, dict) else _constant(f.table, d)


def _zero(table):
    return Scalar(table, {}, 1)


def _reduce(table, num, den):
    """The Scalar num/den for an integer den > 0.

    A polynomial and an integer share only integer content, so cancelling
    gcd(den, coefficients) gives lowest terms without a polynomial gcd.
    """
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = _quotient(num, g)
            den //= g
    return Scalar(table, num, den)


def _mul(f, g):
    if not f.numer or not g.numer:
        return _zero(f.table)
    ring = f.table.field.ring
    da, db = f.denom, g.denom
    if isinstance(da, dict) or isinstance(db, dict):
        # a/b * c/d = (a/g1)(c/g2) / ((b/g2)(d/g1)), gi the cross gcds
        _, a, d = _gcd(ring, f.numer, _denominator(g))
        _, c, b = _gcd(ring, g.numer, _denominator(f))
        return _canonical(f.table, _product(ring, a, c), _product(ring, b, d))
    zero = ring.zero_monom
    c = _ground(g.numer, zero)
    if c is None:
        c = _ground(f.numer, zero)
        if c is None:
            return _reduce(f.table, _product(ring, f.numer, g.numer), da * db)
        f, g, da, db = g, f, db, da
    # g = c/db is a constant: scale f's numerator, multiply no polynomials
    if c == 1 and db == 1:
        return f
    return _reduce(f.table, _scaled(f.numer, c), da * db)


def _add(f, g, subtract=False):
    """f + g, or f - g when ``subtract``."""
    if not g.numer:
        return f
    if not f.numer:
        return -g if subtract else g
    da, db = f.denom, g.denom
    if isinstance(da, dict) or isinstance(db, dict):
        return _add_quotients(f, g, subtract)
    a, b = f.numer, g.numer
    if da != db:
        lcm = da // math.gcd(da, db) * db
        a = _scaled(a, lcm // da)
        b = _scaled(b, lcm // db)
        da = lcm
    return _reduce(f.table, _sum(a, b, subtract), da)


def _div(f, g):
    """f / g for nonzero g; polynomial-first when g is a rational constant,
    else f times the reciprocal of g."""
    da, q = f.denom, g.denom
    p = _ground(g.numer, f.table.field.ring.zero_monom)
    if p is None or isinstance(da, dict) or isinstance(q, dict):
        return _mul(f, _reciprocal(g))
    num = _scaled(f.numer, q)
    den = da * p
    if den < 0:
        num, den = _scaled(num, -1), -den
    return _reduce(f.table, num, den)


def _reciprocal(f):
    """1/f for nonzero f."""
    return _canonical(f.table, _denominator(f), f.numer)


def _gcd(ring, p, q):
    """(h, p/h, q/h) for h a gcd of the nonzero polynomial dicts p and q.

    When either side is a constant, h is the integer gcd of its value and
    the other side's coefficients; equal sides need no gcd at all.
    Otherwise the generators that occur in both sides choose the route
    (see the module docstring): none, an integer content; one, a dense
    univariate gcd chain; two or more, ``PolyElement.cofactors``.
    """
    zero = ring.zero_monom
    one = {zero: 1}
    c = _ground(p, zero)
    if c is None:
        c = _ground(q, zero)
        if c is None:
            if p == q:
                return p, one, one
            shared = _support(p) & _support(q)
            if len(shared) > 1:
                new = ring.dtype
                return tuple(map(_plain, new(p).cofactors(new(q))))
            if shared:
                out = _univariate_gcd(ring, p, q, shared.pop())
                if out is not None:
                    return out
            h = math.gcd(*p.values(), *q.values())
        else:
            h = math.gcd(c, *p.values())
    else:
        h = math.gcd(c, *q.values())
    if h == 1:
        return one, p, q
    return {zero: h}, _quotient(p, h), _quotient(q, h)


def _support(poly):
    """The indices of the generators that occur in poly."""
    return {i for i, exps in enumerate(zip(*poly)) if any(exps)}


def _univariate_gcd(ring, p, q, i):
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
    rest = ring.zero_monom[1:]
    if len(cp) == len(cq) == 1:
        (m, a), = cp.items()
        (n, b), = cq.items()
        h, a, b = dup_inner_gcd(a, b, ZZ)
        if len(h) == 1:
            return None
        return (_from_dense(i, h, rest), _from_dense(i, a, m),
                _from_dense(i, b, n))
    chain = sorted([*cp.values(), *cq.values()], key=len)
    g = chain[0]
    for f in chain[1:]:
        if len(g) == 1:
            break
        g = dup_gcd(g, f, ZZ)
    if len(g) == 1:
        return None
    h = _from_dense(i, g, rest)
    new = ring.dtype
    return h, _plain(new(p).exquo(new(h))), _plain(new(q).exquo(new(h)))


def _coefficients_in(poly, i):
    """The coefficients of poly read as a polynomial in the generators
    other than x_i, by their exponents in those generators: dense
    univariate lists in x_i, leading term first."""
    groups = {}
    for mono, coeff in poly.items():
        groups.setdefault(mono[:i] + mono[i + 1:], {})[mono[i]] = coeff
    return {rest: [terms.get(e, ZZ.zero) for e in range(max(terms), -1, -1)]
            for rest, terms in groups.items()}


def _from_dense(i, dense, rest):
    """The polynomial dict with the coefficient ``dense`` (a dense list in
    x_i, leading term first) at the monomial ``rest`` in the other
    generators."""
    top = len(dense) - 1
    return {rest[:i] + (top - k,) + rest[i:]: int(c)
            for k, c in enumerate(dense) if c}


def _canonical(table, num, den):
    """The Scalar num/den for coprime polynomial dicts num and den, with
    the sign moved so that den's leading coefficient is positive and a
    constant den kept as an int."""
    if den[table.field.ring.leading_expv(den)] < 0:
        num, den = _scaled(num, -1), _scaled(den, -1)
    c = _ground(den, table.field.ring.zero_monom)
    return Scalar(table, num, den if c is None else c)


def _add_quotients(f, g, subtract):
    """a/b + c/d, or a/b - c/d, for nonzero lowest-terms operands.

    With h = gcd(b, d), t = a (d/h) + c (b/h) shares no factor with b/h
    or d/h, so the one gcd left to take is gcd(t, h).
    """
    ring = f.table.field.ring
    h, b, d = _gcd(ring, _denominator(f), _denominator(g))
    t = _sum(_product(ring, f.numer, d), _product(ring, g.numer, b),
             subtract)
    if not t:
        return _zero(f.table)
    _, t, h = _gcd(ring, t, h)
    return _canonical(f.table, t, _product(ring, _product(ring, h, b), d))


def _diff_quotient(f, idx):
    """d(a/b)/dx_idx for a lowest-terms a/b with b not constant.

    With h = gcd(b, b'), u = b/h and v = b'/h, the derivative is
    (a'u - a v) / (b u), and its numerator shares no factor with u.
    """
    ring = f.table.field.ring
    a, b = f.numer, f.denom
    da, db = divided_derivative(a, idx), divided_derivative(b, idx)
    if not db:
        if not da:
            return _zero(f.table)
        _, da, b = _gcd(ring, da, b)
        return _canonical(f.table, da, b)
    h, u, v = _gcd(ring, b, db)
    t = _sum(_product(ring, da, u), _product(ring, a, v), True)
    if not t:
        return _zero(f.table)
    _, t, h = _gcd(ring, t, h)
    return _canonical(f.table, t, _product(ring, _product(ring, h, u), u))


def _eval_poly(table, poly, images, powers):
    """The Scalar of a polynomial dict with the generators in ``images``
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
        term = Scalar(table, rest, 1)
        for idx, e in zip(bound, exps):
            if e:
                power = powers.get((idx, e))
                if power is None:
                    power = powers[(idx, e)] = images[idx] ** e
                term = _mul(term, power)
        total = _add(total, term)
    return total


def _poly_sqrt(table, poly):
    """Square root of a perfect-square polynomial dict, or None."""
    zero = table.field.ring.zero_monom
    if not poly or _ground(poly, zero) is not None:
        value = poly.get(zero, 0)
        if value < 0:
            return None
        root = _isqrt(value)
        return None if root is None else _constant(table, root)
    ring = table.field.ring
    content, factors = sympy.factor_list(ring.dtype(poly).as_expr())
    content = Fraction(str(content))
    if content < 0 or content.denominator != 1:
        return None
    croot = _isqrt(content.numerator)
    if croot is None:
        return None
    out = ring.ground_new(ZZ(croot))
    for base, exp in factors:
        exp = int(exp)
        if exp % 2:
            return None
        out = out * ring.from_expr(base) ** (exp // 2)
    return _plain(out)


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
