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
  polynomials, cancelling across before multiplying out (Henrici 1956;
  Knuth, TAOCP vol. 2, 4.5.1).  Both operands are already in lowest
  terms, so no factor can cancel except between a numerator and the
  other operand's denominator (a product), or between the sum and the
  gcd of the two denominators (a sum), none when that gcd is 1.  Those
  gcds are of the smaller factors, not of the whole product, and one
  with an int or constant side is an int gcd of the coefficients
  (``_cancel``): an int denominator never becomes a polynomial.

The dicts are ``polys`` polynomials, and sympy sees them only in the
``Scalar.f`` view.  A product with a constant side c/d multiplies no
polynomials and takes no polynomial gcd: by 1 it returns the other
operand; a polynomial p/q becomes c p / (d q) with its integer content
cancelled; a quotient a/b becomes (a/g2)(c/g1) / ((b/g1)(d/g2)), with
g1 = gcd(c, content of b) and g2 = gcd(d, content of a), the only
factors that can cancel.  A quotient f / g is f times 1/g, so division
by a constant takes that product too.  Polynomials are shared, so
nothing may change one.

Both paths give the quotient ``FracField`` itself would give; the
property tests compare them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement

from .polys import (_constant, _gcd, _ground, _involves, _poly_sqrt, _power,
                    _product, _quotient, _scaled, _sum, _terms,
                    divided_derivative)


class ScalarError(ArithmeticError):
    pass


_FIELDS = {}  # Scalar.f's FracFields by even-symbol names, built once


class Scalar:
    __slots__ = ("table", "numer", "denom")

    def __init__(self, table, numer, denom):  # canonical, as stated above
        self.table = table
        self.numer = numer
        self.denom = denom

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_int(cls, table, value):
        return cls(table, _constant(table.ring, int(value)), 1)

    @classmethod
    def from_fraction(cls, table, value):
        value = Fraction(value)
        return cls(table, _constant(table.ring, value.numerator),
                   value.denominator)

    @classmethod
    def from_poly(cls, table, poly, den=1):
        """poly / den for a polynomial dict (exponent tuple -> nonzero
        int) of the table's generators and an int den > 0."""
        return _reduce(table, poly, den)

    @classmethod
    def symbol(cls, table, name):
        return cls(table, {table.ring.basis(table.even_index(name)): 1}, 1)

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
        names = self.table.even_symbols
        field = _FIELDS.get(names)
        if field is None:
            field = _FIELDS[names] = FracField(names, ZZ, grlex)
        ring = field.ring
        return FracElement(field, PolyElement(ring, self.numer),
                           PolyElement(ring, _denominator(self)))

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
        return _mul(self, _reciprocal(other))

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
            return Scalar(table, _constant(table.ring, 1), 1)
        q = base.integer_denominator()
        return Scalar(table, _power(table.ring, base.numer, exponent),
                      _power(table.ring, base.denom, exponent) if q is None
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
        return self.denom == 1 and self.numer == _constant(self.table.ring, 1)

    # -- structure queries --------------------------------------------------

    @property
    def numer_terms(self):
        """[(exponent tuple, int coeff)] in graded-lex descending order."""
        return _terms(self.table.ring, self.numer)

    @property
    def denom_terms(self):
        return _terms(self.table.ring, _denominator(self))

    def is_constant(self):
        numer, zero = self.numer, self.table.ring.zero_monom
        return not isinstance(self.denom, dict) and (
            not numer or _ground(numer, zero) is not None)

    def as_fraction(self):
        if not self.is_constant():
            raise ScalarError("scalar is not a rational constant")
        return Fraction(self.numer.get(self.table.ring.zero_monom, 0),
                        self.denom)

    def depends_on(self, name):
        idx = (self.table.even_index(name),)
        return _involves(self.numer, idx) or \
            isinstance(self.denom, dict) and _involves(self.denom, idx)

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

    def subs_even(self, images):
        """Simultaneous substitution of even symbols by Scalars.

        ``images`` maps even-symbol names to Scalars of the same table;
        unmentioned symbols stay put.  ``EvenImages`` does it for many
        Scalars with one set of images.
        """
        if not images:
            return self
        images = {name: self._coerce(value) for name, value in images.items()}
        return EvenImages(self.table, images)(self)

    def integer_denominator(self):
        """The denominator as an int when it is constant, else None."""
        denom = self.denom
        return None if isinstance(denom, dict) else denom

    def sqrt(self):
        """The root with positive leading numerator coefficient.

        Defined only when numerator and denominator are perfect squares in
        the polynomial ring (including the integer content).
        """
        ring = self.table.ring
        num = _poly_sqrt(ring, self.numer)
        den = _poly_sqrt(ring, _denominator(self))
        if num is None or den is None:
            raise ScalarError("scalar is not a perfect square")
        root = _canonical(self.table, num, den)
        if root.leading_sign() < 0:
            root = -root
        return root

    def leading_sign(self):
        numer = self.numer
        lc = numer[self.table.ring.leading(numer)] if numer else 0
        return (lc > 0) - (lc < 0)

    def __repr__(self):
        view = self.f
        return f"Scalar(({view.numer})/({view.denom}))"


# -- the kernel ---------------------------------------------------------------

def _denominator(f):
    """f's denominator as a polynomial dict, as the field path reads it."""
    d = f.denom
    return d if isinstance(d, dict) else _constant(f.table.ring, d)


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
    ring = f.table.ring
    zero = ring.zero_monom
    c = None if isinstance(g.denom, dict) else _ground(g.numer, zero)
    if c is None and not isinstance(f.denom, dict):
        c = _ground(f.numer, zero)
        if c is not None:
            f, g = g, f
    da, db = f.denom, g.denom
    if c is None:
        if isinstance(da, dict) or isinstance(db, dict):
            # a/b * c/d = (a/g1)(c/g2) / ((b/g2)(d/g1)), gi cross gcds
            _, a, d = _cancel(ring, f.numer, db)
            _, c, b = _cancel(ring, g.numer, da)
            return _canonical(f.table, _product(ring, a, c),
                              _times(ring, b, d))
        return _reduce(f.table, _product(ring, f.numer, g.numer), da * db)
    # g = c/db is a constant: scale f's numerator, multiply no polynomials
    if c == 1 and db == 1:
        return f
    if not isinstance(da, dict):
        return _reduce(f.table, _scaled(f.numer, c), da * db)
    # f = a/b: c/db cancels only against the integer contents of b and a,
    # and b/g1 keeps a positive leading coefficient
    g1 = math.gcd(c, *da.values())
    g2 = math.gcd(db, *f.numer.values())
    return Scalar(f.table, _scaled(_quotient(f.numer, g2), c // g1),
                  _scaled(_quotient(da, g1), db // g2))


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


def _reciprocal(f):
    """1/f for nonzero f."""
    return _canonical(f.table, _denominator(f), f.numer)


def _canonical(table, num, den):
    """The Scalar num/den for coprime polynomial dicts num and den, with
    the sign moved so that den's leading coefficient is positive and a
    constant den kept as an int."""
    ring = table.ring
    if den[ring.leading(den)] < 0:
        num, den = _scaled(num, -1), _scaled(den, -1)
    c = _ground(den, ring.zero_monom)
    return Scalar(table, num, den if c is None else c)


def _add_quotients(f, g, subtract):
    """a/b + c/d, or a/b - c/d, for nonzero lowest-terms operands.

    With h = gcd(b, d), t = a (d/h) + c (b/h) shares no factor with b/h
    or d/h, so the one gcd left to take is gcd(t, h), none when h is 1.
    """
    ring = f.table.ring
    da, db = f.denom, g.denom
    if isinstance(da, dict):
        h, b, d = _cancel(ring, da, db)
    else:
        h, d, b = _cancel(ring, db, da)
    t = _sum(_times(ring, f.numer, d), _times(ring, g.numer, b), subtract)
    if not t:
        return _zero(f.table)
    if h != 1:
        _, t, h = _cancel(ring, t, h)
    return _canonical(f.table, t, _times(ring, h, _times(ring, b, d)))


def _diff_quotient(f, idx):
    """d(a/b)/dx_idx for a lowest-terms a/b with b not constant.

    With h = gcd(b, b'), u = b/h and v = b'/h, the derivative is
    (a'u - a v) / (b u), and its numerator shares no factor with u, so
    the one gcd left to take is gcd(t, h), none when h is 1.
    """
    ring = f.table.ring
    a, b = f.numer, f.denom
    da, db = divided_derivative(a, idx), divided_derivative(b, idx)
    if not db:
        if not da:
            return _zero(f.table)
        _, da, b = _cancel(ring, da, b)
        return _canonical(f.table, da, b)
    h, v, u = _cancel(ring, db, b)
    t = _sum(_product(ring, da, u), _product(ring, a, v), True)
    if not t:
        return _zero(f.table)
    if h != 1:
        _, t, h = _cancel(ring, t, h)
    return _canonical(f.table, t, _product(ring, _times(ring, h, u), u))


def _cancel(ring, p, q):
    """(h, p/h, q/h) for h a gcd of a nonzero polynomial dict p and q, an
    int or a nonconstant polynomial dict.  Against an int q or a constant
    p, h is the int gcd of their coefficients, and an int q stays an int;
    otherwise ``_gcd`` takes h, kept as an int when it is constant."""
    if isinstance(q, int):
        g = math.gcd(q, *p.values())
        return g, _quotient(p, g), q // g
    zero = ring.zero_monom
    if len(p) == 1 and zero in p:
        g = math.gcd(*p.values(), *q.values())
        return g, _quotient(p, g), _quotient(q, g)
    h, p, q = _gcd(ring, p, q)
    c = _ground(h, zero)
    return (h if c is None else c), p, q


def _times(ring, p, q):
    """p * q for polynomial dicts or ints, not both ints."""
    if isinstance(p, int):
        return _scaled(q, p)
    if isinstance(q, int):
        return _scaled(p, q)
    return _product(ring, p, q)


class EvenImages:
    """Even symbols replaced by Scalars of the table, for ``images`` a
    nonempty dict from their names to the Scalars: ``EvenImages(table,
    images)(c)`` is ``c.subs_even(images)``, and ``evaluate(poly, den)``
    the Scalar poly / den so replaced, for a polynomial dict and an int
    den > 0.

    A monomial c x^m maps to c x^(m - e) b^e, for e the exponents of m in
    the replaced generators and b their images.  ``monomials`` keeps, by
    e, b^e and its integer denominator with the monomials of its
    numerator less e, so that each term of b^e costs one monomial
    product.  Each b^e is built once, on first need, as b^(e - e_i) b_i.
    The terms over integer denominators are summed into one numerator
    over their lcm and reduced once; a rational-function b^e adds its
    term as a Scalar.
    """

    __slots__ = ("table", "moved", "images", "key", "monomials")

    def __init__(self, table, images):
        self.table = table
        self.moved = tuple(table.even_index(name) for name in images)
        self.images = tuple(images.values())
        # e by a C-level getter: a tuple, or an int for one generator
        self.key = operator.itemgetter(*self.moved)
        self.monomials = {}
        zero = self.key(table.ring.zero_monom)
        self.monomials[zero] = self._entry(zero, Scalar.from_int(table, 1))

    def __call__(self, scalar):
        if not isinstance(scalar.denom, dict):
            return self.evaluate(scalar.numer, scalar.denom)
        den = self.evaluate(scalar.denom)
        if not den:
            raise ScalarError("substitution makes the denominator vanish")
        return _mul(self.evaluate(scalar.numer), _reciprocal(den))

    def _entry(self, e, b):
        """What ``monomials`` keeps for b^e: b^e, its denominator when it
        is an int (else None), the monomial x^-e, and, for an int
        denominator, its numerator's (monomial less e, coefficient)
        pairs."""
        shift = list(self.table.ring.zero_monom)
        for i, k in zip(self.moved, e if isinstance(e, tuple) else (e,)):
            shift[i] = -k
        shift = tuple(shift)
        d = b.integer_denominator()
        if d is None:
            return b, None, shift, ()
        mul = self.table.ring.mul
        return b, d, shift, tuple((mul(n, shift), k)
                                  for n, k in b.numer.items())

    def _monomial(self, e):
        """The entry of b^e: the nearest kept b^(e - k e_i), i the last
        generator with e_i > 0, multiplied by b_i up to e."""
        monomials = self.monomials
        exps = list(e) if isinstance(e, tuple) else [e]
        chain, key = [], e
        while key not in monomials:
            i = max(j for j, k in enumerate(exps) if k)
            chain.append((key, i))
            exps[i] -= 1
            key = tuple(exps) if isinstance(e, tuple) else exps[0]
        b = monomials[key][0]
        for key, i in reversed(chain):
            b = _mul(b, self.images[i])
            monomials[key] = self._entry(key, b)
        return monomials[e]

    def evaluate(self, poly, den=1):
        table = self.table
        mul, key, monomials = table.ring.mul, self.key, self.monomials
        sums = {}  # integer denominator of b^e -> numerator over it
        rational = _zero(table)
        for mono, c in poly.items():
            e = key(mono)
            entry = monomials.get(e)
            if entry is None:
                entry = self._monomial(e)
            b, d, shift, pairs = entry
            if d is None:
                rational = _add(rational, _mul(
                    _reduce(table, {mul(mono, shift): c}, den), b))
                continue
            acc = sums.get(d)
            if acc is None:
                acc = sums[d] = {}
            get = acc.get
            for n, k in pairs:
                m = mul(mono, n)
                acc[m] = get(m, 0) + c * k
        if len(sums) == 1:
            (lcm, num), = sums.items()
        else:
            lcm, num = math.lcm(*sums), {}
            get = num.get
            for d, acc in sums.items():
                for m, v in acc.items():
                    num[m] = get(m, 0) + v * (lcm // d)
        if 0 in num.values():
            num = {m: v for m, v in num.items() if v}
        return _add(_reduce(table, num, lcm * den), rational)


def binomial_half(k):
    """Coefficient of t^k in the square-root series of 1 + t."""
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(1, 2) - j
        out /= j + 1
    return out
